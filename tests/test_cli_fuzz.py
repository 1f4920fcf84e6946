"""Property test of the command line over generated argv, config files and
space files.

Whatever the argv and the files it names, `cli.main` ends in one of three
ways: a report with exit 0 exactly when every check passed, a report with
exit 1 when some check failed, or a usage error with exit 2, one
`polyslice: error:` line and nothing on stdout.  argparse's own help (a junk
token such as `-h`) is the one other exit 0, and prints usage.
"""

import contextlib
import io
import json
import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from polyslice.cli import main as cli_main  # noqa: E402
from polyslice.experiments import EXPERIMENTS  # noqa: E402
from polyslice.numeric import Vec  # noqa: E402
from polyslice.spaces import PolyhedralNormSpace, make_space_II, make_space_VII, save_space  # noqa: E402

# Exponent notation is drawn too: 1e-5000 has a denominator too long to print.
small_rational = st.one_of(st.builds("{}/{}".format, st.integers(-1, 6), st.integers(0, 12)),
                           st.sampled_from(["1e-5000", "2E3"]))
rational_list = st.lists(small_rational, min_size=1, max_size=3).map(",".join)

FLAGS = {
    "--n": st.integers(0, 3).map(str),
    "--r": small_rational,
    "--delta": small_rational,
    "--epsilon": small_rational,
    "--epsilons": rational_list,
    "--alpha": small_rational,
    "--trials": st.integers(0, 20).map(str),
    "--seed": st.integers(0, 1000).map(str),
    "--g": st.one_of(st.sampled_from(["e1", "e1+e2", "random", "e3", ""]), rational_list),
    "--omega-rule": st.one_of(st.sampled_from(["default", "list:", "list:x"]),
                              rational_list.map("list:{}".format)),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    # Files that scratch_cwd writes, and one that does not exist.
    "--space": st.sampled_from(["II.json", "VII.json", "custom.json", "missing.json"]),
}

# The flags each experiment reads (README, "Command line"); most drawn flags
# come from here, so that a good share of the runs gets past the config.
READS = {
    "thm1": ["--n", "--r", "--delta", "--epsilon", "--epsilons", "--space"],
    "prop2": ["--n", "--r", "--alpha", "--g", "--seed", "--space"],
    "prop3": ["--n", "--epsilon", "--epsilons", "--omega-rule", "--space"],
    "verify-ext": ["--n", "--r", "--space"],
    "sandwich": ["--n", "--r", "--trials", "--seed", "--space"],
}

# The space files of scratch_cwd that each experiment can run on.
SPACE_FILES = {
    "thm1": ["II.json"],
    "prop2": ["II.json"],
    "prop3": ["VII.json"],
    "verify-ext": ["II.json", "VII.json", "custom.json"],
    "sandwich": ["II.json"],
}

# Junk tokens: anything argparse might see, short of a prefix of --output,
# --config or --space, which would write or read files named by the junk.
junk = st.one_of(
    st.text(max_size=8).filter(lambda s: not s.startswith(("--o", "--c", "--sp"))),
    st.sampled_from(["-", "--", "-x", "--nope", "--epsilons", "--g", "--format", ",", "1/0", "e3"]),
)


@st.composite
def argvs(draw):
    argv = []
    experiment = draw(st.sampled_from(EXPERIMENTS + (None,)))
    if experiment is not None:
        argv.append(experiment)
    # A small N first, or a space file that the experiment reads and that
    # supplies N (verify-ext audits the file, and refuses N next to it), and
    # few trials for sandwich, so that no default grid runs; the drawn flags
    # below may still override any of them.
    if experiment is not None and draw(st.booleans()):
        argv += ["--space", draw(st.sampled_from(SPACE_FILES[experiment]))]
    else:
        argv += ["--n", draw(st.integers(1, 3).map(str))]
    if experiment == "sandwich":
        argv += ["--trials", draw(st.integers(1, 20).map(str))]
    pool = READS.get(experiment, []) * 4 + sorted(FLAGS)
    for flag in draw(st.lists(st.sampled_from(pool), max_size=3)):
        argv += [flag, draw(FLAGS[flag])]
    if draw(st.integers(0, 3)) == 3:
        for token in draw(st.lists(junk, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    # The last --format wins, so every report comes back as JSON.
    return argv + ["--format", "json"]


# JSON values of the wrong type for any config field or space file entry.
# null is left out where it would mean "the default grid" or "1000 trials".
json_junk = st.sampled_from([True, 0.5, "x", "1e-5000", [], {}, [1], {"a": 1}])
small_n = st.one_of(st.integers(0, 3), json_junk)
rational_value = st.one_of(small_rational, st.integers(-2, 3), json_junk, st.none())

CONFIG_VALUES = {
    "N": small_n,
    "r": rational_value,
    "delta": rational_value,
    "epsilon": rational_value,
    "epsilons": st.one_of(st.lists(small_rational, max_size=3), json_junk),
    "omega_rule": st.one_of(FLAGS["--omega-rule"], json_junk),
    "alpha": rational_value,
    "g": st.one_of(FLAGS["--g"], json_junk),
    "trials": st.one_of(st.integers(0, 20), json_junk),
    "seed": st.one_of(st.integers(0, 1000), json_junk),
    "bogus": json_junk,
}
CONFIG_KEY = {"--n": "N", "--omega-rule": "omega_rule"}


@st.composite
def config_dicts(draw):
    """A config object, mostly of fields its experiment reads.  Like argvs,
    it always sets N or a space file, and trials for sandwich."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    config = {"experiment": experiment}
    space = draw(st.sampled_from([None, None, "space.json", "space.json", "II.json", "VII.json",
                                  "missing.json", 7]))
    if space is None:
        config["N"] = draw(small_n)
    else:
        config["space_path"] = space
    if experiment == "sandwich":
        config["trials"] = draw(CONFIG_VALUES["trials"])
    reads = [CONFIG_KEY.get(flag, flag[2:]) for flag in READS[experiment] if flag != "--space"]
    for key in draw(st.lists(st.sampled_from(reads * 4 + sorted(CONFIG_VALUES)), max_size=3)):
        config[key] = draw(CONFIG_VALUES[key])
    return config


# Generator entries as (p, q), so that a set can be closed under negation.
entry = st.tuples(st.integers(-2, 2), st.integers(1, 3))
symmetric_generators = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=3)
).map(lambda half: [["%d/%d" % (s * p, q) for p, q in g] for g in half for s in (1, -1)])
space_values = st.one_of(
    st.fixed_dictionaries({"kind": st.just("II"), "N": small_n, "r": rational_value}),
    st.fixed_dictionaries({"kind": st.just("VII"), "N": small_n},
                          optional={"omega": st.one_of(st.lists(rational_value, max_size=3), json_junk)}),
    st.fixed_dictionaries(
        {"generators": st.one_of(symmetric_generators, st.lists(st.lists(small_rational, max_size=3),
                                                                max_size=3), json_junk)},
        optional={"kind": st.sampled_from(["custom", "III"]), "N": small_n, "r": rational_value}),
    json_junk,
)

DEEP = "[" * 1000 + "]" * 1000


def run(argv):
    """(exit code, stdout, stderr, whether argparse exited) of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exited = cli_main(argv), False
        except SystemExit as exc:
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


def assert_report_or_one_usage_line(argv):
    code, out, err, exited = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert exited
        assert "Traceback" not in err
        assert out == ""
        assert err.strip().splitlines()[-1].startswith("polyslice: error: ")
    elif exited:
        assert code == 0 and out.startswith("usage: polyslice")
    else:
        assert json.loads(out)["all_pass"] is (code == 0)
        assert err == ""


@pytest.fixture(scope="module")
def scratch_cwd(tmp_path_factory):
    """Run in a directory of three space files, so that --space can drive
    a run (the custom file's audit fails, exit 1) and a junk token taken
    for a path reads nothing of the repository."""
    here = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli-fuzz"))
    gens = sorted([Vec([1, 0]), Vec([-1, 0]), Vec([0, 1]), Vec([0, -1]),
                   Vec(["1/2", "1/2"]), Vec(["-1/2", "-1/2"])])
    save_space(make_space_II(2, "1/10"), "II.json")
    save_space(make_space_VII(3), "VII.json")
    save_space(PolyhedralNormSpace(2, tuple(gens), "custom"), "custom.json")
    yield
    os.chdir(here)


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
@example(argv=["verify-ext", "--space", "custom.json", "--format", "json"])
@example(argv=["sandwich", "\r", "--n", "1", "--trials", "1", "a\u2028b", "--format", "json"])
@example(argv=["thm1", "-h"])
@example(argv=["verify-ext", "--space", "II.json", "--r", "1/7", "--format", "json"])
def test_cli_ends_in_a_report_or_one_usage_line(scratch_cwd, argv):
    assert_report_or_one_usage_line(argv)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(config=st.one_of(config_dicts(), config_dicts(), config_dicts(), json_junk).map(json.dumps),
       space=space_values.map(json.dumps))
@example(config=DEEP, space="{}")
@example(config=json.dumps({"experiment": "verify-ext", "space_path": "space.json"}), space=DEEP)
@example(config='{"experiment": "thm1", "N": 1, "epsilon": %s}' % ("[" * 5000 + "]" * 5000),
         space="{}")
def test_config_and_space_files_end_in_a_report_or_one_usage_line(scratch_cwd, config, space):
    """config is written to cfg.json and space to space.json, which the
    config may name; the argv itself only asks for a JSON report."""
    with open("cfg.json", "w", encoding="utf-8") as fh:
        fh.write(config)
    with open("space.json", "w", encoding="utf-8") as fh:
        fh.write(space)
    assert_report_or_one_usage_line(["--config", "cfg.json", "--format", "json"])
