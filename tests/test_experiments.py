"""Experiment runners, report formats, config handling, and the CLI."""

import csv
import io
import json
import random

import pytest

import oracles
from polyslice import experiments
from polyslice.cli import main as cli_main
from polyslice.experiments import (
    ExperimentConfig,
    Report,
    audit_space,
    parse_g,
    run_experiment,
    sandwich_case,
    thm1_case,
)
from polyslice.numeric import Scalar, Vec, rational, rational_str
from polyslice.spaces import PolyhedralNormSpace, make_space_II, make_space_VII, save_space

SEED = 61


def rows_from_csv(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="thm9")


def test_config_rejects_bad_format_and_params():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="thm1", format="yaml")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="thm1", epsilon="-1/2")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="thm1", N=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="sandwich", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="prop3", N=1)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="prop3", epsilons=("1/10", "1/5"))


def test_config_enforces_thm1_admissibility():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="thm1", epsilon="1/2", r="1/4", delta="1/10")
    cfg = ExperimentConfig(experiment="thm1", epsilon="1/2")
    assert cfg.epsilon == rational("1/2")


def test_config_enforces_prop2_r_below_one():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="prop2", r="1")


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"experiment": "thm1", "colour": "red"})


def test_config_round_trip():
    cfg = ExperimentConfig(experiment="prop3", N=3, epsilons=("1/10", "1/20"),
                           seed=7, format="json")
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_thm1_rows_are_self_verifying():
    report = run_experiment(ExperimentConfig(experiment="thm1", N=2))
    assert report.all_pass
    for row in rows_from_csv(report.to_csv_text()):
        value = rational(row["exact_value"])
        bound = rational(row["bound"])
        eps = rational(row["epsilon"])
        r = rational(row["r"])
        delta = rational(row["delta"])
        assert bound == 2 * r + 3 * delta
        assert (row["pass"] == "True") == (value <= bound and value < eps)


def test_thm1_case_at_n_8_meets_the_closed_form():
    """The slice diameter is 2(r + delta)/(1 + r) regardless of N; at N = 8
    the slice has 2^9 vertices, 2^8 on each of its two beta levels."""
    eps = rational("1/5")
    r, delta = eps / 4, eps / 10
    row, _ = thm1_case(8, eps)
    assert row["exact_value"] == rational_str(2 * (r + delta) / (1 + r))
    assert row["vertex_count"] == 2 ** 9 and row["pass"]


def test_thm1_at_n_40_takes_no_dd_step_and_expands_no_vertex_list(monkeypatch):
    """The family II slice is cut one vertex orbit at a time from the
    ball's levels: at N = 40, where the ball has 3 * 2^40 vertices, thm1
    gives the closed-form value 2/15 and the exact count 2^41 with no
    _orbit expansion, no DD cut and no cone, and neither the slice nor its
    ball caches a vertex enumeration.  Counted, not timed."""
    from polyslice import polytope

    counts = dict.fromkeys(("orbit", "cut", "cone"), 0)
    for name in counts:
        fn = getattr(polytope, "_" + name)
        monkeypatch.setattr(polytope, "_" + name,
                            lambda *a, _n=name, _fn=fn: counts.__setitem__(_n, counts[_n] + 1)
                            or _fn(*a))
    row, parts = thm1_case(40, "1/5")
    assert (row["exact_value"], row["vertex_count"], row["pass"]) == ("2/15", 2 ** 41, True)
    assert counts == {"orbit": 0, "cut": 0, "cone": 0}
    assert parts["slice"]._vcache is None and parts["slice"]._base._vcache is None


def _n_bound_inputs(tmp_path, experiment, N):
    """The ways an N reaches an experiment: the flag, a config file and,
    where the experiment takes one, a space file of its family."""
    cfg = tmp_path / ("%s-%d.json" % (experiment, N))
    cfg.write_text(json.dumps({"experiment": experiment, "N": N}))
    yield [experiment, "--n", str(N)]
    yield ["--config", str(cfg)]
    kinds = {"prop3": ("VII",), "verify-ext": ("II", "VII")}.get(experiment, ("II",))
    for kind in kinds:
        space = tmp_path / ("%s-%s-%d.json" % (experiment, kind, N))
        space.write_text(json.dumps({"kind": kind, "N": N, "r": "1/10"} if kind == "II"
                                    else {"kind": kind, "N": N}))
        yield [experiment, "--space", str(space)]


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
def test_an_n_past_the_bound_is_a_usage_error_before_any_space_is_built(
        experiment, tmp_path, capsys, monkeypatch):
    """An N above spaces.MAX_N, from the flag, a config file or a space
    file, exits 2 with one message line before any space is built or any
    weight list drawn; an N past the index range once ended in an
    OverflowError traceback (exit 1), or, for prop3, in default weights
    drawn until memory ran out."""
    from polyslice import spaces

    calls = []
    monkeypatch.setattr(spaces.PolyhedralNormSpace, "_check",
                        lambda *a: calls.append("space"))
    for module in (spaces, experiments):
        monkeypatch.setattr(module, "check_omega",
                            lambda *a: calls.append("omega") or (), raising=False)
    for N in (spaces.MAX_N + 1, 99999999999999999999):
        for argv in _n_bound_inputs(tmp_path, experiment, N):
            message = assert_usage_error(argv, capsys)
            assert message == "polyslice: error: N must be at most %d" % spaces.MAX_N
    assert calls == []
    assert ExperimentConfig(experiment=experiment, N=spaces.MAX_N).N == spaces.MAX_N


# Per default grid: the ball orbit expansions (polytope._orbit) and the
# dual-vertex computations (polytope._extreme_keys), one per space that
# needs them.  thm1 and prop2 build a space per row and prop3 one per N.
# The family II slices of thm1 and prop2 are cut one vertex orbit at a
# time from the ball's levels and neighbour lists, so no family II ball is
# expanded; prop3's family VII balls are, one per N.  The certificates of
# prop2 and verify-ext's audits take the dual vertices, one per space.
DEFAULT_GRID_WORK = {
    "thm1": (0, 0), "prop2": (0, 12), "prop3": (3, 0), "verify-ext": (0, 18), "sandwich": (0, 0),
}


@pytest.mark.parametrize("experiment", ["thm1", "prop3", "prop2", "verify-ext", "sandwich"])
def test_default_grids_enumerate_no_ball_by_dd_and_solve_no_lp(monkeypatch, experiment):
    """On the default grids every ball comes from its vertex levels and
    every support value and coordinate bound from the closed form: DD's
    cone runs for no ball, and the only LPs are prop2's 14 certificate
    probes (the walk over every support took 16).  The one cut of each
    prop3 slice is a DD step; the family II slices of thm1 and prop2 take
    none (polytope._orbit_cut).  Each ball is expanded, and each dual
    vertex set computed, once per space, and a second unit_ball or
    dual_ball_vertices call on a space returns the same object with no new
    work."""
    from polyslice import linprog, polytope, slices, spaces

    counts = dict.fromkeys(("cone", "lp", "probe_lp", "cut", "orbit", "extreme"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    probe = slices._probe

    def counting_probe(g, ball_cols, support, dim):
        counts["probe_lp"] += bool(support)
        return probe(g, ball_cols, support, dim)

    built = []

    def recording(build):
        return lambda *args: built.append(build(*args)) or built[-1]

    monkeypatch.setattr(polytope, "_cone", counting("cone", polytope._cone))
    monkeypatch.setattr(polytope, "_cut", counting("cut", polytope._cut))
    monkeypatch.setattr(polytope, "_orbit", counting("orbit", polytope._orbit))
    extreme = counting("extreme", polytope._extreme_keys)
    monkeypatch.setattr(polytope, "_extreme_keys", extreme)
    monkeypatch.setattr(spaces, "_extreme_keys", extreme)
    monkeypatch.setattr(slices, "solve_lp", counting("lp", slices.solve_lp))
    monkeypatch.setattr(spaces, "solve_lp", counting("lp", spaces.solve_lp))
    monkeypatch.setattr(linprog, "solve_lp", counting("lp", linprog.solve_lp))
    monkeypatch.setattr(slices, "_probe", counting_probe)
    monkeypatch.setattr(experiments, "make_space_II", recording(experiments.make_space_II))
    monkeypatch.setattr(experiments, "make_space_VII", recording(experiments.make_space_VII))
    report = run_experiment(ExperimentConfig(experiment=experiment))
    assert report.all_pass
    diameters = sum(bool(row.get("exact_value")) for row in report.rows)
    assert (counts["cone"], counts["cut"]) == (0, diameters if experiment == "prop3" else 0)
    assert counts["lp"] == counts["probe_lp"] == (14 if experiment == "prop2" else 0)
    assert (counts["orbit"], counts["extreme"]) == DEFAULT_GRID_WORK[experiment]
    assert len(built) == (3 if experiment == "prop3" else len(report.rows))
    for sp in built:
        ball, dual = spaces.unit_ball(sp), spaces.dual_ball_vertices(sp)
        polytope._enumeration(ball)
        before = dict(counts)
        assert spaces.unit_ball(sp) is ball and spaces.dual_ball_vertices(sp) is dual
        assert polytope._enumeration(spaces.unit_ball(sp)) is polytope._enumeration(ball)
        assert counts == before


def test_prop2_report_covers_success_and_small_dimension():
    cfg = ExperimentConfig(experiment="prop2", r="1/10", g="e1", alpha="1/2")
    report = run_experiment(cfg)
    assert report.all_pass
    by_n = {row["N"]: row for row in report.rows}
    assert by_n[1]["outcome"] == "dimension-too-small"
    assert by_n[4]["outcome"] == "certified"
    assert report.summary["minimal_certified_N"] == 2
    assert report.summary["dimension_too_small_N"] == [1]
    for row in report.rows:
        if row["outcome"] == "certified":
            assert rational(row["exact_value"]) >= rational(row["bound"])


def test_prop2_random_g_is_seed_deterministic():
    cfg = ExperimentConfig(experiment="prop2", N=4, r="1/10", g="random", seed=77)
    a = run_experiment(cfg).to_json_text()
    b = run_experiment(cfg).to_json_text()
    assert a == b


def test_prop3_rows_and_summary():
    cfg = ExperimentConfig(experiment="prop3", N=3, epsilons=("1/10", "1/20"))
    report = run_experiment(cfg)
    assert report.all_pass
    assert report.summary["four_epsilon_holds"] is False
    assert report.summary["check_monotone"] is True
    for row in report.rows:
        value = rational(row["exact_value"])
        eps = rational(row["epsilon"])
        assert value <= 6 * eps
        assert row["four_epsilon"] == (value <= 4 * eps)
        assert rational(row["max_tail"]) <= rational(row["tail_bound"])


def test_verify_ext_default_grid_row_shape():
    report = run_experiment(ExperimentConfig(experiment="verify-ext", N=2, r="1/10"))
    assert report.all_pass
    row = report.rows[0]
    assert row["extreme_count"] == row["expected_count"] == 10
    assert row["set_equal"] is True


def test_sandwich_reports_worst_ratio_within_cap():
    cfg = ExperimentConfig(experiment="sandwich", N=2, r="1/10", trials=200, seed=3)
    report = run_experiment(cfg)
    assert report.all_pass
    row = report.rows[0]
    assert row["failures"] == 0
    assert rational(row["worst_ratio"]) <= rational(row["ratio_cap"])


@pytest.mark.parametrize("N", range(1, 7))
def test_sandwich_case_matches_the_fraction_oracle(monkeypatch, N):
    """The integer trials give the Fraction loop's failure count and worst
    ratio, and draw the same numbers from the rng; at N = 6 also over one
    run of 1000 trials.  Every run is made with the default block size and
    again with blocks of 7 trials, so that 13, 60 and 1000 trials cross
    block boundaries."""
    runs = [(r, seed, trials) for r in ("1/20", "7/3", "1")
            for seed, trials in ((0, 1), (N + 17, 13), (1000 * N + 5, 60))]
    if N == 6:
        runs.append(("1/20", 6006, 1000))
    for block in (experiments._SANDWICH_BLOCK, 7):
        monkeypatch.setattr(experiments, "_SANDWICH_BLOCK", block)
        for r, seed, trials in runs:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            row = sandwich_case(N, r, trials, rng)
            failures, worst = oracles.sandwich_trials(oracles.gens_II(N, r), N, r, trials, ref_rng)
            assert (row["failures"], row["worst_ratio"]) == (failures, rational_str(worst))
            assert rng.getstate() == ref_rng.getstate()


def test_sandwich_draw_is_randint_on_the_same_stream():
    """The getrandbits rejection draw of one trial gives the numbers of
    randint(-50, 50), randint(1, 20) per coordinate and leaves the rng in
    the same state, trial after trial on one stream."""
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for d in range(1, 8):
            A, Q = experiments._sandwich_draw(rng.getrandbits, d)
            pairs = [(ref_rng.randint(-50, 50), ref_rng.randint(1, 20)) for _ in range(d)]
            assert list(zip(A, Q)) == pairs
            assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("scale", ["1/2", "3"])
def test_sandwich_case_counts_failures_like_the_fraction_oracle(monkeypatch, scale):
    """Generators scaled off the family II set break the sandwich from below
    (1/2) or above (3); failures and worst ratio still match the oracle,
    also when blocks of 7 trials split the 40."""
    def scaled_space_II(N, r):
        base = make_space_II(N, r)
        return PolyhedralNormSpace(base.dim, tuple(sorted(g * scale for g in base.generators)),
                                   "II", base.params)

    monkeypatch.setattr(experiments, "make_space_II", scaled_space_II)
    for block in (experiments._SANDWICH_BLOCK, 7):
        monkeypatch.setattr(experiments, "_SANDWICH_BLOCK", block)
        for N, r in ((1, "1/20"), (3, "7/3"), (5, "1")):
            gens = [tuple(c * Scalar(scale) for c in g) for g in oracles.gens_II(N, r)]
            row = sandwich_case(N, r, 40, random.Random(N))
            failures, worst = oracles.sandwich_trials(gens, N, r, 40, random.Random(N))
            assert failures > 0
            assert (row["failures"], row["worst_ratio"]) == (failures, rational_str(worst))


def test_sandwich_case_on_zero_vectors_reports_no_ratio():
    """Every draw a zero numerator: lower and value are both 0, which passes
    the sandwich and leaves no ratio to report."""
    class ZeroNumerators(random.Random):
        def getrandbits(self, k):
            return 50 if k == 7 else 0

    row = sandwich_case(2, "1/10", 5, ZeroNumerators(0))
    assert (row["failures"], row["worst_ratio"], row["pass"]) == (0, "", True)
    assert oracles.sandwich_trials(oracles.gens_II(2, "1/10"), 2, "1/10", 5, ZeroNumerators(0)) == (0, None)


def test_reports_are_byte_identical_for_fixed_config():
    cfg = ExperimentConfig(experiment="sandwich", N=1, trials=60, seed=11, format="json")
    assert run_experiment(cfg).render() == run_experiment(cfg).render()
    cfg2 = ExperimentConfig(experiment="thm1", N=1, format="csv")
    assert run_experiment(cfg2).render() == run_experiment(cfg2).render()


def test_csv_column_contract():
    report = run_experiment(ExperimentConfig(experiment="thm1", N=1, epsilon="1/5"))
    header = report.to_csv_text().splitlines()[0].split(",")
    assert header[:2] == ["experiment", "N"]
    for name in ("exact_value", "decimal_value", "bound"):
        assert name in header
    assert header[-1] == "pass"
    assert header.index("exact_value") < header.index("decimal_value") < header.index("bound")


def test_json_report_carries_config_echo_and_verdict():
    cfg = ExperimentConfig(experiment="verify-ext", N=1, r="1/4", format="json")
    payload = json.loads(run_experiment(cfg).to_json_text())
    assert payload["config"]["experiment"] == "verify-ext"
    assert payload["config"]["r"] == "1/4"
    assert payload["all_pass"] is True
    assert payload["rows"][0]["expected_count"] == 6


def test_parse_g_variants():
    rng = random.Random(SEED)
    assert parse_g("e1", 3, rng) == Vec.unit(4, 0)
    assert parse_g(None, 3, rng) == Vec.unit(4, 0)
    assert parse_g("e1+e2", 3, rng) == Vec.unit(4, 0) + Vec.unit(4, 1)
    g = parse_g("random", 4, rng)
    assert g[-1] == 0
    assert sum(abs(c) for c in g) == 1
    explicit = parse_g("1/2,0,-1/2,0", 3, rng)
    assert explicit == Vec([rational("1/2"), 0, rational("-1/2"), 0])
    with pytest.raises(ValueError):
        parse_g("e1+e2", 1, rng)
    with pytest.raises(ValueError):
        parse_g("1/2,1/2", 3, rng)


def test_audit_space_flags_non_extreme_generators():
    gens = sorted([Vec([1, 0]), Vec([-1, 0]), Vec([0, 1]), Vec([0, -1]),
                   Vec(["1/2", "1/2"]), Vec(["-1/2", "-1/2"])])
    sp = PolyhedralNormSpace(2, tuple(gens), "custom")
    row = audit_space(sp)
    assert row["pass"] is False
    assert row["extreme_count"] == 4
    assert row["expected_count"] == 6


def test_space_file_fills_parameters(tmp_path):
    path = tmp_path / "space.json"
    save_space(make_space_II(2, "1/8"), path)
    cfg = ExperimentConfig(experiment="thm1", epsilon="1/2", space_path=str(path))
    report = run_experiment(cfg)
    assert report.all_pass
    assert report.rows[0]["r"] == "1/8"
    assert report.rows[0]["N"] == 2


def test_space_file_kind_mismatch_is_rejected(tmp_path):
    path = tmp_path / "space.json"
    save_space(make_space_VII(3), path)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="thm1", epsilon="1/2", space_path=str(path))


def test_cli_runs_and_exits_zero(capsys):
    code = cli_main(["thm1", "--n", "1", "--epsilon", "1/5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("experiment,N,epsilon")
    assert "thm1,1,1/5" in out


def test_cli_json_format(capsys):
    code = cli_main(["verify-ext", "--n", "1", "--r", "1/10", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_pass"] is True


def test_cli_prop3_runs_the_one_epsilon_it_is_given(capsys):
    code = cli_main(["prop3", "--n", "3", "--epsilon", "1/7", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(row["N"], row["epsilon"]) for row in payload["rows"]] == [(3, "1/7")]


def test_cli_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = cli_main(["sandwich", "--n", "1", "--trials", "20", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("experiment,N,r,trials")


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "thm1", "N": 2, "epsilon": "1/2"}))
    code = cli_main(["--config", str(cfg_path), "--epsilon", "1/5"])
    out = capsys.readouterr().out
    assert code == 0
    rows = rows_from_csv(out)
    assert rows[0]["epsilon"] == "1/5"
    assert rows[0]["N"] == "2"


def test_cli_exit_one_on_failed_audit(tmp_path, capsys):
    gens = sorted([Vec([1, 0]), Vec([-1, 0]), Vec([0, 1]), Vec([0, -1]),
                   Vec(["1/2", "1/2"]), Vec(["-1/2", "-1/2"])])
    sp = PolyhedralNormSpace(2, tuple(gens), "custom")
    path = tmp_path / "space.json"
    save_space(sp, path)
    code = cli_main(["verify-ext", "--space", str(path)])
    capsys.readouterr()
    assert code == 1


def test_verify_ext_space_file_refuses_n_and_r(tmp_path, capsys):
    """The audit runs on the file's space as it is, so an N or r next to
    it would be dropped; it is refused instead, from flags or config."""
    path = tmp_path / "space.json"
    save_space(make_space_II(2, "1/10"), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "verify-ext", "N": 3, "space_path": str(path)}))
    for argv in (["verify-ext", "--n", "3", "--space", str(path)],
                 ["verify-ext", "--r", "1/7", "--space", str(path)],
                 ["--config", str(cfg)]):
        message = assert_usage_error(argv, capsys)
        assert message.endswith("verify-ext audits the space file as it is; drop N and r")
    assert cli_main(["verify-ext", "--space", str(path)]) == 0


def test_cli_rejects_missing_experiment():
    with pytest.raises(SystemExit):
        cli_main([])


def test_cli_byte_identical_runs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli_main(["sandwich", "--n", "1", "--trials", "30", "--seed", "5", "--output", str(a)])
    cli_main(["sandwich", "--n", "1", "--trials", "30", "--seed", "5", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_report_all_pass_reflects_summary_checks():
    cfg = ExperimentConfig(experiment="thm1", N=1, epsilon="1/5")
    report = run_experiment(cfg)
    assert report.all_pass
    doctored = Report(config=report.config, columns=report.columns,
                      rows=report.rows, summary={"check_rows": False})
    assert not doctored.all_pass


@pytest.mark.parametrize("argv", [
    ["prop2", "--g", "1,2", "--n", "3"],
    ["prop2", "--g", "1,0"],
    ["prop2", "--g", "e1+e2"],
    ["prop3", "--n", "4", "--omega-rule", "list:9/10,9/10"],
    ["prop3", "--omega-rule", "list:9/10,9/10"],
    ["prop3", "--n", "3", "--omega-rule", "list:1/2,9/10"],
    ["thm1", "--n", "2", "--epsilons", "1/2,1/5", "--r", "1"],
    ["thm1", "--n", "2", "--epsilons", "1/2,1/5", "--r", "1/10", "--delta", "1/20"],
    ["thm1", "--n", "2", "--r", "1"],
    ["prop2", "--n", "2", "--g", "0,0,0"],
])
def test_cli_rejects_grid_mismatched_input_with_exit_two(argv, capsys):
    """Input that cannot fit some N or epsilon of the grid is a usage error
    (exit 2, one-line message), not a failed check (exit 1)."""
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("polyslice: error: ")


@pytest.mark.parametrize("argv, space", [
    (["prop2", "--g", "1,0,0"], {"kind": "II", "N": 1, "r": "1/10"}),
    (["thm1"], {"kind": "II"}),
    (["thm1"], {"kind": "II", "N": 2, "r": 0.1}),
    (["prop3"], {"kind": "II", "N": 3, "r": "1/10"}),
    (["sandwich"], {"kind": "VII", "N": 3}),
    (["thm1", "--epsilon", "1/2"], {"kind": "II", "N": 1.5, "r": "1/10"}),
    (["thm1", "--epsilon", "1/2"], {"kind": "II", "N": True, "r": "1/10"}),
])
def test_cli_rejects_bad_space_file_with_exit_two(tmp_path, capsys, argv, space):
    """Input that is only wrong once the --space file is folded in is a usage
    error too: exit 2 with one line, no traceback."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    with pytest.raises(SystemExit) as info:
        cli_main(argv + ["--space", str(path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("polyslice: error: ")


@pytest.mark.parametrize("data", [
    {"experiment": "thm1", "r": 0.1},
    {"experiment": "thm1", "N": "3"},
    {"experiment": "thm1", "N": 2.5},
    {"experiment": "thm1", "N": True},
    {"experiment": "sandwich", "N": 1, "trials": 2.5},
    {"experiment": "sandwich", "N": 1, "seed": [1]},
    {"experiment": "prop3", "N": 3, "omega_rule": 5},
    {"experiment": "prop2", "N": 2, "g": 5},
    {"experiment": "verify-ext", "space_path": 0},
    {"experiment": "verify-ext", "N": 1, "output_path": 5},
    {"experiment": "thm1", "N": 1, "epsilons": "1/5"},
    {"experiment": "prop3", "N": 3, "epsilons": []},
    {"experiment": "sandwich", "N": 1, "trials": 20, "r": True},
    {"experiment": "thm1", "N": 1, "epsilon": "1/2", "delta": True},
    {"experiment": "prop2", "N": 2, "alpha": True},
    {"experiment": "thm1", "N": 1, "epsilons": ["1/2", True]},
    {"experiment": "thm1", "N": 1, "epsilon": True},
    {"experiment": "sandwich", "trials": 20, "space_path": {"kind": "II", "N": 1, "r": True}},
    {"experiment": "sandwich", "N": 1, "trials": 2, "r": "1e-5000"},
])
def test_cli_rejects_mistyped_config_with_exit_two(tmp_path, capsys, data):
    """A dict under space_path is written to a space file that the config
    names, so a mistyped space file entry is refused the same way."""
    if isinstance(data.get("space_path"), dict):
        space = tmp_path / "space.json"
        space.write_text(json.dumps(data["space_path"]))
        data = dict(data, space_path=str(space))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert_usage_error(["--config", str(path)], capsys)


def assert_usage_error(argv, capsys):
    """argv is refused before any work: exit 2, one message line, no
    traceback.  Returns the message line."""
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    message = captured.err.strip().splitlines()[-1]
    assert message.startswith("polyslice: error: ")
    return message


@pytest.mark.parametrize("argv", [
    ["thm1", "--n", "1", "--r", "1/0"],
    ["thm1", "--n", "1", "--epsilon", "1/0"],
    ["thm1", "--n", "1", "--epsilons", "1/2,1/0"],
    ["thm1", "--n", "1", "--delta=-1/0"],
    ["prop2", "--n", "1", "--alpha", "1/0"],
    ["prop2", "--n", "1", "--g", "1/0,0"],
    ["prop3", "--n", "3", "--omega-rule", "list:9/10,1/0"],
])
def test_cli_rejects_zero_denominators_with_exit_two(argv, capsys):
    assert_usage_error(argv, capsys)


@pytest.mark.parametrize("argv, message", [
    (["thm1", "--n", "1", "--epsilons", ","], "epsilons entry 1: '' is not a rational p/q"),
    (["thm1", "--epsilons", "1/2,,1/3"], "epsilons entry 2: '' is not a rational p/q"),
    (["prop2", "--n", "1", "--g", "e3"], "g entry 1: 'e3' is not a rational p/q; g is e1, e1+e2,"),
    (["prop2", "--n", "2", "--g", "e1+e3"], "g entry 1: 'e1+e3' is not a rational p/q"),
    (["prop2", "--n", "2", "--g", "1,x,0"], "g entry 2: 'x' is not a rational p/q"),
    (["prop3", "--n", "2", "--omega-rule", "list:"], "omega-rule weight 1: '' is not a rational p/q"),
    (["prop3", "--n", "3", "--omega-rule", "list:9/10,1/0"],
     "omega-rule weight 2: zero denominator in '1/0'"),
    (["thm1", "--n", "1", "--r", "abc"], "r: 'abc' is not a rational p/q"),
    (["prop2", "--n", "1", "--alpha", "1/2/3"], "alpha: '1/2/3' is not a rational p/q"),
    (["sandwich", "--n", "1", "--trials", "2", "--r", "1e-5000"], "r: '1e-5000' is not a rational p/q"),
])
def test_cli_names_the_flag_and_entry_of_a_bad_rational(argv, message, capsys):
    assert message in assert_usage_error(argv, capsys)


def test_config_and_space_file_name_a_bad_rational(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "thm1", "N": 1, "epsilons": ["1/2", "x"]}))
    assert "epsilons entry 2: 'x' is not a rational p/q" in assert_usage_error(["--config", str(cfg)], capsys)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"kind": "II", "N": 1, "r": "1/0"}))
    message = assert_usage_error(["thm1", "--epsilon", "1/2", "--space", str(space)], capsys)
    assert "space file r: zero denominator in '1/0'" in message
    space.write_text(json.dumps({"kind": "VII", "N": 3, "omega": ["9/10", True]}))
    message = assert_usage_error(["prop3", "--space", str(space)], capsys)
    assert "space file omega entry 2: refusing to coerce bool True" in message


def test_cli_rejects_zero_denominator_in_config_and_space_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "sandwich", "N": 1, "r": "2/0"}))
    assert_usage_error(["--config", str(cfg)], capsys)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"kind": "II", "N": 1, "r": "1/0"}))
    assert_usage_error(["thm1", "--epsilon", "1/2", "--space", str(space)], capsys)


@pytest.mark.parametrize("argv, text", [
    (["thm1", "--config"], "[" * 1000 + "]" * 1000),
    (["--config"], '{"experiment": "thm1", "N": 1, "epsilon": %s}' % ("[" * 5000 + "]" * 5000)),
    (["verify-ext", "--space"], "[" * 1000 + "]" * 1000),
], ids=["config", "config-entry", "space"])
def test_cli_refuses_too_deeply_nested_json_with_exit_two(tmp_path, capsys, argv, text):
    """json.load gives up on deep nesting with a RecursionError; the CLI
    names the file instead."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    message = assert_usage_error(argv + [str(path)], capsys)
    assert message.endswith("file %s nests too deeply to parse" % path)


@pytest.mark.parametrize("argv", [["thm1", "--config"], ["thm1", "--space"]],
                         ids=["config", "space"])
def test_cli_names_a_file_that_is_not_valid_json(tmp_path, capsys, argv):
    path = tmp_path / "broken.json"
    path.write_text("{")
    message = assert_usage_error(argv + [str(path)], capsys)
    assert "file %s is not valid JSON: " % path in message


def test_cli_reads_a_space_file_once(tmp_path, capsys, monkeypatch):
    """The space file is folded into the config once, and the run uses that
    config: a kind II file for thm1 and a custom file for the audit are
    each read once."""
    from polyslice import cli, spaces

    reads = []
    load_space = spaces.load_space

    def counting_load_space(path):
        reads.append(path)
        return load_space(path)

    for module in (spaces, experiments, cli):
        if hasattr(module, "load_space"):
            monkeypatch.setattr(module, "load_space", counting_load_space)
    save_space(make_space_II(2, "1/8"), tmp_path / "II.json")
    square = [Vec([1, 0]), Vec([-1, 0]), Vec([0, 1]), Vec([0, -1])]
    save_space(PolyhedralNormSpace(2, tuple(sorted(square)), "custom"), tmp_path / "custom.json")
    for argv in (["thm1", "--epsilon", "1/2", "--space", str(tmp_path / "II.json")],
                 ["verify-ext", "--space", str(tmp_path / "custom.json")]):
        reads.clear()
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert reads == [argv[-1]]


def test_cli_rejects_unwritable_output_before_running(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert_usage_error(["verify-ext", "--n", "1", "--output", str(missing)], capsys)
    assert_usage_error(["verify-ext", "--n", "1", "--output", str(tmp_path)], capsys)
    assert not missing.parent.exists()


def test_cli_reports_a_failed_write_with_exit_two(tmp_path, capsys, monkeypatch):
    """A write that fails after the run (the directory vanished, say) is
    still one line and exit 2."""
    import polyslice.cli

    monkeypatch.setattr(polyslice.cli, "_check_output_path", lambda path: None)
    target = tmp_path / "gone" / "x.csv"
    assert_usage_error(["verify-ext", "--n", "1", "--output", str(target)], capsys)


def test_config_checks_g_and_weights_against_every_grid_n():
    with pytest.raises(ValueError, match="expected 4"):
        ExperimentConfig.from_dict({"experiment": "prop2", "N": 3, "g": "1,2"})
    with pytest.raises(ValueError, match="expected 3 weights, got 2"):
        ExperimentConfig.from_dict({"experiment": "prop3", "N": 4, "omega_rule": "list:9/10,9/10"})
    with pytest.raises(ValueError, match="expected 3 weights, got 2"):
        ExperimentConfig.from_dict({"experiment": "prop3", "omega_rule": "list:9/10,9/10"})
    ExperimentConfig.from_dict({"experiment": "prop2", "N": 1, "g": "1,0"})
    ExperimentConfig.from_dict({"experiment": "prop3", "N": 3, "omega_rule": "list:9/10,9/10"})


@pytest.mark.parametrize("argv", [
    ["sandwich", "--n", "2", "--epsilon", "1/3"],
    ["sandwich", "--n", "1", "--delta", "1/3"],
    ["sandwich", "--n", "1", "--g", "e1"],
    ["thm1", "--n", "2", "--g", "e1"],
    ["thm1", "--n", "1", "--trials", "5"],
    ["thm1", "--n", "1", "--omega-rule", "list:9/10"],
    ["prop2", "--n", "2", "--trials", "5"],
    ["prop2", "--n", "2", "--epsilon", "1/2"],
    ["prop3", "--n", "3", "--r", "1/10"],
    ["prop3", "--n", "3", "--alpha", "1/2"],
    ["verify-ext", "--n", "2", "--epsilon", "1/2"],
    ["verify-ext", "--n", "2", "--epsilons", "1/2,1/3"],
])
def test_cli_rejects_a_flag_the_experiment_ignores(argv, capsys):
    assert_usage_error(argv, capsys)


def test_config_file_field_the_experiment_ignores_is_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "sandwich", "N": 1, "trials": 20, "alpha": "1/2"}))
    assert_usage_error(["--config", str(path)], capsys)
    with pytest.raises(ValueError, match="^sandwich does not use 'alpha'; it reads N, r, trials$"):
        ExperimentConfig(experiment="sandwich", alpha="1/2")
