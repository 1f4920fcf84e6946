"""Named experiment sweeps and machine-readable reports.

Each experiment builds spaces and slices from the other modules, checks the
advertised inequalities exactly, and emits a Report whose rows carry both
sides of every inequality as rational strings plus a pass flag.  Reports are
byte-identical across runs for a fixed config and seed.

An experiment is one entry of a table: its columns, a generator of the rows
of a config's grid, and a summary of those rows.  run_experiment is the one
loop that turns an entry into a Report.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field, fields
from itertools import repeat
from math import lcm
from operator import add, floordiv, gt, mul, or_
from typing import Callable

from .numeric import ONE, Scalar, Vec, ZERO, _abs_max, exact_int, rational, rational_str
from .polytope import _enumeration
from .slices import (
    DimensionTooSmall,
    SliceSpec,
    _slice,
    diameter,
    lower_bound_certificate,
    make_slice,
    support_value,
)
from .spaces import (
    MAX_N,
    PolyhedralNormSpace,
    _norm_ints,
    check_omega,
    dual_ball_vertices,
    load_space,
    make_space_II,
    make_space_VII,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "Report",
    "run_experiment",
]

DEFAULT_N_GRID = (1, 2, 3, 4, 5, 6)
DEFAULT_THM1_EPSILONS = ("1/2", "1/5", "1/20")
DEFAULT_PROP2_RS = ("1/10", "1/4")
DEFAULT_PROP3_NS = (3, 4, 5)
DEFAULT_PROP3_EPSILONS = ("1/10", "1/20", "1/40", "1/80")
DEFAULT_EXT_RS = ("1/20", "1/10", "1/4")
DEFAULT_SANDWICH_RS = ("1/20", "1/10", "1/4")
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 20260816
#: Trials per column-wise block in sandwich_case; bounds its memory only.
_SANDWICH_BLOCK = 1024


def _decimal(x) -> str:
    return "%.12g" % float(x)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one sweep.

    N bounds the grid (None means the experiment's default grid); epsilon and
    epsilons are exact rationals; g is a functional spec for the certificate
    experiment ("e1", "e1+e2", "random", or comma-separated rationals).

    Each experiment reads only some of the parameters (its table entry names
    them); setting any other one away from its default is an error rather
    than a flag silently dropped.  The run-level fields in _RUN_FIELDS, the
    seed among them, are accepted by every experiment, so a report's config
    echo, which always holds the seed, reads back as the same config.

    A space_path file is read once, here, and folded in (see
    _fold_space_file); the config echo holds the folded values.
    """

    experiment: str
    N: int = None
    r: Scalar = None
    delta: Scalar = None
    epsilon: Scalar = None
    epsilons: tuple = None
    omega_rule: str = "default"
    alpha: Scalar = None
    g: str = None
    trials: int = None
    seed: int = DEFAULT_SEED
    space_path: str = None
    output_path: str = None
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError("unknown experiment %r; expected one of %s" % (self.experiment, ", ".join(EXPERIMENTS)))
        reads = _TABLE[self.experiment].reads
        for f in fields(self):
            if f.name in reads or f.name in _RUN_FIELDS:
                continue
            if getattr(self, f.name) != f.default:
                raise ValueError("%s does not use %r; it reads %s"
                                 % (self.experiment, f.name, ", ".join(reads)))
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        exact_int(self.seed, "seed")
        for name in ("N", "trials"):
            if getattr(self, name) is not None:
                exact_int(getattr(self, name), name)
        for name in ("omega_rule", "g", "space_path", "output_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError("%r must be a string, got %r" % (name, value))
        for name in ("r", "delta", "epsilon", "alpha"):
            value = getattr(self, name)
            if value is not None:
                value = rational(value, name)
                object.__setattr__(self, name, value)
                if value <= 0:
                    raise ValueError("%s must be positive" % name)
        if self.epsilons is not None:
            if not isinstance(self.epsilons, (list, tuple)) or not self.epsilons:
                raise ValueError("'epsilons' must be a nonempty list, got %r" % (self.epsilons,))
            eps = tuple(rational(e, "epsilons entry %d" % i) for i, e in enumerate(self.epsilons, 1))
            if any(e <= 0 for e in eps):
                raise ValueError("epsilons must be positive")
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise ValueError("epsilons must be strictly decreasing")
            object.__setattr__(self, "epsilons", eps)
        if self.N is not None and self.N < 1:
            raise ValueError("N must be positive")
        if self.N is not None and self.N > MAX_N:
            raise ValueError("N must be at most %d" % MAX_N)
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.omega_rule != "default" and not self.omega_rule.startswith("list:"):
            raise ValueError("omega-rule must be 'default' or 'list:w2,w3,...'")
        # The checks below read N, r and the weights, which the file may set.
        object.__setattr__(self, "_space", None)
        if self.space_path is not None:
            self._fold_space_file()
        if self.experiment == "thm1":
            for eps in _epsilons(self, DEFAULT_THM1_EPSILONS):
                _thm1_params(eps, self.r, self.delta)
        if self.experiment == "prop2" and self.r is not None and self.r >= 1:
            raise ValueError("prop2 needs r strictly below 1")
        if self.experiment == "prop3" and self.N is not None and self.N < 2:
            raise ValueError("prop3 needs N at least 2")
        for N in _n_grid(self):
            if self.experiment == "prop2" and self.g not in (None, "random"):
                parse_g(self.g, N, None)
            if self.experiment == "prop3":
                check_omega(N, _omega_for(self, N))

    def _fold_space_file(self):
        """Read the space file and fold it into the config.

        Kind II files supply N and r to the lifted-space experiments; kind
        VII files supply N and the weight list to the shrinking-slice
        experiment; values set in the config still win.  Any kind can feed
        the verify-ext audit, which then runs on the file's generators
        directly, so N and r cannot be set next to it.  That space is kept
        as _space, which is not a field, so equality, hashing and the config
        echo ignore it.
        """
        if self.experiment == "verify-ext" and (self.N is not None or self.r is not None):
            raise ValueError("verify-ext audits the space file as it is; drop N and r")
        space = load_space(self.space_path)
        if self.experiment == "verify-ext":
            object.__setattr__(self, "_space", space)
            return
        if space.label == "II":
            if self.experiment not in ("thm1", "prop2", "sandwich"):
                raise ValueError("a lifted-space file cannot drive %s" % self.experiment)
            updates = {"N": space.param("N"), "r": space.param("r")}
        elif space.label == "VII":
            if self.experiment != "prop3":
                raise ValueError("a weighted-space file can only drive prop3")
            updates = {"N": space.param("N"), "omega_rule":
                       "list:" + ",".join(rational_str(w) for w in space.param("omega"))}
        else:
            raise ValueError("explicit-generator spaces only run the verify-ext audit")
        for name, value in updates.items():
            # Unset is None for N and r, and "default" for omega_rule.
            if getattr(self, name) in (None, "default"):
                object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        return cls(**data)

    def to_dict(self) -> dict:
        """Every field that is set, rationals as "p/q" strings."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [rational_str(e) for e in value]
            elif isinstance(value, Scalar):
                value = rational_str(value)
            if value is not None:
                data[f.name] = value
        return data


@dataclass(frozen=True)
class Report:
    """Config echo, per-case rows, and a summary verdict.

    Rows are dicts with a fixed column order per experiment; every checked
    inequality contributes its exact sides and a boolean.  all_pass is the
    conjunction of the row flags and the summary checks.
    """

    config: ExperimentConfig
    columns: tuple
    rows: tuple
    summary: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        if not all(row.get("pass", False) for row in self.rows):
            return False
        return all(bool(v) for k, v in self.summary.items() if k.startswith("check_"))

    def to_json_text(self) -> str:
        payload = {
            "config": self.config.to_dict(),
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "summary": self.summary,
            "all_pass": self.all_pass,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([row.get(col, "") for col in self.columns])
        return buf.getvalue()

    def render(self) -> str:
        return self.to_json_text() if self.config.format == "json" else self.to_csv_text()


def _n_grid(config: ExperimentConfig) -> tuple:
    """The N values a sweep visits: the configured N or the default grid."""
    if config.N is not None:
        return (config.N,)
    return DEFAULT_PROP3_NS if config.experiment == "prop3" else DEFAULT_N_GRID


def _epsilons(config: ExperimentConfig, default: tuple) -> tuple:
    """The epsilons a thm1 or prop3 sweep visits: --epsilons, --epsilon or
    the default grid."""
    if config.epsilons is not None:
        return config.epsilons
    if config.epsilon is not None:
        return (config.epsilon,)
    return tuple(rational(e) for e in default)


def _rs(config: ExperimentConfig, default: tuple) -> tuple:
    """The r values a sweep visits: the configured r or the default grid."""
    return (config.r,) if config.r is not None else tuple(rational(x) for x in default)


def _omega_for(config: ExperimentConfig, N: int):
    if config.omega_rule == "default":
        return None
    weights = config.omega_rule[len("list:"):].split(",")
    return tuple(rational(w, "omega-rule weight %d" % i) for i, w in enumerate(weights, 1))


def _check_rows(rows) -> dict:
    return {"check_rows": all(row["pass"] for row in rows)}


def _thm1_params(epsilon, r=None, delta=None) -> tuple:
    """thm1's (r, delta, 2r + 3delta) for epsilon.  Defaults r = epsilon/4
    and delta = epsilon/10 make the bound 4/5 epsilon; a bound not below
    epsilon raises ValueError."""
    r = epsilon / 4 if r is None else rational(r)
    delta = epsilon / 10 if delta is None else rational(delta)
    bound = 2 * r + 3 * delta
    if not bound < epsilon:
        raise ValueError("thm1 needs 2r + 3delta < epsilon for epsilon = %s" % rational_str(epsilon))
    return r, delta, bound


def thm1_case(N: int, epsilon, r=None, delta=None) -> tuple:
    """One lifted-space slice: exact diameter against the 2r + 3delta bound
    (r and delta as _thm1_params defaults them).

    Returns the row dict and the space, slice polytope and DiameterResult.
    """
    epsilon = rational(epsilon)
    r, delta, bound = _thm1_params(epsilon, r, delta)
    space = make_space_II(N, r)
    f = Vec.unit(space.dim, space.dim - 1) * (1 + r)
    slice_poly = make_slice(space, SliceSpec(f, delta))
    result = diameter(slice_poly, space)
    row = {
        "experiment": "thm1",
        "N": N,
        "epsilon": rational_str(epsilon),
        "r": rational_str(r),
        "delta": rational_str(delta),
        "exact_value": rational_str(result.value),
        "decimal_value": _decimal(result.value),
        "bound": rational_str(bound),
        "vertex_count": result.vertex_count,
        "pass": result.value <= bound and result.value < epsilon,
    }
    return row, {"space": space, "slice": slice_poly, "result": result}


def _thm1_rows(config: ExperimentConfig):
    for N in _n_grid(config):
        for eps in _epsilons(config, DEFAULT_THM1_EPSILONS):
            yield thm1_case(N, eps, config.r, config.delta)[0]


def parse_g(g_spec: str, N: int, rng: random.Random) -> Vec:
    """Resolve a functional spec on the lifted space (dimension N + 1).

    "e1" and "e1+e2" name coordinate sums; "random" draws rational
    coordinates on the first N coordinates (never the lifted one) and
    normalizes so the absolute coordinate sum is 1; an explicit
    comma-separated list of rationals is taken as-is, and must not be all
    zero.
    """
    d = N + 1
    if g_spec is None or g_spec == "e1":
        return Vec.unit(d, 0)
    if g_spec == "e1+e2":
        if N < 2:
            raise ValueError("e1+e2 needs N at least 2")
        return Vec.unit(d, 0) + Vec.unit(d, 1)
    if g_spec == "random":
        while True:
            coords = [Scalar(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)]
            if any(c != 0 for c in coords):
                break
        total = sum(abs(c) for c in coords)
        coords = [c / total for c in coords]
        coords.append(ZERO)
        return Vec(coords)
    parts = [p.strip() for p in g_spec.split(",")]
    try:
        coords = [rational(p, "g entry %d" % i) for i, p in enumerate(parts, 1)]
    except ValueError as exc:
        raise ValueError("%s; g is e1, e1+e2, random or comma-separated rationals" % exc) from None
    if len(coords) != d:
        raise ValueError("explicit g has %d coordinates, expected %d" % (len(coords), d))
    if not any(coords):
        raise ValueError("explicit g must be nonzero")
    return Vec(coords)


def prop2_case(N: int, r, g_spec: str, alpha, rng: random.Random) -> dict:
    """One certificate attempt with exact-diameter cross-check.

    A DimensionTooSmall outcome is a correct, expected result at small N; the
    row then passes with outcome "dimension-too-small" and no bound claim.
    """
    r = rational(r)
    alpha = rational(alpha)
    space = make_space_II(N, r)
    g = parse_g(g_spec, N, rng)
    bound = 2 * (ONE - r)
    row = {
        "experiment": "prop2",
        "N": N,
        "r": rational_str(r),
        "g": ",".join(rational_str(c) for c in g),
        "alpha": rational_str(alpha),
        "bound": rational_str(bound),
    }
    try:
        cert = lower_bound_certificate(space, g, alpha, r)
    except DimensionTooSmall:
        row.update({"outcome": "dimension-too-small", "checks": "", "exact_value": "",
                    "decimal_value": "", "pass": True})
        return row
    slice_poly = make_slice(space, SliceSpec(g, alpha))
    result = diameter(slice_poly, space)
    row.update({
        "outcome": "certified" if cert.valid else "checks-failed",
        "checks": "%s,%s" % (str(cert.checks[0]).lower(), str(cert.checks[1]).lower()),
        "exact_value": rational_str(result.value),
        "decimal_value": _decimal(result.value),
        "pass": cert.valid and result.value >= bound,
    })
    return row


def _prop2_rows(config: ExperimentConfig):
    alpha = config.alpha if config.alpha is not None else rational("1/2")
    rng = random.Random(config.seed)
    for N in _n_grid(config):
        for r in _rs(config, DEFAULT_PROP2_RS):
            yield prop2_case(N, r, config.g, alpha, rng)


def _prop2_summary(rows) -> dict:
    succeeded = [row["N"] for row in rows if row["outcome"] == "certified"]
    too_small = [row["N"] for row in rows if row["outcome"] == "dimension-too-small"]
    return {
        "minimal_certified_N": min(succeeded) if succeeded else None,
        "dimension_too_small_N": sorted(set(too_small)),
        **_check_rows(rows),
    }


def prop3_case(space: PolyhedralNormSpace, epsilon) -> tuple:
    """One shrinking-slice row: diameter against 6 epsilon plus the vertex
    coordinate estimates (first coordinate >= s - epsilon with s = sup e1
    over the ball, tail <= 3 epsilon).

    Returns the row dict and the space, slice polytope and DiameterResult.
    """
    epsilon = rational(epsilon)
    N = space.dim
    f = Vec.unit(N, 0)
    s = support_value(space, f)
    slice_poly = _slice(space, SliceSpec(f, epsilon), s)
    result = diameter(slice_poly, space)
    # The estimates read the vertex keys p / den that diameter enumerated.
    keys, den = _enumeration(slice_poly)[:2]
    tail_bound = 3 * epsilon
    max_tail = Scalar(max(max((abs(c) for c in p[1:]), default=0) for p in keys), den)
    min_head = Scalar(min(p[0] for p in keys), den)
    row = {
        "experiment": "prop3",
        "N": N,
        "epsilon": rational_str(epsilon),
        "exact_value": rational_str(result.value),
        "decimal_value": _decimal(result.value),
        "bound": rational_str(6 * epsilon),
        "ratio": _decimal(result.value / epsilon),
        "four_epsilon": result.value <= 4 * epsilon,
        "max_tail": rational_str(max_tail),
        "tail_bound": rational_str(tail_bound),
        "vertex_count": result.vertex_count,
        "pass": result.value <= 6 * epsilon and max_tail <= tail_bound and min_head >= s - epsilon,
    }
    return row, {"space": space, "slice": slice_poly, "result": result}


def _prop3_rows(config: ExperimentConfig):
    epsilons = _epsilons(config, DEFAULT_PROP3_EPSILONS)
    for N in _n_grid(config):
        space = make_space_VII(N, _omega_for(config, N))
        for eps in epsilons:
            yield prop3_case(space, eps)[0]


def _prop3_summary(rows) -> dict:
    """Ratios and the 4-epsilon verdict over all rows; the diameters must not
    grow as epsilon shrinks, which compares consecutive rows of one N."""
    values = [(row["N"], rational(row["exact_value"])) for row in rows]
    return {
        "max_ratio": _decimal(max(rational(row["exact_value"]) / rational(row["epsilon"]) for row in rows)),
        "four_epsilon_holds": all(row["four_epsilon"] for row in rows),
        **_check_rows(rows),
        "check_monotone": all(n != m or b <= a for (n, a), (m, b) in zip(values, values[1:])),
    }


def audit_space(space: PolyhedralNormSpace, expected=None) -> dict:
    """verify-ext on one space: its generator set must be exactly its own
    extreme-point set, and when expected is given, of that size."""
    duals = dual_ball_vertices(space)
    set_equal = set(duals.vertices) == set(space.generators)
    expected = len(space.generators) if expected is None else expected
    return {
        "experiment": "verify-ext",
        "N": space.param("N") if space.has_param("N") else space.dim,
        "r": rational_str(space.param("r")) if space.has_param("r") else "",
        "extreme_count": len(duals.vertices),
        "expected_count": expected,
        "set_equal": set_equal,
        "pass": set_equal and len(duals.vertices) == expected,
    }


def verify_ext_case(N: int, r) -> dict:
    """audit_space on the family II space, whose dual ball has the 4N + 2
    extreme points its closed form lists."""
    return audit_space(make_space_II(N, rational(r)), 4 * N + 2)


def _verify_ext_rows(config: ExperimentConfig):
    for N in _n_grid(config):
        for r in _rs(config, DEFAULT_EXT_RS):
            yield verify_ext_case(N, r)


def _sandwich_draw(bits, d: int) -> tuple:
    """One sandwich trial's d numerators and d denominators, drawn a_i then
    q_i per coordinate with bits = rng.getrandbits (see sandwich_case)."""
    A = []
    Q = []
    for _ in range(d):
        a = bits(7)
        while a > 100:
            a = bits(7)
        q = bits(5)
        while q > 19:
            q = bits(5)
        A.append(a - 50)
        Q.append(q + 1)
    return A, Q


def _sandwich_block(space, N: int, r, bits, n: int, worst):
    """n sandwich trials of the family II space, drawn in stream order and
    then evaluated column-wise (see sandwich_case): how many fail, and
    worst, the (value, lower) pair of the largest ratio so far, updated by
    theirs.  The block's columns are this call's locals, so they are freed
    before the next block is drawn."""
    den = space._int_rows[1]
    rden = r.denominator
    cap = rden + r.numerator
    a_rows, q_rows = zip(*(_sandwich_draw(bits, space.dim) for _ in range(n)))
    A = list(zip(*a_rows))  # A[i]: numerator i of every trial in the block
    Q = list(zip(*q_rows))
    L = list(map(lcm, *Q))
    P = [list(map(mul, a, map(floordiv, L, q))) for a, q in zip(A, Q)]
    low = list(map(mul, map(add, _abs_max(P[:N], n), map(abs, P[N])), repeat(den)))
    val = _norm_ints(space, P)
    failures = sum(map(or_, map(gt, low, val),
                       map(gt, map(mul, val, repeat(rden)), map(mul, low, repeat(cap)))))
    for v, lo in zip(val, low):
        if lo and (worst is None or v * worst[1] > worst[0] * lo):
            worst = (v, lo)
    return failures, worst


def sandwich_case(N: int, r, trials: int, rng: random.Random) -> dict:
    """Random vectors through the norm sandwich: the lifted norm lies between
    the product reference norm and (1+r) times it.

    Each trial draws x_i = a_i / q_i and clears it once to P = L x over
    L = lcm(q).  The reference norm max_{i<N} |P_i| + |P_N| and the kernel's
    den * |||P||| are then integers, so both checks and the worst ratio are
    integer comparisons; one Fraction is built per row.

    The trials run in blocks of _SANDWICH_BLOCK.  A block's trials are
    drawn one after another, so the stream order is that of one trial at a
    time, and then evaluated column-wise: L, P, the reference norms and the
    norms (spaces._norm_ints) of the whole block come from C-level passes
    over columns, not from one loop step per trial.  failures is a count and
    the worst ratio a max, so folding them across blocks gives the same
    report for any block size; the block only bounds memory for large trial
    counts.

    Per coordinate, the numerator a_i is uniform on -50..50 and then the
    denominator q_i uniform on 1..20, each drawn by rejection from
    rng.getrandbits(7) or rng.getrandbits(5): a word above 100, or above 19,
    is drawn again.  CPython 3.11's randint(-50, 50) and randint(1, 20)
    follow the same rule, so the values and the rng state after each trial
    equal theirs; the reports depend only on getrandbits, not on
    random.randint.
    """
    r = rational(r)
    space = make_space_II(N, r)
    bits = rng.getrandbits
    failures = 0
    worst = None  # (value, lower) with ratio value / lower, both over L * den
    for start in range(0, trials, _SANDWICH_BLOCK):
        n = min(_SANDWICH_BLOCK, trials - start)
        block_failures, worst = _sandwich_block(space, N, r, bits, n, worst)
        failures += block_failures
    return {
        "experiment": "sandwich",
        "N": N,
        "r": rational_str(r),
        "trials": trials,
        "failures": failures,
        "worst_ratio": rational_str(Scalar(*worst)) if worst is not None else "",
        "ratio_cap": rational_str(1 + r),
        "pass": failures == 0,
    }


def _sandwich_rows(config: ExperimentConfig):
    trials = config.trials if config.trials is not None else DEFAULT_TRIALS
    rng = random.Random(config.seed)
    for N in _n_grid(config):
        for r in _rs(config, DEFAULT_SANDWICH_RS):
            yield sandwich_case(N, r, trials, rng)


@dataclass(frozen=True)
class _Experiment:
    """Report columns, the rows of a config's grid, their summary, and the
    config fields the rows read.  The row generators call the case functions
    by their module-level names, so a caller that rebinds a case function
    sees every call."""

    columns: tuple
    rows: Callable
    summary: Callable
    reads: tuple


# Config fields that every experiment accepts: the experiment name, the seed
# and where and how the report goes.
_RUN_FIELDS = ("experiment", "seed", "space_path", "output_path", "format")

_TABLE = {
    "thm1": _Experiment(
        ("experiment", "N", "epsilon", "r", "delta", "exact_value", "decimal_value", "bound",
         "vertex_count", "pass"),
        _thm1_rows,
        lambda rows: {"check_all_bounds": all(row["pass"] for row in rows)},
        ("N", "r", "delta", "epsilon", "epsilons")),
    "prop2": _Experiment(
        ("experiment", "N", "r", "g", "alpha", "outcome", "checks", "exact_value",
         "decimal_value", "bound", "pass"),
        _prop2_rows, _prop2_summary, ("N", "r", "alpha", "g")),
    "prop3": _Experiment(
        ("experiment", "N", "epsilon", "exact_value", "decimal_value", "bound", "ratio",
         "four_epsilon", "max_tail", "tail_bound", "vertex_count", "pass"),
        _prop3_rows, _prop3_summary, ("N", "epsilon", "epsilons", "omega_rule")),
    "verify-ext": _Experiment(
        ("experiment", "N", "r", "extreme_count", "expected_count", "set_equal", "pass"),
        _verify_ext_rows, _check_rows, ("N", "r")),
    "sandwich": _Experiment(
        ("experiment", "N", "r", "trials", "failures", "worst_ratio", "ratio_cap", "pass"),
        _sandwich_rows, _check_rows, ("N", "r", "trials")),
}

EXPERIMENTS = tuple(_TABLE)


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the config's grid (or, for a verify-ext space file, audit that
    one space) and summarize the rows."""
    entry = _TABLE[config.experiment]
    if config._space is not None:
        rows = (audit_space(config._space),)
    else:
        rows = tuple(entry.rows(config))
    summary = {"cases": len(rows), **entry.summary(rows)}
    return Report(config=config, columns=entry.columns, rows=rows, summary=summary)
