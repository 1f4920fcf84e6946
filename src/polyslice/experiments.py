"""Named experiment sweeps and machine-readable reports.

Each experiment builds spaces and slices from the other modules, checks the
advertised inequalities exactly, and emits a Report whose rows carry both
sides of every inequality as rational strings plus a pass flag.  Reports are
byte-identical across runs for a fixed config and seed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field, replace

from .numeric import ONE, Scalar, Vec, ZERO, rational, rational_str
from .polytope import vertices
from .slices import (
    DimensionTooSmall,
    SliceSpec,
    diameter,
    lower_bound_certificate,
    make_slice,
    support_value,
)
from .spaces import (
    PolyhedralNormSpace,
    check_omega,
    dual_ball_vertices,
    load_space,
    make_space_II,
    make_space_VII,
    norm,
    reference_product_norm,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "Report",
    "apply_space_file",
    "run_experiment",
    "run_thm1",
    "run_prop2",
    "run_prop3",
    "run_verify_ext",
    "run_sandwich",
]

EXPERIMENTS = ("thm1", "prop2", "prop3", "verify-ext", "sandwich")

DEFAULT_N_GRID = (1, 2, 3, 4, 5, 6)
DEFAULT_THM1_EPSILONS = ("1/2", "1/5", "1/20")
DEFAULT_PROP2_RS = ("1/10", "1/4")
DEFAULT_PROP3_NS = (3, 4, 5)
DEFAULT_PROP3_EPSILONS = ("1/10", "1/20", "1/40", "1/80")
DEFAULT_EXT_RS = ("1/20", "1/10", "1/4")
DEFAULT_SANDWICH_RS = ("1/20", "1/10", "1/4")
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 20260816


def _decimal(x) -> str:
    return "%.12g" % float(x)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one sweep.

    N bounds the grid (None means the experiment's default grid); epsilon and
    epsilons are exact rationals; g is a functional spec for the certificate
    experiment ("e1", "e1+e2", "random", or comma-separated rationals).
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
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        for name in ("r", "delta", "epsilon", "alpha"):
            value = getattr(self, name)
            if value is not None:
                value = rational(value)
                object.__setattr__(self, name, value)
                if value <= 0:
                    raise ValueError("%s must be positive" % name)
        if self.epsilons is not None:
            eps = tuple(rational(e) for e in self.epsilons)
            if any(e <= 0 for e in eps):
                raise ValueError("epsilons must be positive")
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise ValueError("epsilons must be strictly decreasing")
            object.__setattr__(self, "epsilons", eps)
        if self.N is not None and self.N < 1:
            raise ValueError("N must be positive")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.omega_rule != "default" and not self.omega_rule.startswith("list:"):
            raise ValueError("omega-rule must be 'default' or 'list:w2,w3,...'")
        if self.experiment == "thm1":
            for eps in _thm1_epsilons(self):
                r = self.r if self.r is not None else eps / 4
                delta = self.delta if self.delta is not None else eps / 10
                if not 2 * r + 3 * delta < eps:
                    raise ValueError("thm1 needs 2r + 3delta < epsilon for epsilon = %s"
                                     % rational_str(eps))
        if self.experiment == "prop2" and self.r is not None and self.r >= 1:
            raise ValueError("prop2 needs r strictly below 1")
        if self.experiment == "prop3" and self.N is not None and self.N < 2:
            raise ValueError("prop3 needs N at least 2")
        if self.N is not None or self.space_path is None:
            # Without N a space file may still supply it; replace() re-runs
            # these checks once it has.
            for N in _n_grid(self):
                if self.experiment == "prop2" and self.g not in (None, "random"):
                    parse_g(self.g, N, None)
                if self.experiment == "prop3":
                    check_omega(N, _omega_for(self, N))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {
            "experiment", "N", "r", "delta", "epsilon", "epsilons", "omega_rule",
            "alpha", "g", "trials", "seed", "space_path", "output_path", "format",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        return cls(**data)

    def to_dict(self) -> dict:
        data = {"experiment": self.experiment, "seed": self.seed, "format": self.format,
                "omega_rule": self.omega_rule}
        if self.N is not None:
            data["N"] = self.N
        for name in ("r", "delta", "epsilon", "alpha"):
            value = getattr(self, name)
            if value is not None:
                data[name] = rational_str(value)
        if self.epsilons is not None:
            data["epsilons"] = [rational_str(e) for e in self.epsilons]
        if self.g is not None:
            data["g"] = self.g
        if self.trials is not None:
            data["trials"] = self.trials
        if self.space_path is not None:
            data["space_path"] = self.space_path
        if self.output_path is not None:
            data["output_path"] = self.output_path
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


def _thm1_epsilons(config: ExperimentConfig) -> tuple:
    """The epsilons a thm1 sweep visits: --epsilons, --epsilon or the default."""
    if config.epsilons is not None:
        return config.epsilons
    if config.epsilon is not None:
        return (config.epsilon,)
    return tuple(rational(e) for e in DEFAULT_THM1_EPSILONS)


def _row_base(experiment: str, N: int) -> dict:
    return {"experiment": experiment, "N": N}


def thm1_case(N: int, epsilon, r=None, delta=None) -> dict:
    """One lifted-space slice: exact diameter against the 2r + 3delta bound.

    Defaults r = epsilon/4 and delta = epsilon/10 make the bound 4/5 epsilon.
    Returns the row dict plus the slice polytope and space under '_artifacts'.
    """
    epsilon = rational(epsilon)
    r = epsilon / 4 if r is None else rational(r)
    delta = epsilon / 10 if delta is None else rational(delta)
    bound = 2 * r + 3 * delta
    if not bound < epsilon:
        raise ValueError("thm1 needs 2r + 3delta < epsilon")
    space = make_space_II(N, r)
    f = Vec.unit(space.dim, space.dim - 1) * (1 + r)
    slice_poly = make_slice(space, SliceSpec(f, delta))
    result = diameter(slice_poly, space)
    ok = result.value <= bound and result.value < epsilon
    row = _row_base("thm1", N)
    row.update({
        "epsilon": rational_str(epsilon),
        "r": rational_str(r),
        "delta": rational_str(delta),
        "exact_value": rational_str(result.value),
        "decimal_value": _decimal(result.value),
        "bound": rational_str(bound),
        "vertex_count": result.vertex_count,
        "pass": ok,
    })
    row["_artifacts"] = {"space": space, "slice": slice_poly, "result": result}
    return row


def _strip_artifacts(rows) -> tuple:
    cleaned = []
    for row in rows:
        row = dict(row)
        row.pop("_artifacts", None)
        cleaned.append(row)
    return tuple(cleaned)


THM1_COLUMNS = ("experiment", "N", "epsilon", "r", "delta", "exact_value",
                "decimal_value", "bound", "vertex_count", "pass")


def run_thm1(config: ExperimentConfig) -> Report:
    """Sweep the small-slice bound over N and epsilon grids."""
    rows = []
    for N in _n_grid(config):
        for eps in _thm1_epsilons(config):
            rows.append(thm1_case(N, eps, config.r, config.delta))
    rows = _strip_artifacts(rows)
    summary = {
        "cases": len(rows),
        "check_all_bounds": all(r["pass"] for r in rows),
    }
    return Report(config=config, columns=THM1_COLUMNS, rows=rows, summary=summary)


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
    coords = [rational(p) for p in parts]
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
    row = _row_base("prop2", N)
    row.update({
        "r": rational_str(r),
        "g": ",".join(rational_str(c) for c in g),
        "alpha": rational_str(alpha),
    })
    bound = 2 * (ONE - r)
    try:
        cert = lower_bound_certificate(space, g, alpha, r)
    except DimensionTooSmall:
        row.update({
            "outcome": "dimension-too-small",
            "checks": "",
            "exact_value": "",
            "decimal_value": "",
            "bound": rational_str(bound),
            "pass": True,
        })
        row["_artifacts"] = {"space": space, "certificate": None}
        return row
    slice_poly = make_slice(space, SliceSpec(g, alpha), cert.support_value)
    result = diameter(slice_poly, space)
    ok = cert.valid and result.value >= bound
    row.update({
        "outcome": "certified" if cert.valid else "checks-failed",
        "checks": "%s,%s" % (str(cert.checks[0]).lower(), str(cert.checks[1]).lower()),
        "exact_value": rational_str(result.value),
        "decimal_value": _decimal(result.value),
        "bound": rational_str(bound),
        "pass": ok,
    })
    row["_artifacts"] = {"space": space, "certificate": cert, "slice": slice_poly, "result": result}
    return row


PROP2_COLUMNS = ("experiment", "N", "r", "g", "alpha", "outcome", "checks",
                 "exact_value", "decimal_value", "bound", "pass")


def run_prop2(config: ExperimentConfig) -> Report:
    """Certificate sweep; also scans for the least N where it succeeds."""
    ns = _n_grid(config)
    rs = (config.r,) if config.r is not None else tuple(rational(x) for x in DEFAULT_PROP2_RS)
    alpha = config.alpha if config.alpha is not None else rational("1/2")
    g_spec = config.g if config.g is not None else "e1"
    rng = random.Random(config.seed)
    rows = []
    for N in ns:
        for r in rs:
            rows.append(prop2_case(N, r, g_spec, alpha, rng))
    rows = _strip_artifacts(rows)
    succeeded = [row["N"] for row in rows if row["outcome"] == "certified"]
    too_small = [row["N"] for row in rows if row["outcome"] == "dimension-too-small"]
    summary = {
        "cases": len(rows),
        "minimal_certified_N": min(succeeded) if succeeded else None,
        "dimension_too_small_N": sorted(set(too_small)),
        "check_rows": all(r["pass"] for r in rows),
    }
    return Report(config=config, columns=PROP2_COLUMNS, rows=rows, summary=summary)


def prop3_case(space: PolyhedralNormSpace, epsilon, s=None) -> dict:
    """One shrinking-slice row: diameter against 6 epsilon plus the vertex
    coordinate estimates (first coordinate >= s - epsilon, tail <= 3 epsilon).

    s is sup e1 over the ball; a caller that already has it from
    support_value passes it to skip solving the same LP again.
    """
    epsilon = rational(epsilon)
    N = space.dim
    f = Vec.unit(N, 0)
    if s is None:
        s = support_value(space, f)
    slice_poly = make_slice(space, SliceSpec(f, epsilon), s)
    result = diameter(slice_poly, space)
    verts = vertices(slice_poly).vertices
    tail_bound = 3 * epsilon
    max_tail = max((max((abs(c) for c in v[1:]), default=ZERO) for v in verts))
    min_head = min(v[0] for v in verts)
    six_ok = result.value <= 6 * epsilon
    tail_ok = max_tail <= tail_bound
    head_ok = min_head >= s - epsilon
    row = _row_base("prop3", N)
    row.update({
        "epsilon": rational_str(epsilon),
        "exact_value": rational_str(result.value),
        "decimal_value": _decimal(result.value),
        "bound": rational_str(6 * epsilon),
        "ratio": _decimal(result.value / epsilon),
        "four_epsilon": result.value <= 4 * epsilon,
        "max_tail": rational_str(max_tail),
        "tail_bound": rational_str(tail_bound),
        "vertex_count": result.vertex_count,
        "pass": six_ok and tail_ok and head_ok,
    })
    row["_artifacts"] = {"space": space, "slice": slice_poly, "result": result}
    return row


PROP3_COLUMNS = ("experiment", "N", "epsilon", "exact_value", "decimal_value",
                 "bound", "ratio", "four_epsilon", "max_tail", "tail_bound",
                 "vertex_count", "pass")


def _omega_for(config: ExperimentConfig, N: int):
    if config.omega_rule == "default":
        return None
    return tuple(rational(w) for w in config.omega_rule[len("list:"):].split(","))


def run_prop3(config: ExperimentConfig) -> Report:
    """Shrinking-slice sweep with monotonicity and ratio summaries."""
    ns = _n_grid(config)
    epsilons = config.epsilons if config.epsilons is not None else tuple(rational(e) for e in DEFAULT_PROP3_EPSILONS)
    rows = []
    monotone = True
    for N in ns:
        space = make_space_VII(N, _omega_for(config, N))
        s = support_value(space, Vec.unit(N, 0))
        previous = None
        for eps in epsilons:
            row = prop3_case(space, eps, s)
            value = rational(row["exact_value"])
            if previous is not None and value > previous:
                monotone = False
            previous = value
            rows.append(row)
    rows = _strip_artifacts(rows)
    ratios = [rational(r["exact_value"]) / rational(r["epsilon"]) for r in rows]
    summary = {
        "cases": len(rows),
        "max_ratio": _decimal(max(ratios)),
        "four_epsilon_holds": all(r["four_epsilon"] for r in rows),
        "check_rows": all(r["pass"] for r in rows),
        "check_monotone": monotone,
    }
    return Report(config=config, columns=PROP3_COLUMNS, rows=rows, summary=summary)


def verify_ext_case(N: int, r) -> dict:
    """Check the dual generator set is exactly its own extreme-point set."""
    r = rational(r)
    space = make_space_II(N, r)
    duals = dual_ball_vertices(space)
    expected = 4 * N + 2
    gens = set(space.generators)
    ext = set(duals.vertices)
    ok = ext == gens and len(duals.vertices) == expected
    row = _row_base("verify-ext", N)
    row.update({
        "r": rational_str(r),
        "extreme_count": len(duals.vertices),
        "expected_count": expected,
        "set_equal": ext == gens,
        "pass": ok,
    })
    row["_artifacts"] = {"space": space, "duals": duals}
    return row


VERIFY_EXT_COLUMNS = ("experiment", "N", "r", "extreme_count", "expected_count",
                      "set_equal", "pass")


def run_verify_ext(config: ExperimentConfig) -> Report:
    ns = _n_grid(config)
    rs = (config.r,) if config.r is not None else tuple(rational(x) for x in DEFAULT_EXT_RS)
    rows = []
    for N in ns:
        for r in rs:
            rows.append(verify_ext_case(N, r))
    rows = _strip_artifacts(rows)
    summary = {"cases": len(rows), "check_rows": all(r["pass"] for r in rows)}
    return Report(config=config, columns=VERIFY_EXT_COLUMNS, rows=rows, summary=summary)


def sandwich_case(N: int, r, trials: int, rng: random.Random) -> dict:
    """Random vectors through the norm sandwich: the lifted norm lies between
    the product reference norm and (1+r) times it."""
    r = rational(r)
    space = make_space_II(N, r)
    d = space.dim
    one_plus_r = 1 + r
    failures = 0
    worst_ratio = None
    for _ in range(trials):
        x = Vec([Scalar(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(d)])
        lower = reference_product_norm(x, d - 1)
        value = norm(space, x)
        if not lower <= value <= one_plus_r * lower:
            failures += 1
        if lower > 0:
            ratio = value / lower
            if worst_ratio is None or ratio > worst_ratio:
                worst_ratio = ratio
    row = _row_base("sandwich", N)
    row.update({
        "r": rational_str(r),
        "trials": trials,
        "failures": failures,
        "worst_ratio": rational_str(worst_ratio) if worst_ratio is not None else "",
        "ratio_cap": rational_str(one_plus_r),
        "pass": failures == 0,
    })
    return row


SANDWICH_COLUMNS = ("experiment", "N", "r", "trials", "failures", "worst_ratio",
                    "ratio_cap", "pass")


def run_sandwich(config: ExperimentConfig) -> Report:
    ns = _n_grid(config)
    rs = (config.r,) if config.r is not None else tuple(rational(x) for x in DEFAULT_SANDWICH_RS)
    trials = config.trials if config.trials is not None else DEFAULT_TRIALS
    rng = random.Random(config.seed)
    rows = []
    for N in ns:
        for r in rs:
            rows.append(sandwich_case(N, r, trials, rng))
    rows = tuple(dict(row) for row in rows)
    summary = {"cases": len(rows), "check_rows": all(r["pass"] for r in rows)}
    return Report(config=config, columns=SANDWICH_COLUMNS, rows=rows, summary=summary)


def audit_space(config: ExperimentConfig, space: PolyhedralNormSpace) -> Report:
    """verify-ext over an explicitly supplied space: the generator set must be
    exactly its own extreme-point set."""
    duals = dual_ball_vertices(space)
    gens = set(space.generators)
    ext = set(duals.vertices)
    ok = ext == gens
    row = _row_base("verify-ext", space.param("N") if space.has_param("N") else space.dim)
    row.update({
        "r": rational_str(space.param("r")) if space.has_param("r") else "",
        "extreme_count": len(duals.vertices),
        "expected_count": len(space.generators),
        "set_equal": ext == gens,
        "pass": ok,
    })
    summary = {"cases": 1, "check_rows": ok}
    return Report(config=config, columns=VERIFY_EXT_COLUMNS, rows=(row,), summary=summary)


def apply_space_file(config: ExperimentConfig):
    """Fold a space description file into the config.

    Kind II files supply N and r to the lifted-space experiments; kind VII
    files supply N and the weight list to the shrinking-slice experiment;
    explicit flags still win.  Any kind can feed the verify-ext audit, which
    then runs on the file's generators directly.
    """
    if config.space_path is None:
        return config, None
    space = load_space(config.space_path)
    if config.experiment == "verify-ext":
        return config, space
    if space.label == "II":
        if config.experiment not in ("thm1", "prop2", "sandwich"):
            raise ValueError("a lifted-space file cannot drive %s" % config.experiment)
        updates = {}
        if config.N is None:
            updates["N"] = space.param("N")
        if config.r is None:
            updates["r"] = space.param("r")
        return replace(config, **updates), None
    if space.label == "VII":
        if config.experiment != "prop3":
            raise ValueError("a weighted-space file can only drive prop3")
        updates = {}
        if config.N is None:
            updates["N"] = space.param("N")
        if config.omega_rule == "default":
            updates["omega_rule"] = "list:" + ",".join(rational_str(w) for w in space.param("omega"))
        return replace(config, **updates), None
    raise ValueError("explicit-generator spaces only run the verify-ext audit")


_RUNNERS = {
    "thm1": run_thm1,
    "prop2": run_prop2,
    "prop3": run_prop3,
    "verify-ext": run_verify_ext,
    "sandwich": run_sandwich,
}


def run_experiment(config: ExperimentConfig) -> Report:
    config, explicit_space = apply_space_file(config)
    if explicit_space is not None:
        return audit_space(config, explicit_space)
    return _RUNNERS[config.experiment](config)
