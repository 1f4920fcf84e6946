"""Workload inputs drawn from a seed, the code that runs them, and the checks.

Inputs are built here with the standard library only; polyslice receives
nothing but the generated strings.  Every workload is a closed loop: one
process, one thread, one call at a time.

Why these four:

* family2-slices: thm1 over N = 1..5, two seed-drawn epsilons.  r = eps/4, so
  every case builds a new family II ball and enumerates it from scratch; no
  cache is reused.  N = 6 is left out: one N = 6 case takes about 5 s, more
  than the whole N = 1..5 sweep, leaving too few processes per run for a
  steady median.
* family7-shrink: prop3 at N = 3 and 4 with four decreasing epsilons and
  seed-drawn weights.  One degenerate family VII ball is shared by nested
  slices, so it exercises cache reuse and the incremental slice path.  N = 5
  is left out because its ball alone takes 18-26 s.
* lp-certify: lower_bound_certificate on family II at N = 6, 7, 8 with dense
  functionals g.  No vertex enumeration runs; the time goes to LPs.
* norm-sandwich: sandwich with seed-drawn RNG seeds.  No LP and no
  enumeration; exact norm evaluation dominates.  It is the control that
  polytope and linprog changes should not move.

The seed changes the values and as little of the amount of work as each
workload allows: grids have fixed sizes, rationals have denominators from
fixed ranges, and each certificate slot redraws g until its probe depth (see
probe_depth) is the slot's fixed depth, so every seed walks the same number
of probe LPs.  Family VII weights still change the ball's vertex count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("family2-slices", "family7-shrink", "lp-certify", "norm-sandwich")

THM1_NS = (1, 2, 3, 4, 5)
PROP3_NS = (3, 4)
CERT_NS = (6, 7, 8)
CERT_DEPTHS = (3, 20)
CERT_ALPHA = Fraction(1, 2)
SANDWICH_NS = (1, 2, 3, 4, 5, 6)
SANDWICH_RS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4))
SANDWICH_TRIALS = 250


def frac_str(q) -> str:
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def digest(text: str) -> str:
    """Short content hash of one case's output, as stored in reference.json."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------- inputs

def _thm1_cases(rng):
    eps = set()
    while len(eps) < 2:
        q = rng.randint(20, 40)
        eps.add(Fraction(rng.randint(1, 6), q))
    eps = sorted(eps, reverse=True)
    arg = ",".join(frac_str(e) for e in eps)
    return [{"cli": ["thm1", "--n", str(N), "--epsilons", arg, "--format", "json"],
             "N": N, "epsilons": [frac_str(e) for e in eps]} for N in THM1_NS]


def _prop3_cases(rng):
    eps = [Fraction(1, rng.randint(9, 13))]
    while len(eps) < 4:
        eps.append(eps[-1] / rng.choice((2, 3)))
    arg = ",".join(frac_str(e) for e in eps)
    cases = []
    for N in PROP3_NS:
        omega = [1 - Fraction(rng.randint(0, 11), 72) for _ in range(N - 1)]
        rule = "list:" + ",".join(frac_str(w) for w in omega)
        cases.append({"cli": ["prop3", "--n", str(N), "--epsilons", arg, "--omega-rule", rule,
                               "--format", "json"],
                      "N": N, "epsilons": [frac_str(e) for e in eps]})
    return cases


def _dense_g(rng, N):
    """prop2's "random" functional: N rationals p/q with |p|, q <= 9 scaled to
    unit absolute sum, then a zero lifted coordinate."""
    while True:
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)]
        if any(coords):
            break
    total = sum(abs(c) for c in coords)
    return [c / total for c in coords] + [Fraction(0)]


def probe_depth(g, alpha) -> int:
    """1-based position, among coordinate subsets listed by size and then
    lexicographically, of the first subset S on which a point of the family II
    ball with support S reaches the slice level 1 - alpha.  With g of unit
    absolute sum and zero lifted coordinate the best such point scores
    sum(|g_i| for i in S), so the depth is a property of g alone."""
    level = 1 - alpha
    position = 0
    for size in range(len(g) + 1):
        for subset in itertools.combinations(range(len(g)), size):
            position += 1
            if sum(abs(g[i]) for i in subset) >= level:
                return position
    raise ValueError("no subset reaches the slice level")


def _cert_cases(rng):
    cases = []
    for N in CERT_NS:
        q = rng.randint(20, 40)
        r = Fraction(rng.randint(1, q // 4), q)
        for depth in CERT_DEPTHS:
            for _ in range(100000):
                g = _dense_g(rng, N)
                if probe_depth(g, CERT_ALPHA) == depth:
                    break
            else:
                raise RuntimeError("no g of probe depth %d at N=%d" % (depth, N))
            cases.append({"cert": {"N": N, "r": frac_str(r), "alpha": frac_str(CERT_ALPHA),
                                   "g": [frac_str(c) for c in g]}})
    return cases


def _sandwich_cases(rng):
    return [{"cli": ["sandwich", "--n", str(N), "--trials", str(SANDWICH_TRIALS),
                     "--seed", str(rng.randrange(2 ** 31)), "--format", "json"],
             "N": N} for N in SANDWICH_NS]


_MAKERS = {
    "family2-slices": _thm1_cases,
    "family7-shrink": _prop3_cases,
    "lp-certify": _cert_cases,
    "norm-sandwich": _sandwich_cases,
}


def make_cases(workload: str, seed: int) -> list:
    """The workload's cases for this seed; the same seed gives the same list."""
    return _MAKERS[workload](random.Random("%s:%d" % (workload, seed)))


# ---------------------------------------------------------------- running

def run_cases(cases) -> list:
    """Run each case once, in order, through polyslice's public entry points.

    Returns one output string per case; a case that raises or exits nonzero
    yields a string starting with "error:".  Names are looked up on the
    modules at call time so that a tracer's rebinding is seen.
    """
    import polyslice
    import polyslice.cli

    outputs = []
    space_key = space = None
    for case in cases:
        try:
            if "cli" in case:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = polyslice.cli.main(list(case["cli"]))
                outputs.append(buf.getvalue() if code == 0 else "error: exit %s" % code)
            else:
                c = case["cert"]
                r = polyslice.rational(c["r"])
                if space_key != (c["N"], c["r"]):
                    space_key = (c["N"], c["r"])
                    space = polyslice.make_space_II(c["N"], r)
                cert = polyslice.lower_bound_certificate(space, c["g"], polyslice.rational(c["alpha"]), r)
                outputs.append(json.dumps(cert.to_dict(), sort_keys=True))
        except (Exception, SystemExit) as exc:
            outputs.append("error: %s: %s" % (type(exc).__name__, exc))
    return outputs


# ---------------------------------------------------------------- checks

def _norm_II(x, r):
    """Family II norm from its closed form, independent of the generators."""
    beta = abs(x[-1])
    return max(max((abs(c) for c in x[:-1]), default=Fraction(0)) + beta, (1 + r) * beta)


def _check_cert(case, text):
    c = case["cert"]
    d = json.loads(text)
    F = Fraction
    g = [F(v) for v in c["g"]]
    r, alpha = F(c["r"]), F(c["alpha"])
    x, y = [F(v) for v in d["x"]], [F(v) for v in d["y"]]
    s = sum(abs(v) for v in g[:-1])  # sup of g over the ball, as g's lifted entry is 0

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def in_slice(p):
        return _norm_II(p, r) <= 1 and dot(g, p) >= s - alpha

    step = [(1 - r) * v for v in y]
    if [F(v) for v in d["g"]] != g or F(d["r"]) != r or F(d["alpha"]) != alpha:
        return "certificate does not echo its inputs"
    if F(d["support_value"]) != s or F(d["bound"]) != 2 * (1 - r):
        return "wrong support value or bound"
    if _norm_II(y, r) != 1 or dot(g, y) != 0:
        return "y is not a unit vector in the kernel of g"
    if not (in_slice(x) and in_slice([a + b for a, b in zip(x, step)])
            and in_slice([a - b for a, b in zip(x, step)])):
        return "x +- (1-r)y is not in the slice"
    if d["checks"] != [True, True]:
        return "certificate reports failed checks"
    return None


def _check_report(case, text):
    rep = json.loads(text)
    rows = rep["rows"]
    if not rep["all_pass"] or not all(row["pass"] for row in rows):
        return "report does not pass"
    if any(row["N"] != case["N"] for row in rows):
        return "report rows are for another N"
    kind = case["cli"][0]
    if kind == "thm1":
        if [row["epsilon"] for row in rows] != case["epsilons"]:
            return "rows do not match the epsilon grid"
        for row in rows:
            eps = Fraction(row["epsilon"])
            r, delta = eps / 4, eps / 10
            if Fraction(row["exact_value"]) != 2 * (r + delta) / (1 + r):
                return "diameter differs from 2(r+delta)/(1+r)"
            if Fraction(row["bound"]) != 2 * r + 3 * delta:
                return "wrong bound"
    elif kind == "prop3":
        if [row["epsilon"] for row in rows] != case["epsilons"]:
            return "rows do not match the epsilon grid"
        for row in rows:
            eps = Fraction(row["epsilon"])
            if Fraction(row["exact_value"]) > 6 * eps or Fraction(row["max_tail"]) > 3 * eps:
                return "diameter or tail bound exceeded"
        if not rep["summary"]["check_monotone"]:
            return "diameters not monotone"
    elif kind == "sandwich":
        if [Fraction(row["r"]) for row in rows] != list(SANDWICH_RS):
            return "rows do not match the r grid"
        for row in rows:
            if row["failures"] != 0 or row["trials"] != SANDWICH_TRIALS:
                return "sandwich failures or wrong trial count"
            if Fraction(row["worst_ratio"]) > Fraction(row["ratio_cap"]):
                return "worst ratio above the cap"
    return None


def check_case(case, text):
    """None when the output is correct, else a one-line reason.

    These checks recompute what they can from the inputs alone (closed-form
    thm1 diameters, the certificate's membership proofs in Fraction
    arithmetic); reference.json pins the exact bytes on top.
    """
    if text.startswith("error:"):
        return text
    try:
        return _check_cert(case, text) if "cert" in case else _check_report(case, text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
