"""Exact rational linear programming via two-phase tableau simplex.

Variables are free; internally each is split into a nonnegative pair.  Bland's
rule is used for both the entering and the leaving choice, which rules out
cycling and makes every run deterministic.  Sizes in this package are tiny
(tens of rows and columns), so a dense tableau is the simplest correct tool.

The tableau is held in integers T over one common denominator D > 0, the
rational tableau being T / D, and pivots are fraction-free (Bareiss 1968, as
in the exact mode of lrs): pivoting on p = T[r][s] replaces every other row i,
the reduced-cost row included, by (T[i]*p - T[i][s]*T[r]) // D, a division
that is always exact because each entry is a minor of the integer input; then
D becomes p, and if p < 0 the pivot row is negated first so that D stays
positive.

Each input row is scaled to integers by a positive factor q_k, and its slack
or artificial column is divided by q_k so that the initial basis is the
identity.  Neither scaling changes Bland's choices: a positive row scale
leaves B^-1 A unchanged, and a positive column scale multiplies each reduced
cost by a positive number and every ratio b_i / a_ie in one column by the
same one, so signs, the order of ratios and their ties all stay, provided
each objective is the same function of the original variables.  Phase one
therefore maximizes L times -sum(original artificials) for L = lcm(q), which
is weight -L / q_k on each rescaled artificial.  Ratios are compared by
cross-multiplying, and rationals are built only for the returned point and
value.

Rows are cleared once per row system, not once per LP: clear_rows turns
rational (a, b) pairs into ClearedRows, pairs (ints, q) with ints = q (a, b),
and solve_lp takes ClearedRows as they are.  A polytope keeps its rows in
this form (polytope.HPolytope._int_rows), so the support and probe LPs of
slices and the DD in polytope.vertices share one clearing.  Because the
tableau depends on a row only up to a positive scale, rows cleared with any
positive q give the same pivots, point and value as rows cleared cold.
polytope.extreme_points uses this for its hull tests, which run only for
the points that fail its LP-free pre-test (no family II generator does):
it clears coordinate row i once over all points, and the test of point t
takes row i without column t, with column t's entry as the right-hand
side.  That is the row a cold clear of (others' coordinates i, point t's
coordinate i) would give, since both clear the same numbers.  The probe
LPs of slices.lower_bound_certificate likewise take the ball's rows
restricted to the probe's support columns, each with its full row's q; one
such LP gives both a probe's value and its point (see slices._probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .numeric import Scalar, clear_denominators, rational

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


class ClearedRows(tuple):
    """Constraint rows in integer form, as clear_rows returns them.

    Entry k is (ints, q): the integers of one rational row a.x <= b (or
    a.x = b), coefficients first and right-hand side last, equal to q > 0
    times the row.  len() is the row count, as for a list of (a, b) pairs.
    """

    __slots__ = ()


def clear_rows(pairs) -> ClearedRows:
    """The rational rows (a, b) in integer form: each row scaled by the least
    common denominator q of its entries.  ClearedRows pass through as they
    are, so a caller that solves many LPs over the same rows clears them once.
    """
    if isinstance(pairs, ClearedRows):
        return pairs
    return ClearedRows(
        clear_denominators([rational(c) for c in a] + [rational(b)]) for a, b in pairs
    )


@dataclass(frozen=True)
class LPResult:
    status: str
    point: tuple | None
    value: object | None


def _pivot(tableau, basis, d, row, col):
    """Fraction-free pivot on tableau[row][col] over denominator d; returns
    the new denominator.  Every row of tableau is updated, so a reduced-cost
    row kept past the constraint rows is updated with them."""
    prow = tableau[row]
    p = prow[col]
    if p < 0:
        tableau[row] = prow = [-v for v in prow]
        p = -p
    for i, r in enumerate(tableau):
        if i == row:
            continue
        f = r[col]
        if f:
            tableau[i] = [(a * p - f * b) // d for a, b in zip(r, prow)]
        elif p != d:
            tableau[i] = [a * p // d for a in r]
    basis[row] = col
    return p


def _run_simplex(tableau, basis, d, obj, allowed):
    """Maximize obj (integer costs, one per column) over the current tableau.

    Returns (status, d) with status "optimal" or "unbounded".  obj is priced
    out against the basis first and kept as an extra last row while the loop
    runs, so that pivots update it with the constraint rows.  Only columns
    marked allowed may enter.
    """
    width = len(obj)
    m = len(basis)
    z = [d * c for c in obj] + [0]
    for i, b in enumerate(basis):
        c = obj[b]
        if c:
            z = [a - c * t for a, t in zip(z, tableau[i])]
    tableau.append(z)
    while True:
        z = tableau[m]
        enter = next((j for j in range(width) if allowed[j] and z[j] > 0), -1)
        if enter < 0:
            status = OPTIMAL
            break
        leave = -1
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                rhs = tableau[i][-1]
                if leave < 0:
                    leave, best_rhs, best_coef = i, rhs, coef
                    continue
                lhs, cur = rhs * best_coef, best_rhs * coef
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, best_rhs, best_coef = i, rhs, coef
        if leave < 0:
            status = UNBOUNDED
            break
        d = _pivot(tableau, basis, d, leave, enter)
    tableau.pop()
    return status, d


def solve_lp(objective, leq=(), eq=(), maximize=True, nonneg=False):
    """Exact LP: optimize objective subject to a.x <= b for (a, b) in leq
    and a.x = b for (a, b) in eq.  Either system may also be given as
    ClearedRows, which are used as they are instead of being cleared again.

    Variables are free by default (split internally into nonnegative pairs);
    with nonneg=True they are constrained to x >= 0 instead, which halves the
    tableau.  Returns LPResult(status, point, value) with a rational witness
    point at optimality.  For a pure feasibility question pass a zero
    objective.
    """
    cost, cost_scale = clear_denominators([rational(c) for c in objective])
    cost = [c if maximize else -c for c in cost]
    dim = len(cost)
    rows = []
    for system, has_slack in ((leq, True), (eq, False)):
        for ints, q in clear_rows(system):
            if len(ints) != dim + 1:
                raise ValueError("constraint arity %d does not match dimension %d" % (len(ints) - 1, dim))
            rows.append((ints, q, has_slack))

    nvar = dim if nonneg else 2 * dim
    nslack = sum(has_slack for _, _, has_slack in rows)
    # A row needs an artificial when it is an equality or its right-hand
    # side is negative (the row is negated so that the start is feasible).
    needs_artificial = [ints[-1] < 0 or not has_slack for ints, _, has_slack in rows]
    nart = sum(needs_artificial)
    width = nvar + nslack + nart

    tableau = []
    basis = []
    art_weight = {}
    next_art = nvar + nslack
    for k, (ints, q, has_slack) in enumerate(rows):
        sign = -1 if ints[-1] < 0 else 1
        coeffs = [sign * c for c in ints[:-1]]
        full = (coeffs if nonneg else coeffs + [-c for c in coeffs]) + [0] * (nslack + nart)
        full.append(sign * ints[-1])
        if has_slack:
            full[nvar + k] = sign
        if needs_artificial[k]:
            full[next_art] = 1
            basis.append(next_art)
            art_weight[next_art] = q
            next_art += 1
        else:
            basis.append(nvar + k)
        tableau.append(full)

    d = 1
    allowed = [True] * width

    if nart:
        scale = lcm(*art_weight.values())
        phase1 = [0] * width
        for c, q in art_weight.items():
            phase1[c] = -(scale // q)
        status, d = _run_simplex(tableau, basis, d, phase1, allowed)
        if status != OPTIMAL:
            raise RuntimeError("phase one ended %s; its objective is bounded by zero" % status)
        if any(tableau[i][-1] for i, b in enumerate(basis) if b in art_weight):
            return LPResult(INFEASIBLE, None, None)
        dead_rows = []
        for i in range(len(tableau)):
            if basis[i] in art_weight:
                pivot_col = -1
                for j in range(width):
                    if j not in art_weight and tableau[i][j] != 0:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    d = _pivot(tableau, basis, d, i, pivot_col)
                else:
                    dead_rows.append(i)
        for i in reversed(dead_rows):
            del tableau[i]
            del basis[i]
        for c in art_weight:
            allowed[c] = False

    phase2 = (cost if nonneg else cost + [-c for c in cost]) + [0] * (nslack + nart)
    status, d = _run_simplex(tableau, basis, d, phase2, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)

    values = [0] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            values[b] = tableau[i][-1]
    if not nonneg:
        values = [u - v for u, v in zip(values[:dim], values[dim:])]
    point = tuple(Scalar(v, d) for v in values)
    total = sum(c * v for c, v in zip(cost, values))
    value = Scalar(total if maximize else -total, cost_scale * d)
    return LPResult(OPTIMAL, point, value)
