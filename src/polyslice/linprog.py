"""Exact rational linear programming via two-phase tableau simplex.

Variables are free; internally each is split into a nonnegative pair.  Bland's
rule is used for both the entering and the leaving choice, which rules out
cycling and makes every run deterministic.  Sizes in this package are tiny
(tens of rows and columns), so a dense tableau is the simplest correct tool.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numeric import ONE, ZERO, Scalar, rational

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: str
    point: tuple | None
    value: object | None


def _pivot(tableau, basis, row, col):
    prow = tableau[row]
    inv = ONE / prow[col]
    tableau[row] = prow = [v * inv for v in prow]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, prow)]
    basis[row] = col


def _run_simplex(tableau, basis, obj, allowed):
    """Maximize obj (a full-width cost list) over the current tableau.

    Returns "optimal" or "unbounded".  obj is priced out against the basis
    first.  Only columns marked allowed may enter.
    """
    width = len(tableau[0]) - 1
    z = list(obj) + [ZERO]
    for i, b in enumerate(basis):
        if z[b] != 0:
            f = z[b]
            z = [a - f * c for a, c in zip(z, tableau[i])]
    while True:
        enter = -1
        for j in range(width):
            if allowed[j] and z[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i, r in enumerate(tableau):
            coef = r[enter]
            if coef > 0:
                ratio = r[-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)
        f = z[enter]
        if f != 0:
            z = [a - f * c for a, c in zip(z, tableau[leave])]


def solve_lp(objective, leq=(), eq=(), maximize=True, nonneg=False):
    """Exact LP: optimize objective subject to a.x <= b for (a, b) in leq
    and a.x = b for (a, b) in eq.

    Variables are free by default (split internally into nonnegative pairs);
    with nonneg=True they are constrained to x >= 0 instead, which halves the
    tableau.  Returns LPResult(status, point, value) with a rational witness
    point at optimality.  For a pure feasibility question pass a zero
    objective.
    """
    objective = [rational(c) for c in objective]
    dim = len(objective)
    leq = [([rational(c) for c in a], rational(b)) for a, b in leq]
    eq = [([rational(c) for c in a], rational(b)) for a, b in eq]
    for a, _ in leq + eq:
        if len(a) != dim:
            raise ValueError("constraint arity %d does not match dimension %d" % (len(a), dim))
    if not maximize:
        flipped = solve_lp([-c for c in objective], leq, eq, maximize=True, nonneg=nonneg)
        value = -flipped.value if flipped.value is not None else None
        return LPResult(flipped.status, flipped.point, value)

    nvar = dim if nonneg else 2 * dim
    nslack = len(leq)

    def expand(a):
        if nonneg:
            return list(a)
        return [c for c in a] + [-c for c in a]

    rows = []
    slack_sign = []
    for k, (a, b) in enumerate(leq):
        row = expand(a) + [ZERO] * nslack
        row[nvar + k] = ONE
        rows.append((row, b))
        slack_sign.append(1)
    for a, b in eq:
        rows.append((expand(a) + [ZERO] * nslack, b))
        slack_sign.append(0)

    needs_artificial = []
    fixed_rows = []
    for k, (row, b) in enumerate(rows):
        if b < 0:
            row = [-v for v in row]
            b = -b
            needs_artificial.append(True)
        else:
            needs_artificial.append(slack_sign[k] == 0)
        fixed_rows.append((row, b))

    nart = sum(needs_artificial)
    width = nvar + nslack + nart
    tableau = []
    basis = []
    art_cols = []
    next_art = nvar + nslack
    for k, (row, b) in enumerate(fixed_rows):
        full = row + [ZERO] * nart + [b]
        if needs_artificial[k]:
            full[next_art] = ONE
            basis.append(next_art)
            art_cols.append(next_art)
            next_art += 1
        else:
            basis.append(nvar + k)
        tableau.append(full)

    allowed = [True] * width

    if nart:
        phase1 = [ZERO] * width
        for c in art_cols:
            phase1[c] = -ONE
        status = _run_simplex(tableau, basis, phase1, allowed)
        if status != OPTIMAL:
            raise RuntimeError("phase one ended %s; its objective is bounded by zero" % status)
        total = sum((tableau[i][-1] for i, b in enumerate(basis) if b in set(art_cols)), ZERO)
        if total != 0:
            return LPResult(INFEASIBLE, None, None)
        art_set = set(art_cols)
        dead_rows = []
        for i in range(len(tableau)):
            if basis[i] in art_set:
                pivot_col = -1
                for j in range(width):
                    if j not in art_set and tableau[i][j] != 0:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, i, pivot_col)
                else:
                    dead_rows.append(i)
        for i in reversed(dead_rows):
            del tableau[i]
            del basis[i]
        for c in art_set:
            allowed[c] = False

    phase2 = [ZERO] * width
    for j in range(dim):
        phase2[j] = objective[j]
        if not nonneg:
            phase2[dim + j] = -objective[j]
    status = _run_simplex(tableau, basis, phase2, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)

    values = {}
    for i, b in enumerate(basis):
        values[b] = tableau[i][-1]
    if nonneg:
        point = tuple(values.get(j, ZERO) for j in range(dim))
    else:
        point = tuple(values.get(j, ZERO) - values.get(dim + j, ZERO) for j in range(dim))
    value = sum((c * x for c, x in zip(objective, point)), ZERO)
    return LPResult(OPTIMAL, point, value)
