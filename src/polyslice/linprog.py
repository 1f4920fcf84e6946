"""Exact rational linear programming via tableau simplex from the slack basis.

The one LP form is: maximize c.x subject to a.x <= b for every row, with
every b >= 0.  The origin is then feasible, so the slack basis is a feasible
start and there is no phase one.  Every LP in this package has this form:
the support and probe LPs are taken over a unit ball, whose rows
phi.x <= 1 all hold at x = 0, and polytope's hull and feasibility LPs are
written so that they do too.  A negative right-hand side raises ValueError.

Variables are free by default; internally each is split into a nonnegative
pair.  Bland's rule is used for both the entering and the leaving choice,
which rules out cycling and makes every run deterministic.  Sizes in this
package are tiny (tens of rows and columns), so a dense tableau is the
simplest correct tool.

The tableau is held in integers T over one common denominator D > 0, the
rational tableau being T / D, and pivots are fraction-free (Bareiss 1968, as
in the exact mode of lrs): pivoting on p = T[r][s] > 0 replaces every other
row i, the reduced-cost row included, by (T[i]*p - T[i][s]*T[r]) // D, a
division that is always exact because each entry is a minor of the integer
input; then D becomes p.

The tableau is kept in dictionary form, as lrs keeps it: one column per
nonbasic variable and none for the basic ones, whose columns in the full
tableau are D times a unit vector and carry nothing.  A pivot moves the
leaving variable into the entering one's column, holding the old D in row r
and -T[i][s] in every other row i, which is what the full pivot writes into
the leaving variable's unit column.  cols[j] names the variable of column
j, and Bland's entering choice takes the smallest variable index, not the
smallest column, with a positive reduced cost; so the pivots are those of
the full tableau.

Each input row is scaled to integers by a positive factor q_k, and its slack
column is divided by q_k so that the initial basis is the identity.  Neither
scaling changes Bland's choices: a positive row scale leaves B^-1 A
unchanged, and a positive column scale multiplies each reduced cost by a
positive number and every ratio b_i / a_ie in one column by the same one, so
signs, the order of ratios and their ties all stay, and slack columns have
zero cost.  Ratios are compared by cross-multiplying, and rationals are
built only for the returned point and value.

Rows whose coefficients are all zero, and rows equal to an earlier row, are
dropped before the tableau is built; no pivot changes, so neither do the
point and the value.  It suffices that such a row's slack starts basic and
never leaves: the row is then never the pivot row, no other row's update
reads it, and its slack is never an entering candidate.  A zero row stays
zero off its slack's column, because a pivot adds to it the pivot row times
its entry in the entering column, which is zero; so it is never a ratio
candidate.  A repeat, with slack s_2, of an earlier row with slack
s_1 < s_2 satisfies s_2 = s_1 at every basis.  While s_1 is nonbasic, the
repeat's row reads s_2 = s_1: its only nonzero entry off s_2 is negative,
in s_1's column, so it is never a ratio candidate.  While s_1 is basic, the
repeat's row equals the row where s_1 is basic, since both express equal
variables in the same nonbasic ones; every ratio on it ties with that row's,
and Bland's rule breaks the tie toward the smaller index s_1.  Rows that are
only positive multiples of each other are not repeats here; they stay.

Rows are cleared once per row system, not once per LP: clear_rows turns
rational (a, b) pairs into ClearedRows, integer tuples (c..., b') equal to
q (a, b) for some q > 0 per row, and solve_lp takes ClearedRows as they
are.  A polytope keeps its rows in this form (polytope.HPolytope._int_rows),
so the support and probe LPs of slices and the DD in polytope.vertices share
one clearing.  Because the tableau depends on a row only up to a positive
scale, rows cleared with any positive q give the same pivots, point and
value as rows cleared cold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numeric import Scalar, clear_denominators, rational

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class ClearedRows(tuple):
    """Constraint rows in integer form, as clear_rows returns them.

    Entry k is the integer tuple of one rational row a.x <= b, coefficients
    first and right-hand side last, equal to q > 0 times the row for some q.
    len() is the row count, as for a list of (a, b) pairs.
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
        clear_denominators([rational(c) for c in a] + [rational(b)])[0] for a, b in pairs
    )


@dataclass(frozen=True)
class LPResult:
    status: str
    point: tuple | None
    value: object | None


def _pivot(tableau, basis, cols, d, row, col):
    """Fraction-free pivot on tableau[row][col] > 0 over denominator d, in
    dictionary form (see the module docstring); returns the new
    denominator.  Every row of tableau is updated, so a reduced-cost row
    kept past the constraint rows is updated with them."""
    prow = tableau[row]
    p = prow[col]
    for i, r in enumerate(tableau):
        if i == row:
            continue
        f = r[col]
        if f:
            r = [(a * p - f * b) // d for a, b in zip(r, prow)]
            r[col] = -f
            tableau[i] = r
        elif p != d:
            tableau[i] = [a * p // d for a in r]
    prow[col] = d
    basis[row], cols[col] = cols[col], basis[row]
    return p


def solve_lp(objective, leq=(), nonneg=False):
    """Exact LP: maximize objective subject to a.x <= b for (a, b) in leq,
    every b >= 0.  The rows may also be given as ClearedRows, which are used
    as they are instead of being cleared again.

    Variables are free by default (split internally into nonnegative pairs);
    with nonneg=True they are constrained to x >= 0 instead, which halves the
    tableau.  Returns LPResult(status, point, value) with a rational witness
    point at optimality.  To minimize, maximize the negated objective.
    Raises ValueError for a row of the wrong arity or with b < 0.
    """
    cost, cost_scale = clear_denominators([rational(c) for c in objective])
    dim = len(cost)
    rows = clear_rows(leq)
    for k, ints in enumerate(rows):
        if len(ints) != dim + 1:
            raise ValueError("constraint arity %d does not match dimension %d" % (len(ints) - 1, dim))
        if ints[-1] < 0:
            raise ValueError("row %d has a negative right-hand side; x = 0 must be feasible" % k)
    # Zero rows and repeats never leave the basis (see the module docstring).
    rows = [ints for ints in dict.fromkeys(rows) if any(ints[:-1])]
    m = len(rows)
    nvar = dim if nonneg else 2 * dim
    tableau = []
    for ints in rows:
        coeffs = list(ints[:-1])
        tableau.append((coeffs if nonneg else coeffs + [-c for c in coeffs]) + [ints[-1]])
    basis = list(range(nvar, nvar + m))
    cols = list(range(nvar))

    # The slacks cost nothing, so the objective is already priced out
    # against the slack basis.  It rides as a last row, updated by pivots.
    tableau.append(list(cost if nonneg else cost + tuple(-c for c in cost)) + [0])
    d = 1
    while True:
        z = tableau[m]
        ready = [(v, j) for j, v in enumerate(cols) if z[j] > 0]
        if not ready:
            break
        enter = min(ready)[1]
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
            return LPResult(UNBOUNDED, None, None)
        d = _pivot(tableau, basis, cols, d, leave, enter)

    values = [0] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            values[b] = tableau[i][-1]
    if not nonneg:
        values = [u - v for u, v in zip(values[:dim], values[dim:])]
    point = tuple(Scalar(v, d) for v in values)
    total = sum(c * v for c, v in zip(cost, values))
    value = Scalar(total, cost_scale * d)
    return LPResult(OPTIMAL, point, value)
