"""Independent brute-force reference implementations for pinning expected values.

Everything in this module is deliberately naive and self-contained:
fractions.Fraction arithmetic, itertools.combinations subset enumeration,
quadratic vertex-pair diameter, Caratheodory-style hull membership, and a
Fraction simplex tableau with Bland's rules (lp_max), and a lower-bound
certificate checker on integer dot products (check_certificate).  Nothing
here imports the production package, so agreement between the two code
paths is a meaningful check.  Run as a script to print the pinned
constants.

The one exception is cold_certificate, the lower-bound certificate search
as it was before its probes got a value-only LP: it solves every probe as
the full LP through polyslice's own solver, because the certificate point
is a degenerate optimum that only the same Bland pivots reproduce.  It
pins the search, not the solver.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def solve_square(rows, rhs):
    """Solve a square system by Gauss-Jordan elimination.

    Returns the solution as a list of Fractions, or None when singular.
    """
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((k for k in range(col, n) if m[k][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for k in range(n):
            if k != col and m[k][col] != 0:
                f = m[k][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[col])]
    return [m[i][n] for i in range(n)]


def solve_rect(rows, rhs):
    """Solve a rectangular system exactly.

    Returns the unique solution, or None when the system is inconsistent or
    does not determine every unknown.
    """
    nrows, ncols = len(rows), len(rows[0])
    m = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((k for k in range(rank, nrows) if m[k][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [v / pv for v in m[rank]]
        for k in range(nrows):
            if k != rank and m[k][col] != 0:
                f = m[k][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[rank])]
        pivots.append(col)
        rank += 1
    for k in range(rank, nrows):
        if m[k][ncols] != 0:
            return None
    if len(pivots) < ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return x


def _rref(rows, width):
    """Reduced row echelon form of Fraction rows, in place; returns the pivot
    column list.

    Pivot choice is the first row with a nonzero entry in the current column,
    scanning columns left to right, so the result is deterministic.  It is
    the reference for the rank, nullspace and solve of numeric's integer
    kernel.
    """
    pivots = []
    rank = 0
    nrows = len(rows)
    for col in range(width):
        piv = next((k for k in range(rank, nrows) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        prow = rows[rank]
        for k in range(nrows):
            if k != rank and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], prow)]
        pivots.append(col)
        rank += 1
    return pivots


def enum_vertices(halfspaces, dim):
    """All vertices of {x : a.x <= b} by checking every dim-subset.

    halfspaces is a list of (a, b) pairs with a a coefficient tuple.
    """
    pts = set()
    for sub in combinations(halfspaces, dim):
        x = solve_square([h[0] for h in sub], [h[1] for h in sub])
        if x is None:
            continue
        if all(dot(h[0], x) <= h[1] for h in halfspaces):
            pts.add(tuple(x))
    return sorted(pts)


def point_in_hull(p, points):
    """Exact convex-hull membership via Caratheodory subsets."""
    d = len(p)
    for k in range(1, d + 2):
        for sub in combinations(points, k):
            rows = [[sub[j][i] for j in range(k)] for i in range(d)]
            rows.append([Fraction(1)] * k)
            lam = solve_rect(rows, list(p) + [Fraction(1)])
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


def extreme_filter(points):
    pts = sorted(set(tuple(p) for p in points))
    return [p for p in pts if not point_in_hull(p, [q for q in pts if q != p])]


def lp_max(objective, rows, nonneg=False):
    """Maximize objective.x subject to a.x <= b for (a, b) in rows, every
    b >= 0, by a plain Fraction tableau from the slack basis.  Free
    variables are split into nonnegative pairs (x+ first, then x-).  Bland's
    rules: the smallest entering index with positive reduced cost, and ratio
    ties go to the row with the smallest basic index.  No scaling, no row
    pruning.  Returns ("optimal", point, value) or ("unbounded", None,
    None)."""
    cost = [Fraction(c) for c in objective]
    n = len(cost)
    nvar = n if nonneg else 2 * n
    m = len(rows)
    width = nvar + m
    tab = []
    for k, (a, b) in enumerate(rows):
        a = [Fraction(c) for c in a]
        assert len(a) == n and Fraction(b) >= 0
        row = a if nonneg else a + [-c for c in a]
        tab.append(row + [Fraction(int(i == k)) for i in range(m)] + [Fraction(b)])
    z = (cost if nonneg else cost + [-c for c in cost]) + [Fraction(0)] * (m + 1)
    basis = list(range(nvar, width))
    while True:
        enter = next((j for j in range(width) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            return "unbounded", None, None
        prow = [v / tab[leave][enter] for v in tab[leave]]
        tab[leave] = prow
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [u - f * v for u, v in zip(tab[i], prow)]
        f = z[enter]
        z = [u - f * v for u, v in zip(z, prow)]
        basis[leave] = enter
    x = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = tab[i][-1]
    if not nonneg:
        x = [u - v for u, v in zip(x[:n], x[n:])]
    return "optimal", tuple(x), dot(cost, x)


def lp_in_hull(p, points):
    """Hull membership by one lp_max: each barycentric row (coordinate i of
    every point, = p_i; and all ones, = 1) is signed so that its right-hand
    side c_i >= 0, and p is in the hull exactly when max 1.Mw subject to
    Mw <= c, w >= 0 equals 1.c."""
    if not points:
        return False
    rows = []
    for coeffs, c in zip(list(zip(*points)) + [(1,) * len(points)], list(p) + [1]):
        sign = -1 if c < 0 else 1
        rows.append(([sign * Fraction(v) for v in coeffs], sign * Fraction(c)))
    objective = [sum(col) for col in zip(*(a for a, _ in rows))]
    return lp_max(objective, rows, nonneg=True)[2] == sum(c for _, c in rows)


def lp_extreme_filter(points):
    """extreme_filter with lp_in_hull in place of the Caratheodory walk."""
    pts = sorted(set(tuple(Fraction(c) for c in p) for p in points))
    return [p for p in pts if not lp_in_hull(p, [q for q in pts if q != p])]


def norm_eval(gens, x):
    return max(dot(g, x) for g in gens)


def diam_pairs(verts, gens):
    """Quadratic max-over-pairs diameter in the polyhedral norm."""
    best = Fraction(0)
    pair = None
    for u, v in combinations(verts, 2):
        d = tuple(a - b for a, b in zip(u, v))
        val = norm_eval(gens, d)
        if val > best:
            best, pair = val, (u, v)
    return best, pair


def diam_witness(verts, gens):
    """Diameter as the largest width max g.v - min g.v over every generator
    g, with the lex-least tie-break: per generator the pair of the lex-least
    argmax and the lex-least argmin, sorted, and among the widest generators
    the lex-least such pair.  Returns (diameter, pair)."""
    verts = sorted(verts)
    best = None
    for g in gens:
        vals = [dot(g, v) for v in verts]
        hi, lo = max(vals), min(vals)
        width = hi - lo
        pair = tuple(sorted((verts[vals.index(hi)], verts[vals.index(lo)])))
        if best is None or width > best[0] or (width == best[0] and pair < best[1]):
            best = (width, pair)
    return best


def sandwich_trials(gens, N, r, trials, rng):
    """The norm sandwich on seeded random points of R^(N+1), in Fraction
    arithmetic: per coordinate a numerator randint(-50, 50), then a
    denominator randint(1, 20).  A trial fails unless
    lower <= |||x||| <= (1+r) lower for lower = max_{i<N} |x_i| + |x_N|.
    Returns (failures, largest |||x||| / lower over lower > 0, or None)."""
    r = Fraction(r)
    failures = 0
    worst = None
    for _ in range(trials):
        x = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(N + 1)]
        lower = max(abs(c) for c in x[:N]) + abs(x[N])
        value = norm_eval(gens, x)
        if not lower <= value <= (1 + r) * lower:
            failures += 1
        if lower > 0 and (worst is None or value / lower > worst):
            worst = value / lower
    return failures, worst


def gens_II(N, r):
    """Generator family for the lifted sup-norm space, beta coordinate last."""
    r = Fraction(r)
    d = N + 1
    gens = []
    for sign in (1, -1):
        v = [Fraction(0)] * d
        v[N] = sign * (1 + r)
        gens.append(tuple(v))
    for n in range(N):
        for xi in (1, -1):
            for psi in (1, -1):
                v = [Fraction(0)] * d
                v[n] = Fraction(xi)
                v[N] = Fraction(psi)
                gens.append(tuple(v))
    return gens


def default_omegas(N):
    return [Fraction(6 * n - 1, 6 * n) for n in range(2, N + 1)]


def gens_VII(N, omegas=None):
    """Three-family weighted generator set on R^N, first coordinate special."""
    if omegas is None:
        omegas = default_omegas(N)
    gens = []
    for idx, n in enumerate(range(2, N + 1)):
        w = Fraction(omegas[idx])
        j = n - 1
        for s in (1, -1):
            v = [Fraction(0)] * N
            v[j] = Fraction(s)
            gens.append(tuple(v))
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = [Fraction(0)] * N
                v[0] = Fraction(s1)
                v[j] = Fraction(s2, 3)
                gens.append(tuple(v))
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = [Fraction(0)] * N
                v[0] = s1 * w
                v[j] = Fraction(s2, 2)
                gens.append(tuple(v))
    return gens


def ball_rows(gens):
    return [(g, Fraction(1)) for g in gens]


def slice_rows(gens, f, alpha):
    """Ball rows plus the slice cut; the support value comes from the
    vertex route so this stays independent of any LP code."""
    dim = len(f)
    verts = enum_vertices(ball_rows(gens), dim)
    s = max(dot(f, v) for v in verts)
    rows = ball_rows(gens)
    rows.append((tuple(-c for c in f), -(s - Fraction(alpha))))
    return rows, s


def slice_diameter(gens, f, alpha):
    dim = len(f)
    rows, s = slice_rows(gens, f, alpha)
    verts = enum_vertices(rows, dim)
    best, pair = diam_pairs(verts, gens)
    return best, verts, s


def cold_certificate(space, g, alpha, r):
    """The certificate search of slices.lower_bound_certificate with one cold
    LP per probe: for every coordinate support S, by size and then
    lexicographically, maximize g over the ball with x_j = 0 off S, and
    when the value reaches s - alpha take the active set
    {phi : phi.x > r} in Fraction arithmetic and try each kernel direction.
    Returns the first valid certificate's to_dict() form, else the first
    invalid one's, else None (no kernel direction anywhere)."""
    from polyslice.linprog import solve_lp
    from polyslice.numeric import nullspace_basis
    from polyslice.spaces import dual_ball_vertices, norm

    g = tuple(Fraction(c) for c in g)
    alpha, r = Fraction(alpha), Fraction(r)
    d = len(g)
    rows = ball_rows(space.generators)
    s = solve_lp(g, leq=rows).value
    cut = (tuple(-c for c in g), alpha - s)
    duals = [tuple(phi) for phi in dual_ball_vertices(space).vertices]

    def in_slice(p):
        return all(dot(a, p) <= b for a, b in rows + [cut])

    def text(v):
        return "%d/%d" % (v.numerator, v.denominator)

    fallback = None
    for size in range(d + 1):
        for support in combinations(range(d), size):
            # x_j = 0 off the support, as the two rows x_j <= 0 and -x_j <= 0.
            zero = [(tuple(Fraction(sign * (i == j)) for i in range(d)), Fraction(0))
                    for j in range(d) if j not in support for sign in (1, -1)]
            res = solve_lp(g, leq=rows + zero)
            if res.value < s - alpha:
                continue
            x = tuple(res.point)
            active = [phi for phi in duals if dot(phi, x) > r]
            for direction in nullspace_basis(tuple(active) + (g,)):
                y = tuple(c / norm(space, direction) for c in direction)
                step = [c * (1 - r) for c in y]
                checks = [in_slice([a + b for a, b in zip(x, step)]),
                          in_slice([a - b for a, b in zip(x, step)])]
                cert = {"x": [text(c) for c in x], "y": [text(c) for c in y], "r": text(r),
                        "bound": text(2 * (1 - r)), "checks": checks, "g": [text(c) for c in g],
                        "alpha": text(alpha), "support_value": text(s),
                        "active": [[text(c) for c in phi] for phi in active]}
                if all(checks):
                    return cert
                if fallback is None:
                    fallback = cert
    return fallback


def _ints(values):
    """Integer numerators of Fractions over their least common denominator,
    and that denominator."""
    values = [Fraction(v) for v in values]
    q = lcm(*(v.denominator for v in values))
    return [int(v * q) for v in values], q


def _int_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def check_certificate(gens, cert, s):
    """Re-verify a lower-bound certificate, given as its to_dict() form,
    against the generators of its space and an independently known support
    value s = sup g over the unit ball, in integer dot products only.

    Every rational is cleared once to integers over a positive denominator:
    the generators to rows C over D, so phi.z <= c reads C.Z <= c D q for
    z = Z / q.  It checks that the certificate echoes s and claims the bound
    2(1 - r), that |||y||| = max C.Y / (D q_y) = 1, that g.y = 0, that each
    listed active phi is a generator with phi.x > r and phi.y = 0, and that
    both x +- (1 - r)y lie in the slice {z : C.Z <= D q, g.z >= s - alpha}.
    Returns None when all of that holds, else the first failure's reason."""
    rows, den = _ints([c for g in gens for c in g])
    dim = len(cert["x"])
    rows = [rows[k:k + dim] for k in range(0, len(rows), dim)]
    r, alpha = Fraction(cert["r"]), Fraction(cert["alpha"])
    if Fraction(cert["support_value"]) != Fraction(s):
        return "support value %s, not %s" % (cert["support_value"], s)
    if Fraction(cert["bound"]) != 2 * (1 - r):
        return "bound is not 2(1 - r)"
    xs, qx = _ints(cert["x"])
    ys, qy = _ints(cert["y"])
    gs, qg = _ints(cert["g"])
    if max(_int_dot(c, ys) for c in rows) != den * qy:
        return "y is not a unit vector"
    if _int_dot(gs, ys):
        return "g.y != 0"
    gen_rows = {tuple(c) for c in rows}
    for phi in cert["active"]:
        # phi = C / D exactly when its numerators over D are a row.
        c = [Fraction(v) * den for v in phi]
        if any(v.denominator != 1 for v in c) or tuple(int(v) for v in c) not in gen_rows:
            return "active %s is not a generator" % (phi,)
        c = [int(v) for v in c]
        if r.denominator * _int_dot(c, xs) <= r.numerator * den * qx:
            return "active %s has phi.x <= r" % (phi,)
        if _int_dot(c, ys):
            return "active %s has phi.y != 0" % (phi,)
    # x +- (1 - r)y = P / q with P = rd qy X +- (rd - rn) qx Y, q = rd qx qy.
    rn, rd = r.numerator, r.denominator
    q = rd * qx * qy
    level = Fraction(s) - alpha
    for sign in (1, -1):
        pts = [rd * qy * a + sign * (rd - rn) * qx * b for a, b in zip(xs, ys)]
        if any(_int_dot(c, pts) > den * q for c in rows):
            return "x %s (1 - r)y leaves the ball" % "+-"[sign < 0]
        if _int_dot(gs, pts) * level.denominator < level.numerator * qg * q:
            return "x %s (1 - r)y leaves the slice" % "+-"[sign < 0]
    return None


def _fmt(v):
    return "(" + ", ".join(str(c) for c in v) + ")"


def main():
    print("== ball vertices, lifted space, N=1 r=1/10 ==")
    g1 = gens_II(1, Fraction(1, 10))
    for v in enum_vertices(ball_rows(g1), 2):
        print("  ", _fmt(v))

    print("== ball vertices, lifted space, N=2 r=1/10 ==")
    g2 = gens_II(2, Fraction(1, 10))
    v2 = enum_vertices(ball_rows(g2), 3)
    for v in v2:
        print("  ", _fmt(v))
    print("   count:", len(v2))

    print("== upper-bound slice diameters (cut by the lifted functional) ==")
    for N, r, dl in [
        (1, Fraction(1, 8), Fraction(1, 20)),
        (2, Fraction(1, 10), Fraction(1, 40)),
        (2, Fraction(1, 8), Fraction(1, 20)),
        (3, Fraction(1, 20), Fraction(1, 50)),
    ]:
        g = gens_II(N, r)
        f = [Fraction(0)] * (N + 1)
        f[N] = 1 + r
        best, verts, s = slice_diameter(g, tuple(f), dl)
        predicted = 2 * (r + dl) / (1 + r)
        print(
            "   N=%d r=%s delta=%s: diam=%s predicted=%s nverts=%d s=%s"
            % (N, r, dl, best, predicted, len(verts), s)
        )

    print("== certificate slices, g = e1, alpha = 1/2 ==")
    for N, r in [(3, Fraction(1, 10)), (4, Fraction(1, 10)), (4, Fraction(1, 4))]:
        g = gens_II(N, r)
        e1 = tuple([Fraction(1)] + [Fraction(0)] * N)
        best, verts, s = slice_diameter(g, e1, Fraction(1, 2))
        print("   N=%d r=%s: diam=%s nverts=%d s=%s" % (N, r, best, len(verts), s))

    print("== weighted-family slices, f = e1 ==")
    for N, eps in [(2, Fraction(1, 10)), (3, Fraction(1, 10)), (3, Fraction(1, 20))]:
        g = gens_VII(N)
        e1 = tuple([Fraction(1)] + [Fraction(0)] * (N - 1))
        best, verts, s = slice_diameter(g, e1, eps)
        print(
            "   N=%d eps=%s: diam=%s 6eps=%s nverts=%d s=%s maxtail=%s"
            % (
                N,
                eps,
                best,
                6 * eps,
                len(verts),
                s,
                max(max(abs(c) for c in v[1:]) for v in verts),
            )
        )

    print("== weighted-family ball, N=2 ==")
    gv = gens_VII(2)
    bv = enum_vertices(ball_rows(gv), 2)
    print("   ball vertex count:", len(bv))
    print("   norm of (1,1):", norm_eval(gv, (Fraction(1), Fraction(1))))

    print("== extreme filters on generator sets ==")
    print("   lifted N=2 r=1/10 extreme count:", len(extreme_filter(g2)))
    print("   weighted N=2 extreme count:", len(extreme_filter(gv)))


if __name__ == "__main__":
    main()
