"""Exact LP solver: pinned degenerate runs, edge cases, a Fraction-tableau oracle and a
floating-point one."""

import random

import pytest

import oracles
from polyslice import linprog
from polyslice.linprog import OPTIMAL, UNBOUNDED, ClearedRows, clear_rows, solve_lp
from polyslice.numeric import Scalar, rational

SEED = 3301

# (name, objective, leq, options, expected status, point, value).  The
# expected triples were recorded from the earlier Fraction-tableau solver;
# the witness on a degenerate optimum depends on every Bland choice, so a
# change of pivot order shows here.  The minimize_free and bounded_nonneg_min
# cases minimize by maximizing the negated objective.
PINNED = [
    ("ratio_tie", [1, 1], [([1, 0], 1), ([1, 1], 1), ([0, 1], 1)], {},
     OPTIMAL, ("1", "0"), "1"),
    ("degenerate_origin_tie", [1, 0], [([1, -1], 0), ([1, 1], 0), ([1, 0], 1)], {},
     OPTIMAL, ("0", "0"), "0"),
    ("face_optimum_rational", ["1/2", "1/3"],
     [(["3/2", 1], 2), ([1, "2/3"], "4/3"), ([-1, 0], 0), ([0, -1], 0)], {},
     OPTIMAL, ("4/3", "0"), "2/3"),
    ("minimize_free", ["-1/3", "1/2"], [([1, 1], 4), (["-1/2", 1], 1), ([-1, 0], 0)],
     {}, OPTIMAL, ("0", "1"), "1/2"),
    ("nonneg_degenerate", [1, 1, 1],
     [([1, 1, 0], 1), ([0, 1, 1], 1), ([1, 0, 1], 1), ([1, 1, 1], "3/2")],
     {"nonneg": True}, OPTIMAL, ("1/2", "1/2", "1/2"), "3/2"),
    ("unbounded", [1, 1], [([1, -1], 1)], {}, UNBOUNDED, None, None),
    ("bounded_nonneg_min", [1, -1], [([1, -1], 0)], {"nonneg": True},
     OPTIMAL, ("0", "0"), "0"),
    # Row 2 repeats row 0 across a row that ties with it at ratio 0.  The
    # witness is oracles.lp_max's on all four rows; dropping row 0 instead
    # of its repeat moves it to (6/7, -3/7, 4/7).
    ("repeat_across_a_tie", ["3/2", 1, 2],
     [([3, 2, -3], 0), (["3/2", -1, -3], 0), ([3, 2, -3], 0), (["3/2", 1, 2], 2)], {},
     OPTIMAL, ("4/7", "0", "4/7"), "2"),
    # Two pivots in, a column left of another with a positive reduced cost
    # holds the larger variable index; entering by column instead of by
    # variable index moves the witness to (0, 3, 0).
    ("enter_by_variable_index", [1, 1, -1],
     [([2, 1, -1], 3), (["1/2", "-1/2", 1], 0), (["3/2", "-3/2", "-3/2"], 0)], {"nonneg": True},
     OPTIMAL, ("0", "6", "3"), "3"),
]


@pytest.mark.parametrize("case", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_degenerate_runs(case):
    _, objective, leq, options, status, point, value = case
    res = solve_lp(objective, leq=leq, **options)
    assert res.status == status
    if point is None:
        assert res.point is None and res.value is None
    else:
        assert res.point == tuple(rational(c) for c in point)
        assert res.value == rational(value)


@pytest.mark.parametrize("nonneg", [False, True])
def test_no_rows_left(nonneg):
    """No constraint rows, or only a zero row: the answer comes from the
    objective's signs alone."""
    zero = (Scalar(0), Scalar(0))
    assert solve_lp([1, 0], nonneg=nonneg).status == UNBOUNDED
    assert solve_lp([1], leq=[([0], 0)], nonneg=nonneg).status == UNBOUNDED
    res = solve_lp([0, 0], nonneg=nonneg)
    assert (res.status, res.point, res.value) == (OPTIMAL, zero, 0)
    res = solve_lp([-1, 0], nonneg=nonneg)
    assert res.status == (OPTIMAL if nonneg else UNBOUNDED)
    res = solve_lp([-1, 0], leq=[([0, 0], 0)], nonneg=nonneg)
    assert res.status == (OPTIMAL if nonneg else UNBOUNDED)
    if nonneg:
        assert (res.point, res.value) == (zero, 0)


def test_rejects_mismatched_arity_and_floats():
    with pytest.raises(ValueError):
        solve_lp([1, 1], leq=[([1], 1)])
    with pytest.raises(TypeError):
        solve_lp([0.5], leq=[([1], 1)])


def test_negative_right_hand_sides_are_refused():
    """Every LP starts feasible at x = 0, so a row with b < 0 is refused, by
    its index, whether or not the LP would be feasible."""
    feasible = [([1, 0], 1), ([-1, -1], "-1/2")]
    infeasible = [([1, 1], 1), ([-1, -1], -2)]
    for leq in (feasible, infeasible, clear_rows(feasible)):
        for nonneg in (False, True):
            with pytest.raises(ValueError, match="row 1 has a negative right-hand side"):
                solve_lp([1, 0], leq=leq, nonneg=nonneg)


def outcome(res):
    return res.status, res.point, res.value


def rescaled(rows, rng):
    """The rows cleared, then each integer row scaled by a further positive
    integer, as a row cleared over more numbers than its own would be."""
    out = []
    for ints in clear_rows(rows):
        k = rng.randint(2, 7)
        out.append(tuple(k * c for c in ints))
    return ClearedRows(out)


def assert_same_on_cleared_rows(objective, leq, options, rng):
    """Cleared rows and rescaled cleared rows give the cold solve's status,
    point and value, and solving leaves the cleared rows as they were."""
    cold = outcome(solve_lp(objective, leq=leq, **options))
    cleared = clear_rows(leq)
    assert len(cleared) == len(leq)
    assert clear_rows(cleared) is cleared
    kept = tuple(cleared)
    for rows in (cleared, rescaled(leq, rng)):
        assert outcome(solve_lp(objective, leq=rows, **options)) == cold
    assert tuple(cleared) == kept
    return cold


@pytest.mark.parametrize("case", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_runs_are_unchanged_on_cleared_rows(case):
    _, objective, leq, options, status, point, value = case
    got = assert_same_on_cleared_rows(objective, leq, options, random.Random(SEED))
    assert got[0] == status
    if point is not None:
        assert (got[1], got[2]) == (tuple(rational(c) for c in point), rational(value))


def test_cleared_rows_are_checked_for_arity():
    with pytest.raises(ValueError, match="arity 1"):
        solve_lp([1, 1], leq=clear_rows([([1], 1)]))


def _random_lp(rng):
    """A random LP in the one form: every row holds at x = 0, with b either
    0 or positive."""
    dim = rng.randint(1, 4)

    def q():
        return Scalar(rng.randint(-5, 5), rng.randint(1, 4))

    def vec():
        return [q() for _ in range(dim)]

    leq = [(vec(), rng.choice([Scalar(0), abs(q())])) for _ in range(rng.randint(0, 6))]
    # Half the LPs minimize, by maximizing the negated objective.
    sign = 1 if rng.random() < 0.5 else -1
    options = {"nonneg": rng.random() < 0.4}
    return [sign * c for c in vec()], leq, options


def test_random_lps_are_unchanged_on_cleared_rows():
    """Each random LP free and nonneg, with its objective and the negated
    one."""
    rng = random.Random(SEED + 1)
    seen = set()
    for _ in range(120):
        objective, leq, _ = _random_lp(rng)
        for sign in (-1, 1):
            for nonneg in (False, True):
                cost = [sign * c for c in objective]
                options = {"nonneg": nonneg}
                seen.add(assert_same_on_cleared_rows(cost, leq, options, rng)[0])
    assert seen == {OPTIMAL, UNBOUNDED}


def spliced(leq, dim, rng):
    """leq with all-zero rows (b >= 0) and repeats of earlier rows inserted
    at seeded positions."""
    rows = list(leq)
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(rows))
        if at and rng.random() < 0.6:
            rows.insert(at, rng.choice(rows[:at]))
        else:
            rows.insert(at, ([Scalar(0)] * dim, rng.choice([Scalar(0), Scalar(rng.randint(1, 5), 3)])))
    return rows


def test_agrees_with_the_fraction_oracle_with_zero_and_repeated_rows():
    """solve_lp drops zero rows and repeats before its tableau; the plain
    Fraction tableau of oracles.lp_max keeps every row.  Status, point and
    value agree on every random LP, free and nonneg, with such rows spliced
    in, and equal solve_lp's on the LP without them."""
    rng = random.Random(SEED)
    splice = random.Random(SEED + 2)
    seen = set()
    pruned = 0
    for _ in range(300):
        objective, leq, _ = _random_lp(rng)
        rows = spliced(leq, len(objective), splice)
        pruned += len(rows) - len(leq)
        for nonneg in (False, True):
            got = outcome(solve_lp(objective, leq=rows, nonneg=nonneg))
            assert got == oracles.lp_max(objective, rows, nonneg=nonneg), (objective, rows, nonneg)
            assert got == outcome(solve_lp(objective, leq=leq, nonneg=nonneg))
            seen.add(got[0])
    assert seen == {OPTIMAL, UNBOUNDED}
    assert pruned > 300


def test_zero_and_repeated_rows_never_reach_the_tableau(monkeypatch):
    """The tableau holds one row per distinct nonzero row, plus the
    objective row: zero rows, with b = 0 and with b > 0, and repeats are
    dropped, and a positive multiple of a row is kept."""
    sizes = []
    pivot = linprog._pivot
    monkeypatch.setattr(linprog, "_pivot", lambda t, *a: sizes.append(len(t)) or pivot(t, *a))
    leq = [([1, 0], 1), ([0, 0], 0), ([1, 0], 1), ([0, 0], 2), ([2, 0], 2), ([0, 1], 1), ([1, 0], 1)]
    res = solve_lp([1, 1], leq=leq, nonneg=True)
    assert (res.point, res.value) == ((1, 1), 2)
    assert sizes and set(sizes) == {4}


def test_agrees_with_scipy_on_random_lps():
    """HiGHS runs without presolve: with it, HiGHS reports LP 127 of this
    draw, unbounded and feasible at x = 0, as infeasible (status 2)."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(SEED)
    seen = set()
    for _ in range(300):
        objective, leq, options = _random_lp(rng)
        res = solve_lp(objective, leq=leq, **options)
        ref = optimize.linprog(
            [-float(c) for c in objective],
            A_ub=[[float(c) for c in a] for a, _ in leq] or None,
            b_ub=[float(b) for _, b in leq] or None,
            bounds=(0, None) if options["nonneg"] else (None, None),
            method="highs",
            options={"presolve": False},
        )
        expected = {0: OPTIMAL, 3: UNBOUNDED}[ref.status]
        assert res.status == expected, (objective, leq, options)
        seen.add(res.status)
        if res.status != OPTIMAL:
            continue
        assert abs(float(res.value) + ref.fun) <= 1e-9
        x = res.point
        assert all(sum(c * v for c, v in zip(a, x)) <= b for a, b in leq)
        assert not options["nonneg"] or min(x) >= 0
        assert res.value == sum(c * v for c, v in zip(objective, x))
    assert seen == {OPTIMAL, UNBOUNDED}


def _ball_like_lp(rng):
    """A seeded LP shaped like the balls and slices this package solves, and
    degenerate by construction.  In dimension 2-4, 2-5 pairs of rows
    +-a.x <= b with entries of a in {-1, 0, 1, 2} and each b in {0, 1}, so
    that many rows are tight at x = 0 and ratio ties are the rule.  0-3
    repeats of b = 0 rows are spliced in at least one row after their
    original, so a tie can fall between a row and its repeat.  The
    objective is the normal of a b = 1 row when there is one, so the
    optimum is often a whole face and the witness depends on the pivots.
    Variables are free or nonnegative."""
    dim = rng.randint(2, 4)

    def row():
        while True:
            a = [rng.choice((-1, 0, 1, 2)) for _ in range(dim)]
            if any(a):
                return a

    rows = []
    for _ in range(rng.randint(2, 5)):
        a = row()
        rows += [(a, rng.choice((0, 1))), ([-c for c in a], rng.choice((0, 1)))]
    rng.shuffle(rows)
    for _ in range(rng.randint(0, 3)):
        zeros = [i for i, (_, b) in enumerate(rows[:-1]) if b == 0]
        if zeros:
            i = rng.choice(zeros)
            rows.insert(rng.randint(i + 2, len(rows)), rows[i])
    faces = [a for a, b in rows if b == 1]
    objective = list(rng.choice(faces)) if faces else row()
    return objective, rows, rng.random() < 0.5


def test_degenerate_ball_like_lps_agree_with_the_fraction_oracle():
    """Status, point and value of solve_lp equal oracles.lp_max's on 2,000
    ball-like degenerate LPs.  The witness of a degenerate optimum depends on
    every Bland choice: entering by tableau column instead of by variable
    index, or keeping the last copy of a repeated row instead of the first,
    each changes some of these witnesses."""
    rng = random.Random(SEED + 9)
    seen = set()
    repeats = 0
    for _ in range(2000):
        objective, rows, nonneg = _ball_like_lp(rng)
        repeats += len(rows) - len({(tuple(a), b) for a, b in rows})
        got = outcome(solve_lp(objective, leq=rows, nonneg=nonneg))
        assert got == oracles.lp_max(objective, rows, nonneg=nonneg), (objective, rows, nonneg)
        seen.add(got[0])
    assert seen == {OPTIMAL, UNBOUNDED}
    assert repeats > 2000
