from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from maxminfair.errors import DimensionMismatch
from maxminfair.simplex import (
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    Tableau,
    solve_lp,
    verify_outcome,
)

F = Fraction


# ---------------------------------------------------------------------------
# Independent oracle: vertex enumeration.  With x >= 0 the feasible region is
# pointed, so a finite minimum is attained at a vertex, and unboundedness is
# witnessed by a vertex of the normalized recession cone with negative cost.
# ---------------------------------------------------------------------------


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None if singular."""
    n = len(rhs)
    a = [list(map(F, row)) + [F(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = F(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _holds(act, rel, rhs):
    return act <= rhs if rel == "<=" else act >= rhs if rel == ">=" else act == rhs


def _vertices(rows, n):
    """Feasible vertices of {rows hold, x >= 0}."""
    constraints = [(coeffs, rhs) for coeffs, _, rhs in rows]
    constraints += [([int(j == k) for k in range(n)], 0) for j in range(n)]
    seen = set()
    out = []
    for combo in combinations(range(len(constraints)), n):
        system = [constraints[i][0] for i in combo]
        rhs = [constraints[i][1] for i in combo]
        point = _solve_square(system, rhs)
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        if not all(
            _holds(sum(c * x for c, x in zip(coeffs, point)), rel, r)
            for coeffs, rel, r in rows
        ):
            continue
        key = tuple(point)
        if key not in seen:
            seen.add(key)
            out.append(point)
    return out


def brute_force_lp(lp: LinearProgram):
    """(status, objective or None) by pure enumeration."""
    n = lp.num_vars
    cost = lp.objective

    points = _vertices(lp.rows, n)
    assert points, "the solver accepts only LPs feasible at their start"

    # Recession directions with negative cost witness unboundedness.
    hom = [(coeffs, rel, 0) for coeffs, rel, _ in lp.rows]
    hom.append(([1] * n, "=", 1))
    for d in _vertices(hom, n):
        if sum(c * x for c, x in zip(cost, d)) < 0:
            return UNBOUNDED, None

    return OPTIMAL, min(sum(c * x for c, x in zip(cost, p)) for p in points)


def objective_value(outcome):
    """The objective as a rational (None if unset): numerators over different
    denominators are not comparable."""
    if outcome.objective is None:
        return None
    return F(outcome.objective, outcome.denominator)


# ---------------------------------------------------------------------------
# Pinned examples.
# ---------------------------------------------------------------------------


def test_single_binding_constraint():
    # 2x >= 3 has no unit column to start from.
    with pytest.raises(ValueError, match="no unit column"):
        solve_lp(LinearProgram.minimize([1], [([2], ">=", 3)]))


def test_symmetric_face():
    lp = LinearProgram.minimize([-1, -1], [([1, 1], "<=", 1)])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert objective_value(out) == -1
    assert verify_outcome(lp, out) == []


def test_contradictory_bounds_rejected():
    with pytest.raises(ValueError, match="negative right-hand side"):
        LinearProgram.minimize([0], [([1], "<=", -1)])


def test_unbounded():
    lp = LinearProgram.minimize([-1], [([-1], "<=", 1)])
    assert solve_lp(lp).status == UNBOUNDED


def test_equality_rows_and_negative_rhs():
    with pytest.raises(ValueError, match="relation '='"):
        LinearProgram.minimize([2, 3], [([1, 1], "=", 4)])
    # Built by hand, past `minimize`, an "=" row still fails at construction.
    with pytest.raises(ValueError, match="relation '='"):
        LinearProgram(objective=(2, 3), rows=(((1, 1), "=", 4),))
    with pytest.raises(ValueError, match="negative right-hand side"):
        LinearProgram.minimize([2, 3], [([-1, 0], "<=", -1)])
    with pytest.raises(ValueError, match="negative right-hand side"):
        LinearProgram(objective=(2, 3), rows=(((-1, 0), "<=", -1),))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearProgram.minimize([1, 2], [([1], ">=", 0)])
    with pytest.raises(DimensionMismatch):
        LinearProgram(objective=(1, 2), rows=(((1,), ">=", 0),))


@pytest.mark.parametrize(
    "bad", [F(1, 2), 0.5, "1"], ids=["fraction", "float", "str"]
)
def test_non_int_entries_rejected(bad):
    # The Bareiss pivots floor-divide, which is exact only on ints.
    shapes = [
        ([bad, 1], [([1, 1], ">=", 1)]),
        ([1, 1], [([bad, 1], ">=", 1)]),
        ([1, 1], [([1, 1], "<=", bad)]),
    ]
    for objective, rows in shapes:
        with pytest.raises(TypeError, match="not an int"):
            LinearProgram.minimize(objective, rows)
        with pytest.raises(TypeError, match="not an int"):
            LinearProgram(
                objective=tuple(objective),
                rows=tuple((tuple(c), rel, b) for c, rel, b in rows),
            )


def test_determinism():
    lp = LinearProgram.minimize(
        [-3, -1, -2],
        [
            ([1, 1, 3], "<=", 30),
            ([2, 2, 5], "<=", 24),
            ([4, 1, 2], "<=", 36),
        ],
    )
    first = solve_lp(lp)
    again = solve_lp(lp)
    assert first == again
    assert verify_outcome(lp, first) == []


# ---------------------------------------------------------------------------
# Properties against the oracle.
# ---------------------------------------------------------------------------

entries = st.integers(min_value=-12, max_value=12)


@st.composite
def small_lps(draw):
    """A minimization the solver accepts: "<=" rows with b >= 0, and ">="
    rows that each get a column of their own, 1 in that row and 0 elsewhere.
    Entries up to 12 in size give the Bareiss pivots large intermediate
    values."""
    n = draw(st.integers(1, 4))
    objective = [draw(entries) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(entries) for _ in range(n)]
        rel = draw(st.sampled_from(["<=", ">="]))
        rows.append((coeffs, rel, draw(st.integers(0, 12))))
    for i, (_, rel, _) in enumerate(rows):
        if rel == ">=":
            for k, (other, _, _) in enumerate(rows):
                other.append(int(k == i))
            objective.append(draw(entries))
    return LinearProgram.minimize(objective, rows)


@settings(max_examples=120, deadline=None)
@given(small_lps())
def test_agrees_with_vertex_enumeration(lp):
    expected_status, expected_obj = brute_force_lp(lp)
    out = solve_lp(lp)
    assert out.status == expected_status
    if expected_status == OPTIMAL:
        assert objective_value(out) == expected_obj
        assert verify_outcome(lp, out) == []


@settings(max_examples=60, deadline=None)
@given(small_lps())
def test_optimal_outcomes_verify_and_repeat(lp):
    out = solve_lp(lp)
    assert solve_lp(lp) == out
    if out.status == OPTIMAL:
        assert verify_outcome(lp, out) == []


@settings(max_examples=80, deadline=None)
@given(small_lps(), st.data())
def test_appended_columns_reach_the_full_optimum(lp, data):
    # The ">=" rows' unit columns must be in the built prefix, so they go
    # first; the rest arrive one or a few at a time, each followed by an
    # optimize that resumes from the last basis.
    units = [
        j
        for j in range(lp.num_vars)
        if [(c[j], rel) for c, rel, _ in lp.rows if c[j]] == [(1, ">=")]
    ]
    order = units + [j for j in range(lp.num_vars) if j not in units]
    full = LinearProgram.minimize(
        [lp.objective[j] for j in order],
        [([c[j] for j in order], rel, b) for c, rel, b in lp.rows],
    )
    k = data.draw(st.integers(len(units), full.num_vars))
    tableau = Tableau(
        LinearProgram.minimize(
            full.objective[:k], [(c[:k], rel, b) for c, rel, b in full.rows]
        )
    )
    out = tableau.optimize()
    while k < full.num_vars:
        step = data.draw(st.integers(1, full.num_vars - k))
        for j in range(k, k + step):
            tableau.append(full.objective[j], [c[j] for c, _, _ in full.rows])
        k += step
        out = tableau.optimize()
    expected = solve_lp(full)
    assert out.status == expected.status
    assert objective_value(out) == objective_value(expected)
    if out.status == OPTIMAL:
        assert verify_outcome(full, out) == []


def test_append_checks_its_column():
    tableau = Tableau(LinearProgram.minimize([1], [([1], ">=", 1)]))
    with pytest.raises(DimensionMismatch):
        tableau.append(0, [1, 1])
    with pytest.raises(TypeError, match="not an int"):
        tableau.append(F(1, 2), [1])


# ---------------------------------------------------------------------------
# Fraction-free engine: the starting basis.
# ---------------------------------------------------------------------------


def test_crash_on_scaled_structural_unit_column():
    # x0 is the unit column of row 0 and x1 that of row 1, so both ">="
    # rows start with a basic structural column.
    lp = LinearProgram.minimize(
        [2, 2, 3],
        [
            ([1, 0, 1], ">=", 2),
            ([0, 1, 1], ">=", 3),
        ],
    )
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    d = out.denominator
    assert tuple(F(x, d) for x in out.primal) == (F(0), F(1), F(2))
    assert F(out.objective, d) == 8
    assert tuple(F(y, d) for y in out.dual) == (F(1), F(2))
    assert verify_outcome(lp, out) == []


# ---------------------------------------------------------------------------
# The integer verifier: numerators over one positive int denominator.
# ---------------------------------------------------------------------------


def half_camera_triangle():
    """Cameras at a triangle's corners watch its sides: the optimum is half a
    camera at each corner, so its denominator is not 1."""
    lp = LinearProgram.minimize(
        [1, 1, 1, 3, 3, 3],
        [
            ([1, 1, 0, 1, 0, 0], ">=", 1),
            ([0, 1, 1, 0, 1, 0], ">=", 1),
            ([1, 0, 1, 0, 0, 1], ">=", 1),
            ([1, 1, 1, 0, 0, 0], "<=", 2),
        ],
    )
    out = solve_lp(lp)
    assert out.denominator > 1
    assert tuple(F(x, out.denominator) for x in out.primal) == (F(1, 2),) * 3 + (0,) * 3
    assert verify_outcome(lp, out) == []
    return lp, out


@pytest.mark.parametrize("bad", [0, -1, F(1)], ids=["zero", "negative", "fraction"])
def test_verifier_rejects_a_denominator_that_is_not_a_positive_int(bad):
    lp, out = half_camera_triangle()
    assert verify_outcome(lp, replace(out, denominator=bad)) == [
        f"denominator {bad!r} is not a positive int"
    ]


def test_verifier_accepts_numerators_and_denominator_scaled_together():
    lp, out = half_camera_triangle()
    doubled = replace(
        out,
        primal=tuple(2 * x for x in out.primal),
        dual=tuple(2 * y for y in out.dual),
        objective=2 * out.objective,
        denominator=2 * out.denominator,
    )
    assert verify_outcome(lp, doubled) == []


def test_verifier_reads_numerators_over_their_denominator():
    # The same numerators over twice the denominator are half the values:
    # every side is then watched only half as much as it needs.
    lp, out = half_camera_triangle()
    problems = verify_outcome(lp, replace(out, denominator=2 * out.denominator))
    assert [p for p in problems if "violates >= 1" in p] == [
        f"row {i}: activity 1/2 violates >= 1" for i in range(3)
    ]


def test_equality_rows_without_unit_columns_rejected():
    with pytest.raises(ValueError, match="relation '='"):
        LinearProgram(
            objective=(1, 2, 1),
            rows=(
                ((1, 1, 2), "=", 4),
                ((1, -1, 1), "=", 1),
            ),
        )
    # As ">=" rows they still have no column of their own to start from.
    lp = LinearProgram.minimize(
        [1, 2, 1],
        [
            ([1, 1, 2], ">=", 4),
            ([1, -1, 1], ">=", 1),
        ],
    )
    with pytest.raises(ValueError, match="no unit column"):
        solve_lp(lp)
