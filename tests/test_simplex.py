from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from maxminfair import LinearProgram, solve_lp, verify_outcome
from maxminfair.errors import DimensionMismatch
from maxminfair.simplex import OPTIMAL, UNBOUNDED

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
    constraints += [([F(int(j == k)) for k in range(n)], F(0)) for j in range(n)]
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
    hom = [(coeffs, rel, F(0)) for coeffs, rel, _ in lp.rows]
    hom.append(([F(1)] * n, "=", F(1)))
    for d in _vertices(hom, n):
        if sum(c * x for c, x in zip(cost, d)) < 0:
            return UNBOUNDED, None

    return OPTIMAL, min(sum(c * x for c, x in zip(cost, p)) for p in points)


# ---------------------------------------------------------------------------
# Pinned examples.
# ---------------------------------------------------------------------------


def test_single_binding_constraint():
    # x >= 3/2 scales to 2x >= 3, which has no unit column to start from.
    with pytest.raises(ValueError, match="no unit column"):
        solve_lp(LinearProgram.minimize([1], [([F(1)], ">=", F(3, 2))]))


def test_symmetric_face():
    lp = LinearProgram.minimize([-1, -1], [([F(1), F(1)], "<=", F(1))])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.objective == -1
    assert verify_outcome(lp, out) == []


def test_contradictory_bounds_rejected():
    lp = LinearProgram.minimize([0], [([F(1)], "<=", F(-1))])
    with pytest.raises(ValueError, match="negative right-hand side"):
        solve_lp(lp)


def test_unbounded():
    lp = LinearProgram.minimize([-1], [([F(-1)], "<=", F(1))])
    assert solve_lp(lp).status == UNBOUNDED


def test_equality_rows_and_negative_rhs():
    with pytest.raises(ValueError, match="unknown relation"):
        LinearProgram.minimize([2, 3], [([F(1), F(1)], "=", F(4))])
    # Built by hand, past `minimize`'s check, an "=" row still fails before
    # any pivot.
    lp = LinearProgram(objective=(F(2), F(3)), rows=(((F(1), F(1)), "=", F(4)),))
    with pytest.raises(ValueError, match="relation '='"):
        solve_lp(lp)
    lp = LinearProgram.minimize([2, 3], [([F(-1), F(0)], "<=", F(-1))])
    with pytest.raises(ValueError, match="negative right-hand side"):
        solve_lp(lp)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearProgram.minimize([1, 2], [([F(1)], ">=", F(0))])


def test_determinism():
    lp = LinearProgram.minimize(
        [-3, -1, -2],
        [
            ([F(1), F(1), F(3)], "<=", F(30)),
            ([F(2), F(2), F(5)], "<=", F(24)),
            ([F(4), F(1), F(2)], "<=", F(36)),
        ],
    )
    first = solve_lp(lp)
    again = solve_lp(lp)
    assert first == again
    assert verify_outcome(lp, first) == []


# ---------------------------------------------------------------------------
# Properties against the oracle.
# ---------------------------------------------------------------------------

entries = st.integers(min_value=-3, max_value=3)


def _start_feasible(draw, n, m, entry, rhs_entry):
    """A minimization the solver accepts: "<=" rows with b >= 0, and ">="
    rows that each get a column of their own, equal to 1 over the row's
    scale so that it is the row's unit vector once the row is scaled."""
    objective = [draw(entry) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [draw(entry) for _ in range(n)]
        rows.append((coeffs, draw(st.sampled_from(["<=", ">="])), draw(rhs_entry)))
    for i, (coeffs, rel, rhs) in enumerate(rows):
        if rel == ">=":
            scale = lcm(*(v.denominator for v in (*coeffs, rhs)))
            for k, (other, _, _) in enumerate(rows):
                other.append(F(1, scale) if k == i else F(0))
            objective.append(draw(entry))
    return LinearProgram.minimize(objective, rows)


@st.composite
def small_lps(draw):
    return _start_feasible(
        draw,
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        entries.map(F),
        st.integers(0, 3).map(F),
    )


@settings(max_examples=120, deadline=None)
@given(small_lps())
def test_agrees_with_vertex_enumeration(lp):
    expected_status, expected_obj = brute_force_lp(lp)
    out = solve_lp(lp)
    assert out.status == expected_status
    if expected_status == OPTIMAL:
        assert out.objective == expected_obj
        assert verify_outcome(lp, out) == []


@settings(max_examples=60, deadline=None)
@given(small_lps())
def test_optimal_outcomes_verify_and_repeat(lp):
    out = solve_lp(lp)
    assert solve_lp(lp) == out
    if out.status == OPTIMAL:
        assert verify_outcome(lp, out) == []


# ---------------------------------------------------------------------------
# Fraction-free engine: row and cost scaling, and the starting basis.
# ---------------------------------------------------------------------------

rational_entries = st.builds(
    F, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
)


@st.composite
def small_rational_lps(draw):
    return _start_feasible(
        draw,
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        rational_entries,
        st.builds(F, st.integers(0, 3), st.integers(1, 4)),
    )


@settings(max_examples=120, deadline=None)
@given(small_rational_lps())
def test_rational_lps_agree_with_vertex_enumeration(lp):
    expected_status, expected_obj = brute_force_lp(lp)
    out = solve_lp(lp)
    assert out.status == expected_status
    if expected_status == OPTIMAL:
        assert out.objective == expected_obj
        assert verify_outcome(lp, out) == []


def test_crash_on_scaled_structural_unit_column():
    # x0 is the unit column of row 0 once that row is scaled by 2, and x1 is
    # the unit column of row 1, so both ">=" rows start with a basic
    # structural column.
    lp = LinearProgram.minimize(
        [2, 2, 3],
        [
            ([F(1, 2), F(0), F(1, 2)], ">=", F(1)),
            ([F(0), F(1), F(1)], ">=", F(3)),
        ],
    )
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.primal == (F(0), F(1), F(2))
    assert out.objective == 8
    assert out.dual == (F(2), F(2))
    assert verify_outcome(lp, out) == []


def test_equality_rows_without_unit_columns_rejected():
    lp = LinearProgram(
        objective=(F(1), F(2), F(1)),
        rows=(
            ((F(1), F(1), F(2)), "=", F(4)),
            ((F(1), F(-1), F(1)), "=", F(1)),
        ),
    )
    with pytest.raises(ValueError):
        solve_lp(lp)
    # As ">=" rows they still have no column of their own to start from.
    lp = LinearProgram.minimize(
        [1, 2, 1],
        [
            ([F(1), F(1), F(2)], ">=", F(4)),
            ([F(1), F(-1), F(1)], ">=", F(1)),
        ],
    )
    with pytest.raises(ValueError, match="no unit column"):
        solve_lp(lp)
