"""The exact LP engine on its own.

The engine solves one LP shape, the one the package poses: a minimization
over x >= 0 with integer costs, coefficients and right-hand sides, whose
"<=" rows have non-negative right-hand sides and whose ">=" rows each have a
column of their own, such as a shortfall column, so the LP is feasible from
its starting basis.  Every solve returns exact primal and dual solutions as
integer numerators over one common denominator, the value of each being
`Fraction(numerator, outcome.denominator)`; `verify_outcome` re-checks
feasibility, dual feasibility, equal objectives and complementary slackness
from scratch in integers, so optimality never rests on trust.
"""

from fractions import Fraction

from maxminfair.simplex import LinearProgram, solve_lp, verify_outcome

# Watch the three sides of a triangle with cameras at its corners: each side
# needs one unit of watching from its two corners, and the last three columns
# are shortfalls, costly but always available.  Integer data, yet the
# optimum is fractional: half a camera at every corner.
lp = LinearProgram.minimize(
    [1, 1, 1, 3, 3, 3],
    [
        ([1, 1, 0, 1, 0, 0], ">=", 1),
        ([0, 1, 1, 0, 1, 0], ">=", 1),
        ([1, 0, 1, 0, 0, 1], ">=", 1),
        ([1, 1, 1, 0, 0, 0], "<=", 2),
    ],
)

outcome = solve_lp(lp)
print(f"status: {outcome.status}")
d = outcome.denominator
print(f"primal: {[str(Fraction(x, d)) for x in outcome.primal]}")
print(f"dual:   {[str(Fraction(y, d)) for y in outcome.dual]}")
print(f"objective: {Fraction(outcome.objective, d)}")

violations = verify_outcome(lp, outcome)
print(f"independent verification: {'clean' if not violations else violations}")

unbounded = LinearProgram.minimize([-1], [([-1], "<=", 1)])
print(f"\nfalling objective: {solve_lp(unbounded).status}")

# 2x >= 3: no column of its own to start from.
try:
    solve_lp(LinearProgram.minimize([1], [([2], ">=", 3)]))
except ValueError as exc:
    print(f"rejected shape:    {exc}")

# Rational data is turned away when the LP is built: scale it to integers.
try:
    LinearProgram.minimize([1], [([Fraction(1, 2)], ">=", 1)])
except TypeError as exc:
    print(f"rejected entry:    {exc}")
