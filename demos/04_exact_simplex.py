"""The exact rational LP engine on its own.

The engine solves one LP shape, the one the package poses: a minimization
over x >= 0 whose "<=" rows have non-negative right-hand sides and whose
">=" rows each have a column of their own, such as a shortfall column, so
the LP is feasible from its starting basis.  Every solve returns exact primal
and dual solutions; `verify_outcome` re-checks feasibility, dual
feasibility, equal objectives and complementary slackness from scratch, so
optimality never rests on trust.
"""

from fractions import Fraction

from maxminfair import LinearProgram, solve_lp, verify_outcome

F = Fraction

# Cover a demand of 4 with three priced options under two capacities; the
# last column is the shortfall, costly but always available.
lp = LinearProgram.minimize(
    [3, 3, 1, 10],
    [
        ([F(1), F(2), F(1), F(1)], ">=", F(4)),
        ([F(1), F(1), F(0), F(0)], "<=", F(3)),
        ([F(0), F(1), F(1), F(0)], "<=", F(3, 2)),
    ],
)

outcome = solve_lp(lp)
print(f"status: {outcome.status}")
print(f"primal: {[str(x) for x in outcome.primal]}")
print(f"dual:   {[str(y) for y in outcome.dual]}")
print(f"objective: {outcome.objective}")

violations = verify_outcome(lp, outcome)
print(f"independent verification: {'clean' if not violations else violations}")

unbounded = LinearProgram.minimize([-1], [([F(-1)], "<=", F(1))])
print(f"\nfalling objective: {solve_lp(unbounded).status}")

# x >= 3/2 scales to 2x >= 3: no column of its own to start from.
try:
    solve_lp(LinearProgram.minimize([1], [([F(1)], ">=", F(3, 2))]))
except ValueError as exc:
    print(f"rejected shape:    {exc}")
