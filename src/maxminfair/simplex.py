"""Self-contained exact linear programming over integer data.

One LP shape, the one the package poses: minimize objective . x over x >= 0
subject to integer rows a . x <= b or a . x >= b with every b >= 0, where
each ">=" row has a column of its own (a shortfall column, say) that is its
unit vector.  The primal simplex then runs as a single phase from a feasible
start: each "<=" row's slack and each ">=" row's unit column.  Building a
`LinearProgram` rejects a non-int entry or any other shape, and building a
`Tableau` rejects a ">=" row without a unit column before the first pivot.

A `Tableau` is live: after an optimize, more integer columns can be appended
and the next optimize resumes from the last basis, which adding columns
leaves primal feasible.  Column generation keeps one for all its rounds, so
no pivot is ever repeated; `solve_lp` is the one-shot case, a tableau built
with every column and optimized once.  Both run the same pivot loop.

Bland's pivot rule makes every solve terminate and be deterministic; an
appended column takes the next index, after the slack block.  The tableau
is fraction-free: Python ints over one common denominator, updated by
integer-preserving (Bareiss) pivots whose divisions are all exact.  An
appended column enters as an integer combination of current tableau
columns, so it keeps that invariant.  Optimal outcomes carry exact primal
and dual solutions as integer numerators over that one denominator, read off
the tableau without building a Fraction; `verify_outcome` re-checks them
from scratch in integers, with the LP's data multiplied by the denominator
(feasibility, dual feasibility, equal objectives, complementary slackness),
without trusting the solver.

Scale note: the column-generation master takes over 90 % of exact T* from
8×20 to 20×50 (generator seed 0, Python 3.11 on 2 cores): 20.5 s of 21.8 s
on `fat-thin-mix` 15×40.  Its integers stay small, no entry over 22 bits
there, so the cost is the number of pivots times the row width: a Bareiss
pivot rewrites each row with a nonzero entering entry across every column
of the pool, though a configuration column has only 1 + |bundle| nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch

RELATIONS = ("<=", ">=")

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _require_ints(*values) -> None:
    for v in values:
        if type(v) is not int:
            raise TypeError(f"LP entry {v!r} is not an int")


@dataclass(frozen=True)
class LinearProgram:
    """min of objective . x subject to rows, with every x_j >= 0.

    Construction checks the shape: every entry an `int` (else `TypeError`),
    every row as wide as the objective (else `DimensionMismatch`), and every
    relation "<=" or ">=" with a non-negative right-hand side (else
    `ValueError`).
    """

    objective: tuple[int, ...]
    rows: tuple[tuple[tuple[int, ...], str, int], ...]

    def __post_init__(self):
        _require_ints(*self.objective)
        n = len(self.objective)
        for i, (coeffs, rel, rhs) in enumerate(self.rows):
            _require_ints(*coeffs, rhs)
            if len(coeffs) != n:
                raise DimensionMismatch(f"row {i} width {len(coeffs)} != {n}")
            if rel not in RELATIONS:
                raise ValueError(f"row {i} has relation {rel!r}, not '<=' or '>='")
            if rhs < 0:
                raise ValueError(f"row {i} has a negative right-hand side {rhs}")

    @classmethod
    def minimize(cls, objective, rows) -> "LinearProgram":
        # tuple() of a list allocates the exact size; of a generator it
        # resizes, which leaves the freed tuples parked in the interpreter's
        # per-size free lists until a full garbage collection.
        packed = [(tuple([*coeffs]), rel, rhs) for coeffs, rel, rhs in rows]
        return cls(objective=tuple([*objective]), rows=tuple(packed))

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict; primal/dual/objective are set only when optimal.

    They are `int` numerators over the one positive `denominator`: x_j is
    primal[j] / denominator, and so on.  The fraction is not reduced, so
    compare values, not numerators, across outcomes.

    Dual sign convention: the multiplier of a ">=" row is >= 0, of a "<="
    row is <= 0, and dual . rhs equals the primal objective.
    `verify_outcome` enforces exactly this convention.
    """

    status: str
    primal: Optional[tuple[int, ...]] = None
    dual: Optional[tuple[int, ...]] = None
    objective: Optional[int] = None
    denominator: int = 1


class Tableau:
    """A live fraction-free tableau: build it from an LP, optimize, append
    columns, optimize again.

    Building checks the starting basis and raises `ValueError` before the
    first pivot when a ">=" row has no unit column: a coefficient of exactly
    1 that is the only nonzero in its column.  Each `optimize` resumes Bland
    pivots from the basis the last one left, which stays primal feasible
    whatever columns are appended in between.  The variables are the LP's
    columns followed by the appended ones, in the order they came.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        m = len(lp.rows)
        nonzeros = [len(col) - col.count(0) for col in zip(*[c for c, _, _ in lp.rows])]

        # Standard form: one slack (for "<=") or surplus (for ">=") column
        # per row, after the LP's columns; appended columns come after
        # those.  Starting basis: a "<=" row's slack, a ">=" row's
        # structural unit column.
        rows: list[list[int]] = []
        starts: list[int] = []
        for i, (coeffs, rel, rhs) in enumerate(lp.rows):
            row = list(coeffs) + [0] * m + [rhs]
            row[n + i] = 1 if rel == "<=" else -1
            rows.append(row)
            start = n + i if rel == "<=" else next(
                (j for j, a in enumerate(coeffs) if a == 1 and nonzeros[j] == 1), -1
            )
            if start < 0:
                raise ValueError(f"'>=' row {i} has no unit column to start from")
            starts.append(start)

        # Row m is the reduced-cost row; every row is d times its rational
        # value, the rhs last.
        costs = list(lp.objective) + [0] * m
        red = costs + [0]
        for k, s in enumerate(starts):
            if costs[s]:
                red = [r - costs[s] * a for r, a in zip(red, rows[k])]
        rows.append(red)
        self._n = n
        self._rows = rows
        self._costs = costs
        self._starts = tuple(starts)
        self._basis = starts
        self._d = 1

    @property
    def num_rows(self) -> int:
        return len(self._starts)

    @property
    def num_vars(self) -> int:
        return len(self._costs) - self.num_rows

    def append(self, cost: int, column: Sequence[int]) -> None:
        """Add a variable with this cost and these row coefficients.

        Every row's starting column began as e_i, so its current column is
        d·B⁻¹e_i, and the new column's is the integer combination of those
        with the new coefficients: no pivot is repeated and the later
        Bareiss divisions stay exact.  The reduced cost follows the same
        way, from each row's dual d·y_i = d·c_s - red_s.
        """
        _require_ints(cost, *column)
        m = self.num_rows
        if len(column) != m:
            raise DimensionMismatch(f"column height {len(column)} != {m}")
        rows, costs = self._rows, self._costs
        entries = [0] * (m + 1)
        basic_cost = 0
        for a, s in zip(column, self._starts):
            if a:
                for k, row in enumerate(rows):
                    entries[k] += a * row[s]
                basic_cost += a * costs[s]
        entries[m] += self._d * (cost - basic_cost)
        for row, entry in zip(rows, entries):
            row.insert(-1, entry)
        costs.append(cost)

    def optimize(self) -> LpOutcome:
        """Exact optimum with primal and dual solutions, or Unbounded."""
        rows, basis = self._rows, self._basis
        m = self.num_rows
        total = len(self._costs)
        red = rows[m]
        d = self._d

        # Bland's rule: smallest-index entering column with negative reduced
        # cost; leaving row by min ratio, ties to the smallest basis index.
        while True:
            enter = next((j for j in range(total) if red[j] < 0), -1)
            if enter < 0:
                break
            leave = -1
            best_num = best_den = 0
            for i in range(m):
                a = rows[i][enter]
                if a > 0:
                    b = rows[i][total]
                    if leave < 0 or b * best_den < best_num * a or (
                        b * best_den == best_num * a and basis[i] < basis[leave]
                    ):
                        leave, best_num, best_den = i, b, a
            if leave < 0:
                return LpOutcome(status=UNBOUNDED)
            # Integer-preserving (Bareiss) pivot: every division is exact,
            # and the pivot is positive, so d stays positive.
            prow = rows[leave]
            p = prow[enter]
            for i, row in enumerate(rows):
                if i == leave:
                    continue
                f = row[enter]
                if f:
                    rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                elif p != d:
                    rows[i] = [p * a // d for a in row]
            self._d = d = p
            basis[leave] = enter
            red = rows[m]

        # Every row is d times its rational value, so the outcome is read
        # off as numerators over d.  The slack block sits between the LP's
        # columns and the appended ones.
        n = self._n
        primal = [0] * (total - m)
        for k, j in enumerate(basis):
            if j < n or j >= n + m:
                primal[j if j < n else j - m] = rows[k][total]

        # Duals: c_B . B^{-1} e_i.  Each row's starting column was e_i, and
        # every pivot has treated it as it would e_i, so y_i is that
        # column's cost minus its reduced cost.
        costs = self._costs
        dual = tuple([d * costs[s] - red[s] for s in self._starts])
        return LpOutcome(
            status=OPTIMAL,
            primal=tuple(primal),
            dual=dual,
            objective=-red[total],
            denominator=d,
        )


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum with primal and dual solutions, or Unbounded.

    Builds the live tableau with every column of the LP, then optimizes: the
    one pivot loop column generation resumes round after round.  Raises
    `ValueError` before the first pivot when a ">=" row has no unit column.
    """
    return Tableau(lp).optimize()


def verify_outcome(lp: LinearProgram, outcome: LpOutcome) -> list[str]:
    """Independent exact check of an Optimal outcome; returns violations.

    Verifies primal feasibility, dual signs and feasibility, equality of the
    two objectives, and complementary slackness.  The outcome's numerators
    are checked against the LP's data multiplied by its denominator, so
    every sum and comparison is on integers; a denominator that is not a
    positive `int` is itself a violation.  An empty list certifies
    optimality (weak duality makes the certificate self-contained).
    """
    if outcome.status != OPTIMAL:
        return [f"outcome status is {outcome.status}, not {OPTIMAL}"]
    d = outcome.denominator
    if type(d) is not int or d <= 0:
        return [f"denominator {d!r} is not a positive int"]
    problems: list[str] = []
    x = outcome.primal
    y = outcome.dual
    n = lp.num_vars
    if x is None or len(x) != n:
        return ["primal solution missing or wrong width"]
    if y is None or len(y) != len(lp.rows):
        return ["dual solution missing or wrong width"]
    if outcome.objective is None:
        return ["objective missing"]

    def q(v):  # a numerator's value, for the messages
        return Fraction(v, d)

    for j, xj in enumerate(x):
        if xj < 0:
            problems.append(f"x[{j}] = {q(xj)} < 0")

    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        act = sum(a * xj for a, xj in zip(coeffs, x))
        if not (act <= d * rhs if rel == "<=" else act >= d * rhs):
            problems.append(f"row {i}: activity {q(act)} violates {rel} {rhs}")
        if (y[i] > 0) if rel == "<=" else (y[i] < 0):
            problems.append(f"dual[{i}] = {q(y[i])} has wrong sign for {rel} row")
        if y[i] != 0 and act != d * rhs:
            problems.append(f"complementary slackness broken at row {i}")

    for j in range(n):
        aty = sum(lp.rows[i][0][j] * y[i] for i in range(len(lp.rows)))
        cj = lp.objective[j]
        if aty > d * cj:
            problems.append(f"dual infeasible at column {j}: {q(aty)} > {cj}")
        if x[j] > 0 and aty != d * cj:
            problems.append(f"complementary slackness broken at column {j}")

    primal_obj = sum(c * xj for c, xj in zip(lp.objective, x))
    dual_obj = sum(lp.rows[i][2] * y[i] for i in range(len(lp.rows)))
    if primal_obj != dual_obj:
        problems.append(
            f"objective mismatch: primal {q(primal_obj)}, dual {q(dual_obj)}"
        )
    if outcome.objective != primal_obj:
        problems.append(
            f"reported objective {q(outcome.objective)} != computed {q(primal_obj)}"
        )
    return problems
