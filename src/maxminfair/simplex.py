"""Self-contained exact linear programming over integer data.

One LP shape, the one the package poses: minimize objective . x over x >= 0
subject to integer rows a . x <= b or a . x >= b with every b >= 0, where
each ">=" row has a column of its own (a shortfall column, say) that is its
unit vector.  The primal simplex then runs as a single phase from a feasible
start: each "<=" row's slack and each ">=" row's unit column.  Building a
`LinearProgram` rejects a non-int entry or any other shape, and `solve_lp`
rejects a ">=" row without a unit column before the first pivot.

Bland's pivot rule makes every solve terminate and be deterministic.  The
tableau is fraction-free: Python ints over one common denominator, updated
by integer-preserving (Bareiss) pivots whose divisions are all exact.
Optimal outcomes carry exact primal and dual solutions as Fractions;
`verify_outcome` re-checks them from scratch with plain Fraction arithmetic
(feasibility, dual feasibility, equal objectives, complementary slackness)
without trusting the solver.

Scale note: instances in this package have a handful of rows and at most a
few thousand columns, where exact dense pivoting is entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionMismatch

RELATIONS = ("<=", ">=")

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


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

    Dual sign convention: the multiplier of a ">=" row is >= 0, of a "<="
    row is <= 0, and dual . rhs equals the primal objective.
    `verify_outcome` enforces exactly this convention.
    """

    status: str
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum with primal and dual solutions, or Unbounded.

    Runs on the LP's integers as given.  Raises `ValueError` before the first
    pivot when a ">=" row has no unit column: a coefficient of exactly 1 that
    is the only nonzero in its column.
    """
    n = lp.num_vars
    m = len(lp.rows)
    nonzeros = [len(col) - col.count(0) for col in zip(*[c for c, _, _ in lp.rows])]

    # Standard form: one slack (for "<=") or surplus (for ">=") column per
    # row.  Starting basis: a "<=" row's slack, a ">=" row's structural unit
    # column.
    total = n + m
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        row = list(coeffs) + [0] * m + [rhs]
        row[n + i] = 1 if rel == "<=" else -1
        tableau.append(row)
        start = n + i if rel == "<=" else next(
            (j for j, a in enumerate(coeffs) if a == 1 and nonzeros[j] == 1), -1
        )
        if start < 0:
            raise ValueError(f"'>=' row {i} has no unit column to start from")
        basis.append(start)
    starts = tuple(basis)

    # Row m is the reduced-cost row; every row is d times its rational value.
    full_cost = list(lp.objective) + [0] * m
    red = full_cost + [0]
    for k, bi in enumerate(basis):
        cb = full_cost[bi]
        if cb:
            red = [r - cb * a for r, a in zip(red, tableau[k])]
    tableau.append(red)
    d = 1

    # Bland's rule: smallest-index entering column with negative reduced
    # cost; leaving row by min ratio, ties to the smallest basis index.
    while True:
        enter = next((j for j in range(total) if red[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                b = tableau[i][total]
                if leave < 0 or b * best_den < best_num * a or (
                    b * best_den == best_num * a and basis[i] < basis[leave]
                ):
                    leave, best_num, best_den = i, b, a
        if leave < 0:
            return LpOutcome(status=UNBOUNDED)
        # Integer-preserving (Bareiss) pivot: every division is exact, and
        # the pivot is positive, so d stays positive.
        prow = tableau[leave]
        p = prow[enter]
        for i, row in enumerate(tableau):
            if i == leave:
                continue
            f = row[enter]
            if f:
                tableau[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                tableau[i] = [p * a // d for a in row]
        d = p
        basis[leave] = enter
        red = tableau[m]

    primal = [_ZERO] * n
    for k, bi in enumerate(basis):
        if bi < n:
            primal[bi] = Fraction(tableau[k][total], d)
    objective = Fraction(-red[total], d)

    # Duals: c_B . B^{-1} e_i.  Each row's starting column was e_i, and every
    # pivot has treated it as it would e_i, so y_i is that column's cost
    # minus its reduced cost.
    dual = tuple([Fraction(d * full_cost[s] - red[s], d) for s in starts])
    return LpOutcome(
        status=OPTIMAL, primal=tuple(primal), dual=dual, objective=objective
    )


def verify_outcome(lp: LinearProgram, outcome: LpOutcome) -> list[str]:
    """Independent exact check of an Optimal outcome; returns violations.

    Verifies primal feasibility, dual signs and feasibility, equality of the
    two objectives, and complementary slackness, all with exact arithmetic.
    An empty list certifies optimality (weak duality makes the certificate
    self-contained).
    """
    if outcome.status != OPTIMAL:
        return [f"outcome status is {outcome.status}, not {OPTIMAL}"]
    problems: list[str] = []
    x = outcome.primal
    y = outcome.dual
    n = lp.num_vars
    if x is None or len(x) != n:
        return ["primal solution missing or wrong width"]
    if y is None or len(y) != len(lp.rows):
        return ["dual solution missing or wrong width"]

    for j, xj in enumerate(x):
        if xj < 0:
            problems.append(f"x[{j}] = {xj} < 0")

    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        act = sum((a * xj for a, xj in zip(coeffs, x)), _ZERO)
        if not (act <= rhs if rel == "<=" else act >= rhs):
            problems.append(f"row {i}: activity {act} violates {rel} {rhs}")
        if (y[i] > 0) if rel == "<=" else (y[i] < 0):
            problems.append(f"dual[{i}] = {y[i]} has wrong sign for {rel} row")
        if y[i] != 0 and act != rhs:
            problems.append(f"complementary slackness broken at row {i}")

    for j in range(n):
        aty = sum((lp.rows[i][0][j] * y[i] for i in range(len(lp.rows))), _ZERO)
        cj = lp.objective[j]
        if aty > cj:
            problems.append(f"dual infeasible at column {j}: {aty} > {cj}")
        if x[j] > 0 and aty != cj:
            problems.append(f"complementary slackness broken at column {j}")

    primal_obj = sum((c * xj for c, xj in zip(lp.objective, x)), _ZERO)
    dual_obj = sum((lp.rows[i][2] * y[i] for i in range(len(lp.rows))), _ZERO)
    if primal_obj != dual_obj:
        problems.append(f"objective mismatch: primal {primal_obj}, dual {dual_obj}")
    if outcome.objective != primal_obj:
        problems.append(
            f"reported objective {outcome.objective} != computed {primal_obj}"
        )
    return problems
