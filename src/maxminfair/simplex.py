"""Self-contained exact linear programming over rationals.

One LP shape, the one the package poses: minimize objective . x over x >= 0
subject to rows a . x <= b or a . x >= b with every b >= 0, where each ">="
row has a column of its own (a shortfall column, say) that is its unit vector
once the row is scaled to integers.  The primal simplex then runs as a single
phase from a feasible start: each "<=" row's slack and each ">=" row's unit
column.  Any other shape raises `ValueError` before the first pivot.

Bland's pivot rule makes every solve terminate and be deterministic.  Rows
and objective are scaled to integers, and the tableau is fraction-free:
Python ints over one common denominator, updated by integer-preserving
(Bareiss) pivots whose divisions are all exact.  Optimal outcomes carry exact
primal and dual solutions as Fractions; `verify_outcome` re-checks them from
scratch with plain Fraction arithmetic (feasibility, dual feasibility, equal
objectives, complementary slackness) without trusting the solver.

Scale note: instances in this package have a handful of rows and at most a
few thousand columns, where exact dense pivoting is entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import DimensionMismatch

RELATIONS = ("<=", ">=")

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


def _fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class LinearProgram:
    """min of objective . x subject to rows, with every x_j >= 0."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    @classmethod
    def minimize(cls, objective, rows) -> "LinearProgram":
        # tuple() of a list allocates the exact size; of a generator it
        # resizes, which leaves the freed tuples parked in the interpreter's
        # per-size free lists until a full garbage collection.
        obj = tuple([_fraction(c) for c in objective])
        packed = []
        for coeffs, rel, rhs in rows:
            coeffs = tuple([_fraction(c) for c in coeffs])
            if len(coeffs) != len(obj):
                raise DimensionMismatch(
                    f"row width {len(coeffs)} != objective width {len(obj)}"
                )
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            packed.append((coeffs, rel, _fraction(rhs)))
        return cls(objective=obj, rows=tuple(packed))

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

    Raises `ValueError` when the LP is not of the one accepted shape (see the
    module docstring).
    """
    n = lp.num_vars
    m = len(lp.rows)
    cost_scale, cost = _to_integers(lp.objective)

    # Scale each row to integers, recording its scale so the duals can be
    # mapped back to the rows as stated.
    scales = []
    int_rows: list[tuple[list[int], str, int]] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        if len(coeffs) != n:
            raise DimensionMismatch(f"row {i} width {len(coeffs)} != {n}")
        if rhs < 0:
            raise ValueError(f"row {i} has a negative right-hand side {rhs}")
        scale, values = _to_integers([*coeffs, rhs])
        scales.append(scale)
        int_rows.append((values[:n], rel, values[n]))

    nonzeros = [0] * n
    for coeffs, _, _ in int_rows:
        nonzeros = [k + (a != 0) for k, a in zip(nonzeros, coeffs)]

    # Standard form: one slack (for "<=") or surplus (for ">=") column per
    # row.  Starting basis: a "<=" row's slack, a ">=" row's structural unit
    # column.
    total = n + m
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, (coeffs, rel, rhs) in enumerate(int_rows):
        row = coeffs + [0] * m + [rhs]
        if rel == "<=":
            row[n + i] = 1
            basis.append(n + i)
        elif rel == ">=":
            row[n + i] = -1
            start = next(
                (j for j, a in enumerate(coeffs) if a == 1 and nonzeros[j] == 1), -1
            )
            if start < 0:
                raise ValueError(f"'>=' row {i} has no unit column to start from")
            basis.append(start)
        else:
            raise ValueError(f"row {i} has relation {rel!r}, not '<=' or '>='")
        tableau.append(row)
    starts = tuple(basis)

    # Row m is the reduced-cost row; every row is d times its rational value.
    full_cost = cost + [0] * m
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
    objective = Fraction(-red[total], d * cost_scale)

    # Duals: c_B . B^{-1} e_i.  Each row's starting column was e_i, and every
    # pivot has treated it as it would e_i, so y_i is that column's cost
    # minus its reduced cost; then undo the row and cost scales.
    dual = tuple([
        Fraction((d * full_cost[s] - red[s]) * scale, d * cost_scale)
        for s, scale in zip(starts, scales)
    ])
    return LpOutcome(
        status=OPTIMAL, primal=tuple(primal), dual=dual, objective=objective
    )


def _to_integers(values) -> tuple[int, list[int]]:
    """(s, s * values) with s the least common multiple of the denominators."""
    s = lcm(*{v.denominator for v in values})
    return s, [v.numerator * (s // v.denominator) for v in values]


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
