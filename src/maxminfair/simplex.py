"""Self-contained exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling pivot rule, so every solve
terminates and is deterministic.  Each row and the objective are scaled to
integers, and the tableau is kept fraction-free: Python ints over one common
denominator, updated by integer-preserving (Bareiss) pivots whose divisions
are all exact.  A crash basis of slack and unit columns means phase 1 only
pivots on rows that have neither.  Optimal outcomes carry exact primal and
dual solutions as Fractions; `verify_outcome` re-checks them from scratch
with plain Fraction arithmetic (feasibility, dual feasibility, equal
objectives, complementary slackness) without trusting the solver.

Scale note: instances in this package have a handful of rows and at most a
few thousand columns, where exact dense pivoting is entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import DimensionMismatch, VerificationFailed

RELATIONS = ("<=", ">=", "=")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


def _fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class LinearProgram:
    """min or max of objective . x subject to rows, with every x_j >= 0."""

    sense: str
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    @classmethod
    def build(cls, sense, objective, rows) -> "LinearProgram":
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
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
        return cls(sense=sense, objective=obj, rows=tuple(packed))

    @classmethod
    def minimize(cls, objective, rows) -> "LinearProgram":
        return cls.build("min", objective, rows)

    @classmethod
    def maximize(cls, objective, rows) -> "LinearProgram":
        return cls.build("max", objective, rows)

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict; primal/dual/objective are set only when optimal.

    Dual sign convention (for `sense == "min"`): the multiplier of a ">="
    row is >= 0, of a "<=" row is <= 0, of an "=" row is free, and
    dual . rhs equals the primal objective.  For "max" the inequality signs
    flip.  `verify_outcome` enforces exactly this convention.
    """

    status: str
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum with primal and dual solutions, or Infeasible/Unbounded."""
    maximize = lp.sense == "max"
    n = lp.num_vars
    m = len(lp.rows)
    cost_scale, cost = _to_integers([(-c if maximize else c) for c in lp.objective])

    # Normalize to non-negative right-hand sides, recording flipped rows so
    # the duals can be mapped back to the rows as stated, then scale each row
    # to integers, recording its scale for the same reason.
    flipped = [False] * m
    scales = [1] * m
    int_rows: list[tuple[list[int], str, int]] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        if len(coeffs) != n:
            raise DimensionMismatch(f"row {i} width {len(coeffs)} != {n}")
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            flipped[i] = True
        scales[i], values = _to_integers([*coeffs, rhs])
        int_rows.append((values[:n], rel, values[n]))

    # Standard form: one slack/surplus per inequality and one artificial
    # column per row, the artificial block starting as the identity so that
    # it reads d * B^{-1} throughout.  Crash basis: a row starts with its
    # slack, or with a structural column equal to its unit vector, basic;
    # only the remaining rows start with their artificial basic.
    n_slack = sum(1 for _, rel, _ in int_rows if rel != "=")
    total = n + n_slack + m
    art_start = n + n_slack
    nonzeros = [0] * n
    for coeffs, _, _ in int_rows:
        nonzeros = [k + (a != 0) for k, a in zip(nonzeros, coeffs)]
    unit_columns: dict[int, int] = {}
    for i, (coeffs, _, _) in enumerate(int_rows):
        for j, a in enumerate(coeffs):
            if a == 1 and nonzeros[j] == 1:
                unit_columns[i] = j
                break

    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_pos = 0
    for i, (coeffs, rel, rhs) in enumerate(int_rows):
        row = coeffs + [0] * (n_slack + m) + [rhs]
        row[art_start + i] = 1
        start = unit_columns.get(i, art_start + i)
        if rel != "=":
            row[n + slack_pos] = 1 if rel == "<=" else -1
            if rel == "<=":
                start = n + slack_pos
            slack_pos += 1
        tableau.append(row)
        basis.append(start)
    # Row m is the reduced-cost row; every row is d times its rational value.
    tableau.append([0] * (total + 1))
    d = 1

    def reduced_row(full_cost: list[int]) -> list[int]:
        red = [d * c for c in full_cost] + [0]
        for k, bi in enumerate(basis):
            cb = full_cost[bi]
            if cb:
                red = [r - cb * a for r, a in zip(red, tableau[k])]
        return red

    def pivot(row_k: int, col_j: int) -> None:
        # Integer-preserving (Bareiss) pivot: every division is exact.
        nonlocal d
        prow = tableau[row_k]
        p = prow[col_j]
        for i, row in enumerate(tableau):
            if i == row_k:
                continue
            f = row[col_j]
            if f:
                tableau[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                tableau[i] = [p * a // d for a in row]
        d = p
        if d < 0:
            d = -d
            for i, row in enumerate(tableau):
                tableau[i] = [-a for a in row]
        basis[row_k] = col_j

    def run_simplex() -> str:
        # Bland's rule: smallest-index entering column with negative reduced
        # cost; leaving row by min ratio, ties to the smallest basis index.
        # Artificial columns never enter.
        red = tableau[m]
        while True:
            enter = next((j for j in range(art_start) if red[j] < 0), -1)
            if enter < 0:
                return OPTIMAL
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
                return UNBOUNDED
            pivot(leave, enter)
            red = tableau[m]

    # Phase 1: drive the artificial variables to zero.
    if any(bi >= art_start for bi in basis):
        tableau[m] = reduced_row([0] * art_start + [1] * m)
        if run_simplex() != OPTIMAL:
            raise VerificationFailed("phase 1 reported an unbounded objective")
        if any(tableau[k][total] for k, bi in enumerate(basis) if bi >= art_start):
            return LpOutcome(status=INFEASIBLE)

        # Pivot leftover zero-level artificials out where a structural
        # column allows it; rows with no such column are redundant and stay
        # inert.
        for k in range(m):
            if basis[k] >= art_start:
                for j in range(art_start):
                    if tableau[k][j]:
                        pivot(k, j)
                        break

    # Phase 2 on the real objective, artificial columns costing 0.
    tableau[m] = reduced_row(cost + [0] * (n_slack + m))
    if run_simplex() == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)

    primal = [_ZERO] * n
    for k, bi in enumerate(basis):
        if bi < n:
            primal[bi] = Fraction(tableau[k][total], d)
    red = tableau[m]
    objective = Fraction(-red[total], d * cost_scale)

    # Duals: c_B . B^{-1} is minus the reduced cost of the artificial
    # columns; undo the row and cost scales, then any row flips.
    dual = []
    for i in range(m):
        y = Fraction(-red[art_start + i] * scales[i], d * cost_scale)
        dual.append(-y if flipped[i] else y)

    if maximize:
        objective = -objective
        dual = [-y for y in dual]
    return LpOutcome(
        status=OPTIMAL,
        primal=tuple(primal),
        dual=tuple(dual),
        objective=objective,
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

    minimize = lp.sense == "min"
    for j, xj in enumerate(x):
        if xj < 0:
            problems.append(f"x[{j}] = {xj} < 0")

    activities = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        act = sum((a * xj for a, xj in zip(coeffs, x)), _ZERO)
        activities.append(act)
        ok = act <= rhs if rel == "<=" else act >= rhs if rel == ">=" else act == rhs
        if not ok:
            problems.append(f"row {i}: activity {act} violates {rel} {rhs}")
        lo = (rel == ">=") if minimize else (rel == "<=")
        hi = (rel == "<=") if minimize else (rel == ">=")
        if lo and y[i] < 0:
            problems.append(f"dual[{i}] = {y[i]} has wrong sign for {rel} row")
        if hi and y[i] > 0:
            problems.append(f"dual[{i}] = {y[i]} has wrong sign for {rel} row")

    for j in range(n):
        aty = sum((lp.rows[i][0][j] * y[i] for i in range(len(lp.rows))), _ZERO)
        cj = lp.objective[j]
        if minimize:
            if aty > cj:
                problems.append(f"dual infeasible at column {j}: {aty} > {cj}")
            if x[j] > 0 and aty != cj:
                problems.append(f"complementary slackness broken at column {j}")
        else:
            if aty < cj:
                problems.append(f"dual infeasible at column {j}: {aty} < {cj}")
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
    for i, (_, rel, rhs) in enumerate(lp.rows):
        if y[i] != 0 and activities[i] != rhs and rel != "=":
            problems.append(f"complementary slackness broken at row {i}")
    return problems
