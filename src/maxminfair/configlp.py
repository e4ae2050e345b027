"""Configuration-LP engine: feasibility at a target and the optimal target.

CLP(T) asks for fractional weights on configurations (bundles of desired
resources worth at least T) so that every player collects one unit while no
resource is used more than once.  The engine works by column generation: a
phase-1 master minimizes the total player shortfall over a growing column
pool, and an exact min-cost-configuration search prices new columns.  When no
improving column exists and the shortfall is positive, the master duals are a
certified proof of infeasibility; both claims are re-verified, never trusted.

The optimal target is the largest T at which CLP(T) is feasible.  Feasibility
only changes when the configuration sets change, i.e. at subset-sum values of
some player's desired resources, so the exact mode binary-searches those
breakpoints; bisect mode brackets the optimum to a requested width instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import (
    BudgetExceeded,
    InvalidTarget,
    NegativePrice,
    VerificationFailed,
)
from .instances import Instance, bundle_value, format_rational
from .simplex import LinearProgram, solve_lp, OPTIMAL

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

DEFAULT_BREAKPOINT_BUDGET = 2**20

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ConfigColumn:
    """A configuration: a bundle of desired resources worth at least the target."""

    player: str
    bundle: frozenset[str]
    value: Fraction


@dataclass(frozen=True)
class BlockerGroup:
    """Players activated by one blocker and the resources its edges cover."""

    index: int
    players: tuple[str, ...]
    resources: tuple[str, ...]


@dataclass(frozen=True)
class DualCertificate:
    """Prices (y per player, z per resource) for the configuration dual.

    The LP's infeasibility verdicts carry them bare; certificates built from
    a stuck search also carry the blocker groups their objective splits into.
    """

    y: Mapping[str, Fraction]
    z: Mapping[str, Fraction]
    blocker_groups: tuple[BlockerGroup, ...] = ()

    @property
    def objective(self) -> Fraction:
        return sum(self.y.values(), _ZERO) - sum(self.z.values(), _ZERO)

    def scaled(self, factor: Fraction) -> "DualCertificate":
        factor = Fraction(factor)
        return DualCertificate(
            y={p: v * factor for p, v in self.y.items()},
            z={r: v * factor for r, v in self.z.items()},
            blocker_groups=self.blocker_groups,
        )

    def balance(self, group: BlockerGroup) -> Fraction:
        inflow = sum((self.y[p] for p in group.players), _ZERO)
        outflow = sum((self.z[r] for r in group.resources), _ZERO)
        return inflow - outflow

    def to_json_dict(self) -> dict:
        return {
            "y": {p: format_rational(v) for p, v in self.y.items()},
            "z": {r: format_rational(v) for r, v in self.z.items()},
            "objective": format_rational(self.objective),
            "blockers": [
                {
                    "index": g.index,
                    "players": list(g.players),
                    "resources": list(g.resources),
                    "balance": format_rational(self.balance(g)),
                }
                for g in self.blocker_groups
            ],
        }


@dataclass(frozen=True)
class TranscriptEntry:
    """One column-generation event: a column entering the pool."""

    iteration: int
    player: str
    bundle: tuple[str, ...]
    cost: Fraction
    master_objective: Fraction

    def line(self) -> str:
        bundle = ",".join(self.bundle)
        return (
            f"iter={self.iteration} player={self.player} bundle=[{bundle}] "
            f"cost={format_rational(self.cost)} "
            f"master={format_rational(self.master_objective)}"
        )


@dataclass(frozen=True)
class ClpVerdict:
    status: str
    solution: Optional[tuple[tuple[ConfigColumn, Fraction], ...]] = None
    prices: Optional[DualCertificate] = None
    transcript: tuple[TranscriptEntry, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def min_cost_configuration(
    instance: Instance,
    player: str,
    prices: Mapping[str, Fraction],
    target: Fraction,
) -> Optional[tuple[Fraction, frozenset[str]]]:
    """Cheapest configuration for `player` at prices, or None if none exists.

    Exact branch and bound: candidates sorted by descending value, pruned by
    the remaining achievable value and by the incumbent cost.  Zero-value
    resources never enter a bundle (they add cost but no value); among the
    rest, ties in cost resolve to the smallest bundle, then to the
    lexicographically smallest one in resource input order.
    """
    target = Fraction(target)
    for r, price in prices.items():
        if price < 0:
            raise NegativePrice(f"price of {r!r} is negative: {price}")
    desired = instance.desired_by(player)
    if target <= 0:
        return (_ZERO, frozenset())

    candidates = [r for r in desired if instance.value[r] > 0]
    candidates.sort(key=lambda r: (-instance.value[r], instance.resource_index(r)))
    values = [instance.value[r] for r in candidates]
    costs = [Fraction(prices.get(r, _ZERO)) for r in candidates]
    suffix = [_ZERO] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    if suffix[0] < target:
        return None

    best_cost: Optional[Fraction] = None
    best_key: Optional[tuple] = None
    best_bundle: Optional[tuple[str, ...]] = None
    index_of = instance.resource_index

    def lex_key(chosen: list[str]) -> tuple:
        indices = tuple(sorted(index_of(r) for r in chosen))
        return (len(indices), indices)

    stack: list[tuple[int, Fraction, Fraction, list[str]]] = [
        (0, _ZERO, _ZERO, [])
    ]
    while stack:
        i, val, cost, chosen = stack.pop()
        if best_cost is not None and cost > best_cost:
            continue
        if val >= target:
            # Any extension only adds cost and lengthens the bundle, so this
            # node is the best completion of `chosen`.
            key = lex_key(chosen)
            if best_cost is None or cost < best_cost or (
                cost == best_cost and key < best_key
            ):
                best_cost, best_key, best_bundle = cost, key, tuple(chosen)
            continue
        if i == len(candidates) or val + suffix[i] < target:
            continue
        # Explore inclusion first (stack order: exclusion pushed first).
        stack.append((i + 1, val, cost, chosen))
        stack.append((i + 1, val + values[i], cost + costs[i], chosen + [candidates[i]]))

    assert best_bundle is not None  # suffix bound guaranteed reachability
    return (best_cost, frozenset(best_bundle))


def _master_lp(
    instance: Instance, pool: Sequence[ConfigColumn]
) -> LinearProgram:
    """Phase-1 master: minimize total shortfall, one unit slack per player."""
    m = len(instance.players)
    width = len(pool) + m
    one = Fraction(1)
    objective = [_ZERO] * len(pool) + [one] * m
    player_rows = [[_ZERO] * width for _ in instance.players]
    resource_rows = [[_ZERO] * width for _ in instance.resources]
    for j, col in enumerate(pool):
        player_rows[instance.player_index(col.player)][j] = one
        for r in col.bundle:
            resource_rows[instance.resource_index(r)][j] = one
    for pi, row in enumerate(player_rows):
        row[len(pool) + pi] = one
    rows = [(row, ">=", one) for row in player_rows]
    rows += [(row, "<=", one) for row in resource_rows]
    return LinearProgram.minimize(objective, rows)


def clp_feasible(instance: Instance, target: Fraction) -> ClpVerdict:
    """Decide CLP(target) by column generation; verdicts carry exact evidence.

    Feasible: a fractional solution satisfying both constraint families
    exactly.  Infeasible: dual prices with positive objective whose
    feasibility is re-verified by pricing every player.
    """
    target = Fraction(target)
    if target < 0:
        raise InvalidTarget(f"target must be non-negative, got {target}")

    pool: list[ConfigColumn] = []
    pooled: set[tuple[str, frozenset[str]]] = set()
    transcript: list[TranscriptEntry] = []
    iteration = 0
    while True:
        iteration += 1
        outcome = solve_lp(_master_lp(instance, pool))
        if outcome.status != OPTIMAL:  # the master always has the slack point
            raise VerificationFailed(f"master LP reported {outcome.status}")
        m = len(instance.players)
        y = {
            p: outcome.dual[pi] for pi, p in enumerate(instance.players)
        }
        z = {
            r: -outcome.dual[m + ri]
            for ri, r in enumerate(instance.resources)
        }
        improving: list[ConfigColumn] = []
        for p in instance.players:
            priced = min_cost_configuration(instance, p, z, target)
            if priced is None:
                continue
            cost, bundle = priced
            if cost < y[p]:
                col = ConfigColumn(
                    player=p, bundle=bundle, value=bundle_value(instance, p, bundle)
                )
                key = (p, bundle)
                assert key not in pooled  # pooled columns price non-negatively
                improving.append(col)
        if not improving:
            return _final_verdict(
                instance, target, pool, outcome, y, z, transcript
            )
        # Canonical (player, bundle) order keeps runs reproducible no matter
        # how the per-player pricing was scheduled.
        improving.sort(
            key=lambda c: (
                instance.player_index(c.player),
                tuple(sorted(instance.resource_index(r) for r in c.bundle)),
            )
        )
        for col in improving:
            pool.append(col)
            pooled.add((col.player, col.bundle))
            priced_cost = sum(
                (z[r] for r in col.bundle), _ZERO
            )
            transcript.append(
                TranscriptEntry(
                    iteration=iteration,
                    player=col.player,
                    bundle=tuple(instance.sorted_resources(col.bundle)),
                    cost=priced_cost,
                    master_objective=outcome.objective,
                )
            )


def _final_verdict(instance, target, pool, outcome, y, z, transcript):
    shortfall = outcome.objective
    if shortfall == 0:
        solution = []
        used: dict[str, Fraction] = {r: _ZERO for r in instance.resources}
        received: dict[str, Fraction] = {p: _ZERO for p in instance.players}
        for j, col in enumerate(pool):
            w = outcome.primal[j]
            if w > 0:
                solution.append((col, w))
                received[col.player] += w
                for r in col.bundle:
                    used[r] += w
        # Exact re-check of both primal constraint families.
        if not all(received[p] >= 1 for p in instance.players):
            raise VerificationFailed("master solution leaves a player short")
        if not all(used[r] <= 1 for r in instance.resources):
            raise VerificationFailed("master solution overuses a resource")
        return ClpVerdict(
            status=FEASIBLE,
            solution=tuple(solution),
            transcript=tuple(transcript),
        )

    prices = DualCertificate(y=dict(y), z=dict(z))
    _assert_prices_feasible(instance, target, prices)
    if prices.objective <= 0:
        raise VerificationFailed(
            f"infeasibility prices have objective {prices.objective} <= 0"
        )
    return ClpVerdict(
        status=INFEASIBLE, prices=prices, transcript=tuple(transcript)
    )


def _assert_prices_feasible(instance, target, prices: DualCertificate) -> None:
    """Re-verify an infeasibility certificate with the pricing search."""
    for p in instance.players:
        priced = min_cost_configuration(instance, p, prices.z, target)
        if priced is not None and priced[0] < prices.y[p]:
            raise VerificationFailed(
                f"dual certificate violated for player {p!r}: "
                f"{priced[0]} < {prices.y[p]}"
            )


def subset_sum_breakpoints(
    instance: Instance, budget: int = DEFAULT_BREAKPOINT_BUDGET
) -> list[Fraction]:
    """Sorted distinct subset-sum values of every player's desired resources.

    Feasibility of CLP(T) is constant between consecutive breakpoints, so the
    optimal target is always one of them.
    """
    seen: set[Fraction] = set()
    total = 0
    for p in instance.players:
        sums = {_ZERO}
        for r in instance.desired_by(p):
            v = instance.value[r]
            if v > 0:
                sums |= {s + v for s in sums}
            if total + len(sums) > budget:
                raise BudgetExceeded(
                    f"subset-sum breakpoints exceed budget {budget}"
                )
        total += len(sums)
        seen |= sums
    return sorted(seen)


@dataclass(frozen=True)
class TargetSearchProbe:
    target: Fraction
    status: str

    def line(self) -> str:
        return f"probe T={format_rational(self.target)} -> {self.status}"


def compute_T_star(
    instance: Instance,
    mode: str = "exact",
    *,
    delta: Fraction = Fraction(1, 1000),
    budget: int = DEFAULT_BREAKPOINT_BUDGET,
) -> tuple[Fraction, tuple[TargetSearchProbe, ...]]:
    """Largest target at which CLP is feasible, with the probe transcript.

    Exact mode binary-searches the subset-sum breakpoints (raises
    BudgetExceeded on oversized instances); bisect mode returns a feasible T
    with CLP(T + delta) infeasible.
    """
    probes: list[TargetSearchProbe] = []

    def feasible(t: Fraction) -> bool:
        verdict = clp_feasible(instance, t)
        probes.append(TargetSearchProbe(target=t, status=verdict.status))
        return verdict.feasible

    if mode == "exact":
        points = subset_sum_breakpoints(instance, budget=budget)
        lo, hi = 0, len(points) - 1
        # CLP(0) is always feasible: the empty bundle is a configuration.
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if feasible(points[mid]):
                lo = mid
            else:
                hi = mid - 1
        return points[lo], tuple(probes)

    if mode == "bisect":
        delta = Fraction(delta)
        if delta <= 0:
            raise InvalidTarget(f"delta must be positive, got {delta}")
        ceiling = min(
            bundle_value(instance, p, instance.desired_by(p))
            for p in instance.players
        )
        lo, hi = _ZERO, ceiling + 1  # hi exceeds every feasible target
        while hi - lo > delta:
            mid = (lo + hi) / 2
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo, tuple(probes)

    raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'bisect'")
