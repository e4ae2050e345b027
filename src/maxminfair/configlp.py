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
from functools import reduce
from math import lcm
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

    Returns the argmin of (cost, bundle size, sorted resource indices) over
    the bundles of positive-value desired resources worth at least `target`;
    zero-value resources never enter a bundle, and a missing price is 0.

    Exact branch and bound over integers: the candidate values and the
    target are scaled by the LCM of their denominators, the costs by the LCM
    of their own, so every addition and comparison is on Python `int`s and
    the cost becomes a `Fraction` only on return.  Candidates are sorted by
    descending value and pruned by the remaining achievable value and by the
    incumbent cost.
    """
    target = Fraction(target)
    for r, price in prices.items():
        if price < 0:
            raise NegativePrice(f"price of {r!r} is negative: {price}")
    desired = instance.desired_by(player)
    if target <= 0:
        return (_ZERO, frozenset())

    index_of = instance.resource_index
    candidates = [r for r in desired if instance.value[r] > 0]
    candidates.sort(key=lambda r: (-instance.value[r], index_of(r)))
    exact_values = [instance.value[r] for r in candidates]
    exact_costs = [Fraction(prices.get(r, 0)) for r in candidates]
    value_scale = reduce(lcm, (v.denominator for v in exact_values), target.denominator)
    cost_scale = reduce(lcm, (c.denominator for c in exact_costs), 1)
    values = [v.numerator * (value_scale // v.denominator) for v in exact_values]
    costs = [c.numerator * (cost_scale // c.denominator) for c in exact_costs]
    goal = target.numerator * (value_scale // target.denominator)
    positions = [index_of(r) for r in candidates]
    n = len(candidates)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    if suffix[0] < goal:
        return None

    def tie_key(chosen: int) -> tuple:
        members = [positions[j] for j in range(n) if chosen >> j & 1]
        return (len(members), sorted(members))

    # No bundle costs more than every candidate together, so this bound
    # prunes nothing until the first covering bundle is found.
    best_cost = sum(costs) + 1
    best: Optional[int] = None
    # Nodes are (next candidate, value, cost, bitmask of chosen candidates).
    # An int, not a tuple of positions: tuples of every length would fill the
    # interpreter's per-length free lists, which only a full collection frees.
    stack: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)]
    while stack:
        i, val, cost, chosen = stack.pop()
        if cost > best_cost:
            continue
        if val >= goal:
            # Any extension only adds cost and lengthens the bundle, so this
            # node is the best completion of `chosen`.
            if cost < best_cost or tie_key(chosen) < tie_key(best):
                best_cost, best = cost, chosen
            continue
        # Every node on the stack can still reach the goal (val + suffix[i]
        # >= goal), so it is not a leaf.  Explore inclusion first (stack
        # order: exclusion pushed first).
        if val + suffix[i + 1] >= goal:
            stack.append((i + 1, val, cost, chosen))
        if cost + costs[i] <= best_cost:
            stack.append((i + 1, val + values[i], cost + costs[i], chosen | 1 << i))

    if best is None:
        raise VerificationFailed(
            f"pricing found no configuration for {player!r} although the "
            f"desired value reaches {target}"
        )
    return (
        Fraction(best_cost, cost_scale),
        frozenset(candidates[j] for j in range(n) if best >> j & 1),
    )


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
                # A pooled column has non-negative reduced cost at the master
                # optimum; re-adding one would loop column generation forever.
                if (p, bundle) in pooled:
                    raise VerificationFailed(
                        f"pooled column {instance.sorted_resources(bundle)} of {p!r} "
                        f"priced {cost} < {y[p]} again"
                    )
                col = ConfigColumn(
                    player=p, bundle=bundle, value=bundle_value(instance, p, bundle)
                )
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
