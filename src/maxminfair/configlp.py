"""Configuration-LP engine: feasibility at a target and the optimal target.

CLP(T) asks for fractional weights on configurations (bundles of desired
resources worth at least T) so that every player collects one unit while no
resource is used more than once.  The engine works by column generation: a
phase-1 master minimizes the total player shortfall over a growing column
pool, and an exact min-cost-configuration search prices new columns.  The
master is one live `simplex.Tableau` per `clp_feasible` call: each round
appends its new columns and resumes pivoting from the last optimum.  Its
outcome is integer numerators over one denominator d, and column generation
stays on them until the verdict: prices stay the integers d·y and d·z, and
only the returned weights and infeasibility prices become `Fraction`s.
CLP(T) is feasible as soon as an optimum has zero shortfall, and the call
returns there; pricing runs only at positive shortfall, where the master
duals are a certified proof of infeasibility once no improving column
exists.  A player whose dual is 0 is not priced: every cost is >= 0, so it
never gains a column.  Each claim is checked once, never trusted, and a
failure raises `VerificationFailed`: feasible weights are re-checked against
both constraint families, each round's resource prices must be non-negative
before any pricing, infeasibility prices need a positive objective, and
their dual feasibility is checked by the last round itself, which priced
every player with a positive dual at those prices and found nothing cheaper.

The optimal target T* is the largest T at which CLP(T) is feasible.
Feasibility only changes when the configuration sets change, i.e. at
subset-sum values of some player's desired resources, so `compute_T_star`
binary-searches those breakpoints, within two proven bounds.  No probe lies
above the cap min(ceiling, wanted / m): above the smallest total desired
value of a player, that player has no configuration, and CLP(T) needs m
units of configurations worth >= T each from resources used at most once,
so m·T is at most the total value `wanted` of the desired resources.  And a
feasible probe lifts the lower end to its floor, the smallest value of a
bundle its solution uses: the same solution is feasible there, and that
value is a subset sum, so a breakpoint.  Both the breakpoints and the pricing
read the instance's integer values (`Instance.weight`, over the one common
denominator `Instance.scale`), so the only LCM computed here is the one of
the prices.  When the breakpoints exceed the work budget (the per-player
distinct sums, added up over the players), `bracket_T_star` bisects instead
and returns T* to a requested accuracy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Mapping, Optional

from .errors import (
    BudgetExceeded,
    InvalidTarget,
    NegativePrice,
    VerificationFailed,
)
from .instances import Instance, format_rational
from .simplex import LinearProgram, OPTIMAL, Tableau
from .simplex import solve_lp  # not called here; perfbench/tracing.py wraps it by name

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

DEFAULT_BREAKPOINT_BUDGET = 2**20

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ConfigColumn:
    """A configuration: a bundle of desired resources worth at least the target."""

    player: str
    bundle: frozenset[str]


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
class ClpVerdict:
    """A CLP(T) decision with its evidence.

    `transcript` is the column pool: every configuration column generated,
    in the order it entered.
    """

    status: str
    solution: Optional[tuple[tuple[ConfigColumn, Fraction], ...]] = None
    prices: Optional[DualCertificate] = None
    transcript: tuple[ConfigColumn, ...] = ()

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
    Prices (`int` or `Fraction`) and the target are read as given, and only
    the candidates' prices are read: one below 0 raises `NegativePrice`, as
    the pruning needs every cost >= 0.

    Exact branch and bound over integers: the values are the instance's
    weights, the target is rounded up onto their scale, and the costs are
    scaled by the LCM of their denominators, so every addition and comparison
    is on Python `int`s and the cost becomes a `Fraction` only on return.
    Candidates come in the instance's search order (descending value) and
    are pruned by the remaining achievable value and by the incumbent cost.
    A bundle is a bitmask with bit `1 << resource_index(r)` for each member,
    so the tie rule is two bit operations: the smaller `bit_count()` wins,
    and at equal size the mask holding the lowest bit of the symmetric
    difference wins, which is the smaller list of sorted indices.  A node
    short of the target that costs as much as the incumbent and already
    has as many resources is cut: any completion adds a resource at no
    lower cost and loses the tie on size.  Candidates of equal weight and
    equal scaled cost are interchangeable, and one joins a bundle only after
    its predecessor in that class (candidate order is index order there):
    swapping a member for a missing lower-index one keeps the value, the
    cost and the size, and wins the tie, so no argmin is cut.
    """
    instance.player_index(player)
    if target <= 0:
        return (_ZERO, frozenset())

    candidates = instance.candidates[player]
    values = [instance.weight[r] for r in candidates]
    bits = [1 << instance.resource_index(r) for r in candidates]
    exact_costs = [prices.get(r, 0) for r in candidates]
    cost_scale = reduce(lcm, (c.denominator for c in exact_costs), 1)
    costs = []
    # need[i] is the bit of the previous candidate of i's class (same weight,
    # same cost), or 0.  Equal weights are adjacent in candidate order, so
    # the walk back stays within the run of i's weight.
    need = []
    run = 0
    for i, (r, c) in enumerate(zip(candidates, exact_costs)):
        if c.numerator < 0:
            raise NegativePrice(f"price of {r!r} is negative: {c}")
        cost = c.numerator * (cost_scale // c.denominator)
        if values[i] != values[run]:
            run = i
        j = i - 1
        while j >= run and costs[j] != cost:
            j -= 1
        need.append(bits[j] if j >= run else 0)
        costs.append(cost)
    goal = -(-target.numerator * instance.scale // target.denominator)
    n = len(candidates)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    if suffix[0] < goal:
        return None

    # No bundle costs more than every candidate together, so this bound
    # prunes nothing until the first covering bundle is found.
    best_cost = sum(costs) + 1
    best: Optional[int] = None
    best_size = 0
    # Nodes are (next candidate, value, cost, bitmask of chosen resources by
    # index).  An int, not a tuple: tuples of every length would fill the
    # interpreter's per-length free lists, which only a full collection frees.
    stack: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)]
    while stack:
        i, val, cost, chosen = stack.pop()
        if cost > best_cost:
            continue
        if val >= goal:
            # Any extension only adds cost and lengthens the bundle, so this
            # node is the best completion of `chosen`.
            if cost < best_cost:
                best_cost, best, best_size = cost, chosen, chosen.bit_count()
                continue
            # A tie on cost: the smaller bundle wins, and at equal size the
            # one holding the lowest index where the two differ.
            size = chosen.bit_count()
            if size < best_size or (
                size == best_size and chosen & (d := chosen ^ best) & -d
            ):
                best, best_size = chosen, size
            continue
        # A completion needs one more resource at no lower cost, so it would
        # lose the tie on size.
        if cost == best_cost and chosen.bit_count() >= best_size:
            continue
        # Every node on the stack can still reach the goal (val + suffix[i]
        # >= goal), so it is not a leaf.  Explore inclusion first (stack
        # order: exclusion pushed first).
        if val + suffix[i + 1] >= goal:
            stack.append((i + 1, val, cost, chosen))
        # A class joins in index order: i only after its class predecessor.
        if cost + costs[i] <= best_cost and (not need[i] or chosen & need[i]):
            stack.append((i + 1, val + values[i], cost + costs[i], chosen | bits[i]))

    if best is None:
        raise VerificationFailed(
            f"pricing found no configuration for {player!r} although the "
            f"desired value reaches {target}"
        )
    return (
        Fraction(best_cost, cost_scale),
        frozenset(r for r, b in zip(candidates, bits) if best & b),
    )


def clp_feasible(instance: Instance, target: Fraction) -> ClpVerdict:
    """Decide CLP(target) by column generation; verdicts carry exact evidence.

    The master is one live `Tableau` for the whole call: the empty-pool
    phase-1 master (minimize the total shortfall, one unit shortfall column
    per player) is built once, each round appends its improving columns to
    it, and the next round's pivots resume from the last optimum.

    Feasible: as soon as an optimum has zero shortfall, its fractional
    solution, re-checked exactly against both constraint families.  No
    pricing round runs then, since prices only certify infeasibility.
    Infeasible: at positive shortfall, dual prices with positive objective,
    feasible because that round priced every player with a positive dual y
    at them without finding an improving column.  Each round checks its
    resource prices z >= 0 before any pricing, so a player whose y is 0 is
    not priced: no column costs less than 0, and its dual constraint holds.

    Every round works on the master's integer numerators over its
    denominator d > 0: the shortfall, the price checks and the feasible
    re-check (each player receives >= d, each resource is used <= d) are
    `int` tests, and pricing runs at the integer prices d·z.  Scaling every
    cost by d keeps the argmin and the tie rule, so the bundle is the one
    the rational prices give, at d times the cost, and it is compared with
    d·y.  `Fraction`s are built only for the verdict: the solution's
    weights, or the infeasibility prices y and z.
    """
    target = Fraction(target)
    if target < 0:
        raise InvalidTarget(f"target must be non-negative, got {target}")

    m = len(instance.players)
    rows = [([int(k == i) for k in range(m)], ">=", 1) for i in range(m)]
    rows += [([0] * m, "<=", 1) for _ in instance.resources]
    master = Tableau(LinearProgram.minimize([1] * m, rows))
    # Each pooled column, in the order it entered, and its master variable
    # (the variables are one shortfall per player, then the pool).
    pool: dict[ConfigColumn, int] = {}
    while True:
        outcome = master.optimize()
        if outcome.status != OPTIMAL:  # the master always has the slack point
            raise VerificationFailed(f"master LP reported {outcome.status}")
        # Every number below is an integer numerator over d.
        d = outcome.denominator
        if outcome.objective == 0:
            solution = []
            used = dict.fromkeys(instance.resources, 0)
            received = dict.fromkeys(instance.players, 0)
            for col, j in pool.items():
                w = outcome.primal[j]
                if w > 0:
                    solution.append((col, Fraction(w, d)))
                    received[col.player] += w
                    for r in col.bundle:
                        used[r] += w
            # Exact re-check of both primal constraint families.
            if not all(received[p] >= d for p in instance.players):
                raise VerificationFailed("master solution leaves a player short")
            if not all(used[r] <= d for r in instance.resources):
                raise VerificationFailed("master solution overuses a resource")
            return ClpVerdict(
                status=FEASIBLE, solution=tuple(solution), transcript=tuple(pool)
            )
        y = {p: outcome.dual[pi] for pi, p in enumerate(instance.players)}
        z = {r: -outcome.dual[m + ri] for ri, r in enumerate(instance.resources)}
        if min(z.values(), default=0) < 0:
            raise VerificationFailed(f"master prices {min(z, key=z.get)!r} below 0")
        pooled = len(pool)
        for p in instance.players:
            # Every cost is >= 0, so no column improves on y[p] = 0.
            if y[p] == 0:
                continue
            priced = min_cost_configuration(instance, p, z, target)
            if priced is None or priced[0] >= y[p]:
                continue
            cost, bundle = priced
            col = ConfigColumn(player=p, bundle=bundle)
            # A pooled column has non-negative reduced cost at the master
            # optimum; re-adding one would loop column generation forever.
            if col in pool:
                raise VerificationFailed(
                    f"pooled column {instance.sorted_resources(bundle)} of {p!r} "
                    f"priced {Fraction(cost, d)} < {Fraction(y[p], d)} again"
                )
            column = [0] * len(rows)
            column[instance.player_index(p)] = 1
            for r in bundle:
                column[m + instance.resource_index(r)] = 1
            master.append(0, column)
            pool[col] = m + len(pool)
        if len(pool) == pooled:
            prices = DualCertificate(
                y={p: Fraction(v, d) for p, v in y.items()},
                z={r: Fraction(v, d) for r, v in z.items()},
            )
            if prices.objective <= 0:
                raise VerificationFailed(
                    f"infeasibility prices have objective {prices.objective} <= 0"
                )
            return ClpVerdict(status=INFEASIBLE, prices=prices, transcript=tuple(pool))


def subset_sum_breakpoints(
    instance: Instance, budget: int = DEFAULT_BREAKPOINT_BUDGET
) -> list[Fraction]:
    """Sorted distinct subset-sum values of every player's desired resources.

    Feasibility of CLP(T) is constant between consecutive breakpoints, so the
    optimal target is always one of them.

    The sums are Python `int`s over the instance's `scale`: each desired
    resource adds its `weight`, and each point becomes a `Fraction` only on
    return.  `budget` caps the per-player distinct sums (the empty sum
    included) added up over the players: it is checked after every player
    and after every positive-value desired resource, and `BudgetExceeded` is
    raised past it whatever the player order.
    """
    seen: set[int] = set()
    total = 0
    for p in instance.players:
        sums = {0}
        for r in instance.desired_by(p):
            step = instance.weight[r]
            if step:
                sums |= {s + step for s in sums}
                if total + len(sums) > budget:
                    break
        total += len(sums)
        if total > budget:
            raise BudgetExceeded(f"subset-sum breakpoints exceed budget {budget}")
        seen |= sums
    return [Fraction(s, instance.scale) for s in sorted(seen)]


def _ceiling(instance: Instance) -> int:
    """The smallest total desired value of a player, in `weight` units; no
    configuration exists above it."""
    weight = instance.weight
    return min(sum(weight[r] for r in c) for c in instance.candidates.values())


def compute_T_star(
    instance: Instance, *, budget: int = DEFAULT_BREAKPOINT_BUDGET
) -> Fraction:
    """T*, the largest target at which CLP is feasible.

    Binary search over the subset-sum breakpoints, one `clp_feasible` probe
    per step; raises BudgetExceeded when the breakpoints exceed `budget`.
    `points[lo]` is always proven feasible and every point above `hi` proven
    infeasible, and two facts tighten the bracket without an LP:

    - the cap: no probe lies above min(ceiling, wanted / m).  The ceiling is
      the smallest total desired value of a player, who has no configuration
      above it.  `wanted` is the total value of the resources someone
      desires: CLP(T) puts m units of configurations worth >= T each on
      resources used at most once, so m·T <= wanted.
    - the floor jump: a feasible verdict's solution is also feasible at its
      floor, the smallest value of a bundle it uses, since each such bundle
      is a configuration there.  The floor is a subset sum of its player's
      desired resources, so a breakpoint, and `lo` moves up to it.
    """
    points = subset_sum_breakpoints(instance, budget=budget)
    weight, m = instance.weight, len(instance.players)
    wanted = sum(weight[r] for r in set().union(*instance.candidates.values()))
    cap = Fraction(min(m * _ceiling(instance), wanted), m * instance.scale)
    # CLP(0) is always feasible: the empty bundle is a configuration.
    lo, hi = 0, bisect_right(points, cap) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        verdict = clp_feasible(instance, points[mid])
        if not verdict.feasible:
            hi = mid - 1
            continue
        # In weight units, then one Fraction: the desired value of each bundle.
        floor = Fraction(
            min(
                sum(weight[r] for r in col.bundle & instance.desired_by(col.player))
                for col, _ in verdict.solution
            ),
            instance.scale,
        )
        if floor < points[mid]:
            raise VerificationFailed(
                f"feasible solution at {points[mid]} uses a bundle worth {floor}"
            )
        lo = bisect_right(points, floor, mid, hi + 1) - 1
    return points[lo]


def bracket_T_star(instance: Instance, delta: Fraction) -> Fraction:
    """A feasible target within `delta` of T*: T* - delta < result <= T*.

    Bisects from 0 to one above the smallest total desired value, so it
    needs no breakpoints; CLP(result + delta) is infeasible.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise InvalidTarget(f"delta must be positive, got {delta}")
    ceiling = Fraction(_ceiling(instance), instance.scale)
    lo, hi = _ZERO, ceiling + 1  # hi exceeds every feasible target
    while hi - lo > delta:
        mid = (lo + hi) / 2
        if clp_feasible(instance, mid).feasible:
            lo = mid
        else:
            hi = mid
    return lo
