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
subset-sum values of some player's desired resources, so T* is one of them.
`compute_T_star` bisects the grid of the instance's integer values
(`Instance.weight`, over the one common denominator `Instance.scale`) between
two proven bounds, and each verdict moves one bound to a subset sum.  No
probe lies above the cap min(ceiling, wanted / m): above the smallest total
desired value of a player, that player has no configuration, and CLP(T)
needs m units of configurations worth >= T each from resources used at most
once, so m·T is at most the total value `wanted` of the desired resources.
No probe lies at or below the integral floor either: a greedy allocation,
checked to give each player only desired resources and no resource twice,
is a CLP solution at its smallest bundle value, one unit of each player's
bundle.  On small instances that floor is usually T* itself, and one probe
or none ends the search.  A feasible probe lifts the lower end to its
floor, the smallest value of a bundle its solution uses: the same solution
is feasible there.  An infeasible probe lowers the upper end to its top,
the largest value of a bundle that costs less than its player's price y,
over the players with y > 0: above the top every configuration costs at
least its player's y, so the probe's prices stay dual feasible with a
positive objective, and CLP is infeasible there.  Both the pricing and
these bounds read the instance's integer values, so the only LCMs computed
here are the ones of the prices.
"""

from __future__ import annotations

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
class DualCertificate:
    """Prices (y per player, z per resource) for the configuration dual.

    The LP's infeasibility verdicts and the certificates built from a stuck
    search are both this: a dual solution and nothing else.
    """

    y: Mapping[str, Fraction]
    z: Mapping[str, Fraction]

    def numerators(self) -> tuple[int, dict[str, int], dict[str, int]]:
        """(d, d·y, d·z): every price as an `int` numerator over one common
        denominator d, the LCM of the prices' denominators."""
        d = reduce(lcm, [v.denominator for v in self.y.values()], 1)
        d = reduce(lcm, [v.denominator for v in self.z.values()], d)
        return (
            d,
            {p: v.numerator * (d // v.denominator) for p, v in self.y.items()},
            {r: v.numerator * (d // v.denominator) for r, v in self.z.items()},
        )

    @property
    def objective(self) -> Fraction:
        """Σy - Σz: the numerators over d are summed as `int`s, and the one
        `Fraction` is built from their difference."""
        d, y, z = self.numerators()
        return Fraction(sum(y.values()) - sum(z.values()), d)

    def scaled(self, factor: Fraction) -> "DualCertificate":
        factor = Fraction(factor)
        return DualCertificate(
            y={p: v * factor for p, v in self.y.items()},
            z={r: v * factor for r, v in self.z.items()},
        )

    def to_json_dict(self) -> dict:
        return {
            "y": {p: format_rational(v) for p, v in self.y.items()},
            "z": {r: format_rational(v) for r, v in self.z.items()},
            "objective": format_rational(self.objective),
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
) -> Optional[tuple[int | Fraction, frozenset[str]]]:
    """Cheapest configuration for `player` at prices, or None if none exists.

    Returns the argmin of (cost, bundle size, sorted resource indices) over
    the bundles of positive-value desired resources worth at least `target`;
    zero-value resources never enter a bundle, and a missing price is 0.
    Prices (`int` or `Fraction`) and the target are read as given, and only
    the candidates' prices are read: one below 0 raises `NegativePrice`, as
    the pruning needs every cost >= 0, even for a player whose candidates
    together fall short of the target.  That player gets None before any
    cost is scaled.

    Exact branch and bound over integers: the values are the instance's
    weights, the target is rounded up onto their scale, and the costs are
    scaled by the LCM of their denominators, so every addition and comparison
    is on Python `int`s.  The cost is returned as that `int` when the LCM is
    1, as it is at the integer prices of `clp_feasible` and of certificate
    verification, and as a `Fraction` otherwise.
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
    exact_costs = [prices.get(r, 0) for r in candidates]
    if min(exact_costs, default=0) < 0:
        r, c = next((r, c) for r, c in zip(candidates, exact_costs) if c < 0)
        raise NegativePrice(f"price of {r!r} is negative: {c}")
    weight = instance.weight
    values = [weight[r] for r in candidates]
    goal = -(-target.numerator * instance.scale // target.denominator)
    if sum(values) < goal:
        return None

    bits = [1 << instance.resource_index(r) for r in candidates]
    cost_scale = reduce(lcm, (c.denominator for c in exact_costs), 1)
    costs = []
    # need[i] is the bit of the previous candidate of i's class (same weight,
    # same cost), or 0.  Equal weights are adjacent in candidate order, so
    # the walk back stays within the run of i's weight.
    need = []
    run = 0
    for i, c in enumerate(exact_costs):
        cost = c.numerator * (cost_scale // c.denominator)
        if values[i] != values[run]:
            run = i
        j = i - 1
        while j >= run and costs[j] != cost:
            j -= 1
        need.append(bits[j] if j >= run else 0)
        costs.append(cost)
    n = len(candidates)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]

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
        best_cost if cost_scale == 1 else Fraction(best_cost, cost_scale),
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


def _top(instance: Instance, prices: DualCertificate) -> int:
    """The largest weight of a bundle that costs less than its player's y at
    the resource prices z, over the players with y > 0, in `weight` units.

    One integer max-value branch and bound per priced player: its candidates
    in search order, costs scaled by the LCM of their denominators and y's,
    and a node cut when even all the remaining candidates cannot lift it
    above the best weight found so far, for this player or an earlier one.
    """
    top = -1
    for p, y in prices.y.items():
        if y <= 0:
            continue
        candidates = instance.candidates[p]
        values = [instance.weight[r] for r in candidates]
        exact_costs = [prices.z[r] for r in candidates]
        cost_scale = reduce(lcm, (c.denominator for c in exact_costs), y.denominator)
        costs = [c.numerator * (cost_scale // c.denominator) for c in exact_costs]
        spend = y.numerator * (cost_scale // y.denominator) - 1  # cost < y
        suffix = [0] * (len(values) + 1)
        for i in range(len(values) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + values[i]
        stack = [(0, 0, 0)]  # (next candidate, value, cost)
        while stack:
            i, val, cost = stack.pop()
            top = max(top, val)
            if val + suffix[i] <= top:
                continue
            stack.append((i + 1, val, cost))
            if cost + costs[i] <= spend:
                stack.append((i + 1, val + values[i], cost + costs[i]))
    return top


def _integral_floor(instance: Instance) -> dict[str, set[str]]:
    """A greedy integral allocation: each player's bundle of desired
    positive-value resources.  Weight 1 on each bundle is a CLP solution at
    its smallest bundle value, so that value is a lower bound on T*.

    The resources go out in search order (descending weight, ties by
    index), each to its desirer with the smallest total so far (ties by
    player index).  Then the poorest player (ties by index) takes the first
    resource of its candidate order that has not moved yet and whose owner's
    total, less its weight, stays strictly above the poorest total; this
    repeats until the poorest player finds no such resource.  Each resource
    moves at most once, so there are at most |R| moves of O(m + |R|) work
    each, whatever the weights.
    """
    weight, candidates = instance.weight, instance.candidates
    desirers: dict[str, list[str]] = {}
    for p in instance.players:
        for r in candidates[p]:
            desirers.setdefault(r, []).append(p)
    total = dict.fromkeys(instance.players, 0)
    owner = {}
    for r in sorted(desirers, key=lambda r: (-weight[r], instance.resource_index(r))):
        # `min` keeps the first of equal totals, the lowest player index.
        owner[r] = p = min(desirers[r], key=total.__getitem__)
        total[p] += weight[r]
    moved = set()
    while True:
        poorest = min(instance.players, key=total.__getitem__)
        for r in candidates[poorest]:
            if r not in moved and total[owner[r]] - weight[r] > total[poorest]:
                break
        else:
            break
        total[owner[r]] -= weight[r]
        total[poorest] += weight[r]
        owner[r] = poorest
        moved.add(r)
    bundles = {p: set() for p in instance.players}
    for r, p in owner.items():
        bundles[p].add(r)
    return bundles


def _allocation_floor(instance: Instance, bundles: Mapping[str, set[str]]) -> int:
    """The smallest total weight of a player's bundle, after checking that
    `bundles` is an integral allocation: every bundle holds only resources
    its player desires, and no resource sits in two bundles.  A player
    without a bundle holds nothing."""
    weight = instance.weight
    owner: dict[str, str] = {}
    for p, bundle in bundles.items():
        desired = instance.desire.get(p, frozenset())
        for r in bundle:
            if r not in desired:
                raise VerificationFailed(
                    f"integral floor gives {p!r} the undesired resource {r!r}"
                )
            if owner.setdefault(r, p) != p:
                raise VerificationFailed(
                    f"integral floor gives {r!r} to both {owner[r]!r} and {p!r}"
                )
    return min(
        sum(weight[r] for r in bundles.get(p, ())) for p in instance.players
    )


def compute_T_star(instance: Instance) -> Fraction:
    """T*, the largest target at which CLP is feasible, exactly.

    Bisection on the grid of `weight` units (T·scale): `lo` is always proven
    feasible and every target above `hi` proven infeasible, each probe is
    one `clp_feasible` call at the upper middle, and four proven bounds
    narrow the search without an LP:

    - the integral floor: `lo` starts at the smallest bundle value of the
      greedy allocation `_integral_floor`.  Weight 1 on each player's bundle
      is a CLP solution there, once `_allocation_floor` has checked that
      every bundle holds only resources its player desires and that no
      resource sits in two bundles.  A floor above the cap contradicts
      floor <= T* <= cap.
    - the cap: `hi` starts at min(ceiling, wanted / m), rounded down.  The
      ceiling is the smallest total desired value of a player, who has no
      configuration above it.  `wanted` is the total value of the resources
      someone desires: CLP(T) puts m units of configurations worth >= T
      each on resources used at most once, so m·T <= wanted.
    - the floor jump: a feasible verdict's solution is also feasible at its
      floor, the smallest value of a bundle it uses, since each such bundle
      is a configuration there, and `lo` moves up to it.
    - the top jump: an infeasible verdict's prices (y, z) are dual feasible
      at the probe, so no configuration there costs less than its player's
      y.  Its top is the largest value of a bundle that costs less than its
      player's y, over the players with y > 0 (a player with y = 0 never
      violates a dual constraint, as z >= 0).  Above the top every
      configuration costs at least its player's y, so (y, z) stay dual
      feasible with a positive objective and CLP is infeasible: `hi` moves
      down to the top.

    Each probe at least halves hi - lo, so the search ends after at most
    `(hi - lo).bit_length()` probes from the integral floor, none when it
    reaches the cap, with lo = hi = T*·scale.  The floors and the top are
    subset sums, so it also makes at most one probe more than there are
    subset sums above the integral floor up to the cap.  On the small
    instances of the benchmark's `exact-small` grid (2×4 to 5×10) the
    greedy floor is T* about four times in five, and a search averages
    about one probe.  A verdict's floor below the probe, a top at or above
    the probe or below `lo`, a bundle that breaks the allocation check, or
    an integral floor above the cap contradicts a proven bound and raises
    `VerificationFailed`.
    """
    weight, m, scale = instance.weight, len(instance.players), instance.scale
    wanted = sum(weight[r] for r in set().union(*instance.candidates.values()))
    hi = min(m * _ceiling(instance), wanted) // m
    lo = _allocation_floor(instance, _integral_floor(instance))
    if lo > hi:
        raise VerificationFailed(
            f"integral allocation worth {Fraction(lo, scale)} is above the cap "
            f"{Fraction(hi, scale)}"
        )
    while lo < hi:
        mid = (lo + hi + 1) // 2
        target = Fraction(mid, scale)
        verdict = clp_feasible(instance, target)
        if not verdict.feasible:
            top = _top(instance, verdict.prices)
            if not lo <= top < mid:
                raise VerificationFailed(
                    f"prices at {target} leave a bundle worth {Fraction(top, scale)} "
                    f"cheaper than its player's price, outside "
                    f"[{Fraction(lo, scale)}, {target})"
                )
            hi = top
            continue
        # The desired value of each bundle, in weight units.
        floor = min(
            sum(weight[r] for r in col.bundle & instance.desired_by(col.player))
            for col, _ in verdict.solution
        )
        if floor < mid:
            raise VerificationFailed(
                f"feasible solution at {target} uses a bundle worth "
                f"{Fraction(floor, scale)}"
            )
        lo = min(floor, hi)
    return Fraction(lo, scale)
