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
A feasible probe lifts the lower end to its floor, the smallest value of a
bundle its solution uses: the same solution is feasible there.  An
infeasible probe lowers the upper end to its top, the largest value of a
bundle that costs less than its player's price y, over the players with
y > 0: above the top every configuration costs at least its player's y, so
the probe's prices stay dual feasible with a positive objective, and CLP is
infeasible there.  Both the pricing and these bounds read the instance's
integer values, so the only LCMs computed here are the ones of the prices.
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

    @property
    def objective(self) -> Fraction:
        return sum(self.y.values(), _ZERO) - sum(self.z.values(), _ZERO)

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


def compute_T_star(instance: Instance) -> Fraction:
    """T*, the largest target at which CLP is feasible, exactly.

    Bisection on the grid of `weight` units (T·scale): `lo` is always proven
    feasible and every target above `hi` proven infeasible, each probe is
    one `clp_feasible` call at the upper middle, and three proven bounds
    narrow the search without an LP:

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
    `hi.bit_length()` probes, with lo = hi = T*·scale.  The floor and the
    top are subset sums, so it also makes at most one probe more than there
    are positive subset sums up to the cap.  A floor below the probe, or a
    top at or above the probe or below `lo`, contradicts a proven bound and
    raises `VerificationFailed`.
    """
    weight, m, scale = instance.weight, len(instance.players), instance.scale
    wanted = sum(weight[r] for r in set().union(*instance.candidates.values()))
    # CLP(0) is always feasible: the empty bundle is a configuration.
    lo, hi = 0, min(m * _ceiling(instance), wanted) // m
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
