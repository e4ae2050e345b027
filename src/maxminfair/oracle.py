"""Independent ground truth: exhaustive optima and invariant audits.

Everything here is deliberately redundant with the solver modules and kept
free of their machinery: the integral optimum comes from enumerating
assignments, the optimal LP target from explicitly enumerated configuration
columns, and the search-state checks recompute every set from scratch and
test edges against their definition in `Fraction`s.  Of `matching` only the
state type, the sentinel and the edge-kind names are read.
Budgets are hard limits; exceeding one raises instead of approximating, so a
passing oracle is always trustworthy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceeded, NotAPartition, VerificationFailed
from .instances import GUARANTEE_FRACTION, Instance, NormalizedInstance, bundle_value
from .matching import FAT, INFINITY, THIN, SearchState
from .simplex import LinearProgram, solve_lp, verify_outcome

_ZERO = Fraction(0)

DEFAULT_MAX_PLAYERS = 6
DEFAULT_MAX_RESOURCES = 12
DEFAULT_CONFIG_BUDGET = 2**12


@dataclass(frozen=True)
class Violation:
    invariant: str
    detail: str
    indices: tuple = ()


@dataclass(frozen=True)
class AuditReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"invariant": v.invariant, "detail": v.detail, "indices": list(v.indices)}
                for v in self.violations
            ],
        }


def brute_force_opt(
    instance: Instance,
    *,
    max_players: int = DEFAULT_MAX_PLAYERS,
    max_resources: int = DEFAULT_MAX_RESOURCES,
) -> Fraction:
    """Exact integral optimum by assignment enumeration with pruning.

    Each resource is tried only on the players desiring it (giving it to
    anyone else is as good as discarding it), branching on high values first
    and cutting branches whose optimistic per-player completion cannot beat
    the incumbent.
    """
    m = instance.num_players
    if m > max_players or instance.num_resources > max_resources:
        raise BudgetExceeded(
            f"instance {m}x{instance.num_resources} exceeds the "
            f"{max_players}x{max_resources} enumeration budget"
        )
    players = list(instance.players)
    order = sorted(
        instance.resources, key=lambda r: (-instance.value[r], instance.resource_index(r))
    )
    takers = [
        [players.index(p) for p in instance.desirers(r)] for r in order
    ]
    values = [instance.value[r] for r in order]
    n = len(order)
    # remaining[i][p]: total desired value among resources i.. for player p.
    remaining = [[_ZERO] * m for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for p in range(m):
            remaining[i][p] = remaining[i + 1][p] + (
                values[i] if p in takers[i] else _ZERO
            )

    best = Fraction(-1)
    current = [_ZERO] * m

    def search(i: int) -> None:
        nonlocal best
        ceiling = min(current[p] + remaining[i][p] for p in range(m))
        if ceiling <= best:
            return
        if i == n:
            best = min(current)
            return
        if not takers[i]:
            search(i + 1)
            return
        for p in takers[i]:
            current[p] += values[i]
            search(i + 1)
            current[p] -= values[i]

    search(0)
    return best


def _minimal_subsets_reaching(
    instance: Instance, player: str, target: Fraction
) -> list[frozenset[str]]:
    """All minimal configurations for a player at the given target."""
    desired = [r for r in instance.desired_by(player) if instance.value[r] > 0]
    if target <= 0:
        return [frozenset()]
    out = []
    for size in range(1, len(desired) + 1):
        for combo in combinations(desired, size):
            total = sum((instance.value[r] for r in combo), _ZERO)
            if total < target:
                continue
            cheapest = min(instance.value[r] for r in combo)
            if total - cheapest < target:
                out.append(frozenset(combo))
    return out


def enumerated_clp_feasible(instance: Instance, target: Fraction) -> bool:
    """Feasibility of the configuration LP with explicit columns.

    Restricting to minimal configurations loses nothing: shrinking a
    configuration keeps the player covered and only relaxes resource usage.
    The check is posed as the always-feasible min-shortfall LP (one unit
    slack per player row), and its optimum is re-verified with
    `verify_outcome`, so the answer rests on that exact check rather than
    on the solver's own status.
    """
    columns = []
    for p in instance.players:
        mins = _minimal_subsets_reaching(instance, p, target)
        if not mins:
            return False
        columns.extend((p, s) for s in mins)
    rows = []
    for pi, p in enumerate(instance.players):
        coeffs = [int(cp == p) for cp, _ in columns]
        coeffs += [int(k == pi) for k in range(instance.num_players)]
        rows.append((coeffs, ">=", 1))
    for r in instance.resources:
        coeffs = [int(r in s) for _, s in columns]
        coeffs += [0] * instance.num_players
        rows.append((coeffs, "<=", 1))
    objective = [0] * len(columns) + [1] * instance.num_players
    lp = LinearProgram.minimize(objective, rows)
    out = solve_lp(lp)
    problems = verify_outcome(lp, out)
    if problems:
        raise VerificationFailed(
            f"enumerated configuration LP failed verification: {problems[0]}"
        )
    return out.objective == 0


def exact_T_star_enumerated(
    instance: Instance, *, budget: int = DEFAULT_CONFIG_BUDGET
) -> Fraction:
    """Optimal LP target via full configuration enumeration and exact LPs.

    Enumerates every subset of every desire set (within budget), collects the
    subset-sum breakpoints, and returns the largest feasible one.
    """
    total = 0
    sums: set[Fraction] = {_ZERO}
    for p in instance.players:
        desired = [r for r in instance.desired_by(p) if instance.value[r] > 0]
        count = 2 ** len(desired)
        total += count
        if total > budget:
            raise BudgetExceeded(
                f"{total} configurations exceed the enumeration budget {budget}"
            )
        for size in range(len(desired) + 1):
            for combo in combinations(desired, size):
                sums.add(sum((instance.value[r] for r in combo), _ZERO))
    points = sorted(sums)
    lo, hi = 0, len(points) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if enumerated_clp_feasible(instance, points[mid]):
            lo = mid
        else:
            hi = mid - 1
    return points[lo]


def _is_edge(ni: NormalizedInstance, edge) -> bool:
    """A fat edge is one desired resource worth >= 6/23; a thin edge is a
    set of desired resources each worth in (0, 6/23), reaching 6/23 in total
    and falling below it without its smallest member (values over target)."""
    desired = ni.base.desire.get(edge.player, frozenset())
    if not edge.bundle or not edge.bundle <= desired:
        return False
    values = [ni.value(r) for r in edge.bundle]
    if edge.kind == FAT:
        return len(values) == 1 and values[0] >= GUARANTEE_FRACTION
    if edge.kind != THIN or not all(0 < v < GUARANTEE_FRACTION for v in values):
        return False
    total = sum(values, _ZERO)
    return total >= GUARANTEE_FRACTION and total - min(values) < GUARANTEE_FRACTION


def check_state_invariants(
    ni: NormalizedInstance, state: SearchState
) -> AuditReport:
    """Audit a search state by direct recomputation.

    Covers the structural invariants of the blocker sequence (disjoint
    candidate resources; blocking sets exact; blocking sets mutually disjoint
    within the matching; no removable blocker below the top), matching
    validity, edge well-formedness (for a thin edge, its minimality),
    agreement of the incremental covered/active fields with recomputation,
    and uniqueness of each active player's activator.
    """
    violations: list[Violation] = []

    def bad(invariant: str, detail: str, *indices) -> None:
        violations.append(Violation(invariant, detail, tuple(indices)))

    matching_edges = list(state.matching.edges)
    seen_players = set()
    used_resources: set[str] = set()
    for e in matching_edges:
        if e.player in seen_players:
            bad("matching-valid", f"player {e.player!r} matched twice")
        seen_players.add(e.player)
        if e.bundle & used_resources:
            bad("matching-valid", f"resources reused by {e.player!r}'s edge")
        used_resources |= e.bundle
    if state.root_player in seen_players:
        bad("root-unmatched", f"root {state.root_player!r} is matched")

    for e in matching_edges:
        if not _is_edge(ni, e):
            bad("edge-valid", f"matching edge {e} is not a hypergraph edge")

    blockers = state.blockers
    for i, b in enumerate(blockers):
        if not _is_edge(ni, b.candidate):
            bad("edge-valid", f"candidate of blocker {i} is invalid", i)

    for i, j in combinations(range(len(blockers)), 2):
        if blockers[i].candidate.bundle & blockers[j].candidate.bundle:
            bad(
                "candidates-disjoint",
                f"candidates of blockers {i} and {j} share resources",
                i,
                j,
            )

    matching_set = set(matching_edges)
    for i, b in enumerate(blockers):
        for e in b.blocking:
            if e not in matching_set:
                bad("blocking-in-matching", f"blocker {i} blocks via non-matching edge", i)
            if not (e.bundle & b.candidate.bundle):
                bad(
                    "blocking-exact",
                    f"edge in blocker {i} shares no resource with the candidate",
                    i,
                )
        outside = [
            e
            for e in matching_edges
            if e not in set(b.blocking) and e.bundle & b.candidate.bundle
        ]
        if outside:
            bad(
                "blocking-exact",
                f"blocker {i} misses blocking edges {[e.player for e in outside]}",
                i,
            )

    for i, j in combinations(range(len(blockers)), 2):
        shared = set(blockers[i].blocking) & set(blockers[j].blocking)
        if shared:
            bad(
                "blocking-disjoint",
                f"blockers {i} and {j} share blocking edges",
                i,
                j,
            )

    for i, b in enumerate(blockers[:-1]):
        if not b.blocking:
            bad("removable-below-top", f"blocker {i} has no blocking edges", i)

    covered = {r for b in blockers for e in (b.candidate, *b.blocking) for r in e.bundle}
    if state.covered != covered:
        bad("covered-recompute", "incremental covered set drifted")
    order = [state.root_player]
    for b in blockers:
        order += sorted((e.player for e in b.blocking), key=ni.base.player_index)
    if state.active_order != order:
        bad("active-recompute", "incremental activation order drifted")
    if state.active != set(order):
        bad("active-set-recompute", "incremental active set drifted")

    activators = Counter(e.player for b in blockers for e in b.blocking)
    for p, count in activators.items():
        if count != 1:
            bad("unique-activator", f"player {p!r} activated by {count} blockers")

    return AuditReport(violations=tuple(violations))


def monitor_signatures(
    signatures: Sequence[tuple], num_players: int
) -> AuditReport:
    """Check a run's signatures: strict lexicographic descent, bounded mass."""
    violations: list[Violation] = []
    for idx, entries in enumerate(signatures):
        if not entries or entries[-1] != INFINITY:
            violations.append(
                Violation("signature-shape", f"signature {idx} lacks the sentinel", (idx,))
            )
            continue
        finite = entries[:-1]
        if any(e == INFINITY for e in finite):
            violations.append(
                Violation("signature-shape", f"signature {idx} has extra sentinels", (idx,))
            )
        if sum(finite) > num_players:
            violations.append(
                Violation(
                    "blocking-mass",
                    f"signature {idx} has blocking sizes summing to {sum(finite)} "
                    f"> {num_players}",
                    (idx,),
                )
            )
    for idx in range(1, len(signatures)):
        if not signatures[idx] < signatures[idx - 1]:
            violations.append(
                Violation(
                    "strict-descent",
                    f"signature {idx} does not decrease: "
                    f"{signatures[idx - 1]} -> {signatures[idx]}",
                    (idx - 1, idx),
                )
            )
    return AuditReport(violations=tuple(violations))


def verify_allocation(
    instance: Instance, allocation: Mapping[str, Iterable[str]]
) -> Fraction:
    """Minimum player value of a full allocation; errors if not a partition."""
    for p in allocation:
        instance.player_index(p)
    seen: set[str] = set()
    for p, bundle in allocation.items():
        for r in bundle:
            instance.resource_index(r)
            if r in seen:
                raise NotAPartition(f"resource {r!r} assigned more than once")
            seen.add(r)
    missing = [r for r in instance.resources if r not in seen]
    if missing:
        raise NotAPartition(f"resources never assigned: {missing}")
    return min(
        bundle_value(instance, p, allocation.get(p, ())) for p in instance.players
    )
