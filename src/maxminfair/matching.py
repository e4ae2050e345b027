"""Local-search construction of a perfect matching in the bundle hypergraph.

Players are matched either to one fat resource or to a minimal bundle of thin
resources reaching the 6/23 threshold.  To match one more player the search
grows a chronological sequence of blockers: each blocker pairs a candidate
edge with the matching edges currently occupying its resources.  A blocker
with no blocking edges is contracted (its candidate enters the matching,
freeing an earlier blocking edge and truncating the sequence); otherwise a new
addable edge is built on top.  Only the top blocker can ever be removable: a
build appends a blocker only when none is removable, and a contraction pops
back to the activating blocker, the new top, and leaves the blockers below it
as they were; so the search reads the top and never scans the sequence.  The
analysis needs only some addable edge, so the search takes the first one in
the order `normalize` stored each player's resources.  The signature of the
blocker sequence strictly decreases lexicographically at every step, so each
extension terminates.

Each claim the search relies on is checked once, where it is relied on, and
a failure raises `VerificationFailed`, which `python -O` does not strip:
`extend_matching` checks the descent after every step, `build_step` that
every blocking edge activates a new player, and `contract_step` that the
contracted candidate's player has exactly one activator (it lies below the
top blocker, whose blocking set is empty).  `build_step` also re-checks, with
`NotAddable`, that each edge is addable and in the hypergraph, although
`find_addable_edge` built it to be: these checks stay, and are kept cheap
(set membership, `isdisjoint`, and one pass over the bundle's `int`
weights).  Likewise `Matching.with_edge` copies and extends its parent's
maps after checking the new edge against them, and `complete_allocation`
compares each bundle's `int` weight with the guarantee in weight units.

A search that halts with no addable edge and no removable blocker is returned
as a first-class Stuck outcome: it happens exactly when the target exceeds
the configuration-LP optimum, and the stuck state is the raw material for an
infeasibility certificate (see `certificates`).  A finished search keeps each
fact once: the final matching or the stuck state, and one record per step of
each extension run; the states and matchings of earlier runs are dropped.  A
record holds what the step changed: its kind, player, bundle and blocker, and
the one signature entry that moved (a build or contraction leaves the entries
below the top blocker as they were).  `TraceEvent`s, with sorted bundles and
whole signatures, are built from the records only when a trace is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .errors import (
    MatchingNotPerfect,
    NoRemovableBlocker,
    NotAddable,
    PlayerAlreadyMatched,
    VerificationFailed,
)
from .instances import GUARANTEE_FRACTION, Instance, NormalizedInstance, bundle_value

FAT = "fat"
THIN = "thin"

INFINITY = float("inf")


@dataclass(frozen=True)
class Edge:
    """A hyperedge: one fat resource, or a minimal thin bundle, for a player."""

    player: str
    bundle: frozenset[str]
    kind: str


@dataclass(frozen=True)
class Matching:
    """A set of edges sharing no player and no resource.

    `_by_player` maps each matched player to its edge and `_by_resource` each
    covered resource to the edge holding it, so `edge_of` and `sharing` look
    edges up instead of scanning them.  Both maps are built once, when the
    matching is, and are excluded from comparison, hashing and `repr`: two
    matchings are equal exactly when their `edges` are.
    """

    edges: frozenset[Edge]
    _by_player: dict[str, Edge] = field(init=False, repr=False, compare=False)
    _by_resource: dict[str, Edge] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_player, by_resource, size = {}, {}, 0
        for e in self.edges:
            by_player[e.player] = e
            for r in e.bundle:
                by_resource[r] = e
            size += len(e.bundle)
        if len(by_player) != len(self.edges):
            raise ValueError("matching edges share a player")
        if len(by_resource) != size:
            raise ValueError("matching edges share a resource")
        object.__setattr__(self, "_by_player", by_player)
        object.__setattr__(self, "_by_resource", by_resource)

    @classmethod
    def empty(cls) -> "Matching":
        return cls(edges=frozenset())

    @classmethod
    def of(cls, edges: Iterable[Edge]) -> "Matching":
        return cls(edges=frozenset(edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def players(self) -> frozenset[str]:
        return frozenset(self._by_player)

    def resources(self) -> frozenset[str]:
        return frozenset(self._by_resource)

    def edge_of(self, player: str) -> Optional[Edge]:
        return self._by_player.get(player)

    def sharing(self, bundle: frozenset[str]) -> list[Edge]:
        """The edges holding a resource of `bundle`, each once, in no fixed order."""
        owners = map(self._by_resource.get, bundle)
        return list({e.player: e for e in owners if e is not None}.values())

    def with_edge(self, edge: Edge) -> "Matching":
        """This matching plus `edge`: the maps are copied and extended, not
        rebuilt, after the same two checks `__post_init__` makes, player
        first.  An edge already in the matching gives an equal matching."""
        held = self._by_player.get(edge.player)
        if held == edge:
            return self
        if held is not None:
            raise ValueError("matching edges share a player")
        if not self._by_resource.keys().isdisjoint(edge.bundle):
            raise ValueError("matching edges share a resource")
        by_player = {**self._by_player, edge.player: edge}
        by_resource = {**self._by_resource, **dict.fromkeys(edge.bundle, edge)}
        grown = object.__new__(Matching)
        object.__setattr__(grown, "edges", self.edges | {edge})
        object.__setattr__(grown, "_by_player", by_player)
        object.__setattr__(grown, "_by_resource", by_resource)
        return grown

    def replace(self, old: Edge, new: Edge) -> "Matching":
        if old not in self.edges:
            raise ValueError("edge to replace is not in the matching")
        return Matching(edges=(self.edges - {old}) | {new})


@dataclass(frozen=True)
class Blocker:
    """A candidate edge plus the matching edges keeping it out.

    `blocking` lists the edges by player index: `build_step` sorts them, and
    `contract_step` only ever drops one, so the order is kept.
    """

    candidate: Edge
    blocking: tuple[Edge, ...]

    @property
    def removable(self) -> bool:
        return not self.blocking


class SearchState:
    """Mutable state of one extension run: matching, blockers, coverage.

    `covered`, the activation order and `active` (the same players as a set,
    for membership tests) are derived from the blocker sequence: a build
    extends them, a contraction rebuilds them from the kept blockers.
    `oracle.check_state_invariants` recomputes them from their definitions
    and compares.
    """

    def __init__(
        self,
        normalized: NormalizedInstance,
        matching: Matching,
        root_player: str,
    ):
        normalized.base.player_index(root_player)
        if matching.edge_of(root_player) is not None:
            raise PlayerAlreadyMatched(f"{root_player!r} is already matched")
        self.normalized = normalized
        self.matching = matching
        self.root_player = root_player
        self.blockers: list[Blocker] = []
        self.covered: set[str] = set()
        self.active_order: list[str] = [root_player]
        self.active: set[str] = {root_player}


def is_minimal_thin_edge(
    ni: NormalizedInstance, player: str, bundle: Iterable[str]
) -> bool:
    """True iff `bundle` is all-thin for the player, reaches the threshold,
    and every single removal drops below it.

    A desired resource is a known one, so ids are looked up only when the
    bundle is not all desired; an unknown id raises `UnknownResource`.  One
    pass sums the weights and finds the least: every removal drops below
    `bound` exactly when removing the least does.
    """
    bundle = frozenset(bundle)
    if not bundle <= ni.base.desired_by(player):
        for r in bundle:
            ni.base.resource_index(r)
        return False
    weight, bound = ni.base.weight, ni.bound
    total, least = 0, bound
    for r in bundle:
        w = weight[r]
        if not 0 < w < bound:
            return False
        total += w
        if w < least:
            least = w
    return bound <= total < bound + least


def edge_in_hypergraph(ni: NormalizedInstance, edge: Edge) -> bool:
    if edge.kind == FAT:
        return (
            len(edge.bundle) == 1
            and edge.bundle <= ni.fat_resources
            and edge.bundle <= ni.base.desire.get(edge.player, frozenset())
        )
    if edge.kind == THIN:
        return is_minimal_thin_edge(ni, edge.player, edge.bundle)
    return False


def find_addable_edge(ni: NormalizedInstance, state: SearchState) -> Optional[Edge]:
    """An edge for an active player avoiding every covered resource, or None.

    First fit: scan the active players in activation order; for each, take
    the first uncovered fat resource, otherwise the uncovered thin resources
    in stored order (descending value, ties by index) until they reach the
    threshold.  That bundle is minimal: the last resource taken is the
    smallest, and the total before it was below the threshold.  The scan
    returns None exactly when no addable edge exists.
    """
    covered = state.covered
    weight, bound = ni.base.weight, ni.bound
    for q in state.active_order:
        for r in ni.fat[q]:
            if r not in covered:
                return Edge(player=q, bundle=frozenset({r}), kind=FAT)
        chosen = []
        total = 0
        for r in ni.thin[q]:
            if r not in covered:
                chosen.append(r)
                total += weight[r]
                if total >= bound:
                    return Edge(player=q, bundle=frozenset(chosen), kind=THIN)
    return None


def build_step(state: SearchState, edge: Edge) -> SearchState:
    """Append the blocker for an addable edge; activates newly blocked players."""
    ni = state.normalized
    covered, active = state.covered, state.active
    if edge.player not in active:
        raise NotAddable(f"player {edge.player!r} is not active")
    if not edge.bundle.isdisjoint(covered):
        raise NotAddable(
            f"edge reuses covered resources {sorted(edge.bundle & covered)}"
        )
    if not edge_in_hypergraph(ni, edge):
        raise NotAddable(f"not an edge of the hypergraph: {edge}")
    blocking = state.matching.sharing(edge.bundle)
    if len(blocking) > 1:
        index = ni.base.player_index
        blocking.sort(key=lambda e: index(e.player))
    blocking = tuple(blocking)
    state.blockers.append(Blocker(candidate=edge, blocking=blocking))
    covered |= edge.bundle
    for e in blocking:
        covered |= e.bundle
        if e.player in active:
            raise VerificationFailed(
                f"blocking edge of {e.player!r}, who is already active"
            )
        state.active_order.append(e.player)
        active.add(e.player)
    return state


def contract_step(state: SearchState) -> Optional[Matching]:
    """Contract the top blocker, the only one that can be removable.

    A build appends a blocker only when none is removable, and a contraction
    leaves the blockers below its activating blocker untouched, so every
    blocker but the top keeps a blocking edge (`oracle.check_state_invariants`
    audits this).  Returns the final matching when the candidate matches the
    root player; otherwise swaps the candidate for the blocking edge that
    activated its player, truncates the sequence after the activating
    blocker, and returns None with the state updated in place.
    """
    if not state.blockers or not state.blockers[-1].removable:
        raise NoRemovableBlocker("the top blocker is missing or still blocked")
    candidate = state.blockers[-1].candidate
    q = candidate.player
    if q == state.root_player:
        return state.matching.with_edge(candidate)

    activators = [
        (j, e)
        for j, b in enumerate(state.blockers)
        for e in b.blocking
        if e.player == q
    ]
    if len(activators) != 1:
        raise VerificationFailed(
            f"active player {q!r} has {len(activators)} activators, not one"
        )
    j, freed = activators[0]
    state.matching = state.matching.replace(freed, candidate)
    kept = tuple(e for e in state.blockers[j].blocking if e is not freed)
    state.blockers[j] = Blocker(candidate=state.blockers[j].candidate, blocking=kept)
    del state.blockers[j + 1 :]
    covered, order, active = set(), [state.root_player], {state.root_player}
    for b in state.blockers:
        covered |= b.candidate.bundle
        for e in b.blocking:
            covered |= e.bundle
            order.append(e.player)
            active.add(e.player)
    state.covered, state.active_order, state.active = covered, order, active
    return None


def signature(state: SearchState) -> tuple:
    """Blocking-set sizes, then an infinite sentinel; tuples order lexicographically."""
    # Exact size: a tuple(<gen>) temporary would pin the tuple free lists.
    return (*[len(b.blocking) for b in state.blockers], INFINITY)


@dataclass(frozen=True)
class TraceEvent:
    """One step of an extension run, for logging and signature monitoring.

    Built by `replay_trace` from the step's record: `bundle` lists the
    resources in input order, and `signature` is the whole signature after
    the step (a terminate or stuck step leaves it as it was).
    """

    step: int
    kind: str  # build | contract | terminate | stuck
    player: Optional[str]
    bundle: tuple[str, ...]
    blocker_index: Optional[int]
    signature: tuple

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "player": self.player,
            "bundle": list(self.bundle),
            "blocker_index": self.blocker_index,
            "signature": ["inf" if e == INFINITY else e for e in self.signature],
        }


def replay_trace(
    ni: NormalizedInstance, records: Iterable[tuple]
) -> tuple[TraceEvent, ...]:
    """The events of one extension run, rebuilt from its step records.

    A record is (kind, player, bundle, blocker_index, depth, entry).  A build
    or contraction keeps the signature's first `depth` entries, sets the next
    to `entry` (the new top blocker's blocking-set size) and drops the rest;
    a terminate or stuck step (`depth` None) leaves the signature as it was.
    """
    sig = (INFINITY,)
    events = []
    for step, (kind, player, bundle, blocker_index, depth, entry) in enumerate(records):
        if depth is not None:
            sig = (*sig[:depth], entry, INFINITY)
        events.append(
            TraceEvent(
                step=step,
                kind=kind,
                player=player,
                bundle=tuple(ni.base.sorted_resources(bundle)),
                blocker_index=blocker_index,
                signature=sig,
            )
        )
    return tuple(events)


def trace_signatures(trace: Iterable[TraceEvent]) -> tuple[tuple, ...]:
    """Signature sequence of a run: initial state, then every state change
    (terminal events do not alter the blocker sequence)."""
    return ((INFINITY,),) + tuple(
        ev.signature for ev in trace if ev.kind in ("build", "contract")
    )


@dataclass(frozen=True)
class ExtendOutcome:
    """One extension run: its matching if extended, its final state, and one
    record per step (see `replay_trace`); `trace` rebuilds the events on
    every read and keeps none."""

    status: str  # extended | stuck
    matching: Optional[Matching]
    state: SearchState
    records: tuple[tuple, ...]

    @property
    def extended(self) -> bool:
        return self.status == "extended"

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        return replay_trace(self.state.normalized, self.records)

    @property
    def signatures(self) -> tuple[tuple, ...]:
        return trace_signatures(self.trace)


def extend_matching(
    ni: NormalizedInstance,
    matching: Matching,
    root_player: str,
    *,
    on_step: Optional[Callable[[SearchState], None]] = None,
) -> ExtendOutcome:
    """Grow `matching` by one edge so that `root_player` becomes matched.

    Alternates contraction (whenever the top blocker is removable, the only
    one that can be) with building an addable edge.  Returns Stuck with the
    halted state when neither move is available, which is possible only if
    the instance is infeasible at the normalized instance's target.
    `on_step` runs after every step, e.g. to audit invariants.
    """
    state = SearchState(ni, matching, root_player)
    records: list[tuple] = []
    last_sig = signature(state)

    while True:
        if state.blockers and state.blockers[-1].removable:
            top = len(state.blockers) - 1
            touched = state.blockers[top].candidate
            result = contract_step(state)
            bundle = tuple(touched.bundle)
            if result is not None:
                records.append(("terminate", touched.player, bundle, top, None, None))
                if on_step is not None:
                    on_step(state)
                return ExtendOutcome("extended", result, state, tuple(records))
            depth = len(state.blockers) - 1
            entry = len(state.blockers[depth].blocking)
            records.append(("contract", touched.player, bundle, top, depth, entry))
        else:
            edge = find_addable_edge(ni, state)
            if edge is None:
                records.append(("stuck", None, (), None, None, None))
                return ExtendOutcome("stuck", None, state, tuple(records))
            build_step(state, edge)
            depth = len(state.blockers) - 1
            entry = len(state.blockers[depth].blocking)
            records.append(("build", edge.player, tuple(edge.bundle), depth, depth, entry))
        if on_step is not None:
            on_step(state)
        # Progress guard: every step strictly drops the signature, so the
        # run halts.
        sig = signature(state)
        if not sig < last_sig:
            raise VerificationFailed(
                f"signature did not decrease at step {len(records) - 1}: "
                f"{last_sig} -> {sig}"
            )
        last_sig = sig


@dataclass(frozen=True)
class SearchOutcome:
    """The final matching (if perfect) or the stuck state, and the step
    records of each extension run, in player order.  `traces` rebuilds the
    events from the records on every read, sorting bundles by `normalized`;
    `builds` and `contracts` count the records."""

    status: str  # perfect | stuck
    matching: Optional[Matching]
    state: Optional[SearchState]
    normalized: NormalizedInstance
    records: tuple[tuple[tuple, ...], ...]

    @property
    def perfect(self) -> bool:
        return self.status == "perfect"

    @property
    def traces(self) -> tuple[tuple[TraceEvent, ...], ...]:
        return tuple(replay_trace(self.normalized, run) for run in self.records)

    @property
    def builds(self) -> int:
        return sum(rec[0] == "build" for run in self.records for rec in run)

    @property
    def contracts(self) -> int:
        return sum(
            rec[0] in ("contract", "terminate") for run in self.records for rec in run
        )


def find_perfect_matching(
    ni: NormalizedInstance,
    *,
    on_step: Optional[Callable[[SearchState], None]] = None,
) -> SearchOutcome:
    """Match every player by repeated extension, or surface the first Stuck state."""
    matching = Matching.empty()
    records = []
    for p in ni.base.players:
        outcome = extend_matching(ni, matching, p, on_step=on_step)
        records.append(outcome.records)
        if not outcome.extended:
            return SearchOutcome("stuck", None, outcome.state, ni, tuple(records))
        matching = outcome.matching
    return SearchOutcome("perfect", matching, None, ni, tuple(records))


def complete_allocation(
    instance: Instance, matching: Matching, target: Fraction
) -> dict[str, set[str]]:
    """Turn a matching into a full partition of the resources.

    Every player keeps their matched bundle, which must be worth at least
    6/23 of the target (an unmatched player's empty bundle is worth 0, so at
    target 0 any matching, the empty one included, completes); each leftover
    resource goes to the lowest-index player desiring it, or to the first
    player when nobody does.  Bundles are compared in `instance.weight`
    units, against ⌈(6/23)·target·scale⌉, the guarantee in those units.
    """
    target = Fraction(target)
    threshold = GUARANTEE_FRACTION * target * instance.scale
    bound = -(-threshold.numerator // threshold.denominator)
    weight = instance.weight
    allocation: dict[str, set[str]] = {p: set() for p in instance.players}
    for p in instance.players:
        e = matching.edge_of(p)
        bundle = frozenset() if e is None else e.bundle
        desired = instance.desired_by(p)
        total = 0
        for r in bundle:
            if r in desired:
                total += weight[r]
            else:
                instance.resource_index(r)
        if total < bound:
            worth = bundle_value(instance, p, bundle)
            raise MatchingNotPerfect(
                f"bundle for {p!r} is worth {worth}, below the "
                f"guarantee at target {target}"
            )
        allocation[p] |= bundle

    # Lowest-index desirer of each resource: later writes win, so write in
    # reverse input order.
    owner = {}
    for p in reversed(instance.players):
        owner.update(dict.fromkeys(instance.desire.get(p, ()), p))
    taken = matching.resources()
    for r in instance.resources:
        if r not in taken:
            allocation[owner.get(r, instance.players[0])].add(r)
    return allocation
