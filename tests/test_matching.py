import gc
import random
import textwrap
import types
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maxminfair import (
    GUARANTEE_FRACTION,
    bundle_value,
    complete_allocation,
    compute_T_star,
    find_perfect_matching,
    generate_instance,
    normalize,
    verify_allocation,
)
import maxminfair.matching as matching_module
from maxminfair.errors import (
    MatchingNotPerfect,
    NoRemovableBlocker,
    NotAddable,
    PlayerAlreadyMatched,
    UnknownResource,
    VerificationFailed,
)
from maxminfair.generators import KINDS
from maxminfair.matching import (
    FAT,
    INFINITY,
    THIN,
    Blocker,
    Edge,
    Matching,
    SearchState,
    TraceEvent,
    build_step,
    contract_step,
    edge_in_hypergraph,
    extend_matching,
    find_addable_edge,
    is_minimal_thin_edge,
    signature,
    trace_signatures,
)
from maxminfair.oracle import check_state_invariants, monitor_signatures

from conftest import make_instance, run_python_optimize

F = Fraction


def fat_edge(player, resource):
    return Edge(player=player, bundle=frozenset({resource}), kind=FAT)


def thin_edge(player, *resources):
    return Edge(player=player, bundle=frozenset(resources), kind=THIN)


def random_addable_edge(ni, state, rng):
    """Some addable edge, drawn at random: an uncovered fat resource of an
    active player, or uncovered thin ones taken in shuffled order until they
    reach the threshold, then trimmed in ascending value to a minimal bundle."""
    edges = []
    for q in state.active_order:
        edges += [fat_edge(q, r) for r in ni.fat[q] if r not in state.covered]
        thin = [r for r in ni.thin[q] if r not in state.covered]
        rng.shuffle(thin)
        chosen, total = [], F(0)
        while thin and total < GUARANTEE_FRACTION:
            chosen.append(thin.pop())
            total += ni.value(chosen[-1])
        if total >= GUARANTEE_FRACTION:
            for r in sorted(chosen, key=ni.value):
                if total - ni.value(r) >= GUARANTEE_FRACTION:
                    chosen.remove(r)
                    total -= ni.value(r)
            edges.append(thin_edge(q, *chosen))
    return rng.choice(edges) if edges else None


def random_search(ni, rng, on_step=None):
    """`find_perfect_matching` with a random addable edge at every build,
    driven through `build_step` and `contract_step`.  Returns the matching
    (None if the search halts) and each extension's signature sequence."""
    matching = Matching.empty()
    runs = []
    for p in ni.base.players:
        state = SearchState(ni, matching, p)
        runs.append([signature(state)])
        while True:
            if any(b.removable for b in state.blockers):
                extended = contract_step(state)
                if extended is not None:
                    matching = extended
                    break
            else:
                edge = random_addable_edge(ni, state, rng)
                if edge is None:
                    return None, runs
                build_step(state, edge)
            if on_step is not None:
                on_step(state)
            runs[-1].append(signature(state))
    return matching, runs


class TestMinimalThinEdge:
    def test_boundary_pair(self):
        inst = make_instance({"a": "3/23", "b": "3/23"}, {"p": ["a", "b"]})
        ni = normalize(inst, F(1))
        assert is_minimal_thin_edge(ni, "p", {"a", "b"})

    def test_three_tenths(self):
        inst = make_instance(
            {"a": "1/10", "b": "1/10", "c": "1/10"}, {"p": ["a", "b", "c"]}
        )
        ni = normalize(inst, F(1))
        # 3/10 >= 6/23 while any two give 1/5 < 6/23.
        assert F(3, 10) >= F(6, 23) and F(1, 5) < F(6, 23)
        assert is_minimal_thin_edge(ni, "p", {"a", "b", "c"})

    def test_four_tenths_not_minimal(self):
        ids = ["a", "b", "c", "d"]
        inst = make_instance({r: "1/10" for r in ids}, {"p": ids})
        ni = normalize(inst, F(1))
        assert not is_minimal_thin_edge(ni, "p", set(ids))

    def test_fat_resource_disqualifies(self):
        inst = make_instance({"a": "1", "b": "1/10"}, {"p": ["a", "b"]})
        ni = normalize(inst, F(1))
        assert not is_minimal_thin_edge(ni, "p", {"a", "b"})
        assert not edge_in_hypergraph(ni, thin_edge("p", "a", "b"))
        assert not edge_in_hypergraph(ni, fat_edge("p", "b"))
        assert edge_in_hypergraph(ni, fat_edge("p", "a"))

    def test_below_threshold(self):
        inst = make_instance({"a": "1/10"}, {"p": ["a"]})
        ni = normalize(inst, F(1))
        assert not is_minimal_thin_edge(ni, "p", {"a"})
        assert not is_minimal_thin_edge(ni, "p", set())

    def test_matches_the_definition_on_random_bundles(self):
        # Values in 60ths against targets in 7ths, so the weights carry a
        # scale above 1; zero values, fat values and exact threshold sums occur.
        rng = random.Random(25)
        seen = {True: 0, False: 0}
        for _ in range(150):
            ids = [f"r{i}" for i in range(rng.randint(1, 9))]
            values = {r: F(rng.choice([0, 1, 3, 5, 8, 13, 20, 60]), 60) for r in ids}
            desires = {p: rng.sample(ids, rng.randint(0, len(ids))) for p in ("p", "q")}
            inst = make_instance(values, desires)
            target = F(rng.randint(1, 21), 7)
            ni = normalize(inst, target)
            for p in desires:
                thin = [r for r in desires[p] if 0 < values[r] < GUARANTEE_FRACTION * target]
                greedy, total = [], 0
                for r in sorted(thin, key=values.get, reverse=True):
                    if total >= GUARANTEE_FRACTION * target:
                        break
                    greedy.append(r)
                    total += values[r]
                bundles = [frozenset(), frozenset(greedy), frozenset(desires[p])]
                bundles += [frozenset(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(6)]
                bundles += [frozenset(rng.sample(thin, rng.randint(0, len(thin)))) for _ in range(6)]
                for bundle in bundles:
                    expected = minimal_by_definition(inst, target, p, bundle)
                    assert is_minimal_thin_edge(ni, p, bundle) == expected
                    seen[expected] += 1
                    with pytest.raises(UnknownResource):
                        is_minimal_thin_edge(ni, p, bundle | {"ghost"})
        assert seen[True] > 100 and seen[False] > 1000


def minimal_by_definition(inst, target, player, bundle):
    """`is_minimal_thin_edge` from its definition, in `Fraction` values:
    every member desired and thin, the total reaches the threshold, and every
    single removal drops below it."""
    threshold = GUARANTEE_FRACTION * target
    if not bundle or not bundle <= inst.desired_by(player):
        return False
    if not all(0 < inst.value[r] < threshold for r in bundle):
        return False
    total = sum(inst.value[r] for r in bundle)
    return total >= threshold and all(total - inst.value[r] < threshold for r in bundle)


class TestFindAddableEdge:
    def test_initial_fat(self, two_fat):
        ni = normalize(two_fat, F(1))
        state = SearchState(ni, Matching.empty(), "p1")
        assert find_addable_edge(ni, state) == fat_edge("p1", "a")

    def test_everything_covered_gives_none(self, shared_single):
        ni = normalize(shared_single, F(1))
        state = SearchState(ni, Matching.of([fat_edge("p1", "r")]), "p2")
        build_step(state, fat_edge("p2", "r"))
        assert find_addable_edge(ni, state) is None

    def test_thin_greedy_stops_at_two(self):
        inst = make_instance(
            {"a": "3/23", "b": "3/23", "c": "3/23"}, {"p": ["a", "b", "c"]}
        )
        ni = normalize(inst, F(1))
        state = SearchState(ni, Matching.empty(), "p")
        edge = find_addable_edge(ni, state)
        assert edge == thin_edge("p", "a", "b")

    def test_ties_and_exact_threshold(self):
        # Values in 23rds: a=1, b=2, c=2, d=2, e=2.  The stored order is
        # b, c, d, e, a (ties by index), and b + c + d lands exactly on 6/23.
        values = {"a": "1/23", "b": "2/23", "c": "2/23", "d": "2/23", "e": "2/23"}
        inst = make_instance(values, {"p": list(values)})
        ni = normalize(inst, F(1))
        assert ni.thin["p"] == ("b", "c", "d", "e", "a")
        edge = find_addable_edge(ni, SearchState(ni, Matching.empty(), "p"))
        assert edge == thin_edge("p", "b", "c", "d")
        assert is_minimal_thin_edge(ni, "p", edge.bundle)
        # In index order a, b, c, d would pass the threshold without being
        # minimal.  With b covered the scan skips it and takes c, d, e.
        state = SearchState(ni, Matching.empty(), "p")
        state.covered.add("b")
        edge = find_addable_edge(ni, state)
        assert edge == thin_edge("p", "c", "d", "e")
        assert is_minimal_thin_edge(ni, "p", edge.bundle)


# Values and targets with denominators up to 10^6.  A target drawn from the
# boundary list puts a single value or a pair exactly on 6/23 of it.
wide_values = st.fractions(min_value=0, max_value=3, max_denominator=10**6)
wide_targets = st.fractions(min_value=F(1, 10**6), max_value=4, max_denominator=10**6)


@given(st.data())
def test_classification_at_any_target(data):
    """Fat/thin membership, `is_minimal_thin_edge` and the first-fit edge
    agree with their definitions over the values v/T against 6/23."""
    n = data.draw(st.integers(1, 7), label="resources")
    resources = [f"r{j}" for j in range(n)]
    values = {r: data.draw(wide_values, label=r) for r in resources}
    players = [f"p{i}" for i in range(data.draw(st.integers(1, 3), label="players"))]
    desires = {p: sorted(data.draw(st.sets(st.sampled_from(resources)), label=p)) for p in players}
    inst = make_instance(values, desires, players=players)
    positive = sorted({v for v in values.values() if v > 0})
    boundary = [(a + b) / GUARANTEE_FRACTION for a in positive for b in [F(0)] + positive]
    target = data.draw(
        st.one_of(wide_targets, st.sampled_from(boundary)) if boundary else wide_targets,
        label="target",
    )
    ni = normalize(inst, target)
    unit = {r: v / target for r, v in values.items()}

    def is_fat(r):
        return unit[r] >= GUARANTEE_FRACTION

    def is_thin(r):
        return 0 < unit[r] < GUARANTEE_FRACTION

    for p in players:
        wanted = inst.desired_by(p)
        assert set(ni.fat[p]) == {r for r in wanted if is_fat(r)}
        assert set(ni.thin[p]) == {r for r in wanted if is_thin(r)}
        bundle = data.draw(st.sets(st.sampled_from(resources)), label=f"bundle of {p}")
        total = sum((unit[r] for r in bundle), F(0))
        minimal = (
            bool(bundle)
            and all(r in wanted and is_thin(r) for r in bundle)
            and total >= GUARANTEE_FRACTION
            and total - min(unit[r] for r in bundle) < GUARANTEE_FRACTION
        )
        assert is_minimal_thin_edge(ni, p, bundle) == minimal

    state = SearchState(ni, Matching.empty(), players[0])
    state.active_order = data.draw(st.permutations(players), label="active order")
    state.covered = data.draw(st.sets(st.sampled_from(resources)), label="covered")
    expected = None
    for q in state.active_order:
        free = [r for r in inst.desired_by(q) if r not in state.covered]
        fat = sorted((r for r in free if is_fat(r)), key=inst.resource_index)
        if fat:
            expected = fat_edge(q, fat[0])
            break
        chosen, total = [], F(0)
        for r in sorted(
            (r for r in free if is_thin(r)), key=lambda r: (-unit[r], inst.resource_index(r))
        ):
            chosen.append(r)
            total += unit[r]
            if total >= GUARANTEE_FRACTION:
                expected = thin_edge(q, *chosen)
                break
        if expected is not None:
            break
    assert find_addable_edge(ni, state) == expected


class TestBuildStep:
    def test_blocked_build_activates(self, shared_single):
        ni = normalize(shared_single, F(1))
        state = SearchState(ni, Matching.of([fat_edge("p1", "r")]), "p2")
        build_step(state, fat_edge("p2", "r"))
        assert state.blockers[0].blocking == (fat_edge("p1", "r"),)
        assert state.active_order == ["p2", "p1"]
        assert state.covered == {"r"}

    def test_unblocked_build(self, two_fat):
        ni = normalize(two_fat, F(1))
        state = SearchState(ni, Matching.empty(), "p1")
        build_step(state, fat_edge("p1", "a"))
        assert state.blockers[0].removable

    def test_covered_resource_rejected(self, two_fat):
        ni = normalize(two_fat, F(1))
        state = SearchState(ni, Matching.empty(), "p1")
        build_step(state, fat_edge("p1", "a"))
        with pytest.raises(NotAddable):
            build_step(state, fat_edge("p1", "a"))

    def test_inactive_player_rejected(self, two_fat):
        ni = normalize(two_fat, F(1))
        state = SearchState(ni, Matching.empty(), "p1")
        with pytest.raises(NotAddable):
            build_step(state, fat_edge("p2", "b"))


class TestContractStep:
    def test_terminates_on_root(self, two_fat):
        ni = normalize(two_fat, F(1))
        state = SearchState(ni, Matching.empty(), "p1")
        build_step(state, fat_edge("p1", "b"))
        result = contract_step(state)
        assert result is not None
        assert result.edge_of("p1") == fat_edge("p1", "b")

    def test_no_removable_blocker(self, shared_single):
        ni = normalize(shared_single, F(1))
        state = SearchState(ni, Matching.of([fat_edge("p1", "r")]), "p2")
        build_step(state, fat_edge("p2", "r"))
        with pytest.raises(NoRemovableBlocker):
            contract_step(state)

    def test_swap_and_truncate(self, thin_chain):
        ni = normalize(thin_chain, F(1))
        blocked = thin_edge("p1", "t1", "t2")
        state = SearchState(ni, Matching.of([blocked]), "p2")
        build_step(state, thin_edge("p2", "t1", "t2"))
        build_step(state, thin_edge("p1", "t3", "t4"))
        result = contract_step(state)
        assert result is None
        assert state.matching.edge_of("p1") == thin_edge("p1", "t3", "t4")
        assert len(state.blockers) == 1
        assert state.blockers[0].blocking == ()
        assert state.active_order == ["p2"]
        assert state.covered == {"t1", "t2"}

    def test_two_activators_raise(self, two_fat):
        # Hand-built: p2's edge blocks two blockers, so contracting p2's
        # candidate has no unique edge to free.
        ni = normalize(two_fat, F(1))
        held = fat_edge("p2", "a")
        state = SearchState(ni, Matching.of([held]), "p1")
        state.blockers = [
            Blocker(candidate=fat_edge("p1", "a"), blocking=(held,)),
            Blocker(candidate=fat_edge("p1", "b"), blocking=(held,)),
            Blocker(candidate=fat_edge("p2", "b"), blocking=()),
        ]
        with pytest.raises(VerificationFailed, match="2 activators"):
            contract_step(state)


class TestSignature:
    def test_empty(self, two_fat):
        ni = normalize(two_fat, F(1))
        state = SearchState(ni, Matching.empty(), "p1")
        assert signature(state) == (INFINITY,)

    def test_build_decreases(self, shared_single):
        ni = normalize(shared_single, F(1))
        state = SearchState(ni, Matching.of([fat_edge("p1", "r")]), "p2")
        before = signature(state)
        build_step(state, fat_edge("p2", "r"))
        after = signature(state)
        assert after == (1, INFINITY)
        assert after < before

    def test_decrement_decreases(self):
        assert (0, INFINITY) < (1, INFINITY)
        assert (1, INFINITY) < (INFINITY,)

    def test_progress_guard_survives_python_optimize(self):
        # A signature that never drops must stop the search, not loop it.
        script = textwrap.dedent(
            """
            from maxminfair import find_perfect_matching, matching, normalize
            from maxminfair import validate_instance
            from maxminfair.errors import VerificationFailed

            assert not __debug__, "expected python -O"
            matching.signature = lambda state: (matching.INFINITY,)
            inst = validate_instance({
                "players": ["p1", "p2"],
                "resources": [{"id": "a", "value": "1"}, {"id": "b", "value": "1"}],
                "desires": {"p1": ["a", "b"], "p2": ["a", "b"]},
            })
            try:
                find_perfect_matching(normalize(inst, 1))
            except VerificationFailed:
                print("VerificationFailed")
            else:
                print("accepted")
            """
        )
        proc = run_python_optimize("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "VerificationFailed"


class TestExtendMatching:
    def test_two_fat_extension(self, two_fat):
        ni = normalize(two_fat, F(1))
        out = extend_matching(ni, Matching.of([fat_edge("p1", "a")]), "p2")
        assert out.extended
        assert out.matching.edge_of("p2") == fat_edge("p2", "b")
        assert out.matching.edge_of("p1") == fat_edge("p1", "a")

    def test_stuck_on_shared_single(self, shared_single):
        ni = normalize(shared_single, F(1))
        out = extend_matching(ni, Matching.of([fat_edge("p1", "r")]), "p2")
        assert out.status == "stuck"
        assert [b.candidate for b in out.state.blockers] == [fat_edge("p2", "r")]
        assert out.state.blockers[0].blocking == (fat_edge("p1", "r"),)

    def test_empty_matching_one_build_one_contract(self, two_fat):
        ni = normalize(two_fat, F(1))
        out = extend_matching(ni, Matching.empty(), "p1")
        assert out.extended
        assert [ev.kind for ev in out.trace] == ["build", "terminate"]

    def test_already_matched_rejected(self, two_fat):
        ni = normalize(two_fat, F(1))
        with pytest.raises(PlayerAlreadyMatched):
            extend_matching(ni, Matching.of([fat_edge("p1", "a")]), "p1")

    def test_matched_players_stay_matched(self):
        for seed in range(6):
            inst = generate_instance("uniform", 4, 8, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            ni = normalize(inst, t_star)
            matching = Matching.empty()
            for p in inst.players:
                out = extend_matching(ni, matching, p)
                assert out.extended
                before = matching.players()
                matching = out.matching
                assert before | {p} == matching.players()
                assert len(matching) == len(before) + 1


class TestFindPerfectMatching:
    def test_two_fat(self, two_fat):
        ni = normalize(two_fat, F(1))
        out = find_perfect_matching(ni)
        assert out.perfect and len(out.matching) == 2

    def test_ten_thin_single_player(self, ten_thin):
        ni = normalize(ten_thin, F(1))
        out = find_perfect_matching(ni)
        assert out.perfect
        (edge,) = out.matching
        assert edge.kind == THIN
        assert edge.bundle == frozenset({"r1", "r2", "r3"})

    def test_shared_single_stuck(self, shared_single):
        ni = normalize(shared_single, F(1))
        out = find_perfect_matching(ni)
        assert out.status == "stuck"

    def test_random_policy_still_succeeds(self):
        differs = False
        for seed in range(5):
            inst = generate_instance("uniform", 4, 8, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            ni = normalize(inst, t_star)
            matching, _ = random_search(ni, random.Random(seed))
            assert matching is not None
            assert matching.players() == frozenset(inst.players)
            repeat, _ = random_search(ni, random.Random(seed))
            assert repeat == matching
            differs |= matching != find_perfect_matching(ni).matching
        assert differs  # the draws leave the first-fit policy's path

    def test_random_policy_respects_invariants(self):
        for seed in range(8):
            inst = generate_instance("clustered-desire", 5, 9, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            ni = normalize(inst, t_star)

            def audit(state):
                report = check_state_invariants(ni, state)
                assert report.passed, report.violations

            matching, runs = random_search(ni, random.Random(seed * 31), audit)
            assert matching is not None
            for signatures in runs:
                assert monitor_signatures(signatures, inst.num_players).passed


def reachable(root):
    """Every object reachable from `root` through `gc.get_referents`, short
    of types, modules and functions (they lead to the whole program)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestRetainedOutcome:
    """A finished search keeps the final matching or the stuck state, and the
    step records of each extension run: nothing else of the runs before, and
    no trace event."""

    def test_outcome_holds_one_state_and_the_traces(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(args[2])
            return extend_matching(*args, **kwargs)

        monkeypatch.setattr(matching_module, "extend_matching", counted)
        statuses = set()
        for seed in range(6):
            inst = generate_instance("uniform", 5, 12, seed)
            t_star = compute_T_star(inst)
            for k in (1, 3):
                runs.clear()
                out = find_perfect_matching(normalize(inst, k * t_star))
                statuses.add(out.status)
                assert len(out.traces) == len(runs) >= 1
                found = reachable(out)
                states = [o for o in found if isinstance(o, SearchState)]
                matchings = [o for o in found if isinstance(o, Matching)]
                assert not any(isinstance(o, TraceEvent) for o in found)
                if out.perfect:
                    assert states == [] and len(matchings) == 1
                    assert matchings[0] is out.matching
                    assert len(runs) == inst.num_players
                else:
                    assert len(states) == 1 and states[0] is out.state
                    assert len(matchings) == 1 and matchings[0] is out.state.matching
                    assert runs[-1] == out.state.root_player
        assert statuses == {"perfect", "stuck"}


class TestReplayedTrace:
    """Events are rebuilt from the step records on every read, and carry the
    signatures the search saw."""

    def test_replayed_signatures_are_the_searched_ones(self):
        statuses = set()
        for kind in KINDS:
            for players, resources in ((6, 14), (12, 30), (30, 80)):
                inst = generate_instance(kind, players, resources, 1)
                for f in (F(1, 8), F(1, 2), F(1), F(2)):
                    ni = normalize(inst, ceiling(inst) * f)
                    seen = {}

                    def capture(state):
                        runs = seen.setdefault(state.root_player, [])
                        runs.append(signature(state))

                    out = find_perfect_matching(ni, on_step=capture)
                    statuses.add(out.status)
                    traces = out.traces
                    assert traces == out.traces
                    runs = players if out.perfect else inst.players.index(out.state.root_player) + 1
                    assert len(traces) == runs
                    for root, trace in zip(inst.players, traces):
                        captured = seen.get(root, [])
                        last = trace[-1]
                        if last.kind == "stuck":
                            # `on_step` does not run after a stuck step.
                            captured.append(signature(out.state))
                        assert [ev.signature for ev in trace] == captured
                        # A terminal step leaves the blocker sequence as it was.
                        assert last.kind in ("terminate", "stuck")
                        before = trace[-2].signature if len(trace) > 1 else (INFINITY,)
                        assert last.signature == before
                        assert trace_signatures(trace) == ((INFINITY,), *captured[:-1])
        assert statuses == {"perfect", "stuck"}

    def test_bundles_are_sorted_on_read_and_reads_agree(self):
        inst = generate_instance("fat-thin-mix", 12, 30, 2)
        ni = normalize(inst, ceiling(inst) / 4)
        out = extend_matching(ni, Matching.empty(), inst.players[0])
        assert out.trace == out.trace
        for ev, record in zip(out.trace, out.records, strict=True):
            assert list(ev.bundle) == sorted(record[2], key=inst.resource_index)
        search = find_perfect_matching(ni)
        assert search.traces[0] == out.trace


class TestBlockingOrder:
    def test_audited_blockers_with_several_blocking_edges(self):
        # A blocker's blocking edges are kept in player order, and the
        # activation order follows them; the audit re-sorts them itself, so
        # a misordered tuple shows up only where a blocker has two or more.
        several = 0
        for seed in range(5):
            inst = generate_instance("fat-thin-mix", 10, 30, seed)
            top = min(bundle_value(inst, p, inst.desired_by(p)) for p in inst.players)
            for k in (2, 4):
                ni = normalize(inst, top / k)

                def audit(state):
                    nonlocal several
                    report = check_state_invariants(ni, state)
                    assert report.passed, report.violations
                    several += any(len(b.blocking) > 1 for b in state.blockers)

                find_perfect_matching(ni, on_step=audit)
        assert several > 0


def ceiling(inst):
    """The smallest total desired value of a player."""
    return min(bundle_value(inst, p, inst.desired_by(p)) for p in inst.players)


def assert_index_is_the_scan(matching, players, bundles):
    """Every lookup of `matching` equals the scan of its edges it replaces."""
    edges = matching.edges
    for p in players:
        assert matching.edge_of(p) == next((e for e in edges if e.player == p), None)
    for bundle in bundles:
        shared = matching.sharing(bundle)
        assert len(shared) == len(set(shared))
        assert set(shared) == {e for e in edges if e.bundle & bundle}
    assert matching.players() == frozenset(e.player for e in edges)
    assert matching.resources() == frozenset(r for e in edges for r in e.bundle)


def random_matching(rng, num_players, num_resources):
    """Disjoint random edges over p0.. and r0..; returns the matching and the
    resources left free."""
    free = [f"r{i}" for i in range(num_resources)]
    rng.shuffle(free)
    edges = []
    for p in rng.sample(range(num_players), rng.randint(0, num_players)):
        k = rng.randint(1, 3)
        if len(free) < k:
            break
        bundle, free = free[:k], free[k:]
        edges.append(Edge(f"p{p}", frozenset(bundle), FAT if k == 1 else THIN))
    return Matching.of(edges), free


def probe_bundles(rng, resources, matching):
    """Bundles to ask `sharing` about: each edge's, each single resource, the
    empty one, one with an unknown resource, and random subsets."""
    resources = sorted(resources)
    bundles = [e.bundle for e in matching] + [frozenset({r}) for r in resources]
    bundles += [frozenset(), frozenset({"unknown", *resources[:1]})]
    bundles += [
        frozenset(rng.sample(resources, rng.randint(1, len(resources))))
        for _ in range(10)
    ]
    return bundles


class TestMatchingIndex:
    """The player and resource maps answer exactly what a scan of the edges
    would, and leave equality, hashing and `repr` to `edges`."""

    def test_random_disjoint_edges(self):
        rng = random.Random(18)
        for _ in range(200):
            n, m = rng.randint(1, 12), rng.randint(1, 30)
            matching, _ = random_matching(rng, n, m)
            players = [f"p{i}" for i in range(n + 1)]
            bundles = probe_bundles(rng, [f"r{i}" for i in range(m)], matching)
            assert_index_is_the_scan(matching, players, bundles)

    def test_after_with_edge_and_replace(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(200):
            n, m = rng.randint(2, 10), rng.randint(4, 30)
            matching, free = random_matching(rng, n, m)
            players = [f"p{i}" for i in range(n)]
            unmatched = [p for p in players if matching.edge_of(p) is None]
            if len(free) < 2 or not unmatched or not len(matching):
                continue
            added = matching.with_edge(Edge(unmatched[0], frozenset(free[:1]), FAT))
            old = rng.choice(sorted(matching, key=lambda e: e.player))
            moved = Edge(old.player, frozenset(free[1:3]) | {min(old.bundle)}, THIN)
            replaced = added.replace(old, moved)
            assert replaced.edge_of(old.player) == moved
            resources = [f"r{i}" for i in range(m)]
            for result in (matching, added, replaced):
                bundles = probe_bundles(rng, resources, result)
                assert_index_is_the_scan(result, players, bundles)
            checked += 1
        assert checked > 50

    def test_matchings_of_finished_and_running_searches(self):
        rng = random.Random(3)
        statuses = set()
        for kind in KINDS:
            for seed in range(3):
                inst = generate_instance(kind, 8, 20, seed)
                bundles = probe_bundles(rng, inst.resources, Matching.empty())
                for k in (1, 4):
                    ni = normalize(inst, ceiling(inst) / k)

                    def check(state):
                        assert_index_is_the_scan(state.matching, inst.players, bundles)

                    out = find_perfect_matching(ni, on_step=check)
                    statuses.add(out.status)
                    final = out.matching if out.perfect else out.state.matching
                    assert_index_is_the_scan(
                        final, inst.players, bundles + [e.bundle for e in final]
                    )
        assert statuses == {"perfect", "stuck"}

    def test_shared_player_or_resource_raises(self):
        with pytest.raises(ValueError, match="share a player"):
            Matching.of([fat_edge("p1", "a"), fat_edge("p1", "b")])
        with pytest.raises(ValueError, match="share a resource"):
            Matching.of([fat_edge("p1", "a"), thin_edge("p2", "a", "b")])
        base = Matching.of([fat_edge("p1", "a"), fat_edge("p2", "b")])
        with pytest.raises(ValueError, match="share a player"):
            base.with_edge(fat_edge("p1", "c"))
        with pytest.raises(ValueError, match="share a resource"):
            base.with_edge(fat_edge("p3", "b"))
        with pytest.raises(ValueError, match="share a resource"):
            base.replace(fat_edge("p1", "a"), fat_edge("p1", "b"))

    def test_with_edge_copies_the_parent_maps(self):
        edges = [fat_edge("p1", "a"), thin_edge("p2", "b", "c")]
        parent = Matching.of(edges)
        maps = (dict(parent._by_player), dict(parent._by_resource))
        assert parent.with_edge(edges[1]) == parent
        grown = parent.with_edge(thin_edge("p3", "d", "e"))
        assert grown == Matching.of(edges + [thin_edge("p3", "d", "e")])
        assert_index_is_the_scan(grown, ["p1", "p2", "p3"], [frozenset("abcde")])
        assert (parent._by_player, parent._by_resource) == maps
        assert_index_is_the_scan(parent, ["p1", "p2", "p3"], [frozenset("abcde")])
        # An edge sharing a player and a resource is reported by its player,
        # as `__post_init__` reports it.
        for clash in (fat_edge("p1", "b"), thin_edge("p2", "a", "b")):
            with pytest.raises(ValueError, match="share a player"):
                parent.with_edge(clash)
            with pytest.raises(ValueError, match="share a player"):
                Matching.of(edges + [clash])
        assert (parent._by_player, parent._by_resource) == maps

    def test_equal_edges_equal_hash_and_repr(self):
        edges = [fat_edge("p1", "a"), thin_edge("p2", "b", "c"), fat_edge("p3", "d")]
        one = Matching.of(edges)
        two = Matching.of(reversed(edges))
        three = Matching.empty()
        for e in edges:
            three = three.with_edge(e)
        four = three.replace(edges[0], fat_edge("p1", "e")).replace(
            fat_edge("p1", "e"), edges[0]
        )
        for other in (two, three, four):
            assert other == one and hash(other) == hash(one)
            assert repr(other) == f"Matching(edges={other.edges!r})"
        assert repr(Matching(edges=one.edges)) == repr(one)
        assert len({one, two, three, four}) == 1
        assert one != one.with_edge(fat_edge("p4", "e"))


class TestCompleteAllocation:
    def test_leftovers_to_first_desiring_player(self):
        inst = make_instance(
            {"a": "1", "b": "1", "c": "1/2"},
            {"p1": ["a"], "p2": ["b", "c"], "p3": ["b", "c"]},
            players=["p1", "p2", "p3"],
        )
        matching = Matching.of(
            [fat_edge("p1", "a"), fat_edge("p2", "b"), fat_edge("p3", "c")]
        )
        allocation = complete_allocation(inst, matching, F(1, 2))
        assert allocation == {"p1": {"a"}, "p2": {"b"}, "p3": {"c"}}

        inst2 = make_instance(
            {"a": "1", "b": "1", "x": "1/3"},
            {"p1": ["a"], "p2": ["b", "x"], "p3": ["b", "x"]},
            players=["p1", "p2", "p3"],
        )
        matching2 = Matching.of(
            [fat_edge("p1", "a"), fat_edge("p2", "b"), fat_edge("p3", "x")]
        )
        allocation2 = complete_allocation(inst2, matching2, F(1, 3))
        assert allocation2["p2"] == {"b"}  # x already matched to p3

    def test_leftover_desired_by_nobody_goes_to_first_player(self, two_fat):
        inst = make_instance(
            {"a": "1", "b": "1", "junk": "1/5"},
            {"p1": ["a", "b"], "p2": ["a", "b"]},
        )
        matching = Matching.of([fat_edge("p1", "a"), fat_edge("p2", "b")])
        allocation = complete_allocation(inst, matching, F(1))
        assert allocation["p1"] == {"a", "junk"}

    def test_empty_matching_at_target_zero_is_the_leftover_rule(self):
        inst = make_instance(
            {"a": "1", "b": "1/2", "junk": "1/5"},
            {"p1": ["b"], "p2": ["a", "b"], "p3": []},
            players=["p1", "p2", "p3"],
        )
        allocation = complete_allocation(inst, Matching.empty(), F(0))
        assert allocation == {"p1": {"b", "junk"}, "p2": {"a"}, "p3": set()}

    def test_leftovers_go_to_the_lowest_index_desirer(self):
        hand_made = make_instance(
            {"a": "1", "nobody": "1/3", "zero": "0", "last": "1/2", "b": "1"},
            {"p0": ["a"], "p1": ["a", "zero", "b"], "p2": ["zero", "last", "b"]},
            players=["p0", "p1", "p2"],
        )
        allocation = complete_allocation(hand_made, Matching.empty(), F(0))
        assert allocation == {
            "p0": {"a", "nobody"},
            "p1": {"zero", "b"},
            "p2": {"last"},
        }
        cases = [(hand_made, Matching.empty(), F(0))]
        cases.append((hand_made, Matching.of([fat_edge("p2", "b")]), F(0)))
        for kind in KINDS:
            for seed in range(4):
                inst = generate_instance(kind, 6, 14, seed)
                cases.append((inst, Matching.empty(), F(0)))
                for k in (1, 4):
                    target = ceiling(inst) / k
                    out = find_perfect_matching(normalize(inst, target))
                    if out.perfect:
                        cases.append((inst, out.matching, target))
        assert len(cases) > 2 + 3 * 4
        for inst, matching, target in cases:
            allocation = complete_allocation(inst, matching, target)
            holder = {r: e.player for e in matching.edges for r in e.bundle}
            for r in inst.resources:
                desirers = inst.desirers(r)
                leftover_rule = desirers[0] if desirers else inst.players[0]
                owners = [p for p in inst.players if r in allocation[p]]
                assert owners == [holder.get(r, leftover_rule)]

    def test_guarantee_boundary_in_weight_units(self):
        # Scale 35: {a, b} is worth 17/35, exactly 6/23 of the target, and
        # {a, c} one weight unit (1/35) less; u is worth 1 but undesired by p1.
        inst = make_instance(
            {"a": "2/7", "b": "1/5", "c": "6/35", "d": "1/35", "u": "1"},
            {"p1": ["a", "b", "c", "d"], "p2": ["u"]},
        )
        target = F(23 * 17, 6 * 35)
        assert inst.scale == 35 and GUARANTEE_FRACTION * target == F(17, 35)
        fat_u = fat_edge("p2", "u")
        exact = Matching.of([thin_edge("p1", "a", "b"), fat_u])
        allocation = complete_allocation(inst, exact, target)
        assert allocation == {"p1": {"a", "b", "c", "d"}, "p2": {"u"}}
        for short in (thin_edge("p1", "a", "c"), thin_edge("p1", "a", "c", "u")):
            with pytest.raises(MatchingNotPerfect) as raised:
                complete_allocation(inst, Matching.of([short]), target)
            assert str(raised.value) == (
                "bundle for 'p1' is worth 16/35, below the guarantee at target 391/210"
            )
        for t in (target, F(0)):
            ghost = Matching.of([thin_edge("p1", "a", "b", "ghost"), fat_u])
            with pytest.raises(UnknownResource):
                complete_allocation(inst, ghost, t)

    def test_not_perfect_rejected(self, two_fat):
        with pytest.raises(MatchingNotPerfect):
            complete_allocation(two_fat, Matching.of([fat_edge("p1", "a")]), F(1))

    def test_partition_and_guarantee(self):
        for seed in range(6):
            inst = generate_instance("uniform", 4, 8, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            ni = normalize(inst, t_star)
            out = find_perfect_matching(ni)
            allocation = complete_allocation(inst, out.matching, t_star)
            assert verify_allocation(inst, allocation) >= GUARANTEE_FRACTION * t_star


class TestDeepChain:
    """A hand-built family forcing a full cascade of truncating contracts.

    Players p1..p(k-1) hold pair bundles; the last player's only edge sits on
    p1's bundle, p1's only alternative sits on p2's, and so on, with a free
    pair at the end of the chain.  Inserting the last player builds a
    blocker chain of depth k and unwinds it with k-1 swaps.
    """

    K = 6

    def chain_instance(self):
        k = self.K
        values = {}
        desires = {}
        pair = lambda i: [f"t{i}a", f"t{i}b"]
        for i in range(1, k):
            for r in pair(i):
                values[r] = "3/23"
        values["u1"] = values["u2"] = "3/23"
        for i in range(1, k - 1):
            desires[f"p{i}"] = pair(i) + pair(i + 1)
        desires[f"p{k - 1}"] = pair(k - 1) + ["u1", "u2"]
        desires[f"p{k}"] = pair(1)
        return make_instance(values, desires, players=[f"p{i}" for i in range(1, k + 1)])

    def test_cascade_of_swaps(self):
        k = self.K
        inst = self.chain_instance()
        ni = normalize(inst, F(1))

        audits = []

        def audit(state):
            report = check_state_invariants(ni, state)
            if not report.passed:
                audits.append(report.violations)

        out = find_perfect_matching(ni, on_step=audit)
        assert not audits
        assert out.perfect
        last = out.traces[-1]
        kinds = [ev.kind for ev in last]
        assert kinds.count("build") == k
        assert kinds.count("contract") == k - 1
        assert kinds.count("terminate") == 1
        # The chain reaches depth k before unwinding.
        assert max(ev.blocker_index for ev in last if ev.kind == "build") == k - 1
        # Unwinding touches blockers from the deep end back to the root.
        contract_indices = [
            ev.blocker_index for ev in last if ev.kind in ("contract", "terminate")
        ]
        assert contract_indices == list(range(k - 1, -1, -1))
        assert out.matching.edge_of(f"p{k}").bundle == frozenset({"t1a", "t1b"})

    def test_chain_signatures_monotone(self):
        inst = self.chain_instance()
        ni = normalize(inst, F(1))
        out = find_perfect_matching(ni)
        for trace in out.traces:
            report = monitor_signatures(trace_signatures(trace), inst.num_players)
            assert report.passed, report.violations


class TestClusteredStress:
    def test_larger_clustered_instances(self):
        for seed in range(4):
            inst = generate_instance("clustered-desire", 8, 14, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            ni = normalize(inst, t_star)

            def audit(state):
                report = check_state_invariants(ni, state)
                assert report.passed, report.violations

            out = find_perfect_matching(ni, on_step=audit)
            assert out.perfect
            allocation = complete_allocation(inst, out.matching, t_star)
            assert verify_allocation(inst, allocation) >= GUARANTEE_FRACTION * t_star


class TestInvariantsUnderFuzz:
    def test_audited_search(self):
        for seed in range(10):
            inst = generate_instance("uniform", 4, 8, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            ni = normalize(inst, t_star)

            def audit(state):
                report = check_state_invariants(ni, state)
                assert report.passed, report.violations

            out = find_perfect_matching(ni, on_step=audit)
            assert out.perfect

    def test_thin_edges_below_twice_threshold(self):
        for seed in range(10):
            inst = generate_instance("uniform", 4, 8, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            ni = normalize(inst, t_star)
            out = find_perfect_matching(ni)
            for edge in out.matching:
                if edge.kind == THIN:
                    worth = sum(ni.value(r) for r in edge.bundle)
                    assert GUARANTEE_FRACTION <= worth < 2 * GUARANTEE_FRACTION
