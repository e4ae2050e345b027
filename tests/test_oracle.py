from fractions import Fraction
from itertools import product

import pytest

from maxminfair import compute_T_star, generate_instance, normalize, verify_allocation
from maxminfair.errors import BudgetExceeded, NotAPartition
from maxminfair.matching import (
    FAT,
    INFINITY,
    THIN,
    Blocker,
    Edge,
    Matching,
    SearchState,
    build_step,
)
from maxminfair.oracle import (
    brute_force_opt,
    check_state_invariants,
    enumerated_clp_feasible,
    exact_T_star_enumerated,
    monitor_signatures,
)

from conftest import make_instance

F = Fraction


def assignment_enumeration_opt(instance):
    """Reference optimum: literally try every assignment of resources."""
    choices = []
    for r in instance.resources:
        desirers = instance.desirers(r)
        choices.append(desirers if desirers else [None])
    best = F(-1)
    for combo in product(*choices):
        values = {p: F(0) for p in instance.players}
        for r, owner in zip(instance.resources, combo):
            if owner is not None:
                values[owner] += instance.value[r]
        best = max(best, min(values.values()))
    return best


class TestBruteForceOpt:
    def test_two_fat(self, two_fat):
        assert brute_force_opt(two_fat) == 1

    def test_shared_single(self, shared_single):
        assert brute_force_opt(shared_single) == 0

    def test_single_player_takes_all(self):
        inst = make_instance(
            {"a": "1/10", "b": "1/10", "c": "1/10"}, {"p": ["a", "b", "c"]}
        )
        assert brute_force_opt(inst) == F(3, 10)

    def test_budget(self, two_fat):
        with pytest.raises(BudgetExceeded):
            brute_force_opt(two_fat, max_resources=1)

    def test_matches_plain_enumeration(self):
        for seed in range(8):
            inst = generate_instance("uniform", 3, 6, seed)
            assert brute_force_opt(inst) == assignment_enumeration_opt(inst)


class TestExactTStarEnumerated:
    def test_two_fat(self, two_fat):
        assert exact_T_star_enumerated(two_fat) == 1

    def test_shared_single(self, shared_single):
        assert exact_T_star_enumerated(shared_single) == 0

    def test_budget(self, ten_thin):
        with pytest.raises(BudgetExceeded):
            exact_T_star_enumerated(ten_thin, budget=100)

    def test_cross_oracle_identity(self):
        for seed in range(10):
            inst = generate_instance("uniform", 3, 6, seed)
            assert exact_T_star_enumerated(inst) == compute_T_star(inst)

    def test_sandwich(self):
        for seed in range(10):
            inst = generate_instance("uniform", 3, 6, seed)
            t_star = exact_T_star_enumerated(inst)
            opt = brute_force_opt(inst)
            assert opt <= t_star
            if opt > 0:
                assert t_star / opt <= F(23, 6)


class TestCheckStateInvariants:
    def _fuzzed_state(self, shared_single):
        ni = normalize(shared_single, F(1))
        matched = Edge("p1", frozenset({"r"}), FAT)
        state = SearchState(ni, Matching.of([matched]), "p2")
        build_step(state, Edge("p2", frozenset({"r"}), FAT))
        return ni, state

    def test_honest_state_passes(self, shared_single):
        ni, state = self._fuzzed_state(shared_single)
        report = check_state_invariants(ni, state)
        assert report.passed and report.to_json_dict()["passed"]

    def test_detects_duplicated_blocking_edge(self):
        inst = make_instance(
            {"r": "1", "s": "1", "u": "1"},
            {"p1": ["r", "s"], "p2": ["r", "s", "u"]},
        )
        ni = normalize(inst, F(1))
        matched = Edge("p1", frozenset({"r"}), FAT)
        state = SearchState(ni, Matching.of([matched]), "p2")
        build_step(state, Edge("p2", frozenset({"r"}), FAT))
        # Plant: the same matching edge blocks a second blocker.
        state.blockers.append(
            Blocker(candidate=Edge("p2", frozenset({"s"}), FAT), blocking=(matched,))
        )
        state.covered |= {"s"}
        report = check_state_invariants(ni, state)
        names = {v.invariant for v in report.violations}
        assert "blocking-disjoint" in names

    def test_detects_candidate_overlap(self, shared_single):
        ni, state = self._fuzzed_state(shared_single)
        # Plant: a second candidate reusing the covered resource.
        state.blockers.append(
            Blocker(candidate=Edge("p1", frozenset({"r"}), FAT), blocking=())
        )
        report = check_state_invariants(ni, state)
        names = {v.invariant for v in report.violations}
        assert "candidates-disjoint" in names

    def test_detects_drifted_covered_set(self, shared_single):
        ni, state = self._fuzzed_state(shared_single)
        state.covered = set()
        report = check_state_invariants(ni, state)
        names = {v.invariant for v in report.violations}
        assert "covered-recompute" in names

    def test_detects_swapped_activation_order(self, shared_single):
        # Plant: honest blockers, but p1 (activated by blocker 0) listed
        # before the root.
        ni, state = self._fuzzed_state(shared_single)
        assert state.active_order == ["p2", "p1"]
        state.active_order = ["p1", "p2"]
        report = check_state_invariants(ni, state)
        assert [v.invariant for v in report.violations] == ["active-recompute"]

    def test_detects_drifted_active_set(self, shared_single):
        # Plant: an honest activation order, but a membership set that lost
        # p1, or that gained a player nobody activated.
        for drift in ({"p2"}, {"p1", "p2", "p3"}):
            ni, state = self._fuzzed_state(shared_single)
            assert state.active == {"p1", "p2"}
            state.active = set(drift)
            report = check_state_invariants(ni, state)
            assert [v.invariant for v in report.violations] == ["active-set-recompute"]

    def test_detects_player_activated_twice(self):
        # Plant: p1's thin edge {a, b} blocks both of p2's candidates, one
        # through a and one through b.
        inst = make_instance(
            {r: "3/23" for r in "abcd"}, {"p1": ["a", "b"], "p2": list("abcd")}
        )
        ni = normalize(inst, F(1))
        matched = Edge("p1", frozenset({"a", "b"}), THIN)
        state = SearchState(ni, Matching.of([matched]), "p2")
        build_step(state, Edge("p2", frozenset({"a", "c"}), THIN))
        state.blockers.append(
            Blocker(Edge("p2", frozenset({"b", "d"}), THIN), blocking=(matched,))
        )
        state.covered |= {"d"}
        state.active_order.append("p1")
        report = check_state_invariants(ni, state)
        names = {v.invariant for v in report.violations}
        assert "unique-activator" in names

    @pytest.mark.parametrize(
        "kind, bundle, valid",
        [
            (FAT, "a", True),  # exactly 6/23
            (THIN, "bc", True),  # 3/23 + 3/23
            (THIN, "be", True),  # 7/23, and 4/23 without b
            (FAT, "b", False),  # below 6/23
            (FAT, "u", False),  # not desired
            (THIN, "bcd", False),  # still 6/23 without its smallest
            (THIN, "bef", False),  # 7/23 without f (its smallest), 4/23 without e
            (THIN, "ab", False),  # a is fat
            (THIN, "b", False),  # below 6/23
            (THIN, "", False),
            ("other", "a", False),
        ],
    )
    def test_edges_checked_against_the_definition(self, kind, bundle, valid):
        values = {"a": "6/23", "b": "3/23", "c": "3/23", "d": "3/23", "e": "4/23"}
        inst = make_instance(
            {**values, "f": "1/23", "u": "1"}, {"p1": ["a"], "p2": list("abcdef")}
        )
        ni = normalize(inst, F(1))
        state = SearchState(ni, Matching.empty(), "p2")
        state.blockers.append(Blocker(Edge("p2", frozenset(bundle), kind), ()))
        state.covered |= set(bundle)
        report = check_state_invariants(ni, state)
        expected = [] if valid else ["edge-valid"]
        assert [v.invariant for v in report.violations] == expected

    def test_detects_missed_blocking_edge(self, shared_single):
        ni, state = self._fuzzed_state(shared_single)
        state.blockers[0] = type(state.blockers[0])(
            candidate=state.blockers[0].candidate, blocking=()
        )
        report = check_state_invariants(ni, state)
        names = {v.invariant for v in report.violations}
        assert "blocking-exact" in names

    def test_detects_removable_blocker_below_top(self):
        # Plant: p2's candidate {s} is blocked by nothing, yet a blocked
        # blocker was built on top of it; the search would have contracted.
        inst = make_instance({"r": "1", "s": "1"}, {"p1": ["r", "s"], "p2": ["r", "s"]})
        ni = normalize(inst, F(1))
        matched = Edge("p1", frozenset({"r"}), FAT)
        state = SearchState(ni, Matching.of([matched]), "p2")
        state.blockers.append(Blocker(candidate=Edge("p2", frozenset({"s"}), FAT), blocking=()))
        state.covered |= {"s"}
        build_step(state, Edge("p2", frozenset({"r"}), FAT))
        report = check_state_invariants(ni, state)
        assert [(v.invariant, v.indices) for v in report.violations] == [
            ("removable-below-top", (0,))
        ]


def sig(*entries):
    return tuple(entries) + (INFINITY,)


class TestMonitorSignatures:
    def test_strictly_decreasing_passes(self):
        report = monitor_signatures([sig(), sig(1), sig(0)], num_players=2)
        assert report.passed

    def test_flat_pair_fails(self):
        report = monitor_signatures([sig(1), sig(1)], num_players=2)
        assert not report.passed
        assert {v.invariant for v in report.violations} == {"strict-descent"}

    def test_mass_above_player_count_fails(self):
        report = monitor_signatures([sig(2, 1)], num_players=2)
        assert not report.passed
        assert {v.invariant for v in report.violations} == {"blocking-mass"}

    def test_missing_sentinel_fails(self):
        report = monitor_signatures([(1, 2)], num_players=5)
        assert not report.passed


class TestVerifyAllocation:
    def test_full_allocation(self, two_fat):
        assert verify_allocation(two_fat, {"p1": ["a"], "p2": ["b"]}) == 1

    def test_undesired_resources_count_zero(self):
        inst = make_instance({"a": "1", "b": "1"}, {"p1": ["a"], "p2": ["a"]})
        assert verify_allocation(inst, {"p1": ["a"], "p2": ["b"]}) == 0

    def test_duplicate_assignment_rejected(self, two_fat):
        with pytest.raises(NotAPartition):
            verify_allocation(two_fat, {"p1": ["a", "b"], "p2": ["a"]})

    def test_missing_resource_rejected(self, two_fat):
        with pytest.raises(NotAPartition):
            verify_allocation(two_fat, {"p1": ["a"], "p2": []})


class TestEnumeratedFeasibility:
    def test_matches_definition_on_small_instances(self, two_fat):
        assert enumerated_clp_feasible(two_fat, F(1))
        assert not enumerated_clp_feasible(two_fat, F(3, 2))
        assert enumerated_clp_feasible(two_fat, F(0))
