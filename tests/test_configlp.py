import math
import random
import textwrap
import time
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from maxminfair import (
    bundle_value,
    compute_T_star,
    configlp,
    construct_dual_certificate,
    find_perfect_matching,
    generate_instance,
    normalize,
    oracle,
    validate_instance,
    verify_certificate_feasibility,
)
from maxminfair.configlp import (
    FEASIBLE,
    INFEASIBLE,
    ClpVerdict,
    DualCertificate,
    clp_feasible,
    min_cost_configuration,
    subset_sum_breakpoints,
)
from maxminfair.errors import (
    BudgetExceeded,
    InvalidTarget,
    NegativePrice,
    VerificationFailed,
)
from maxminfair.generators import KINDS
from maxminfair.simplex import (
    OPTIMAL,
    LinearProgram,
    LpOutcome,
    Tableau,
    verify_outcome,
)
from maxminfair.oracle import (
    enumerated_clp_feasible,
    exact_T_star_enumerated,
    verify_allocation,
)

from conftest import (
    make_instance,
    negative_price_optimize,
    run_python_optimize,
    scaled_instance,
    zero_optimize,
    zero_outcome,
)

F = Fraction


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def enumerate_min_cost(instance, player, prices, target):
    """Oracle: scan every subset of the positive-value desired resources."""
    best = None
    carriers = [r for r in instance.desired_by(player) if instance.value[r] > 0]
    for combo in powerset(carriers):
        value = sum((instance.value[r] for r in combo), F(0))
        if value < target:
            continue
        cost = sum((F(prices.get(r, 0)) for r in combo), F(0))
        indices = tuple(sorted(instance.resource_index(r) for r in combo))
        if best is None or (cost, len(indices), indices) < best:
            best = (cost, len(indices), indices)
    if best is None:
        return None
    cost, _, indices = best
    return cost, frozenset(instance.resources[i] for i in indices)


class TestMinCostConfiguration:
    def test_four_resource_example(self):
        # Oracle-checked: among the 16 subsets only those reaching value 1
        # compete, and {r1, r2, r4} wins at cost 3/20.
        inst = make_instance(
            {"r1": "1/2", "r2": "2/5", "r3": "3/10", "r4": "1/5"},
            {"p": ["r1", "r2", "r3", "r4"]},
        )
        prices = {"r1": F(1, 10), "r2": F(1, 20), "r3": F(1, 5), "r4": F(0)}
        expected = enumerate_min_cost(inst, "p", prices, F(1))
        assert expected == (F(3, 20), frozenset({"r1", "r2", "r4"}))
        assert min_cost_configuration(inst, "p", prices, F(1)) == expected

    def test_integer_prices_give_an_integer_cost(self):
        # Column generation prices at integers and compares with an integer:
        # the cost stays an `int` there, and is a `Fraction` at prices with
        # denominators, the same value and bundle at any common scale.
        inst = make_instance(
            {"r1": "1/2", "r2": "2/5", "r3": "3/10", "r4": "1/5"},
            {"p": ["r1", "r2", "r3", "r4"]},
        )
        prices = {"r1": F(1, 10), "r2": F(1, 20), "r3": F(1, 5), "r4": F(0)}
        cost, bundle = min_cost_configuration(inst, "p", prices, F(1))
        assert type(cost) is F and cost == F(3, 20)
        whole = {r: int(v * 20) for r, v in prices.items()}
        scaled = min_cost_configuration(inst, "p", whole, F(1))
        assert type(scaled[0]) is int and scaled == (3, bundle)

    def test_target_zero_gives_empty_bundle(self, two_fat):
        assert min_cost_configuration(two_fat, "p1", {"a": F(1)}, F(0)) == (
            F(0),
            frozenset(),
        )

    def test_unreachable_target(self):
        inst = make_instance({"a": "3/4"}, {"p": ["a"]})
        assert min_cost_configuration(inst, "p", {}, F(1)) is None

    def test_negative_price_rejected(self, two_fat):
        with pytest.raises(NegativePrice):
            min_cost_configuration(two_fat, "p1", {"a": F(-1)}, F(1))

    def test_negative_price_rejected_when_target_unreachable(self):
        # p's candidates fall short of the target, so it has no
        # configuration, yet a negative candidate price still raises.
        inst = make_instance({"a": "3/4", "b": "1/8"}, {"p": ["a", "b"]})
        assert min_cost_configuration(inst, "p", {"b": F(1, 3)}, F(1)) is None
        with pytest.raises(NegativePrice, match="price of 'b' is negative: -1/3"):
            min_cost_configuration(inst, "p", {"b": F(-1, 3)}, F(1))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reads_only_candidate_prices(self, data):
        # A negative price on a resource `p` does not desire ("x"), or on a
        # zero-value one it does ("z" and any drawn zero), is never read: the
        # result equals the one without that price.
        fractions = st.fractions(min_value=0, max_value=2, max_denominator=1000)
        resources = [f"r{j}" for j in range(data.draw(st.integers(1, 8)))]
        values = {r: data.draw(st.one_of(st.just(F(0)), fractions)) for r in resources}
        inst = make_instance(
            {**values, "z": F(0), "x": data.draw(fractions)},
            {"p": [*resources, "z"], "q": ["x"]},
        )
        prices = {r: data.draw(fractions) for r in resources}
        target = data.draw(
            st.fractions(min_value=0, max_value=4, max_denominator=1000)
        )
        expected = min_cost_configuration(inst, "p", prices, target)
        assert expected == enumerate_min_cost(inst, "p", prices, target)
        unread = ["x", "z"] + [r for r in resources if values[r] == 0]
        negative = -1 - data.draw(fractions)
        for r in unread:
            priced = {**prices, r: negative}
            assert min_cost_configuration(inst, "p", priced, target) == expected
        priced = {**prices, **{r: negative for r in unread}}
        assert min_cost_configuration(inst, "p", priced, target) == expected

    def test_lexicographic_tie_break(self):
        # Both {a} and {b} cost 0 at value 1; the earlier resource wins.
        inst = make_instance({"a": "1", "b": "1"}, {"p": ["a", "b"]})
        cost, bundle = min_cost_configuration(inst, "p", {}, F(1))
        assert cost == 0 and bundle == frozenset({"a"})

    def test_tie_break_follows_index_not_name_or_value(self):
        # Values in [1, 3/2) in shuffled order, so any two resources reach
        # target 2 and none alone; names shuffled against the input order.
        # Price 0 on a random subset S: the cheapest bundles are S's pairs,
        # and the winner is S's two lowest-index members.  Widths past 64
        # span several int digits in the masks.
        rng = random.Random(20)
        for n in [3, 4, 5, 6, 8, 10, 12] * 4 + [70, 100, 130]:
            names = [f"r{k}" for k in rng.sample(range(n), n)]
            values = [1 + F(k, 2 * n) for k in rng.sample(range(n), n)]
            inst = make_instance(dict(zip(names, values)), {"p": rng.sample(names, n)})
            free = sorted(rng.sample(range(n), rng.randint(2, n)))
            prices = {r: F(int(j not in free)) for j, r in enumerate(names)}
            expected = (F(0), frozenset(names[j] for j in free[:2]))
            assert min_cost_configuration(inst, "p", prices, F(2)) == expected
            if n <= 12:
                assert enumerate_min_cost(inst, "p", prices, F(2)) == expected

    def test_interchangeable_resources_join_lowest_index_first(self):
        # Equal values in shuffled input order, names shuffled against it,
        # price 0 on a random subset S and 1 elsewhere: each free resource is
        # interchangeable with every other, and at target k the winner is
        # S's k lowest-index members.
        rng = random.Random(21)
        for n in [2, 3, 4, 6, 8, 10, 12] * 4:
            names = [f"r{k}" for k in rng.sample(range(n), n)]
            inst = make_instance({r: 1 for r in names}, {"p": rng.sample(names, n)})
            free = sorted(rng.sample(range(n), rng.randint(1, n)))
            prices = {r: F(int(j not in free)) for j, r in enumerate(names)}
            k = rng.randint(1, len(free))
            expected = (F(0), frozenset(names[j] for j in free[:k]))
            assert min_cost_configuration(inst, "p", prices, F(k)) == expected
            assert enumerate_min_cost(inst, "p", prices, F(k)) == expected

    def test_interchangeable_class_skips_unequal_prices(self):
        # Equal values, prices alternating by index: the run is walked in
        # price order, the four cheap resources first and then the dear
        # ones by index, so it joins as that order's prefix.  Target 6
        # takes the four cheap resources and the two lowest dear ones.
        names = [f"r{j}" for j in range(8)]
        inst = make_instance({r: 1 for r in names}, {"p": names[::-1]})
        prices = {r: F(1 + j % 2, 3) for j, r in enumerate(names)}
        expected = (F(8, 3), frozenset({"r0", "r1", "r2", "r3", "r4", "r6"}))
        assert enumerate_min_cost(inst, "p", prices, F(6)) == expected
        assert min_cost_configuration(inst, "p", prices, F(6)) == expected

    def test_run_joins_in_price_order_against_index_order(self):
        # Equal values with prices falling as the index rises: price order
        # inside the run is the reverse of index order, and target k takes
        # the k cheapest, the k highest indices, at Fraction and at int
        # prices.  At one equal price, target k takes the k lowest.
        for n in range(1, 9):
            names = [f"r{j}" for j in range(n)]
            inst = make_instance({r: 1 for r in names}, {"p": names[::-1]})
            falling = {r: F(n - j, 7) for j, r in enumerate(names)}
            whole = {r: n - j for j, r in enumerate(names)}
            flat = dict.fromkeys(names, F(2, 7))
            for k in range(1, n + 1):
                cheapest = frozenset(names[n - k :])
                expected = (sum(falling[r] for r in cheapest), cheapest)
                assert enumerate_min_cost(inst, "p", falling, F(k)) == expected
                assert min_cost_configuration(inst, "p", falling, F(k)) == expected
                cost, bundle = min_cost_configuration(inst, "p", whole, F(k))
                assert type(cost) is int and (cost, bundle) == (7 * expected[0], cheapest)
                expected = (F(2 * k, 7), frozenset(names[:k]))
                assert min_cost_configuration(inst, "p", flat, F(k)) == expected

    def test_equal_price_unequal_value_is_not_interchangeable(self):
        # r1 comes first in candidate order (higher value) at r0's price, but
        # the two are not interchangeable: r0 alone reaches the target and
        # wins the tie on index.
        inst = make_instance({"r0": 1, "r1": 2}, {"p": ["r0", "r1"]})
        prices = {"r0": F(1), "r1": F(1)}
        expected = (F(1), frozenset({"r0"}))
        assert enumerate_min_cost(inst, "p", prices, F(1)) == expected
        assert min_cost_configuration(inst, "p", prices, F(1)) == expected

    def test_interchangeable_resources_past_one_int_digit(self):
        # 70 equal resources at one price, names shuffled against the input
        # order: the class masks span several int digits, and target 3 takes
        # the three lowest indices.
        rng = random.Random(70)
        names = [f"r{k}" for k in rng.sample(range(70), 70)]
        inst = make_instance({r: 1 for r in names}, {"p": rng.sample(names, 70)})
        prices = {r: F(1, 7) for r in names}
        expected = (F(3, 7), frozenset(names[:3]))
        assert min_cost_configuration(inst, "p", prices, F(3)) == expected

    def test_smaller_tied_bundle_beats_lower_indices(self):
        # {x, y, u} (indices 0-2) is the first bundle found at cost 2, then
        # {z, w} (indices 3 and 4) ties it: the smaller bundle wins although
        # the larger one's sorted indices come first.
        inst = make_instance(
            {"x": 5, "y": 1, "u": 1, "z": 4, "w": 4}, {"p": ["x", "y", "u", "z", "w"]}
        )
        prices = {"x": F(2), "y": F(0), "u": F(0), "z": F(1), "w": F(1)}
        expected = (F(2), frozenset({"z", "w"}))
        assert enumerate_min_cost(inst, "p", prices, F(7)) == expected
        assert min_cost_configuration(inst, "p", prices, F(7)) == expected

    def test_tie_reached_one_resource_short_of_the_incumbent(self):
        # {t, r} (indices 3, 1) becomes the incumbent at cost 1; the node
        # {q}, one resource smaller at the same cost, completes to {q, r}
        # (indices 0, 1), which wins the tie on indices.
        inst = make_instance({"q": 3, "r": 2, "s": 0, "t": 4}, {"p": ["t", "q", "r"]})
        prices = {"t": F(1), "q": F(1), "r": F(0)}
        expected = (F(1), frozenset({"q", "r"}))
        assert enumerate_min_cost(inst, "p", prices, F(5)) == expected
        assert min_cost_configuration(inst, "p", prices, F(5)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_enumeration(self, data):
        # Denominators up to 1000 make the price sums large Fractions; small
        # separate palettes of values and of prices make equal-cost bundles,
        # which exercise the tie rule, and interleave resources of equal
        # value but unequal price, which a run walks in price order, with
        # resources of equal price but unequal value, which sit in
        # different runs and never wait for one another; zero
        # values, a missing price, a price on a resource the player does not
        # desire, int values and prices (read as given, with no `Fraction`
        # copy) and an int target are all drawn.
        fractions = st.one_of(
            st.just(F(0)),
            st.integers(0, 2),
            st.fractions(min_value=0, max_value=2, max_denominator=1000),
        )
        n = data.draw(st.integers(1, 12))
        resources = [f"r{j}" for j in range(n)]
        if data.draw(st.booleans()):
            palettes = [
                data.draw(st.lists(fractions, min_size=1, max_size=3)) for _ in "vc"
            ]
            pairs = [
                tuple(data.draw(st.sampled_from(palette)) for palette in palettes)
                for _ in resources
            ]
        else:
            pairs = [(data.draw(fractions), data.draw(fractions)) for _ in resources]
        values = {r: v for r, (v, _) in zip(resources, pairs)}
        values["x"] = data.draw(fractions)
        inst = make_instance(values, {"p": resources, "q": ["x"]})
        prices = {
            r: c
            for r, (_, c) in zip(resources, pairs)
            if not data.draw(st.booleans(), label=f"omit price of {r}")
        }
        prices["x"] = data.draw(fractions)
        target = data.draw(
            st.one_of(
                st.integers(0, 3),
                st.fractions(min_value=0, max_value=4, max_denominator=1000),
            )
        )
        assert min_cost_configuration(inst, "p", prices, target) == enumerate_min_cost(
            inst, "p", prices, target
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_scaled_prices_keep_the_bundle(self, data):
        # Column generation prices at d·z, integer numerators over the
        # master's denominator d.  At k times the prices, k >= 1 a multiple
        # of their common denominator, given as ints and as Fractions, the
        # bundle is the same and the cost is k times as large.  Small
        # palettes make ties and interchangeable resources.
        rationals = st.one_of(
            st.integers(0, 3),
            st.fractions(min_value=0, max_value=2, max_denominator=12),
        )
        value_palette = data.draw(st.lists(rationals, min_size=1, max_size=3))
        price_palette = data.draw(st.lists(rationals, min_size=1, max_size=3))
        resources = [f"r{j}" for j in range(data.draw(st.integers(1, 10)))]
        inst = make_instance(
            {r: data.draw(st.sampled_from(value_palette)) for r in resources},
            {"p": resources},
        )
        prices = {r: data.draw(st.sampled_from(price_palette)) for r in resources}
        target = data.draw(
            st.one_of(
                st.integers(0, 3),
                st.fractions(min_value=0, max_value=4, max_denominator=12),
            )
        )
        common = math.lcm(*(F(c).denominator for c in prices.values()))
        k = common * data.draw(st.integers(1, 40))
        base = min_cost_configuration(inst, "p", prices, target)
        expected = None if base is None else (k * base[0], base[1])
        as_ints = {r: int(k * c) for r, c in prices.items()}
        as_fractions = {r: F(v) for r, v in as_ints.items()}
        for scaled in (as_ints, as_fractions):
            assert min_cost_configuration(inst, "p", scaled, target) == expected

    def test_agrees_with_enumeration_at_certificate_prices(self):
        # Every player's pricing at a stuck state's certificate: on 6x14
        # instances at four times the ceiling, where the search always halts,
        # and, as in the benchmark's certify-mid, on 6x14 and 8x20 at the
        # first of 1/2, 1, 3/2 and 2 times the ceiling where it halts (each
        # player with at most 12 candidates).  The certificate is priced on
        # the instance at the target; a copy scaled by 1/target, at target 1,
        # has the same configurations.
        def stuck_prices(inst, target):
            ni = normalize(inst, target)
            out = find_perfect_matching(ni)
            assert not out.perfect
            return construct_dual_certificate(ni, out.state).z

        at_four = at_halt = 0
        for kind in KINDS:
            for size in [(6, 14), (8, 20)]:
                for seed in range(10):
                    inst = generate_instance(kind, *size, seed)
                    ceiling = min(
                        bundle_value(inst, p, inst.desired_by(p)) for p in inst.players
                    )
                    if size == (6, 14):
                        target = 4 * ceiling
                        z = stuck_prices(inst, target)
                        unit = scaled_instance(inst, 1 / target)
                        for p in inst.players:
                            priced = min_cost_configuration(inst, p, z, target)
                            assert priced == enumerate_min_cost(inst, p, z, target)
                            assert priced == enumerate_min_cost(unit, p, z, F(1))
                            at_four += 1
                    target = next(
                        (
                            f * ceiling
                            for f in [F(1, 2), F(1), F(3, 2), F(2)]
                            if not find_perfect_matching(normalize(inst, f * ceiling)).perfect
                        ),
                        None,
                    )
                    if target is None:
                        continue
                    z = stuck_prices(inst, target)
                    for p in inst.players:
                        if len(inst.candidates[p]) <= 12:
                            priced = min_cost_configuration(inst, p, z, target)
                            assert priced == enumerate_min_cost(inst, p, z, target)
                            at_halt += 1
        assert at_four == 180
        assert at_halt == 289


class TestClpFeasible:
    def test_two_fat_at_one(self, two_fat):
        verdict = clp_feasible(two_fat, F(1))
        assert verdict.status == FEASIBLE
        # Exact re-check of the fractional solution.
        received = {p: F(0) for p in two_fat.players}
        used = {r: F(0) for r in two_fat.resources}
        for col, weight in verdict.solution:
            assert weight > 0
            received[col.player] += weight
            for r in col.bundle:
                used[r] += weight
        assert all(received[p] >= 1 for p in two_fat.players)
        assert all(used[r] <= 1 for r in two_fat.resources)

    def test_two_fat_at_three_halves(self, two_fat):
        verdict = clp_feasible(two_fat, F(3, 2))
        assert verdict.status == INFEASIBLE
        prices = verdict.prices
        assert prices.objective == 1
        # Independent dual feasibility check: the only configuration at 3/2
        # is {a, b}, whose price must cover each player's y.
        total = prices.z["a"] + prices.z["b"]
        for p in two_fat.players:
            assert prices.y[p] <= total
            assert prices.y[p] >= 0
        assert all(z >= 0 for z in prices.z.values())

    def test_target_zero_feasible(self, shared_single):
        assert clp_feasible(shared_single, F(0)).status == FEASIBLE

    def test_negative_target_rejected(self, two_fat):
        with pytest.raises(InvalidTarget):
            clp_feasible(two_fat, F(-1))

    def test_player_without_configurations(self):
        inst = make_instance({"a": "1/2"}, {"p1": ["a"], "p2": []})
        verdict = clp_feasible(inst, F(1, 2))
        assert verdict.status == INFEASIBLE
        assert verdict.prices.objective > 0

    def test_transcript_is_the_column_pool(self, two_fat):
        # Feasible and infeasible verdicts at breakpoints of each kind.
        cases = [(two_fat, F(1)), (two_fat, F(3, 2))]
        for kind in KINDS:
            inst = generate_instance(kind, 3, 6, 0)
            cases += [(inst, t) for t in subset_sum_breakpoints(inst)[1::4]]
        for inst, target in cases:
            verdict = clp_feasible(inst, target)
            assert verdict.transcript
            for col in verdict.transcript:
                assert col.bundle <= set(inst.desired_by(col.player))
                assert bundle_value(inst, col.player, col.bundle) >= target
            keys = [(col.player, col.bundle) for col in verdict.transcript]
            assert len(set(keys)) == len(keys)
            for col, _ in verdict.solution or ():
                assert col in verdict.transcript

    def test_prices_json_round_trip(self, two_fat):
        verdict = clp_feasible(two_fat, F(3, 2))
        payload = verdict.prices.to_json_dict()
        assert list(payload) == ["y", "z", "objective"]
        assert payload["objective"] == "1"
        assert set(payload["y"]) == {"p1", "p2"}
        assert set(payload["z"]) == {"a", "b"}


def enumerate_breakpoints(instance):
    """Oracle: each player's distinct subset sums, by `itertools.combinations`.

    Returns the sorted union of the sums and the per-player distinct counts
    added up over the players (the quantity the breakpoint budget caps).
    """
    union, count = set(), 0
    for p in instance.players:
        values = [instance.value[r] for r in instance.desired_by(p)]
        sums = {sum(combo, F(0)) for combo in powerset(values)}
        union |= sums
        count += len(sums)
    return sorted(union), count


class TestSubsetSumBreakpoints:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_enumeration(self, data):
        # Up to 4 players with up to 8 desired resources each, drawn from a
        # shared pool; denominators 1..1000 make the common denominator
        # large; zero values and a player with no desires are always drawn.
        values = st.one_of(
            st.just(F(0)),
            st.builds(F, st.integers(0, 3000), st.integers(1, 1000)),
        )
        pool = data.draw(st.lists(values, min_size=1, max_size=12), label="values")
        resources = {f"r{j}": v for j, v in enumerate(pool)}
        names = sorted(resources)
        resources["zero"] = F(0)
        players = data.draw(st.integers(1, 4), label="players")
        # p0's eighth desire is the zero-value resource.
        desires = {
            f"p{i}": data.draw(
                st.lists(st.sampled_from(names), max_size=8 - (i == 0), unique=True),
                label=f"desires of p{i}",
            )
            for i in range(players)
        }
        desires["p0"].append("zero")
        idle = data.draw(st.integers(0, players), label="idle position")
        order = [f"p{i}" for i in range(players)]
        order.insert(idle, "idle")
        desires["idle"] = []
        inst = make_instance(resources, desires, players=order)
        points = subset_sum_breakpoints(inst)
        assert points == enumerate_breakpoints(inst)[0]
        assert all(type(q) is Fraction for q in points)
        assert all(a < b for a, b in zip(points, points[1:]))

    def test_budget_boundary(self):
        # The budget caps the per-player distinct sums added up over the
        # players: at that count the call returns, one below it raises.
        # Zero-value resources, here three desired by every player, add no
        # sums.
        zeros = [{"id": f"zero{i}", "value": "0"} for i in range(3)]
        for kind in KINDS:
            for seed in range(3):
                inst = generate_instance(kind, 4, 8, seed)
                expected, n = enumerate_breakpoints(inst)
                raw = inst.to_json_dict()
                raw["resources"] += zeros
                for p in raw["players"]:
                    raw["desires"][p] += [z["id"] for z in zeros]
                padded = validate_instance(raw)
                assert enumerate_breakpoints(padded) == (expected, n)
                for case in (inst, padded):
                    assert subset_sum_breakpoints(case, budget=n) == expected
                    with pytest.raises(BudgetExceeded, match=f"budget {n - 1}$"):
                        subset_sum_breakpoints(case, budget=n - 1)
        # A player with no desires still adds its one sum, wherever it stands
        # in the player order: 2 + 1 + 1 = 4 sums here.
        for order in (["p", "x", "y"], ["x", "y", "p"]):
            inst = make_instance({"a": "1"}, {"p": ["a"]}, players=order)
            assert subset_sum_breakpoints(inst, budget=4) == [F(0), F(1)]
            for budget in (2, 3):
                with pytest.raises(BudgetExceeded, match=f"budget {budget}$"):
                    subset_sum_breakpoints(inst, budget=budget)

    def test_huge_common_denominator(self):
        # 48 distinct primes from 1009 up: their LCM has about 150 digits,
        # so a bitset over the common denominator would need about 10^150
        # bits; the sets of sums hold one int per point.
        primes = [q for q in range(1009, 2000) if all(q % d for d in range(2, 45))][:48]
        resources = {f"r{q}": F(1, q) for q in primes}
        desires = {
            f"p{i}": [f"r{q}" for q in primes[12 * i : 12 * i + 12]] for i in range(4)
        }
        inst = make_instance(resources, desires)
        start = time.perf_counter()
        points = subset_sum_breakpoints(inst)
        elapsed = time.perf_counter() - start
        # Distinct primes give distinct sums: 2^12 per player, 0 shared.
        assert len(points) == 4 * 2**12 - 3 == 16_381
        assert points[:2] == [F(0), F(1, primes[-1])]
        totals = [sum(F(1, q) for q in primes[12 * i : 12 * i + 12]) for i in range(4)]
        assert points[-1] == max(totals)
        assert elapsed < 10


class TestComputeTStar:
    def test_two_fat(self, two_fat):
        assert subset_sum_breakpoints(two_fat) == [F(0), F(1), F(2)]
        assert compute_T_star(two_fat) == 1

    def test_ten_thin(self, ten_thin):
        assert compute_T_star(ten_thin) == 1

    def test_shared_single(self, shared_single):
        assert compute_T_star(shared_single) == 0

    def test_scaling_covariance(self):
        for seed in range(4):
            inst = generate_instance("uniform", 3, 5, seed)
            base = compute_T_star(inst)
            for c in (F(3, 2), F(1, 3), F(7)):
                scaled = compute_T_star(scaled_instance(inst, c))
                assert scaled == c * base


BOUND_GRID = [
    (kind, n, 2 * n, seed) for kind in KINDS for n in (3, 4) for seed in range(10)
]


def value_cap(instance):
    """min(smallest total desired value, total desired value / players)."""
    ceiling = min(
        bundle_value(instance, p, instance.desired_by(p)) for p in instance.players
    )
    wanted = set().union(*(instance.desired_by(p) for p in instance.players))
    total = sum((instance.value[r] for r in wanted), F(0))
    return min(ceiling, total / len(instance.players))


def enumerated_top(instance, prices):
    """Oracle: the largest value of a bundle that costs less than its
    player's y at the prices z, over the players with y > 0; an absent
    price is 0."""
    return max(
        sum((instance.value[r] for r in combo), F(0))
        for p in instance.players
        if prices.y.get(p, 0) > 0
        for combo in powerset(instance.desired_by(p))
        if sum((prices.z.get(r, 0) for r in combo), F(0)) < prices.y[p]
    )


def forged_infeasible(y, z):
    """A stand-in for `clp_feasible` whose every verdict is infeasible at
    the prices y (each player) and z (each resource)."""

    def verdict(instance, target):
        prices = DualCertificate(
            y=dict.fromkeys(instance.players, F(y)),
            z=dict.fromkeys(instance.resources, F(z)),
        )
        return ClpVerdict(status=INFEASIBLE, prices=prices)

    return verdict


def greedy_floor(instance):
    """The smallest value of a bundle of `configlp._integral_floor`."""
    bundles = configlp._integral_floor(instance)
    return min(bundle_value(instance, p, bundles[p]) for p in instance.players)


def plain_T_star(points, feasible):
    """Bisection over every breakpoint: T* and the number of probes."""
    lo, hi, probes = 0, len(points) - 1, 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probes += 1
        if feasible(points[mid]):
            lo = mid
        else:
            hi = mid - 1
    return points[lo], probes


@pytest.fixture(scope="module")
def bounded_searches():
    """Each `BOUND_GRID` instance, its T* and the (target, verdict) probes of
    `compute_T_star`."""
    searches = []
    probe = configlp.clp_feasible

    def recording(instance, target):
        verdict = probe(instance, target)
        probes.append((target, verdict))
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(configlp, "clp_feasible", recording)
        for spec in BOUND_GRID:
            instance, probes = generate_instance(*spec), []
            searches.append((instance, compute_T_star(instance), probes))
    return searches


class TestTStarBounds:
    def test_infeasible_above_cap(self, bounded_searches):
        above = 0
        for instance, _, _ in bounded_searches:
            cap = value_cap(instance)
            points = [t for t in subset_sum_breakpoints(instance) if t > cap]
            if points:
                above += 1
                assert not clp_feasible(instance, points[0]).feasible
        assert above

    def test_feasible_at_floor(self, bounded_searches):
        # A feasible probe proves its floor feasible, and no later probe of
        # the search lies at or below that floor.
        jumps = 0
        for instance, _, probes in bounded_searches:
            points = subset_sum_breakpoints(instance)
            for k, (target, verdict) in enumerate(probes):
                if not verdict.feasible:
                    continue
                floor = min(
                    bundle_value(instance, col.player, col.bundle)
                    for col, _ in verdict.solution
                )
                assert target <= floor and floor in points
                assert clp_feasible(instance, floor).feasible
                assert all(later > floor for later, _ in probes[k + 1 :])
                jumps += floor > target
        assert jumps

    def test_floor_below_target_raises(self, monkeypatch, floor_below_cap):
        # A "feasible" verdict whose solution uses a bundle worth less than
        # the probed target proves nothing about that target.
        probe, probes = configlp.clp_feasible, []

        def at_zero(instance, target):
            probes.append(target)
            return probe(instance, F(0))

        monkeypatch.setattr(configlp, "clp_feasible", at_zero)
        with pytest.raises(VerificationFailed, match="uses a bundle worth"):
            compute_T_star(floor_below_cap)
        assert probes == [F(2)]

    def test_infeasible_above_top(self, bounded_searches):
        # An infeasible probe proves its top an upper end: CLP is infeasible
        # above it.  Replaying the bisection with the floor and the
        # enumerated top as its jumps gives exactly the search's probes.
        jumps = 0
        for instance, t_star, probes in bounded_searches:
            points, scale = subset_sum_breakpoints(instance), instance.scale
            lo = int(greedy_floor(instance) * scale)
            hi = math.floor(value_cap(instance) * scale)
            for target, verdict in probes:
                assert target * scale == (lo + hi + 1) // 2
                if verdict.feasible:
                    floor = min(
                        bundle_value(instance, col.player, col.bundle)
                        for col, _ in verdict.solution
                    )
                    lo = min(int(floor * scale), hi)
                    continue
                top = enumerated_top(instance, verdict.prices)
                assert t_star <= top < target and top in points
                above = points[points.index(top) + 1]
                assert not clp_feasible(instance, above).feasible
                hi = int(top * scale)
                jumps += above < target
            assert lo == hi == t_star * scale
        assert jumps

    def test_top_reads_an_absent_price_as_zero(self):
        # z prices only a.  The feasibility check reads b's absent price as
        # 0, and so does the top: {b} costs 0 < y = 1 for p.
        inst = make_instance({"a": 1, "b": F(1, 2)}, {"p": ["a", "b"], "q": ["a"]})
        prices = DualCertificate(y={"p": F(1), "q": F(0)}, z={"a": F(1)})
        report = verify_certificate_feasibility(normalize(inst, F(1)), prices)
        assert report.passed and report.margins["p"] == 0
        assert F(configlp._top(inst, prices), inst.scale) == F(1, 2)
        assert enumerated_top(inst, prices) == F(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_top_agrees_with_enumeration(self, data):
        # Small palettes give runs of equal value at unequal prices and
        # equal prices across runs; zero values, zero and absent prices,
        # players with y = 0 or no y, and int and Fraction prices are all
        # drawn.  The first player has y > 0, so some bundle is priced.
        rationals = st.one_of(
            st.integers(0, 3),
            st.fractions(min_value=0, max_value=3, max_denominator=12),
        )
        value_palette = data.draw(st.lists(rationals, min_size=1, max_size=3))
        price_palette = data.draw(st.lists(rationals, min_size=1, max_size=3))
        resources = [f"r{j}" for j in range(data.draw(st.integers(1, 8)))]
        players = [f"p{k}" for k in range(data.draw(st.integers(1, 3)))]
        inst = make_instance(
            {r: data.draw(st.sampled_from(value_palette)) for r in resources},
            {
                p: data.draw(st.lists(st.sampled_from(resources), min_size=1, unique=True))
                for p in players
            },
        )
        positive = st.one_of(
            st.integers(1, 4), st.fractions(min_value=F(1, 12), max_value=4)
        )
        maybe = st.one_of(st.none(), st.just(0), rationals)
        y = {}
        for k, p in enumerate(players):
            if (v := data.draw(positive if k == 0 else maybe)) is not None:
                y[p] = v
        price = st.one_of(st.none(), st.sampled_from(price_palette))
        z = {}
        for r in resources:
            if (v := data.draw(price)) is not None:
                z[r] = v
        prices = DualCertificate(y=y, z=z)
        top = configlp._top(inst, prices)
        assert type(top) is int
        assert F(top, inst.scale) == enumerated_top(inst, prices)

    def test_top_at_target_raises(self, monkeypatch, floor_below_cap):
        # Prices under which a bundle worth the probed target costs less than
        # its player's y are not dual feasible at that target.
        forged, probes = forged_infeasible(1, 0), []

        def first_probe_only(instance, target):
            probes.append(target)
            if len(probes) > 1:
                pytest.fail("the search went on past a top at the probe")
            return forged(instance, target)

        monkeypatch.setattr(configlp, "clp_feasible", first_probe_only)
        with pytest.raises(VerificationFailed, match="cheaper than its player's"):
            compute_T_star(floor_below_cap)
        assert probes == [F(2)]

    def test_top_below_floor_raises(self, monkeypatch, floor_below_cap):
        # T* = 1: the greedy floor is 1, and the probe at 2 is infeasible.
        # Prices under which only the empty bundle is cheap put T* at 0,
        # below the proven floor.
        inst = floor_below_cap
        assert compute_T_star(inst) == 1
        probe, forged = configlp.clp_feasible, forged_infeasible(F(1, 2), 1)

        def feasible_or_forged(instance, target):
            verdict = probe(instance, target)
            return verdict if verdict.feasible else forged(instance, target)

        monkeypatch.setattr(configlp, "clp_feasible", feasible_or_forged)
        with pytest.raises(VerificationFailed, match="outside \\[1, 2\\)"):
            compute_T_star(inst)

    def test_probes_within_bit_length(self, bounded_searches):
        # Each probe at least halves the interval of weight units, which
        # starts at the greedy floor.
        for instance, _, probes in bounded_searches:
            lo = int(greedy_floor(instance) * instance.scale)
            hi = math.floor(value_cap(instance) * instance.scale)
            assert len(probes) <= (hi - lo).bit_length()

    def test_agrees_with_plain_bisection(self, bounded_searches):
        bounded = plain = 0
        for instance, t_star, probes in bounded_searches:
            points = subset_sum_breakpoints(instance)
            expected, count = plain_T_star(
                points, lambda t: clp_feasible(instance, t).feasible
            )
            assert t_star == expected
            cap = value_cap(instance)
            assert all(target <= cap for target, _ in probes)
            bounded += len(probes)
            plain += count
        assert bounded < plain


FLOOR_GRID = BOUND_GRID + [(kind, 5, 10, seed) for kind in KINDS for seed in range(10)]

# Forged results for `floor_below_cap` (p1 desires a and b, p2 desires a and
# c): the function replaced, what the forgery returns, and the message it
# must raise.  No integral allocation is worth more than the true cap, so
# the last forges the cap instead, with a ceiling of 0.
FORGED_FLOORS = {
    "undesired": (
        "_integral_floor", {"p1": {"a", "c"}, "p2": set()}, "undesired resource 'c'"
    ),
    "shared": ("_integral_floor", {"p1": {"a"}, "p2": {"a", "c"}}, "gives 'a' to both"),
    "above-cap": ("_ceiling", 0, "above the cap"),
}


class TestIntegralFloor:
    def test_greedy_allocation_bounds_T_star(self):
        reached = 0
        for spec in FLOOR_GRID:
            inst = generate_instance(*spec)
            bundles = configlp._integral_floor(inst)
            assert set(bundles) == set(inst.players)
            # Every positive-value desired resource is allocated; the rest
            # is worth nothing to anyone and completes the partition.
            held = set().union(*bundles.values())
            assert held == set().union(*inst.candidates.values())
            full = {p: set(b) for p, b in bundles.items()}
            full[inst.players[0]] |= set(inst.resources) - held
            floor = F(configlp._allocation_floor(inst, bundles), inst.scale)
            assert verify_allocation(inst, full) == floor
            t_star = compute_T_star(inst)
            assert floor <= t_star
            reached += floor == t_star
        assert reached

    @pytest.mark.parametrize("case", sorted(FORGED_FLOORS))
    def test_forged_floor_raises(self, monkeypatch, floor_below_cap, case):
        name, forged, message = FORGED_FLOORS[case]
        monkeypatch.setattr(configlp, name, lambda instance: forged)
        with pytest.raises(VerificationFailed, match=message):
            compute_T_star(floor_below_cap)

    def test_forged_floor_raises_under_python_optimize(self):
        cases = [FORGED_FLOORS[case] for case in sorted(FORGED_FLOORS)]
        script = textwrap.dedent(
            """
            import sys
            from maxminfair import configlp, validate_instance
            from maxminfair.errors import VerificationFailed

            assert not __debug__, "expected python -O"
            inst = validate_instance({
                "players": ["p1", "p2"],
                "resources": [{"id": "a", "value": "2"}, {"id": "b", "value": "1"},
                              {"id": "c", "value": "1"}],
                "desires": {"p1": ["a", "b"], "p2": ["a", "c"]},
            })
            originals = vars(configlp).copy()
            for name, forged, _ in eval(sys.argv[1]):
                setattr(configlp, name, lambda instance: forged)
                try:
                    configlp.compute_T_star(inst)
                except VerificationFailed as exc:
                    print(exc)
                else:
                    print("accepted")
                setattr(configlp, name, originals[name])
            """
        )
        proc = run_python_optimize("-c", script, repr(cases))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(cases)
        for line, (_, _, message) in zip(lines, cases):
            assert message in line

    @pytest.mark.parametrize("name", ["two_fat", "thin_chain", "ten_thin"])
    def test_floor_at_cap_needs_no_probe(self, monkeypatch, request, name):
        instance = request.getfixturevalue(name)
        probes = []
        monkeypatch.setattr(
            configlp, "clp_feasible", lambda inst, target: probes.append(target)
        )
        t_star = compute_T_star(instance)
        assert probes == []
        assert t_star == exact_T_star_enumerated(instance)


class TestProperties:
    def test_anti_monotone_feasibility(self):
        for seed in range(8):
            inst = generate_instance("uniform", 3, 6, seed)
            points = subset_sum_breakpoints(inst)
            statuses = [clp_feasible(inst, t).feasible for t in points]
            # Once infeasible, larger targets stay infeasible.
            for earlier, later in zip(statuses, statuses[1:]):
                assert earlier or not later

    def test_infeasible_certificates_are_sound(self):
        for seed in range(8):
            inst = generate_instance("uniform", 3, 6, seed)
            t_star = compute_T_star(inst)
            verdict = clp_feasible(inst, t_star + F(1, 7))
            assert verdict.status == INFEASIBLE
            prices = verdict.prices
            assert prices.objective > 0
            for p in inst.players:
                priced = min_cost_configuration(
                    inst, p, prices.z, t_star + F(1, 7)
                )
                if priced is not None:
                    assert prices.y[p] <= priced[0]

    def test_agreement_with_enumerated_oracle(self):
        for seed in range(10):
            inst = generate_instance("uniform", 3, 6, seed)
            t_cg = compute_T_star(inst)
            assert t_cg == exact_T_star_enumerated(inst)
            for t in (F(0), t_cg, t_cg + F(1, 9)):
                assert clp_feasible(inst, t).feasible == enumerated_clp_feasible(
                    inst, t
                )


def master_lp(instance, pool):
    """Reference phase-1 master over `pool`, in the live master's variable
    order: one unit shortfall column per player, then the pool's columns."""
    m = len(instance.players)
    width = m + len(pool)
    player_rows = [[0] * width for _ in instance.players]
    resource_rows = [[0] * width for _ in instance.resources]
    for pi, row in enumerate(player_rows):
        row[pi] = 1
    for j, col in enumerate(pool):
        player_rows[instance.player_index(col.player)][m + j] = 1
        for r in col.bundle:
            resource_rows[instance.resource_index(r)][m + j] = 1
    rows = [(row, ">=", 1) for row in player_rows]
    rows += [(row, "<=", 1) for row in resource_rows]
    return LinearProgram.minimize([1] * m + [0] * len(pool), rows)


def record_T_star_search(monkeypatch, specs):
    """`compute_T_star` on each generated instance of `specs`, recording in
    order each master optimum ("optimum", outcome), each pricing call
    ("pricing", (instance, player)) and each verdict ("verdict", status)."""
    events = []
    optimize = Tableau.optimize
    price = configlp.min_cost_configuration
    probe = configlp.clp_feasible

    def recording_optimize(tableau):
        out = optimize(tableau)
        events.append(("optimum", out))
        return out

    def recording_price(instance, player, prices, target):
        events.append(("pricing", (instance, player)))
        return price(instance, player, prices, target)

    def recording_probe(instance, target):
        verdict = probe(instance, target)
        events.append(("verdict", verdict.status))
        return verdict

    monkeypatch.setattr(Tableau, "optimize", recording_optimize)
    monkeypatch.setattr(configlp, "min_cost_configuration", recording_price)
    monkeypatch.setattr(configlp, "clp_feasible", recording_probe)
    for spec in specs:
        compute_T_star(generate_instance(*spec))
    return events


class TestVerificationGates:
    def test_every_master_lp_verifies(self, monkeypatch):
        # Every round of every probe: the live master's outcome must be the
        # verified optimum of the master LP over that round's pool, built
        # here from scratch.
        rounds = []
        checked = 0
        optimize = Tableau.optimize
        probe = configlp.clp_feasible

        def recording(tableau):
            out = optimize(tableau)
            rounds.append((tableau, tableau.num_vars, out))
            return out

        def verifying(instance, target):
            nonlocal checked
            rounds.clear()
            verdict = probe(instance, target)
            m = len(instance.players)
            # One live master per probe, growing by each round's columns.
            assert len({id(tableau) for tableau, _, _ in rounds}) == 1
            widths = [width for _, width, _ in rounds]
            assert widths[0] == m and widths[-1] == m + len(verdict.transcript)
            assert widths == sorted(set(widths))
            for _, width, out in rounds:
                lp = master_lp(instance, verdict.transcript[: width - m])
                assert verify_outcome(lp, out) == []
                checked += 1
            return verdict

        monkeypatch.setattr(Tableau, "optimize", recording)
        monkeypatch.setattr(configlp, "clp_feasible", verifying)
        for kind in KINDS:
            for seed in range(10):
                compute_T_star(generate_instance(kind, 3, 6, seed))
        assert checked

    def test_no_pricing_after_zero_shortfall(self, monkeypatch):
        # Prices only certify infeasibility: an optimum with zero shortfall
        # ends the call as feasible, with no pricing round after it.
        events = record_T_star_search(
            monkeypatch, [(kind, 3, 6, seed) for kind in KINDS for seed in range(10)]
        )
        last_optimum = None
        seen = {"pricing": 0, FEASIBLE: 0, INFEASIBLE: 0}
        for kind, detail in events:
            if kind == "optimum":
                last_optimum = detail.objective
            elif kind == "pricing":
                assert last_optimum != 0
                seen["pricing"] += 1
            else:
                assert (last_optimum == 0) == (detail == FEASIBLE)
                seen[detail] += 1
                last_optimum = None
        assert all(seen.values())

    def test_no_pricing_at_zero_dual(self, monkeypatch):
        # Every cost is >= 0, so a player whose dual y is 0 can never gain a
        # column: only players with a positive dual in the latest optimum are
        # priced.
        events = record_T_star_search(monkeypatch, BOUND_GRID)
        last_optimum, priced = None, 0
        for kind, detail in events:
            if kind == "optimum":
                last_optimum = detail
            elif kind == "pricing":
                instance, player = detail
                assert last_optimum.dual[instance.player_index(player)] > 0
                priced += 1
        assert priced

    def test_negative_prices_unpriced_round_raises(self, monkeypatch, two_fat):
        # Every y is 0, so no player is priced, and the positive objective
        # comes from a negative resource price alone.
        monkeypatch.setattr(
            Tableau,
            "optimize",
            lambda tableau: LpOutcome(
                status=OPTIMAL,
                primal=(F(0),) * tableau.num_vars,
                dual=(F(0), F(0), F(1), F(0)),
                objective=F(1),
            ),
        )
        with pytest.raises(VerificationFailed):
            clp_feasible(two_fat, F(1))

    def test_negative_master_price_raises_before_pricing(self, monkeypatch, two_fat):
        # Every y is positive, so the round would price; its resource prices
        # are checked first, and the solver's own price fails as a fault.
        calls = []

        def recording(*args):
            calls.append(args)
            return min_cost_configuration(*args)

        monkeypatch.setattr(Tableau, "optimize", negative_price_optimize)
        monkeypatch.setattr(configlp, "min_cost_configuration", recording)
        with pytest.raises(VerificationFailed, match="'a' below 0"):
            clp_feasible(two_fat, F(1))
        assert calls == []

    def test_feasible_recheck_reads_weights_over_the_denominator(
        self, monkeypatch, two_fat
    ):
        # The zero-shortfall optimum read over twice its denominator gives
        # each player half a unit, which the integer re-check must see.
        optimize = Tableau.optimize

        def halved(tableau):
            out = optimize(tableau)
            if out.objective != 0:
                return out
            return replace(out, denominator=2 * out.denominator)

        monkeypatch.setattr(Tableau, "optimize", halved)
        with pytest.raises(VerificationFailed, match="leaves a player short"):
            clp_feasible(two_fat, F(1))

    def test_corrupted_master_raises(self, monkeypatch, two_fat):
        monkeypatch.setattr(Tableau, "optimize", zero_optimize)
        with pytest.raises(VerificationFailed):
            clp_feasible(two_fat, F(1))

    def test_corrupted_oracle_lp_raises(self, monkeypatch, two_fat):
        monkeypatch.setattr(oracle, "solve_lp", zero_outcome)
        with pytest.raises(VerificationFailed):
            enumerated_clp_feasible(two_fat, F(1))

    def test_repriced_pooled_column_raises(self, monkeypatch, two_fat):
        # Pricing that offers an already pooled bundle below y[p] again would
        # make column generation loop forever.
        monkeypatch.setattr(
            configlp,
            "min_cost_configuration",
            lambda instance, player, prices, target: (F(-1), frozenset({"a", "b"})),
        )
        with pytest.raises(VerificationFailed, match="pooled column"):
            clp_feasible(two_fat, F(1))

    def test_master_gate_survives_python_optimize(self):
        script = """
            Tableau.optimize = lambda tableau: LpOutcome(
                status=OPTIMAL,
                primal=(Fraction(0),) * tableau.num_vars,
                dual=(Fraction(0),) * tableau.num_rows,
                objective=Fraction(0),
            )
            """
        assert _clp_under_python_optimize(script) == "VerificationFailed"

    def test_master_price_gate_survives_python_optimize(self):
        script = """
            Tableau.optimize = lambda tableau: LpOutcome(
                status=OPTIMAL,
                primal=(Fraction(0),) * tableau.num_vars,
                dual=(Fraction(1), Fraction(1), Fraction(1), Fraction(0)),
                objective=Fraction(1),
            )
            """
        assert _clp_under_python_optimize(script) == "VerificationFailed"

    def test_pooled_column_gate_survives_python_optimize(self):
        script = """
            configlp.min_cost_configuration = (
                lambda instance, player, prices, target:
                    (Fraction(-1), frozenset({"a", "b"}))
            )
            """
        assert _clp_under_python_optimize(script) == "VerificationFailed"


def _clp_under_python_optimize(patch: str) -> str:
    """Run `patch`, then clp_feasible on two_fat at 1, in a `python -O` child."""
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from maxminfair import configlp, validate_instance
        from maxminfair.errors import VerificationFailed
        from maxminfair.simplex import OPTIMAL, LpOutcome, Tableau

        assert not __debug__, "expected python -O"
        """
    ) + textwrap.dedent(patch) + textwrap.dedent(
        """
        inst = validate_instance({
            "players": ["p1", "p2"],
            "resources": [{"id": "a", "value": "1"}, {"id": "b", "value": "1"}],
            "desires": {"p1": ["a", "b"], "p2": ["a", "b"]},
        })
        try:
            configlp.clp_feasible(inst, Fraction(1))
        except VerificationFailed:
            print("VerificationFailed")
        else:
            print("accepted")
        """
    )
    proc = run_python_optimize("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
