import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from maxminfair import (
    bundle_value,
    clp_feasible,
    compute_T_star,
    configlp,
    construct_dual_certificate,
    find_perfect_matching,
    generate_instance,
    min_cost_configuration,
    normalize,
    oracle,
    subset_sum_breakpoints,
)
from maxminfair.configlp import FEASIBLE, INFEASIBLE
from maxminfair.errors import (
    BudgetExceeded,
    InvalidTarget,
    NegativePrice,
    VerificationFailed,
)
from maxminfair.generators import KINDS
from maxminfair.simplex import verify_outcome
from maxminfair.oracle import enumerated_clp_feasible, exact_T_star_enumerated

from conftest import make_instance, zero_outcome

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

    def test_lexicographic_tie_break(self):
        # Both {a} and {b} cost 0 at value 1; the earlier resource wins.
        inst = make_instance({"a": "1", "b": "1"}, {"p": ["a", "b"]})
        cost, bundle = min_cost_configuration(inst, "p", {}, F(1))
        assert cost == 0 and bundle == frozenset({"a"})

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_enumeration(self, data):
        # Denominators up to 1000 make the scaling LCMs large; a palette of
        # (value, price) pairs makes equal-cost bundles and exercises the
        # tie rule; zero values, a missing price, a price on a resource the
        # player does not desire and an int target are all drawn.
        fractions = st.one_of(
            st.just(F(0)),
            st.fractions(min_value=0, max_value=2, max_denominator=1000),
        )
        n = data.draw(st.integers(1, 9))
        resources = [f"r{j}" for j in range(n)]
        if data.draw(st.booleans()):
            palette = data.draw(
                st.lists(st.tuples(fractions, fractions), min_size=1, max_size=3)
            )
            pairs = [data.draw(st.sampled_from(palette)) for _ in resources]
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

    def test_agrees_with_enumeration_at_certificate_prices(self):
        # Every player's pricing at a stuck state's certificate, on 6x14
        # instances at four times the ceiling, where the search always halts.
        checked = 0
        for kind in KINDS:
            for seed in range(10):
                inst = generate_instance(kind, 6, 14, seed)
                ceiling = min(
                    bundle_value(inst, p, inst.desired_by(p)) for p in inst.players
                )
                ni = normalize(inst, 4 * ceiling)
                out = find_perfect_matching(ni)
                assert not out.perfect
                cert = construct_dual_certificate(ni, out.state)
                for p in inst.players:
                    assert min_cost_configuration(
                        ni.base, p, cert.z, F(1)
                    ) == enumerate_min_cost(ni.base, p, cert.z, F(1))
                    checked += 1
        assert checked == 180


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

    def test_transcript_lines(self, two_fat):
        verdict = clp_feasible(two_fat, F(1))
        lines = [entry.line() for entry in verdict.transcript]
        assert lines and all("player=" in line and "master=" in line for line in lines)

    def test_prices_json_round_trip(self, two_fat):
        verdict = clp_feasible(two_fat, F(3, 2))
        payload = verdict.prices.to_json_dict()
        assert payload["objective"] == "1"
        assert set(payload["y"]) == {"p1", "p2"}
        assert set(payload["z"]) == {"a", "b"}


class TestComputeTStar:
    def test_two_fat(self, two_fat):
        assert subset_sum_breakpoints(two_fat) == [F(0), F(1), F(2)]
        t, probes = compute_T_star(two_fat)
        assert t == 1
        assert probes  # the search solved at least one CLP

    def test_ten_thin(self, ten_thin):
        assert compute_T_star(ten_thin)[0] == 1

    def test_shared_single(self, shared_single):
        assert compute_T_star(shared_single)[0] == 0

    def test_budget_exceeded(self, ten_thin):
        with pytest.raises(BudgetExceeded):
            compute_T_star(ten_thin, budget=8)

    def test_bisect_brackets_exact(self, two_fat):
        t, _ = compute_T_star(two_fat, "bisect", delta=F(1, 64))
        assert clp_feasible(two_fat, t).feasible
        assert not clp_feasible(two_fat, t + F(1, 64)).feasible
        assert 1 - F(1, 64) <= t <= 1

    def test_scaling_covariance(self):
        for seed in range(4):
            inst = generate_instance("uniform", 3, 5, seed)
            base, _ = compute_T_star(inst)
            for c in (F(3, 2), F(1, 3), F(7)):
                scaled, _ = compute_T_star(inst.scaled(c))
                assert scaled == c * base


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
            t_star, _ = compute_T_star(inst)
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
            t_cg, _ = compute_T_star(inst)
            assert t_cg == exact_T_star_enumerated(inst)
            for t in (F(0), t_cg, t_cg + F(1, 9)):
                assert clp_feasible(inst, t).feasible == enumerated_clp_feasible(
                    inst, t
                )


class TestVerificationGates:
    def test_every_master_lp_verifies(self, monkeypatch):
        solved = []
        original = configlp.solve_lp

        def recording(lp):
            out = original(lp)
            solved.append((lp, out))
            return out

        monkeypatch.setattr(configlp, "solve_lp", recording)
        for kind in KINDS:
            for seed in range(10):
                compute_T_star(generate_instance(kind, 3, 6, seed))
        assert solved
        for lp, out in solved:
            assert verify_outcome(lp, out) == []

    def test_corrupted_master_raises(self, monkeypatch, two_fat):
        monkeypatch.setattr(configlp, "solve_lp", zero_outcome)
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
            configlp.solve_lp = lambda lp: LpOutcome(
                status=OPTIMAL,
                primal=(Fraction(0),) * lp.num_vars,
                dual=(Fraction(0),) * len(lp.rows),
                objective=Fraction(0),
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
        from maxminfair.simplex import OPTIMAL, LpOutcome

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
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
