import functools
import random
from fractions import Fraction

import pytest

from maxminfair import (
    DualCertificate,
    certificates,
    check_blocker_balances,
    compute_T_star,
    construct_dual_certificate,
    find_perfect_matching,
    generate_instance,
    normalize,
    verify_certificate_feasibility,
)
from maxminfair.configlp import min_cost_configuration
from maxminfair.errors import StateNotStuck
from maxminfair.generators import KINDS
from maxminfair.matching import Edge, Matching, extend_matching
from maxminfair.oracle import exact_T_star_enumerated

from conftest import make_instance

F = Fraction

ACTIVE_PRICE = F(15, 23)


def stuck_state(instance, target=F(1)):
    ni = normalize(instance, target)
    out = find_perfect_matching(ni)
    assert out.status == "stuck"
    return ni, out.state


class TestConstantIdentities:
    def test_claim_arithmetic(self):
        lam = F(6, 23)
        assert 1 - F(4, 3) * lam == F(15, 23)
        assert 3 * (F(5, 6) * lam) == F(15, 23)
        assert F(5, 2) * lam == F(15, 23)
        assert 2 * lam <= 1 - F(4, 3) * lam


class TestConstruct:
    def test_shared_single_resource(self, shared_single):
        ni, state = stuck_state(shared_single)
        cert = construct_dual_certificate(ni, state)
        assert cert.y == {"p1": ACTIVE_PRICE, "p2": ACTIVE_PRICE}
        assert cert.z == {"r": ACTIVE_PRICE}
        assert cert.objective == ACTIVE_PRICE

    def test_covered_thin_resource_priced_at_value(self):
        # p2 can only reach t1..t3 (worth 9/23 together); p1 holds them.
        inst = make_instance(
            {"t1": "3/23", "t2": "3/23", "t3": "3/23"},
            {"p1": ["t1", "t2", "t3"], "p2": ["t1", "t2", "t3"]},
        )
        ni, state = stuck_state(inst)
        cert = construct_dual_certificate(ni, state)
        covered = state.covered
        assert covered  # the blocked thin bundle is covered
        for r in covered:
            assert cert.z[r] == min(F(3, 23), F(5, 23)) == F(3, 23)

    def test_uncovered_resource_priced_zero(self):
        inst = make_instance(
            {"r": "1", "far": "1"},
            {"p1": ["r"], "p2": ["r"], "p3": ["far"]},
            players=["p1", "p2", "p3"],
        )
        ni, state = stuck_state(inst)
        cert = construct_dual_certificate(ni, state)
        assert cert.z["far"] == 0
        assert cert.y["p3"] == 0  # never active

    def test_requires_stuck_state(self, two_fat):
        ni = normalize(two_fat, F(1))
        out = extend_matching(ni, Matching.empty(), "p1")
        with pytest.raises(StateNotStuck):
            construct_dual_certificate(ni, out.state)


class TestVerifyFeasibility:
    def test_shared_single_margin_zero(self, shared_single):
        ni, state = stuck_state(shared_single)
        cert = construct_dual_certificate(ni, state)
        report = verify_certificate_feasibility(ni, cert)
        assert report.passed
        # Each player's only configuration is {r}: margin exactly zero.
        assert report.margins == {"p1": F(0), "p2": F(0)}

    def test_inactive_player_vacuous(self):
        inst = make_instance(
            {"r": "1", "far": "1"},
            {"p1": ["r"], "p2": ["r"], "p3": ["far"]},
            players=["p1", "p2", "p3"],
        )
        ni, state = stuck_state(inst)
        cert = construct_dual_certificate(ni, state)
        report = verify_certificate_feasibility(ni, cert)
        assert report.passed
        assert report.margins["p3"] >= 0

    def test_corrupted_certificate_fails(self, shared_single):
        ni, state = stuck_state(shared_single)
        cert = construct_dual_certificate(ni, state)
        broken = DualCertificate(y=cert.y, z={"r": F(1, 23)})
        report = verify_certificate_feasibility(ni, broken)
        assert not report.passed
        assert report.margins["p1"] < 0

    def test_negative_price_fails_without_pricing(self, monkeypatch):
        # z >= 0 is part of the dual feasibility checked here: one negated
        # covered price fails the check, naming its resource, before any
        # player is priced.  The balance check reads the same prices.
        inst = make_instance(
            {"t1": "3/23", "t2": "3/23", "t3": "3/23"},
            {"p1": ["t1", "t2", "t3"], "p2": ["t1", "t2", "t3"]},
        )
        ni, state = stuck_state(inst)
        cert = construct_dual_certificate(ni, state)
        r = ni.base.sorted_resources(state.covered)[0]
        broken = DualCertificate(y=cert.y, z={**cert.z, r: -cert.z[r]})

        def unreachable(*args):
            pytest.fail("a certificate with a negative price was priced")

        monkeypatch.setattr(certificates, "min_cost_configuration", unreachable)
        report = verify_certificate_feasibility(ni, broken)
        assert not report.passed
        assert report.margins == {}
        assert len(report.failures) == 1 and repr(r) in report.failures[0]
        balances = check_blocker_balances(ni, state, broken)
        assert balances.objective == broken.objective
        assert len(balances.balances) == len(state.blockers)

    def test_scaling_keeps_feasibility(self, shared_single):
        ni, state = stuck_state(shared_single)
        cert = construct_dual_certificate(ni, state)
        for alpha in (F(2), F(10)):
            scaled = cert.scaled(alpha)
            assert verify_certificate_feasibility(ni, scaled).passed
            assert scaled.objective == alpha * cert.objective


class TestBlockerBalances:
    def test_fat_blocker_balances_to_zero(self, shared_single):
        ni, state = stuck_state(shared_single)
        cert = construct_dual_certificate(ni, state)
        report = check_blocker_balances(ni, state, cert)
        assert report.passed
        assert report.balances == (F(0),)
        assert report.objective == ACTIVE_PRICE

    def test_thin_blockers_balance(self):
        inst = make_instance(
            {"t1": "3/23", "t2": "3/23", "t3": "3/23"},
            {"p1": ["t1", "t2", "t3"], "p2": ["t1", "t2", "t3"]},
        )
        ni, state = stuck_state(inst)
        cert = construct_dual_certificate(ni, state)
        report = check_blocker_balances(ni, state, cert)
        assert report.passed
        assert all(b >= 0 for b in report.balances)
        assert report.objective == cert.y[state.root_player] + sum(report.balances)

    def test_single_blocker_of_chunky_thin_resources(self):
        # All values 4/23 > half the threshold, so minimal bundles have two
        # resources; the candidate and its single blocking edge overlap in
        # one resource and cover three in total, priced 4/23 each.
        inst = make_instance(
            {"u": "4/23", "v": "4/23", "w": "4/23"},
            {"p1": ["u", "v"], "p2": ["v", "w"]},
        )
        ni = normalize(inst, F(1))
        out = extend_matching(
            ni, Matching.of([Edge("p1", frozenset({"u", "v"}), "thin")]), "p2"
        )
        assert out.status == "stuck"
        state = out.state
        cert = construct_dual_certificate(ni, state)
        assert cert.z == {"u": F(4, 23), "v": F(4, 23), "w": F(4, 23)}
        report = check_blocker_balances(ni, state, cert)
        assert report.passed
        assert report.balances == (F(3, 23),)  # 15/23 - 3 * 4/23
        assert cert.objective == F(18, 23)
        assert verify_certificate_feasibility(ni, cert).passed

    def test_groups_are_read_off_the_state(self, shared_single):
        # A certificate is its prices: the same y and z, passed bare, give
        # the same per-blocker balances, one per blocker of the halted state.
        thin = make_instance(
            {"t1": "3/23", "t2": "3/23", "t3": "3/23"},
            {"p1": ["t1", "t2", "t3"], "p2": ["t1", "t2", "t3"]},
        )
        for instance in (shared_single, thin):
            ni, state = stuck_state(instance)
            cert = construct_dual_certificate(ni, state)
            bare = check_blocker_balances(ni, state, DualCertificate(y=cert.y, z=cert.z))
            assert state.blockers
            assert len(bare.balances) == len(state.blockers)
            assert bare == check_blocker_balances(ni, state, cert)

    def test_json_export_shape(self, shared_single):
        ni, state = stuck_state(shared_single)
        cert = construct_dual_certificate(ni, state)
        payload = cert.to_json_dict()
        assert payload["objective"] == "15/23"
        assert payload["y"] == {"p1": "15/23", "p2": "15/23"}
        blockers = check_blocker_balances(ni, state, cert).blockers_json()
        assert blockers == [
            {"index": 0, "players": ["p1"], "resources": ["r"], "balance": "0"}
        ]


class TestEndToEndSoundness:
    def test_forced_targets_yield_sound_certificates(self):
        # The search may still find a perfect matching somewhat beyond the
        # optimum (it only promises 6/23 of the target), so escalate the
        # target until it actually gets stuck; ever-larger targets shrink
        # the hypergraph to nothing, so this always terminates.
        produced = 0
        for seed in range(12):
            inst = generate_instance("uniform", 3, 6, seed)
            t_star = compute_T_star(inst)
            target = t_star + F(1, 10)
            while True:
                ni = normalize(inst, target)
                out = find_perfect_matching(ni)
                if out.status == "stuck":
                    break
                target *= 2
            produced += 1
            cert = construct_dual_certificate(ni, out.state)
            assert verify_certificate_feasibility(ni, cert).passed
            assert check_blocker_balances(ni, out.state, cert).passed
            assert cert.objective >= ACTIVE_PRICE
            # Weak duality realized: a stuck state certifies the target is
            # beyond the optimum.
            assert exact_T_star_enumerated(inst) < target
        assert produced == 12

    def test_never_stuck_at_or_below_optimum(self):
        for seed in range(12):
            inst = generate_instance("uniform", 3, 6, seed)
            t_star = compute_T_star(inst)
            if t_star == 0:
                continue
            for target in (t_star, t_star * F(2, 3)):
                ni = normalize(inst, target)
                assert find_perfect_matching(ni).perfect


# Reference checks on plain `Fraction`s, one price at a time, with the same
# messages as the integer checks; an absent price reads as 0.
def reference_certificate(ni, state):
    y = {p: (ACTIVE_PRICE if p in state.active else F(0)) for p in ni.base.players}
    z = {}
    for r in ni.base.resources:
        if r not in state.covered:
            z[r] = F(0)
        elif ni.is_fat(r):
            z[r] = ACTIVE_PRICE
        else:
            z[r] = min(ni.value(r), F(5, 23))
    return DualCertificate(y=y, z=z)


def reference_feasibility(ni, cert):
    failures = [f"resource {r!r}: price {v} < 0" for r, v in cert.z.items() if v < 0]
    if failures:
        return False, {}, failures
    margins = {}
    for p in ni.base.players:
        priced = min_cost_configuration(ni.base, p, cert.z, ni.target)
        if priced is None:
            margins[p] = None
            continue
        cost, _ = priced
        price = cert.y.get(p, F(0))
        margins[p] = cost - price
        if cost < price:
            failures.append(
                f"player {p!r}: cheapest configuration costs {cost} < y = {price}"
            )
    return not failures, margins, failures


def reference_balances(ni, state, cert):
    def y(p):
        return cert.y.get(p, F(0))

    def z(r):
        return cert.z.get(r, F(0))

    balances, failures = [], []
    for i, b in enumerate(state.blockers):
        resources = b.candidate.bundle.union(*[e.bundle for e in b.blocking])
        balance = sum((y(e.player) for e in b.blocking), F(0)) - sum(
            (z(r) for r in resources), F(0)
        )
        balances.append(balance)
        if balance < 0:
            failures.append(f"blocker {i}: player prices fall short by {-balance}")
    objective = sum(cert.y.values(), F(0)) - sum(cert.z.values(), F(0))
    decomposed = y(state.root_player) + sum(balances, F(0))
    if objective != decomposed:
        failures.append(f"objective {objective} != root price + balances {decomposed}")
    if y(state.root_player) != ACTIVE_PRICE:
        failures.append("root player is not priced as active")
    if objective < ACTIVE_PRICE:
        failures.append(f"objective {objective} below the root price {ACTIVE_PRICE}")
    return not failures, tuple(balances), objective, failures


def assert_reports_match_reference(ni, state, cert):
    feasibility = verify_certificate_feasibility(ni, cert)
    passed, margins, failures = reference_feasibility(ni, cert)
    assert feasibility.passed == passed
    assert feasibility.margins == margins
    assert list(feasibility.failures) == failures
    assert all(type(m) is F for m in feasibility.margins.values() if m is not None)
    balances = check_blocker_balances(ni, state, cert)
    passed, expected, objective, failures = reference_balances(ni, state, cert)
    assert balances.passed == passed
    assert balances.balances == expected
    assert all(type(b) is F for b in balances.balances)
    assert balances.objective == objective == cert.objective
    assert type(balances.objective) is F and type(cert.objective) is F
    assert list(balances.failures) == failures
    return feasibility, balances


LADDER = (F(1, 2), F(1), F(3, 2), F(2), F(3), F(4))
DENOMINATORS = (1, 3, 7, 23, 1000)


@functools.lru_cache(maxsize=None)
def halted_states():
    """(ni, state) at the first rung of LADDER × ceiling where the search
    halts, for each kind at 6×14, 8×20 and 10×25, generator seeds 0–9."""
    states = []
    for kind in KINDS:
        for players, resources in ((6, 14), (8, 20), (10, 25)):
            for seed in range(10):
                inst = generate_instance(kind, players, resources, seed)
                ceiling = min(
                    sum((inst.value[r] for r in inst.desired_by(p)), F(0))
                    for p in inst.players
                )
                for rung in LADDER:
                    ni = normalize(inst, ceiling * rung)
                    out = find_perfect_matching(ni)
                    if not out.perfect:
                        states.append((ni, out.state))
                        break
    return tuple(states)


def forge(cert, rng, negative):
    """Each price moved by a random multiple of 1/d, d drawn from
    DENOMINATORS; without `negative`, every resource price stays >= 0."""

    def move(v):
        return v + F(rng.randint(-3, 3), rng.choice(DENOMINATORS))

    y = {p: move(v) for p, v in cert.y.items()}
    z = {r: move(v) for r, v in cert.z.items()}
    if not negative:
        z = {r: abs(v) for r, v in z.items()}
    return DualCertificate(y=y, z=z)


class TestIntegerPath:
    def test_generated_certificates_match_the_fraction_checks(self):
        states = halted_states()
        assert len(states) == 90
        for ni, state in states:
            cert = construct_dual_certificate(ni, state)
            assert cert == reference_certificate(ni, state)
            assert all(type(v) is F for v in (*cert.y.values(), *cert.z.values()))
            feasibility, balances = assert_reports_match_reference(ni, state, cert)
            assert feasibility.passed and balances.passed
            assert cert.objective >= ACTIVE_PRICE

    def test_forged_mixed_denominators_fail_as_the_fraction_checks(self):
        rng = random.Random(0)
        failed = set()
        for ni, state in halted_states()[::3]:
            cert = construct_dual_certificate(ni, state)
            for negative in (False, True):
                forged = forge(cert, rng, negative)
                feasibility, balances = assert_reports_match_reference(ni, state, forged)
                failed.update(message.split(" ")[0] for message in feasibility.failures)
                failed.update(message.split(" ")[0] for message in balances.failures)
        # Every kind of failure occurs: negative price, short player, short
        # blocker, objective and root price.
        assert failed == {"resource", "player", "blocker", "objective", "root"}

    def test_forged_messages(self):
        # Recorded before the checks ran on integers.  The balances read the
        # halted state at target 1, where no configuration exists; pricing
        # runs at 8/23, where each player's two resources are one.
        inst = make_instance(
            {"u": "4/23", "v": "4/23", "w": "4/23"},
            {"p1": ["u", "v"], "p2": ["v", "w"]},
        )
        ni = normalize(inst, F(1))
        out = extend_matching(
            ni, Matching.of([Edge("p1", frozenset({"u", "v"}), "thin")]), "p2"
        )
        forged = DualCertificate(
            y={"p1": F(2, 3), "p2": F(5, 7)},
            z={"u": F(1, 1000), "v": F(6, 23), "w": F(1, 2)},
        )
        assert verify_certificate_feasibility(ni, forged).margins == {
            "p1": None,
            "p2": None,
        }
        feasibility = verify_certificate_feasibility(normalize(inst, F(8, 23)), forged)
        assert feasibility.failures == (
            "player 'p1': cheapest configuration costs 6023/23000 < y = 2/3",
        )
        assert feasibility.margins == {"p1": F(-27931, 69000), "p2": F(15, 322)}
        balances = check_blocker_balances(ni, out.state, forged)
        assert balances.failures == (
            "blocker 0: player prices fall short by 6569/69000",
            "root player is not priced as active",
            "objective 299017/483000 below the root price 15/23",
        )
        assert balances.balances == (F(-6569, 69000),)
        assert balances.objective == F(299017, 483000)
        negative = DualCertificate(y=forged.y, z={**forged.z, "v": F(-1, 3)})
        assert verify_certificate_feasibility(ni, negative).failures == (
            "resource 'v': price -1/3 < 0",
        )

    def test_absent_price_reads_as_zero(self, shared_single):
        # z lacks "r": feasibility prices it at 0 and fails, and the balance
        # check reads the same 0 instead of raising KeyError; an absent
        # player price reads as 0 in both.
        ni, state = stuck_state(shared_single)
        forged = DualCertificate(y={"p1": ACTIVE_PRICE, "p2": ACTIVE_PRICE}, z={})
        feasibility = verify_certificate_feasibility(ni, forged)
        assert not feasibility.passed
        assert feasibility.margins == {"p1": -ACTIVE_PRICE, "p2": -ACTIVE_PRICE}
        balances = check_blocker_balances(ni, state, forged)
        assert balances.passed
        assert balances.balances == (ACTIVE_PRICE,)
        assert balances.objective == 2 * ACTIVE_PRICE
        no_y = DualCertificate(y={}, z={"r": ACTIVE_PRICE})
        assert verify_certificate_feasibility(ni, no_y).margins == {
            "p1": ACTIVE_PRICE,
            "p2": ACTIVE_PRICE,
        }
        balances = check_blocker_balances(ni, state, no_y)
        assert balances.balances == (-ACTIVE_PRICE,)
        assert "root player is not priced as active" in balances.failures

    def test_verification_prices_each_player_once_at_int_prices(self, monkeypatch):
        calls = []

        def spy(instance, player, prices, target):
            assert all(type(v) is int for v in prices.values())
            priced = min_cost_configuration(instance, player, prices, target)
            assert priced is None or type(priced[0]) is int
            calls.append(player)
            return priced

        monkeypatch.setattr(certificates, "min_cost_configuration", spy)
        for ni, state in halted_states()[::10]:
            cert = construct_dual_certificate(ni, state)
            calls.clear()
            verify_certificate_feasibility(ni, cert)
            assert calls == list(ni.base.players)
