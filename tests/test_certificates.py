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
from maxminfair.errors import StateNotStuck
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
