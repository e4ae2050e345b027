"""Dual certificates extracted from stuck search states.

When the local search halts with no addable edge and no removable blocker,
prices built from the halted state prove that the instance is infeasible at
the normalized instance's target.  The prices are in normalized units, where
the target is 1: every active player is priced at 1 - 4/3 * (6/23) = 15/23,
covered fat resources likewise, and covered thin resources at
min(value/target, 5/23).  The certificate is feasible for the configuration
dual at that target and has positive objective, so scaling it up makes the
dual unbounded.

The certificate is the prices alone.  Construction is never trusted, and
each claim is checked once: `construct_dual_certificate` refuses a state that
is not stuck; `verify_certificate_feasibility` re-derives dual feasibility:
z >= 0, then the exact pricing search (covering every case of the analysis
at once); and `check_blocker_balances` reads each blocker's players and
resources off the halted state and re-plays the per-blocker accounting that
makes the objective positive, which localizes any failure to a single
blocker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .configlp import DualCertificate, min_cost_configuration
from .errors import StateNotStuck
from .instances import GUARANTEE_FRACTION, NormalizedInstance, format_rational
from .matching import SearchState, find_addable_edge

_ZERO = Fraction(0)
_ACTIVE_PRICE = 1 - Fraction(4, 3) * GUARANTEE_FRACTION
_THIN_CAP = Fraction(5, 6) * GUARANTEE_FRACTION


def assert_stuck(ni: NormalizedInstance, state: SearchState) -> None:
    """Raise StateNotStuck unless neither move is available.

    `find_addable_edge` is complete: it returns an edge whenever an uncovered
    fat resource exists for an active player or the uncovered thin resources
    of an active player together reach the threshold, which are exactly the
    conditions under which any addable edge exists.
    """
    if any(b.removable for b in state.blockers):
        raise StateNotStuck("a removable blocker exists")
    edge = find_addable_edge(ni, state)
    if edge is not None:
        raise StateNotStuck(f"addable edge exists: {edge}")


def construct_dual_certificate(
    ni: NormalizedInstance, state: SearchState
) -> DualCertificate:
    """Prices proving CLP(target) infeasible, from a stuck state's coverage."""
    assert_stuck(ni, state)
    active = state.active
    covered = state.covered

    y = {p: (_ACTIVE_PRICE if p in active else _ZERO) for p in ni.base.players}
    z = {}
    for r in ni.base.resources:
        if r not in covered:
            z[r] = _ZERO
        elif ni.is_fat(r):
            z[r] = _ACTIVE_PRICE
        else:
            z[r] = min(ni.value(r), _THIN_CAP)
    return DualCertificate(y=y, z=z)


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-player margins min-config-cost minus y; feasible iff none negative."""

    passed: bool
    margins: Mapping[str, Optional[Fraction]]
    failures: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "margins": {
                p: (None if m is None else format_rational(m))
                for p, m in self.margins.items()
            },
            "failures": list(self.failures),
        }


def verify_certificate_feasibility(
    ni: NormalizedInstance, cert: DualCertificate
) -> FeasibilityReport:
    """Check z >= 0, then y_p <= cost of the cheapest configuration at z.

    A negative price fails, one failure per such resource, and no player is
    priced (no margins).  Else configurations are priced on the instance at
    `ni.target`: the same bundles, costs and tie order as on a copy scaled
    to target 1.  A player with no configuration gets a None margin.
    """
    failures = [f"resource {r!r}: price {v} < 0" for r, v in cert.z.items() if v < 0]
    if failures:
        return FeasibilityReport(passed=False, margins={}, failures=tuple(failures))
    margins: dict[str, Optional[Fraction]] = {}
    for p in ni.base.players:
        priced = min_cost_configuration(ni.base, p, cert.z, ni.target)
        if priced is None:
            margins[p] = None
            continue
        cost, _ = priced
        margin = cost - cert.y[p]
        margins[p] = margin
        if margin < 0:
            failures.append(
                f"player {p!r}: cheapest configuration costs {cost} < y = {cert.y[p]}"
            )
    return FeasibilityReport(
        passed=not failures, margins=margins, failures=tuple(failures)
    )


@dataclass(frozen=True)
class BalanceReport:
    """Per-blocker accounting showing the certificate objective is positive.

    Blocker i activated `players[i]` and its edges cover `resources[i]`, both
    read off the halted state; `balances[i]` is their price difference.
    """

    passed: bool
    balances: tuple[Fraction, ...]
    objective: Fraction
    failures: tuple[str, ...]
    players: tuple[tuple[str, ...], ...] = ()
    resources: tuple[tuple[str, ...], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "balances": [format_rational(b) for b in self.balances],
            "objective": format_rational(self.objective),
            "failures": list(self.failures),
        }

    def blockers_json(self) -> list[dict]:
        """One entry per blocker: index, players, resources and balance."""
        return [
            {
                "index": i,
                "players": list(players),
                "resources": list(resources),
                "balance": format_rational(balance),
            }
            for i, (players, resources, balance) in enumerate(
                zip(self.players, self.resources, self.balances)
            )
        ]


def check_blocker_balances(
    ni: NormalizedInstance, state: SearchState, cert: DualCertificate
) -> BalanceReport:
    """Assert each blocker's player prices cover its resource prices.

    Each blocker's group is read off `state.blockers`: the players of its
    blocking edges (by player index, see `Blocker`), and the resources of
    its candidate and blocking edges.  The groups partition the active
    players (minus the root) and the covered resources, so the certificate
    objective decomposes as the root price plus the per-blocker balances;
    non-negative balances make it at least 15/23.
    """
    failures = []
    balances, group_players, group_resources = [], [], []
    for i, b in enumerate(state.blockers):
        players = tuple([e.player for e in b.blocking])
        resources = b.candidate.bundle.union(*[e.bundle for e in b.blocking])
        resources = tuple(ni.base.sorted_resources(resources))
        inflow = sum((cert.y[p] for p in players), _ZERO)
        balance = inflow - sum((cert.z[r] for r in resources), _ZERO)
        balances.append(balance)
        group_players.append(players)
        group_resources.append(resources)
        if balance < 0:
            failures.append(f"blocker {i}: player prices fall short by {-balance}")
    objective = cert.objective
    decomposed = cert.y[state.root_player] + sum(balances, _ZERO)
    if objective != decomposed:
        failures.append(
            f"objective {objective} != root price + balances {decomposed}"
        )
    if cert.y[state.root_player] != _ACTIVE_PRICE:
        failures.append("root player is not priced as active")
    if objective < _ACTIVE_PRICE:
        failures.append(
            f"objective {objective} below the root price {_ACTIVE_PRICE}"
        )
    return BalanceReport(
        passed=not failures,
        balances=tuple(balances),
        objective=objective,
        failures=tuple(failures),
        players=tuple(group_players),
        resources=tuple(group_resources),
    )
