"""Forcing the search to halt and certifying why.

Two players want the same single resource.  At target 1 only one of them can
be satisfied, so inserting the second player gets stuck: its only candidate
edge is blocked and nothing else is addable.  The halted state converts into
dual prices proving the configuration LP infeasible at this target.
"""

import json
from fractions import Fraction

from maxminfair import (
    check_blocker_balances,
    construct_dual_certificate,
    find_perfect_matching,
    normalize,
    validate_instance,
    verify_certificate_feasibility,
)

instance = validate_instance(
    {
        "players": ["p1", "p2"],
        "resources": [{"id": "r", "value": "1"}],
        "desires": {"p1": ["r"], "p2": ["r"]},
    }
)

ni = normalize(instance, Fraction(1))
outcome = find_perfect_matching(ni)
print(f"search outcome: {outcome.status}")
state = outcome.state
print(f"root player: {state.root_player}")
for i, blocker in enumerate(state.blockers):
    print(
        f"  blocker {i}: wants {blocker.candidate.player} <- "
        f"{sorted(blocker.candidate.bundle)}, blocked by "
        f"{[e.player for e in blocker.blocking]}"
    )

cert = construct_dual_certificate(ni, state)
feasibility = verify_certificate_feasibility(ni, cert)
balances = check_blocker_balances(ni, state, cert)
print("\ndual certificate (prices scaled to the normalized instance):")
payload = {**cert.to_json_dict(), "blockers": balances.blockers_json()}
print(json.dumps(payload, indent=2))
print(f"\nre-verified dual feasibility: {feasibility.passed}")
print(f"per-player margins: { {p: str(m) for p, m in feasibility.margins.items()} }")
print(f"per-blocker balances non-negative: {balances.passed}")
print(
    f"objective {cert.objective} > 0, so scaling the prices up makes the dual "
    "unbounded: no fractional solution can exist at this target."
)
