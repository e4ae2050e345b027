"""End-to-end walkthrough: optimal target, matching, final allocation.

A small mixed instance: one big machine both workshops want, plus a pile of
small parts.  We compute the exact optimal LP target, normalize, build the
perfect matching, and hand out the leftovers.
"""

from maxminfair import (
    GUARANTEE_FRACTION,
    bundle_value,
    complete_allocation,
    compute_T_star,
    find_perfect_matching,
    normalize,
    validate_instance,
    verify_allocation,
)

instance = validate_instance(
    {
        "players": ["alice", "bob", "carol"],
        "resources": [
            {"id": "machine", "value": "1"},
            {"id": "part1", "value": "1/4"},
            {"id": "part2", "value": "1/4"},
            {"id": "part3", "value": "1/5"},
            {"id": "part4", "value": "1/5"},
            {"id": "part5", "value": "1/10"},
        ],
        "desires": {
            "alice": ["machine", "part1", "part2"],
            "bob": ["machine", "part1", "part2", "part3", "part4"],
            "carol": ["machine", "part3", "part4", "part5"],
        },
    }
)

t_star = compute_T_star(instance)
print(f"optimal LP target T* = {t_star}")

ni = normalize(instance, t_star)
print(f"\nguarantee per player: (6/23) * T* = {GUARANTEE_FRACTION * t_star}")
print(f"fat resources after normalization: {sorted(ni.fat_resources)}")

outcome = find_perfect_matching(ni)
assert outcome.perfect
print(f"\nperfect matching found in {outcome.builds} builds, {outcome.contracts} contracts:")
for edge in sorted(outcome.matching, key=lambda e: e.player):
    print(f"  {edge.player} <- {sorted(edge.bundle)} ({edge.kind})")

allocation = complete_allocation(instance, outcome.matching, t_star)
print("\nfull allocation with leftovers:")
for player in instance.players:
    worth = bundle_value(instance, player, allocation[player])
    print(f"  {player}: {sorted(allocation[player])} worth {worth}")

min_value = verify_allocation(instance, allocation)
print(f"\nminimum player value {min_value} >= guarantee: "
      f"{min_value >= GUARANTEE_FRACTION * t_star}")
