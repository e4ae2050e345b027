"""Seeded random instance families for experiments and fuzzing."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidInstance
from .instances import Instance, validate_instance

KINDS = ("uniform", "fat-thin-mix", "clustered-desire")


def generate_instance(
    kind: str, players: int, resources: int, seed: int
) -> Instance:
    """The instance that is a pure function of (kind, players, resources, seed).

    uniform: values k/20 for k in 1..20, each desire an independent coin
    flip (per-player redraw until non-empty).  fat-thin-mix: a few value-1
    resources among many small 1/k ones.  clustered-desire: player groups
    share desire pools plus a common overlap, which stresses long blocking
    chains.

    The random draws and their order are frozen: the perfbench pool, the
    golden corpus and the tests pin seeds, so a change must leave every
    instance byte-identical.  Generation costs O(P·R log R) for P players
    and R resources.  Counts that are not ints of at least 1 (a bool is not
    a count) raise `InvalidInstance`.
    """
    if kind not in KINDS:
        raise InvalidInstance(f"unknown generator kind {kind!r}")
    for count in (players, resources):
        if isinstance(count, bool) or not isinstance(count, int):
            raise InvalidInstance(f"counts must be ints, got {count!r}")
    if players < 1 or resources < 1:
        raise InvalidInstance(
            f"counts must be at least 1, got {players} players, {resources} resources"
        )
    rng = random.Random((kind, players, resources, seed).__repr__())
    player_ids = [f"p{i + 1}" for i in range(players)]
    resource_ids = [f"r{j + 1}" for j in range(resources)]

    if kind == "uniform":
        values = {r: Fraction(rng.randint(1, 20), 20) for r in resource_ids}
        desires = {p: _coin_flip_desires(rng, resource_ids) for p in player_ids}
    elif kind == "fat-thin-mix":
        num_fat = max(1, resources // 4)
        values = {}
        for j, r in enumerate(resource_ids):
            if j < num_fat:
                values[r] = Fraction(1)
            else:
                values[r] = Fraction(1, rng.randint(4, 12))
        desires = {p: _coin_flip_desires(rng, resource_ids) for p in player_ids}
    else:  # clustered-desire
        values = {r: Fraction(rng.randint(1, 20), 20) for r in resource_ids}
        group_count = max(1, players // 2)
        overlap_size = max(1, resources // 5)
        overlap = resource_ids[:overlap_size]
        rest = resource_ids[overlap_size:]
        pools = [list(overlap) for _ in range(group_count)]
        for j, r in enumerate(rest):
            pools[j % group_count].append(r)
        desires = {}
        for i, p in enumerate(player_ids):
            pool = pools[i % group_count]
            desires[p] = _coin_flip_desires(rng, pool)

    position = {r: j for j, r in enumerate(resource_ids)}
    return validate_instance(
        {
            "players": player_ids,
            "resources": [{"id": r, "value": values[r]} for r in resource_ids],
            "desires": {p: sorted(desires[p], key=position.__getitem__) for p in player_ids},
        }
    )


def _coin_flip_desires(rng: random.Random, pool: list[str]) -> set[str]:
    while True:
        chosen = {r for r in pool if rng.random() < 0.5}
        if chosen:
            return chosen
