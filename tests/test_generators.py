"""`generate_instance` yields the same instances, byte for byte, for each seed.

The perfbench pool, the golden corpus and many tests pin generator seeds, so
an instance is a pure function of (kind, players, resources, seed) and the
draw order is frozen.  The recorded SHA-256 of each instance's JSON form is
in `tests/data/generated_instances.json`; a change that alters any of them
must say why, then re-record with

    PYTHONPATH=src python tests/test_generators.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from maxminfair import generate_instance, generators, validate_instance
from maxminfair.errors import InvalidInstance
from maxminfair.generators import KINDS

RECORDED = Path(__file__).resolve().parent / "data" / "generated_instances.json"
SIZES = ((3, 6), (30, 80), (100, 300), (200, 600))
SEEDS = range(2)


def _cases():
    for kind in KINDS:
        for players, resources in SIZES:
            for seed in SEEDS:
                yield f"{kind} {players}x{resources} seed {seed}", (
                    generate_instance(kind, players, resources, seed)
                )


def instance_digests() -> dict[str, str]:
    """{"<kind> <players>x<resources> seed <seed>": SHA-256 of the JSON form}."""
    return {
        case: hashlib.sha256(json.dumps(instance.to_json_dict()).encode("utf-8")).hexdigest()
        for case, instance in _cases()
    }


def test_instances_match_the_recorded_digests():
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    actual = instance_digests()
    assert list(actual) == list(recorded)
    changed = [case for case in recorded if actual[case] != recorded[case]]
    assert not changed, f"{len(changed)} instances changed, first: {changed[:5]}"


def test_desires_follow_resource_input_order(monkeypatch):
    # Read the description `generate_instance` hands to validation, not the
    # instance's JSON form, which sorts desires on its own.
    described = []

    def recording_validate(raw):
        described.append(raw)
        return validate_instance(raw)

    monkeypatch.setattr(generators, "validate_instance", recording_validate)
    cases = dict(_cases())
    assert len(described) == len(cases)
    for (case, instance), raw in zip(cases.items(), described):
        position = {r: j for j, r in enumerate(instance.resources)}
        for p, wanted in raw["desires"].items():
            assert wanted, f"{case}: {p} desires nothing"
            assert [position[r] for r in wanted] == sorted(position[r] for r in wanted), case


@pytest.mark.parametrize(
    "players, resources",
    [(2.5, 4), (2, 4.0), (True, 4), (2, False), ("2", 4), (0, 4), (2, -1)],
)
def test_counts_must_be_positive_ints(players, resources):
    with pytest.raises(InvalidInstance):
        generate_instance("uniform", players, resources, 0)


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps(instance_digests(), indent=1) + "\n", encoding="utf-8")
