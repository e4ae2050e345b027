"""Instance model for restricted max-min fair allocation.

Every resource has a single value; a player either desires a resource (and
values it at the resource's value) or does not (and values it at zero).  All
numeric quantities are exact rationals: the analysis this package verifies
rests on exact equalities such as 1 - 4*(6/23)/3 == 15/23, which do not
survive floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .errors import (
    BudgetExceeded,
    DuplicateId,
    EmptyPlayers,
    InvalidInstance,
    InvalidTarget,
    NegativeValue,
    UnknownPlayer,
    UnknownResource,
)

#: Fraction of the optimal target that every player is guaranteed to receive.
GUARANTEE_FRACTION = Fraction(6, 23)

#: Most digits a parsed or formatted numerator or denominator may have:
#: CPython's default limit on int-to-string conversion (the limit itself
#: cannot be read before Python 3.10.7).
MAX_RATIONAL_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_RATIONAL_DIGITS
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)$")


def parse_rational(raw) -> Fraction:
    """Parse an exact rational from "p/q" or decimal strings, ints or Fractions.

    Floats are rejected: their binary expansion would silently break the exact
    arithmetic contract.  So is any value whose numerator or denominator has
    more than `MAX_RATIONAL_DIGITS` digits, and a decimal exponent is bounded
    before `Fraction` computes its power of ten.
    """
    if isinstance(raw, bool):
        raise InvalidInstance(f"not a rational value: {raw!r}")
    if isinstance(raw, float):
        raise InvalidInstance(
            f"float value {raw!r} is not exact; pass a string like '1/3' or '0.25'"
        )
    if isinstance(raw, (Fraction, int)):
        value = Fraction(raw)
    elif isinstance(raw, str):
        text = raw.strip()
        exponent = _EXPONENT.search(text)
        try:
            if exponent and int(exponent[1].replace("_", "")) > MAX_RATIONAL_DIGITS:
                raise ValueError("decimal exponent out of bounds")
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"cannot parse rational from {raw!r}") from exc
    else:
        raise InvalidInstance(f"cannot parse rational from {raw!r}")
    if abs(value.numerator) >= _DIGIT_BOUND or value.denominator >= _DIGIT_BOUND:
        raise InvalidInstance(f"rational has more than {MAX_RATIONAL_DIGITS} digits")
    return value


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" for integers) for bit-exact files.

    A derived value past `MAX_RATIONAL_DIGITS` digits raises `BudgetExceeded`.
    """
    q = Fraction(q)
    if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
        raise BudgetExceeded(f"value has more than {MAX_RATIONAL_DIGITS} digits")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Instance:
    """An allocation problem: players, valued resources, per-player desires.

    Immutable after construction; the input order of players and resources is
    the universal tie-breaking order used by every deterministic choice
    downstream.  `scale`, `weight` and `candidates` are computed on first
    read and cached on the instance; they are not fields, so equality,
    `repr` and the JSON form ignore them.
    """

    players: tuple[str, ...]
    resources: tuple[str, ...]
    value: Mapping[str, Fraction]
    desire: Mapping[str, frozenset[str]]
    _player_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _resource_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_player_index", {p: i for i, p in enumerate(self.players)}
        )
        object.__setattr__(
            self, "_resource_index", {r: i for i, r in enumerate(self.resources)}
        )

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @cached_property
    def scale(self) -> int:
        """The LCM of the positive values' denominators (1 when there is none)."""
        return lcm(*(v.denominator for v in self.value.values() if v > 0))

    @cached_property
    def weight(self) -> dict[str, int]:
        """Each resource's value times `scale`, an exact `int`."""
        return {r: v.numerator * (self.scale // v.denominator) for r, v in self.value.items()}

    @cached_property
    def candidates(self) -> dict[str, tuple[str, ...]]:
        """Each player's positive-value desired resources in search order:
        descending value, ties by index."""
        weight, index = self.weight, self._resource_index
        candidates = {}
        for p in self.players:
            wanted = [r for r in self.desire.get(p, ()) if weight[r] > 0]
            candidates[p] = tuple(sorted(wanted, key=lambda r: (-weight[r], index[r])))
        return candidates

    def player_index(self, player: str) -> int:
        try:
            return self._player_index[player]
        except KeyError:
            raise UnknownPlayer(f"unknown player {player!r}") from None

    def resource_index(self, resource: str) -> int:
        try:
            return self._resource_index[resource]
        except KeyError:
            raise UnknownResource(f"unknown resource {resource!r}") from None

    def desired_by(self, player: str) -> frozenset[str]:
        self.player_index(player)
        return self.desire.get(player, frozenset())

    def desirers(self, resource: str) -> list[str]:
        """Players that desire `resource`, in input order."""
        self.resource_index(resource)
        return [p for p in self.players if resource in self.desire.get(p, frozenset())]

    def sorted_resources(self, bundle: Iterable[str]) -> list[str]:
        """Canonical (input-order) listing of a resource set."""
        try:
            return sorted(bundle, key=self._resource_index.__getitem__)
        except KeyError as missing:
            raise UnknownResource(f"unknown resource {missing.args[0]!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "players": list(self.players),
            "resources": [
                {"id": r, "value": format_rational(self.value[r])}
                for r in self.resources
            ],
            "desires": {p: self.sorted_resources(self.desire[p]) for p in self.players},
        }


def validate_instance(raw) -> Instance:
    """Build a well-formed Instance from an untyped description.

    `raw` follows the instance JSON layout: {"players": [id], "resources":
    [{"id": id, "value": rational}], "desires": {player: [resource]}}.
    Ids keep their input order; values may be "p/q" strings, decimal strings
    or ints.
    """
    if not isinstance(raw, Mapping):
        raise InvalidInstance("instance description must be a mapping")
    try:
        raw_players = raw["players"]
        raw_resources = raw["resources"]
    except KeyError as exc:
        raise InvalidInstance(f"missing field: {exc.args[0]!r}") from None
    raw_desires = raw.get("desires", {})
    for name, field_value in (("players", raw_players), ("resources", raw_resources)):
        if not isinstance(field_value, (list, tuple)):
            raise InvalidInstance(f"{name} must be a list: {field_value!r}")
    if not isinstance(raw_desires, Mapping):
        raise InvalidInstance(f"desires must be a mapping: {raw_desires!r}")

    if not raw_players:
        raise EmptyPlayers("instance must have at least one player")

    players: list[str] = []
    seen = set()
    for p in raw_players:
        if not isinstance(p, str):
            raise InvalidInstance(f"player id must be a string: {p!r}")
        if p in seen:
            raise DuplicateId(f"duplicate player id {p!r}")
        seen.add(p)
        players.append(p)

    resources: list[str] = []
    value: dict[str, Fraction] = {}
    seen = set()
    for entry in raw_resources:
        if not isinstance(entry, Mapping):
            raise InvalidInstance(f"malformed resource entry: {entry!r}")
        rid, rawval = entry.get("id"), entry.get("value")
        if not isinstance(rid, str):
            raise InvalidInstance(f"resource id must be a string: {rid!r}")
        if rid in seen:
            raise DuplicateId(f"duplicate resource id {rid!r}")
        seen.add(rid)
        v = parse_rational(rawval)
        if v < 0:
            raise NegativeValue(f"resource {rid!r} has negative value {v}")
        resources.append(rid)
        value[rid] = v

    resource_set = set(resources)
    desire: dict[str, frozenset[str]] = {}
    for p in players:
        wanted = raw_desires.get(p, [])
        if not isinstance(wanted, (list, tuple, set, frozenset)):
            raise InvalidInstance(f"desires of {p!r} must be a list: {wanted!r}")
        for r in wanted:
            if not isinstance(r, str):
                raise InvalidInstance(f"player {p!r} desires a non-id {r!r}")
            if r not in resource_set:
                raise UnknownResource(f"player {p!r} desires unknown resource {r!r}")
        desire[p] = frozenset(wanted)
    for p in raw_desires:
        if p not in desire:
            raise UnknownPlayer(f"desires reference unknown player {p!r}")

    return Instance(
        players=tuple(players),
        resources=tuple(resources),
        value=value,
        desire=desire,
    )


def bundle_value(instance: Instance, player: str, bundle: Iterable[str]) -> Fraction:
    """Total value of `bundle` for `player`: undesired resources contribute 0."""
    desired = instance.desired_by(player)
    total = Fraction(0)
    for r in set(bundle):
        instance.resource_index(r)
        if r in desired:
            total += instance.value[r]
    return total


@dataclass(frozen=True)
class NormalizedInstance:
    """A view of `base` at `target`, in units where the target is 1.

    Nothing is copied: a resource's normalized value is its value over the
    target.  Each desired resource is classified against the threshold
    6/23 of the target: `fat` resources reach it on their own, `thin` ones
    do not.  Desired resources of value zero belong to neither class (they
    can never help reach the threshold) but remain legal and may be handed
    out when completing an allocation.  `fat[p]` lists p's fat resources by
    index and `thin[p]` its thin ones by descending value, ties by index:
    the local search's order.  `bound` is ⌈(6/23)·target·base.scale⌉, the
    threshold in the units of `base.weight`, so an `int` total of weights
    reaches the threshold iff it reaches `bound`.
    """

    base: Instance
    target: Fraction
    fat: Mapping[str, tuple[str, ...]]
    thin: Mapping[str, tuple[str, ...]]
    fat_resources: frozenset[str]
    bound: int

    def is_fat(self, resource: str) -> bool:
        return resource in self.fat_resources

    def value(self, resource: str) -> Fraction:
        """The resource's value in normalized units: value over target."""
        return self.base.value[resource] / self.target


def normalize(instance: Instance, target: Fraction) -> NormalizedInstance:
    """View `instance` at `target`: classify desired resources fat/thin.

    Σ weight >= bound exactly when Σ value/target >= 6/23, since a sum of
    weights is an `int` and bound = ⌈(6/23)·target·scale⌉.
    """
    target = Fraction(target)
    if target <= 0:
        raise InvalidTarget(f"target must be positive, got {target}")
    threshold = GUARANTEE_FRACTION * target
    bound = -(-threshold.numerator * instance.scale // threshold.denominator)
    weight = instance.weight
    fat, thin = {}, {}
    for p, candidates in instance.candidates.items():
        # Candidates run by descending weight, so the fat ones are a prefix.
        k = 0
        while k < len(candidates) and weight[candidates[k]] >= bound:
            k += 1
        fat[p] = tuple(sorted(candidates[:k], key=instance.resource_index))
        thin[p] = candidates[k:]
    return NormalizedInstance(
        base=instance,
        target=target,
        fat=fat,
        thin=thin,
        fat_resources=frozenset([r for r in instance.resources if weight[r] >= bound]),
        bound=bound,
    )
