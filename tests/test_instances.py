import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maxminfair import (
    GUARANTEE_FRACTION,
    bundle_value,
    format_rational,
    generate_instance,
    normalize,
    parse_rational,
    validate_instance,
)
from maxminfair.errors import (
    BudgetExceeded,
    DuplicateId,
    EmptyPlayers,
    InvalidInstance,
    InvalidTarget,
    NegativeValue,
    UnknownPlayer,
    UnknownResource,
)

from maxminfair.generators import KINDS

from conftest import make_instance


def test_guarantee_fraction():
    assert GUARANTEE_FRACTION == Fraction(6, 23)


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("3/7") == Fraction(3, 7)

    def test_decimal_string_is_exact(self):
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_int(self):
        assert parse_rational(4) == Fraction(4)

    def test_float_rejected(self):
        with pytest.raises(InvalidInstance):
            parse_rational(0.1)

    def test_garbage_rejected(self):
        with pytest.raises(InvalidInstance):
            parse_rational("1/0")
        with pytest.raises(InvalidInstance):
            parse_rational("pizza")

    def test_digit_bound(self):
        # 10**4299 has 4300 digits, the most a numerator or denominator may
        # have; the exponent of a decimal is bounded before it is expanded.
        assert parse_rational("1e4299") == 10**4299
        assert parse_rational("1e-4299") == Fraction(1, 10**4299)
        for raw in ("1e4300", "1e-4300", "1e5000", "1e100000000", 10**4300):
            with pytest.raises(InvalidInstance):
                parse_rational(raw)
        # Formatting enforces the same bound on derived values.
        assert format_rational(Fraction(1, 10**4300 - 1)) == f"1/{10**4300 - 1}"
        for q in (Fraction(10**4300), Fraction(1, 10**4300), Fraction(-(10**4300), 3)):
            with pytest.raises(BudgetExceeded):
                format_rational(q)

    def test_format_round_trip(self):
        for q in (Fraction(3, 7), Fraction(-2), Fraction(0), Fraction(15, 23)):
            assert parse_rational(format_rational(q)) == q


class TestValidateInstance:
    def test_minimal_well_formed(self, two_fat):
        assert two_fat.num_players == 2
        assert two_fat.num_resources == 2
        assert two_fat.desired_by("p1") == frozenset({"a", "b"})

    def test_unknown_resource_in_desires(self):
        with pytest.raises(UnknownResource):
            make_instance({"a": "1"}, {"p1": ["x"]})

    def test_negative_value(self):
        with pytest.raises(NegativeValue):
            make_instance({"a": "-1/2"}, {"p1": ["a"]})

    def test_duplicate_player(self):
        with pytest.raises(DuplicateId):
            validate_instance(
                {"players": ["p", "p"], "resources": [{"id": "a", "value": "1"}], "desires": {}}
            )

    def test_duplicate_resource(self):
        with pytest.raises(DuplicateId):
            validate_instance(
                {
                    "players": ["p"],
                    "resources": [{"id": "a", "value": "1"}, {"id": "a", "value": "2"}],
                    "desires": {},
                }
            )

    def test_empty_players(self):
        with pytest.raises(EmptyPlayers):
            validate_instance({"players": [], "resources": [], "desires": {}})

    def test_desires_for_unknown_player(self):
        with pytest.raises(UnknownPlayer):
            make_instance({"a": "1"}, {"p1": ["a"], "ghost": ["a"]}, players=["p1"])

    @pytest.mark.parametrize(
        "raw",
        [
            {"players": "ab", "resources": [], "desires": {}},
            {"players": ["p1"], "resources": 5, "desires": {}},
            {
                "players": ["p1"],
                "resources": [{"id": "a", "value": "1"}],
                "desires": {"p1": "a"},
            },
            {
                "players": ["p1"],
                "resources": [{"id": "r", "value": "1"}],
                "desires": [["p1", ["r"]]],
            },
            {
                "players": ["p1"],
                "resources": [{"id": "r", "value": "1"}],
                "desires": {"p1": [["r"]]},
            },
        ],
        ids=[
            "players-string",
            "resources-int",
            "desires-string",
            "desires-list",
            "desire-nested-list",
        ],
    )
    def test_wrong_shapes_rejected(self, raw):
        with pytest.raises(InvalidInstance):
            validate_instance(raw)

    @pytest.mark.parametrize(
        "entry",
        ["a1", ["x", "1/2"], ("x", "1/2"), 7],
        ids=["two-char-string", "list-pair", "tuple-pair", "int"],
    )
    def test_non_mapping_resource_entry_rejected(self, entry):
        # A two-character string must not unpack into an id and a value.
        raw = {"players": ["p"], "resources": [entry], "desires": {}}
        with pytest.raises(InvalidInstance, match="malformed resource entry"):
            validate_instance(raw)

    def test_ids_keep_input_order(self):
        inst = make_instance(
            {"z": "1", "a": "1"}, {"q": ["z"], "b": ["a"]}, players=["q", "b"]
        )
        assert inst.players == ("q", "b")
        assert inst.resources == ("z", "a")
        assert inst.resource_index("z") == 0

    def test_json_round_trip(self, thin_chain):
        again = validate_instance(thin_chain.to_json_dict())
        assert again == thin_chain


class TestBundleValue:
    def test_simple_sum(self):
        inst = make_instance({"a": "1/2", "b": "1/4"}, {"p": ["a", "b"]})
        assert bundle_value(inst, "p", {"a", "b"}) == Fraction(3, 4)

    def test_empty_bundle(self, two_fat):
        assert bundle_value(two_fat, "p1", set()) == 0

    def test_undesired_contributes_zero(self):
        inst = make_instance({"a": "1/2", "c": "1"}, {"p": ["a"]})
        assert bundle_value(inst, "p", {"c"}) == 0
        assert bundle_value(inst, "p", {"a", "c"}) == Fraction(1, 2)

    def test_unknown_ids(self, two_fat):
        with pytest.raises(UnknownPlayer):
            bundle_value(two_fat, "nobody", {"a"})
        with pytest.raises(UnknownResource):
            bundle_value(two_fat, "p1", {"nope"})


def test_sorted_resources_lists_in_input_order_and_names_an_unknown_id():
    inst = make_instance({"c": "1", "a": "1", "b": "1"}, {"p": ["a"]})
    assert inst.sorted_resources({"a", "b", "c"}) == ["c", "a", "b"]
    assert inst.sorted_resources(()) == []
    with pytest.raises(UnknownResource, match=r"^unknown resource 'zz'$"):
        inst.sorted_resources({"a", "zz"})


class TestNormalize:
    def test_target_one_keeps_values(self):
        inst = make_instance(
            {"a": "1/2", "b": "1/4", "c": "1/4"}, {"p": ["a", "b", "c"]}
        )
        ni = normalize(inst, Fraction(1))
        assert ni.base is inst
        assert ni.value("a") == Fraction(1, 2)
        assert ni.fat["p"] == ("a",)
        assert ni.thin["p"] == ("b", "c")

    def test_target_two_scales_down(self):
        inst = make_instance(
            {"a": "1/2", "b": "1/4", "c": "1/4"}, {"p": ["a", "b", "c"]}
        )
        ni = normalize(inst, Fraction(2))
        assert ni.base is inst
        assert ni.value("a") == Fraction(1, 4)
        assert ni.fat["p"] == ()
        assert ni.thin["p"] == ("a", "b", "c")

    def test_boundary_is_fat(self):
        inst = make_instance({"a": "6/23"}, {"p": ["a"]})
        ni = normalize(inst, Fraction(1))
        assert ni.fat["p"] == ("a",)
        assert ni.is_fat("a")

    def test_zero_value_in_neither_class(self):
        inst = make_instance({"a": "0", "b": "1"}, {"p": ["a", "b"]})
        ni = normalize(inst, Fraction(1))
        assert "a" not in ni.fat["p"] and "a" not in ni.thin["p"]
        assert "a" in ni.base.desired_by("p")

    def test_search_order(self):
        # Fat resources by index; thin ones by descending value, ties by index.
        inst = make_instance(
            {"f": "1/2", "a": "1/10", "b": "1/5", "g": "1", "c": "1/10", "d": "1/5"},
            {"p": ["a", "b", "c", "d", "f", "g"], "q": ["c", "a", "g"]},
        )
        ni = normalize(inst, Fraction(1))
        assert ni.fat == {"p": ("f", "g"), "q": ("g",)}
        assert ni.thin == {"p": ("b", "d", "a", "c"), "q": ("a", "c")}

    def test_nonpositive_target_rejected(self, two_fat):
        with pytest.raises(InvalidTarget):
            normalize(two_fat, Fraction(0))
        with pytest.raises(InvalidTarget):
            normalize(two_fat, Fraction(-1))


# Random instances for the algebraic properties.
rationals = st.fractions(min_value=0, max_value=3, max_denominator=40)
positive_rationals = st.fractions(min_value=Fraction(1, 40), max_value=4, max_denominator=40)


@st.composite
def instances(draw, max_players=4, max_resources=6):
    n = draw(st.integers(1, max_resources))
    m = draw(st.integers(1, max_players))
    resources = [f"r{j}" for j in range(n)]
    values = {r: draw(rationals) for r in resources}
    desires = {
        f"p{i}": draw(st.sets(st.sampled_from(resources))) for i in range(m)
    }
    return make_instance(values, desires, players=[f"p{i}" for i in range(m)])


@given(instances(), positive_rationals)
def test_normalize_round_trip(inst, target):
    fresh, shown = validate_instance(inst.to_json_dict()), repr(inst)
    ni = normalize(inst, target)
    assert ni.base is inst
    for r in inst.resources:
        assert ni.value(r) * target == inst.value[r]
    # The integer values: one common denominator, each value exactly on it,
    # and each player's positive desired resources in search order.
    positive = [v.denominator for v in inst.value.values() if v > 0]
    assert inst.scale == math.lcm(*positive)
    for r in inst.resources:
        assert type(inst.weight[r]) is int
        assert inst.weight[r] == inst.value[r] * inst.scale
    for p in inst.players:
        assert inst.candidates[p] == tuple(
            sorted(
                (r for r in inst.desired_by(p) if inst.value[r] > 0),
                key=lambda r: (-inst.value[r], inst.resource_index(r)),
            )
        )
    # Cached attributes are not fields: equality, repr and JSON are unchanged.
    assert inst == fresh and repr(inst) == shown
    assert inst.to_json_dict() == fresh.to_json_dict()


def test_second_normalize_skips_the_value_lcm():
    # 300 values 1/q, q distinct odd 1000-digit numbers: the first normalize
    # pays for the instance's scale and weights, about 300,000 digits each;
    # a later one at a new target reads them from the instance.
    qs = [10**999 + 2 * k + 1 for k in range(300)]
    inst = make_instance(
        {f"r{k}": f"1/{q}" for k, q in enumerate(qs)},
        {f"p{k}": [f"r{k}"] for k in range(300)},
    )
    normalize(inst, Fraction(1, qs[-1]))
    start = time.perf_counter()
    target = Fraction(2, 3 * qs[-1])
    ni = normalize(inst, target)
    assert time.perf_counter() - start < 0.5
    assert ni.bound == math.ceil(6 * target * inst.scale / 23)
    assert len(ni.fat_resources) == 300


@given(instances(), positive_rationals)
def test_fat_thin_partition(inst, target):
    ni = normalize(inst, target)
    index = inst.resource_index
    for p in inst.players:
        assert list(ni.fat[p]) == sorted(ni.fat[p], key=index)
        assert list(ni.thin[p]) == sorted(
            ni.thin[p], key=lambda r: (-ni.value(r), index(r))
        )
        assert not set(ni.fat[p]) & set(ni.thin[p])
        for r in inst.desired_by(p):
            assert (r in ni.fat[p]) == (ni.value(r) >= GUARANTEE_FRACTION)
            if inst.value[r] > 0:
                assert (r in ni.fat[p]) != (r in ni.thin[p])
            else:
                assert r not in ni.fat[p] and r not in ni.thin[p]


def test_normalize_matches_definitions():
    # fat, thin, fat_resources and bound recomputed from their definitions
    # on values, not weights.  Each generated instance gains a zero-value
    # resource every player desires and a valuable one nobody desires; the
    # targets include one with no fat resource and one where every positive
    # resource is fat (its smallest value sits exactly on the threshold).
    checked = 0
    for kind in KINDS:
        for seed in range(4):
            raw = generate_instance(kind, 8, 20, seed).to_json_dict()
            raw["resources"] += [{"id": "zero", "value": 0}, {"id": "idle", "value": 2}]
            for wanted in raw["desires"].values():
                wanted.append("zero")
            inst = validate_instance(raw)
            index = inst.resource_index
            positive = [inst.value[r] for r in inst.resources if inst.value[r] > 0]
            ceiling = min(bundle_value(inst, p, inst.desired_by(p)) for p in inst.players)
            targets = [
                min(positive) / GUARANTEE_FRACTION,
                ceiling / 2,
                ceiling,
                4 * ceiling,
                2 * max(positive) / GUARANTEE_FRACTION,
            ]
            for target in targets:
                threshold = GUARANTEE_FRACTION * target
                ni = normalize(inst, target)
                assert ni.bound == math.ceil(threshold * inst.scale)
                assert ni.fat_resources == {
                    r for r in inst.resources if inst.value[r] >= threshold
                }
                for p in inst.players:
                    wanted = inst.desired_by(p)
                    assert ni.fat[p] == tuple(
                        sorted((r for r in wanted if inst.value[r] >= threshold), key=index)
                    )
                    assert ni.thin[p] == tuple(
                        sorted(
                            (r for r in wanted if 0 < inst.value[r] < threshold),
                            key=lambda r: (-inst.value[r], index(r)),
                        )
                    )
                checked += 1
            assert not any(normalize(inst, targets[-1]).fat.values())
            assert all(
                set(normalize(inst, targets[0]).fat[p]) == set(inst.candidates[p])
                for p in inst.players
            )
    assert checked == 60


@given(instances(), st.data())
def test_bundle_value_monotone(inst, data):
    p = data.draw(st.sampled_from(list(inst.players)))
    big = data.draw(st.sets(st.sampled_from(list(inst.resources)))) if inst.resources else set()
    small = {r for r in big if data.draw(st.booleans())}
    assert bundle_value(inst, p, small) <= bundle_value(inst, p, big)
