import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rcfold import (
    AllZero,
    CapExceeded,
    Config,
    InvalidParams,
    Event,
    FoldSpec,
    Measure,
    SiteSpace,
    SpaceMismatch,
    cylinder,
    enumerate_upsets,
    fold_window,
    normalize,
    sup_distance,
)
from rcfold.serialize import event_from_json, event_to_json, measure_from_json, measure_to_json

from oracles import brute_bar, brute_cylinder, brute_upset_masks, is_increasing

F = Fraction


def binary(n):
    return SiteSpace.binary(range(1, n + 1))


MIXED_SPACES = (
    SiteSpace((1, 2, 3), ((0, 1, 2), (0, 1), (0, 1, 2))),
    SiteSpace(("a", "b"), (("w", "x", "y", "z"), (0, 1, 2))),
    SiteSpace((1, 2, 3), ((0, 1), ("only",), (0, 1, 2))),
    SiteSpace((), ()),
)
MIXED_IDS = ("radix323", "radix43", "radix1", "n0")


class TestNormalize:
    def test_uniform(self):
        m = normalize(binary(2), [1, 1, 1, 1])
        assert m.weights == (F(1, 4),) * 4

    def test_divide_by_total(self):
        m = normalize(binary(2), [4, 1, 2, 3])
        assert m.weights == (F(2, 5), F(1, 10), F(1, 5), F(3, 10))

    def test_all_zero(self):
        with pytest.raises(AllZero):
            normalize(binary(2), [0, 0, 0, 0])

    def test_weights_sum_to_one_enforced(self):
        with pytest.raises(Exception):
            Measure(binary(1), (F(1, 3), F(1, 3)))


class TestConcat:
    """A fold lifts folded configuration w to alpha.w, the concatenation of
    alpha on the conditioned sites with w on the others
    (``FoldWindow.lift``)."""

    def test_two_singletons(self):
        sp = binary(2)
        window = fold_window(sp, FoldSpec((1,), (1,)))
        assert sp.config_at(window.lift[0]).values == (1, 0)

    def test_empty_identity(self):
        assert fold_window(binary(2), FoldSpec((), ())).lift == (0, 1, 2, 3)

    def test_interleaved_sites(self):
        sp = binary(3)
        window = fold_window(sp, FoldSpec((2,), (1,)))
        assert window.folded_space.sites == (1, 3)
        assert sp.config_at(window.lift[0b01]).values == (0, 1, 1)

    def test_overlap_rejected(self):
        with pytest.raises(InvalidParams):
            FoldSpec((1, 1), (1, 1))


class TestReverse:
    """The beta-reversal of folded configuration f lifts to ``lift[-1 - f]``:
    each coordinate swapped between its two beta symbols."""

    def test_binary_flip(self):
        sp = binary(2)
        lift = fold_window(sp, FoldSpec((), ())).lift
        assert sp.config_at(lift[-1 - 0b01]).values == (1, 0)

    def test_general_pair(self):
        sp = binary(2)
        lift = fold_window(sp, FoldSpec((), ())).lift
        assert sp.config_at(lift[-1 - 0b11]).values == (0, 0)

    def test_outside_range_undefined(self):
        sp = SiteSpace((1,), ((0, 1, 2),))
        lift = fold_window(sp, FoldSpec((), (), ((0,), (1,)))).lift
        assert sp.config([2]).index not in lift

    def test_involution_inside_range(self):
        sp = SiteSpace((1, 2), ((0, 1, 2), (0, 1)))
        window = fold_window(sp, FoldSpec((), (), ((0, 1), (2, 0))))
        lifted = [sp.config_at(i).values for i in window.lift]
        assert sorted(lifted) == [(0, 0), (0, 1), (2, 0), (2, 1)]
        for f, w in enumerate(lifted):
            r = lifted[-1 - f]
            assert {w[0], r[0]} == {0, 2} and {w[1], r[1]} == {0, 1}


class TestUpsets:
    @pytest.mark.parametrize("n,count", [(0, 2), (1, 3), (2, 6), (3, 20), (4, 168)])
    def test_counts_match_brute_force(self, n, count):
        got = enumerate_upsets(binary(n))
        assert len(got) == count
        assert sorted(e.mask for e in got) == brute_upset_masks(n)

    def test_every_member_upward_closed(self):
        for e in enumerate_upsets(binary(3)):
            assert is_increasing(e)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_upsets(binary(6))

    def test_the_cap_admits_five_sites(self):
        assert len(enumerate_upsets(binary(5))) == 7581

    def test_bar_maps_increasing_to_decreasing(self):
        for e in enumerate_upsets(binary(3)):
            barred = e.bar()
            assert barred.bar() == e
            assert is_increasing(barred.complement())


class TestSupDistance:
    def test_equal(self):
        m = normalize(binary(1), [1, 1])
        assert sup_distance(m, m) == 0

    def test_point_vs_uniform(self):
        sp = binary(1)
        p = normalize(sp, [1, 1])
        q = Measure(sp, (F(1), F(0)))
        assert sup_distance(p, q) == F(1, 2)

    def test_folded_vs_limit(self):
        sp = binary(2)
        p = Measure(sp, (F(3, 7), F(1, 14), F(1, 14), F(3, 7)))
        q = Measure(sp, (F(1, 2), F(0), F(0), F(1, 2)))
        assert sup_distance(p, q) == F(1, 14)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            sup_distance(normalize(binary(1), [1, 1]), normalize(binary(2), [1] * 4))


class TestEvents:
    def test_cylinder(self):
        sp = binary(3)
        w = sp.config([1, 1, 0])
        e = cylinder(w, [1])
        assert sorted(e.indices()) == [4, 5, 6, 7]

    def test_cylinder_empty_region_is_full(self):
        sp = binary(2)
        assert cylinder(sp.config([0, 1]), []).count == 4

    @pytest.mark.parametrize("sp", MIXED_SPACES, ids=MIXED_IDS)
    def test_value_masks_match_values_at(self, sp):
        assert len(sp.value_masks) == sp.n
        for p, r in enumerate(sp.radices):
            assert len(sp.value_masks[p]) == r
            for v in range(r):
                expect = sum(1 << i for i in range(sp.size) if sp.values_at(i)[p] == v)
                assert sp.value_masks[p][v] == expect

    @pytest.mark.parametrize("sp", MIXED_SPACES, ids=MIXED_IDS)
    def test_agree_masks_match_values_at(self, sp):
        for u in range(sp.n):
            for v in range(sp.n):
                expect = sum(
                    1 << i for i in range(sp.size) if sp.values_at(i)[u] == sp.values_at(i)[v]
                )
                assert sp.agree_masks[u][v] == expect

    @pytest.mark.parametrize("sp", MIXED_SPACES, ids=MIXED_IDS)
    def test_cylinders_match_the_definition(self, sp):
        regions = [
            [s for q, s in enumerate(sp.sites) if k >> q & 1] for k in range(1 << sp.n)
        ]
        for w in sp.iter_configs():
            for region in regions:
                assert cylinder(w, region) == brute_cylinder(w, region)

    def test_bar_involution_general(self):
        sp = SiteSpace((1, 2), ((0, 1, 2), (0, 1)))
        e = Event.from_indices(sp, [0, 3, 5])
        assert e.bar().bar() == e

    @pytest.mark.parametrize(
        "sp",
        [
            binary(0),
            binary(1),
            binary(2),
            binary(3),
            SiteSpace((1, 2), ((0, 1, 2), (0, 1))),
            SiteSpace((1,), (("only",),)),
        ],
        ids=["n0", "n1", "n2", "n3", "radix32", "one-config"],
    )
    def test_bar_matches_config_reversal_on_every_event(self, sp):
        # masks below 2**(size-1) have the top bit clear, so the padded
        # bit string starts with zeros
        for mask in range(1 << sp.size):
            assert Event(sp, mask).bar() == brute_bar(Event(sp, mask))

    def test_bar_matches_config_reversal_on_the_four_cube(self):
        sp = binary(4)
        rng = random.Random(16)
        masks = [rng.getrandbits(16) for _ in range(100)]
        masks += [rng.getrandbits(k) | 1 << (k - 1) for k in range(1, 16)]
        for mask in masks:
            assert Event(sp, mask).bar() == brute_bar(Event(sp, mask))

    def test_boolean_algebra(self):
        sp = binary(2)
        a = Event.from_indices(sp, [0, 1])
        b = Event.from_indices(sp, [1, 2])
        assert sorted((a & b).indices()) == [1]
        assert sorted((a | b).indices()) == [0, 1, 2]
        assert sorted(a.complement().indices()) == [2, 3]


class TestMeasure:
    def test_prob_of_event(self):
        m = normalize(binary(2), [4, 1, 2, 3])
        e = Event.from_indices(binary(2), [0, 3])
        assert m.prob(e) == F(7, 10)

    def test_uniform_on_support(self):
        sp = binary(2)
        m = Measure.uniform_on(Event.from_indices(sp, [1, 2]))
        assert m.weights == (F(0), F(1, 2), F(1, 2), F(0))

    def test_symmetry_detection(self):
        sp = binary(2)
        assert Measure(sp, (F(3, 7), F(1, 14), F(1, 14), F(3, 7))).is_symmetric()
        assert not normalize(sp, [4, 1, 2, 3]).is_symmetric()
        mixed = SiteSpace((1, 2), ((0, 1, 2), (0, 1)))
        assert normalize(mixed, [1, 2, 3, 3, 2, 1]).is_symmetric()
        # invariant when only site 1 is reversed, but not under full reversal
        assert not normalize(mixed, [1, 2, 3, 4, 1, 2]).is_symmetric()

    def test_weight_guards_at_their_boundaries(self):
        # a numerator of -1 is refused, also where the total is 0, and a zero
        # weight is accepted
        for guarded in (lambda: Measure(binary(1), (F(-1, 2), F(3, 2))), lambda: normalize(binary(1), [-1, 1])):
            with pytest.raises(InvalidParams, match="nonnegative"):
                guarded()
        assert Measure(binary(1), (F(0), F(1))).int_weights == ((0, 1), 1)
        assert normalize(binary(1), [0, 3]).int_weights == ((0, 1), 1)
        with pytest.raises(InvalidParams, match="sum to exactly 1"):
            Measure(binary(1), (F(1, 3), F(1, 3)))

    @given(st.lists(st.integers(0, 20), min_size=4, max_size=4).filter(any))
    def test_normalize_sums_to_one(self, ws):
        m = normalize(binary(2), ws)
        assert sum(m.weights) == 1


class TestMeasureJson:
    def test_round_trip(self):
        m = normalize(binary(2), [4, 1, 2, 3])
        obj = measure_to_json(m)
        assert obj["weights"] == ["2/5", "1/10", "1/5", "3/10"]
        assert measure_from_json(obj) == m

    def test_general_alphabets(self):
        sp = SiteSpace(("a", "b"), (("x", "y", "z"), (0, 1)))
        m = normalize(sp, [1] * 6)
        assert measure_from_json(measure_to_json(m)) == m

    @pytest.mark.parametrize("bad", ["1/0", "abc", "", 0.5, None, ["1/2"]])
    def test_malformed_weight_is_invalid_params(self, bad):
        obj = measure_to_json(Measure.uniform(binary(1)))
        obj["weights"][0] = bad
        with pytest.raises(InvalidParams):
            measure_from_json(obj)


class TestEventJson:
    def test_round_trip_on_its_own_and_on_the_same_space(self):
        sp = binary(3)
        for e in (Event(sp, 0b10010110), Event.full(binary(7))):
            obj = event_to_json(e)
            assert event_from_json(obj) == e == event_from_json(obj, e.space)

    def test_a_declared_space_that_differs_is_a_space_mismatch(self):
        three = {"sites": [1, 2, 3], "alphabets": [[0, 1]] * 3}
        with pytest.raises(SpaceMismatch):
            event_from_json({**three, "mask_hex": "0x81"}, binary(4))
        moved = {"sites": [4, 5, 6], "alphabets": [[0, 1]] * 3, "configs": [[1, 0, 1]]}
        with pytest.raises(SpaceMismatch):
            event_from_json(moved, binary(3))

    def test_an_undeclared_space_reads_on_the_given_one(self):
        sp = binary(3)
        assert event_from_json({"mask_hex": "0x81"}, sp) == Event(sp, 0x81)
        assert event_from_json({"configs": [[1, 0, 1]]}, sp) == Event.from_indices(sp, [5])
