import random
from fractions import Fraction

import pytest

from rcfold import (
    Event,
    FoldSpec,
    InvalidParams,
    Measure,
    NonBinaryAlphabet,
    PreconditionFailed,
    RcrBase,
    SelectionRule,
    SiteSpace,
    SpaceMismatch,
    box,
    box_with_rule,
    check_disjoint_cluster_bound,
    check_folding_hypothesis_bound,
    enumerate_upsets,
    fold,
    fold_window,
    full_rule,
    increasing_decreasing_rule,
    increasing_only_rule,
    induced_rule,
    ising_build,
    IsingSpec,
    normalize,
)
from rcfold.folding import _extension_folds, _first_fold_specs
from rcfold.occurrence import box_product_sweep
from rcfold.generators import random_product_measure, random_fkg_measure

from oracles import (
    brute_box,
    brute_box_product_sweep,
    brute_pushed_select,
    extend_event,
    fraction_fold_gaps,
    fraction_folding_hypothesis,
)

F = Fraction


def binary(n):
    return SiteSpace.binary(range(1, n + 1))


def coord_event(sp, site, value):
    return Event.from_predicate(sp, lambda c: c.values[sp.site_pos[site]] == value)


class TestDisjointPairs:
    def test_full_events_contain_empty_pair(self):
        sp = binary(2)
        full = Event.full(sp)
        pairs = full_rule().select(full, full, sp.config([0, 1]))
        assert (frozenset(), frozenset()) in pairs

    def test_three_site_example(self):
        sp = binary(3)
        a = coord_event(sp, 1, 1)
        b = coord_event(sp, 2, 1)
        w = sp.config([1, 1, 0])
        got = full_rule().select(a, b, w)
        assert got == frozenset(
            {
                (frozenset({1}), frozenset({2})),
                (frozenset({1}), frozenset({2, 3})),
                (frozenset({1, 3}), frozenset({2})),
            }
        )

    def test_omega_outside_a_gives_empty(self):
        # w is in every one of its own cylinders, so w outside A kills all pairs
        sp = binary(3)
        a = coord_event(sp, 1, 1)
        b = Event.full(sp)
        w = sp.config([0, 1, 1])
        assert full_rule().select(a, b, w) == frozenset()


class TestBox:
    def test_box_with_full_space(self):
        sp = binary(2)
        a = coord_event(sp, 1, 1)
        assert box(a, Event.full(sp)) == a

    def test_two_coordinates(self):
        sp = binary(2)
        a = coord_event(sp, 1, 1)
        b = coord_event(sp, 2, 1)
        assert sorted(box(a, b).indices()) == [3]

    def test_box_inside_intersection(self):
        sp = binary(3)
        for amask in range(0, 256, 7):
            for bmask in range(0, 256, 11):
                a, b = Event(sp, amask), Event(sp, bmask)
                assert box(a, b).is_subset(a & b)

    def test_box_monotone(self):
        sp = binary(2)
        a = coord_event(sp, 1, 1)
        b = coord_event(sp, 2, 1)
        bigger = b | coord_event(sp, 1, 1)
        assert box(a, b).is_subset(box(a, bigger))


class TestBoxWithRule:
    def test_full_rule_equals_box(self):
        sp = binary(2)
        rule = full_rule()
        for amask in range(16):
            for bmask in range(16):
                a, b = Event(sp, amask), Event(sp, bmask)
                assert box_with_rule(a, b, rule) == box(a, b)

    def test_increasing_only_matches_box_on_increasing_events(self):
        sp = binary(3)
        rule = increasing_only_rule()
        ups = enumerate_upsets(sp)
        for a in ups:
            for b in ups:
                assert box_with_rule(a, b, rule) == box(a, b)

    def test_increasing_decreasing_identity(self):
        sp = binary(3)
        rule = increasing_decreasing_rule()
        ups = enumerate_upsets(sp)
        for a in ups:
            for b_up in ups:
                b = b_up.complement()  # decreasing
                assert box_with_rule(a, b, rule) == a & b

    def test_rule_output_inside_box(self):
        sp = binary(2)
        for rule in (increasing_only_rule(), increasing_decreasing_rule()):
            for amask in range(16):
                for bmask in range(16):
                    a, b = Event(sp, amask), Event(sp, bmask)
                    assert box_with_rule(a, b, rule).is_subset(box(a, b))


def _ones(w):
    sp = w.space
    return {s for s, v, r in zip(sp.sites, w.values, sp.radices) if v == r - 1}


def _zeros(w):
    return {s for s, v in zip(w.space.sites, w.values) if v == 0}


# each built-in rule with its keep predicate, written from the definitions
RULES_AND_KEEPS = (
    (full_rule, lambda w, k, l: True),
    (increasing_only_rule, lambda w, k, l: k <= _ones(w) and l <= _ones(w)),
    (increasing_decreasing_rule, lambda w, k, l: k <= _ones(w) and l <= _zeros(w)),
)

ORACLE_SPACES = (binary(1), binary(2), binary(3), SiteSpace((1, 2), ((0, 1, 2), (0, 1))))
ORACLE_IDS = ("binary1", "binary2", "binary3", "radix32")


def _keeps_a_wide_site(sp, window):
    """Whether a site with more than two symbols survives the fold."""
    return any(sp.radices[sp.site_pos[s]] > 2 for s in window.folded_space.sites)


def _event_pairs(sp, count, seed=0):
    """``count`` seeded event pairs, or every pair when there are no more."""
    full = (1 << sp.size) - 1
    if (full + 1) ** 2 <= count:
        return [(Event(sp, x), Event(sp, y)) for x in range(full + 1) for y in range(full + 1)]
    rng = random.Random(seed)
    return [
        (Event(sp, rng.randrange(full + 1)), Event(sp, rng.randrange(full + 1)))
        for _ in range(count)
    ]


class TestBoxOracle:
    @pytest.mark.parametrize("sp", ORACLE_SPACES, ids=ORACLE_IDS)
    def test_box_and_rules_match_the_definition(self, sp):
        for a, b in _event_pairs(sp, 256):
            assert box(a, b) == brute_box(a, b, RULES_AND_KEEPS[0][1])
            for make, keep in RULES_AND_KEEPS:
                assert box_with_rule(a, b, make()) == brute_box(a, b, keep)

    @pytest.mark.parametrize("sp", ORACLE_SPACES, ids=ORACLE_IDS)
    def test_induced_rules_box_the_slice_of_the_unfolded_box(self, sp):
        for spec in _first_fold_specs(sp):
            window = fold_window(sp, spec)
            for make, keep in RULES_AND_KEEPS:
                if _keeps_a_wide_site(sp, window):
                    with pytest.raises(NonBinaryAlphabet):
                        induced_rule(make(), sp, spec)
                    continue
                pushed = induced_rule(make(), sp, spec)
                for a, b in _event_pairs(window.folded_space, 12, seed=len(spec.k_sites)):
                    expect = brute_box(extend_event(window, a), extend_event(window, b), keep)
                    assert box_with_rule(a, b, pushed) == window.slice_event(expect)

    @pytest.mark.parametrize("sp", ORACLE_SPACES, ids=ORACLE_IDS)
    def test_box_is_where_select_keeps_a_pair(self, sp):
        rules = [make() for make, _ in RULES_AND_KEEPS]
        spec = next(
            s for s in _first_fold_specs(sp) if not _keeps_a_wide_site(sp, fold_window(sp, s))
        )
        folded = fold_window(sp, spec).folded_space
        for r in rules:
            for space, rule in ((sp, r), (folded, induced_rule(r, sp, spec))):
                for a, b in _event_pairs(space, 12, seed=3):
                    expect = Event.from_predicate(space, lambda w: bool(rule.select(a, b, w)))
                    assert box_with_rule(a, b, rule) == expect

    def test_twice_pushed_rules_box_the_twice_sliced_box(self):
        sp = binary(3)
        for spec in _first_fold_specs(sp):
            first = fold_window(sp, spec)
            for second in _extension_folds(first.folded_space):
                for make, keep in RULES_AND_KEEPS:
                    once = induced_rule(make(), sp, spec)
                    pushed = induced_rule(once, first.folded_space, second.spec)
                    for a, b in _event_pairs(second.folded_space, 4, seed=len(spec.k_sites)):
                        up_a = extend_event(first, extend_event(second, a))
                        up_b = extend_event(first, extend_event(second, b))
                        unfolded = brute_box(up_a, up_b, keep)
                        expect = second.slice_event(first.slice_event(unfolded))
                        assert box_with_rule(a, b, pushed) == expect

    @pytest.mark.parametrize("sp", ORACLE_SPACES[2:], ids=ORACLE_IDS[2:])
    def test_pushed_rules_select_the_cut_pairs_of_the_extended_events(self, sp):
        checked = {1: 0, 2: 0}
        for spec in _first_fold_specs(sp):
            first = fold_window(sp, spec)
            if _keeps_a_wide_site(sp, first):
                continue
            seconds = [()] + [(w,) for w in _extension_folds(first.folded_space)][:2]
            for make, keep in RULES_AND_KEEPS:
                once = induced_rule(make(), sp, spec)
                for rest in seconds:
                    pushed = induced_rule(once, first.folded_space, rest[0].spec) if rest else once
                    windows = (first,) + rest
                    space = windows[-1].folded_space
                    for a, b in _event_pairs(space, 4, seed=len(spec.k_sites) + len(rest)):
                        for w in space.iter_configs():
                            expect = brute_pushed_select(windows, keep, a, b, w)
                            assert pushed.select(a, b, w) == expect
                            checked[len(windows)] += bool(expect)
        assert checked[1] > 0 and checked[2] > 0

    def test_pushing_raises_exactly_where_a_three_symbol_site_survives(self):
        sp = ORACLE_SPACES[-1]
        specs = list(_first_fold_specs(sp))
        raising = []
        for spec in specs:
            try:
                induced_rule(full_rule(), sp, spec)
            except NonBinaryAlphabet:
                raising.append(spec)
        assert len(specs) == 18 and len(raising) == 9
        assert raising == [s for s in specs if 1 not in s.k_sites]


class TestSpaceChecks:
    @pytest.mark.parametrize("sp", ORACLE_SPACES, ids=ORACLE_IDS)
    def test_every_rule_induces_itself_and_only_built_in_rules_exist(self, sp):
        for spec in _first_fold_specs(sp):
            if not _keeps_a_wide_site(sp, fold_window(sp, spec)):
                for make, _ in RULES_AND_KEEPS:
                    assert induced_rule(make(), sp, spec) == make()
        with pytest.raises(PreconditionFailed):
            SelectionRule("bogus")

    def test_mixed_site_ids_fold_and_box(self):
        sp = SiteSpace((1, "a", (2, 3)), ((0, 1),) * 3)
        m = normalize(sp, [1, 2, 3, 4, 5, 6, 7, 9])
        spec = FoldSpec(("a",), (1,))
        folded = fold(m, spec)
        assert folded.space.sites == (1, (2, 3))
        assert folded == normalize(folded.space, [3 * 9, 4 * 7, 7 * 4, 9 * 3])
        keep = RULES_AND_KEEPS[1][1]
        for a, b in _event_pairs(sp, 16, seed=5):
            assert box_with_rule(a, b, increasing_only_rule()) == brute_box(a, b, keep)
        pushed = induced_rule(increasing_only_rule(), sp, spec)
        window = fold_window(sp, spec)
        for a, b in _event_pairs(folded.space, 16, seed=6):
            expect = brute_box(extend_event(window, a), extend_event(window, b), keep)
            assert box_with_rule(a, b, pushed) == window.slice_event(expect)


class TestEventSlice:
    def test_full_event_slices_to_full(self):
        sp = binary(2)
        spec = FoldSpec((1,), (1,))
        sliced = fold_window(sp, spec).slice_event(Event.full(sp))
        assert sliced == Event.full(sliced.space)

    def test_coordinate_slice(self):
        sp = binary(2)
        spec = FoldSpec((1,), (1,))
        e = Event.from_indices(sp, [2, 3])  # first coordinate is 1
        assert fold_window(sp, spec).slice_event(e).count == 2  # both folded configs lift in

    def test_partial_slice(self):
        sp = binary(2)
        spec = FoldSpec((1,), (1,))
        e = Event.from_indices(sp, [3])  # only 11
        sliced = fold_window(sp, spec).slice_event(e)
        assert sorted(sliced.indices()) == [1]

    def test_slice_of_box_contained_in_box_of_slices(self):
        sp = binary(3)
        rule = full_rule()
        specs = [FoldSpec((), ()), FoldSpec((1,), (1,)), FoldSpec((2,), (0,)), FoldSpec((1, 3), (1, 0))]
        events = [Event(sp, m) for m in (0b10011001, 0b11110000, 0b01100110, 0b11111110)]
        for spec in specs:
            pushed = induced_rule(rule, sp, spec)
            window = fold_window(sp, spec)
            for a in events:
                for b in events:
                    lhs = window.slice_event(box_with_rule(a, b, rule))
                    rhs = box_with_rule(window.slice_event(a), window.slice_event(b), pushed)
                    assert lhs.is_subset(rhs)

    def test_slice_inclusion_exhaustive_two_sites(self):
        from rcfold.folding import _first_fold_specs

        sp = binary(2)
        rules = [full_rule(), increasing_only_rule()]
        for spec in _first_fold_specs(sp):
            window = fold_window(sp, spec)
            for rule in rules:
                pushed = induced_rule(rule, sp, spec)
                for amask in range(16):
                    for bmask in range(16):
                        a, b = Event(sp, amask), Event(sp, bmask)
                        lhs = window.slice_event(box_with_rule(a, b, rule))
                        rhs = box_with_rule(window.slice_event(a), window.slice_event(b), pushed)
                        assert lhs.is_subset(rhs)


class TestInducedRule:
    def test_empty_conditioning_keeps_rule(self):
        sp = binary(2)
        spec = FoldSpec((), ())
        rule = full_rule()
        pushed = induced_rule(rule, sp, spec)
        a = coord_event(sp, 1, 1)
        b = coord_event(sp, 2, 1)
        for w in sp.iter_configs():
            assert pushed.select(a, b, w) == rule.select(a, b, w)

    def test_full_induces_full(self):
        from rcfold import fold_window

        sp = binary(3)
        spec = FoldSpec((2,), (1,))
        pushed = induced_rule(full_rule(), sp, spec)
        fsp = fold_window(sp, spec).folded_space
        for amask in range(0, 16, 3):
            for bmask in range(0, 16, 5):
                a, b = Event(fsp, amask), Event(fsp, bmask)
                for w in fsp.iter_configs():
                    assert pushed.select(a, b, w) == full_rule().select(a, b, w)

    def test_induced_pairs_avoid_conditioned_sites(self):
        sp = binary(3)
        spec = FoldSpec((2,), (1,))
        pushed = induced_rule(increasing_only_rule(), sp, spec)
        fsp = SiteSpace((1, 3), ((0, 1), (0, 1)))
        a = Event.from_indices(fsp, [2, 3])
        b = Event.from_indices(fsp, [1, 3])
        for w in fsp.iter_configs():
            for k, l in pushed.select(a, b, w):
                assert 2 not in k and 2 not in l


class TestDisjointClusterBound:
    def test_two_site_increasing_decreasing(self):
        build = ising_build(IsingSpec((1, 2), ((1, 2, F(2)),)))
        sp = build.measure.space
        a = coord_event(sp, 1, 1)
        b = coord_event(sp, 2, 0)
        rep = check_disjoint_cluster_bound(
            build.measure, build.base, increasing_decreasing_rule(), a, b, 0
        )
        assert rep.lhs == F(1, 6)
        assert rep.rhs == F(1, 3)
        assert rep.ok

    def test_full_event_sides(self):
        build = ising_build(IsingSpec((1, 2), ((1, 2, F(2)),)))
        sp = build.measure.space
        full = Event.full(sp)
        a = coord_event(sp, 1, 1)
        rep = check_disjoint_cluster_bound(
            build.measure, build.base, increasing_decreasing_rule(), a, full, 0
        )
        # bar of the full event is itself; symmetric measures keep P(A)
        assert rep.lhs <= rep.rhs
        assert rep.ok

    def test_asymmetric_base_rejected(self):
        from rcfold import BondStateAssignment, HyperbondStructure, RcrBase

        sp = binary(2)
        struct = HyperbondStructure(sp, ((1, 2),))
        base = RcrBase(struct, ((BondStateAssignment(struct, (0b1000,)), F(1)),))  # {11}
        p = Measure(sp, (F(0), F(0), F(0), F(1)))
        with pytest.raises(PreconditionFailed, match="symmetric"):
            check_disjoint_cluster_bound(
                p, base, full_rule(), Event.full(sp), Event.full(sp), 0
            )

    def test_base_on_another_space_is_a_space_mismatch(self):
        m = ising_build(IsingSpec((1, 2), ((1, 2, F(2)),))).measure
        base3 = ising_build(IsingSpec((1, 2, 3), ((1, 2, F(2)), (2, 3, F(2))))).base
        a, b = Event(m.space, 10), Event(m.space, 3)  # a pair whose box meets an atom
        with pytest.raises(SpaceMismatch, match="measure and base on different spaces"):
            check_disjoint_cluster_bound(m, base3, increasing_decreasing_rule(), a, b, 0)

    def test_a_reused_base_reports_as_a_fresh_copy(self):
        build = ising_build(
            IsingSpec((1, 2, 3), ((1, 2, F(2)), (2, 3, F(2)), (1, 3, F(2))))
        )
        sp = build.measure.space
        rule = increasing_decreasing_rule()
        ups = enumerate_upsets(sp)
        verdicts = set()
        for p, eps in ((build.measure, 0), (Measure.uniform(sp), F(1, 20))):
            for a in ups[::3]:
                for b_up in ups[::2]:
                    b = b_up.complement()
                    fresh = RcrBase(build.base.structure, build.base.atoms)
                    assert fresh == build.base and "measure" not in vars(fresh)
                    rep = check_disjoint_cluster_bound(p, build.base, rule, a, b, eps)
                    assert rep == check_disjoint_cluster_bound(p, fresh, rule, a, b, eps)
                    verdicts.add(rep.base_within_eps)
        assert verdicts == {True, False}

    def test_three_site_sweep(self):
        build = ising_build(
            IsingSpec((1, 2, 3), ((1, 2, F(2)), (2, 3, F(2)), (1, 3, F(2))))
        )
        sp = build.measure.space
        rule = increasing_decreasing_rule()
        ups = enumerate_upsets(sp)
        for a in ups:
            for b_up in ups:
                rep = check_disjoint_cluster_bound(
                    build.measure, build.base, rule, a, b_up.complement(), 0
                )
                assert rep.ok


class TestFoldingHypothesisBound:
    def test_product_measure_full_rule_consistent(self):
        m = random_product_measure(2, __import__("random").Random(3))
        sp = m.space
        for amask in range(16):
            for bmask in range(16):
                rep = check_folding_hypothesis_bound(
                    m, full_rule(), Event(sp, amask), Event(sp, bmask), 0
                )
                assert rep.consistent
                assert rep.conclusion_ok  # independent case: the product bound holds

    def test_full_event_trivial(self):
        m = random_fkg_measure(2, 9)
        sp = m.space
        full = Event.full(sp)
        b = coord_event(sp, 2, 1)
        rep = check_folding_hypothesis_bound(m, full_rule(), full, b, 0)
        assert rep.conclusion_ok  # P(full box B) = P(B) <= P(B)

    def test_ising_counterexample_is_consistent(self):
        build = ising_build(IsingSpec((1, 2), ((1, 2, F(2)),)))
        sp = build.measure.space
        a = coord_event(sp, 1, 1)
        b = coord_event(sp, 2, 1)
        rep = check_folding_hypothesis_bound(
            build.measure, increasing_only_rule(), a, b, 0
        )
        assert rep.lhs == F(1, 3)
        assert rep.rhs == F(1, 4)
        assert not rep.conclusion_ok
        assert not rep.hypothesis_ok  # some folding must also fail
        assert rep.consistent

    def test_meta_property_on_random_fkg(self):
        import random

        rng = random.Random(12)
        for seed in range(6):
            m = random_fkg_measure(2, 100 + seed)
            sp = m.space
            for _ in range(10):
                a = Event(sp, rng.randrange(16))
                b = Event(sp, rng.randrange(16))
                for rule in (full_rule(), increasing_only_rule()):
                    rep = check_folding_hypothesis_bound(m, rule, a, b, 0)
                    assert rep.consistent

    @pytest.mark.parametrize("n, pairs", [(2, 32), (3, 12)])
    def test_matches_the_fraction_oracle_for_every_eps(self, n, pairs):
        rng = random.Random(20 + n)
        failing = 0
        for seed in range(3):
            m = random_fkg_measure(n, 300 + seed)
            sp = m.space
            for _ in range(pairs):
                a = Event(sp, rng.randrange(1 << sp.size))
                b = Event(sp, rng.randrange(1 << sp.size))
                for make, keep in RULES_AND_KEEPS[:2]:
                    rule = make()
                    spec, gap = max(fraction_fold_gaps(m, keep, a, b), key=lambda sg: sg[1])
                    eps_values = [F(0), F(1, 7)]
                    if gap > 0:
                        failing += 1
                        eps_values += [gap, gap - F(1, 10**6)]
                    reports = {}
                    for eps in eps_values:
                        rep = reports[eps] = check_folding_hypothesis_bound(m, rule, a, b, eps)
                        got = (rep.hypothesis_failures, rep.foldings_checked, rep.lhs, rep.rhs)
                        assert got == fraction_folding_hypothesis(m, keep, a, b, eps)
                    if gap > 0:
                        assert spec not in reports[gap].hypothesis_failures
                        assert spec in reports[gap - F(1, 10**6)].hypothesis_failures
                    with pytest.raises(InvalidParams):
                        check_folding_hypothesis_bound(m, rule, a, b, F(-1, 7))
        assert failing >= 4


class TestBoxProductSweep:
    def test_matches_direct_box_on_two_sites(self):
        m = random_product_measure(2, __import__("random").Random(1))
        res = box_product_sweep(m)
        assert res["pairs"] == 256
        assert not res["violations"]

    def test_product_three_sites(self):
        m = random_product_measure(3, __import__("random").Random(2))
        res = box_product_sweep(m)
        assert res["pairs"] == 65536
        assert not res["violations"]

    def test_ising_violations_match_the_definition(self):
        m = ising_build(IsingSpec((1, 2), ((1, 2, F(2)),))).measure
        sp = m.space
        events = [Event(sp, mask) for mask in range(16)]
        expect = [
            (a.mask, b.mask)
            for a in events
            for b in events
            if m.prob(brute_box(a, b, lambda w, k, l: True)) > m.prob(a) * m.prob(b)
        ]
        res = box_product_sweep(m)
        assert res["pairs"] == 256 and len(expect) == 4
        assert res["violations"] == expect


_R32 = SiteSpace((1, 2), ((0, 1, 2), (0, 1)))
_WIDE = 2**41 + 1
SWEEP_MEASURES = {
    "n0": Measure.uniform(SiteSpace((), ())),
    "n1": normalize(binary(1), [1, 3]),
    "uniform2": Measure.uniform(binary(2)),
    "uniform3": Measure.uniform(binary(3)),
    "product2": random_product_measure(2, random.Random(5)),
    "product3": random_product_measure(3, random.Random(6)),
    "point-mass": normalize(binary(3), [0, 0, 0, 0, 0, 1, 0, 0]),
    "zeros2": normalize(binary(2), [0, 2, 0, 4]),
    "end-heavy": normalize(binary(3), [5, 1, 1, 1, 1, 1, 1, 5]),
    "sparse": normalize(binary(3), [1, 0, 0, 5, 0, 3, 2, 9]),
    "radix32": normalize(_R32, [1, 2, 3, 4, 5, 6]),
    "radix32-zeros": normalize(_R32, [0, 2, 0, 4, 5, 0]),
    "wide": normalize(binary(3), [_WIDE, 3, 5, _WIDE - 7, 11, 13, 2**40, 17]),
}


class TestBoxProductSweepOracle:
    @pytest.mark.parametrize("name", list(SWEEP_MEASURES))
    def test_matches_the_pair_loop(self, name):
        m = SWEEP_MEASURES[name]
        assert box_product_sweep(m) == brute_box_product_sweep(m)

    def test_the_data_reaches_what_it_names(self):
        assert SWEEP_MEASURES["point-mass"].int_weights[1] == 1
        assert SWEEP_MEASURES["wide"].int_weights[1] > 2**40
        assert len(box_product_sweep(SWEEP_MEASURES["end-heavy"])["violations"]) == 1814
        assert len(box_product_sweep(SWEEP_MEASURES["sparse"])["violations"]) == 2063


def _straddled():
    """Atom {00, 11} on bond (1, 2) with A = {10, 11} and B = {01, 11}: at 11
    every disjoint pair (K, L) puts site 1 in K and site 2 in L, and the
    atom's cluster {1, 2} meets both."""
    from rcfold import BondStateAssignment, HyperbondStructure

    sp = binary(2)
    struct = HyperbondStructure(sp, ((1, 2),))
    base = RcrBase(struct, ((BondStateAssignment(struct, (0b1001,)), F(1)),))
    a, b = Event.from_indices(sp, [2, 3]), Event.from_indices(sp, [1, 3])
    return check_disjoint_cluster_bound(base.measure, base, full_rule(), a, b)


_B2, _B3 = Event.full(binary(2)), Event.full(binary(3))
_EDGE = ising_build(IsingSpec((1, 2), ((1, 2, F(2)),)))
OCCURRENCE_GUARDS = {
    "straddling-cluster": (
        _straddled,
        PreconditionFailed,
        "straddling cluster of atom 0 of the base at 11",
    ),
    "box-events-apart": (lambda: box_with_rule(_B2, _B3, full_rule()), SpaceMismatch, "different"),
    "select-off-space": (
        lambda: full_rule().select(_B2, _B3, binary(2).config([0, 0])),
        SpaceMismatch,
        "different",
    ),
    "cluster-bound-off-binary": (
        lambda: check_disjoint_cluster_bound(
            Measure.uniform(SiteSpace((1,), ((0, 1, 2),))), _EDGE.base, full_rule(), _B2, _B2
        ),
        NonBinaryAlphabet,
        "binary",
    ),
    "cluster-bound-events-apart": (
        lambda: check_disjoint_cluster_bound(_EDGE.measure, _EDGE.base, full_rule(), _B2, _B3),
        SpaceMismatch,
        "events and measure",
    ),
    "hypothesis-off-binary": (
        lambda: check_folding_hypothesis_bound(
            Measure.uniform(SiteSpace((1,), ((0, 1, 2),))), full_rule(), _B2, _B2
        ),
        NonBinaryAlphabet,
        "binary",
    ),
    "hypothesis-events-apart": (
        lambda: check_folding_hypothesis_bound(_EDGE.measure, full_rule(), _B3, _B2),
        SpaceMismatch,
        "events and measure",
    ),
}


@pytest.mark.parametrize("make, error, match", OCCURRENCE_GUARDS.values(), ids=OCCURRENCE_GUARDS)
def test_occurrence_guards(make, error, match):
    with pytest.raises(error, match=match):
        make()
