import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from rcfold import (
    FoldPath,
    FoldSpec,
    FoldingUndefined,
    InvalidParams,
    Measure,
    SiteSpace,
    branch_limit,
    check_convergence_bound,
    enumerate_essential_prefixes,
    essentialize,
    fold,
    fold_path,
    normalize,
    sup_distance,
)
from rcfold.folding import _convergence_checks, _first_fold_specs
from rcfold.generators import random_measure

from oracles import (
    brute_fold,
    fraction_convergence_checks,
    recursive_essential_prefixes,
    square_renormalize,
)

F = Fraction


def binary(n):
    return SiteSpace.binary(range(1, n + 1))


P_BASE = Measure(binary(2), (F(2, 5), F(1, 10), F(1, 5), F(3, 10)))
P_SYM = Measure(binary(2), (F(3, 7), F(1, 14), F(1, 14), F(3, 7)))


class TestFold:
    def test_empty_conditioning(self):
        assert fold(P_BASE, FoldSpec((), ())) == P_SYM

    def test_single_site(self):
        f = fold(P_BASE, FoldSpec((1,), (1,)))
        assert f.space.sites == (2,)
        assert f.weights == (F(1, 2), F(1, 2))

    def test_uniform_fixed(self):
        u = Measure.uniform(binary(3))
        for spec in [FoldSpec((), ()), FoldSpec((2,), (0,)), FoldSpec((1, 3), (1, 0))]:
            f = fold(u, spec)
            assert f == Measure.uniform(f.space)

    def test_ising_doubles_interaction(self):
        # agreement weight 2 folds to agreement weight 4, no field
        p = Measure(binary(2), (F(1, 3), F(1, 6), F(1, 6), F(1, 3)))
        f = fold(p, FoldSpec((), ()))
        assert f.weights == (F(2, 5), F(1, 10), F(1, 10), F(2, 5))

    def test_undefined_when_mass_vanishes(self):
        p = Measure(binary(2), (F(1, 2), F(1, 2), F(0), F(0)))
        with pytest.raises(FoldingUndefined):
            fold(p, FoldSpec((), ()))  # every reversal product is zero

    def test_output_symmetric(self):
        for seed in range(20):
            m = random_measure(3, seed)
            f = fold(m, FoldSpec((3,), (1,)))
            assert f.is_symmetric()

    def test_ternary_beta_relabeling(self):
        sp = SiteSpace((1,), ((0, 1, 2),))
        m = normalize(sp, [1, 2, 4])
        spec = FoldSpec((), (), beta=((0,), (2,)))
        f = fold(m, spec)
        assert f.space.alphabets == ((0, 1),)
        assert f.weights == (F(1, 2), F(1, 2))  # both products are 1*4

    def test_inessential_equals_squaring(self):
        for seed in range(20):
            m = random_measure(2, seed)
            sym = fold(m, FoldSpec((), ()))
            assert fold(sym, FoldSpec((), ())) == square_renormalize(sym)


class TestFoldOracle:
    @staticmethod
    def assert_matches_oracle(m):
        for spec in _first_fold_specs(m.space):
            try:
                expected = brute_fold(m, spec)
            except FoldingUndefined:
                with pytest.raises(FoldingUndefined):
                    fold(m, spec)
                continue
            assert fold(m, spec) == expected, spec

    def test_binary_with_zero_weights(self):
        import random

        rng = random.Random(3)
        undefined = 0
        for n in (1, 2, 3):
            for _ in range(12):
                weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(1 << n)]
                weights[rng.randrange(1 << n)] += 1
                m = normalize(binary(n), weights)
                self.assert_matches_oracle(m)
                for spec in _first_fold_specs(m.space):
                    try:
                        fold(m, spec)
                    except FoldingUndefined:
                        undefined += 1
        assert undefined > 0

    def test_mixed_radix(self):
        import random

        sp = SiteSpace((1, 2, 3), ((0, 1, 2), ("a", "b"), (0, 1, 2)))
        rng = random.Random(5)
        for _ in range(3):
            m = normalize(sp, [rng.choice((0, 1, 2, 3, 7)) for _ in range(sp.size)])
            self.assert_matches_oracle(m)


class TestFoldPath:
    def test_empty_path_identity(self):
        assert fold_path(P_BASE, FoldPath(())) is P_BASE

    def test_double_empty_squares_twice(self):
        out = fold_path(P_SYM, [FoldSpec((), ()), FoldSpec((), ())])
        expected = square_renormalize(square_renormalize(P_SYM))
        assert out == expected
        assert out.weights == (F(648, 1297), F(1, 2594), F(1, 2594), F(648, 1297))

    def test_composition_matches_single_steps(self):
        path = [FoldSpec((1,), (1,)), FoldSpec((), ())]
        via_path = fold_path(P_BASE, path)
        step = fold(P_BASE, path[0])
        assert via_path == square_renormalize(step)

    def test_beta_rejected_after_first_step(self):
        with pytest.raises(Exception):
            FoldPath((FoldSpec((), ()), FoldSpec((), (), beta=((0,), (1,)))))


class TestEssentialize:
    def test_moves_conditioned_steps_forward(self):
        k1 = FoldSpec((1,), (1,))
        e = FoldSpec((), ())
        k2 = FoldSpec((2,), (0,))
        out = essentialize([k1, e, k2, e])
        assert out.steps == (k1, k2, e, e)

    def test_all_essential_unchanged(self):
        k1 = FoldSpec((1,), (0,))
        k2 = FoldSpec((2,), (1,))
        assert essentialize([k1, k2]).steps == (k1, k2)

    def test_first_step_stays_first(self):
        e = FoldSpec((), ())
        k = FoldSpec((2,), (1,))
        assert essentialize([e, k, e]).steps == (e, k, e)

    def test_preserves_fold_path_exactly(self):
        import random

        rng = random.Random(0)
        for seed in range(30):
            m = random_measure(3, seed)
            steps = []
            remaining = list(m.space.sites)
            for _ in range(4):
                k = tuple(s for s in remaining if rng.getrandbits(1))
                steps.append(FoldSpec(k, tuple(rng.getrandbits(1) for _ in k)))
                remaining = [s for s in remaining if s not in k]
            path = FoldPath(tuple(steps))
            assert fold_path(m, path) == fold_path(m, essentialize(path))


class TestBranchLimit:
    def test_symmetric_start(self):
        bl = branch_limit(P_SYM, [])
        assert bl.measure.weights == (F(1, 2), F(0), F(0), F(1, 2))
        assert bl.ratio == F(1, 6)
        assert bl.emitted_at == 1

    def test_uniform_on_support_is_fixed_point(self):
        sp = binary(2)
        m = Measure(sp, (F(1, 2), F(0), F(0), F(1, 2)))
        bl = branch_limit(m, [])
        assert bl.measure == m
        assert bl.ratio == 0

    def test_complete_pairing_fixed_point(self):
        sp = binary(2)
        m = Measure(sp, (F(0), F(1, 2), F(1, 2), F(0)))
        bl = branch_limit(m, [])
        assert bl.measure == m

    def test_limit_is_pointwise_limit_of_iterates(self):
        for seed in range(10):
            m = random_measure(3, seed)
            prefix = [FoldSpec((), ())]
            bl = branch_limit(m, prefix)
            iterate = fold_path(m, prefix + [FoldSpec((), ())] * 6)
            bound = m.space.size * bl.ratio ** (2**6)
            assert sup_distance(iterate, bl.measure) <= bound


class TestConvergenceBound:
    def test_two_site_example(self):
        r = check_convergence_bound(P_SYM, [], 2)
        assert r.distance == F(1, 74)
        assert r.bound == F(1, 9)  # 4 * (1/6)^2
        assert r.ok

    def test_uniform_start_distance_zero(self):
        sp = binary(2)
        m = Measure(sp, (F(1, 2), F(0), F(0), F(1, 2)))
        r = check_convergence_bound(m, [], 3)
        assert r.distance == 0
        assert r.ok

    def test_sweep_over_random_measures(self):
        from rcfold.generators import random_fkg_measure

        for seed in range(25):
            m = random_fkg_measure(3, seed)
            r = check_convergence_bound(m, [FoldSpec((), ())], 4)  # i = L + 3
            assert r.ok

    def test_relabeled_two_symbol_space_matches_binary(self):
        relabeled = SiteSpace((1, 2), (("a", "b"), ("x", "y")))
        p = normalize(relabeled, [1, 2, 3, 4])
        q = normalize(SiteSpace.binary((1, 2)), [1, 2, 3, 4])
        for i in range(2, 6):
            assert check_convergence_bound(p, [], i) == check_convergence_bound(q, [], i)

    def test_requires_i_past_prefix(self):
        with pytest.raises(InvalidParams):
            check_convergence_bound(P_SYM, [], 1)

    @pytest.mark.parametrize(
        "space", [binary(2), binary(3), SiteSpace((1, 2), ((0, 1, 2), (0, 1)))], ids=repr
    )
    def test_first_folds_match_the_fraction_stream(self, space):
        # weights 0..4 leave some folds undefined; both raise on those
        rng = random.Random(space.size)
        p = normalize(space, [rng.randrange(5) for _ in range(space.size - 1)] + [1])
        for spec in _first_fold_specs(space):
            try:
                _, stream = _convergence_checks(p, (spec,))
            except FoldingUndefined:
                with pytest.raises(FoldingUndefined):
                    next(fraction_convergence_checks(p, (spec,)))
                continue
            assert list(islice(stream, 4)) == list(islice(fraction_convergence_checks(p, (spec,)), 4))


class TestEnumerateEssentialPrefixes:
    def test_single_site_first_folds(self):
        m = normalize(binary(1), [1, 2])
        got = list(enumerate_essential_prefixes(m, 1))
        keys = {tuple((s.k_sites, s.alpha) for s in p) for p in got}
        assert keys == {
            (((), ()),),
            (((1,), (0,)),),
            (((1,), (1,)),),
        }

    def test_max_len_zero_empty(self):
        m = normalize(binary(2), [1, 2, 3, 4])
        assert list(enumerate_essential_prefixes(m, 0)) == []

    def test_matches_recursive_oracle(self):
        m = normalize(binary(2), [1, 2, 3, 4])
        paths = list(enumerate_essential_prefixes(m, 3))
        keys = [tuple((s.k_sites, s.alpha, s.beta) for s in p) for p in paths]
        assert len(paths) == len(set(keys))
        assert set(keys) == recursive_essential_prefixes(m, 3)
        assert len(keys) == 33

    def test_cap_enforced(self):
        from rcfold import CapExceeded

        m = Measure.uniform(binary(5))
        with pytest.raises(CapExceeded):
            list(enumerate_essential_prefixes(m, 1))

    def test_terminal_spaces_shrink(self):
        m = normalize(binary(2), [1, 2, 3, 4])
        for p in enumerate_essential_prefixes(m, 3):
            sizes = []
            remaining = set(m.space.sites)
            for step in p:
                remaining -= set(step.k_sites)
                sizes.append(len(remaining))
            assert sizes == sorted(sizes, reverse=True)


@given(st.integers(0, 2**16 - 1))
def test_fold_symmetry_property(bits):
    weights = [(bits >> (4 * k) & 15) + 1 for k in range(4)]
    m = normalize(binary(2), weights)
    f = fold(m, FoldSpec((), ()))
    assert f.weights == tuple(reversed(f.weights))


RADIX32 = SiteSpace((1, 2), ((0, 1, 2), (0, 1)))
FOLD_SPEC_GUARDS = {
    "alpha-count": (lambda: FoldSpec((1, 2), (0,)), "one alpha symbol per conditioned site"),
    "site-off-space": (lambda: fold(P_BASE, FoldSpec((3,), (0,))), "site 3 not in space"),
    "alpha-off-alphabet": (lambda: fold(P_BASE, FoldSpec((1,), (2,))), "alpha symbol 2 not in"),
    "beta-omitted-off-binary": (
        lambda: fold(Measure.uniform(RADIX32), FoldSpec((2,), (0,))),
        "beta may be omitted on binary alphabets only",
    ),
    "beta-rows-short": (
        lambda: fold(P_BASE, FoldSpec((), (), ((0,), (1,)))),
        "beta rows must cover exactly the remaining sites",
    ),
    "beta-off-alphabet": (
        lambda: fold(P_BASE, FoldSpec((), (), ((0, 0), (5, 1)))),
        "beta symbol outside the site's alphabet",
    ),
    "beta-equal": (
        lambda: fold(P_BASE, FoldSpec((), (), ((0, 0), (0, 1)))),
        "beta components must be pointwise distinct",
    ),
}


@pytest.mark.parametrize("make, match", FOLD_SPEC_GUARDS.values(), ids=FOLD_SPEC_GUARDS)
def test_fold_spec_guards(make, match):
    with pytest.raises(InvalidParams, match=match):
        make()
