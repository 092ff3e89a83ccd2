import random
from fractions import Fraction
from itertools import product

import pytest

from rcfold import (
    ExchangeableLevels,
    Measure,
    PreconditionFailed,
    SiteSpace,
    complete_pairing_base,
    exchangeable_from_levels,
    fkg_theorem_pipeline,
    fold,
    induced_measure,
    is_fkg,
    is_fkg_via_foldings,
    is_na,
    is_nfkg,
    is_pa,
    is_snfkg,
    is_ulc,
    levels_from_measure,
    normalize,
    perturb,
    snfkg_limit_rcr,
    sup_distance,
)
from rcfold import Event, association
from rcfold.association import _distinct_limits, _ulc_weights
from rcfold.errors import InvalidParams, InvariantViolated
from rcfold.folding import FoldingUndefined, _first_fold_specs
from rcfold.generators import (
    random_fkg_measure,
    random_measure,
    random_nfkg_measure,
    random_product_measure,
)
from rcfold.measures import GuardedFields
from rcfold.rcr import BasePredicates, RcrCheck

from oracles import (
    disagreement_count,
    loop_is_pa,
    loop_limit_failures,
    loop_pairing_failures,
    scoped_na_check,
    stream_distinct_limits,
)

F = Fraction


def binary(n):
    return SiteSpace.binary(range(1, n + 1))


def ising2():
    return Measure(binary(2), (F(1, 3), F(1, 6), F(1, 6), F(1, 3)))


def uniform_01_10():
    return Measure(binary(2), (F(0), F(1, 2), F(1, 2), F(0)))


class TestIsFkg:
    def test_positive_example(self):
        m = normalize(binary(2), [4, 1, 2, 3])
        assert is_fkg(m).verdict

    def test_product_measures(self):
        from rcfold.generators import random_product_measure
        import random

        for seed in range(5):
            assert is_fkg(random_product_measure(3, random.Random(seed))).verdict

    def test_antiferro_witness(self):
        m = Measure(binary(2), (F(1, 10), F(2, 5), F(2, 5), F(1, 10)))
        rep = is_fkg(m)
        assert not rep.verdict
        assert rep.witness["omega"] == "01" and rep.witness["omega_prime"] == "10"
        assert rep.witness["lhs"] == F(1, 100)
        assert rep.witness["rhs"] == F(4, 25)


class TestIsFkgViaFoldings:
    def test_uniform(self):
        assert is_fkg_via_foldings(Measure.uniform(binary(2))).verdict

    def test_antiferro_fails_at_empty_fold(self):
        m = Measure(binary(2), (F(1, 10), F(2, 5), F(2, 5), F(1, 10)))
        rep = is_fkg_via_foldings(m)
        assert not rep.verdict
        assert rep.witness["fold"] == "[-]"

    def test_agrees_with_direct_form(self):
        for seed in range(300):
            m = random_measure(3, seed)
            assert is_fkg(m).verdict == is_fkg_via_foldings(m).verdict

    def test_closure_under_folding(self):
        from rcfold.generators import random_fkg_measure

        for seed in range(20):
            m = random_fkg_measure(3, seed)
            for spec in _first_fold_specs(m.space):
                try:
                    f = fold(m, spec)
                except FoldingUndefined:
                    continue
                assert is_fkg(f).verdict


class TestIsPa:
    def test_two_site_ising(self):
        rep = is_pa(ising2())
        assert rep.verdict
        assert rep.quantifier_log == {"upsets": 6, "pairs": 36}

    def test_product(self):
        from rcfold.generators import random_product_measure
        import random

        assert is_pa(random_product_measure(3, random.Random(0))).verdict

    def test_antiferro_witness(self):
        rep = is_pa(uniform_01_10())
        assert not rep.verdict
        assert rep.witness["lhs"] == F(0)
        assert rep.witness["rhs"] == F(1, 4)


def product_measure(n, rng, den):
    """A product measure whose site marginals have the power of two den as
    their denominator."""
    margins = [F(rng.randrange(1, den) | 1, den) for _ in range(n)]
    weights = []
    for i in range(1 << n):
        w = F(1)
        for j, m in enumerate(margins):
            w *= m if i >> (n - 1 - j) & 1 else 1 - m
        weights.append(w)
    return Measure(binary(n), tuple(weights))


def pa_measures(family):
    rng = random.Random(family)
    if family == "zero-weights":
        return [sparse_measure(n, rng) for n in range(1, 5) for _ in range(12)]
    if family == "point-mass":
        return [
            Measure.uniform_on(Event.from_indices(binary(n), [x]))
            for n in range(5)
            for x in range(1 << n)
        ]
    if family == "random":
        return [random_measure(n, seed) for n in range(5) for seed in range(12)]
    if family == "log-supermodular":
        return [random_fkg_measure(n, seed) for n in range(1, 5) for seed in range(12)]
    if family == "product":
        return [product_measure(n, rng, 8) for n in range(5) for _ in range(12)]
    # den > 2**40, so every field is wider than 64 bits
    return [
        normalize(binary(n), [rng.randrange(1 << 40, 1 << k) for _ in range(1 << n)])
        for n in range(1, 5)
        for k in range(41, 49)
    ] + [product_measure(n, rng, 1 << 21) for n in range(2, 5) for _ in range(8)]


class TestIsPaOracle:
    """The packed up-set scan against the plain pair loop: the same verdict,
    witness and counts on binary spaces of 0 to 4 sites."""

    FAMILIES = {
        "log-supermodular": 48,
        "point-mass": 31,
        "product": 60,
        "random": 60,
        "wide-fields": 56,
        "zero-weights": 48,
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_the_pair_loop(self, family):
        measures = pa_measures(family)
        assert len(measures) == self.FAMILIES[family]
        for m in measures:
            rep = is_pa(m)
            assert (rep.verdict, rep.witness, rep.quantifier_log) == loop_is_pa(m)

    def test_data_reaches_both_verdicts(self):
        verdicts = {
            family: [is_pa(m).verdict for m in pa_measures(family)] for family in self.FAMILIES
        }
        assert all(verdicts["point-mass"] + verdicts["product"] + verdicts["log-supermodular"])
        assert verdicts["random"].count(False) >= 30
        assert verdicts["zero-weights"].count(False) >= 20
        assert 10 <= verdicts["wide-fields"].count(False) <= 46

    def test_data_exercises_its_family(self):
        assert all(0 in m.int_weights[0] for m in pa_measures("zero-weights"))
        for m in pa_measures("wide-fields"):
            den = m.int_weights[1]
            assert den > 1 << 40 and GuardedFields.holding(1, den * den).bits > 64
        assert {m.space.n for m in pa_measures("random")} == set(range(5))


def no_pair_base(argmax):
    raise PreconditionFailed("stub: no pair base")


class TestLimitCertificates:
    """The pipeline certifies each distinct argmax set once; its failures
    must equal those of certifying every distinct limit afresh."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        association._limit_certificate.cache_clear()
        yield
        association._limit_certificate.cache_clear()

    def test_matches_certifying_every_limit(self):
        measures = [random_fkg_measure(n, seed) for n in range(1, 5) for seed in range(60)]
        rng = random.Random(11)
        measures += [product_measure(n, rng, 8) for n in range(1, 5) for _ in range(15)]
        for m in measures:
            assert fkg_theorem_pipeline(m).failures == loop_limit_failures(m)
        assert association._limit_certificate.cache_info().currsize < len(measures)

    STAGES = {
        "construct": ("construct_uniform_symmetric_rcr", no_pair_base),
        "predicates": ("predicates", lambda base: BasePredicates(True, False, None, True, True)),
        "represent": ("verify_rcr", lambda p, base, eps: RcrCheck(F(1), False)),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_forced_failure_stage(self, stage, monkeypatch):
        name, stub = self.STAGES[stage]
        monkeypatch.setattr(association, name, stub)
        measures = [random_fkg_measure(n, seed) for n in range(1, 4) for seed in range(3)]
        for m in [ising2()] + measures:
            association._limit_certificate.cache_clear()
            rep = fkg_theorem_pipeline(m)
            assert rep.failures == loop_limit_failures(m)
            assert rep.failures and {f.stage for f in rep.failures} == {stage}
            assert not rep.ok


class TestPairingCertificates:
    """The negative pipeline certifies each distinct argmax set once; its
    failures must equal those of building the pairing base afresh for
    every distinct limit."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        association._pairing_certificate.cache_clear()
        yield
        association._pairing_certificate.cache_clear()

    @staticmethod
    def snfkg_measures(sizes):
        measures = [
            perturb(random_nfkg_measure(n, seed), F(1, 8)) for n in sizes for seed in range(6)
        ]
        return measures + [induced_measure(complete_pairing_base(binary(n))) for n in sizes]

    def test_matches_certifying_every_limit(self):
        measures = self.snfkg_measures(range(1, 5))
        for m in measures:
            assert is_snfkg(m).verdict
            rep = snfkg_limit_rcr(m)
            assert rep.failures == loop_pairing_failures(m) == ()
        assert association._pairing_certificate.cache_info().currsize < len(measures)

    STAGES = {
        "pairing": ("induced_measure", lambda base: None),
        "predicates": ("predicates", lambda base: BasePredicates(True, None, False, True, True)),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_forced_failure_stage(self, stage, monkeypatch):
        name, stub = self.STAGES[stage]
        monkeypatch.setattr(association, name, stub)
        for m in self.snfkg_measures(range(1, 4)):
            association._pairing_certificate.cache_clear()
            rep = snfkg_limit_rcr(m)
            assert rep.failures == loop_pairing_failures(m)
            assert rep.failures and {f.stage for f in rep.failures} == {stage}
            assert not rep.ok


class TestIsNa:
    def test_uniform_01_10(self):
        assert is_na(uniform_01_10()).verdict

    def test_two_site_ising_fails(self):
        rep = is_na(ising2())
        assert not rep.verdict
        assert rep.witness["lhs"] == F(1, 3)
        assert rep.witness["rhs"] == F(1, 4)

    def test_exchangeable_example(self):
        m = exchangeable_from_levels(ExchangeableLevels.from_weights(2, (1, 2, 1)))
        assert m.weights == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
        assert is_na(m).verdict

    def test_matches_literal_definition(self):
        for seed in range(40):
            m = random_measure(2, seed)
            assert is_na(m).verdict == scoped_na_check(m)
        for seed in range(12):
            m = random_measure(3, seed)
            assert is_na(m).verdict == scoped_na_check(m)


class TestIsNfkg:
    def test_uniform(self):
        assert is_nfkg(Measure.uniform(binary(2))).verdict

    def test_uniform_01_10(self):
        assert is_nfkg(uniform_01_10()).verdict

    def test_two_site_ising_fails(self):
        rep = is_nfkg(ising2())
        assert not rep.verdict
        assert rep.witness["fold"] == "[-]"


class TestIsSnfkg:
    def test_uniform_01_10(self):
        assert is_snfkg(uniform_01_10()).verdict

    def test_full_uniform_not_strict(self):
        rep = is_snfkg(Measure.uniform(binary(2)))
        assert not rep.verdict
        assert rep.witness["reason"] == "unbalanced configuration not strictly below"

    def test_implies_weak_condition(self):
        for seed in range(30):
            m = random_nfkg_measure(2, seed)
            t = perturb(m, F(1, 8))
            if is_snfkg(t).verdict:
                assert is_nfkg(t).verdict

    def test_closure_under_folding(self):
        # is_snfkg itself re-derives closure and raises on violation
        for seed in range(10):
            m = perturb(random_nfkg_measure(3, seed), F(1, 8))
            assert is_snfkg(m).verdict

    def test_strict_without_weak_is_an_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(association, "_nfkg_violation", lambda folds: {"fold": "stub"})
        with pytest.raises(InvariantViolated, match="without the weak one"):
            is_snfkg(uniform_01_10())

    def test_strict_not_preserved_is_an_invariant_violation(self, monkeypatch):
        original = association._snfkg_violation
        calls = []

        def second_call_fails(folds):
            calls.append(folds)
            return original(folds) if len(calls) == 1 else {"reason": "stub"}

        monkeypatch.setattr(association, "_snfkg_violation", second_call_fails)
        with pytest.raises(InvariantViolated, match="not preserved by a folding"):
            is_snfkg(uniform_01_10())


class TestPipelines:
    def test_fkg_pipeline_two_site_ising(self):
        rep = fkg_theorem_pipeline(ising2())
        assert rep.ok
        assert rep.final.verdict

    def test_fkg_pipeline_product(self):
        from rcfold.generators import random_product_measure
        import random

        rep = fkg_theorem_pipeline(random_product_measure(2, random.Random(4)))
        assert rep.ok

    def test_fkg_pipeline_rejects_non_fkg(self):
        with pytest.raises(PreconditionFailed):
            fkg_theorem_pipeline(uniform_01_10())

    def test_snfkg_pipeline_uniform_01_10(self):
        rep = snfkg_limit_rcr(uniform_01_10())
        assert rep.ok
        assert rep.final.verdict

    def test_snfkg_pipeline_three_site_balanced(self):
        from rcfold import complete_pairing_base, induced_measure

        m = induced_measure(complete_pairing_base(binary(3)))
        rep = snfkg_limit_rcr(m)
        assert rep.ok

    def test_snfkg_pipeline_rejects_weak_input(self):
        with pytest.raises(PreconditionFailed):
            snfkg_limit_rcr(Measure.uniform(binary(2)))


def sparse_measure(n, rng):
    """Weights drawn from 0..3 with zeros twice as likely, at least one of
    them zero: conditioning every site on a zero-weight configuration is an
    undefined fold."""
    while True:
        weights = [rng.choice((0, 0, 1, 2, 3)) for _ in range(1 << n)]
        if any(weights) and not all(weights):
            return normalize(binary(n), weights)


def walk_measures(family):
    rng = random.Random(family)
    if family == "empty":
        return [Measure(binary(0), (F(1),))]
    if family == "log-supermodular":
        return [random_fkg_measure(n, seed) for n in range(1, 5) for seed in range(8)]
    if family == "perturbed-product":
        return [
            perturb(random_product_measure(n, rng), F(1, 4))
            for n in range(1, 5)
            for _ in range(8)
        ]
    if family == "sparse":
        return [sparse_measure(n, rng) for n in range(2, 5) for _ in range(12)]
    return [
        exchangeable_from_levels(ExchangeableLevels.from_weights(5, w))
        for w in ([1, 2, 5, 5, 2, 1], [3, 0, 1, 1, 0, 3])
    ]


class TestDistinctLimits:
    """The memoised walk against the plain stream over every branch: the
    same branch count, and the same limits named by the same first branch,
    in the same order."""

    FAMILIES = {
        "empty": 1,
        "log-supermodular": 32,
        "perturbed-product": 32,
        "sparse": 36,
        "exchangeable": 2,
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_the_stream_over_every_branch(self, family):
        measures = walk_measures(family)
        assert len(measures) == self.FAMILIES[family]
        for m in measures:
            assert _distinct_limits(m) == stream_distinct_limits(m)

    def test_sparse_measures_have_undefined_folds(self):
        full = {n: _distinct_limits(Measure.uniform(binary(n)))[0] for n in range(2, 5)}
        measures = walk_measures("sparse")
        assert all(_distinct_limits(m)[0] < full[m.space.n] for m in measures)


class TestPerturb:
    def test_uniform_two_sites(self):
        eps = F(1, 8)
        m = perturb(Measure.uniform(binary(2)), eps)
        scale = 4 + 2 * eps
        assert m.weights == (
            1 / scale,
            (1 + eps) / scale,
            (1 + eps) / scale,
            1 / scale,
        )
        assert is_snfkg(m).verdict

    def test_popcount_tilt_matches_disagreement_count(self):
        eps = F(1, 8)
        for n in range(5):
            m = random_measure(n, 7)
            raw = [
                w * (1 + eps) ** disagreement_count(m.space.config_at(i))
                for i, w in enumerate(m.weights)
            ]
            assert perturb(m, eps) == normalize(m.space, raw)

    def test_eps_must_be_positive(self):
        m = Measure.uniform(binary(2))
        with pytest.raises(InvalidParams, match="must be positive"):
            perturb(m, 0)
        assert perturb(m, F(1, 10**9)) != m

    def test_balanced_support_untouched(self):
        m = uniform_01_10()
        assert perturb(m, F(1, 8)) == m

    def test_nfkg_to_snfkg_and_na(self):
        for seed in range(30):
            m = random_nfkg_measure(3, seed)
            assert is_snfkg(perturb(m, F(1, 8))).verdict
            assert is_na(m).verdict

    def test_distance_shrinks_along_eps_grid(self):
        grid = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]
        for seed in range(10):
            m = random_nfkg_measure(3, seed)
            dists = [sup_distance(perturb(m, e), m) for e in grid]
            assert all(a >= b for a, b in zip(dists, dists[1:]))
            assert dists[-1] < F(1, 10)


class TestDisagreementCount:
    def test_example(self):
        assert disagreement_count(binary(3).config([1, 1, 0])) == 2

    def test_constant_config(self):
        assert disagreement_count(binary(4).config([1, 1, 1, 1])) == 0

    def test_matches_k_times_m_minus_k(self):
        for n in range(1, 6):
            sp = binary(n)
            for i in range(sp.size):
                c = sp.config_at(i)
                k = sum(c.values)
                assert disagreement_count(c) == k * (n - k)

    def test_argmax_on_balanced(self):
        # m=4: k=2 gives 4, k=1 gives 3
        vals = {k: k * (4 - k) for k in range(5)}
        assert vals[2] == 4 and vals[1] == 3
        assert max(vals.values()) == vals[2]


class TestExchangeable:
    def test_levels_normalize(self):
        lv = ExchangeableLevels.from_weights(2, (1, 2, 1))
        assert lv.p == (F(1, 6), F(1, 3), F(1, 6))

    def test_ulc_examples(self):
        assert is_ulc(ExchangeableLevels.from_weights(2, (1, 2, 1)))
        assert is_ulc(ExchangeableLevels.from_weights(2, (1, 3, 1)))
        assert not is_ulc(ExchangeableLevels.from_weights(2, (4, 1, 4)))

    def test_ulc_of_raw_weights_matches_the_normalised_levels(self):
        vectors = list(product(range(1, 5), repeat=4))
        assert len(vectors) == 256
        for w in vectors:
            assert _ulc_weights(w) == is_ulc(ExchangeableLevels.from_weights(3, w)), w

    @pytest.mark.parametrize(
        "n, weights, message",
        [
            (2, (1, 1), "need one level weight per occupation number 0..n"),
            (1, (1, -2), "level weights must be nonnegative"),
            (1, (-1, -1), "level weights must be nonnegative"),
            (1, (0, 0), "level weights are all zero"),
        ],
    )
    def test_from_weights_rejects_bad_levels(self, n, weights, message):
        with pytest.raises(InvalidParams, match=message):
            ExchangeableLevels.from_weights(n, weights)

    def test_ulc_implies_nfkg_and_na(self):
        m = exchangeable_from_levels(ExchangeableLevels.from_weights(2, (1, 3, 1)))
        assert is_nfkg(m).verdict
        assert is_na(m).verdict

    def test_non_ulc_is_not_nfkg(self):
        m = exchangeable_from_levels(ExchangeableLevels.from_weights(2, (4, 1, 4)))
        rep = is_nfkg(m)
        assert not rep.verdict
        assert rep.witness["fold"] == "[-]"

    def test_levels_from_measure(self):
        m = exchangeable_from_levels(ExchangeableLevels.from_weights(3, (1, 2, 2, 1)))
        lv = levels_from_measure(m)
        assert lv is not None and lv.p[0] == lv.p[3]
        assert levels_from_measure(normalize(binary(2), [4, 1, 2, 3])) is None
