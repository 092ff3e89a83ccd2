from fractions import Fraction

import pytest

from rcfold import (
    AssociationReport,
    InvalidParams,
    InvariantViolated,
    generators,
    is_fkg,
    is_nfkg,
)
from rcfold.generators import (
    exchangeable_measure,
    ising_spec_from_edge_list,
    random_fkg_measure,
    random_measure,
    random_nfkg_measure,
    random_product_measure,
    uniform_subset_measure,
)
from rcfold.rcr import ising_measure

F = Fraction


def is_product(m):
    """Full-support product measures are exactly the log-modular ones."""
    w = m.weights
    return all(w[i] * w[j] == w[i | j] * w[i & j] for i in range(len(w)) for j in range(len(w)))


class TestRandomMeasures:
    def test_deterministic_in_seed(self):
        assert random_measure(3, 5) == random_measure(3, 5)
        assert random_measure(3, 5) != random_measure(3, 6)

    def test_fkg_generator_contract(self):
        for seed in range(40):
            assert is_fkg(random_fkg_measure(3, seed)).verdict

    def test_fkg_generator_n4_is_fkg_and_not_product(self):
        for seed in range(10):
            m = random_fkg_measure(4, seed)
            assert is_fkg(m).verdict
            assert not is_product(m)
        assert random_fkg_measure(4, 3) == random_fkg_measure(4, 3)

    def test_nfkg_generator_contract(self):
        for n in (1, 2, 3, 4):
            for seed in range(6):
                m = random_nfkg_measure(n, seed)
                assert is_nfkg(m).verdict
                assert all(w > 0 for w in m.weights)
                if n >= 2:
                    assert not is_product(m)
        assert random_nfkg_measure(3, 5) == random_nfkg_measure(3, 5)
        assert random_nfkg_measure(3, 5) != random_nfkg_measure(3, 6)

    def test_conditioned_generators_small_n(self):
        for gen in (random_fkg_measure, random_nfkg_measure):
            assert gen(0, 1).weights == (F(1),)
            m = gen(1, 1)
            assert m.space.n == 1 and all(w > 0 for w in m.weights)

    def test_product_measure_margins(self):
        import random

        m = random_product_measure(2, random.Random(1))
        w = m.weights
        # independence: the cross ratio collapses
        assert w[0] * w[3] == w[1] * w[2]


class TestRecheckFailures:
    FAIL = AssociationReport(False, None, {})

    def test_fkg_recheck(self, monkeypatch):
        monkeypatch.setattr(generators, "is_fkg", lambda m: self.FAIL)
        with pytest.raises(InvariantViolated, match="lattice condition"):
            random_fkg_measure(3, 1)

    def test_nfkg_recheck(self, monkeypatch):
        monkeypatch.setattr(generators, "is_nfkg", lambda m: self.FAIL)
        with pytest.raises(InvariantViolated, match="weak negative condition"):
            random_nfkg_measure(3, 1)


class TestNamedGenerators:
    def test_ising_edge(self):
        spec = ising_spec_from_edge_list([(1, 2, F(2))])
        assert ising_measure(spec).weights == (F(1, 3), F(1, 6), F(1, 6), F(1, 3))

    def test_exchangeable(self):
        m = exchangeable_measure(2, (1, 2, 1))
        assert m.weights == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))

    def test_uniform_subset(self):
        m = uniform_subset_measure(2, ["00", "11"])
        assert m.weights == (F(1, 2), F(0), F(0), F(1, 2))

    def test_uniform_subset_validates(self):
        with pytest.raises(InvalidParams):
            uniform_subset_measure(2, ["012"])
        with pytest.raises(InvalidParams):
            uniform_subset_measure(2, [])
