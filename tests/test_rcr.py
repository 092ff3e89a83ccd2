import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from rcfold import (
    BondStateAssignment,
    Event,
    FoldSpec,
    HyperbondStructure,
    IsingSpec,
    Measure,
    NoCompatiblePair,
    NonBinaryAlphabet,
    PreconditionFailed,
    RcrBase,
    SiteSpace,
    check_sublattice,
    clusters,
    compatible,
    complete_pairing_base,
    construct_uniform_symmetric_rcr,
    fold,
    induced_measure,
    ising_build,
    ising_measure,
    predicates,
    verify_rcr,
)

from rcfold import rcr
from rcfold.cli import main
from rcfold.errors import InvalidParams, InvariantViolated, SpaceMismatch
from rcfold.measures import enumerate_upsets
from rcfold.serialize import (
    base_from_json,
    base_to_json,
    config_from_json,
    dumps_canonical,
    event_from_json,
    measure_to_json,
)
from rcfold.suites import _ising_weights, connected_graphs

from oracles import (
    brute_induced_measure,
    brute_sublattice_flags,
    fraction_base_measure,
    fraction_ising_build,
    fraction_ising_measure,
    fraction_verify_rcr,
)

F = Fraction
RADIX32 = SiteSpace((1, 2), ((0, 1, 2), (0, 1)))
# pair states, bit t for the local configuration t: 00, 01, 10, 11
DIAG = 0b1001
ANTI = 0b0110
FULL2 = 0b1111


def binary(n):
    return SiteSpace.binary(range(1, n + 1))


def pair_struct(n):
    return HyperbondStructure(binary(n), tuple(combinations(range(1, n + 1), 2)))


def ising_edge(x):
    return IsingSpec((1, 2), ((1, 2, F(x)),))


class TestCompatible:
    def test_full_states_accept_everything(self):
        struct = pair_struct(2)
        eta = BondStateAssignment(struct, (FULL2,))
        for w in binary(2).iter_configs():
            assert compatible(eta, w)

    def test_diagonal_rejects_mixed(self):
        struct = pair_struct(2)
        eta = BondStateAssignment(struct, (DIAG,))
        assert not compatible(eta, binary(2).config([0, 1]))

    def test_antidiagonal_accepts_mixed(self):
        struct = pair_struct(2)
        eta = BondStateAssignment(struct, (ANTI,))
        assert compatible(eta, binary(2).config([1, 0]))


class TestInducedMeasure:
    def test_two_site_edge_base(self):
        struct = pair_struct(2)
        base = RcrBase(
            struct,
            (
                (BondStateAssignment(struct, (DIAG,)), F(1, 2)),
                (BondStateAssignment(struct, (FULL2,)), F(1, 2)),
            ),
        )
        assert induced_measure(base).weights == (F(1, 3), F(1, 6), F(1, 6), F(1, 3))

    def test_all_full_gives_uniform(self):
        struct = pair_struct(2)
        base = RcrBase(struct, ((BondStateAssignment(struct, (FULL2,)), F(1)),))
        assert induced_measure(base) == Measure.uniform(binary(2))

    def test_point_mass_on_diagonal(self):
        struct = pair_struct(2)
        base = RcrBase(struct, ((BondStateAssignment(struct, (DIAG,)), F(1)),))
        assert induced_measure(base).weights == (F(1, 2), F(0), F(0), F(1, 2))

    def test_no_compatible_pair(self):
        struct = pair_struct(2)
        base = RcrBase(struct, ((BondStateAssignment(struct, (0,)), F(1)),))
        with pytest.raises(NoCompatiblePair):
            induced_measure(base)

    def test_linear_in_atom_weights(self):
        from rcfold import normalize

        struct = pair_struct(2)
        eta_d = BondStateAssignment(struct, (DIAG,))
        eta_f = BondStateAssignment(struct, (FULL2,))
        mixed = RcrBase(struct, ((eta_d, F(1, 4)), (eta_f, F(3, 4))))
        # unnormalized mass is the weight-sum over compatible atoms
        raw = [
            F(1, 4) * compatible(eta_d, w) + F(3, 4) * compatible(eta_f, w)
            for w in binary(2).iter_configs()
        ]
        assert induced_measure(mixed) == normalize(binary(2), raw)


def set_bits(state):
    return tuple(t for t in range(state.bit_length()) if state >> t & 1)


def random_base(struct, seed, atoms=4):
    """The all-full and the all-empty atom plus up to ``atoms`` - 2 more whose
    bond states are seeded random subsets of the bond's local configurations,
    one coin per configuration in index order; atoms sorted by their states'
    configuration lists."""
    rng = random.Random(seed)
    sizes = [full.bit_length() for full in struct.full_states]
    etas = {
        BondStateAssignment(struct, struct.full_states),
        BondStateAssignment(struct, (0,) * len(sizes)),
    }
    for _ in range(atoms - 2):
        states = (sum(rng.getrandbits(1) << t for t in range(k)) for k in sizes)
        etas.add(BondStateAssignment(struct, states))
    etas = sorted(etas, key=lambda eta: tuple(map(set_bits, eta.states)))
    raw = [rng.randint(1, 5) for _ in etas]
    return RcrBase(struct, tuple((eta, F(w, sum(raw))) for eta, w in zip(etas, raw)))


def assert_induces_as_defined(base):
    expect = brute_induced_measure(base)
    if expect is None:
        with pytest.raises(NoCompatiblePair):
            induced_measure(base)
    else:
        assert induced_measure(base) == expect


class TestInducedMeasureOracle:
    def test_ising_and_pairing_bases(self):
        for n in range(4):
            assert_induces_as_defined(complete_pairing_base(binary(n)))
        for edges in [((1, 2, F(2)),), ((1, 2, F(3)), (2, 3, F(5, 2))), ((1, 3, F(2)),)]:
            spec = IsingSpec((1, 2, 3), edges)
            assert_induces_as_defined(ising_build(spec).base)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_binary_bases(self, n):
        sites = range(1, n + 1)
        structures = [HyperbondStructure(binary(n), ((s,) for s in sites)), pair_struct(n)]
        if n == 3:
            structures.append(HyperbondStructure(binary(3), ((1, 2, 3), (1, 3))))
        for k, struct in enumerate(structures):
            for seed in range(12):
                assert_induces_as_defined(random_base(struct, 100 * k + seed))

    def test_mixed_radix_with_a_three_site_bond(self):
        sp = SiteSpace((1, 2, 3), ((0, 1, 2), (0, 1), (0, 1, 2)))
        struct = HyperbondStructure(sp, ((3, 1, 2), (1, 3), (2,)))
        for seed in range(12):
            base = random_base(struct, seed, atoms=3)
            assert_induces_as_defined(base)
            if brute_induced_measure(base) is not None:
                assert base.measure == fraction_base_measure(base)


def assert_matches_fraction_oracles(spec):
    """The integer kernels give the records of their Fraction references:
    the measure, the base with its atoms and cluster marginal, the induced
    measure and the check against the build's own and a squared measure."""
    build = ising_build(spec)
    assert build == fraction_ising_build(spec)
    assert ising_measure(spec) == fraction_ising_measure(spec)
    assert build.base.measure == fraction_base_measure(build.base)
    squared = ising_measure(IsingSpec(spec.vertices, tuple((u, v, x * x) for u, v, x in spec.edges)))
    for p in (build.measure, squared):
        assert verify_rcr(p, build.base) == fraction_verify_rcr(p, build.base)


class TestFractionOracles:
    @pytest.mark.parametrize("weighting", ["2", "3", "5/2", "mixed"])
    def test_every_suite_graph(self, weighting):
        for v, edges in connected_graphs(4):
            xs = _ising_weights(len(edges), weighting)
            spec = IsingSpec(tuple(range(1, v + 1)), tuple((u, w, x) for (u, w), x in zip(edges, xs)))
            assert_matches_fraction_oracles(spec)

    def test_fields(self):
        spec = IsingSpec((1, 2, 3), ((1, 2, F(2)), (2, 3, F(3, 2))), fields=(F(2), F(3, 2), F(1)))
        assert ising_measure(spec) == fraction_ising_measure(spec)
        with pytest.raises(PreconditionFailed):
            ising_build(spec)

    def test_edge_weight_one_drops_its_active_atoms(self):
        spec = IsingSpec((1, 2, 3), ((1, 2, F(1)), (2, 3, F(7, 3))))
        assert_matches_fraction_oracles(spec)
        # p = 0 on edge 1-2: only the atoms leaving it full remain
        assert [eta.states[0] for eta, _ in ising_build(spec).base.atoms] == [FULL2, FULL2]

    def test_mismatched_measure_gives_its_deviation(self):
        build = ising_build(IsingSpec((1, 2, 3), ((1, 2, F(2)), (2, 3, F(3)), (1, 3, F(5, 2)))))
        other = ising_measure(IsingSpec((1, 2, 3), ((1, 2, F(3)), (2, 3, F(2)), (1, 3, F(3)))))
        check = verify_rcr(other, build.base)
        assert check == fraction_verify_rcr(other, build.base)
        assert check.max_dev == F(11, 390) and not check.ok


class TestInducedInvariants:
    def test_symmetric_base_induces_symmetric_measure(self):
        for x in (2, 3, F(5, 2)):
            m = induced_measure(ising_build(ising_edge(x)).base)
            assert m.is_symmetric()
        assert induced_measure(complete_pairing_base(binary(3))).is_symmetric()

    def test_ferromagnetic_base_peaks_at_all_ones(self):
        # the all-ones configuration is compatible with every atom
        for edges in [((1, 2, F(2)),), ((1, 2, F(2)), (2, 3, F(3)))]:
            vertices = tuple(sorted({v for e in edges for v in e[:2]}))
            build = ising_build(IsingSpec(vertices, edges))
            top = binary(len(vertices)).config([1] * len(vertices))
            assert all(compatible(eta, top) for eta, _ in build.base.atoms)
            m = induced_measure(build.base)
            assert all(m.weights[-1] >= w for w in m.weights)


class TestVerifyRcr:
    def test_exact(self):
        build = ising_build(ising_edge(2))
        check = verify_rcr(build.measure, build.base, 0)
        assert check.max_dev == 0 and check.ok

    def test_uniform_base_against_skewed_measure(self):
        struct = pair_struct(2)
        base = RcrBase(struct, ((BondStateAssignment(struct, (FULL2,)), F(1)),))
        p = Measure(binary(2), (F(2, 5), F(1, 10), F(1, 5), F(3, 10)))
        check = verify_rcr(p, base, 0)
        assert check.max_dev == F(3, 20)
        assert not check.ok
        assert verify_rcr(p, base, F(3, 20)).ok


class TestClusters:
    def test_no_active_bonds(self):
        struct = pair_struct(3)
        eta = BondStateAssignment(struct, (FULL2,) * 3)
        assert clusters(eta) == (frozenset({1}), frozenset({2}), frozenset({3}))

    def test_one_active_bond(self):
        struct = HyperbondStructure(binary(3), ((1, 2),))
        eta = BondStateAssignment(struct, (DIAG,))
        assert clusters(eta) == (frozenset({1, 2}), frozenset({3}))

    def test_chain_merges(self):
        struct = HyperbondStructure(binary(3), ((1, 2), (2, 3)))
        eta = BondStateAssignment(struct, (DIAG, DIAG))
        assert clusters(eta) == (frozenset({1, 2, 3}),)


class TestPredicates:
    def test_ising_base_flags(self):
        build = ising_build(ising_edge(2))
        flags = predicates(build.base)
        assert flags.symmetric and flags.ferromagnetic and flags.pairwise
        assert not flags.antiferromagnetic

    def test_single_antiferro_bond(self):
        struct = HyperbondStructure(binary(2), ((1, 2),))
        base = RcrBase(struct, ((BondStateAssignment(struct, (ANTI,)), F(1)),))
        flags = predicates(base)
        assert flags.symmetric and flags.antiferromagnetic
        assert flags.isolated_edges and flags.pairwise
        assert not flags.ferromagnetic

    def test_overlapping_active_bonds_not_isolated(self):
        struct = HyperbondStructure(binary(3), ((1, 2), (2, 3)))
        base = RcrBase(struct, ((BondStateAssignment(struct, (ANTI, ANTI)), F(1)),))
        assert not predicates(base).isolated_edges

    def test_asymmetric_state_detected(self):
        struct = HyperbondStructure(binary(2), ((1, 2),))
        base = RcrBase(struct, ((BondStateAssignment(struct, (0b1000,)), F(1)),))
        assert not predicates(base).symmetric


class TestConstructUniformSymmetric:
    def test_diagonal_support(self):
        sp = binary(2)
        d = Event.from_indices(sp, [0, 3])
        base = construct_uniform_symmetric_rcr(d)
        assert base.atoms[0][0].states == (DIAG,)
        assert induced_measure(base) == Measure.uniform_on(d)

    def test_full_support(self):
        sp = binary(2)
        d = Event.full(sp)
        base = construct_uniform_symmetric_rcr(d)
        assert base.atoms[0][0].states == (FULL2,)
        assert induced_measure(base) == Measure.uniform(sp)

    def test_three_site_support(self):
        sp = binary(3)
        # constant on {1,2}: 000, 001, 110, 111
        d = Event.from_indices(sp, [0, 1, 6, 7])
        base = construct_uniform_symmetric_rcr(d)
        states = dict(zip(base.structure.bonds, base.atoms[0][0].states))
        assert states[(1, 2)] == DIAG
        assert states[(1, 3)] == FULL2
        assert states[(2, 3)] == FULL2
        assert induced_measure(base) == Measure.uniform_on(d)

    def test_asymmetric_support_rejected(self):
        sp = binary(2)
        with pytest.raises(PreconditionFailed, match="symmetric"):
            construct_uniform_symmetric_rcr(Event.from_indices(sp, [0]))

    def test_non_lattice_support_rejected(self):
        sp = binary(2)
        with pytest.raises(PreconditionFailed, match="lattice"):
            construct_uniform_symmetric_rcr(Event.from_indices(sp, [1, 2]))

    def test_mixed_radix_support_rejected(self):
        # the lattice kernel reads join and meet as OR and AND of indices,
        # which holds on binary spaces only
        for d in (Event.full(RADIX32), Event.from_indices(RADIX32, [0, 5])):
            with pytest.raises(NonBinaryAlphabet):
                construct_uniform_symmetric_rcr(d)

    def test_exhaustive_small_spaces(self):
        from rcfold import is_fkg

        for n in (1, 2, 3):
            sp = binary(n)
            for mask in range(1, 1 << sp.size):
                d = Event(sp, mask)
                if d.bar() != d:
                    continue
                if not is_fkg(Measure.uniform_on(d)).verdict:
                    continue
                base = construct_uniform_symmetric_rcr(d)
                assert verify_rcr(Measure.uniform_on(d), base, 0).ok
                flags = predicates(base)
                assert flags.symmetric and flags.ferromagnetic and flags.pairwise

    def test_exhaustive_four_sites(self):
        # symmetric subsets come in reversal orbits; sweep them all
        from itertools import combinations as combos

        from rcfold import is_fkg

        sp = binary(4)
        orbits = sorted({frozenset({i, 15 - i}) for i in range(16)}, key=min)
        checked = 0
        for r in range(1, len(orbits) + 1):
            for pick in combos(orbits, r):
                d = Event.from_indices(sp, (i for orb in pick for i in orb))
                if not is_fkg(Measure.uniform_on(d)).verdict:
                    continue
                base = construct_uniform_symmetric_rcr(d)
                assert verify_rcr(Measure.uniform_on(d), base, 0).ok
                checked += 1
        assert checked > 10


class TestSublattice:
    def test_diagonal_not_separating(self):
        sp = binary(2)
        flags = check_sublattice(Event.from_indices(sp, [0, 3]))
        assert flags.sublattice and flags.symmetric and not flags.separates_points

    def test_full_cube(self):
        sp = binary(2)
        flags = check_sublattice(Event.full(sp))
        assert flags.sublattice and flags.symmetric
        assert flags.separates_points and flags.equals_full

    def test_empty_is_not_separating(self):
        sp = binary(1)
        flags = check_sublattice(Event.empty(sp))
        assert flags.sublattice and flags.symmetric and not flags.separates_points

    def test_mixed_radix_event_rejected(self):
        for e in (Event.full(RADIX32), Event.from_indices(RADIX32, [0, 5])):
            with pytest.raises(NonBinaryAlphabet):
                check_sublattice(e)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_exhaustive_small(self, m):
        sp = binary(m)
        for mask in range(1 << sp.size):
            flags = check_sublattice(Event(sp, mask))  # raises on a violation
            assert tuple(vars(flags).values()) == brute_sublattice_flags(Event(sp, mask))
            if flags.sublattice and flags.symmetric and flags.separates_points:
                assert flags.equals_full

    def test_seeded_subsets_of_the_four_cube(self):
        sp = binary(4)
        rng = random.Random(4)
        for _ in range(200):
            event = Event(sp, rng.getrandbits(sp.size))
            flags = check_sublattice(event)
            assert tuple(vars(flags).values()) == brute_sublattice_flags(event)

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_interval_and_up_set(self, n):
        # random subsets rarely reach the closed branch; intervals and up-sets
        # are closed under join and meet, and sets near them test the branch
        sp = binary(n)
        top = (1 << n) - 1
        intervals = [
            sum(1 << c for c in range(sp.size) if not a & ~c and not c & ~b)
            for a in range(top + 1)
            for b in range(top + 1)
            if not a & ~b
        ]
        events = [Event(sp, m) for m in intervals] + list(enumerate_upsets(sp))
        for event in events:
            assert tuple(vars(check_sublattice(event)).values()) == brute_sublattice_flags(event)

    def test_seeded_subsets_of_the_five_cube(self):
        sp = binary(5)
        rng = random.Random(5)
        for _ in range(200):
            event = Event(sp, rng.getrandbits(sp.size))
            assert tuple(vars(check_sublattice(event)).values()) == brute_sublattice_flags(event)

    def test_separation_lemma_failure_is_an_invariant_violation(self, monkeypatch):
        # {01, 10} is symmetric and separating but no sublattice; a closure
        # test that wrongly accepts it makes the lemma's re-check fire
        monkeypatch.setattr(rcr, "_join_meet_closed", lambda d: True)
        with pytest.raises(InvariantViolated, match="separation lemma"):
            check_sublattice(Event.from_indices(binary(2), [1, 2]))


class TestCompletePairing:
    def test_two_sites(self):
        base = complete_pairing_base(binary(2))
        assert len(base.atoms) == 1
        assert base.atoms[0][0].states == (ANTI,)
        assert induced_measure(base).weights == (F(0), F(1, 2), F(1, 2), F(0))

    def test_three_sites(self):
        base = complete_pairing_base(binary(3))
        assert len(base.atoms) == 3
        m = induced_measure(base)
        for i, w in enumerate(m.weights):
            assert w == (F(1, 6) if i.bit_count() in (1, 2) else F(0))

    def test_four_sites_perfect_matchings(self):
        base = complete_pairing_base(binary(4))
        assert len(base.atoms) == 3
        m = induced_measure(base)
        for i, w in enumerate(m.weights):
            assert (w > 0) == (i.bit_count() == 2)

    def test_five_sites_matching_count(self):
        base = complete_pairing_base(binary(5))
        assert len(base.atoms) == 15

    def test_balanced_configs_equally_covered(self):
        # every balanced configuration is compatible with ceil(n/2)! pairings
        import math

        for n in (2, 3, 4):
            base = complete_pairing_base(binary(n))
            m = induced_measure(base)
            balanced = [i for i in range(1 << n) if abs(2 * i.bit_count() - n) <= 1]
            expect = F(1, len(balanced))
            for i in balanced:
                assert m.weights[i] == expect
            count = math.factorial((n + 1) // 2)
            for i in balanced:
                hits = sum(
                    1
                    for eta, _ in base.atoms
                    if compatible(eta, binary(n).config_at(i))
                )
                assert hits == count

    def test_predicate_flags(self):
        flags = predicates(complete_pairing_base(binary(4)))
        assert flags.symmetric and flags.antiferromagnetic
        assert flags.isolated_edges and flags.pairwise


class TestIsing:
    def test_single_edge_measure_and_probability(self):
        build = ising_build(ising_edge(2))
        assert build.measure.weights == (F(1, 3), F(1, 6), F(1, 6), F(1, 3))
        assert ising_edge(2).edge_probability(F(2)) == F(1, 2)

    def test_weight_one_is_independent(self):
        build = ising_build(ising_edge(1))
        assert build.measure == Measure.uniform(binary(2))
        assert len(build.base.atoms) == 1
        assert build.base.atoms[0][0].states == (FULL2,)

    def test_weight_below_one_rejected(self):
        with pytest.raises(PreconditionFailed):
            ising_build(ising_edge(F(1, 2)))

    def test_base_weight_boundary_is_one(self):
        assert ising_build(ising_edge(1)).base.atoms[0][1] == 1
        with pytest.raises(PreconditionFailed):
            ising_build(ising_edge(1 - F(1, 10**9)))

    def test_field_rejected_for_base(self):
        spec = IsingSpec((1, 2), ((1, 2, F(2)),), fields=(F(2), F(1)))
        with pytest.raises(PreconditionFailed):
            ising_build(spec)

    def test_field_shifts_measure(self):
        spec = IsingSpec((1, 2), ((1, 2, F(2)),), fields=(F(2), F(1)))
        m = ising_measure(spec)
        assert m.weights == (F(2, 9), F(1, 9), F(2, 9), F(4, 9))

    def test_triangle_round_trip_and_fold(self):
        spec = IsingSpec(
            (1, 2, 3), ((1, 2, F(2)), (2, 3, F(2)), (1, 3, F(2)))
        )
        build = ising_build(spec)
        assert verify_rcr(build.measure, build.base, 0).ok
        squared = IsingSpec(
            (1, 2, 3), ((1, 2, F(4)), (2, 3, F(4)), (1, 3, F(4)))
        )
        assert fold(build.measure, FoldSpec((), ())) == ising_measure(squared)

    def test_marginal_formula_cross_checked(self):
        # ising_build raises internally if the closed cluster formula and the
        # direct joint marginal ever disagree; run it over a few graphs
        for edges in [((1, 2, F(3)),), ((1, 2, F(2)), (2, 3, F(5, 2)))]:
            vertices = tuple(sorted({v for e in edges for v in e[:2]}))
            ising_build(IsingSpec(vertices, edges))

    def test_marginal_mismatch_is_an_invariant_violation(self, monkeypatch):
        # one cluster per assignment breaks the closed formula's 2^clusters
        monkeypatch.setattr(rcr, "clusters", lambda eta: (frozenset({1, 2}),))
        with pytest.raises(InvariantViolated, match="cluster marginal mismatch"):
            ising_build(ising_edge(2))


class TestPositiveGuards:
    """Each positivity guard rejects 0 and accepts a small positive value."""

    def test_atom_weights(self):
        struct = pair_struct(2)
        diag, full = BondStateAssignment(struct, (DIAG,)), BondStateAssignment(struct, (FULL2,))
        with pytest.raises(InvalidParams, match="atom weights must be positive"):
            RcrBase(struct, ((diag, F(0)), (full, F(1))))
        tiny = F(1, 10**9)
        base = RcrBase(struct, ((diag, tiny), (full, 1 - tiny)))
        assert base.measure == fraction_base_measure(base)

    def test_edge_weights(self):
        with pytest.raises(InvalidParams, match="edge weights must be positive"):
            ising_edge(0)
        spec = ising_edge(F(1, 10**9))
        assert ising_measure(spec) == fraction_ising_measure(spec)

    def test_field_weights(self):
        with pytest.raises(InvalidParams, match="field weights must be positive"):
            IsingSpec((1, 2), ((1, 2, F(2)),), fields=(F(0), F(1)))
        spec = IsingSpec((1, 2), ((1, 2, F(2)),), fields=(F(1, 10**9), F(1)))
        assert ising_measure(spec) == fraction_ising_measure(spec)


def radix32_base_file(*states):
    """A base file on RADIX32 with bond (1, 2): one atom per list of state
    rows, the weights equal."""
    atoms = [{"weight": f"1/{len(states)}", "states": [list(rows)]} for rows in states]
    return {"sites": [1, 2], "alphabets": [[0, 1, 2], [0, 1]], "bonds": [[1, 2]], "atoms": atoms}


RADIX32_FULL = [[a, b] for a in range(3) for b in range(2)]
TRIANGLE = IsingSpec((1, 2, 3), ((1, 2, F(2)), (2, 3, F(3)), (1, 3, F(5, 2))))
PINNED_BASES = {
    "ising-triangle": (
        lambda: ising_build(TRIANGLE).base,
        "0ab67360aa6fcc243d4262370b3bedadaa483200935ca464f116b314dd3ad361",
    ),
    "pairings-4": (
        lambda: complete_pairing_base(binary(4)),
        "224a2dad456b95382994cb894aa393a50836884e04de3675b189bbd3c3a17d17",
    ),
    "uniform-support": (
        lambda: construct_uniform_symmetric_rcr(Event.from_indices(binary(3), [0, 1, 6, 7])),
        "0f61fd8e991d2bf29d134f37325dfc9dc98983d32fba75f3502c8d224692c8a0",
    ),
    "radix32-file": (
        lambda: base_from_json(radix32_base_file([[2, 1], [0, 0], [0, 0]], RADIX32_FULL)),
        "7d70b0b0b90512c91b7c67ef0c71160e64f091e1fbc2895c5c3f26983e158ecb",
    ),
}


class TestBondStateMasks:
    """A state is a bitmask over its bond's local configurations, numbered
    in mixed radix over the bond's sites, first site most significant."""

    def triple_flags(self, state):
        struct = HyperbondStructure(binary(3), ((1, 2, 3),))
        return predicates(RcrBase(struct, ((BondStateAssignment(struct, (state,)), F(1)),)))

    def test_three_site_bond_is_never_antiferromagnetic(self):
        # 0b0110 is {01, 10} on a pair but {001, 010} on three sites
        assert predicates(complete_pairing_base(binary(2))).antiferromagnetic
        assert self.triple_flags(0b0110).antiferromagnetic is False

    def test_three_site_ferromagnetic_state_needs_bit_7(self):
        assert self.triple_flags(0b10000001).ferromagnetic
        assert self.triple_flags(0b10000000).ferromagnetic
        assert self.triple_flags(0b01111111).ferromagnetic is False
        assert self.triple_flags(0).ferromagnetic  # the empty state holds vacuously

    def test_local_cylinders_follow_the_space_order(self):
        # a bond over every site numbers its configurations as the space does
        struct = HyperbondStructure(RADIX32, ((2, 1), (1,)))
        assert struct.full_states == (0b111111, 0b111)
        assert struct.local_cylinders == (tuple(1 << t for t in range(6)), RADIX32.value_masks[0])

    def test_radix32_symmetry_reverses_the_local_index(self):
        symmetric = base_from_json(radix32_base_file([[0, 0], [2, 1]]))
        assert symmetric.atoms[0][0].states == (0b100001,)
        assert predicates(symmetric).symmetric
        assert not predicates(base_from_json(radix32_base_file([[1, 0]]))).symmetric

    def test_states_range_from_empty_to_full(self):
        struct = HyperbondStructure(RADIX32, ((1, 2),))
        full = struct.full_states[0]
        assert full == (1 << 6) - 1
        for state in (0, full):
            assert BondStateAssignment(struct, (state,)).states == (state,)
        for state in (-1, full + 1):
            with pytest.raises(InvalidParams, match=r"state of bond \[1, 2\] outside 0\.\.63"):
                BondStateAssignment(struct, (state,))

    def test_base_files_round_trip(self):
        sp = SiteSpace((1, 2, 3), ((0, 1, 2), (0, 1), (0, 1, 2)))
        structures = [
            pair_struct(3),
            HyperbondStructure(binary(3), ((1, 2, 3), (1, 3))),
            HyperbondStructure(sp, ((3, 1, 2), (1, 3), (2,))),
        ]
        for struct in structures:
            for seed in range(8):
                base = random_base(struct, seed)
                assert base_from_json(json.loads(dumps_canonical(base))) == base

    def test_repeated_rows_collapse(self):
        base = base_from_json(radix32_base_file([[2, 1], [0, 0], [0, 0]], RADIX32_FULL))
        assert [eta.states for eta, _ in base.atoms] == [(0b100001,), (0b111111,)]
        assert base_to_json(base)["atoms"][0]["states"] == [[[0, 0], [2, 1]]]

    def test_unknown_symbol_is_a_usage_error(self, tmp_path, capsys):
        build = ising_build(ising_edge(2))
        obj = base_to_json(build.base)
        obj["atoms"][0]["states"][0] = [[0, 0], [1, 2]]
        measure, base = tmp_path / "m.json", tmp_path / "b.json"
        measure.write_text(dumps_canonical(measure_to_json(build.measure)))
        base.write_text(json.dumps(obj))
        assert main(["rcr", "verify", str(measure), str(base)]) == 2
        err = capsys.readouterr().err
        assert err == "error: bond [1, 2] has no local configuration [1, 2]\n"

    @pytest.mark.parametrize("build, digest", PINNED_BASES.values(), ids=PINNED_BASES)
    def test_base_file_bytes_pinned(self, build, digest):
        # base-file bytes are part of the file format, which the state layout must not move
        assert hashlib.sha256(dumps_canonical(build()).encode()).hexdigest() == digest


def _base(struct, *states):
    """A base of equally weighted atoms, one per state tuple."""
    weight = F(1, len(states))
    return RcrBase(struct, tuple((BondStateAssignment(struct, s), weight) for s in states))


def _hyper(*bonds):
    return HyperbondStructure(binary(2), bonds)


def _ising(vertices, *edges):
    return IsingSpec(vertices, tuple((u, v, F(2)) for u, v in edges))


RCR_GUARDS = {
    "empty-bond": (lambda: _hyper(()), InvalidParams, "nonempty"),
    "repeated-site": (lambda: _hyper((1, 1)), InvalidParams, "distinct"),
    "site-off-space": (lambda: _hyper((1, 3)), InvalidParams, "not in space"),
    "repeated-bond": (lambda: _hyper((1, 2), (2, 1)), InvalidParams, "duplicate-free"),
    "state-count": (lambda: _base(pair_struct(2), (DIAG, DIAG)), InvalidParams, "one state"),
    "weights-short-of-1": (
        lambda: RcrBase(pair_struct(2), ((BondStateAssignment(pair_struct(2), (DIAG,)), F(1, 2)),)),
        InvalidParams,
        "sum to exactly 1",
    ),
    "repeated-atom": (lambda: _base(pair_struct(2), (DIAG,), (DIAG,)), InvalidParams, "distinct"),
    "atom-off-structure": (
        lambda: RcrBase(pair_struct(2), _base(_hyper((1,)), (1,)).atoms),
        SpaceMismatch,
        "different structure",
    ),
    "compatible-off-space": (
        lambda: compatible(_base(pair_struct(2), (DIAG,)).atoms[0][0], binary(3).config([0] * 3)),
        SpaceMismatch,
        "different spaces",
    ),
    "verify-off-space": (
        lambda: verify_rcr(Measure.uniform(binary(3)), _base(pair_struct(2), (DIAG,))),
        SpaceMismatch,
        "different spaces",
    ),
    "empty-support": (
        lambda: construct_uniform_symmetric_rcr(Event.empty(binary(2))),
        PreconditionFailed,
        "support is empty",
    ),
    "pairings-off-binary": (lambda: complete_pairing_base(RADIX32), NonBinaryAlphabet, "binary"),
    "repeated-vertex": (lambda: _ising((1, 1)), InvalidParams, "vertices must be distinct"),
    "self-loop": (lambda: _ising((1, 2), (1, 1)), InvalidParams, "self-loops"),
    "edge-off-graph": (lambda: _ising((1, 2), (1, 3)), InvalidParams, "outside vertex set"),
    "repeated-edge": (lambda: _ising((1, 2), (1, 2), (2, 1)), InvalidParams, "duplicate edge"),
}


@pytest.mark.parametrize("make, error, match", RCR_GUARDS.values(), ids=RCR_GUARDS)
def test_rcr_guards(make, error, match):
    with pytest.raises(error, match=match):
        make()


def _edited_base_file(edit):
    obj = radix32_base_file(RADIX32_FULL)
    edit(obj["atoms"][0])
    return lambda: base_from_json(obj)


SERIALIZE_GUARDS = {
    "state-count": (_edited_base_file(lambda atom: atom["states"].pop()), "one state per bond"),
    "short-row": (_edited_base_file(lambda atom: atom["states"][0].append([0])), "no local"),
    "unknown-symbol": (_edited_base_file(lambda atom: atom["states"][0].append([3, 0])), "no local"),
    "config-symbol": (lambda: config_from_json(binary(2), [0, 2]), "symbol 2 not in alphabet"),
    "config-length": (lambda: config_from_json(binary(2), [0]), "length does not match"),
    "event-body": (
        lambda: event_from_json({"sites": [1], "alphabets": [[0, 1]]}),
        "needs 'configs' or 'mask_hex'",
    ),
}


@pytest.mark.parametrize("make, match", SERIALIZE_GUARDS.values(), ids=SERIALIZE_GUARDS)
def test_serialize_guards(make, match):
    with pytest.raises(InvalidParams, match=match):
        make()
