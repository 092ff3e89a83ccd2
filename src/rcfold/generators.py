"""Seeded measure generators for suites and the CLI.

Random measures draw independent integer weights uniformly from 1..64 and
normalize. The conditioned generators construct members of their class
exactly, in two families:

- lattice condition: log-supermodular integer weights, which satisfy it
  by the theorem of Fortuin, Kasteleyn and Ginibre (1971) that positive
  weights satisfy the lattice condition exactly when they are
  log-supermodular;
- weak negative condition: pointwise products of full-support members
  (product measures, exchangeable measures with log-concave levels, the
  disagreement tilt). Every folded value is a product of two weights, so
  for full-support measures the weak and strict negative conditions are
  closed under pointwise products, strict times weak giving strict.

Each result is re-checked against its contract; a failure raises
InvariantViolated, since it means a library bug. Everything is deterministic in
the seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import prod
from typing import Sequence

from .association import (
    ExchangeableLevels,
    exchangeable_from_levels,
    is_fkg,
    is_nfkg,
)
from .errors import InvalidParams, InvariantViolated
from .measures import Event, Measure, SiteSpace, normalize
from .rcr import IsingSpec

WEIGHT_TOP = 64


def binary_space(n: int) -> SiteSpace:
    if n < 0:
        raise InvalidParams("site count must be nonnegative")
    return SiteSpace.binary(range(1, n + 1))


def random_measure(n: int, seed: int) -> Measure:
    rng = random.Random(seed)
    space = binary_space(n)
    return normalize(space, [rng.randrange(1, WEIGHT_TOP + 1) for _ in range(space.size)])


def random_product_measure(n: int, rng: random.Random) -> Measure:
    space = binary_space(n)
    margins = [Fraction(rng.randrange(1, 8), 8) for _ in range(n)]
    weights = []
    for i in range(space.size):
        w = Fraction(1)
        for j, m in enumerate(margins):
            w *= m if i >> (n - 1 - j) & 1 else 1 - m
        weights.append(w)
    return Measure(space, tuple(weights))


def random_fkg_measure(n: int, seed: int) -> Measure:
    """A log-supermodular measure: w(omega) = prod over S within omega of a_S.

    a_S is drawn from 1..4 on single sites and from 1..3 on larger sets, one
    of which is forced up to 2 or 3 when n >= 2, so the measure is never a
    product.
    """
    rng = random.Random(seed)
    space = binary_space(n)
    size = space.size
    coef = [1] + [rng.randint(1, 4 if s.bit_count() == 1 else 3) for s in range(1, size)]
    interactions = [s for s in range(size) if s.bit_count() >= 2]
    if interactions and all(coef[s] == 1 for s in interactions):
        coef[rng.choice(interactions)] = rng.randint(2, 3)
    for q in range(n):  # multiplicative zeta transform over subsets
        bit = 1 << q
        for i in range(size):
            if i & bit:
                coef[i] *= coef[i ^ bit]
    m = normalize(space, coef)
    if not is_fkg(m).verdict:
        raise InvariantViolated("log-supermodular weights fail the lattice condition")
    return m


def random_nfkg_measure(n: int, seed: int) -> Measure:
    """A full-support measure satisfying the weak negative condition.

    The weights are the pointwise product of a product measure with margins
    k/8, an exchangeable measure whose level weights have nonincreasing
    ratios (log-concave), and the disagreement tilt 2^(k(n-k)) at k ones.
    The tilt is drawn for about half the seeds, and always when the levels
    are geometric: it makes the result strict, and at n >= 2 either it or
    non-geometric levels keep the result from being a product measure.
    """
    rng = random.Random(seed)
    space = binary_space(n)
    margins = [rng.randint(1, 7) for _ in range(n)]
    ratios = sorted((rng.randint(1, 8) for _ in range(n)), reverse=True)
    levels = [4 ** (n - k) * prod(ratios[:k]) for k in range(n + 1)]
    tilt = 2 if rng.randrange(2) or len(set(ratios)) <= 1 else 1
    weights = []
    for i in range(space.size):
        k = i.bit_count()
        w = levels[k] * tilt ** (k * (n - k))
        for j, a in enumerate(margins):
            w *= a if i >> (n - 1 - j) & 1 else 8 - a
        weights.append(w)
    m = normalize(space, weights)
    if not is_nfkg(m).verdict:
        raise InvariantViolated("product of negative members fails the weak negative condition")
    return m


def uniform_subset_measure(n: int, bit_strings: Sequence[str]) -> Measure:
    """Uniform measure on the configurations given as 0/1 strings."""
    space = binary_space(n)
    indices = []
    for s in bit_strings:
        if len(s) != n or any(ch not in "01" for ch in s):
            raise InvalidParams(f"bad configuration string {s!r}")
        indices.append(int(s, 2))
    if not indices:
        raise InvalidParams("the subset must be nonempty")
    return Measure.uniform_on(Event.from_indices(space, indices))


def exchangeable_measure(n: int, level_weights: Sequence) -> Measure:
    return exchangeable_from_levels(ExchangeableLevels.from_weights(n, level_weights))


def ising_spec_from_edge_list(edges: Sequence[tuple]) -> IsingSpec:
    """Build a field-free model spec from (u, v, weight) triples; vertices
    inferred in order of first appearance."""
    vertices = []
    for u, v, _ in edges:
        for w in (u, v):
            if w not in vertices:
                vertices.append(w)
    return IsingSpec(tuple(vertices), tuple(edges))
