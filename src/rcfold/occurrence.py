"""Disjoint occurrence witnesses, selection rules, and box operations.

For events A, B and a configuration w, a witness pair is a pair of
disjoint site sets (K, L) such that the cylinder of w on K lies inside A
and the cylinder on L lies inside B. A site set is held as a position-mask
(bit p for the site at position p), the witness set of an event at w as
one bitmask over position-masks. A selection rule is one of three named
side filters: at each configuration it gives the positions the A-side and
the B-side of a kept pair may use (every site, the top symbols, or the top
symbols for A and the bottom ones for B). Its box operation collects the
configurations where some pair is kept. An event's witness sets and a
rule's sides at every configuration are tabulated once per space
(``_witness_row``, ``_side_table``). Each rule is fold-invariant: on a fold
whose surviving sites are binary, a surviving site holds at the lift of a
folded configuration f exactly the symbol f holds there, so the rule a
fold induces is the rule itself. Two checkable bounds tie the machinery to
measures: the disjoint-cluster bound (box probability against the
bar-reflected intersection, given a symmetric cluster base none of whose
clusters straddles a kept witness pair, compared as position masks) and
the folding hypothesis bound (per-folding box inequalities forcing the
product bound upstairs).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, reduce
from operator import or_

from .errors import NonBinaryAlphabet, PreconditionFailed, SpaceMismatch
from .folding import FoldSpec, FoldWindow, _defined_folds, _first_folds, fold_window
from .measures import (
    Config,
    Event,
    GuardedFields,
    Measure,
    Record,
    SiteSpace,
    _cylinder_table,
    _reversed_mask,
    _tolerance,
    weight_summer,
)
from .rcr import RcrBase, predicates, verify_rcr


@lru_cache(maxsize=1024)  # the three occurrence suites box 318 distinct events
def _witness_row(space: SiteSpace, mask: int) -> tuple[int, ...]:
    """Entry i: the position-masks K with [w]_K inside the event ``mask``
    at configuration i, as a bitmask over K, read from the cylinder table.
    Each set is upward closed: a larger K has a smaller cylinder."""
    outside = ~mask
    return tuple(
        sum(1 << k for k, cyl in enumerate(row) if not cyl & outside)
        for row in _cylinder_table(space)
    )


@lru_cache(maxsize=None)  # keyed on the site count n, 2**n entries each
def _subset_sets(n: int) -> tuple[int, ...]:
    """Entry s: the position-masks inside s, as a bitmask over position-masks."""
    within = [1]
    for s in range(1, 1 << n):
        low = s & -s
        rest = within[s ^ low]
        within.append(rest | rest << low)
    return tuple(within)


def _partners(ks: int, within: tuple[int, ...]) -> int:
    """Position-masks disjoint from some member of ``ks``, as a bitmask."""
    full = len(within) - 1
    out = 0
    for k in range(full + 1):
        if ks >> k & 1:
            out |= within[full ^ k]
    return out


def _disjoint_pairs(ks: int, ls: int, n: int) -> list[tuple[int, int]]:
    """The disjoint pairs (K, L) of position-masks with K in ``ks`` and L in ``ls``."""
    kmasks = range(1 << n)
    return [(k, l) for k in kmasks if ks >> k & 1 for l in kmasks if ls >> l & 1 and not k & l]


@lru_cache(maxsize=256)  # the three occurrence suites use 18 (sides, space) tables
def _side_table(sides, space: SiteSpace) -> tuple[tuple[int, int], ...]:
    """A rule's sides at every configuration index of a space."""
    return tuple(sides(space, i) for i in range(space.size))


class SelectionRule(Record):
    """A built-in side filter over the disjoint-occurrence witness pairs,
    by name: ``full``, ``increasing_only`` or ``increasing_decreasing``.

    Its sides at a configuration, ``_SIDES[name](space, index)``, are two
    position-masks; there the rule keeps the witness pairs (K, L) with K
    inside the first and L inside the second.
    """

    name: str

    def __post_init__(self):
        if self.name not in _SIDES:
            raise PreconditionFailed(f"unknown selection rule {self.name!r}")

    def _kept(self, space: SiteSpace, amask: int, bmask: int) -> list[tuple[int, int]]:
        """Per configuration index of the space, the kept A-side and B-side
        witness sets of the events with masks ``amask`` and ``bmask``."""
        within = _subset_sets(space.n)
        sides = _side_table(_SIDES[self.name], space)
        rows = zip(sides, _witness_row(space, amask), _witness_row(space, bmask))
        return [(ka & within[sa], lb & within[sb]) for (sa, sb), ka, lb in rows]

    def select(self, a: Event, b: Event, omega: Config) -> frozenset:
        """The kept witness pairs at omega, as pairs of site frozensets."""
        if a.space != omega.space or b.space != omega.space:
            raise SpaceMismatch("events and configuration on different spaces")
        space = omega.space
        ka, lb = self._kept(space, a.mask, b.mask)[omega.index]
        return frozenset(
            (_sites_of(space, k), _sites_of(space, l)) for k, l in _disjoint_pairs(ka, lb, space.n)
        )


def _sites_of(space: SiteSpace, kmask: int) -> frozenset:
    return frozenset(space.sites[p] for p in range(space.n) if kmask >> p & 1)


def _full_sides(space: SiteSpace, index: int) -> tuple[int, int]:
    return ((1 << space.n) - 1,) * 2


def _ones_zeros(space: SiteSpace, index: int) -> tuple[int, int]:
    """Position-masks of the sites at their top and at their bottom symbol."""
    masks = space.value_masks
    ones = sum(1 << p for p, row in enumerate(masks) if row[-1] >> index & 1)
    return ones, sum(1 << p for p, row in enumerate(masks) if row[0] >> index & 1)


def _ones_ones(space: SiteSpace, index: int) -> tuple[int, int]:
    return (_ones_zeros(space, index)[0],) * 2


_SIDES = {"full": _full_sides, "increasing_only": _ones_ones, "increasing_decreasing": _ones_zeros}


def full_rule() -> SelectionRule:
    return SelectionRule("full")


def increasing_only_rule() -> SelectionRule:
    """Keep witness pairs recognized inside the 1s of the configuration."""
    return SelectionRule("increasing_only")


def increasing_decreasing_rule() -> SelectionRule:
    """Recognize A inside the 1s and B inside the 0s of the configuration."""
    return SelectionRule("increasing_decreasing")


def rule_by_name(name: str) -> SelectionRule:
    """The built-in rule a name spells, with ``-`` for ``_``."""
    try:
        return SelectionRule(name.replace("-", "_"))
    except PreconditionFailed:
        raise PreconditionFailed(f"unknown selection rule {name!r}") from None


def box(a: Event, b: Event) -> Event:
    """The plain box: configurations admitting some disjoint witness pair."""
    return box_with_rule(a, b, full_rule())


def box_with_rule(a: Event, b: Event, rule: SelectionRule) -> Event:
    """Configurations where the rule keeps at least one witness pair."""
    if b.space != a.space:
        raise SpaceMismatch("events on different spaces")
    return Event(a.space, _box_mask(rule._kept(a.space, a.mask, b.mask), a.space.n))


def _box_mask(kept: list[tuple[int, int]], n: int) -> int:
    """The indices where a kept table (``SelectionRule._kept``) holds a
    disjoint pair, as a bitmask."""
    within = _subset_sets(n)
    return sum(1 << i for i, (ka, lb) in enumerate(kept) if ka and _partners(ka, within) & lb)


def box_product_sweep(p: Measure) -> dict:
    """Check P(A box B) <= P(A) P(B) over every pair of events, exactly.

    With weights ``nums`` over ``den`` and w(E) the weight of E, a pair
    fails when ``den * w(A box B) > w(A) * w(B)``. One A meets all B at
    once in ``GuardedFields``, B owning field B: left sides are ``den *
    nums[i]`` times ORs of packed up-sets (the B holding a cylinder of i on
    a mask A allows there), right sides ``w(A)`` times the packed event
    weights, both at most ``den**2``. Returns the pair count and the
    violating pairs (as event masks) in (A, B) order.
    """
    size = p.space.size
    n_events = 1 << size
    within = _subset_sets(p.space.n)
    nums, den = p.int_weights
    table = _cylinder_table(p.space)
    fields = GuardedFields.holding(n_events, den * den)
    width = fields.bits
    sums = list(map(weight_summer(nums, size), range(n_events)))
    packed_sums = fields.pack(sums)

    @cache
    def upset(cyl: int) -> int:
        packed = 1 << width * cyl
        for j in range(size):
            if not cyl >> j & 1:
                packed |= packed << (width << j)
        return packed

    @cache
    def term(i: int, ks: int) -> int:
        allowed = _partners(ks, within)
        hits = (upset(cyl) for k, cyl in enumerate(table[i]) if allowed >> k & 1)
        return den * nums[i] * reduce(or_, hits, 0)

    support = [i for i in range(size) if nums[i]]
    violations = []
    for a in range(n_events):
        row = _witness_row(p.space, a)
        lhs = sum(term(i, row[i]) for i in support)
        bad = fields.below(sums[a] * packed_sums, lhs)
        if bad:
            violations.extend((a, b) for b in fields.indices(bad))
    return {"pairs": n_events * n_events, "violations": violations}


def induced_rule(rule: SelectionRule, space: SiteSpace, spec: FoldSpec) -> SelectionRule:
    """Push a selection rule through a folding step.

    Folded events are carried to the full space as cylinders over the
    conditioned sites (so a witness pair need not re-certify the
    conditioning), the configuration is lifted through alpha and beta,
    the original rule runs there, and each witness pair is intersected
    with the surviving sites. A surviving binary site holds at the lift of
    f the symbol f holds there, so every built-in rule induces itself, and
    the slice of a box is contained in the box of the slices. Both fail
    when a surviving site has more than two symbols (a witness must then
    pin it on both sides), so such a window raises NonBinaryAlphabet.
    """
    window = fold_window(space, spec)
    if any(space.radices[p] > 2 for p in range(space.n) if window.co_mask >> p & 1):
        raise NonBinaryAlphabet("rules are pushed through folds whose surviving sites are binary")
    return rule


class DisjointClusterReport(Record):
    """Outcome of the disjoint-cluster bound check.

    ``lhs`` is P(A box_rule B), ``rhs`` is P(A intersect bar(B)), and
    ``slack`` is eps * 2^(n+1) for the given pointwise base tolerance eps.
    """

    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    max_dev: Fraction
    base_within_eps: bool
    ok: bool


def check_disjoint_cluster_bound(
    p: Measure,
    base: RcrBase,
    rule: SelectionRule,
    a: Event,
    b: Event,
    eps: Fraction | int = 0,
) -> DisjointClusterReport:
    """Check P(A box_rule B) <= P(A intersect bar(B)) + eps * 2^(n+1).

    Requires a binary space, a symmetric base, and that the rule uses
    disjoint clusters of the base for A and B: for every atom and every
    box member compatible with it, some kept witness pair has no cluster
    of the atom meeting both sides. eps is the pointwise tolerance at
    which the base is supposed to represent p; the conclusion slack scales
    it by 2^(n+1).
    """
    if not p.space.is_binary:
        raise NonBinaryAlphabet("the disjoint-cluster bound is stated on binary spaces")
    if a.space != p.space or b.space != p.space:
        raise SpaceMismatch("events and measure on different spaces")
    if base.structure.space != p.space:
        raise SpaceMismatch("measure and base on different spaces")
    if not predicates(base).symmetric:
        raise PreconditionFailed("base is not symmetric")
    eps = _tolerance(eps)

    n = p.space.n
    kept = rule._kept(p.space, a.mask, b.mask)
    boxed = Event(p.space, _box_mask(kept, n))
    pairs = {i: _disjoint_pairs(*kept[i], n) for i in boxed.indices()}
    for atom, (compat, comps) in enumerate(base.atom_clusters):
        for i in pairs:
            if compat >> i & 1 and not any(
                all(not (c & k and c & l) for c in comps) for k, l in pairs[i]
            ):
                raise PreconditionFailed(
                    f"rule uses a straddling cluster of atom {atom} of the base"
                    f" at {p.space.config_at(i)}"
                )

    check = verify_rcr(p, base, eps)
    lhs = p.prob(boxed)
    rhs = p.prob(a & b.bar())
    slack = eps * (1 << (p.space.n + 1))
    ok = check.ok and lhs <= rhs + slack
    return DisjointClusterReport(lhs, rhs, slack, check.max_dev, check.ok, ok)


@lru_cache(maxsize=16)  # the suites and the benchmark check on at most 2 spaces
def _first_fold_windows(space: SiteSpace) -> tuple[FoldWindow, ...]:
    """The resolved windows of every first fold of a space, in canonical order."""
    return tuple(_first_folds(space))


class FoldingHypothesisReport(Record):
    """Outcome of the folding hypothesis check and its product conclusion.

    ``hypothesis_ok`` states whether, in every defined folding, the boxed
    slice probability is at most the bar-reflected intersection plus eps.
    ``conclusion_ok`` states P(A box_rule B) <= P(A) P(B) + eps. The two
    are consistent unless the hypothesis holds while the conclusion fails.
    """

    hypothesis_ok: bool
    conclusion_ok: bool
    consistent: bool
    foldings_checked: int
    hypothesis_failures: tuple[FoldSpec, ...]
    lhs: Fraction
    rhs: Fraction


def check_folding_hypothesis_bound(
    p: Measure,
    rule: SelectionRule,
    a: Event,
    b: Event,
    eps: Fraction | int = 0,
) -> FoldingHypothesisReport:
    """Verify the per-folding hypothesis and the product-bound conclusion.

    A fold with integer weights f, summing to T > 0, fails exactly when
    ``(f(box) - f(A and bar B)) * eps.denominator > eps.numerator * T``.
    """
    if not p.space.is_binary:
        raise NonBinaryAlphabet("the folding hypothesis check is stated on binary spaces")
    if a.space != p.space or b.space != p.space:
        raise SpaceMismatch("events and measure on different spaces")
    eps = _tolerance(eps)

    failures = []
    checked = 0
    folds = _defined_folds(p.int_weights[0], _first_fold_windows(p.space))
    for window, fnums in folds:
        checked += 1
        space = window.folded_space
        sa, sb = window.slice_mask(a.mask), window.slice_mask(b.mask)
        boxed = _box_mask(rule._kept(space, sa, sb), space.n)
        meet = sa & _reversed_mask(sb, space.size)  # A and bar B
        excess = sum(w * ((boxed >> f & 1) - (meet >> f & 1)) for f, w in enumerate(fnums))
        if excess * eps.denominator > eps.numerator * sum(fnums):
            failures.append(window.spec)

    lhs = p.prob(box_with_rule(a, b, rule))
    rhs = p.prob(a) * p.prob(b)
    hypothesis_ok = not failures
    conclusion_ok = lhs <= rhs + eps
    consistent = not (hypothesis_ok and not conclusion_ok)
    return FoldingHypothesisReport(
        hypothesis_ok, conclusion_ok, consistent, checked, tuple(failures), lhs, rhs
    )
