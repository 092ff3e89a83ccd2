"""Disjoint occurrence witnesses, selection rules, and box operations.

For events A, B and a configuration w, a witness pair is a pair of
disjoint site sets (K, L) such that the cylinder of w on K lies inside A
and the cylinder on L lies inside B. A site set is held as a position-mask
(bit p for the site at position p), and the witness set of an event at w
as one bitmask over position-masks, computed by ``_witness_set`` alone.
A selection rule is a side filter: at each configuration it gives the
positions the A-side and the B-side of a kept pair may use. Its box
operation collects the configurations where some pair is kept. Rules can
be pushed through folding steps; a pushed rule's box is evaluated only at
the lifted configurations, folded index f at ``w1.lift[w2.lift[...[f]]]``
for its windows w1, w2, ..., first fold first. Two checkable bounds tie the
machinery to measures: the disjoint-cluster bound (box probability against
the bar-reflected intersection, given a symmetric cluster base whose
clusters never straddle a witness pair) and the folding hypothesis bound
(per-folding box inequalities forcing the product bound upstairs). The
first check reads the base's induced measure, predicates and per-atom
clusters, which are computed once per base (``RcrBase``); the second
resolves the first-fold windows once per space.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from operator import or_
from typing import Callable

from .errors import NonBinaryAlphabet, PreconditionFailed, SpaceMismatch
from .folding import FoldSpec, FoldWindow, _defined_folds, _first_folds, fold_window
from .measures import (
    Config,
    Event,
    GuardedFields,
    Measure,
    SiteSpace,
    _cylinder_table,
    as_fraction,
    weight_summer,
)
from .rcr import RcrBase, predicates, verify_rcr


def _witness_set(cylinders: tuple[int, ...], mask: int) -> int:
    """The position-masks K with [w]_K inside the event ``mask``, as a
    bitmask over K, given the cylinder row of w (``_cylinder_table``). The
    set is upward closed: a larger K has a smaller cylinder."""
    outside = ~mask
    return sum(1 << k for k, cyl in enumerate(cylinders) if not cyl & outside)


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


def _sites_of(space: SiteSpace, kmask: int) -> frozenset:
    return frozenset(space.sites[p] for p in range(space.n) if kmask >> p & 1)


@dataclass(frozen=True, eq=False)
class SelectionRule:
    """A named side filter over the disjoint-occurrence witness pairs.

    ``sides(space, index)`` gives two position-masks; at that configuration
    the rule keeps the witness pairs (K, L) with K inside the first and L
    inside the second. A rule pushed through folds carries their windows,
    first fold first, and runs its sides on the unfolded space.
    """

    name: str
    sides: Callable[[SiteSpace, int], tuple[int, int]]
    windows: tuple[FoldWindow, ...] = ()

    def _kept(self, a: Event, b: Event, index: int, table, within: tuple[int, ...]):
        """The kept A-side and B-side witness sets at ``index``."""
        sa, sb = self.sides(a.space, index)
        cylinders = table[index]
        return (
            _witness_set(cylinders, a.mask) & within[sa],
            _witness_set(cylinders, b.mask) & within[sb],
        )

    def _lifted(self, a: Event, b: Event) -> tuple[Event, Event, list[int] | range]:
        """A and B extended to the unfolded space, with the lift there of each
        index of their own space: ``w1.lift[w2.lift[...[f]]]`` for windows
        w1, w2, ..., the identity for a rule that was never pushed."""
        if a.space != b.space:
            raise SpaceMismatch("events on different spaces")
        lift = range(a.space.size)
        if self.windows and a.space != self.windows[-1].folded_space:
            raise SpaceMismatch("events not on the folded space of the pushed rule")
        for window in reversed(self.windows):
            a, b = window.extend_event(a), window.extend_event(b)
            lift = [window.lift[i] for i in lift]
        return a, b, lift

    def select(self, a: Event, b: Event, omega: Config) -> frozenset:
        """The kept witness pairs at omega, as pairs of site frozensets."""
        if a.space != omega.space or b.space != omega.space:
            raise SpaceMismatch("events and configuration on different spaces")
        a, b, lift = self._lifted(a, b)
        space = a.space
        ka, lb = self._kept(a, b, lift[omega.index], _cylinder_table(space), _subset_sets(space.n))
        kmasks = range(1 << space.n)
        keep = frozenset(omega.space.sites)
        return frozenset(
            (_sites_of(space, k) & keep, _sites_of(space, l) & keep)
            for k in kmasks
            if ka >> k & 1
            for l in kmasks
            if lb >> l & 1 and not k & l
        )


def _ones_zeros(space: SiteSpace, index: int) -> tuple[int, int]:
    """Position-masks of the sites at their top and at their bottom symbol."""
    coords = list(enumerate(zip(space.values_at(index), space.radices)))
    ones = sum(1 << p for p, (v, r) in coords if v == r - 1)
    return ones, sum(1 << p for p, (v, _) in coords if v == 0)


def full_rule() -> SelectionRule:
    return SelectionRule("full", lambda space, index: ((1 << space.n) - 1,) * 2)


def increasing_only_rule() -> SelectionRule:
    """Keep witness pairs recognized inside the 1s of the configuration."""
    return SelectionRule(
        "increasing_only", lambda space, index: (_ones_zeros(space, index)[0],) * 2
    )


def increasing_decreasing_rule() -> SelectionRule:
    """Recognize A inside the 1s and B inside the 0s of the configuration."""
    return SelectionRule("increasing_decreasing", _ones_zeros)


BUILTIN_RULES = {
    "full": full_rule,
    "increasing_only": increasing_only_rule,
    "increasing_decreasing": increasing_decreasing_rule,
}


def rule_by_name(name: str) -> SelectionRule:
    key = name.replace("-", "_")
    if key not in BUILTIN_RULES:
        raise PreconditionFailed(f"unknown selection rule {name!r}")
    return BUILTIN_RULES[key]()


def box(a: Event, b: Event) -> Event:
    """The plain box: configurations admitting some disjoint witness pair."""
    return box_with_rule(a, b, full_rule())


def box_with_rule(a: Event, b: Event, rule: SelectionRule) -> Event:
    """Configurations where the rule keeps at least one witness pair.

    A pushed rule keeps a pair at a folded configuration exactly when the
    unpushed rule keeps one at its lift for the extended events, so it is
    evaluated at the lifted configurations alone. The events must lie on the
    folded space of the rule's last window.
    """
    space = a.space
    a, b, lift = rule._lifted(a, b)
    unfolded = a.space
    table = _cylinder_table(unfolded)
    within = _subset_sets(unfolded.n)
    mask = 0
    for f, i in enumerate(lift):
        ka, lb = rule._kept(a, b, i, table, within)
        if ka and _partners(ka, within) & lb:
            mask |= 1 << f
    return Event(space, mask)


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

    violations = []
    for a in range(n_events):
        lhs = sum(term(i, _witness_set(row, a)) for i, row in enumerate(table) if nums[i])
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
    with the surviving sites. With this reading the full rule induces the
    full rule of the smaller space, and the slice of a box is always
    contained in the box of the slices. Both fail when a surviving site has
    more than two symbols (a witness must then pin it on both sides), so
    such a window raises NonBinaryAlphabet.
    """
    window = fold_window(space, spec)
    if any(space.radices[p] > 2 for p in range(space.n) if window.co_mask >> p & 1):
        raise NonBinaryAlphabet("rules are pushed through folds whose surviving sites are binary")
    return _pushed_rule(rule, window)


def _pushed_rule(rule: SelectionRule, window: FoldWindow) -> SelectionRule:
    return SelectionRule(f"{rule.name}@fold", rule.sides, rule.windows + (window,))


@dataclass(frozen=True)
class DisjointClusterReport:
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

    boxed = box_with_rule(a, b, rule)
    boxed_configs = [p.space.config_at(i) for i in boxed.indices()]
    kept_pairs = [rule.select(a, b, omega) for omega in boxed_configs]
    for (eta, _), (compat, comps) in zip(base.atoms, base.atom_clusters):
        for omega, pairs in zip(boxed_configs, kept_pairs):
            if not compat >> omega.index & 1:
                continue
            if not any(
                all(not (c & k and c & l) for c in comps) for k, l in pairs
            ):
                raise PreconditionFailed(
                    f"rule uses a straddling cluster of atom {eta.sort_key()} at {omega}"
                )

    eps = as_fraction(eps)
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


@dataclass(frozen=True)
class FoldingHypothesisReport:
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
    eps = as_fraction(eps)

    failures = []
    checked = 0
    folds = _defined_folds(p.int_weights[0], _first_fold_windows(p.space))
    for window, fnums in folds:
        checked += 1
        a_slice, b_slice = window.slice_event(a), window.slice_event(b)
        boxed = box_with_rule(a_slice, b_slice, _pushed_rule(rule, window))
        excess = sum(fnums[i] for i in boxed.indices())
        excess -= sum(fnums[i] for i in (a_slice & b_slice.bar()).indices())
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
