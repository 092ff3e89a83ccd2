"""Disjoint occurrence witnesses, selection rules, and box operations.

For events A, B and a configuration w, a witness pair is a pair of
disjoint site sets (K, L) such that the cylinder of w on K lies inside A
and the cylinder on L lies inside B. A selection rule filters the witness
set; its box operation collects the configurations where the filtered set
is nonempty. Rules can be pushed through a folding step, and two checkable
bounds tie the machinery to measures: the disjoint-cluster bound (box
probability against the bar-reflected intersection, given a symmetric
cluster base whose clusters never straddle a witness pair) and the folding
hypothesis bound (per-folding box inequalities forcing the product bound
upstairs).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import NonBinaryAlphabet, PreconditionFailed, SpaceMismatch
from .folding import FoldSpec, FoldWindow, _defined_folds, _first_fold_specs, fold_window
from .measures import (
    Config,
    Event,
    Measure,
    SiteSpace,
    _cylinder_mask,
    as_fraction,
    normalize,
    weight_summer,
)
from .rcr import RcrBase, _compatible_index, clusters, predicates, verify_rcr

Pair = tuple[frozenset, frozenset]


def _witness_kmasks(event: Event, index: int) -> list[int]:
    """Position-masks K with [w]_K inside the event, for w = index."""
    space = event.space
    return [
        kmask
        for kmask in range(1 << space.n)
        if not _cylinder_mask(space, index, kmask) & ~event.mask
    ]


def _sites_of(space: SiteSpace, kmask: int) -> frozenset:
    return frozenset(space.sites[p] for p in range(space.n) if kmask >> p & 1)


def disjoint_pairs(a: Event, b: Event, omega: Config) -> frozenset:
    """All witness pairs (K, L) for A and B at omega, as site frozensets."""
    if a.space != omega.space or b.space != omega.space:
        raise SpaceMismatch("events and configuration on different spaces")
    space = omega.space
    i = omega.index
    ka = _witness_kmasks(a, i)
    kb = _witness_kmasks(b, i)
    return frozenset(
        (_sites_of(space, k), _sites_of(space, l))
        for k in ka
        for l in kb
        if not k & l
    )


@dataclass(frozen=True, eq=False)
class SelectionRule:
    """A named filter over the disjoint-occurrence witness set."""

    name: str
    selector: Callable[[Event, Event, Config], frozenset]

    def select(self, a: Event, b: Event, omega: Config) -> frozenset:
        return self.selector(a, b, omega)


def full_rule() -> SelectionRule:
    return SelectionRule("full", disjoint_pairs)


def _ones_sites(omega: Config) -> frozenset:
    space = omega.space
    return frozenset(
        s for s, v, r in zip(space.sites, omega.values, space.radices) if v == r - 1
    )


def _zeros_sites(omega: Config) -> frozenset:
    space = omega.space
    return frozenset(
        s for s, v in zip(space.sites, omega.values) if v == 0
    )


def increasing_only_rule() -> SelectionRule:
    """Keep witness pairs recognized inside the 1s of the configuration."""

    def selector(a: Event, b: Event, omega: Config) -> frozenset:
        ones = _ones_sites(omega)
        return frozenset(
            (k, l) for k, l in disjoint_pairs(a, b, omega) if k <= ones and l <= ones
        )

    return SelectionRule("increasing_only", selector)


def increasing_decreasing_rule() -> SelectionRule:
    """Recognize A inside the 1s and B inside the 0s of the configuration."""

    def selector(a: Event, b: Event, omega: Config) -> frozenset:
        ones = _ones_sites(omega)
        zeros = _zeros_sites(omega)
        return frozenset(
            (k, l) for k, l in disjoint_pairs(a, b, omega) if k <= ones and l <= zeros
        )

    return SelectionRule("increasing_decreasing", selector)


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
    if a.space != b.space:
        raise SpaceMismatch("events on different spaces")
    space = a.space
    members = []
    for i in range(space.size):
        ka = _witness_kmasks(a, i)
        if not ka:
            continue
        kb = _witness_kmasks(b, i)
        if any(not k & l for k in ka for l in kb):
            members.append(i)
    return Event.from_indices(space, members)


def box_with_rule(a: Event, b: Event, rule: SelectionRule) -> Event:
    """Configurations where the rule keeps at least one witness pair."""
    if a.space != b.space:
        raise SpaceMismatch("events on different spaces")
    space = a.space
    return Event.from_indices(
        space,
        (i for i in range(space.size) if rule.select(a, b, space.config_at(i))),
    )


def box_product_sweep(p: Measure) -> dict:
    """Check P(A box B) <= P(A) P(B) over every pair of events, exactly.

    Precomputes, per configuration, the witness sets of each event as
    bitmasks over position-masks, so the quadratic pair sweep runs on
    machine integers. Returns counts and the violating pairs (as event
    masks), if any.
    """
    space = p.space
    size = space.size
    n = space.n
    n_events = 1 << size
    kmasks = 1 << n
    # disj[k] = bitmask of position-masks disjoint from k
    disj = [0] * kmasks
    for k in range(kmasks):
        for l in range(kmasks):
            if not k & l:
                disj[k] |= 1 << l
    cyl = [[_cylinder_mask(space, i, k) for k in range(kmasks)] for i in range(size)]
    nums, den = p.int_weights
    wsum = weight_summer(nums, size)
    # per event: witness position-mask set and its disjoint closure, per config
    witness = []
    allowed = []
    sums = []
    for a in range(n_events):
        wa = []
        da = []
        for i in range(size):
            ks = 0
            dk = 0
            for k in range(kmasks):
                if not cyl[i][k] & ~a:
                    ks |= 1 << k
                    dk |= disj[k]
            wa.append(ks)
            da.append(dk)
        witness.append(wa)
        allowed.append(da)
        sums.append(wsum(a))

    violations = []
    checked = 0
    for a in range(n_events):
        alw = allowed[a]
        sa = sums[a]
        for b in range(n_events):
            checked += 1
            wb = witness[b]
            box_mask = 0
            for i in range(size):
                if alw[i] & wb[i]:
                    box_mask |= 1 << i
            if wsum(box_mask) * den > sa * sums[b]:
                violations.append((a, b))
    return {"pairs": checked, "violations": violations}


def event_slice(space: SiteSpace, spec: FoldSpec, event: Event) -> Event:
    """Folded-space event whose members lift into the given event.

    Members are the configurations of the folded space (inside the beta
    range by construction) whose concatenation with alpha lies in the
    event.
    """
    if event.space != space:
        raise SpaceMismatch("event not on the given space")
    return fold_window(space, spec).slice_event(event)


def induced_rule(rule: SelectionRule, space: SiteSpace, spec: FoldSpec) -> SelectionRule:
    """Push a selection rule through a folding step.

    Folded events are carried to the full space as cylinders over the
    conditioned sites (so a witness pair need not re-certify the
    conditioning), the configuration is lifted through alpha and beta,
    the original rule runs there, and each witness pair is intersected
    with the surviving sites. With this reading the full rule induces the
    full rule of the smaller space, and the slice of a box is always
    contained in the box of the slices.
    """
    return _pushed_rule(rule, fold_window(space, spec))


def _pushed_rule(rule: SelectionRule, window: FoldWindow) -> SelectionRule:
    co_sites = frozenset(window.folded_space.sites)
    # a box asks the rule about every configuration for one event pair, so
    # the pair's extensions are kept until the next pair arrives
    pair = extended = None

    def selector(a: Event, b: Event, omega: Config) -> frozenset:
        nonlocal pair, extended
        if (a, b) != pair:
            pair, extended = (a, b), (window.extend_event(a), window.extend_event(b))
        lifted_a, lifted_b = extended
        return frozenset(
            (k & co_sites, l & co_sites)
            for k, l in rule.select(lifted_a, lifted_b, window.lift_config(omega))
        )

    return SelectionRule(f"{rule.name}@fold", selector)


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
    if not predicates(base).symmetric:
        raise PreconditionFailed("base is not symmetric")

    boxed = box_with_rule(a, b, rule)
    boxed_configs = [p.space.config_at(i) for i in boxed.indices()]
    kept_pairs = [rule.select(a, b, omega) for omega in boxed_configs]
    for eta, _ in base.atoms:
        comps = [c for c in clusters(eta) if len(c) > 1]
        for omega, pairs in zip(boxed_configs, kept_pairs):
            if not _compatible_index(eta, omega.values):
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
    """Verify the per-folding hypothesis and the product-bound conclusion."""
    if not p.space.is_binary:
        raise NonBinaryAlphabet("the folding hypothesis check is stated on binary spaces")
    if a.space != p.space or b.space != p.space:
        raise SpaceMismatch("events and measure on different spaces")
    eps = as_fraction(eps)

    failures = []
    checked = 0
    folds = _defined_folds(p.space, p.int_weights[0], _first_fold_specs(p.space))
    for window, fnums in folds:
        checked += 1
        folded = normalize(window.folded_space, fnums)
        a_slice = window.slice_event(a)
        b_slice = window.slice_event(b)
        pushed = _pushed_rule(rule, window)
        lhs_f = folded.prob(box_with_rule(a_slice, b_slice, pushed))
        rhs_f = folded.prob(a_slice & b_slice.bar())
        if lhs_f > rhs_f + eps:
            failures.append(window.spec)

    lhs = p.prob(box_with_rule(a, b, rule))
    rhs = p.prob(a) * p.prob(b)
    hypothesis_ok = not failures
    conclusion_ok = lhs <= rhs + eps
    consistent = not (hypothesis_ok and not conclusion_ok)
    return FoldingHypothesisReport(
        hypothesis_ok, conclusion_ok, consistent, checked, tuple(failures), lhs, rhs
    )
