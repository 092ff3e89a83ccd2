"""The folding transform, iterated paths, and branch limits.

A folding step is a triple (K, alpha, beta): condition the product P x P on
both copies agreeing with alpha on K and lying pointwise inside the symbol
pair beta off K, then project to the first copy. Concretely, on the reduced
space over the sites off K,

    folded(w) proportional to P(alpha.w) * P(alpha.w_reversed)

where the reversal swaps each coordinate between its two beta symbols. The
output alphabet is relabeled {0, 1} in inherited symbol order, so folded
measures are always binary, and they are symmetric under global reversal by
construction. A step with K empty squares the weights of a symmetric
measure; iterating it drives the measure to the uniform distribution on its
maxima, with a super-exponential sup-norm convergence bound.

Every step is carried out on integer configuration indices through one
table, ``FoldWindow.lift``: the full-space index of each folded
configuration. Because reversal complements the folded bits, the reversed
configuration of folded index f lifts to ``lift[-1 - f]``, so a fold is
``nums[lift[f]] * nums[lift[-1 - f]]`` per f. Slicing an event and lifting
a configuration read the same table. Weights stay integers: a convergence
check squares its iterate w, of total S, and compares it with the limit,
uniform on the argmax set M, as one fraction max |w_f |M| - S [f in M]| / (S |M|).

The essential branches form a tree: a first fold, then nonempty-K steps,
each removing at least one site. The pipelines walk it memoised
(``association._distinct_limits``): a node's folded sites and gcd-reduced
weights fix its subtree, so a node met again adds the branch count stored
for its first copy instead of being descended. The first copy's subtree
was walked in full before the repeat is met, so limits are first reached
in the order of ``iter_essential_branches``, the plain stream of every
branch.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, product as iter_product
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, FoldingUndefined, InvalidParams
from .measures import (
    Event,
    Measure,
    Record,
    SiteSpace,
    normalize,
)

BRANCH_CAP = 4


class FoldSpec(Record):
    """One folding step.

    ``k_sites`` lists the conditioned sites and ``alpha`` their raw symbols
    (aligned with ``k_sites``). ``beta`` gives the two retained symbols per
    remaining site, as a pair of raw-symbol rows aligned with the remaining
    sites in space order; it is omitted (None) on binary alphabets, where
    the canonical labeling is the identity.
    """

    k_sites: tuple
    alpha: tuple
    beta: tuple[tuple, ...] | None

    def __init__(self, k_sites, alpha, beta=None):
        k_sites, alpha = tuple(k_sites), tuple(alpha)
        if beta is not None:
            b1, b2 = beta
            beta = (tuple(b1), tuple(b2))
        if len(k_sites) != len(alpha):
            raise InvalidParams("one alpha symbol per conditioned site required")
        if len(set(k_sites)) != len(k_sites):
            raise InvalidParams("conditioned sites must be distinct")
        object.__setattr__(self, "k_sites", k_sites)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


class FoldPath(Record):
    """An ordered sequence of folding steps.

    Each step's conditioned sites must lie inside the space remaining after
    the earlier steps; beta may appear on the first step only (every later
    space is binary with the canonical labeling).
    """

    steps: tuple[FoldSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps[1:]:
            if step.beta is not None:
                raise InvalidParams("beta is only meaningful on the first step")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


class BranchLimit(Record):
    """Limit data for a branch: its essential prefix then empty steps forever.

    The limit is uniform on ``argmax_set``, the maxima of the measure after
    the prefix; ``measure`` builds it on first read. ``emitted_at`` (called
    L) is the step index of that measure along the branch, counting the
    first fold as step 1. ``ratio`` is the largest weight of a non-maximal
    configuration divided by the maximal weight; the sup-distance of the
    i-th iterate from the limit is at most |Omega| * ratio ** (2 ** (i - L)).
    """

    space: SiteSpace
    argmax_set: Event
    emitted_at: int
    ratio: Fraction

    @cached_property
    def measure(self) -> Measure:
        return Measure.uniform_on(self.argmax_set)


class FoldWindow(Record):
    """A fold spec resolved against a concrete space: the fold's index map.

    ``lift[f]`` is the full-space index of folded configuration ``f``: alpha
    on the conditioned sites and, at the j-th surviving site, the low or the
    high beta symbol as bit j of ``f`` (first surviving site most
    significant) is 0 or 1. Reversal swaps every surviving coordinate
    between its two beta symbols, which complements every bit of ``f``; on
    m bits that is ``2**m - 1 - f``, so the reversed configuration lifts to
    ``lift[-1 - f]``. ``co_mask`` has bit p set for each surviving position
    p of the full space.
    """

    space: SiteSpace
    spec: FoldSpec
    folded_space: SiteSpace
    co_mask: int
    lift: tuple[int, ...]

    def __init__(self, space, spec, folded_space, co_mask, lift):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "folded_space", folded_space)
        object.__setattr__(self, "co_mask", co_mask)
        object.__setattr__(self, "lift", lift)

    @classmethod
    def resolve(cls, space: SiteSpace, spec: FoldSpec) -> "FoldWindow":
        """Validate a spec against a space and build its lift table."""
        pos = space.site_pos
        for s in spec.k_sites:
            if s not in pos:
                raise InvalidParams(f"site {s!r} not in space")
        base = 0
        for site, sym in sorted(zip(spec.k_sites, spec.alpha), key=lambda t: pos[t[0]]):
            alph = space.alphabets[pos[site]]
            if sym not in alph:
                raise InvalidParams(f"alpha symbol {sym!r} not in alphabet at {site!r}")
            base += space.index_weights[pos[site]] * alph.index(sym)
        k_set = {pos[s] for s in spec.k_sites}
        co_positions = [p for p in range(space.n) if p not in k_set]

        if spec.beta is None:
            if any(space.radices[p] != 2 for p in co_positions):
                raise InvalidParams("beta may be omitted on binary alphabets only")
            pairs = [(0, 1)] * len(co_positions)
        else:
            b1, b2 = spec.beta
            if len(b1) != len(co_positions) or len(b2) != len(co_positions):
                raise InvalidParams("beta rows must cover exactly the remaining sites")
            pairs = []
            for p, x, y in zip(co_positions, b1, b2):
                alph = space.alphabets[p]
                if x not in alph or y not in alph:
                    raise InvalidParams("beta symbol outside the site's alphabet")
                x, y = alph.index(x), alph.index(y)
                if x == y:
                    raise InvalidParams("beta components must be pointwise distinct")
                pairs.append((min(x, y), max(x, y)))

        # place-value doubling: each surviving site appends one low-order bit
        lift = [base]
        for p, (lo, hi) in zip(co_positions, pairs):
            w = space.index_weights[p]
            lift = [i + v for i in lift for v in (w * lo, w * hi)]
        folded_space = SiteSpace(
            tuple(space.sites[p] for p in co_positions), ((0, 1),) * len(co_positions)
        )
        co_mask = sum(1 << p for p in co_positions)
        return cls(space, spec, folded_space, co_mask, tuple(lift))

    def fold(self, nums: Sequence[int]) -> list[int]:
        """Folded integer weights; raises FoldingUndefined on zero mass."""
        lift = self.lift
        out = [nums[lift[f]] * nums[lift[-1 - f]] for f in range(len(lift))]
        if not any(out):
            raise FoldingUndefined(f"fold {self.spec} has zero total mass")
        return out

    def slice_mask(self, mask: int) -> int:
        """The folded indices whose lift lies in the full-space ``mask``."""
        return sum(1 << f for f, i in enumerate(self.lift) if mask >> i & 1)

    def slice_event(self, full_event: Event) -> Event:
        """Folded configurations whose lift lies in the full-space event."""
        return Event(self.folded_space, self.slice_mask(full_event.mask))


def fold_window(space: SiteSpace, spec: FoldSpec) -> FoldWindow:
    """Resolve a fold spec against a space (see ``FoldWindow``)."""
    return FoldWindow.resolve(space, spec)


def _defined_folds(nums: Sequence[int], windows: Iterable[FoldWindow]):
    """(window, folded weights) for each window whose fold of nums is defined."""
    for window in windows:
        try:
            folded = window.fold(nums)
        except FoldingUndefined:
            continue
        yield window, folded


def _fold_prefix(space: SiteSpace, nums: Sequence[int], steps: Iterable[FoldSpec]):
    """Integer weights after folding by each step in turn, with their space."""
    for spec in steps:
        window = FoldWindow.resolve(space, spec)
        space, nums = window.folded_space, window.fold(nums)
    return space, nums


def fold(p: Measure, spec: FoldSpec) -> Measure:
    """Apply one folding step; the result is binary and reversal-symmetric."""
    window = FoldWindow.resolve(p.space, spec)
    return normalize(window.folded_space, window.fold(p.int_weights[0]))


def fold_path(p: Measure, path: FoldPath | Sequence[FoldSpec]) -> Measure:
    """Left-fold of ``fold`` over the steps; an empty path returns p."""
    steps = tuple(path)
    if not steps:
        return p
    return normalize(*_fold_prefix(p.space, p.int_weights[0], steps))


def essentialize(path: FoldPath | Sequence[FoldSpec]) -> FoldPath:
    """Move nonempty-K steps after the first to the front, preserving order.

    The first step stays first (it symmetrizes the measure either way);
    empty-K steps are appended. The folded result is unchanged exactly.
    """
    steps = tuple(path)
    if not steps:
        return FoldPath(())
    head, rest = steps[0], steps[1:]
    return FoldPath((head,) + tuple(sorted(rest, key=lambda s: not s.k_sites)))


def _argmax(space: SiteSpace, nums: Sequence[int]) -> Event:
    """The maxima of integer weights: the support of their branch limit."""
    top = max(nums)
    return Event.from_indices(space, (i for i, w in enumerate(nums) if w == top))


def _limit_from_nums(space: SiteSpace, nums: Sequence[int], emitted_at: int) -> BranchLimit:
    top = max(nums)
    below = [w for w in nums if 0 < w < top]
    ratio = Fraction(max(below), top) if below else Fraction(0)
    return BranchLimit(space, _argmax(space, nums), emitted_at, ratio)


def branch_limit(p: Measure, essential_prefix: FoldPath | Sequence[FoldSpec]) -> BranchLimit:
    """Limit of the branch: the prefix followed by empty-K steps forever.

    The limit is uniform on the maxima of the prefix-folded measure. With
    an empty prefix, p itself is taken as the state after the first fold
    (step 1), so emitted_at = max(len(prefix), 1).
    """
    steps = tuple(essential_prefix)
    space, nums = _fold_prefix(p.space, p.int_weights[0], steps)
    return _limit_from_nums(space, nums, max(len(steps), 1))


class ConvergenceCheck(Record):
    distance: Fraction
    bound: Fraction
    ok: bool

    def __init__(self, distance, bound, ok):
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "ok", ok)


def check_convergence_bound(
    p: Measure, prefix: FoldPath | Sequence[FoldSpec], i: int
) -> ConvergenceCheck:
    """Compare the i-th branch iterate against its sup-norm bound.

    The iterate applies i - L empty-K folds after the prefix, L being the
    prefix step count (min 1: an empty prefix treats p as the state after
    the first fold). The bound is |Omega| * ratio ** (2 ** (i - L)) with
    |Omega| the size of p's own space.
    """
    steps = tuple(prefix)
    ell = max(len(steps), 1)
    if i <= ell:
        raise InvalidParams(f"iterate index {i} must exceed the prefix length {ell}")
    _, checks = _convergence_checks(p, steps)
    return next(islice(checks, i - ell - 1, None))


def _convergence_checks(
    p: Measure, steps: tuple[FoldSpec, ...]
) -> tuple[BranchLimit, Iterator[ConvergenceCheck]]:
    """The branch limit of a prefix and the stream of its convergence checks.

    The stream yields the ``check_convergence_bound`` result for i = L + 1,
    L + 2, ... in turn. The prefix is folded once, and one empty-K window
    squares every iterate on the prefix-folded space: its lift is the
    identity on a binary space, so one window serves every square.
    """
    space, nums = _fold_prefix(p.space, p.int_weights[0], steps)
    limit = _limit_from_nums(space, nums, max(len(steps), 1))
    square = FoldWindow.resolve(space, FoldSpec((), ()))
    size = p.space.size
    in_max = [limit.argmax_set.mask >> f & 1 for f in range(len(nums))]
    count = sum(in_max)

    def checks():
        iterate, power = nums, 2
        while True:
            iterate = square.fold(iterate)
            total = sum(iterate)
            gap = max(abs(w * count - total * m) for w, m in zip(iterate, in_max))
            distance = Fraction(gap, total * count)
            bound = size * limit.ratio ** power
            yield ConvergenceCheck(distance, bound, distance <= bound)
            power *= 2

    return limit, checks()


def _first_fold_specs(space: SiteSpace) -> Iterator[FoldSpec]:
    """All (K, alpha, beta) first folds of a space, in canonical order."""
    n = space.n
    for kmask in range(1 << n):
        k_positions = [p for p in range(n) if kmask >> p & 1]
        k_sites = tuple(space.sites[p] for p in k_positions)
        co_positions = [p for p in range(n) if not kmask >> p & 1]
        alpha_choices = iter_product(*(space.alphabets[p] for p in k_positions))
        beta_site_choices = [
            list(combinations(space.alphabets[p], 2)) for p in co_positions
        ]
        for alpha in alpha_choices:
            for beta_cols in iter_product(*beta_site_choices):
                if all(space.radices[p] == 2 for p in co_positions):
                    beta = None
                else:
                    beta = (
                        tuple(c[0] for c in beta_cols),
                        tuple(c[1] for c in beta_cols),
                    )
                yield FoldSpec(k_sites, alpha, beta)


def _first_folds(space: SiteSpace) -> Iterator[FoldWindow]:
    """Windows of every first fold of a space, resolved lazily in canonical order."""
    return (FoldWindow.resolve(space, spec) for spec in _first_fold_specs(space))


def _extension_folds(space: SiteSpace) -> Iterator[FoldWindow]:
    """Windows of every nonempty-K binary step available on a folded space."""
    n = space.n
    for kmask in range(1, 1 << n):
        k_sites = tuple(space.sites[p] for p in range(n) if kmask >> p & 1)
        for alpha in iter_product((0, 1), repeat=len(k_sites)):
            yield FoldWindow.resolve(space, FoldSpec(k_sites, alpha))


def iter_essential_branches(
    p: Measure, max_len: int | None = None
) -> Iterator[tuple[FoldPath, SiteSpace, tuple[int, ...]]]:
    """Depth-first stream of (prefix, folded space, folded int weights).

    Yields every defined essential prefix: a first fold, then nonempty-K
    steps. Prefix length is capped at max_len (default: one more than the
    site count, which already exhausts every branch). Every branch is
    folded afresh; the pipelines use the memoised walk instead (see the
    module docstring).
    """
    if max_len is None:
        max_len = p.space.n + 1
    if max_len <= 0:
        return

    def descend(nums, path, windows, depth):
        for window, sub_nums in _defined_folds(nums, windows):
            sub_space, sub_path = window.folded_space, path + (window.spec,)
            yield FoldPath(sub_path), sub_space, tuple(sub_nums)
            if depth < max_len:
                yield from descend(sub_nums, sub_path, _extension_folds(sub_space), depth + 1)

    yield from descend(p.int_weights[0], (), _first_folds(p.space), 1)


def enumerate_essential_prefixes(p: Measure, max_len: int) -> Iterator[FoldPath]:
    """Every defined essential prefix up to max_len, each once."""
    if p.space.n > BRANCH_CAP:
        raise CapExceeded(f"|sites|={p.space.n} exceeds cap {BRANCH_CAP}")
    for path, _, _ in iter_essential_branches(p, max_len):
        yield path
