"""Association checkers: lattice conditions, PA/NA scans, and pipelines.

The lattice (FKG) condition P(join) P(meet) >= P(w) P(w') has an exactly
equivalent folded form: every defined folding puts its maximum at the
all-ones configuration. Its negative counterparts ask instead that the
balanced configurations (number of ones within 1/2 of half the sites) be
maxima of every defined folding, weakly (NFKG) or strictly and equal-valued
(SNFKG). Positive and negative association are verified by exhaustive scans
over increasing event pairs, the negative scan restricted to pairs carried
by complementary coordinate sets. The positive scan compares each up-set
with every up-set at once, in the packed guarded fields of
``measures.GuardedFields``.

The two pipelines walk every essential branch of the folding tree down to
its limiting distribution and certify it by an explicit cluster base: a
ferromagnetic pair base built from the limit's support on the positive
side, the uniform complete-pairing base on the strict negative side. A
limit is uniform on its argmax set, so both certificates read that event
alone: one loop, ``_certify``, runs a pipeline's certificate
(``_limit_certificate`` or ``_pairing_certificate``) once per distinct
argmax set, however many limits share it. All arithmetic is exact.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Sequence

from .errors import (
    CapExceeded,
    InvalidParams,
    InvariantViolated,
    NonBinaryAlphabet,
    PreconditionFailed,
)
from .folding import (
    BRANCH_CAP,
    FoldPath,
    FoldSpec,
    _argmax,
    _defined_folds,
    _extension_folds,
    _first_folds,
)
from .measures import (
    UPSET_CAP,
    Event,
    GuardedFields,
    Measure,
    Record,
    SiteSpace,
    _upset_masks,
    as_fraction,
    normalize,
    weight_summer,
)
from .rcr import (
    complete_pairing_base,
    construct_uniform_symmetric_rcr,
    induced_measure,
    predicates,
    verify_rcr,
)


class AssociationReport(Record):
    """Verdict of an exhaustive check, a witness when it fails, and counts."""

    verdict: bool
    witness: dict | None
    quantifier_log: dict

    def __bool__(self) -> bool:
        return self.verdict


def _require_binary(space: SiteSpace, what: str) -> None:
    if not space.is_binary:
        raise NonBinaryAlphabet(f"{what} requires a binary space")


def _require_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"|sites|={n} exceeds cap {cap}")


def _event_configs(event: Event) -> list[str]:
    return [str(c) for c in event.configs()]


def _config_str(space: SiteSpace, index: int) -> str:
    return str(space.config_at(index))


def describe_path(path: FoldPath | Sequence[FoldSpec]) -> str:
    parts = []
    for s in path:
        if s.k_sites:
            body = ",".join(f"{site}={sym}" for site, sym in zip(s.k_sites, s.alpha))
        else:
            body = "-"
        parts.append(f"[{body}]")
    return "".join(parts) or "[]"


def is_fkg(p: Measure) -> AssociationReport:
    """Scan all configuration pairs for the lattice condition."""
    _require_binary(p.space, "the lattice condition")
    nums, _ = p.int_weights
    size = p.space.size
    checked = 0
    for i in range(size):
        for j in range(i + 1, size):
            jo, me = i | j, i & j
            if jo == i or jo == j:
                continue  # comparable pairs hold with equality
            checked += 1
            if nums[jo] * nums[me] < nums[i] * nums[j]:
                return AssociationReport(
                    False,
                    {
                        "omega": _config_str(p.space, i),
                        "omega_prime": _config_str(p.space, j),
                        "lhs": p.weights[jo] * p.weights[me],
                        "rhs": p.weights[i] * p.weights[j],
                    },
                    {"pairs": checked},
                )
    return AssociationReport(True, None, {"pairs": checked})


def is_fkg_via_foldings(p: Measure) -> AssociationReport:
    """Equivalent folded form: every defined folding peaks at all-ones."""
    _require_binary(p.space, "the folded lattice condition")
    nums, _ = p.int_weights
    checked = 0
    for window, fnums in _defined_folds(nums, _first_folds(p.space)):
        checked += 1
        top = max(fnums)
        if fnums[-1] != top:
            best = fnums.index(top)
            return AssociationReport(
                False,
                {
                    "fold": describe_path([window.spec]),
                    "max_at": _config_str(window.folded_space, best),
                    "value_at_ones": Fraction(fnums[-1], sum(fnums)),
                    "max_value": Fraction(top, sum(fnums)),
                },
                {"foldings": checked},
            )
    return AssociationReport(True, None, {"foldings": checked})


def is_pa(p: Measure) -> AssociationReport:
    """P(A and B) >= P(A) P(B) over all pairs of increasing events.

    With weights ``nums`` over ``den`` and w(E) the weight of E, a pair
    fails when ``den * w(A and B) < w(A) * w(B)``. Each up-set A is compared
    with every up-set B at once in ``GuardedFields``, B owning field B:
    ``_upset_rows`` gives, per configuration x, the row holding 1 in the
    field of each B containing x, so the weight summer run over ``den *
    nums[x]`` times those rows gives ``den * w(A and B)`` for every B from
    the bytes of A's mask. Both sides are at most ``den**2``. The witness
    is the first failing pair (A, B) with B at or after A in up-set order.
    """
    _require_binary(p.space, "positive association")
    n = p.space.n
    _require_cap(n, UPSET_CAP)
    ups = _upset_masks(n)
    nums, den = p.int_weights
    size = p.space.size
    wsum = weight_summer(nums, size)
    sums = [wsum(m) for m in ups]
    fields = GuardedFields.holding(len(ups), den * den)
    rows = _upset_rows(n)
    meets = weight_summer([den * w * fields.spread(row) for w, row in zip(nums, rows)], size)
    packed_sums = fields.pack(sums)
    log = {"upsets": len(ups), "pairs": len(ups) ** 2}
    for ma, sa in zip(ups, sums):
        bad = fields.below(meets(ma), sa * packed_sums)
        if bad:
            # the condition is symmetric in A and B, so the first failing A
            # fails at no B before it: that pair would have failed earlier
            mb = ups[next(fields.indices(bad))]
            return AssociationReport(
                False,
                {
                    "A": _event_configs(Event(p.space, ma)),
                    "B": _event_configs(Event(p.space, mb)),
                    "lhs": Fraction(wsum(ma & mb), den),
                    "rhs": Fraction(sa * wsum(mb), den * den),
                },
                log,
            )
    return AssociationReport(True, None, log)


@lru_cache(maxsize=None)  # keyed on the site count n, at most UPSET_CAP + 1 entries in use
def _upset_rows(n: int) -> tuple[bytes, ...]:
    """Row x holds one byte per up-set of the binary n-cube, in
    ``_upset_masks`` order: 1 where configuration x is a member."""
    ups = _upset_masks(n)
    return tuple(bytes(m >> x & 1 for m in ups) for x in range(1 << n))


@lru_cache(maxsize=None)  # 2**n entries per site count n, 63 for n = 0..UPSET_CAP
def _lifted_upsets(n: int, nmask: int) -> tuple[int, ...]:
    """Nontrivial increasing events measurable on the positions in nmask of
    the binary n-cube, lifted to full-space masks."""
    shifts = [n - 1 - q for q in range(n) if nmask >> q & 1]  # position q is bit n-1-q
    k = len(shifts)
    sub_index = []
    for i in range(1 << n):
        s = 0
        for b in shifts:
            s = s * 2 + (i >> b & 1)
        sub_index.append(s)
    lifted = []
    for um in _upset_masks(k):
        if um == 0 or um == (1 << (1 << k)) - 1:
            continue  # empty and full events hold trivially
        lifted.append(sum(1 << i for i, s in enumerate(sub_index) if um >> s & 1))
    return tuple(lifted)


def is_na(p: Measure) -> AssociationReport:
    """P(A and B) <= P(A) P(B) for increasing pairs with disjoint support.

    A pair has disjoint support when, for some coordinate set N, every
    member of A and B is recognized on N and its complement respectively.
    It suffices to scan pairs where A is measurable on N and B on the
    complement, both increasing: any supported pair is sandwiched between
    such a factored pair (same intersection, no larger marginals), so the
    factored scan decides the full definition.
    """
    _require_binary(p.space, "negative association")
    n = p.space.n
    _require_cap(n, UPSET_CAP)
    nums, den = p.int_weights
    wsum = weight_summer(nums, p.space.size)
    full = (1 << n) - 1
    scanned = 0
    for nmask in range(1 << n):
        side_a = _lifted_upsets(n, nmask)
        if not side_a:
            continue
        side_b = _lifted_upsets(n, full ^ nmask)
        sums_b = [(mb, wsum(mb)) for mb in side_b]
        for ma in side_a:
            sa = wsum(ma)
            for mb, sb in sums_b:
                scanned += 1
                if wsum(ma & mb) * den > sa * sb:
                    return AssociationReport(
                        False,
                        {
                            "N": sorted(
                                (p.space.sites[q] for q in range(n) if nmask >> q & 1),
                                key=repr,
                            ),
                            "A": _event_configs(Event(p.space, ma)),
                            "B": _event_configs(Event(p.space, mb)),
                            "lhs": Fraction(wsum(ma & mb), den),
                            "rhs": Fraction(sa * sb, den * den),
                        },
                        {"splits": 1 << n, "pairs": scanned},
                    )
    return AssociationReport(True, None, {"splits": 1 << n, "pairs": scanned})


def _balanced_indices(m: int) -> list[int]:
    """Folded-space indices whose popcount k has |k - m/2| <= 1/2."""
    want = {m // 2, (m + 1) // 2}
    return [i for i in range(1 << m) if i.bit_count() in want]


def _nfkg_violation(folds) -> dict | None:
    for window, fnums in folds:
        fspace = window.folded_space
        top = max(fnums)
        total = sum(fnums)
        for i in _balanced_indices(fspace.n):
            if fnums[i] != top:
                return {
                    "fold": describe_path([window.spec]),
                    "balanced": _config_str(fspace, i),
                    "value": Fraction(fnums[i], total),
                    "max_value": Fraction(top, total),
                }
    return None


def _snfkg_violation(folds) -> dict | None:
    for window, fnums in folds:
        fspace = window.folded_space
        balanced = _balanced_indices(fspace.n)
        vals = {fnums[i] for i in balanced}
        total = sum(fnums)
        if len(vals) > 1:
            return {
                "fold": describe_path([window.spec]),
                "reason": "balanced configurations not equal-valued",
            }
        level = vals.pop()
        for i, w in enumerate(fnums):
            if w >= level and i not in balanced:
                return {
                    "fold": describe_path([window.spec]),
                    "reason": "unbalanced configuration not strictly below",
                    "omega": _config_str(fspace, i),
                    "value": Fraction(w, total),
                    "balanced_value": Fraction(level, total),
                }
    return None


def is_nfkg(p: Measure) -> AssociationReport:
    """Balanced configurations are maxima of every defined folding."""
    _require_binary(p.space, "the negative lattice condition")
    nums, _ = p.int_weights
    witness = _nfkg_violation(_defined_folds(nums, _first_folds(p.space)))
    # a binary space has 3^n first folds: each site is conditioned to 0 or 1, or kept
    return AssociationReport(witness is None, witness, {"foldings": 3 ** p.space.n})


def is_snfkg(p: Measure) -> AssociationReport:
    """Balanced configurations are equal and strictly maximal per folding.

    On a positive verdict this also re-derives two consequences and raises
    ``InvariantViolated`` if either fails (they are theorems, so a failure
    is a library bug): the weak condition holds, and every defined folding
    satisfies the strict condition again.
    """
    _require_binary(p.space, "the strict negative lattice condition")
    nums, _ = p.int_weights
    folds = list(_defined_folds(nums, _first_folds(p.space)))
    witness = _snfkg_violation(folds)
    log = {"foldings": 3 ** p.space.n}
    if witness is not None:
        return AssociationReport(False, witness, log)
    if _nfkg_violation(folds) is not None:
        raise InvariantViolated("strict condition without the weak one")
    for window, fnums in folds:
        refolds = _defined_folds(fnums, _first_folds(window.folded_space))
        if _snfkg_violation(refolds) is not None:
            raise InvariantViolated("strict condition not preserved by a folding")
    return AssociationReport(True, None, log)


class BranchFailure(Record):
    branch: str
    stage: str
    detail: str


class PipelineReport(Record):
    ok: bool
    branches: int
    distinct_limits: int
    failures: tuple[BranchFailure, ...]
    final: AssociationReport

    def __bool__(self) -> bool:
        return self.ok


def _distinct_limits(p: Measure) -> tuple[int, list[tuple[str, Event]]]:
    """Walk every essential branch of p; return the branch count and, for
    each distinct terminal weight vector up to a common factor, the first
    branch reaching it and the argmax set its limit is uniform on.

    The walk is memoised. A node of the folding tree is keyed on its folded
    sites and gcd-reduced weights, the same key as its limit, and nothing
    else shapes its subtree: the sites fix the extension windows, and
    scaling the weights changes neither which folds below are defined nor
    any reduced key. So a node whose key was met before adds the stored
    branch count of its subtree and is not descended. Its first copy had
    been walked in full, since descendants have fewer sites than their
    node, so every key below the repeat is already recorded: skipping it
    changes neither the branch count nor which branch first reaches each
    limit, and the limits come out in the depth-first order of
    ``iter_essential_branches``. Each distinct folded space resolves its
    extension windows once, in a table local to the walk.
    """
    counts: dict = {}
    limits: list = []
    branches = _walk(p.int_weights[0], (), _first_folds(p.space), {}, counts, limits)
    return branches, limits


def _walk(nums, path, windows, table, counts, limits) -> int:
    """Branch count below one node of the folding tree (see
    ``_distinct_limits``), appending (branch name, argmax set) for each
    limit met for the first time.

    ``table`` maps a folded space's sites to its extension windows;
    ``counts`` maps each node key met so far to its subtree's branch count
    (0 while that subtree is being walked).
    """
    total = 0
    for window, sub in _defined_folds(nums, windows):
        space, sub_path = window.folded_space, path + (window.spec,)
        g = gcd(*sub)
        key = space.sites, tuple(w // g for w in sub)
        count = counts.get(key)
        if count is None:
            counts[key] = 0
            limits.append((describe_path(sub_path), _argmax(space, sub)))
            extensions = table.get(space.sites)
            if extensions is None:
                extensions = table[space.sites] = list(_extension_folds(space))
            count = counts[key] = 1 + _walk(sub, sub_path, extensions, table, counts, limits)
        total += count
    return total


def _certify(p: Measure, certificate, final) -> PipelineReport:
    """Walk p's essential branches, certify each distinct limit by its
    argmax set, and run the final scan of p itself."""
    branches, limits = _distinct_limits(p)
    failures = tuple(
        BranchFailure(name, *failure)
        for name, argmax in limits
        if (failure := certificate(argmax)) is not None
    )
    rep = final(p)
    return PipelineReport(not failures and rep.verdict, branches, len(limits), failures, rep)


def fkg_theorem_pipeline(p: Measure) -> PipelineReport:
    """Certify positive association along every essential branch limit.

    Requires the lattice condition. Each branch limit must be a symmetric
    uniform two-valued measure satisfying the lattice condition; its pair
    base must exist, be symmetric, ferromagnetic and pairwise, and
    reproduce the limit exactly (``_limit_certificate``). The final stage
    is the exhaustive positive-association scan of p itself.
    """
    _require_binary(p.space, "the positive association pipeline")
    _require_cap(p.space.n, BRANCH_CAP)
    if not is_fkg(p).verdict:
        raise PreconditionFailed("measure does not satisfy the lattice condition")
    return _certify(p, _limit_certificate, is_pa)


@lru_cache(maxsize=256)  # distinct argmax sets: 37 on a full-size fkg-pa run
def _limit_certificate(argmax: Event) -> tuple[str, str] | None:
    """The first failing stage of the certificate of the uniform measure on
    ``argmax``, as (stage, detail), or None when every stage passes."""
    if argmax.bar() != argmax:
        return "symmetric", "limit support not reversal-closed"
    limit = Measure.uniform_on(argmax)
    if not is_fkg(limit).verdict:
        return "lattice", "limit fails the lattice condition"
    try:
        base = construct_uniform_symmetric_rcr(argmax)
    except PreconditionFailed as exc:
        return "construct", str(exc)
    flags = predicates(base)
    if not (flags.symmetric and flags.ferromagnetic and flags.pairwise):
        return "predicates", repr(flags)
    if not verify_rcr(limit, base, 0).ok:
        return "represent", "base does not reproduce the limit"
    return None


def snfkg_limit_rcr(p: Measure) -> PipelineReport:
    """Certify negative association along every essential branch limit.

    Requires the strict negative condition. Each branch limit must equal
    the measure induced by the uniform complete-pairing base of its
    terminal space, whose predicates must be symmetric, antiferromagnetic,
    isolated and pairwise (``_pairing_certificate``). The final stage is
    the exhaustive negative-association scan of p itself.
    """
    _require_binary(p.space, "the negative association pipeline")
    _require_cap(p.space.n, BRANCH_CAP)
    if not is_snfkg(p).verdict:
        raise PreconditionFailed("measure does not satisfy the strict negative condition")
    return _certify(p, _pairing_certificate, is_na)


@lru_cache(maxsize=256)  # distinct argmax sets: 12 on a full-size snfkg-na run
def _pairing_certificate(argmax: Event) -> tuple[str, str] | None:
    """The first failing stage of the pairing certificate of the uniform
    measure on ``argmax``, as (stage, detail), or None when both pass."""
    base = complete_pairing_base(argmax.space)
    if Measure.uniform_on(argmax) != induced_measure(base):
        return "pairing", "limit differs from the pairing measure"
    flags = predicates(base)
    if not (
        flags.symmetric and flags.antiferromagnetic and flags.isolated_edges and flags.pairwise
    ):
        return "predicates", repr(flags)
    return None


def perturb(p: Measure, eps: Fraction | int) -> Measure:
    """Tilt each weight by (1 + eps) per disagreeing site pair, k (n - k) of
    them at k ones.

    The tilt is maximal exactly on balanced configurations, so it turns
    any measure satisfying the weak negative condition into one satisfying
    the strict condition, while converging to p as eps shrinks.
    """
    _require_binary(p.space, "the disagreement tilt")
    eps = as_fraction(eps)
    if eps <= 0:
        raise InvalidParams("the tilt parameter must be positive")
    factor = 1 + eps
    n = p.space.n
    raw = [
        w * factor ** (i.bit_count() * (n - i.bit_count()))
        for i, w in enumerate(p.weights)
    ]
    return normalize(p.space, raw)


class ExchangeableLevels(Record):
    """Per-level weights of an exchangeable measure: P(w) = p_{|w|}."""

    n: int
    p: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(as_fraction(x) for x in self.p))
        if len(self.p) != self.n + 1:
            raise InvalidParams("need one level weight per occupation number 0..n")
        if any(x < 0 for x in self.p):
            raise InvalidParams("level weights must be nonnegative")
        if sum(comb(self.n, k) * x for k, x in enumerate(self.p)) != 1:
            raise InvalidParams("level weights must normalize over the cube")

    @classmethod
    def from_weights(cls, n: int, weights: Sequence) -> "ExchangeableLevels":
        ws = [as_fraction(w) for w in weights]
        total = sum(comb(n, k) * w for k, w in enumerate(ws))
        if total == 0:
            raise InvalidParams("level weights are all zero")
        return cls(n, tuple(w / abs(total) for w in ws))  # keeps signs for __post_init__


def exchangeable_from_levels(levels: ExchangeableLevels) -> Measure:
    """The exchangeable measure assigning p_{|w|} to each configuration."""
    space = SiteSpace.binary(range(1, levels.n + 1))
    return Measure(space, tuple(levels.p[i.bit_count()] for i in range(space.size)))


def _ulc_weights(p: Sequence) -> bool:
    """Ultra log concavity, p_{k+1} p_{k-1} <= p_k^2 at every interior k; a
    positive common factor keeps it, so raw level weights decide it."""
    return all(p[k + 1] * p[k - 1] <= p[k] ** 2 for k in range(1, len(p) - 1))


def is_ulc(levels: ExchangeableLevels) -> bool:
    """Ultra log concavity of the level weights."""
    return _ulc_weights(levels.p)


def levels_from_measure(p: Measure) -> ExchangeableLevels | None:
    """Extract level weights if the measure is exchangeable, else None."""
    if not p.space.is_binary:
        return None
    n = p.space.n
    levels = tuple(p.weights[(1 << k) - 1] for k in range(n + 1))  # k ones
    if any(w != levels[i.bit_count()] for i, w in enumerate(p.weights)):
        return None
    return ExchangeableLevels(n, levels)
