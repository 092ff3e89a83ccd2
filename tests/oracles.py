"""Independent brute-force oracles the library tests check against.

Everything here is written as directly from the definitions as possible
and stays ignorant of the library's internal shortcuts, except the few
that keep a kernel's earlier, plainer loop as its reference.
"""
import dataclasses
from fractions import Fraction
from functools import cache
from itertools import combinations, product as iter_product

from rcfold import Event, Measure, SiteSpace, normalize
from rcfold.folding import (
    ConvergenceCheck,
    FoldSpec,
    FoldWindow,
    _defined_folds,
    _first_folds,
    _fold_prefix,
    _limit_from_nums,
)
from rcfold.measures import _cylinder_table, _tolerance, as_fraction, weight_summer
from rcfold.rcr import (
    BondStateAssignment,
    HyperbondStructure,
    IsingBuild,
    RcrBase,
    RcrCheck,
    clusters,
)
from rcfold.occurrence import _partners, _subset_sets


def brute_upset_masks(n: int) -> list[int]:
    """All upward-closed subsets of the n-cube by scanning every subset."""
    size = 1 << n
    out = []
    for mask in range(1 << size):
        ok = True
        for i in range(size):
            if not mask >> i & 1:
                continue
            for j in range(n):
                w = 1 << (n - 1 - j)
                if not i & w and not mask >> (i | w) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mask)
    return out


def brute_bar(event: Event) -> Event:
    """The reversal of an event, one ``Config.bar`` per member."""
    return Event.from_configs(event.space, (c.bar() for c in event.configs()))


def brute_cylinder(w, region) -> Event:
    """The configurations agreeing with w on every site of region, found by
    comparing value tuples."""
    space = w.space
    pos = [space.site_pos[s] for s in region]
    return Event.from_configs(
        space,
        (u for u in space.iter_configs() if all(u.values[p] == w.values[p] for p in pos)),
    )


def square_renormalize(m: Measure) -> Measure:
    """The empty-conditioning fold computed straight from its formula."""
    size = m.space.size
    raw = [m.weights[i] * m.weights[size - 1 - i] for i in range(size)]
    return normalize(m.space, raw)


def scoped_na_check(m: Measure) -> bool:
    """Negative association checked literally from its definition.

    Scans every pair of increasing events and every coordinate set N; a
    pair is in scope if some N certifies disjoint support (every member of
    the intersection is recognized on N for A and on the complement for
    B). All in-scope pairs must satisfy the product bound.
    """
    space = m.space
    n = space.n
    ups = [Event(space, mask) for mask in brute_upset_masks(n)]
    site_list = list(space.sites)
    for a in ups:
        pa = m.prob(a)
        for b in ups:
            inter = a & b
            in_scope = False
            for nmask in range(1 << n):
                region = [site_list[q] for q in range(n) if nmask >> q & 1]
                co_region = [site_list[q] for q in range(n) if not nmask >> q & 1]
                if all(
                    brute_cylinder(w, region).is_subset(a)
                    and brute_cylinder(w, co_region).is_subset(b)
                    for w in inter.configs()
                ):
                    in_scope = True
                    break
            if in_scope and m.prob(inter) > pa * m.prob(b):
                return False
    return True


def recursive_essential_prefixes(m: Measure, max_len: int) -> set:
    """Second, independent enumeration of defined essential prefixes.

    Returns hashable step keys (k_sites, alpha, beta) per prefix; folding
    is recomputed through plain dictionaries of configuration weights.
    """
    from rcfold import FoldSpec
    from rcfold.folding import FoldingUndefined, fold

    def all_first_specs(space):
        sites = space.sites
        for r in range(len(sites) + 1):
            from itertools import combinations

            for k in combinations(sites, r):
                k_alphabets = [space.alphabets[space.site_pos[s]] for s in k]
                for alpha in iter_product(*k_alphabets):
                    yield FoldSpec(k, alpha)

    def extensions(space):
        from itertools import combinations

        for r in range(1, len(space.sites) + 1):
            for k in combinations(space.sites, r):
                for alpha in iter_product((0, 1), repeat=r):
                    yield FoldSpec(k, alpha)

    found = set()

    def key(path):
        return tuple((s.k_sites, s.alpha, s.beta) for s in path)

    def walk(measure, path):
        if len(path) >= max_len:
            return
        specs = all_first_specs(measure.space) if not path else extensions(measure.space)
        for spec in specs:
            try:
                nxt = fold(measure, spec)
            except FoldingUndefined:
                continue
            found.add(key(path + [spec]))
            walk(nxt, path + [spec])

    if max_len > 0:
        walk(m, [])
    return found


def stream_distinct_limits(m: Measure):
    """Branch count and first-reached distinct limits, by streaming every
    essential branch through ``iter_essential_branches`` with no memo.

    Returns (branches, [(branch name, argmax set)]) in the order the
    depth-first stream first reaches each limit key: the folded sites and
    the weights divided by their gcd. The argmax set holds the maximal
    folded weights, the support of the branch limit.
    """
    from math import gcd

    from rcfold.association import describe_path
    from rcfold.folding import iter_essential_branches

    branches = 0
    seen = set()
    limits = []
    for path, space, nums in iter_essential_branches(m):
        branches += 1
        g = 0
        for w in nums:
            g = gcd(g, w)
        key = space.sites, tuple(w // g for w in nums)
        if key not in seen:
            seen.add(key)
            top = max(nums)
            argmax = Event.from_indices(space, (i for i, w in enumerate(nums) if w == top))
            limits.append((describe_path(path), argmax))
    return branches, limits


def brute_fold(m: Measure, spec) -> Measure:
    """One folding step computed from its definition.

    Conditions on alpha at the K sites, keeps the configurations whose
    every other coordinate is one of its two beta symbols, weighs each by
    its own weight times that of its beta-reversed configuration, and
    relabels each kept coordinate 0 or 1 by the order of the two symbols in
    the site's alphabet. Raises FoldingUndefined when no mass is left.
    """
    from rcfold import FoldingUndefined

    space = m.space
    alpha = dict(zip(spec.k_sites, spec.alpha))
    kept = [s for s in space.sites if s not in alpha]
    if spec.beta is None:
        pairs = {s: space.alphabets[space.site_pos[s]] for s in kept}
    else:
        pairs = {s: (x, y) for s, x, y in zip(kept, *spec.beta)}
    weight = {
        tuple(zip(space.sites, c.symbols())): w
        for c, w in zip(space.iter_configs(), m.weights)
    }
    folded = {}
    for config, w in weight.items():
        symbol = dict(config)
        if any(symbol[s] != a for s, a in alpha.items()):
            continue
        if any(symbol[s] not in pairs[s] for s in kept):
            continue
        reversed_config = tuple(
            (s, v if s in alpha else pairs[s][pairs[s].index(v) ^ 1]) for s, v in config
        )
        labels = []
        for s in kept:
            alph = space.alphabets[space.site_pos[s]]
            other = pairs[s][pairs[s].index(symbol[s]) ^ 1]
            labels.append(int(alph.index(symbol[s]) > alph.index(other)))
        folded[tuple(labels)] = w * weight[reversed_config]
    if not any(folded.values()):
        raise FoldingUndefined("no mass survives the fold")
    fspace = SiteSpace.binary(kept)
    return normalize(fspace, [folded[c.values] for c in fspace.iter_configs()])


def measure_of_dict(space: SiteSpace, d: dict) -> Measure:
    raw = [d.get(i, Fraction(0)) for i in range(space.size)]
    return normalize(space, raw)


def brute_box(a: Event, b: Event, keep) -> Event:
    """The box of A and B under a selection rule, from its definition.

    A configuration w is a member when some disjoint site sets K and L have
    the cylinder of w on K inside A, the cylinder on L inside B, and
    ``keep(w, K, L)`` true.
    """
    return Event.from_predicate(
        a.space, lambda w: any(keep(w, k, l) for k, l in brute_pairs(a, b, w))
    )


def brute_pairs(a: Event, b: Event, w):
    """The disjoint witness pairs (K, L) of A and B at w, as site frozensets."""
    cylinders = _brute_cylinders(a.space)[w.index][1]
    ks = [k for k, cyl in cylinders if cyl.is_subset(a)]
    ls = [l for l, cyl in cylinders if cyl.is_subset(b)]
    return ((k, l) for k in ks for l in ls if not k & l)


def extend_event(window, folded_event: Event) -> Event:
    """The full-space configurations that agree, on the surviving sites of
    ``window``, with the lift of a member of the folded event; the
    conditioned sites run free."""
    space = window.space
    surviving = [p for p in range(space.n) if window.co_mask >> p & 1]
    lifts = [space.values_at(window.lift[f]) for f in folded_event.indices()]
    return Event.from_predicate(
        space, lambda w: any(all(w.values[p] == v[p] for p in surviving) for v in lifts)
    )


def brute_pushed_select(windows, keep, a: Event, b: Event, omega) -> frozenset:
    """The kept pairs at the folded configuration omega of a rule pushed
    through ``windows`` (first fold first), from the definition: the
    brute-force witness pairs of the events extended to the unfolded space,
    at the lift of omega, under ``keep``, each cut to the surviving sites."""
    index = omega.index
    for window in reversed(windows):
        a, b = extend_event(window, a), extend_event(window, b)
        index = window.lift[index]
    w = a.space.config_at(index)
    surviving = frozenset(omega.space.sites)
    return frozenset(
        (k & surviving, l & surviving) for k, l in brute_pairs(a, b, w) if keep(w, k, l)
    )


@cache
def _brute_cylinders(space: SiteSpace) -> tuple:
    """Per configuration w: w and, for every site set K, the pair (K,
    ``brute_cylinder(w, K)``). Built once per space, since the cylinders
    depend on neither the events nor the rule."""
    subsets = [
        frozenset(c) for r in range(space.n + 1) for c in combinations(space.sites, r)
    ]
    return tuple(
        (w, tuple((k, brute_cylinder(w, k)) for k in subsets)) for w in space.iter_configs()
    )


def brute_compatible(eta, w) -> bool:
    """Whether configuration w is compatible with assignment eta: at every
    bond, w's values at the bond's sites, read as one mixed-radix number
    (first site most significant), name a bit set in the bond's state."""
    pos, radices = w.space.site_pos, w.space.radices

    def local_index(bond):
        t = 0
        for s in bond:
            t = t * radices[pos[s]] + w.values[pos[s]]
        return t

    return all(
        state >> local_index(bond) & 1 for bond, state in zip(eta.structure.bonds, eta.states)
    )


def _brute_raw(base) -> list[Fraction]:
    """Per configuration, the total weight of the atoms compatible with it."""
    return [
        sum((weight for eta, weight in base.atoms if brute_compatible(eta, w)), Fraction(0))
        for w in base.structure.space.iter_configs()
    ]


def brute_induced_measure(base):
    """The measure a cluster base represents, from its definition: a
    configuration weighs the total weight of the compatible atoms. None when
    no configuration is compatible with any atom."""
    raw = _brute_raw(base)
    return normalize(base.structure.space, raw) if any(raw) else None


def brute_sublattice_flags(event: Event) -> tuple:
    """(sublattice, symmetric, separates_points, equals_full) of a subset of
    a binary cube, from value tuples: join and meet are the coordinatewise
    max and min, reversal maps each value v to 1 - v, and a subset
    separates points when it is nonempty and, for every two sites, some
    member holds different values there."""
    space = event.space
    members = {c.values for c in event.configs()}
    closed = all(
        tuple(map(max, u, v)) in members and tuple(map(min, u, v)) in members
        for u in members
        for v in members
    )
    symmetric = {tuple(1 - x for x in u) for u in members} == members
    separates = bool(members) and all(
        any(u[i] != u[j] for u in members) for i, j in combinations(range(space.n), 2)
    )
    return closed, symmetric, separates, len(members) == space.size


def brute_box_product_sweep(p: Measure) -> dict:
    """The box/product sweep as a loop over every pair of events and every
    configuration: the witness set and the position-masks disjoint from one
    of its members are tabulated per event and configuration, and each pair
    compares ``w(A box B) * den`` with ``w(A) * w(B)``."""
    space = p.space
    size = space.size
    n_events = 1 << size
    within = _subset_sets(space.n)
    nums, den = p.int_weights
    wsum = weight_summer(nums, size)
    table = _cylinder_table(space)
    witness = [
        [sum(1 << k for k, cyl in enumerate(row) if not cyl & ~a) for row in table]
        for a in range(n_events)
    ]
    allowed = [[_partners(ks, within) for ks in row] for row in witness]
    sums = [wsum(a) for a in range(n_events)]

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


def fraction_fold_gaps(p: Measure, keep, a: Event, b: Event) -> list:
    """Per defined first fold, in order: (spec, lhs_f - rhs_f), with the
    fold normalized to a Fraction measure, lhs_f the probability of the
    slice of the unfolded box of the extended slices under ``keep`` (see
    ``brute_box``), and rhs_f that of A and bar(B)."""
    gaps = []
    for window, fnums in _defined_folds(p.int_weights[0], _first_folds(p.space)):
        folded = normalize(window.folded_space, fnums)
        a_slice = window.slice_event(a)
        b_slice = window.slice_event(b)
        up_a, up_b = extend_event(window, a_slice), extend_event(window, b_slice)
        boxed = window.slice_event(brute_box(up_a, up_b, keep))
        lhs_f = folded.prob(boxed)
        rhs_f = folded.prob(a_slice & b_slice.bar())
        gaps.append((window.spec, lhs_f - rhs_f))
    return gaps


def fraction_folding_hypothesis(p: Measure, keep, a: Event, b: Event, eps) -> tuple:
    """(hypothesis failures, foldings checked, lhs, rhs) of the folding
    hypothesis check, comparing Fraction probabilities per fold."""
    gaps = fraction_fold_gaps(p, keep, a, b)
    failures = tuple(spec for spec, gap in gaps if gap > eps)
    lhs = p.prob(brute_box(a, b, keep))
    return failures, len(gaps), lhs, p.prob(a) * p.prob(b)


def loop_is_pa(p: Measure):
    """(verdict, witness, quantifier log) of the positive-association scan
    as one pair loop: every up-set A against every up-set B at or after it,
    the first pair with ``den * w(A and B) < w(A) * w(B)`` the witness."""
    from rcfold.association import _event_configs
    from rcfold.measures import _upset_masks

    ups = _upset_masks(p.space.n)
    nums, den = p.int_weights
    wsum = weight_summer(nums, p.space.size)
    sums = [wsum(m) for m in ups]
    for i in range(len(ups)):
        si = sums[i]
        mi = ups[i]
        for j in range(i, len(ups)):
            if wsum(mi & ups[j]) * den < si * sums[j]:
                return (
                    False,
                    {
                        "A": _event_configs(Event(p.space, mi)),
                        "B": _event_configs(Event(p.space, ups[j])),
                        "lhs": Fraction(wsum(mi & ups[j]), den),
                        "rhs": Fraction(si * sums[j], den * den),
                    },
                    {"upsets": len(ups), "pairs": len(ups) ** 2},
                )
    return True, None, {"upsets": len(ups), "pairs": len(ups) ** 2}


def loop_limit_failures(p: Measure) -> tuple:
    """The branch failures of the positive-association pipeline, certifying
    every distinct limit afresh from its measure. The certificate stages
    are looked up on the association module at call time, so a test that
    patches one patches it here too."""
    from rcfold import association
    from rcfold.association import BranchFailure, _distinct_limits
    from rcfold.errors import PreconditionFailed

    failures = []
    for name, argmax in _distinct_limits(p)[1]:
        limit = Measure.uniform_on(argmax)
        if argmax.bar() != argmax:
            failures.append(BranchFailure(name, "symmetric", "limit support not reversal-closed"))
            continue
        if not association.is_fkg(limit).verdict:
            failures.append(BranchFailure(name, "lattice", "limit fails the lattice condition"))
            continue
        try:
            base = association.construct_uniform_symmetric_rcr(argmax)
        except PreconditionFailed as exc:
            failures.append(BranchFailure(name, "construct", str(exc)))
            continue
        flags = association.predicates(base)
        if not (flags.symmetric and flags.ferromagnetic and flags.pairwise):
            failures.append(BranchFailure(name, "predicates", repr(flags)))
            continue
        if not association.verify_rcr(limit, base, 0).ok:
            failures.append(BranchFailure(name, "represent", "base does not reproduce the limit"))
    return tuple(failures)


def loop_pairing_failures(p: Measure) -> tuple:
    """The branch failures of the negative-association pipeline, building
    the pairing base, its measure and its predicates afresh for every
    distinct limit. The certificate stages are looked up on the association
    module at call time, as in ``loop_limit_failures``."""
    from rcfold import association
    from rcfold.association import BranchFailure, _distinct_limits

    failures = []
    for name, argmax in _distinct_limits(p)[1]:
        base = association.complete_pairing_base(argmax.space)
        pairing_measure = association.induced_measure(base)
        flags = association.predicates(base)
        if Measure.uniform_on(argmax) != pairing_measure:
            failures.append(
                BranchFailure(name, "pairing", "limit differs from the pairing measure")
            )
            continue
        if not (
            flags.symmetric
            and flags.antiferromagnetic
            and flags.isolated_edges
            and flags.pairwise
        ):
            failures.append(BranchFailure(name, "predicates", repr(flags)))
    return tuple(failures)


def disagreement_count(omega) -> int:
    """Number of site pairs on which the configuration disagrees.

    Over the complete pair set this equals k (m - k) for k ones among m
    sites, so it is maximal exactly at the balanced occupation numbers and
    strictly smaller elsewhere.
    """
    vals = omega.values
    n = len(vals)
    return sum(1 for u in range(n) for v in range(u + 1, n) if vals[u] != vals[v])


def is_increasing(event: Event) -> bool:
    """Closure of an event of a binary space upward under the
    coordinatewise order: raising any 0 of a member to 1 stays inside."""
    n = event.space.n
    for i in event.indices():
        for j in range(n):
            w = 1 << (n - 1 - j)
            if not i & w and not event.contains_index(i | w):
                return False
    return True


def dataclass_twin(cls) -> type:
    """The frozen dataclass a value type stands in for: the same name and
    fields."""
    return dataclasses.make_dataclass(cls.__name__, list(vars(cls)["__annotations__"]), frozen=True)


# Fraction references: the cluster-base, measure and convergence kernels as
# they were written before they moved to integers, one Fraction per weight.


def fraction_normalize(space: SiteSpace, weights) -> Measure:
    """``normalize`` summing and dividing Fractions."""
    ws = [as_fraction(w) for w in weights]
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    total = sum(ws)
    return Measure(space, tuple(w / total for w in ws))


def fraction_sup_distance(p: Measure, q: Measure) -> Fraction:
    return max(abs(a - b) for a, b in zip(p.weights, q.weights))


def fraction_base_measure(base: RcrBase) -> Measure:
    """``RcrBase.measure`` adding Fraction atom weights per configuration."""
    return fraction_normalize(base.structure.space, _brute_raw(base))


def fraction_verify_rcr(p: Measure, base: RcrBase, eps=0) -> RcrCheck:
    eps = _tolerance(eps)
    dev = fraction_sup_distance(p, fraction_base_measure(base))
    return RcrCheck(dev, dev <= eps)


def fraction_ising_measure(spec) -> Measure:
    """``ising_measure`` multiplying Fraction factors per configuration."""
    space = spec.space
    pos = space.site_pos
    fields = spec.fields or tuple(Fraction(1) for _ in spec.vertices)
    factors = [(space.agree_masks[pos[u]][pos[v]], x) for u, v, x in spec.edges]
    factors += [(ones, f) for (_, ones), f in zip(space.value_masks, fields)]
    raw = [Fraction(1)] * space.size
    for mask, x in factors:
        for i in Event(space, mask).indices():
            raw[i] *= x
    return fraction_normalize(space, raw)


def fraction_ising_build(spec) -> IsingBuild:
    """``ising_build`` with Fraction atom weights p = 1 - 1/x and a Fraction
    cluster marginal, for specs that meet its preconditions."""
    space = spec.space
    struct = HyperbondStructure(space, tuple((u, v) for u, v, _ in spec.edges))
    diag, full = 0b1001, 0b1111  # the pair states {00, 11} and all four
    probs = [spec.edge_probability(x) for _, _, x in spec.edges]

    atoms = []
    fk_all = []
    for choice in iter_product((True, False), repeat=len(spec.edges)):
        w = Fraction(1)
        for act, p in zip(choice, probs):
            w *= p if act else 1 - p
        eta = BondStateAssignment(struct, tuple(diag if act else full for act in choice))
        fk_all.append((eta, w * (1 << len(clusters(eta)))))
        if w > 0:
            atoms.append((eta, w))
    base = RcrBase(struct, tuple(atoms))
    measure = fraction_ising_measure(spec)

    z_fk = sum(w for _, w in fk_all)
    fk = tuple((eta, w / z_fk) for eta, w in fk_all)
    atom_weight = {eta.states: w for eta, w in base.atoms}
    direct = []
    for eta, _ in fk_all:
        w = atom_weight.get(eta.states, Fraction(0))
        direct.append(w * sum(brute_compatible(eta, c) for c in space.iter_configs()))
    z_direct = sum(direct)
    for (eta, closed), raw in zip(fk, direct):
        assert closed == raw / z_direct, "cluster marginal mismatch"
    return IsingBuild(measure, base, tuple((eta, w) for eta, w in fk if w > 0))


def fraction_convergence_checks(p: Measure, steps: tuple):
    """The convergence stream of a prefix, each iterate normalized into a
    Measure and compared with the uniform limit by the sup-norm."""
    space, nums = _fold_prefix(p.space, p.int_weights[0], steps)
    limit = _limit_from_nums(space, nums, max(len(steps), 1))
    square = FoldWindow.resolve(space, FoldSpec((), ()))
    size = p.space.size
    iterate, power = nums, 2
    while True:
        iterate = square.fold(iterate)
        distance = fraction_sup_distance(fraction_normalize(space, iterate), limit.measure)
        bound = size * limit.ratio ** power
        yield ConvergenceCheck(distance, bound, distance <= bound)
        power *= 2
