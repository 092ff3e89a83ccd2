"""Set-valued cluster bases and their induced measures.

A hyperbond structure fixes a family of site subsets (bonds). A bond-state
assignment gives each bond a set of local configurations, as a bitmask: bit
t stands for local configuration t, numbered in mixed radix over the bond's
sites in space order, first site most significant, as a ``SiteSpace``
indexes its configurations. So reversing a state reverses its bit string,
as ``Event.bar`` does. A bond is active when its state is not the full one.
A base is a sparse probability vector over assignments, and it represents a
measure P when

    P(w) = (1/Z) * sum over assignments compatible with w of their weight,

compatibility meaning that w restricted to every bond lies in the bond's
state. Compatibility is one bitmask over configuration indices: the AND
over bonds of the OR of the state's local cylinders. Site agreement is read
off the space's value masks. On binary spaces the join and meet of two
configurations are the OR and AND of their indices, so the sublattice test
moves whole masks along bits (``SiteSpace.bit_steps``).

Weights stay integers; a ``Fraction`` is built only for a returned record.
A base adds integer atom numerators (``int_weights``) along each atom's
compatible mask. An edge weight x = a/b gives a where its endpoints agree and
b where not, and the edge base's p = (a - b)/a makes every atom weight a
numerator over D, the product of the a's. The module also provides the
structural predicates used by the association pipelines, the point-mass base
built from a symmetric join/meet-closed support, the uniform base over
complete pairings, and the classic two-state edge base for
agreement-weighted (Ising-type) measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product as iter_product
from math import prod
from typing import Iterator

from .errors import (
    InvalidParams,
    InvariantViolated,
    NoCompatiblePair,
    NonBinaryAlphabet,
    PreconditionFailed,
    SpaceMismatch,
)
from .measures import (
    Config,
    Event,
    Measure,
    Record,
    SiteSpace,
    _common_denominator,
    _reversed_mask,
    _tolerance,
    as_fraction,
    normalize,
    sup_distance,
)


class HyperbondStructure(Record):
    """A duplicate-free family of nonempty site subsets of a space."""

    space: SiteSpace
    bonds: tuple[tuple, ...]

    def __post_init__(self):
        pos = self.space.site_pos
        canon = []
        for b in self.bonds:
            b = tuple(b)
            if not b:
                raise InvalidParams("bonds must be nonempty")
            if len(set(b)) != len(b):
                raise InvalidParams("bond sites must be distinct")
            for s in b:
                if s not in pos:
                    raise InvalidParams(f"bond site {s!r} not in space")
            canon.append(tuple(sorted(b, key=pos.__getitem__)))
        if len(set(canon)) != len(canon):
            raise InvalidParams("bond list must be duplicate-free")
        object.__setattr__(self, "bonds", tuple(canon))

    @cached_property
    def bond_positions(self) -> tuple[tuple[int, ...], ...]:
        pos = self.space.site_pos
        return tuple(tuple(pos[s] for s in b) for b in self.bonds)

    @cached_property
    def local_cylinders(self) -> tuple[tuple[int, ...], ...]:
        """Entry [i][t]: the configurations whose values on bond i form its
        local configuration t; each site of the bond appends one digit."""
        masks = self.space.value_masks
        out = []
        for positions in self.bond_positions:
            row = [(1 << self.space.size) - 1]
            for p in positions:
                row = [c & m for c in row for m in masks[p]]
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def full_states(self) -> tuple[int, ...]:
        return tuple((1 << len(row)) - 1 for row in self.local_cylinders)

    @classmethod
    def all_pairs(cls, space: SiteSpace) -> "HyperbondStructure":
        return cls(space, tuple(combinations(space.sites, 2)))


class BondStateAssignment(Record):
    """One set-valued state per bond, a bitmask over its local configurations."""

    structure: HyperbondStructure
    states: tuple[int, ...]

    def __init__(self, structure, states):
        states = tuple(states)
        if len(states) != len(structure.bonds):
            raise InvalidParams("one state per bond required")
        for bond, state, full in zip(structure.bonds, states, structure.full_states):
            if not 0 <= state <= full:
                raise InvalidParams(f"state of bond {list(bond)} outside 0..{full}")
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "states", states)

    @cached_property
    def compatible_mask(self) -> int:
        """Bitmask of the configuration indices compatible with the
        assignment: the AND over active bonds of the union of the (disjoint)
        local cylinders in the state. A full state allows every one."""
        struct = self.structure
        out = (1 << struct.space.size) - 1
        for cyls, state, full in zip(struct.local_cylinders, self.states, struct.full_states):
            if state != full:
                out &= sum(cyl for t, cyl in enumerate(cyls) if state >> t & 1)
        return out


class RcrBase(Record):
    """A sparse base: distinct assignments with positive weights summing to 1.

    A base is immutable, so its induced measure, its predicates and each
    atom's clusters are computed on first read and kept; each atom keeps
    its own compatible mask.
    ``int_weights`` holds the atom weights as ``Measure.int_weights`` does.
    """

    structure: HyperbondStructure
    atoms: tuple[tuple[BondStateAssignment, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((a, as_fraction(w)) for a, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        nums, den = _common_denominator([w for _, w in atoms])
        if any(x <= 0 for x in nums):
            raise InvalidParams("atom weights must be positive")
        if sum(nums) != den:
            raise InvalidParams("atom weights must sum to exactly 1")
        object.__setattr__(self, "int_weights", (nums, den))
        keys = [a.states for a, _ in atoms]
        if len(set(keys)) != len(keys):
            raise InvalidParams("atom assignments must be distinct")
        for a, _ in atoms:
            if a.structure != self.structure:
                raise SpaceMismatch("atom assignment on a different structure")

    @cached_property
    def measure(self) -> Measure:
        """The represented measure, normalized over all configurations;
        built on first read."""
        space = self.structure.space
        raw = [0] * space.size
        for (eta, _), num in zip(self.atoms, self.int_weights[0]):
            for i in Event(space, eta.compatible_mask).indices():
                raw[i] += num
        if not any(raw):
            raise NoCompatiblePair("no configuration is compatible with any atom")
        return normalize(space, raw)

    @cached_property
    def predicates(self) -> BasePredicates:
        """The structural predicates, evaluated atom by atom on first read."""
        struct = self.structure
        pairwise = all(len(b) <= 2 for b in struct.bonds)
        binary = struct.space.is_binary

        symmetric = isolated = True
        ferro = antiferro = True if binary else None  # undefined off binary spaces

        for eta, _ in self.atoms:
            active_positions = []
            for positions, state, full in zip(struct.bond_positions, eta.states, struct.full_states):
                k = full.bit_length()  # local configurations; the last is all top symbols
                symmetric = symmetric and _reversed_mask(state, k) == state
                if state != full:
                    active_positions.append(set(positions))
                    antiferro = antiferro and len(positions) == 2 and state == 0b0110
                if binary and state and not state >> (k - 1):
                    ferro = False
            isolated = isolated and not any(a & b for a, b in combinations(active_positions, 2))
        return BasePredicates(symmetric, ferro, antiferro, isolated, pairwise)

    @cached_property
    def atom_clusters(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per atom: the bitmask of its compatible configurations and its
        clusters of more than one site, as position masks."""
        pos = self.structure.space.site_pos

        def masks(eta):
            return tuple(sum(1 << pos[s] for s in c) for c in clusters(eta) if len(c) > 1)

        return tuple((eta.compatible_mask, masks(eta)) for eta, _ in self.atoms)


def compatible(eta: BondStateAssignment, omega: Config) -> bool:
    """True iff omega restricted to every bond lies in that bond's state."""
    if eta.structure.space != omega.space:
        raise SpaceMismatch("assignment and configuration on different spaces")
    return bool(eta.compatible_mask >> omega.index & 1)


def induced_measure(base: RcrBase) -> Measure:
    """The measure represented by a base, normalized over all configurations."""
    return base.measure


class RcrCheck(Record):
    max_dev: Fraction
    ok: bool


def verify_rcr(p: Measure, base: RcrBase, eps: Fraction | int = 0) -> RcrCheck:
    """Exact sup-norm deviation between p and the base's induced measure."""
    eps = _tolerance(eps)
    if p.space != base.structure.space:
        raise SpaceMismatch("measure and base on different spaces")
    dev = sup_distance(p, base.measure)
    return RcrCheck(dev, dev <= eps)


def clusters(eta: BondStateAssignment) -> tuple[frozenset, ...]:
    """Site partition generated by active bonds, untouched sites singleton.

    Union-find over the space's sites; every active bond merges all its
    sites into one component.
    """
    struct = eta.structure
    space = struct.space
    active = (
        positions
        for positions, state, full in zip(struct.bond_positions, eta.states, struct.full_states)
        if state != full
    )
    groups: dict[int, list] = {}
    for p, root in enumerate(_component_roots(space.n, active)):
        groups.setdefault(root, []).append(space.sites[p])
    pos = space.site_pos
    return tuple(
        frozenset(g) for g in sorted(groups.values(), key=lambda g: min(pos[s] for s in g))
    )


def _component_roots(n: int, links) -> list[int]:
    """Union-find over points 0..n-1: the component root of each point after
    every link (a sequence of points) merges its points into one component."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in links:
        head = find(link[0])
        for p in link[1:]:
            parent[find(p)] = head
    return [find(x) for x in range(n)]


class BasePredicates(Record):
    """Structural flags of a base, each checked on every atom.

    ``ferromagnetic`` and ``antiferromagnetic`` are None on non-binary
    spaces, where they are not defined.
    """

    symmetric: bool
    ferromagnetic: bool | None
    antiferromagnetic: bool | None
    isolated_edges: bool
    pairwise: bool


def predicates(base: RcrBase) -> BasePredicates:
    """The structural predicates of a base, evaluated atom by atom."""
    return base.predicates


def _join_meet_closed(d: Event) -> bool:
    """Closure of d under join (``a | b``) and meet (``a & b``) of indices;
    binary spaces only, which every caller checks first. Moving d's mask up
    along every set bit of a member a gives {a | b : b in d}, and down along
    every clear bit {a & b : b in d}; both must lie inside d."""
    mask = d.mask
    steps = d.space.bit_steps
    for a in d.indices():
        up = down = mask
        for w, zeros, ones in steps:
            if a & w:
                up = up & ones | (up & zeros) << w
            else:
                down = down & zeros | (down & ones) >> w
        if (up | down) & ~mask:
            return False
    return True


def construct_uniform_symmetric_rcr(d: Event) -> RcrBase:
    """Point-mass pair base representing the uniform measure on d.

    Requires d nonempty, closed under global symbol reversal, and closed
    under join and meet (the product-lattice condition the uniform measure
    on d must satisfy). The base puts every site pair whose coordinates
    agree across all of d in the two-equal state 0b1001 ({00, 11}), and
    leaves every other pair unconstrained; the induced measure is then
    exactly uniform on d.
    """
    space = d.space
    if not space.is_binary:
        raise NonBinaryAlphabet("pair-base construction requires a binary space")
    failures = []
    if d.count == 0:
        failures.append("support is empty")
    else:
        if d.bar() != d:
            failures.append("support is not symmetric under reversal")
        if not _join_meet_closed(d):
            failures.append("uniform measure on the support fails the lattice (FKG) condition")
    if failures:
        raise PreconditionFailed("; ".join(failures))

    struct = HyperbondStructure.all_pairs(space)
    states = (
        0b1001 if not d.mask & ~space.agree_masks[pu][pv] else full
        for (pu, pv), full in zip(struct.bond_positions, struct.full_states)
    )
    eta = BondStateAssignment(struct, states)
    return RcrBase(struct, ((eta, Fraction(1)),))


# a dataclass, not a Record: the benchmark's tests forge a wrong verdict with
# dataclasses.replace
@dataclass(frozen=True)
class SublatticeFlags:
    sublattice: bool
    symmetric: bool
    separates_points: bool
    equals_full: bool


def check_sublattice(lattice: Event) -> SublatticeFlags:
    """Flags for a subset of a binary cube; enforces the separation lemma.

    ``separates_points`` requires the subset to be nonempty and, for every
    pair of sites, to contain a configuration distinguishing them. A
    symmetric point-separating sublattice must be the full cube; that
    implication is re-checked here and a violation raises
    ``InvariantViolated``.
    """
    space = lattice.space
    if not space.is_binary:
        raise NonBinaryAlphabet("sublattice flags are defined on binary spaces")
    mask = lattice.mask
    sub = _join_meet_closed(lattice)
    sym = _reversed_mask(mask, space.size) == mask
    separates = bool(mask) and all(map(mask.__and__, space.disagree_masks))
    full = mask == (1 << space.size) - 1
    if sub and sym and separates and not full:
        raise InvariantViolated("separation lemma violated: proper symmetric separating sublattice")
    return SublatticeFlags(sub, sym, separates, full)


def _matchings(items: tuple) -> Iterator[tuple[tuple, ...]]:
    """All pairings covering every item but at most one (odd leftovers)."""
    if len(items) <= 1:
        yield ()
        return
    first, rest = items[0], items[1:]
    # leave `first` unmatched only when the count is odd
    if len(items) % 2 == 1:
        yield from _matchings(rest)
    for k, other in enumerate(rest):
        pair = (first, other)
        remaining = rest[:k] + rest[k + 1 :]
        for tail in _matchings(remaining):
            yield (pair,) + tail


def complete_pairing_base(space: SiteSpace) -> RcrBase:
    """Uniform base over complete pairings with anti-equal active pairs.

    Atoms are the (near-)perfect matchings of the complete graph on the
    sites, one unmatched site allowed when the count is odd. Matched pairs
    carry the state 0b0110 ({01, 10}); unmatched pairs stay unconstrained. The
    induced measure is uniform on the configurations whose number of 1s is
    within 1/2 of half the site count.
    """
    if not space.is_binary:
        raise NonBinaryAlphabet("complete pairings require a binary space")
    struct = HyperbondStructure.all_pairs(space)
    bond_index = {b: i for i, b in enumerate(struct.bonds)}
    pos = space.site_pos
    atoms = []
    all_matchings = list(_matchings(space.sites))
    weight = Fraction(1, len(all_matchings))
    for matching in all_matchings:
        states = list(struct.full_states)
        for u, v in matching:
            key = tuple(sorted((u, v), key=pos.__getitem__))
            states[bond_index[key]] = 0b0110
        atoms.append((BondStateAssignment(struct, states), weight))
    return RcrBase(struct, tuple(atoms))


class IsingSpec(Record):
    """An agreement-weighted pair model on a simple graph.

    Each edge carries a rational agreement weight x > 0 (the factor gained
    when its endpoints agree); each vertex optionally carries a rational
    field weight (the factor gained when it holds symbol 1, default 1).
    """

    vertices: tuple
    edges: tuple[tuple, ...]  # (u, v, Fraction)
    fields: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidParams("vertices must be distinct")
        vset = set(self.vertices)
        canon = []
        seen = set()
        for u, v, x in self.edges:
            if u == v:
                raise InvalidParams("self-loops are not allowed")
            if u not in vset or v not in vset:
                raise InvalidParams(f"edge endpoint outside vertex set: {(u, v)}")
            key = frozenset((u, v))
            if key in seen:
                raise InvalidParams(f"duplicate edge {(u, v)}")
            seen.add(key)
            x = as_fraction(x)
            if x <= 0:
                raise InvalidParams("edge weights must be positive")
            canon.append((u, v, x))
        object.__setattr__(self, "edges", tuple(canon))
        if self.fields is not None:
            f = tuple(as_fraction(x) for x in self.fields)
            if len(f) != len(self.vertices):
                raise InvalidParams("one field weight per vertex required")
            if any(x <= 0 for x in f):
                raise InvalidParams("field weights must be positive")
            object.__setattr__(self, "fields", f)

    @property
    def space(self) -> SiteSpace:
        return SiteSpace.binary(self.vertices)

    def edge_probability(self, x: Fraction) -> Fraction:
        """The activation probability 1 - 1/x of an agreement weight."""
        return 1 - Fraction(1, 1) / x


def ising_measure(spec: IsingSpec) -> Measure:
    """Exact measure proportional to the product of edge and field factors;
    a factor a/b contributes a where it applies and b elsewhere."""
    space = spec.space
    pos = space.site_pos
    factors = [(space.agree_masks[pos[u]][pos[v]], x) for u, v, x in spec.edges]
    factors += [(ones, f) for (_, ones), f in zip(space.value_masks, spec.fields or ())]
    raw = [1] * space.size
    for mask, x in factors:
        raw = [r * (x.numerator if mask >> i & 1 else x.denominator) for i, r in enumerate(raw)]
    return normalize(space, raw)


class IsingBuild(Record):
    measure: Measure
    base: RcrBase
    fk_marginal: tuple[tuple[BondStateAssignment, Fraction], ...]


def ising_build(spec: IsingSpec) -> IsingBuild:
    """Measure plus its two-state edge base, with the cluster marginal.

    Requires every field weight 1 and every edge weight x >= 1, so each
    edge's activation probability p = 1 - 1/x lies in [0, 1). The base is
    the product over edges of (the equal-pair state 0b1001 with probability
    p, the full state 0b1111 otherwise). The state marginal of the joint distribution is also
    computed two ways, by the closed product-times-2^clusters formula and
    by direct summation, and the two must agree exactly (``InvariantViolated``
    if not).
    """
    if spec.fields is not None and any(f != 1 for f in spec.fields):
        raise PreconditionFailed("base construction requires all field weights equal to 1")
    if any(x < 1 for _, _, x in spec.edges):
        raise PreconditionFailed("base construction requires edge weights >= 1")
    space = spec.space
    struct = HyperbondStructure(space, tuple((u, v) for u, v, _ in spec.edges))
    # x = a/b: p = (a - b)/a and 1 - p = b/a, numerators over D = prod a
    halves = [(x.numerator - x.denominator, x.denominator) for _, _, x in spec.edges]
    rows = []  # (assignment, atom numerator, closed-formula numerator)
    for choice in iter_product((True, False), repeat=len(spec.edges)):
        num = prod(p if act else q for act, (p, q) in zip(choice, halves))
        eta = BondStateAssignment(struct, (0b1001 if act else 0b1111 for act in choice))
        rows.append((eta, num, num << len(clusters(eta))))
    den = sum(num for _, num, _ in rows)  # the numerators of all choices sum to D
    base = RcrBase(struct, tuple((eta, Fraction(num, den)) for eta, num, _ in rows if num))
    measure = ising_measure(spec)

    # the closed formula against the direct state marginal of the joint (atom
    # weight times compatible count), both normalized: equal by cross-multiplying
    direct = [num * eta.compatible_mask.bit_count() for eta, num, _ in rows]
    z_fk, z_direct = sum(c for _, _, c in rows), sum(direct)
    for (_, _, closed), raw in zip(rows, direct):
        if closed * z_direct != raw * z_fk:
            raise InvariantViolated("cluster marginal mismatch between formula and summation")
    return IsingBuild(measure, base, tuple((eta, Fraction(c, z_fk)) for eta, _, c in rows if c))
