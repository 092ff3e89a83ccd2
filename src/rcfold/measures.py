"""Finite product spaces, configurations, events, and exact measures.

A ``SiteSpace`` fixes an ordered list of sites and a finite ordered alphabet
per site. Configurations store one alphabet index per site and are
addressable by a mixed-radix integer (first site most significant), so a
binary space enumerates its configurations as plain bit patterns. Events
store membership as an integer bitmask over configuration indices.
``SiteSpace.value_masks`` reads that index layout for the set operations:
the bitmask of the configurations carrying each value at each position, from
which cylinders, bond compatibility and site agreement are ANDs and ORs. Two
lattice operations read it directly. Symbol reversal maps index i to
size - 1 - i on every space, so ``Event.bar`` reverses the size-bit string
of a mask. On binary spaces the join and meet of two configurations are the
OR and AND of their indices, as in ``rcr._join_meet_closed``.

All probabilities are ``fractions.Fraction``; nothing on a verification
path ever touches floating point. A ``Measure`` also holds its weights as
integer numerators over their lcm denominator (``int_weights``), which it is
validated on; ``normalize`` and ``sup_distance`` compute on those numerators.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AllZero,
    CapExceeded,
    InvalidParams,
    NonBinaryAlphabet,
    SpaceMismatch,
)

Symbol = object
Rational = Fraction | int

UPSET_CAP = 5


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction.

    Anything else, and a string that ``Fraction`` rejects (a zero
    denominator included), raises ``InvalidParams``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidParams(f"not an exact rational: {x!r}")


def _tolerance(eps) -> Fraction:
    """A check's tolerance: an exact rational that is not negative."""
    eps = as_fraction(eps)
    if eps < 0:
        raise InvalidParams(f"a tolerance must not be negative, got {eps}")
    return eps


class Record:
    """Base of the package's immutable value types. It stands in for
    ``@dataclass(frozen=True)``, whose generated methods took a third of
    the package's import time: a subclass declares its fields as annotations
    (a default as the annotated value), and the base reads them once and
    gives the dataclass ``__init__`` (then ``__post_init__``), equality,
    hash, ``repr`` and refusal of assignment. Classes built in hot loops
    write their own ``__init__``, which validates and sets each field once.
    Fields are set with ``object.__setattr__``: writing ``self.__dict__``
    would make Python build the instance dict and read every field slower.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(n for n in vars(cls).get("__annotations__", {}) if n not in cls._fields)
        cls._fields += own
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        get = attrgetter(*cls._fields)  # the field tuple; one name gives a bare value
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[n] for n in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        items = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in items)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # rebuilt by __init__, which takes a stored hash afresh
        return type(self), self._values(self)


class SiteSpace(Record):
    """An ordered finite product space: sites and one ordered alphabet each.

    The alphabet order is the total order used for maxima, increasing
    events, and symbol reversal. Site identifiers must be distinct and
    hashable; they need not be comparable with each other.
    """

    sites: tuple
    alphabets: tuple[tuple, ...]

    def __init__(self, sites, alphabets):
        sites = tuple(sites)
        alphabets = tuple(tuple(a) for a in alphabets)
        if len(sites) != len(alphabets):
            raise InvalidParams("one alphabet per site required")
        if len(set(sites)) != len(sites):
            raise InvalidParams("site identifiers must be distinct")
        for a in alphabets:
            if not a:
                raise InvalidParams("alphabets must be nonempty")
            if len(set(a)) != len(a):
                raise InvalidParams("alphabet symbols must be distinct")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "alphabets", alphabets)
        # spaces key the per-space caches, so the hash is taken once
        object.__setattr__(self, "_hash", hash((sites, alphabets)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sites == other.sites and self.alphabets == other.alphabets

    def __hash__(self):
        return self._hash

    @classmethod
    def binary(cls, sites: Iterable) -> "SiteSpace":
        sites = tuple(sites)
        return cls(sites, tuple((0, 1) for _ in sites))

    @property
    def n(self) -> int:
        return len(self.sites)

    @cached_property
    def radices(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.alphabets)

    @cached_property
    def size(self) -> int:
        out = 1
        for r in self.radices:
            out *= r
        return out

    @cached_property
    def is_binary(self) -> bool:
        return all(r == 2 for r in self.radices)

    @cached_property
    def site_pos(self) -> dict:
        return {s: i for i, s in enumerate(self.sites)}

    @cached_property
    def index_weights(self) -> tuple[int, ...]:
        # mixed-radix place values, first site most significant
        w = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            w[i] = w[i + 1] * self.radices[i + 1]
        return tuple(w)

    def config_index(self, values: Sequence[int]) -> int:
        idx = 0
        for v, r in zip(values, self.radices):
            idx = idx * r + v
        return idx

    def values_at(self, index: int) -> tuple[int, ...]:
        out = []
        for r in reversed(self.radices):
            out.append(index % r)
            index //= r
        return tuple(reversed(out))

    def config(self, values: Sequence[int]) -> "Config":
        return Config(self, tuple(values))

    def config_at(self, index: int) -> "Config":
        return Config(self, self.values_at(index))

    def iter_configs(self) -> Iterator["Config"]:
        for i in range(self.size):
            yield self.config_at(i)

    @cached_property
    def value_masks(self) -> tuple[tuple[int, ...], ...]:
        """Entry [p][v]: the bitmask of configuration indices with value index
        v at position p. With place value w and radix r these form a run of w
        every r * w indices: one run times (2**size - 1) // (2**(r * w) - 1),
        which is 1 + 2**(r * w) + 2**(2 * r * w) + ..., as r * w divides size."""
        full = (1 << self.size) - 1
        out = []
        for w, r in zip(self.index_weights, self.radices):
            repeat = full // ((1 << (r * w)) - 1)
            out.append(tuple((((1 << w) - 1) << (v * w)) * repeat for v in range(r)))
        return tuple(out)

    @cached_property
    def agree_masks(self) -> tuple[tuple[int, ...], ...]:
        """Entry [u][v]: the bitmask of configuration indices with equal value
        indices at positions u and v, a union of value-mask intersections."""
        vm = self.value_masks
        return tuple(tuple(sum(x & y for x, y in zip(a, b)) for b in vm) for a in vm)

    @cached_property
    def disagree_masks(self) -> tuple[int, ...]:
        """Per position pair u < v: the configurations that differ at u and v."""
        full, agree = (1 << self.size) - 1, self.agree_masks
        return tuple(full ^ agree[u][v] for u in range(self.n) for v in range(u + 1, self.n))

    @cached_property
    def bit_steps(self) -> tuple[tuple[int, int, int], ...]:
        """Per position of a binary space: (place value, value-0 mask, value-1 mask)."""
        return tuple((w, *vm) for w, vm in zip(self.index_weights, self.value_masks))


class Config(Record):
    """A configuration: one alphabet index per site of its space."""

    space: SiteSpace
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.space.n:
            raise InvalidParams("one value per site required")
        for v, r in zip(self.values, self.space.radices):
            if not 0 <= v < r:
                raise InvalidParams(f"value index {v} outside alphabet of size {r}")

    @cached_property
    def index(self) -> int:
        return self.space.config_index(self.values)

    def symbols(self) -> tuple:
        return tuple(a[v] for a, v in zip(self.space.alphabets, self.values))

    def bar(self) -> "Config":
        """Pointwise symbol reversal within each site's alphabet order."""
        return Config(
            self.space,
            tuple(r - 1 - v for v, r in zip(self.values, self.space.radices)),
        )

    def __str__(self) -> str:
        return "".join(str(s) for s in self.symbols())


def _require_same_space(a: SiteSpace, b: SiteSpace) -> None:
    if a != b:
        raise SpaceMismatch("objects live on different spaces")


class Event(Record):
    """A subset of configurations, stored as a bitmask over indices."""

    space: SiteSpace
    mask: int

    def __init__(self, space: SiteSpace, mask: int):
        if not 0 <= mask < (1 << space.size):
            raise InvalidParams("event mask outside the space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)

    # the sublattice sweeps compare events: the mask first, spaces only when apart
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and (self.space is other.space or self.space == other.space)

    __hash__ = Record.__hash__

    @classmethod
    def empty(cls, space: SiteSpace) -> "Event":
        return cls(space, 0)

    @classmethod
    def full(cls, space: SiteSpace) -> "Event":
        return cls(space, (1 << space.size) - 1)

    @classmethod
    def from_indices(cls, space: SiteSpace, indices: Iterable[int]) -> "Event":
        m = 0
        for i in indices:
            m |= 1 << i
        return cls(space, m)

    @classmethod
    def from_configs(cls, space: SiteSpace, configs: Iterable[Config]) -> "Event":
        return cls.from_indices(space, (c.index for c in configs))

    @classmethod
    def from_predicate(cls, space: SiteSpace, pred: Callable[[Config], bool]) -> "Event":
        return cls.from_indices(space, (i for i in range(space.size) if pred(space.config_at(i))))

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def configs(self) -> Iterator[Config]:
        for i in self.indices():
            yield self.space.config_at(i)

    def contains_index(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def complement(self) -> "Event":
        return Event(self.space, ((1 << self.space.size) - 1) ^ self.mask)

    def __and__(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space)
        return Event(self.space, self.mask & other.mask)

    def __or__(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space)
        return Event(self.space, self.mask | other.mask)

    def is_subset(self, other: "Event") -> bool:
        _require_same_space(self.space, other.space)
        return not self.mask & ~other.mask

    def bar(self) -> "Event":
        """Image under pointwise symbol reversal (an involution).

        Value v becomes r - 1 - v at every position, and the place values
        times r - 1 sum to size - 1, so index i maps to size - 1 - i: the
        size-bit string of the mask, reversed."""
        return Event(self.space, _reversed_mask(self.mask, self.space.size))


def _reversed_mask(mask: int, size: int) -> int:
    """The size-bit string of mask, reversed: index i becomes size - 1 - i."""
    return int(format(mask, f"0{size}b")[::-1], 2)


def cylinder(omega: Config, region: Iterable) -> Event:
    """The cylinder [omega]_K: configurations agreeing with omega on K."""
    space = omega.space
    region = set(region)
    unknown = region - set(space.sites)
    if unknown:
        raise InvalidParams(f"unknown sites: {sorted(unknown, key=repr)}")
    positions = [p for p, s in enumerate(space.sites) if s in region]
    return Event(space, _cylinder_mask(space, positions, [omega.values[p] for p in positions]))


def _cylinder_mask(space: SiteSpace, positions: Iterable[int], values: Iterable[int]) -> int:
    """Bitmask of configurations carrying value index ``values[j]`` at
    position ``positions[j]`` for every j: an AND of value masks."""
    out = (1 << space.size) - 1
    for p, v in zip(positions, values):
        out &= space.value_masks[p][v]
    return out


@lru_cache(maxsize=16)  # the suites and the benchmark box on at most 2 spaces
def _cylinder_table(space: SiteSpace) -> tuple[tuple[int, ...], ...]:
    """Entry [index][kmask] is the cylinder mask of configuration ``index``
    on the positions set in ``kmask``.

    Size * 2^n masks, for the small spaces the occurrence layer boxes on;
    entry K of a row is entry K less its lowest position, cut by that
    position's value mask."""
    masks = space.value_masks
    table = []
    for i in range(space.size):
        single = [masks[p][v] for p, v in enumerate(space.values_at(i))]
        row = [(1 << space.size) - 1]
        for k in range(1, 1 << space.n):
            low = k & -k
            row.append(row[k ^ low] & single[low.bit_length() - 1])
        table.append(tuple(row))
    return tuple(table)


def enumerate_upsets(space: SiteSpace) -> tuple[Event, ...]:
    """All increasing events of a binary space, in ascending mask order.

    Built by the block recursion: an up-set on n sites is a pair (A, B) of
    up-sets on n-1 sites with A subset of B, where A is the first-site-0
    block and B the first-site-1 block. Counts follow the Dedekind numbers
    2, 3, 6, 20, 168, 7581, which is why the cap is UPSET_CAP = 5 sites.
    """
    if not space.is_binary:
        raise NonBinaryAlphabet("up-set enumeration requires binary alphabets")
    if space.n > UPSET_CAP:
        raise CapExceeded(f"|sites|={space.n} exceeds cap {UPSET_CAP}")
    masks = _upset_masks(space.n)
    return tuple(Event(space, m) for m in masks)


@lru_cache(maxsize=None)  # keyed on the site count n, at most UPSET_CAP + 1 entries in use
def _upset_masks(n: int) -> tuple[int, ...]:
    masks = [0, 1]
    for k in range(1, n + 1):
        half = 1 << (k - 1)
        prev = masks
        masks = sorted(
            a | (b << half)
            for a in prev
            for b in prev
            if not a & ~b
        )
    return tuple(masks)


class Measure(Record):
    """An exact probability vector over all configurations of a space;
    ``int_weights`` is (nums, den), the weights as integers over their lcm."""

    space: SiteSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(as_fraction(w) for w in self.weights))
        if len(self.weights) != self.space.size:
            raise InvalidParams("one weight per configuration required")
        nums, den = _common_denominator(self.weights)
        if any(x < 0 for x in nums):
            raise InvalidParams("weights must be nonnegative")
        if sum(nums) != den:
            raise InvalidParams("weights must sum to exactly 1")
        object.__setattr__(self, "int_weights", (nums, den))

    @classmethod
    def uniform(cls, space: SiteSpace) -> "Measure":
        w = Fraction(1, space.size)
        return cls(space, (w,) * space.size)

    @classmethod
    def uniform_on(cls, support: Event) -> "Measure":
        if support.count == 0:
            raise AllZero("support is empty")
        w = Fraction(1, support.count)
        return cls(
            support.space,
            tuple(w if support.contains_index(i) else Fraction(0) for i in range(support.space.size)),
        )

    def prob(self, event: Event) -> Fraction:
        _require_same_space(self.space, event.space)
        nums, den = self.int_weights
        return Fraction(sum(nums[i] for i in event.indices()), den)

    def is_symmetric(self) -> bool:
        """Invariance under pointwise symbol reversal of configurations,
        which maps index i to size - 1 - i (see ``Event.bar``)."""
        return self.weights == self.weights[::-1]


def _common_denominator(weights: Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """(nums, den): rationals as integer numerators over their lcm denominator."""
    den = lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (den // w.denominator) for w in weights), den


def normalize(space: SiteSpace, weights: Sequence[Rational]) -> Measure:
    """Scale a nonnegative weight vector to an exact probability vector."""
    nums, _ = _common_denominator([w if type(w) is int else as_fraction(w) for w in weights])
    if any(x < 0 for x in nums):
        raise InvalidParams("weights must be nonnegative")
    total = sum(nums)
    if total == 0:
        raise AllZero("cannot normalize an all-zero weight vector")
    return Measure(space, tuple(Fraction(x, total) for x in nums))


def sup_distance(p: Measure, q: Measure) -> Fraction:
    """Exact sup-norm distance max |x * d_q - y * d_p| / (d_p * d_q)."""
    _require_same_space(p.space, q.space)
    (xs, dp), (ys, dq) = p.int_weights, q.int_weights
    return Fraction(max(abs(x * dq - y * dp) for x, y in zip(xs, ys)), dp * dq)


def weight_summer(nums: Sequence[int], size: int) -> Callable[[int], int]:
    """Fast mask -> integer-weight-sum closure via byte lookup tables.

    Used by the exhaustive pair scans; exact because everything is int.
    """
    n_bytes = (size + 7) // 8
    padded = list(nums) + [0] * (n_bytes * 8 - size)
    tables = []
    for b in range(n_bytes):
        base = b * 8
        t = [0] * 256
        for m in range(1, 256):
            low = m & -m
            t[m] = t[m ^ low] + padded[base + low.bit_length() - 1]
        tables.append(t)
    if n_bytes == 1:
        t0 = tables[0]
        return lambda mask: t0[mask]

    def total(mask: int) -> int:
        s = 0
        for t in tables:
            s += t[mask & 255]
            mask >>= 8
        return s

    return total


class GuardedFields(Record):
    """A row of ``count`` nonnegative fields packed into one Python int.

    Field j is the ``nb`` bytes from byte ``nb * j`` on (little-endian), and
    the top bit of each field is a guard that no held value reaches. Setting
    every guard of one row and subtracting another row then compares all
    fields at once: a held value is below ``2**(8*nb - 1)``, so each field's
    difference stays inside its field, and its guard survives exactly where
    the first row is at least the second. The exhaustive pair scans compare
    one event with every other event this way (``association.is_pa``,
    ``occurrence.box_product_sweep``).
    """

    count: int
    nb: int

    @classmethod
    def holding(cls, count: int, bound: int) -> "GuardedFields":
        """Fields wide enough to hold values in [0, bound] below their guard."""
        return cls(count, (bound.bit_length() + 8) // 8)

    @property
    def bits(self) -> int:
        return 8 * self.nb

    def pack(self, values: Iterable[int]) -> int:
        """The row whose field j holds values[j]."""
        nb = self.nb
        return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in values), "little")

    def spread(self, unit: bytes) -> int:
        """The row whose field j holds the byte unit[j]."""
        buf = bytearray(len(unit) * self.nb)
        buf[:: self.nb] = unit
        return int.from_bytes(buf, "little")

    @cached_property
    def guard(self) -> int:
        return self.spread(b"\x80" * self.count) << (self.bits - 8)

    def below(self, lhs: int, rhs: int) -> int:
        """The guards of the fields where row lhs is below row rhs."""
        guard = self.guard
        return ~((lhs | guard) - rhs) & guard

    def indices(self, guards: int) -> Iterator[int]:
        """The fields whose guard is set in ``guards``, in ascending order."""
        while guards:
            low = guards & -guards
            yield low.bit_length() // self.bits - 1
            guards ^= low
