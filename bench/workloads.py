"""The benchmark's four workloads, as lists of operations with expected verdicts.

An operation is one suite row, run through the documented single-row path
``run_suite(name, RunConfig(seed, jobs=1, instances=N, only=row_id))`` and
rendered with ``render_report``, or one library request: of the ``certify``
client, or a ``check_sublattice`` sweep request of the ``lattice`` workload.
The inputs of a run come from (workload, seed) alone.

The ``certify`` pool is built here, never with ``rcfold.generators``, so that
workload runs none of the generator layer's rejection sampling. Its expected
verdicts are theorems: log-supermodular measures are FKG, so their pipeline
certifies and they are PA; ``perturb`` of a product measure is strictly
negative (SNFKG), so its pipeline certifies; ULC exchangeable measures are NA.

Functions of ``rcfold`` are looked up when an operation runs, so a tracer that
patches the package's bindings sees every call.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import rcfold
from rcfold import suites

WORKLOADS = ("sample", "certify", "lattice", "occurrence")

# (suite, instances) per workload and size; None keeps the suite's own size.
# The mixes put p50 and p90 inside a cluster of similar operations rather
# than at a jump between two, where a shift of a few ranks moves them far.
SUITE_ROWS = {
    "full": {
        "sample": (("fkg-pa", 3), ("nfkg-na", 18), ("snfkg-na", 9)) * 2,
        "certify": (("folding-convergence", 24),),
        "lattice": (("sublattice", 3), ("rcr-roundtrip", None)),
        "occurrence": (("lemma-233", 24), ("lemma-232", None), ("bk-sanity", 72)),
    },
    "tiny": {
        "sample": (("fkg-pa", 1), ("nfkg-na", 3), ("snfkg-na", 3)),
        "certify": (("folding-convergence", 2),),
        "lattice": (("sublattice", 3), ("rcr-roundtrip", 3)),
        "occurrence": (("lemma-233", 1), ("lemma-232", None), ("bk-sanity", 1)),
    },
}

# (requests, subsets per request) of the lattice workload's m = 4 sweep. The
# sublattice suite checks all 65 536 subsets of the 4-cube in one row of about
# ten seconds; the same calls, split into short requests on a seeded sample of
# subsets, let a run repeat the pass often enough for medians. The requests
# outnumber the suite rows two to one and are slower than nearly all of them,
# so that p50 and p90 fall inside the requests' cluster.
SWEEP_SITES = 4
SWEEP_REQUESTS = {"full": (340, 128), "tiny": (2, 8)}

# (request, sites) -> requests per pass of the certify client.
CERTIFY_REQUESTS = {
    "full": {
        ("fkg_theorem_pipeline", 3): 8,
        ("fkg_theorem_pipeline", 4): 12,
        ("snfkg_limit_rcr", 3): 8,
        ("snfkg_limit_rcr", 4): 12,
        ("is_na", 5): 20,
        ("is_pa", 4): 24,
    },
    "tiny": {
        ("fkg_theorem_pipeline", 3): 1,
        ("fkg_theorem_pipeline", 4): 1,
        ("snfkg_limit_rcr", 3): 1,
        ("snfkg_limit_rcr", 4): 1,
        ("is_na", 5): 1,
        ("is_pa", 4): 1,
    },
}


@dataclass
class Op:
    """One operation: ``call`` does the work, ``verdict`` reads its outcome,
    and the operation succeeds when the verdict equals ``expect``. A suite
    row's ``call`` returns the report and its rendered text."""

    label: str
    call: Callable[[], object]
    verdict: Callable[[object], bool]
    expect: bool = True
    suite_row: bool = False


def build_ops(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The operations of one pass, in the order the single client sends them.

    Every call builds new objects from the same inputs, so no pass reuses a
    measure whose cached properties an earlier pass filled."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for name, instances in SUITE_ROWS[size][workload]:
        ops += suite_ops(name, rng.randrange(2**31), instances)
    if workload == "certify":
        ops += certify_ops(rng, CERTIFY_REQUESTS[size])
        rng.shuffle(ops)
    if workload == "lattice":
        requests, subsets = SWEEP_REQUESTS[size]
        ops += [sublattice_op(rng, subsets) for _ in range(requests)]
    return ops


def suite_rows(name: str, seed: int, instances: int | None) -> int:
    """Number of rows of a suite run, counted without running any of them.

    A report states no row count before its rows run, so the suite's own
    item list is counted with its ``pmap`` binding swapped for a counter.
    """
    counted = []

    def count_items(fn, items, jobs=1):
        counted.append(len(list(items)))
        return []

    saved = suites.pmap
    suites.pmap = count_items
    try:
        rcfold.run_suite(name, rcfold.RunConfig(seed=seed, jobs=1, instances=instances))
    finally:
        suites.pmap = saved
    if len(counted) != 1:
        raise RuntimeError(f"suite {name!r} no longer maps its rows through suites.pmap")
    return counted[0]


def suite_ops(name: str, seed: int, instances: int | None) -> list[Op]:
    cfg = {"seed": seed, "jobs": 1, "instances": instances}

    def op(row: int) -> Op:
        def call():
            report = rcfold.run_suite(name, rcfold.RunConfig(only=row, **cfg))
            return report, suites.render_report(report)

        def verdict(result) -> bool:
            rows = result[0]["instances"]
            return result[0]["ok"] and len(rows) == 1 and rows[0]["id"] == row and rows[0]["ok"]

        return Op(f"{name}#{row}", call, verdict, suite_row=True)

    return [op(row) for row in range(suite_rows(name, seed, instances))]


def certify_ops(rng: random.Random, requests: dict) -> list[Op]:
    ops = []
    for (request, n), count in requests.items():
        for _ in range(count):
            if request == "snfkg_limit_rcr":
                measure = rcfold.perturb(product_measure(n, rng), Fraction(1, 8))
            elif request == "is_na":
                measure = ulc_exchangeable(n, rng)
            else:
                measure = log_supermodular(n, rng)
            ops.append(_request(request, n, measure))
    return ops


def _request(request: str, n: int, measure) -> Op:
    def call():
        return getattr(rcfold, request)(measure)

    if request in ("is_na", "is_pa"):
        return Op(f"{request} n={n}", call, lambda report: report.verdict)
    return Op(f"{request} n={n}", call, lambda report: report.ok and report.branches > 0)


def sublattice_op(rng: random.Random, count: int) -> Op:
    """``check_sublattice`` on ``count`` subsets of the 4-cube drawn uniformly,
    each flag set compared with ``cube_flags``."""
    space = _space(SWEEP_SITES)
    masks = [rng.randrange(1 << space.size) for _ in range(count)]

    def call():
        return [rcfold.check_sublattice(rcfold.Event(space, mask)) for mask in masks]

    def verdict(flags) -> bool:
        return [(f.sublattice, f.symmetric, f.separates_points, f.equals_full) for f in flags] == [
            cube_flags(mask, SWEEP_SITES) for mask in masks
        ]

    return Op(f"check_sublattice m={SWEEP_SITES} x{count}", call, verdict)


def cube_flags(mask: int, n: int) -> tuple[bool, bool, bool, bool]:
    """Sublattice flags of a subset of {0,1}^n, computed on configuration
    indices: bit j of an index is one site, so join is OR, meet is AND and
    reversal is XOR with the top index."""
    members = [i for i in range(1 << n) if mask >> i & 1]
    top = (1 << n) - 1
    closed = all(mask >> (a | b) & 1 and mask >> (a & b) & 1 for a in members for b in members)
    symmetric = all(mask >> (top ^ a) & 1 for a in members)
    separates = bool(members) and all(
        any((a >> i ^ a >> j) & 1 for a in members) for i in range(n) for j in range(i)
    )
    return closed, symmetric, separates, mask == (1 << (1 << n)) - 1


def _space(n: int):
    return rcfold.SiteSpace.binary(range(1, n + 1))


def _bits(i: int, n: int) -> list[int]:
    return [i >> (n - 1 - j) & 1 for j in range(n)]


def log_supermodular(n: int, rng: random.Random):
    """Weights prod_i h_i^w_i * prod_{|S|>=2} c_S^[S in w] with integers
    h_i, c_S >= 1: log-supermodular, hence FKG. One c_S >= 2 makes the
    lattice condition strict on some pair, so the measure is not a product."""
    subsets = [s for k in range(2, n + 1) for s in combinations(range(n), k)]
    h = [rng.randint(1, 4) for _ in range(n)]
    c = {s: rng.randint(1, 3) for s in subsets}
    c[rng.choice(subsets)] = rng.randint(2, 3)
    weights = []
    for i in range(1 << n):
        bits = _bits(i, n)
        w = 1
        for j in range(n):
            if bits[j]:
                w *= h[j]
        for s, cs in c.items():
            if all(bits[j] for j in s):
                w *= cs
        weights.append(w)
    return rcfold.normalize(_space(n), weights)


def product_measure(n: int, rng: random.Random):
    """Independent sites with margins k/8, 1 <= k <= 7."""
    margins = [Fraction(rng.randint(1, 7), 8) for _ in range(n)]
    weights = []
    for i in range(1 << n):
        w = Fraction(1)
        for bit, m in zip(_bits(i, n), margins):
            w *= m if bit else 1 - m
        weights.append(w)
    return rcfold.Measure(_space(n), tuple(weights))


def ulc_exchangeable(n: int, rng: random.Random):
    """Exchangeable measure whose level weights p_k have nonincreasing ratios
    p_{k+1}/p_k, i.e. p_{k+1} p_{k-1} <= p_k^2: ultra-log-concave."""
    ratios = sorted((Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)), reverse=True)
    levels = [Fraction(1)]
    for r in ratios:
        levels.append(levels[-1] * r)
    return rcfold.exchangeable_from_levels(rcfold.ExchangeableLevels.from_weights(n, levels))
