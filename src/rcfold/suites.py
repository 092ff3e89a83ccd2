"""Reproducible verification suites with canonical JSON reports.

Each suite expands a seeded configuration into a deterministic list of
fully specified instances, runs them (optionally across worker processes,
which never changes the report bytes), and assembles a stable JSON report:
one row per instance or aggregate sweep, a summary, and an overall
verdict. Failing rows embed a reproduction command line. Wall-clock
timings are deliberately kept out of the report so identical runs are
byte-identical; ``rcfold suite`` prints the run's wall time to stderr.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iter_product

from .association import (
    _ulc_weights,
    fkg_theorem_pipeline,
    is_fkg,
    is_fkg_via_foldings,
    is_na,
    is_nfkg,
    is_snfkg,
    perturb,
    snfkg_limit_rcr,
)
from .errors import RcfoldError
from .folding import (
    FoldPath,
    FoldSpec,
    _convergence_checks,
    _first_fold_specs,
    essentialize,
    fold,
    fold_path,
)
from .generators import (
    binary_space,
    exchangeable_measure,
    random_fkg_measure,
    random_measure,
    random_nfkg_measure,
    random_product_measure,
)
from .measures import Event, Measure, Record, enumerate_upsets
from .occurrence import (
    box_product_sweep,
    check_disjoint_cluster_bound,
    check_folding_hypothesis_bound,
    increasing_decreasing_rule,
    rule_by_name,
)
from .parallel import pmap
from .rcr import (
    IsingSpec,
    _component_roots,
    check_sublattice,
    complete_pairing_base,
    induced_measure,
    ising_build,
    ising_measure,
    verify_rcr,
)
from .serialize import dumps_canonical, jsonable


class RunConfig(Record):
    """Knobs of a suite run; everything that affects the report is here."""

    seed: int = 7
    jobs: int = 1
    instances: int | None = None
    only: int | None = None

    def __post_init__(self):
        if self.seed < 0 or self.jobs < 1 or min(self.instances or 0, self.only or 0) < 0:
            raise RcfoldError("seed, instances and only must be nonnegative and jobs positive")


def _iseed(master: int, part: int, i: int) -> int:
    return (master * 1_000_003 + part * 7_919 + i) % (2**31 - 1)


def _repro(suite: str, cfg: RunConfig, row_id: int) -> str:
    cmd = f"rcfold suite {suite} --seed {cfg.seed} --only {row_id}"
    if cfg.instances is not None:
        cmd += f" --instances {cfg.instances}"
    return cmd


# ---------------------------------------------------------------------------
# row workers (top level so they pickle across worker processes)
# ---------------------------------------------------------------------------


def _run_row(spec):
    worker, args = spec
    return worker(*args)


def _fkg_pipeline_instance(n, seed):
    m = random_fkg_measure(n, seed)
    rep = fkg_theorem_pipeline(m)
    row = {
        "kind": "fkg-pipeline",
        "n": n,
        "seed": seed,
        "branches": rep.branches,
        "distinct_limits": rep.distinct_limits,
        "pa_pairs": rep.final.quantifier_log["pairs"],
        "ok": rep.ok,
    }
    if not rep.ok:
        row["failures"] = [jsonable(f) for f in rep.failures]
        if not rep.final.verdict:
            row["pa_witness"] = jsonable(rep.final.witness)
    return row


def _fkg_equiv_instance(n, seed):
    m = random_measure(n, seed)
    direct = is_fkg(m)
    folded = is_fkg_via_foldings(m)
    return {
        "kind": "lattice-equivalence",
        "n": n,
        "seed": seed,
        "direct": direct.verdict,
        "folded": folded.verdict,
        "ok": direct.verdict == folded.verdict,
    }


def _random_path(rng: random.Random, sites: tuple, length: int) -> FoldPath:
    steps = []
    remaining = list(sites)
    for _ in range(length):
        k = tuple(s for s in remaining if rng.getrandbits(1))
        alpha = tuple(rng.getrandbits(1) for _ in k)
        steps.append(FoldSpec(k, alpha))
        remaining = [s for s in remaining if s not in k]
    return FoldPath(tuple(steps))


def _reorder_instance(seed):
    m = random_measure(3, seed)
    rng = random.Random(seed ^ 0x5EED)
    path = _random_path(rng, m.space.sites, 4)
    left = fold_path(m, path)
    right = fold_path(m, essentialize(path))
    return {
        "kind": "essential-reorder",
        "seed": seed,
        "path": [list(s.k_sites) for s in path],
        "ok": left == right,
    }


def _converge_instance(n, seed):
    m = random_measure(n, seed)
    checks = 0
    ok = True
    detail = None
    tail_bound = Fraction(1, 10**9)
    for spec in _first_fold_specs(m.space):
        limit, stream = _convergence_checks(m, (spec,))
        last = None
        for i, r in zip(range(2, 8), stream):  # L = 1 for a length-1 prefix
            checks += 1
            if not r.ok:
                ok = False
                detail = {"prefix": jsonable(FoldPath((spec,))), "i": i, "distance": r.distance, "bound": r.bound}
                break
            last = r
        if not ok:
            break
        if limit.ratio <= Fraction(1, 2) and last is not None and last.distance >= tail_bound:
            ok = False
            detail = {"prefix": jsonable(FoldPath((spec,))), "tail_distance": last.distance}
            break
    row = {"kind": "convergence", "n": n, "seed": seed, "checks": checks, "ok": ok}
    if detail:
        row["detail"] = jsonable(detail)
    return row


def _ising_weights(n_edges: int, weighting: str) -> list[Fraction]:
    if weighting == "mixed":
        cycle = [Fraction(2), Fraction(3), Fraction(5, 2)]
        return [cycle[i % 3] for i in range(n_edges)]
    return [Fraction(weighting)] * n_edges


def _rcr_roundtrip_instance(v, edges, weighting):
    xs = _ising_weights(len(edges), weighting)
    spec = IsingSpec(tuple(range(1, v + 1)), tuple((u, w, x) for (u, w), x in zip(edges, xs)))
    build = ising_build(spec)  # internally cross-checks the cluster marginal
    rep_ok = verify_rcr(build.measure, build.base, 0).ok
    squared = IsingSpec(spec.vertices, tuple((u, w, x * x) for u, w, x in spec.edges))
    fold_ok = fold(build.measure, FoldSpec((), ())) == ising_measure(squared)
    return {
        "kind": "ising-roundtrip",
        "vertices": v,
        "edges": [list(e) for e in edges],
        "weighting": weighting,
        "represent_ok": rep_ok,
        "fold_squares_ok": fold_ok,
        "ok": rep_ok and fold_ok,
    }


def _sublattice_row(m):
    space = binary_space(m)
    total = 1 << space.size
    sublattices = 0
    qualifying = 0
    exceptions = 0
    for mask in range(total):
        try:
            flags = check_sublattice(Event(space, mask))
        except RcfoldError:
            exceptions += 1
            continue
        if flags.sublattice:
            sublattices += 1
            if flags.symmetric and flags.separates_points:
                qualifying += 1
                if not flags.equals_full:
                    exceptions += 1
    return {
        "kind": "sublattice-sweep",
        "m": m,
        "subsets": total,
        "sublattices": sublattices,
        "symmetric_separating": qualifying,
        "exceptions": exceptions,
        "ok": exceptions == 0,
    }


def _nfkg_instance(n, seed):
    m = random_nfkg_measure(n, seed)
    nfkg_ok = is_nfkg(m).verdict
    na = is_na(m)
    tilted = is_snfkg(perturb(m, Fraction(1, 8)))
    row = {
        "kind": "nfkg-na",
        "n": n,
        "seed": seed,
        "nfkg": nfkg_ok,
        "na": na.verdict,
        "tilt_snfkg": tilted.verdict,
        "ok": nfkg_ok and na.verdict and tilted.verdict,
    }
    if not na.verdict:
        row["na_witness"] = jsonable(na.witness)
    return row


def _ulc_chunk(n, start, chunk):
    ulc_count = 0
    failures = []
    for levels in chunk:
        if not _ulc_weights(levels):
            continue
        ulc_count += 1
        if not is_na(exchangeable_measure(n, levels)).verdict:
            failures.append(list(levels))
    return {
        "kind": "ulc-na",
        "n": n,
        "start": start,
        "checked": len(chunk),
        "ulc": ulc_count,
        "failures": failures,
        "ok": not failures,
    }


def _snfkg_instance(kind, n, seed):
    if kind == "perturbed":
        m = perturb(random_nfkg_measure(n, seed), Fraction(1, 8))
    else:
        m = induced_measure(complete_pairing_base(binary_space(n)))
    rep = snfkg_limit_rcr(m)
    row = {
        "kind": f"snfkg-{kind}",
        "n": n,
        "seed": seed,
        "branches": rep.branches,
        "distinct_limits": rep.distinct_limits,
        "na": rep.final.verdict,
        "ok": rep.ok,
    }
    if not rep.ok:
        row["failures"] = [jsonable(f) for f in rep.failures]
    return row


def _bk_instance(kind, seed):
    if kind == "uniform":
        m = Measure.uniform(binary_space(3))
    else:
        m = random_product_measure(3, random.Random(seed))
    res = box_product_sweep(m)
    return {
        "kind": f"box-product-{kind}",
        "seed": seed,
        "pairs": res["pairs"],
        "violations": len(res["violations"]),
        "ok": not res["violations"],
    }


_GRAPHS_232 = {
    "edge2": (2, ((1, 2),)),
    "path3": (3, ((1, 2), (2, 3))),
    "triangle3": (3, ((1, 2), (2, 3), (1, 3))),
}


def _cluster_bound_instance(graph_name):
    v, edges = _GRAPHS_232[graph_name]
    spec = IsingSpec(tuple(range(1, v + 1)), tuple((u, w, Fraction(2)) for u, w in edges))
    build = ising_build(spec)
    m, base = build.measure, build.base
    rule = increasing_decreasing_rule()
    ups = enumerate_upsets(m.space)
    downs = [u.complement() for u in ups]
    pairs = 0
    bad = None
    for a in ups:
        for b in downs:
            pairs += 1
            rep = check_disjoint_cluster_bound(m, base, rule, a, b, 0)
            if not rep.ok:
                bad = {"A": jsonable(a), "B": jsonable(b), "lhs": rep.lhs, "rhs": rep.rhs}
                break
        if bad:
            break
    row = {"kind": "cluster-bound", "graph": graph_name, "pairs": pairs, "ok": bad is None}
    if bad:
        row["witness"] = jsonable(bad)
    return row


def _hypothesis_instance(kind, n, seed, n_pairs, rule_names):
    rng = random.Random(seed)
    if kind == "product":
        m = random_product_measure(n, rng)
        size = m.space.size
        pair_list = [(a, b) for a in range(1 << size) for b in range(1 << size)]
    else:
        m = random_fkg_measure(n, seed)
        size = m.space.size
        full = (1 << size) - 1
        pair_list = [
            (rng.randrange(full + 1), rng.randrange(full + 1)) for _ in range(n_pairs)
        ]
    inconsistent = 0
    hyp_true = 0
    checked = 0
    for amask, bmask in pair_list:
        a, b = Event(m.space, amask), Event(m.space, bmask)
        for rule_name in rule_names:
            rep = check_folding_hypothesis_bound(m, rule_by_name(rule_name), a, b, 0)
            checked += 1
            if rep.hypothesis_ok:
                hyp_true += 1
            if not rep.consistent:
                inconsistent += 1
    return {
        "kind": f"folding-hypothesis-{kind}",
        "n": n,
        "seed": seed,
        "checked": checked,
        "hypothesis_held": hyp_true,
        "inconsistent": inconsistent,
        "ok": inconsistent == 0,
    }


# ---------------------------------------------------------------------------
# suite definitions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)  # keyed on vmax: the rcr-roundtrip suite asks for 3 or 4
def connected_graphs(vmax: int) -> tuple[tuple[int, tuple], ...]:
    """Labeled connected graphs on 1..vmax vertices, deterministic order."""
    out = []
    for v in range(1, vmax + 1):
        pool = list(combinations(range(1, v + 1), 2))
        for emask in range(1 << len(pool)):
            edges = tuple(pool[i] for i in range(len(pool)) if emask >> i & 1)
            if len(set(_component_roots(v, [(u - 1, w - 1) for u, w in edges]))) == 1:
                out.append((v, edges))
    return tuple(out)


def _assemble(suite: str, cfg: RunConfig, params: dict, specs) -> dict:
    """Run the rows ``specs`` names, each a (worker, args) pair, and build the
    report."""
    if cfg.only is not None and cfg.only >= len(specs):
        raise RcfoldError(f"{suite} has {len(specs)} rows; only={cfg.only} names none")
    ids = list(range(len(specs))) if cfg.only is None else [cfg.only]
    rows = pmap(_run_row, [specs[i] for i in ids], cfg.jobs)
    instances = []
    failed = 0
    for row_id, row in zip(ids, rows):
        row = {"id": row_id, **row}
        if not row.get("ok", False):
            failed += 1
            row["repro"] = _repro(suite, cfg, row_id)
        instances.append(row)
    return {
        "suite": suite,
        "seed": cfg.seed,
        "params": params,
        "instances": instances,
        "summary": {"total": len(instances), "failed": failed},
        "ok": failed == 0,
    }


def suite_fkg_pa(cfg: RunConfig) -> dict:
    n3 = cfg.instances if cfg.instances is not None else 500
    n4 = max(1, n3 // 5)
    neq = n3 * 4
    eq_sizes = [1, 2, 3]
    specs = [(_fkg_pipeline_instance, (3, _iseed(cfg.seed, 1, i))) for i in range(n3)]
    specs += [(_fkg_pipeline_instance, (4, _iseed(cfg.seed, 2, i))) for i in range(n4)]
    specs += [
        (_fkg_equiv_instance, (eq_sizes[i % 3], _iseed(cfg.seed, 3, i))) for i in range(neq)
    ]
    params = {"pipeline_n3": n3, "pipeline_n4": n4, "equivalence": neq}
    return _assemble("fkg-pa", cfg, params, specs)


def suite_folding_convergence(cfg: RunConfig) -> dict:
    n_reorder = cfg.instances if cfg.instances is not None else 200
    n_conv = max(1, n_reorder // 2)
    conv_sizes = [2, 3]
    specs = [(_reorder_instance, (_iseed(cfg.seed, 4, i),)) for i in range(n_reorder)]
    specs += [
        (_converge_instance, (conv_sizes[i % 2], _iseed(cfg.seed, 5, i))) for i in range(n_conv)
    ]
    params = {"reorder": n_reorder, "convergence": n_conv}
    return _assemble("folding-convergence", cfg, params, specs)


def suite_rcr_roundtrip(cfg: RunConfig) -> dict:
    vmax = 4 if cfg.instances is None or cfg.instances >= 38 else 3
    weightings = ["2", "3", "5/2", "mixed"]
    specs = [
        (_rcr_roundtrip_instance, (v, edges, w))
        for v, edges in connected_graphs(vmax)
        for w in weightings
    ]
    params = {"vmax": vmax, "weightings": weightings, "graphs": len(specs) // len(weightings)}
    return _assemble("rcr-roundtrip", cfg, params, specs)


def suite_sublattice(cfg: RunConfig) -> dict:
    mmax = 4 if cfg.instances is None or cfg.instances >= 4 else 3
    specs = [(_sublattice_row, (m,)) for m in range(mmax + 1)]
    return _assemble("sublattice", cfg, {"m_max": mmax}, specs)


def suite_nfkg_na(cfg: RunConfig) -> dict:
    count = cfg.instances if cfg.instances is not None else 200
    sizes = [1, 2, 3]
    specs = [(_nfkg_instance, (sizes[i % 3], _iseed(cfg.seed, 6, i))) for i in range(count)]
    ulc_ns = (3, 4, 5) if cfg.instances is None else (3,)
    chunk_size = 64
    for n in ulc_ns:
        level_vectors = list(iter_product(range(1, 5), repeat=n + 1))
        for start in range(0, len(level_vectors), chunk_size):
            chunk = tuple(level_vectors[start : start + chunk_size])
            specs.append((_ulc_chunk, (n, start, chunk)))
    params = {"nfkg": count, "ulc_ns": list(ulc_ns)}
    return _assemble("nfkg-na", cfg, params, specs)


def suite_snfkg_na(cfg: RunConfig) -> dict:
    count = cfg.instances if cfg.instances is not None else 100
    sizes = [1, 2, 3]
    specs = [
        (_snfkg_instance, ("perturbed", sizes[i % 3], _iseed(cfg.seed, 8, i)))
        for i in range(count)
    ]
    specs += [(_snfkg_instance, ("pairing", n, 0)) for n in (2, 3, 4)]
    params = {"perturbed": count, "pairing_ns": [2, 3, 4]}
    return _assemble("snfkg-na", cfg, params, specs)


def suite_bk_sanity(cfg: RunConfig) -> dict:
    count = cfg.instances if cfg.instances is not None else 3
    specs = [(_bk_instance, ("product", _iseed(cfg.seed, 9, i))) for i in range(count)]
    specs.append((_bk_instance, ("uniform", 0)))
    return _assemble("bk-sanity", cfg, {"products": count}, specs)


def suite_lemma_232(cfg: RunConfig) -> dict:
    specs = [(_cluster_bound_instance, (name,)) for name in _GRAPHS_232]
    return _assemble("lemma-232", cfg, {"graphs": list(_GRAPHS_232)}, specs)


def suite_lemma_233(cfg: RunConfig) -> dict:
    count = cfg.instances if cfg.instances is not None else 20
    sizes = [2, 3]
    rules = ("full", "increasing_only")
    specs = [
        (_hypothesis_instance, ("fkg", sizes[i % 2], _iseed(cfg.seed, 10, i), 12, rules))
        for i in range(count)
    ]
    specs.append((_hypothesis_instance, ("product", 2, _iseed(cfg.seed, 11, 0), 0, ("full",))))
    params = {"fkg_instances": count, "pairs_per_instance": 12, "rules": list(rules)}
    return _assemble("lemma-233", cfg, params, specs)


SUITES = {
    "fkg-pa": suite_fkg_pa,
    "snfkg-na": suite_snfkg_na,
    "nfkg-na": suite_nfkg_na,
    "rcr-roundtrip": suite_rcr_roundtrip,
    "folding-convergence": suite_folding_convergence,
    "bk-sanity": suite_bk_sanity,
    "lemma-232": suite_lemma_232,
    "lemma-233": suite_lemma_233,
    "sublattice": suite_sublattice,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name not in SUITES:
        raise RcfoldError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[name](cfg)


def render_report(report: dict) -> str:
    return dumps_canonical(report)
