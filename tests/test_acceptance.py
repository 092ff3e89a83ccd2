"""Acceptance gate: every criterion at its stated size and tolerance.

All arithmetic is exact; every tolerance below is zero unless a numeric
threshold is spelled out (the convergence tail). Each test prints one
PASS/FAIL line; run with `pytest tests/test_acceptance.py -s` to see them.
"""
import hashlib

import pytest

from rcfold.suites import SUITES, RunConfig, render_report, run_suite

SEED = 7

_cache = {}


def report(name, **kw):
    key = (name, tuple(sorted(kw.items())))
    if key not in _cache:
        _cache[key] = run_suite(name, RunConfig(seed=SEED, jobs=1, **kw))
    return _cache[key]


def announce(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def rows(rep, kind):
    return [r for r in rep["instances"] if r["kind"] == kind]


def test_criterion_01_fkg_implies_pa():
    rep = report("fkg-pa")
    pipe = rows(rep, "fkg-pipeline")
    n3 = [r for r in pipe if r["n"] == 3]
    n4 = [r for r in pipe if r["n"] == 4]
    ok = (
        len(n3) == 500
        and len(n4) == 100
        and all(r["ok"] for r in pipe)
        and all(r["pa_pairs"] == 400 for r in n3)
        and all(r["pa_pairs"] == 28224 for r in n4)
    )
    announce(1, "500 seeded n=3 and 100 n=4 lattice-condition measures are PA, exhaustively", ok)


def test_criterion_02_pipeline_realization():
    rep = report("fkg-pa")
    pipe = rows(rep, "fkg-pipeline")
    ok = all(r["ok"] and "failures" not in r for r in pipe) and all(
        r["branches"] > 0 for r in pipe
    )
    announce(2, "every essential-branch limit certified by its exact symmetric ferromagnetic pair base", ok)


def test_criterion_03_lattice_condition_equivalence():
    rep = report("fkg-pa")
    eq = rows(rep, "lattice-equivalence")
    ok = len(eq) == 2000 and all(r["ok"] for r in eq)
    announce(3, "direct and folded lattice-condition verdicts agree on 2000 seeded measures", ok)


def test_criterion_04_essential_reordering():
    rep = report("folding-convergence")
    rr = rows(rep, "essential-reorder")
    ok = len(rr) == 200 and all(r["ok"] for r in rr)
    announce(4, "reordered fold paths reproduce the folded measure exactly on 200 instances", ok)


def test_criterion_05_convergence_bound():
    rep = report("folding-convergence")
    cv = rows(rep, "convergence")
    ok = len(cv) == 100 and all(r["ok"] for r in cv)
    announce(5, "iterates stay within the branch bound for i = L+1..L+6, tail below 1e-9", ok)


def test_criterion_06_ising_round_trip():
    rep = report("rcr-roundtrip")
    rr = rows(rep, "ising-roundtrip")
    graphs = {(r["vertices"], tuple(map(tuple, r["edges"]))) for r in rr}
    ok = (
        len(graphs) == 44  # labeled connected graphs on up to 4 vertices
        and len(rr) == 176
        and all(r["ok"] for r in rr)
    )
    announce(6, "edge bases reproduce agreement measures exactly; empty fold squares the weights", ok)


def test_criterion_07_sublattice_lemma():
    rep = report("sublattice")
    rr = rows(rep, "sublattice-sweep")
    by_m = {r["m"]: r for r in rr}
    ok = (
        set(by_m) == {0, 1, 2, 3, 4}
        and by_m[4]["subsets"] == 65536
        and all(r["ok"] for r in rr)
    )
    announce(7, "no proper symmetric point-separating sublattice exists up to four coordinates", ok)


def test_criterion_08_negative_conditions_imply_na():
    rep = report("nfkg-na")
    nn = rows(rep, "nfkg-na")
    strict = report("snfkg-na")
    ok = (
        len(nn) == 200
        and all(r["ok"] for r in nn)
        and all(r["na"] and r["tilt_snfkg"] for r in nn)
        and strict["ok"]
    )
    announce(8, "200 weak-negative instances are NA and tilt to the strict condition; strict pipeline certifies", ok)


def test_criterion_09_log_concave_exchangeable_na():
    rep = report("nfkg-na")
    uu = rows(rep, "ulc-na")
    by_n = {}
    for r in uu:
        agg = by_n.setdefault(r["n"], {"checked": 0, "ulc": 0, "ok": True})
        agg["checked"] += r["checked"]
        agg["ulc"] += r["ulc"]
        agg["ok"] = agg["ok"] and r["ok"]
    ok = (
        set(by_n) == {3, 4, 5}
        and all(by_n[n]["checked"] == 4 ** (n + 1) for n in (3, 4, 5))
        and all(by_n[n]["ulc"] > 0 for n in (3, 4, 5))
        and all(by_n[n]["ok"] for n in (3, 4, 5))
    )
    announce(9, "every log-concave exchangeable level vector over {1..4} is NA for n = 3, 4, 5", ok)


def test_criterion_10_box_and_cluster_bounds():
    bk = report("bk-sanity")
    cb = report("lemma-232")
    prod_rows = bk["instances"]
    three_site = [r for r in cb["instances"] if r["graph"] in ("path3", "triangle3")]
    ok = (
        bk["ok"]
        and all(r["pairs"] == 65536 for r in prod_rows)
        and cb["ok"]
        and len(three_site) == 2
        and all(r["pairs"] == 400 for r in three_site)
    )
    announce(10, "box probabilities stay below products on independent measures; cluster bound sweeps pass", ok)


def test_criterion_11_determinism_across_workers():
    ok = True
    for name in sorted(SUITES):
        texts = set()
        for jobs in (1, 4, 8):
            cfg = RunConfig(seed=SEED, jobs=jobs, instances=3)
            texts.add(render_report(SUITES[name](cfg)))
        if len(texts) != 1:
            ok = False
            break
    announce(11, "all nine suites render byte-identical reports across 1, 4, and 8 workers", ok)


def test_criterion_extra_meta_implication():
    # the folding-hypothesis suite: hypothesis at zero slack never holds
    # while the product conclusion fails
    rep = report("lemma-233")
    ok = rep["ok"]
    announce("M", "per-folding hypothesis implies the product bound on every checked instance", ok)


# SHA-256 of each suite's report at seed 7, jobs 1, 3 instances. A change
# meant to keep behaviour must keep these bytes; a change that alters a
# report on purpose updates the constant and says why.
REPORT_SHA256 = {
    "bk-sanity": "6cb9b5fa48edf7c5178268ba3771e8d97fb52e9b1503658ee675e1a06a1da6d3",
    "fkg-pa": "87bb25aa1e7cf0c33661ff019a68af846715771ef96a7bc1c90b42d20a704e43",
    "folding-convergence": "a9744bea8029a9159f1a3ea7e3dcd15c7516f5c61c1820bbeb6d413586712fd6",
    "lemma-232": "dc893165f12da9ee76ec408a2e3aab0bc42d13e616a9c0986b3f561fb2eee372",
    "lemma-233": "2fa887c2abe9ce074c8155422da395e25ab5537f99f5f8e23e495c93a3477106",
    "nfkg-na": "d35f4b9131f66c32fa659e280a6d7c4fac19ea6a865012de4a38cc53dee1ced3",
    "rcr-roundtrip": "d723d53adc678eb17351e9939f89f42edd31eb7b9bf2de96e2515df61502e8cf",
    "snfkg-na": "0562b2bc63276bfab363ecac18390d5e4dec9eb68e167af720734da3c19866da",
    "sublattice": "d7903a64892e34c45399b3c66e7a4736769777ccde2e2d196ef3bf24371bf65e",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_pinned(name):
    text = render_report(report(name, instances=3))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


# SHA-256 of the full-size lemma-233 report: seed 7, jobs 1, its default 20
# instances. The bk-sanity and lemma-232 constants above already pin their
# full-size reports, since bk-sanity defaults to 3 products and lemma-232
# takes no instance count.
LEMMA_233_FULL_SHA256 = "6db4eefc0b1c6cca06e0b18672e3ffb4bac3c0bfe9546622abab3deeef6e30fa"


def test_full_size_lemma_233_report_pinned():
    text = render_report(report("lemma-233"))
    assert hashlib.sha256(text.encode()).hexdigest() == LEMMA_233_FULL_SHA256


# SHA-256 of the full-size reports of the suites that criteria 4-7 run: seed
# 7, jobs 1, their default sizes.
FULL_SHA256 = {
    "folding-convergence": "8df9ad5364a17026e8f9c261ff492c72cb4253d2ef4ba551aabf64c804d2822e",
    "rcr-roundtrip": "839e04d2d65139d78147324d23b1e96d7cdc2f5c91ba7dd2d1da163ea95ccf5d",
    "sublattice": "d607e70e06a0359a60f38e9d4e61ad70d761fe0d7fdd882ded8c570f94e74e5b",
}


@pytest.mark.parametrize("name", sorted(FULL_SHA256))
def test_full_size_report_pinned(name):
    text = render_report(report(name))
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_SHA256[name]
