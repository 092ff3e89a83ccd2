"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import rcfold
import run
import tracer
import workloads
from tracer import HookMissing, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size="tiny") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_metric_with_its_unit(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    lines, result = tiny_run(capsys, workload, trace)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
        assert list(tmp_path.iterdir())
    else:
        assert any(line.startswith("failed_ratio 0.0 ratio") for line in lines)


def _raise():
    raise rcfold.RcfoldError("injected")


@pytest.mark.parametrize("fault", ["wrong verdict", "exception"])
def test_failed_operation_counts_toward_failed_ratio(capsys, monkeypatch, fault):
    build = run.build_ops

    def faulty(*args):
        ops = build(*args)
        if fault == "wrong verdict":
            ops[0].expect = not ops[0].expect
        else:
            ops[0].call = _raise
        return ops

    monkeypatch.setattr(run, "build_ops", faulty)
    lines, result = tiny_run(capsys, "certify", 0)
    attempted, failed = result["attempted"], result["failed"]
    passes = attempted // len(build("certify", 3, "tiny"))
    assert failed == passes >= 1 and not result["correct"]
    assert f"failed_ratio {failed / attempted} ratio ({failed}/{attempted})" in lines


def test_missing_hook_fails_loudly_and_restores_bindings(monkeypatch):
    original = rcfold.suites.is_na
    monkeypatch.setitem(tracer.HOOKS, ("rcfold.association", "is_gone"), ("association.scan", None))
    with pytest.raises(HookMissing):
        with Tracer().installed():
            pass
    assert rcfold.suites.is_na is original and rcfold.association.is_na is original


def test_installed_tracer_wraps_every_binding_and_restores_them():
    originals = (rcfold.is_na, rcfold.suites.is_na, rcfold.association.is_na)
    t = Tracer()
    with t.installed():
        assert rcfold.suites.is_na is rcfold.association.is_na is rcfold.is_na
        assert rcfold.is_na is not originals[0]
        rcfold.suites.run_suite("bk-sanity", rcfold.RunConfig(instances=1, only=1))
    assert (rcfold.is_na, rcfold.suites.is_na, rcfold.association.is_na) == originals
    layers = {span[0] for span in t.spans}
    assert {"suites", "generators", "occurrence.box_sweep"} <= layers
    assert t.counts["occurrence.box_sweep.pairs"] == 256 * 256


def test_fails_without_result_where_the_source_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, SPEC["command"][1], "--workload", WORKLOADS[0],
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""


def test_traced_runs_of_one_seed_count_the_same_work(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    counts = []
    for _ in range(2):
        _, result = tiny_run(capsys, "sample", 1)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1] and counts[0]["generators.fallbacks"] > 0


def test_sweep_request_checks_each_flag_against_cube_flags():
    op = next(op for op in workloads.build_ops("lattice", 3, "tiny") if op.label.startswith("check_sublattice"))
    flags = op.call()
    assert op.verdict(flags)
    flags[0] = dataclasses.replace(flags[0], sublattice=not flags[0].sublattice)
    assert not op.verdict(flags)
