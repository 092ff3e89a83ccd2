"""rcfold benchmark: time to verdict per workload, per-layer times when traced.

    python3 bench/run.py --workload sample --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in this process
with ``jobs=1``, checks every operation's verdict, prints each metric with
its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` repeats passes over the seed's inputs within ``--seconds``, at
least three times, checks that every pass renders the same reports, and
reports the end-to-end metrics. ``--trace 1`` runs the inputs three times
(traced, plain, traced), checks that both traced passes give exactly equal
work counts, reports the per-layer metrics of the last traced pass, and
writes its spans to ``bench/out/``.

The benchmark imports ``rcfold`` from the ``src`` directory of the checkout
it sits in, and fails without printing a result when there is none.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH / "out"
if not (SRC / "rcfold" / "__init__.py").is_file():
    sys.exit(f"bench: no rcfold package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import rcfold  # noqa: E402

if Path(rcfold.__file__).resolve().parent != SRC / "rcfold":
    sys.exit(f"bench: imported rcfold from {rcfold.__file__}, not from {SRC}")

from tracer import COUNT_NAMES, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

# Setup is measured this many times per run and reported as the median.
SETUP_REPS = 9
# Passes repeat while another one fits in --seconds, but at least this often.
MIN_PASSES = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import rcfold; print(time.perf_counter() - t)"
)


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Time of the pass's calls; checking their verdicts is left out."""
        return sum(self.latencies)


def run_pass(ops, tracer: Tracer | None = None) -> PassResult:
    """Send the operations one after another; time each call, check its verdict."""
    result = PassResult()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        elapsed = None
        try:
            out = op.call()
            elapsed = perf_counter() - t0
            problem = None if op.verdict(out) == op.expect else f"verdict is not {op.expect}"
            if op.suite_row:
                result.texts.append(out[1])
        except Exception as exc:  # a raised exception is a failed operation
            problem = f"raised {type(exc).__name__}: {exc}"
        result.latencies.append(perf_counter() - t0 if elapsed is None else elapsed)
        if problem is not None:
            result.failures.append(f"{op.label}: {problem}")
    return result


def import_seconds() -> float:
    """Time of ``import rcfold`` in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout)


def measure_setup(workload: str, seed: int, size: str):
    """Median over SETUP_REPS of import time plus building the run's inputs."""
    samples = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        t0 = perf_counter()
        ops = build_ops(workload, seed, size)
        samples.append(imported + perf_counter() - t0)
    return statistics.median(samples), ops


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float, size: str):
    """Repeat passes over the same inputs within ``seconds``; median pass time
    and latency percentiles over every operation of every pass."""
    setup_s, ops = measure_setup(workload, seed, size)
    passes = []
    begin = perf_counter()
    while True:
        passes.append(run_pass(ops))
        if len(passes) >= MIN_PASSES and perf_counter() - begin + passes[-1].wall > seconds:
            break
        ops = build_ops(workload, seed, size)
    latencies = [x for p in passes for x in p.latencies]
    p90 = percentile(latencies, 90)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failures = [f for p in passes for f in p.failures]
    info = [
        f"operations {len(ops)}, passes {len(passes)}, latency samples {len(latencies)}, "
        f"{sum(x > p90 for x in latencies)} beyond p90",
        f"failed_ratio {len(failures) / len(latencies)} ratio ({len(failures)}/{len(latencies)})",
        f"report_sha256 {hashlib.sha256(''.join(passes[0].texts).encode()).hexdigest()}",
    ]
    consistent = all(p.texts == passes[0].texts for p in passes)
    if not consistent:
        info.append("reports differ between passes over the same inputs")
    return metrics, info, len(latencies), failures, consistent


def traced(workload: str, seed: int, size: str):
    """Traced, plain and traced passes over the same inputs; metrics of the last."""
    tracer = Tracer()
    ops = build_ops(workload, seed, size)
    with tracer.installed():
        first = run_pass(ops, tracer)
    first_counts = dict(tracer.counts)
    plain = run_pass(build_ops(workload, seed, size))
    tracer.reset()
    ops = build_ops(workload, seed, size)
    with tracer.installed():
        last = run_pass(ops, tracer)

    metrics = layer_metrics(tracer, last.wall, plain.wall)
    out = TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    tracer.write(out, {"workload": workload, "seed": seed, "wall_s": last.wall})
    info = [f"spans {len(tracer.spans)} written to {out}"]
    info += [
        f"share {layer} {metrics[layer + '.self_s'][0] / last.wall:.3f} self, "
        f"{metrics[busy_name(layer)][0] / last.wall:.3f} busy"
        for layer in LAYERS
    ]
    passes = (first, plain, last)
    failures = [f for p in passes for f in p.failures]
    repeatable = first_counts == dict(tracer.counts)
    if not repeatable:
        info.append(f"work counts differ between traced passes: {first_counts} != {dict(tracer.counts)}")
    return metrics, info, len(ops) * len(passes), failures, repeatable


def busy_name(layer: str) -> str:
    """The serialize layer's busy time is the time spent rendering reports."""
    return "serialize.render_s" if layer == "serialize" else f"{layer}.busy_s"


def layer_metrics(tracer: Tracer, wall: float, plain_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    layer = tracer.layer_metrics()
    counts = tracer.counts
    out = {}
    for name, value in layer.items():
        if name == "serialize.busy_s":
            name = busy_name("serialize")
        out[name] = (value, "s" if name.endswith("_s") else "count")
    for name in COUNT_NAMES:
        out[name] = (counts[name], "bytes" if name.endswith("bytes") else "count")
    ratios = {
        "generators.fallback_ratio": (counts["generators.fallbacks"], counts["generators.conditioned"], "ratio"),
        "association.pipeline.distinct_ratio": (
            counts["association.pipeline.distinct_limits"], counts["association.pipeline.branches"], "ratio"),
        "association.scan.pairs_per_s": (counts["association.scan.pairs"], layer["association.scan.busy_s"], "1/s"),
        "rcr.sublattice.subsets_per_s": (layer["rcr.sublattice.calls"], layer["rcr.sublattice.busy_s"], "1/s"),
    }
    for name, (num, den, unit) in ratios.items():
        out[name] = (num / den if den else 0.0, unit)
    own = sum(layer[f"{name}.self_s"] for name in LAYERS)
    out["trace.wall_s"] = (wall, "s")
    out["trace.coverage"] = (own / wall, "ratio")
    out["trace.overhead_ratio"] = (wall / plain_wall - 1, "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def main(argv=None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    print(
        f"env python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"git {git_revision()}, jobs 1, workload {args.workload}, seed {args.seed}, trace {args.trace}"
    )
    if args.trace:
        metrics, info, attempted, failures, consistent = traced(args.workload, args.seed, size)
    else:
        metrics, info, attempted, failures, consistent = end_to_end(args.workload, args.seed, args.seconds, size)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for line in info:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and consistent,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
