"""Command-line driver.

Subcommands mirror the library: ``gen`` writes measure files, ``fold`` and
``limit`` run the folding transform, ``rcr`` verifies and constructs
cluster bases, ``occurrence`` runs box operations and the two occurrence
bounds, ``check`` and ``pipeline`` run the association machinery, and
``suite`` runs a named reproducible batch. Exit status is 0 when the
requested verdict holds, 1 when it fails, 2 on a usage error and 3 when a
theorem-level self-check of the library fails (``InvariantViolated``, a
library bug). Usage errors include an input file that cannot be opened or
parsed (a rational with a zero denominator included), an ``--out`` file
that cannot be written, a non-integer RCFOLD_SEED, RCFOLD_JOBS or
RCFOLD_CAP_SITES, a ``gen`` number or ``--eps`` that does not parse, and
a suite ``--instances`` or ``--only`` that is negative or names no row. Flags
fall back to RCFOLD_* environment variables (RCFOLD_SEED, RCFOLD_JOBS,
RCFOLD_OUT, RCFOLD_CAP_SITES).
``--cap-sites`` caps the site count of every ``gen`` kind that takes
``--sites``, and can lower but not raise the 5-site cap of ``check pa|na``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .association import (
    fkg_theorem_pipeline,
    is_fkg,
    is_na,
    is_nfkg,
    is_pa,
    is_snfkg,
    is_ulc,
    levels_from_measure,
    snfkg_limit_rcr,
)
from .errors import CapExceeded, InvalidParams, InvariantViolated, RcfoldError
from .folding import branch_limit, fold_path
from .generators import (
    exchangeable_measure,
    ising_spec_from_edge_list,
    random_fkg_measure,
    random_nfkg_measure,
    uniform_subset_measure,
)
from .occurrence import (
    box_with_rule,
    check_disjoint_cluster_bound,
    check_folding_hypothesis_bound,
    rule_by_name,
)
from .rcr import construct_uniform_symmetric_rcr, ising_build, ising_measure, verify_rcr
from .serialize import (
    base_from_json,
    base_to_json,
    dumps_canonical,
    event_from_json,
    event_to_json,
    ising_from_json,
    ising_to_json,
    jsonable,
    limit_to_json,
    measure_from_json,
    measure_to_json,
    path_from_json,
)
from .suites import SUITES, RunConfig, run_suite


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    try:
        return int(raw) if raw else default
    except ValueError:
        raise InvalidParams(f"{name} must be an integer, got {raw!r}") from None


def _read(path: str, parse, *args):
    """Parse a JSON input file with ``parse``.

    A file that cannot be opened, is not JSON, or lacks a key or has a value
    of the wrong type is a usage error, like any other invalid input.
    """
    try:
        with open(path) as fh:
            return parse(json.load(fh), *args)
    except RcfoldError:
        raise
    except (OSError, LookupError, AttributeError, TypeError, ValueError) as exc:
        raise InvalidParams(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _emit(obj, out: str | None) -> None:
    """Write canonical JSON to the ``--out`` file, or to stdout without one;
    a file that cannot be written is a usage error."""
    text = dumps_canonical(obj)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParams(f"cannot write {out}: {type(exc).__name__}: {exc}") from exc


def _number(text: str, flag: str) -> Fraction:
    """A rational from the command line; a malformed one is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParams(f"{flag}: {text!r} is not a number") from None


def _parse_edges(text: str):
    """Edge list syntax: '1-2:2,2-3:5/2' (weight defaults to 2)."""
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        uv, _, x = part.partition(":")
        u, _, v = uv.partition("-")
        weight = _number(x, "--edges") if x else Fraction(2)
        u, v = u.strip(), v.strip()
        edges.append((int(u) if u.isdigit() else u, int(v) if v.isdigit() else v, weight))
    return edges


def _cmd_gen(args) -> int:
    if args.kind != "ising" and args.sites > args.cap_sites:
        raise CapExceeded(f"--sites {args.sites} exceeds cap {args.cap_sites}")
    if args.kind == "ising":
        spec = ising_spec_from_edge_list(_parse_edges(args.edges))
        measure = ising_measure(spec)
    elif args.kind == "exchangeable":
        levels = [_number(x, "--levels") for x in args.levels.split(",")]
        measure = exchangeable_measure(args.sites, levels)
    elif args.kind == "random_fkg":
        measure = random_fkg_measure(args.sites, args.seed)
    elif args.kind == "random_nfkg":
        measure = random_nfkg_measure(args.sites, args.seed)
    else:  # uniform_subset
        measure = uniform_subset_measure(args.sites, args.configs.split(","))
    _emit(measure_to_json(measure), args.out)
    return 0


def _cmd_fold(args) -> int:
    measure = _read(args.measure, measure_from_json)
    path = _read(args.path, path_from_json)
    _emit(measure_to_json(fold_path(measure, path)), args.out)
    return 0


def _cmd_limit(args) -> int:
    measure = _read(args.measure, measure_from_json)
    path = _read(args.path, path_from_json)
    _emit(limit_to_json(branch_limit(measure, path)), args.out)
    return 0


def _cmd_rcr(args) -> int:
    if args.rcr_cmd == "verify":
        measure = _read(args.measure, measure_from_json)
        base = _read(args.base, base_from_json)
        check = verify_rcr(measure, base, _number(args.eps, "--eps"))
        _emit({"max_dev": check.max_dev, "ok": check.ok}, args.out)
        return 0 if check.ok else 1
    if args.rcr_cmd == "construct":
        event = _read(args.event, event_from_json)
        base = construct_uniform_symmetric_rcr(event)
        _emit(base_to_json(base), args.out)
        return 0
    spec = _read(args.spec, ising_from_json)  # rcr ising
    build = ising_build(spec)
    _emit(
        {
            "measure": measure_to_json(build.measure),
            "base": base_to_json(build.base),
            "spec": ising_to_json(spec),
        },
        args.out,
    )
    return 0


def _cmd_occurrence(args) -> int:
    measure = _read(args.measure, measure_from_json) if args.measure else None
    a = _read(args.a, event_from_json, measure.space if measure else None)
    b = _read(args.b, event_from_json, a.space)
    rule = rule_by_name(args.rule)
    if args.occ_cmd == "box":
        _emit(event_to_json(box_with_rule(a, b, rule)), args.out)
        return 0
    eps = _number(args.eps, "--eps")
    if args.occ_cmd == "check-232":
        base = _read(args.base, base_from_json)
        rep = check_disjoint_cluster_bound(measure, base, rule, a, b, eps)
        _emit(jsonable(rep), args.out)
        return 0 if rep.ok else 1
    rep = check_folding_hypothesis_bound(measure, rule, a, b, eps)  # check-233
    _emit(jsonable(rep), args.out)
    return 0 if rep.consistent else 1


_CHECKS = {
    "fkg": is_fkg,
    "pa": is_pa,
    "na": is_na,
    "nfkg": is_nfkg,
    "snfkg": is_snfkg,
}


def _cmd_check(args) -> int:
    measure = _read(args.measure, measure_from_json)
    if args.predicate == "ulc":
        levels = levels_from_measure(measure)
        verdict = levels is not None and is_ulc(levels)
        report = {
            "verdict": verdict,
            "exchangeable": levels is not None,
            "levels": [w for w in levels.p] if levels else None,
        }
    else:
        fn = _CHECKS[args.predicate]
        if args.predicate in ("pa", "na"):
            rep = fn(measure, cap=args.cap_sites)
        else:
            rep = fn(measure)
        report = {
            "verdict": rep.verdict,
            "witness": rep.witness,
            "quantifier_log": rep.quantifier_log,
        }
    _emit(jsonable(report), args.out)
    return 0 if report["verdict"] else 1


def _cmd_pipeline(args) -> int:
    measure = _read(args.measure, measure_from_json)
    if args.pipeline == "fkg-theorem":
        rep = fkg_theorem_pipeline(measure)
    else:
        rep = snfkg_limit_rcr(measure)
    _emit(jsonable(rep), args.out)
    return 0 if rep.ok else 1


def _cmd_suite(args) -> int:
    cfg = RunConfig(
        seed=args.seed,
        jobs=args.jobs,
        instances=args.instances,
        only=args.only,
    )
    t0 = time.monotonic()
    report = run_suite(args.name, cfg)
    count, elapsed = len(report["instances"]), time.monotonic() - t0
    print(f"[{args.name}] {count} instances in {elapsed:.2f}s", file=sys.stderr)
    _emit(report, args.out)  # the bytes of render_report
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcfold",
        description="Exact folding, cluster-base, and association checks on finite product spaces.",
    )
    parser.add_argument("--seed", type=int, default=_env_int("RCFOLD_SEED", 7))
    parser.add_argument("--jobs", type=int, default=_env_int("RCFOLD_JOBS", 1))
    parser.add_argument("--cap-sites", type=int, default=_env_int("RCFOLD_CAP_SITES", 5))
    parser.add_argument("--out", default=os.environ.get("RCFOLD_OUT") or None)

    # the shared flags are also accepted after the subcommand; SUPPRESS keeps
    # a pre-subcommand value from being clobbered by the sub-level default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    common.add_argument("--cap-sites", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a measure file")
    p.add_argument("kind", choices=["ising", "exchangeable", "random_fkg", "random_nfkg", "uniform_subset"])
    p.add_argument("--sites", type=int, default=3)
    p.add_argument("--edges", default="1-2:2", help="edge list, e.g. 1-2:2,2-3:5/2")
    p.add_argument("--levels", default="1,2,1", help="per-level weights, e.g. 1,2,1")
    p.add_argument("--configs", default="", help="comma-separated 0/1 strings")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("fold", parents=[common], help="apply a fold path to a measure")
    p.add_argument("measure")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_fold)

    p = sub.add_parser("limit", parents=[common], help="branch limit after an essential prefix")
    p.add_argument("measure")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("rcr", help="cluster-base operations")
    rsub = p.add_subparsers(dest="rcr_cmd", required=True)
    q = rsub.add_parser("verify", parents=[common])
    q.add_argument("measure")
    q.add_argument("base")
    q.add_argument("--eps", default="0")
    q.set_defaults(fn=_cmd_rcr)
    q = rsub.add_parser("construct", parents=[common])
    q.add_argument("event")
    q.set_defaults(fn=_cmd_rcr)
    q = rsub.add_parser("ising", parents=[common])
    q.add_argument("spec")
    q.set_defaults(fn=_cmd_rcr)

    p = sub.add_parser("occurrence", help="box operations and occurrence bounds")
    osub = p.add_subparsers(dest="occ_cmd", required=True)
    q = osub.add_parser("box", parents=[common])
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--rule", default="full")
    q.add_argument("--measure")
    q.set_defaults(fn=_cmd_occurrence)
    q = osub.add_parser("check-232", parents=[common])
    q.add_argument("--measure", required=True)
    q.add_argument("--base", required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--rule", default="increasing_decreasing")
    q.add_argument("--eps", default="0")
    q.set_defaults(fn=_cmd_occurrence)
    q = osub.add_parser("check-233", parents=[common])
    q.add_argument("--measure", required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--rule", default="full")
    q.add_argument("--eps", default="0")
    q.set_defaults(fn=_cmd_occurrence)

    p = sub.add_parser("check", parents=[common], help="association predicates")
    p.add_argument("predicate", choices=["fkg", "pa", "na", "nfkg", "snfkg", "ulc"])
    p.add_argument("measure")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("pipeline", parents=[common], help="end-to-end association pipelines")
    p.add_argument("pipeline", choices=["fkg-theorem", "snfkg-rcr"])
    p.add_argument("measure")
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("suite", parents=[common], help="run a reproducible verification suite")
    p.add_argument("name", choices=sorted(SUITES))
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--only", type=int, default=None)
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InvariantViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RcfoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
