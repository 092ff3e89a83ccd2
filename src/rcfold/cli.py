"""Command-line driver.

Subcommands mirror the library: ``gen`` writes measure files, ``fold`` and
``limit`` run the folding transform, ``rcr`` verifies and constructs
cluster bases, ``occurrence`` runs box operations and the two occurrence
bounds, ``check`` and ``pipeline`` run the association machinery, and
``suite`` runs a named reproducible batch. Each command takes only the
shared options it reads, after its name, and each option falls back to an
environment variable that only those commands read:

- ``--out`` (RCFOLD_OUT): every command; without it the output goes to stdout;
- ``--seed`` (RCFOLD_SEED, default 7): ``gen random_fkg|random_nfkg`` and ``suite``;
- ``--jobs`` (RCFOLD_JOBS, default 1): ``suite``;
- ``--cap-sites`` (RCFOLD_CAP_SITES, default 5): the ``gen`` kinds that take
  ``--sites`` (all but ``ising``), and ``check pa|na``, whose 5-site cap it
  can lower but not raise.

Exit status is 0 when the requested verdict holds, 1 when it fails, 2 on a
usage error and 3 when a theorem-level self-check of the library fails
(``InvariantViolated``, a library bug). Usage errors include an option the
command does not take or that comes before the command, an input file that
cannot be opened or parsed (a rational with a zero denominator included),
an ``--out`` file that cannot be written, an integer option or its variable
that is not an integer, a ``gen`` number or ``--edges`` item that does not
parse, an ``--eps`` that does not parse or is negative, and a suite
``--instances`` or ``--only`` that is negative or names no row.
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
    dumps_canonical,
    event_from_json,
    ising_from_json,
    ising_to_json,
    measure_from_json,
    path_from_json,
)
from .suites import SUITES, RunConfig, run_suite


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
    """Write ``obj`` as canonical JSON (``dumps_canonical``, which converts
    package objects) to the ``--out`` file, or to stdout without one; a file
    that cannot be written is a usage error."""
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
    """Edge list syntax: '1-2:2,2-3:5/2'. Each item is U-V or U-V:W, with
    nonempty vertices U and V and the weight W defaulting to 2."""
    edges = []
    for part in text.split(","):
        uv, colon, x = part.partition(":")
        ends = [e.strip() for e in uv.split("-")]
        if len(ends) != 2 or not all(ends):
            raise InvalidParams(f"--edges: {part.strip()!r} is not U-V or U-V:W")
        weight = _number(x, "--edges") if colon else Fraction(2)
        u, v = (int(e) if e.isdigit() else e for e in ends)
        edges.append((u, v, weight))
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
    _emit(measure, args.out)
    return 0


def _cmd_fold(args) -> int:
    measure = _read(args.measure, measure_from_json)
    path = _read(args.path, path_from_json)
    _emit(fold_path(measure, path), args.out)
    return 0


def _cmd_limit(args) -> int:
    measure = _read(args.measure, measure_from_json)
    path = _read(args.path, path_from_json)
    _emit(branch_limit(measure, path), args.out)
    return 0


def _cmd_rcr(args) -> int:
    if args.rcr_cmd == "verify":
        measure = _read(args.measure, measure_from_json)
        base = _read(args.base, base_from_json)
        check = verify_rcr(measure, base, _number(args.eps, "--eps"))
        _emit(check, args.out)  # max_dev, ok
        return 0 if check.ok else 1
    if args.rcr_cmd == "construct":
        _emit(construct_uniform_symmetric_rcr(_read(args.event, event_from_json)), args.out)
        return 0
    spec = _read(args.spec, ising_from_json)  # rcr ising
    build = ising_build(spec)
    _emit({"measure": build.measure, "base": build.base, "spec": ising_to_json(spec)}, args.out)
    return 0


def _cmd_occurrence(args) -> int:
    measure = _read(args.measure, measure_from_json) if args.measure else None
    a = _read(args.a, event_from_json, measure.space if measure else None)
    b = _read(args.b, event_from_json, a.space)
    rule = rule_by_name(args.rule)
    if args.occ_cmd == "box":
        _emit(box_with_rule(a, b, rule), args.out)
        return 0
    eps = _number(args.eps, "--eps")
    if args.occ_cmd == "check-232":
        base = _read(args.base, base_from_json)
        rep = check_disjoint_cluster_bound(measure, base, rule, a, b, eps)
        _emit(rep, args.out)
        return 0 if rep.ok else 1
    rep = check_folding_hypothesis_bound(measure, rule, a, b, eps)  # check-233
    _emit(rep, args.out)
    return 0 if rep.consistent else 1


def _cmd_check(args) -> int:
    measure = _read(args.measure, measure_from_json)
    if "cap_sites" in args and measure.space.n > args.cap_sites:  # check pa|na
        raise CapExceeded(f"|sites|={measure.space.n} exceeds cap {args.cap_sites}")
    rep = args.check(measure)
    _emit(rep, args.out)  # verdict, witness, quantifier_log
    return 0 if rep.verdict else 1


def _cmd_ulc(args) -> int:
    levels = levels_from_measure(_read(args.measure, measure_from_json))
    verdict = levels is not None and is_ulc(levels)
    report = {
        "verdict": verdict,
        "exchangeable": levels is not None,
        "levels": list(levels.p) if levels else None,
    }
    _emit(report, args.out)
    return 0 if verdict else 1


def _cmd_pipeline(args) -> int:
    rep = args.pipeline(_read(args.measure, measure_from_json))
    _emit(rep, args.out)
    return 0 if rep.ok else 1


def _cmd_suite(args) -> int:
    cfg = RunConfig(seed=args.seed, jobs=args.jobs, instances=args.instances, only=args.only)
    t0 = time.monotonic()
    report = run_suite(args.name, cfg)
    count, elapsed = len(report["instances"]), time.monotonic() - t0
    print(f"[{args.name}] {count} instances in {elapsed:.2f}s", file=sys.stderr)
    _emit(report, args.out)  # the bytes of render_report
    return 0 if report["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: one ``error:`` line
    and exit 2, like every other malformed input."""

    def error(self, message):
        raise InvalidParams(f"{self.prog}: {message}")


def _option(flag: str, env: str, default, type=str) -> argparse.ArgumentParser:
    """A one-option parent parser: ``flag``, else ``$env``, else ``default``.

    argparse converts a string default with ``type`` only in a parser that
    owns the option, so a malformed ``$env`` is an error of exactly the
    commands that take ``flag``."""

    def convert(text):
        try:
            return type(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r} (from the option or {env})")

    parent = _Parser(add_help=False)
    help = f"default: ${env}, else {default or 'stdout'}"
    parent.add_argument(flag, type=convert, default=os.environ.get(env) or default, help=help)
    return parent


def build_parser() -> argparse.ArgumentParser:
    out = _option("--out", "RCFOLD_OUT", None)
    seed = _option("--seed", "RCFOLD_SEED", 7, int)
    jobs = _option("--jobs", "RCFOLD_JOBS", 1, int)
    cap = _option("--cap-sites", "RCFOLD_CAP_SITES", 5, int)
    sites = _Parser(add_help=False)
    sites.add_argument("--sites", type=int, default=3)

    def leaf(group, name, fn, *parents, help=None, **defaults):
        p = group.add_parser(name, parents=[out, *parents], help=help)
        p.set_defaults(fn=fn, **defaults)
        return p

    def group(parent, name, dest, **kwargs):
        return parent.add_parser(name, **kwargs).add_subparsers(dest=dest, required=True)

    parser = _Parser(
        prog="rcfold",
        description="Exact folding, cluster-base, and association checks on finite product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = group(sub, "gen", "kind", help="generate a measure file")
    p = leaf(gen, "ising", _cmd_gen)
    p.add_argument("--edges", default="1-2:2", help="edge list, e.g. 1-2:2,2-3:5/2")
    p = leaf(gen, "exchangeable", _cmd_gen, cap)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--levels", required=True, help="per-level weights, e.g. 1,2,1")
    leaf(gen, "random_fkg", _cmd_gen, cap, sites, seed)
    leaf(gen, "random_nfkg", _cmd_gen, cap, sites, seed)
    p = leaf(gen, "uniform_subset", _cmd_gen, cap, sites)
    p.add_argument("--configs", required=True, help="comma-separated 0/1 strings")

    p = leaf(sub, "fold", _cmd_fold, help="apply a fold path to a measure")
    p.add_argument("measure")
    p.add_argument("path")
    p = leaf(sub, "limit", _cmd_limit, help="branch limit after an essential prefix")
    p.add_argument("measure")
    p.add_argument("path")

    rcr = group(sub, "rcr", "rcr_cmd", help="cluster-base operations")
    p = leaf(rcr, "verify", _cmd_rcr)
    p.add_argument("measure")
    p.add_argument("base")
    p.add_argument("--eps", default="0")
    leaf(rcr, "construct", _cmd_rcr).add_argument("event")
    leaf(rcr, "ising", _cmd_rcr).add_argument("spec")

    occ = group(sub, "occurrence", "occ_cmd", help="box operations and occurrence bounds")
    p = leaf(occ, "box", _cmd_occurrence)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--rule", default="full")
    p.add_argument("--measure")
    p = leaf(occ, "check-232", _cmd_occurrence)
    p.add_argument("--measure", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--rule", default="increasing_decreasing")
    p.add_argument("--eps", default="0")
    p = leaf(occ, "check-233", _cmd_occurrence)
    p.add_argument("--measure", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--rule", default="full")
    p.add_argument("--eps", default="0")

    check = group(sub, "check", "predicate", help="association predicates")
    for name, fn in (("fkg", is_fkg), ("nfkg", is_nfkg), ("snfkg", is_snfkg)):
        leaf(check, name, _cmd_check, check=fn).add_argument("measure")
    for name, fn in (("pa", is_pa), ("na", is_na)):
        leaf(check, name, _cmd_check, cap, check=fn).add_argument("measure")
    leaf(check, "ulc", _cmd_ulc).add_argument("measure")

    pipelines = group(sub, "pipeline", "name", help="end-to-end association pipelines")
    for name, fn in (("fkg-theorem", fkg_theorem_pipeline), ("snfkg-rcr", snfkg_limit_rcr)):
        leaf(pipelines, name, _cmd_pipeline, pipeline=fn).add_argument("measure")

    p = leaf(sub, "suite", _cmd_suite, seed, jobs, help="run a reproducible verification suite")
    p.add_argument("name", choices=sorted(SUITES))
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--only", type=int, default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            flag = argv[0].partition("=")[0]
            raise InvalidParams(f"rcfold: {flag} is before the command; options go after the command")
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
