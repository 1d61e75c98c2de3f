"""Command-line surface.

Exit codes: 0 = success / every applicable check holds; 1 = a verified
counterexample to a check (or an oracle/census mismatch); 2 = input or
usage error; 130 = interrupted by SIGINT (Ctrl-C) and 143 = ended by
SIGTERM, with no temporary catalog file left. No other codes are produced.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import (
    parse_nearring_file,
    serialize_nearring,
    stream_catalog,
    suite_report_json,
    write_census_reports,
)
from .census import (
    SearchSpec,
    brute_force_oracle,
    census,
    census_suite,
)
from .checks import run_suite, summarize_reports
from .core import (
    FLAG_TABLE,
    builtin,
    distributive_elements,
    ideals,
    units,
)
from .errors import InputError, NearringError
from .groups import build_group

# CLI filter spellings -> SearchSpec filter names
_CLI_FILTERS = {cli: key for key, _, cli in FLAG_TABLE}


def _group_from_arg(groupspec: str):
    """A CLI group spec: the name grammar, or a raw JSON table object."""
    if groupspec.lstrip().startswith("{"):
        try:
            obj = json.loads(groupspec)
        except json.JSONDecodeError as exc:
            raise InputError(f"group table is not valid JSON: {exc}") from exc
        return build_group(obj)
    return build_group(groupspec)


def _counts_table(counts: dict[str, int]) -> str:
    keys = ["total"] + [key for key, _, _ in FLAG_TABLE]
    return "\n".join(f"  {key.replace('_', ' '):<18} {counts[key]}" for key in keys)


def cmd_census(args) -> int:
    group = _group_from_arg(args.groupspec)
    filters = tuple(_CLI_FILTERS[f] for f in args.filter)
    spec = SearchSpec(group, filters=filters,
                      iso_reduction=not args.no_iso, worker_count=args.workers)
    out_path = args.out
    if out_path is None:
        out_path = f"census-{group.label()}.jsonl"
    result = stream_catalog(out_path, spec)
    if args.format == "json":
        payload = {
            "group": group.label(),
            "iso_reduction": result.iso_reduction,
            "filters": list(filters),
            "counts": result.counts,
            "catalog": out_path,
            "meta": {
                "nodes_visited": result.nodes_visited,
                "elapsed": round(result.elapsed, 6),
                "workers": result.workers,
            },
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        kind = "isomorphism classes" if result.iso_reduction else "raw tables"
        print(f"census of {group.label()} ({kind}, left-distributive convention)")
        print(_counts_table(result.counts))
        print(f"  catalog: {out_path}")
        print(f"  nodes visited {result.nodes_visited}, "
              f"elapsed {result.elapsed:.2f}s, workers {result.workers}")
    return 0


def cmd_check(args) -> int:
    r = parse_nearring_file(args.file)
    flags = r.flags
    ids = ideals(r)
    dist = distributive_elements(r)
    us = units(r) if r.identity is not None else None
    if args.format == "json":
        payload = {
            "name": r.name,
            "group": r.group.label(),
            "flags": flags.as_dict(),
            "identity": r.identity,
            "units": list(us) if us is not None else None,
            "ideals": [list(i) for i in ids],
            "distributive_elements": list(dist),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        names = r.group.names
        print(f"nearring {r.label()} on {r.group.label()} (order {r.order})")
        print(f"  zero-symmetric:   {'yes' if flags.zero_symmetric else 'no'}")
        print(f"  semidistributive: {'yes' if flags.semidistributive else 'no'}")
        print(f"  distributive:     {'yes' if flags.distributive else 'no'}")
        print(f"  abelian addition: {'yes' if flags.abelian_addition else 'no'}")
        ident = "none" if r.identity is None else names[r.identity]
        print(f"  identity:         {ident}")
        if us is not None:
            print(f"  units:            {{{', '.join(names[u] for u in us)}}}")
        print(f"  ideals:           {len(ids)}")
        for members in ids:
            print(f"    {{{', '.join(names[m] for m in members)}}}")
        print(f"  distributive elements: {{{', '.join(names[d] for d in dist)}}}")
    return 0


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        print(suite_report_json(report))
        return
    print(f"instance {report.instance}: {'pass' if report.overall else 'FAIL'}")
    for v in report.verdicts:
        if not v.applicable:
            status = "n/a "
        elif v.holds:
            status = "ok  "
        else:
            status = "FAIL"
        line = f"  [{status}] {v.check_id}"
        if v.notes and not v.applicable:
            line += f" ({v.notes})"
        print(line)
        if v.witness is not None:
            print(f"         witness: {json.dumps(v.witness, sort_keys=True)}")


def cmd_lemmas(args) -> int:
    if args.census:
        group = _group_from_arg(args.census)
        reports = census_suite(SearchSpec(group))
        if args.format == "json":
            summary = write_census_reports(sys.stdout, reports)
        else:
            summary = summarize_reports(reports)
            print(f"checked {summary['instances']} census instances on {group.label()}")
            print("  applicable instances per check:")
            for cid, count in summary["applicable"].items():
                print(f"    {cid:<24} {count}")
            for failure in summary["failures"]:
                print(f"  FAIL {failure['instance']}: {failure['check_id']}")
            print(f"  overall: {summary['overall']}")
        return 0 if summary["overall"] == "pass" else 1

    r = parse_nearring_file(args.file, permissive=True)
    report = run_suite(r)
    _print_report(report, args.format)
    return 0 if report.overall else 1


def cmd_example(args) -> int:
    r = builtin(args.name)
    print(serialize_nearring(r))
    return 0


def cmd_ideals(args) -> int:
    r = parse_nearring_file(args.file)
    ids = ideals(r)
    if args.format == "json":
        print(json.dumps({"ideals": [list(i) for i in ids],
                          "simple": len(ids) == 2}, sort_keys=True))
    else:
        names = r.group.names
        print(f"{len(ids)} ideal(s) of {r.label()}:")
        for members in ids:
            print(f"  {{{', '.join(names[m] for m in members)}}}")
    return 0


def cmd_oracle(args) -> int:
    group = _group_from_arg(args.groupspec)
    oracle = brute_force_oracle(group)
    searched = census(SearchSpec(group))
    same_counts = oracle.counts == searched.counts
    same_reps = oracle.representatives == searched.representatives
    if args.format == "json":
        print(json.dumps({
            "group": group.label(),
            "oracle_counts": oracle.counts,
            "census_counts": searched.counts,
            "counts_match": same_counts,
            "representatives_match": same_reps,
        }, sort_keys=True))
    else:
        print(f"oracle check on {group.label()}")
        print(f"  oracle counts: {oracle.counts}")
        print(f"  census counts: {searched.counts}")
        print(f"  counts match: {same_counts}, representatives match: {same_reps}")
    return 0 if (same_counts and same_reps) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearrings",
        description="Construct, validate, classify, and enumerate finite nearrings.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="enumerate all nearrings on a group")
    p.add_argument("groupspec", help='e.g. "S3", "Z6", "Z2xZ4", "D8", "Q8"')
    p.add_argument("--filter", action="append", default=[],
                   choices=sorted(_CLI_FILTERS), help="keep matching classes only")
    p.add_argument("--no-iso", action="store_true",
                   help="count raw tables instead of isomorphism classes")
    p.add_argument("--workers", type=int, default=1, metavar="K",
                   help="with K >= 2 and at least 2 usable CPUs, search in a forked "
                        "process while this one writes the classes (default 1)")
    p.add_argument("--out", metavar="PATH", help="catalog path (default census-<spec>.jsonl)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("check", help="classify a nearring file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("lemmas", help="run the verification suite")
    p.add_argument("file", nargs="?", help="nearring file (axiom violations are diagnosed, not rejected)")
    p.add_argument("--census", metavar="GROUPSPEC",
                   help="run over every census class of a group instead of a file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_lemmas)

    p = sub.add_parser("example", help="emit a builtin example nearring file")
    p.add_argument("name", help='"s3-paper", "map-z2", "zero:<groupspec>", "ring:Z<n>"')
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("ideals", help="list the ideals of a nearring file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_ideals)

    p = sub.add_parser("oracle", help="diff the exhaustive oracle against the census (order <= 7)")
    p.add_argument("groupspec")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_lemmas:
        if bool(args.file) == bool(args.census):
            parser.error("lemmas needs exactly one of <file> or --census <groupspec>")
    try:
        return args.fn(args)
    except (NearringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
