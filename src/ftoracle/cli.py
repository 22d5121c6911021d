"""Command line front end.

Exit codes: 0 success, 1 verification found a violation, 2 bad usage or
invalid input.  Apart from measured wall times (sent to stderr by build),
output for fixed inputs and seeds is byte-identical across runs.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .generate import gen_gnm
from .graph import Graph, GraphError, parse_graph
from .hitset import QueryStats
from .oraclefile import OracleFileError, load_oracle, save_oracle
from .query import QueryError, build_oracle
from .reference import GuardError, verify_instance
from .spindex import TieBreakError
from .tables import BuildError, PaletteError
from .version import __version__

USAGE_ERRORS = (GraphError, QueryError, OracleFileError, PaletteError, BuildError,
                TieBreakError, OSError)


def _read_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _progress(done: int, total: int) -> None:
    step = max(1, total // 20)
    if done % step == 0 or done == total:
        print(f"progress: {done}/{total} roots", file=sys.stderr)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_build(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    t0 = time.perf_counter()
    oracle = build_oracle(graph, args.d, seed=args.seed, progress=_progress)
    elapsed = time.perf_counter() - t0
    save_oracle(oracle, args.output)
    print(f"entries {oracle.tables.entry_count}")
    print(f"build time: {elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    oracle = load_oracle(args.oracle)
    failed = []
    for pair in args.fail:
        try:
            a, b = (int(x) for x in pair.split("-"))
        except ValueError:
            raise QueryError(f"bad --fail value {pair!r}, expected 'a-b'") from None
        failed.append(oracle.graph.edge_id(a, b))
    stats = QueryStats()
    length = oracle.query_composite(args.source, args.target, failed,
                                    stats=stats)
    if args.json:
        print(json.dumps({
            "source": args.source,
            "target": args.target,
            "failed_edges": sorted(set(failed)),
            "distance": None if length.is_unreachable else length.true_len,
            "unreachable": length.is_unreachable,
            "lookups": stats.lookups,
            "case_three_calls": stats.case_three_calls,
            "recursion_depth": stats.max_depth,
            "max_hits": stats.max_hits,
            "memo_hits": stats.memo_hits,
            "key_trees": stats.key_trees,
        }))
    else:
        print("UNREACHABLE" if length.is_unreachable else length.true_len)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    oracle = build_oracle(graph, args.d, seed=args.seed)
    try:
        report = verify_instance(oracle, samples=args.samples, seed=args.seed)
    except GuardError as exc:  # a lookup the index let through breaks its key's constraint
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def cmd_gen(args: argparse.Namespace) -> int:
    graph = gen_gnm(args.n, args.m, args.wmax, args.seed)
    header = (f"# gen model={args.model} n={args.n} m={args.m} "
              f"wmax={args.wmax} seed={args.seed}\n")
    with open(args.output, "w", encoding="ascii") as fh:
        fh.write(header)
        fh.write(graph.to_text())
    print(f"wrote {args.output}: n={graph.n} m={graph.m}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftoracle",
        description="Exact distance oracle under multiple edge failures.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="precompute an oracle and save it")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-d", type=int, required=True, help="failure budget")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer one query from a saved oracle")
    p.add_argument("-o", "--oracle", required=True)
    p.add_argument("-s", "--source", type=int, required=True)
    p.add_argument("-t", "--target", type=int, required=True)
    p.add_argument("--fail", action="append", default=[], metavar="A-B",
                   help="failed edge by endpoints; repeatable")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="check oracle answers against brute force")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--samples", type=positive_int, default=None,
                   help="check this many sampled instances instead of all")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random connected graph")
    p.add_argument("--model", choices=["gnm"], default="gnm")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
