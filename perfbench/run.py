"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src`` directory.  With ``--trace 0`` the end-to-end metrics are printed,
with ``--trace 1`` the per-layer metrics of a separate traced run (spans go
to ``perfbench/out/trace-NAME.jsonl``).  Notes and one ``name value unit``
line per metric come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is the
number of queries sent and ``failed`` the number that raised or differed
from ``ReferenceOracle``.  Exit code 2 means the run could not start.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if not (ROOT / "src" / "ftoracle" / "__init__.py").is_file():
        print(f"error: no ftoracle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.harness import run_end_to_end, run_traced
    from perfbench.workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = run_traced(w, args.seed, args.seconds,
                            HERE / "out" / f"trace-{w.name}.jsonl")
    else:
        result = run_end_to_end(w, args.seed, args.seconds)
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
