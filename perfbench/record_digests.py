"""Record the table and answer digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py --seeds 0-63

For every workload and seed it builds the oracles, answers one pass of the
query stream, checks every answer against ``ReferenceOracle`` and writes
the digests to ``perfbench/digests.json``.  Re-record only when a change is
meant to alter tables or answers, and say so in the change.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ftoracle import ReferenceOracle, build_oracle  # noqa: E402
from perfbench.harness import DIGESTS, answers_digest, tables_digest  # noqa: E402
from perfbench.workloads import (TIE_SEED, WORKLOADS, graph_seeds,  # noqa: E402
                                 make_graphs, make_stream)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    record = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    cache: dict[tuple, tuple] = {}
    for seed in range(lo, hi + 1):
        for w in WORKLOADS.values():
            graphs = make_graphs(w, seed)
            oracles = []
            for g, gs in zip(graphs, graph_seeds(w, seed)):
                key = (w.n, w.m, w.d, gs)
                if key not in cache:
                    oracle = build_oracle(g, w.d, seed=TIE_SEED)
                    cache[key] = (oracle, tables_digest(oracle.tables))
                oracles.append(cache[key])
            stream = make_stream(w, graphs, seed)
            refs = [ReferenceOracle(g, o.index.tie) for g, (o, _) in zip(graphs, oracles)]
            answers = [oracles[gi][0].query_composite(u, v, f) for gi, u, v, f in stream]
            truth = [refs[gi].dist_avoiding(f, u, v) for gi, u, v, f in stream]
            if answers != truth:
                print(f"{w.name} seed {seed}: answers differ from the reference; "
                      f"nothing recorded", file=sys.stderr)
                return 1
            tables = hashlib.sha256("".join(d for _, d in oracles).encode()).hexdigest()
            record.setdefault(w.name, {})[str(seed)] = {
                "tables": tables, "answers": answers_digest(stream, answers)}
            print(f"{w.name} seed {seed}: tables {tables[:12]}", flush=True)
        cache.clear()
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
