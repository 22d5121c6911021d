"""Spans around the library's layer boundaries, recorded from outside it.

``Tracer.installed()`` replaces module and class attributes of ftoracle
with wrappers that record one span per call (name, start, end, parent span,
query id, optional key) or, for ``path_intersects``, only a call count per
query.  Every attribute is put back in a ``finally`` block.  An attribute
that no longer exists, for example after a refactor merges two routines,
is listed in ``Tracer.absent`` and the metrics built on it are left out.

Spans stay in memory; ``write_spans`` saves them when the run ends, and
``layer_metrics`` derives the per-layer figures, self times included, from
them.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: int       # perf_counter_ns
    end: int
    parent: int      # index of the enclosing span, -1 at top level
    qid: int         # query index in the stream, -1 outside queries
    key: object


class Hook(NamedTuple):
    module: str
    owner: str | None    # class name inside module, None for a module attribute
    attr: str
    name: str
    key: Callable | None = None
    count_only: bool = False


def _key_tree_key(index, root, failed):
    return (id(index), root, tuple(failed))


# Patched where the caller looks the name up, e.g. build_oracle finds
# build_tables in ftoracle.query's namespace.
HOOKS = (
    Hook("ftoracle.query", None, "build_index_auto", "spindex.index"),
    Hook("ftoracle.spindex", "ShortestPathIndex", "from_arrays", "spindex.from_arrays"),
    Hook("ftoracle.spindex", "ShortestPathIndex", "path_intersects",
          "spindex.path_intersects", count_only=True),
    Hook("ftoracle.query", None, "build_tables", "tables.build"),
    Hook("ftoracle.tables", None, "_deleted_all_pairs", "tables.sweep"),
    Hook("ftoracle.tables", None, "_side_masks", "tables.masks"),
    Hook("ftoracle.tables", "OracleTables", "lookup", "tables.lookup"),
    Hook("ftoracle.oraclefile", None, "save_oracle", "oraclefile.save"),
    Hook("ftoracle.oraclefile", None, "load_oracle", "oraclefile.load"),
    Hook("ftoracle.query", "Oracle", "query_composite", "query.composite"),
    Hook("ftoracle.query", "Oracle", "_query_r", "query.recurse"),
    Hook("ftoracle.hitset", "HitSetEngine", "case_one", "hitset.case_one"),
    Hook("ftoracle.hitset", "HitSetEngine", "case_two", "hitset.case_two"),
    Hook("ftoracle.hitset", "HitSetEngine", "case_three", "hitset.case_three"),
    Hook("ftoracle.hitset", None, "build_induced_key_tree", "hitset.key_tree",
          key=_key_tree_key),
)


def _resolve(hook: Hook):
    """(owner object, raw attribute) or None when either is missing."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    if hook.owner is not None:
        owner = getattr(owner, hook.owner, None)
        if owner is None:
            return None
        raw = owner.__dict__.get(hook.attr)
    else:
        raw = getattr(owner, hook.attr, None)
    return None if raw is None else (owner, raw)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.qid = -1
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def _span(self, name: str, fn: Callable, key: Callable | None) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[i] = Span(name, start, end, parent, self.qid,
                                key(*args, **kwargs) if key else None)
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, self.qid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, hook: Hook, raw):
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hook.count_only:
            wrapped = self._counter(hook.name, fn)
        else:
            wrapped = self._span(hook.name, fn, hook.key)
        return classmethod(wrapped) if isinstance(raw, classmethod) else wrapped

    @contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block, then restore."""
        saved = []
        try:
            for hook in HOOKS:
                found = _resolve(hook)
                if found is None:
                    self.absent.add(hook.name)
                    continue
                owner, raw = found
                setattr(owner, hook.attr, self._wrap(hook, raw))
                saved.append((owner, hook.attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.qid]) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Span duration minus the time covered by its direct children (ns)."""
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


# per-layer metric -> (unit, span or counter names it is derived from)
PER_LAYER = {
    "tables.update_s": ("s", ("tables.build", "tables.sweep", "tables.masks")),
    "tables.sweep_s": ("s", ("tables.sweep",)),
    "tables.masks_s": ("s", ("tables.masks",)),
    "tables.sweep.calls": ("count", ("tables.sweep",)),
    "tables.failure_sets": ("count", ()),
    "tables.damaged_row_share": ("ratio", ()),
    "spindex.index_s": ("s", ("spindex.index",)),
    "spindex.tie_retries": ("count", ()),
    "oraclefile.save_s": ("s", ("oraclefile.save",)),
    "oraclefile.load_index_s": ("s", ("spindex.from_arrays",)),
    "oraclefile.load_tables_s": ("s", ("oraclefile.load", "spindex.from_arrays")),
    "query.fast_path_share": ("ratio", ("query.composite", "hitset.case_three")),
    "query.recurse.calls_per_damaged": ("count", ("query.recurse",)),
    "query.max_depth": ("count", ("query.recurse",)),
    "hitset.case_three.calls": ("count", ("hitset.case_three",)),
    "hitset.case_three.self_s": ("s", ("hitset.case_three",)),
    "hitset.case_two.calls": ("count", ("hitset.case_two",)),
    "hitset.case_two.self_s": ("s", ("hitset.case_two",)),
    "hitset.case_one.calls": ("count", ("hitset.case_one",)),
    "hitset.case_one.self_s": ("s", ("hitset.case_one",)),
    "hitset.key_tree.calls": ("count", ("hitset.key_tree",)),
    "hitset.key_tree_s": ("s", ("hitset.key_tree",)),
    "hitset.key_tree.repeat_share": ("ratio", ("hitset.key_tree",)),
    "hitset.lookups_per_damaged": ("count", ()),
    "tables.lookup_s": ("s", ("tables.lookup",)),
    "spindex.path_intersects.calls_per_damaged": ("count", ("spindex.path_intersects",)),
    "hitset.max_hits": ("count", ()),
    "trace.overhead": ("ratio", ()),
}


def layer_metrics(tracer: Tracer, builds: int, damaged_qids: set[int],
                  extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the spans, plus the values the caller measured.

    Build and persistence figures are means per graph (``builds`` graphs);
    query figures are totals over the traced pass, or per damaged query
    where the name says so.  Returns (values, names left out as absent).
    """
    spans = tracer.spans  # all closed once the traced code has returned
    self_ns = self_times(spans)
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    for s, own_ns in zip(spans, self_ns):
        total[s.name] += s.end - s.start
        own[s.name] += own_ns
        calls[s.name] += 1

    per_build = 1e-9 / builds
    damaged = max(1, len(damaged_qids))
    out = dict(extra)
    out["tables.update_s"] = own["tables.build"] * per_build
    out["tables.sweep_s"] = total["tables.sweep"] * per_build
    out["tables.masks_s"] = total["tables.masks"] * per_build
    out["tables.sweep.calls"] = calls["tables.sweep"] / builds
    out["spindex.index_s"] = total["spindex.index"] * per_build
    out["oraclefile.save_s"] = total["oraclefile.save"] * per_build
    out["oraclefile.load_index_s"] = total["spindex.from_arrays"] * per_build
    out["oraclefile.load_tables_s"] = own["oraclefile.load"] * per_build

    slow_qids = {s.qid for s in spans if s.name == "hitset.case_three"}
    queries = max(1, calls["query.composite"])
    out["query.fast_path_share"] = 1 - len(slow_qids) / queries

    depth = [0] * len(spans)
    recursive = 0
    for i, s in enumerate(spans):
        if s.name != "query.recurse":
            continue
        up = s.parent
        if up >= 0 and spans[up].name == "query.recurse":
            depth[i] = depth[up] + 1
            recursive += 1
        else:
            depth[i] = 1
    out["query.recurse.calls_per_damaged"] = recursive / damaged
    out["query.max_depth"] = max(depth, default=0)

    for case in ("case_three", "case_two", "case_one"):
        out[f"hitset.{case}.calls"] = calls[f"hitset.{case}"]
        out[f"hitset.{case}.self_s"] = own[f"hitset.{case}"] * 1e-9
    out["hitset.key_tree.calls"] = calls["hitset.key_tree"]
    out["hitset.key_tree_s"] = total["hitset.key_tree"] * 1e-9
    seen = set()
    repeats = 0
    for s in spans:
        if s.name == "hitset.key_tree" and s.qid >= 0:
            repeats += s.key in seen
            seen.add(s.key)
    out["hitset.key_tree.repeat_share"] = repeats / max(1, calls["hitset.key_tree"])
    out["tables.lookup_s"] = total["tables.lookup"] * 1e-9
    out["spindex.path_intersects.calls_per_damaged"] = sum(
        c for (name, qid), c in tracer.counts.items()
        if name == "spindex.path_intersects" and qid in damaged_qids) / damaged

    absent = sorted(metric for metric, (_, sources) in PER_LAYER.items()
                    if any(src in tracer.absent for src in sources))
    return {k: v for k, v in out.items() if k not in absent}, absent
