"""Binary oracle files: round trips, byte identity, corruption detection."""
import copy
import hashlib
import io
import itertools
import os
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ftoracle.cli as cli
import ftoracle.tables
from ftoracle import spindex
from ftoracle.oraclefile import (OracleFileError, _EDGE, _HEADER, load_oracle,
                                 oracle_file_bytes, save_oracle)
from ftoracle.generate import gen_gnm
from ftoracle.graph import Graph, GraphError, edge_ids
from ftoracle.hitset import FailureView, build_induced_key_tree
from ftoracle.query import Oracle, build_oracle
from ftoracle.reference import enumerate_instances
from ftoracle.spindex import BuildError, ShortestPathIndex
from ftoracle.tables import (check_build_size, class_bounds, constraint_holds,
                             enumerate_failure_sets)

from conftest import (PER_ROOT, base_length, derived_roots, mark_roots, reference_codes,
                      underive)
from test_file_digests import PINNED, logical_digest


def test_same_build_same_bytes(g1):
    a = oracle_file_bytes(build_oracle(g1, d=2, seed=1))
    b = oracle_file_bytes(build_oracle(g1, d=2, seed=1))
    assert a == b


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_same_build_same_bytes_at_every_budget(d):
    # the class encoding is canonical: a second build, and a load followed
    # by a save, write the same bytes
    graph = gen_gnm(8, 14, 32, 5)
    blob = oracle_file_bytes(build_oracle(graph, d, seed=1))
    assert oracle_file_bytes(build_oracle(graph, d, seed=1)) == blob
    assert oracle_file_bytes(load_oracle(io.BytesIO(blob))) == blob


def test_load_then_save_is_identity(oracle6_d1):
    blob = oracle_file_bytes(oracle6_d1)
    loaded = load_oracle(io.BytesIO(blob))
    assert oracle_file_bytes(loaded) == blob


def test_load_derives_no_root(oracle6_d2, monkeypatch):
    blob = oracle_file_bytes(oracle6_d2)
    calls = []
    finish = ShortestPathIndex._finish_root
    monkeypatch.setattr(ShortestPathIndex, "_finish_root",
                        lambda self, r: calls.append(r) or finish(self, r))
    loaded = load_oracle(io.BytesIO(blob))
    assert calls == []
    assert derived_roots(loaded.index) == set()
    # a view derives root 3 for its path, and its key tree reads that root
    view = FailureView(loaded.index, (0, 5))
    view.path(3)
    assert calls == [3]
    tree = build_induced_key_tree(oracle6_d2.index, 3, (0, 5))
    assert view.keys(3) == edge_ids(tree & ~view.path(3))
    assert calls == [3]


def test_queries_derive_only_the_roots_they_visit(oracle6_d2, g6, monkeypatch):
    built = oracle6_d2
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)))
    ends = set()
    query_r = Oracle._query_r

    def spy(self, a, b, *rest):
        ends.update((a, b))
        return query_r(self, a, b, *rest)

    monkeypatch.setattr(Oracle, "_query_r", spy)
    damaged = 0
    for u, v, failed in enumerate_instances(g6, 2):
        underive(loaded.index)
        ends.clear()
        assert loaded.query_composite(u, v, failed) == built.query_composite(u, v, failed)
        if not built.index.path_intersects(u, v, failed):
            assert derived_roots(loaded.index) == {u}
        else:
            damaged += 1
            assert u in derived_roots(loaded.index) <= ends
    assert damaged > 0


def test_derived_roots_equal_the_built_index(oracle6_d2):
    # g6 and every pinned build, loaded; and the largest n a file may hold,
    # whose index from_arrays rebuilds from its codes as load does (its
    # tables would not fit)
    oracles = [oracle6_d2] + [build_oracle(make(), d, seed=1) for make, d, _ in PINNED.values()]
    pairs = [(o.index, load_oracle(io.BytesIO(oracle_file_bytes(o))).index) for o in oracles]
    path = Graph(128, [(i, i + 1, 1) for i in range(127)])
    path_index = ShortestPathIndex(path, list(range(1, 128)))
    pairs.append((path_index, ShortestPathIndex.from_arrays(path, path_index.tie,
                                                            path_index.codes.copy())))
    for built, index in pairs:
        assert derived_roots(index) == set()
        assert np.array_equal(index.codes, built.codes)
        assert index.codes.dtype == built.codes.dtype
        for r in range(index.graph.n):
            base_length(index, r, r)
        assert derived_roots(index) == set(range(index.graph.n))
        for name in PER_ROOT:
            assert getattr(index, name) == getattr(built, name), name


def test_loaded_key_trees_equal_the_built_index(oracle6_d2, g6):
    # on a fresh load, each view derives its roots and each key tree its
    # root's edge marks
    built = oracle6_d2.index
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d2))).index
    assert mark_roots(loaded) == set()
    sets = enumerate_failure_sets(g6.m, 2)[1:]
    for failed in random.Random(0).sample(sets, 16):
        view = FailureView(loaded, failed)
        for r in range(g6.n):
            view.path(r)
            assert build_induced_key_tree(loaded, r, failed) == \
                build_induced_key_tree(built, r, failed), (failed, r)
    assert derived_roots(loaded) == mark_roots(loaded) == set(range(g6.n))
    assert loaded._marks == built._marks


def test_constraints_match_on_a_fresh_load(oracle6_d2, g6):
    # constraint_holds derives its roots on first use
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d2)))
    assert derived_roots(loaded.index) == set()
    sets = enumerate_failure_sets(g6.m, 2)
    for key in itertools.product(range(g6.n), repeat=4):
        for b1, b2 in itertools.product((0, 1), repeat=2):
            for failed in sets:
                assert constraint_holds(loaded.index, failed, key + (b1, b2)) == \
                    constraint_holds(oracle6_d2.index, failed, key + (b1, b2))
    assert derived_roots(loaded.index) == set(range(g6.n))


def test_loaded_oracle_answers_match(oracle6_d2, g6):
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d2)), graph=g6)
    assert loaded.graph == g6
    assert loaded.d == 2
    assert loaded.index.tie == oracle6_d2.index.tie
    for u, v, failed in enumerate_instances(g6, 2):
        assert loaded.query_composite(u, v, failed) == \
            oracle6_d2.query_composite(u, v, failed)


def test_loaded_tables_bitwise_equal(oracle1_d2):
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle1_d2)))
    assert np.array_equal(loaded.tables.values, oracle1_d2.tables.values)
    assert np.array_equal(loaded.tables.dstar_idx, oracle1_d2.tables.dstar_idx)
    assert loaded.tables.values.dtype == oracle1_d2.tables.values.dtype
    assert loaded.tables.dstar_idx.dtype == oracle1_d2.tables.dstar_idx.dtype
    assert loaded.tables.subsets == oracle1_d2.tables.subsets
    for name in ("slots", "pair_sizes", "codes", "set_sizes", "ids"):
        mine, theirs = getattr(loaded.tables, name), getattr(oracle1_d2.tables, name)
        assert np.array_equal(mine, theirs)
        assert mine.dtype == theirs.dtype
    for u in range(4):
        for v in range(4):
            assert loaded.tables.lookup(u, v, u, v, 0, 0) == \
                oracle1_d2.tables.lookup(u, v, u, v, 0, 0)


def test_file_round_trip_via_path(oracle1_d1, tmp_path):
    path = str(tmp_path / "g1.oracle")
    save_oracle(oracle1_d1, path)
    loaded = load_oracle(path)
    assert loaded.query(0, 2, (1,)) == 6


def test_file_size_is_fixed_width(oracle1_d2):
    g, tables = oracle1_d2.graph, oracle1_d2.tables
    n, m = g.n, g.m
    entries, ids, slots = len(tables.codes), len(tables.ids), len(tables.matrices)
    blob = oracle_file_bytes(oracle1_d2)
    # the header names the palette and matrix totals, and they fix every
    # section's size
    assert _HEADER.unpack_from(blob)[-3:] == (entries, ids, slots)
    # header, edges with tie values, palette sizes per pair u <= v and
    # palette codes i64, edge ids u8 (m <= 256), set sizes u8, 4n u8 class
    # ids per pair u < v, the u8 matrix slots, sha256; no index, no mirrored
    # and no diagonal rows
    assert _HEADER.unpack_from(blob)[2] == tables.matrices.itemsize == 1
    assert tables.ids.itemsize == tables.set_sizes.itemsize == 1
    expect = (_HEADER.size + m * 24 + n * (n + 1) // 2 * 8 +
              entries * 9 + ids + n * (n - 1) // 2 * 4 * n + slots + 32)
    assert len(blob) == expect
    # each pair u < v holds one slot per row class and column class
    kinds = tables.classes.max(axis=2).astype(np.int64) + 1
    assert slots == kinds.prod(axis=1).sum() < n * (n - 1) // 2 * 4 * n * n


def test_rejects_other_graph(oracle1_d1, g6):
    with pytest.raises(OracleFileError, match="different graph"):
        load_oracle(io.BytesIO(oracle_file_bytes(oracle1_d1)), graph=g6)


def test_rejects_bad_magic(oracle1_d1):
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    blob[:4] = b"NOPE"
    with pytest.raises(OracleFileError, match="magic"):
        load_oracle(io.BytesIO(bytes(blob)))


def test_rejects_unknown_version(oracle1_d1):
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    blob[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(OracleFileError, match="version"):
        load_oracle(io.BytesIO(bytes(blob)))


@pytest.mark.parametrize("version", [4, 5, 6])
def test_rejects_older_versions(oracle1_d1, version):
    # version 4 stored a uint16 slot row for every ordered pair, version 5
    # int64 set sizes and edge ids, version 6 4n^2 slots per pair u < v
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    blob[4:6] = version.to_bytes(2, "little")
    with pytest.raises(OracleFileError,
                       match=rf"unsupported oracle file version {version} \(expected 7\)"):
        load_oracle(io.BytesIO(_reseal(blob)))


@pytest.mark.parametrize("width", [0, 3, 4, 8, 2 ** 16 - 1])
def test_rejects_other_slot_widths(oracle1_d1, width):
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    blob[6:8] = width.to_bytes(2, "little")  # after magic and version
    with pytest.raises(OracleFileError, match=f"unsupported slot width {width} "
                                              r"\(expected 1 or 2\)"):
        load_oracle(io.BytesIO(_reseal(blob)))


def test_rejects_truncation(oracle1_d1):
    blob = oracle_file_bytes(oracle1_d1)
    for cut in (10, _HEADER.size + 3, len(blob) - 1):
        with pytest.raises(OracleFileError, match="truncated"):
            load_oracle(io.BytesIO(blob[:cut]))


def test_rejects_trailing_data(oracle1_d1):
    blob = oracle_file_bytes(oracle1_d1) + b"\x00"
    with pytest.raises(OracleFileError, match="trailing"):
        load_oracle(io.BytesIO(blob))


def test_rejects_tampered_graph(oracle1_d1):
    # change one edge weight: the trailer catches it; re-sealed, the
    # trailer passes and the stored graph fails the header's graph digest
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    off = _HEADER.size + 8  # first edge record, weight field
    blob[off:off + 8] = (9).to_bytes(8, "little")
    with pytest.raises(OracleFileError, match="does not match its sha256 digest trailer"):
        load_oracle(io.BytesIO(bytes(blob)))
    with pytest.raises(OracleFileError,
                       match="stored graph does not match its stored digest"):
        load_oracle(io.BytesIO(_reseal(blob)))


def _reseal(blob: bytearray) -> bytes:
    """Recompute the sha256 trailer, as a deliberately crafted file would."""
    body = bytes(blob[:-32])
    return body + hashlib.sha256(body).digest()


def _sections(tables) -> dict:
    """Byte offset and item width of each palette section of the tables'
    file.

    The table values are the palette codes, and each D* is its edge ids,
    one byte each while m <= 256; so is each set size and class id.  The
    classes and the slots, the matrices, start with pair (0, 1), the first
    one stored.
    """
    n, m = tables.graph.n, tables.graph.m
    off = _HEADER.size + m * 24
    sections = {}
    for name, count, width in (("pair_sizes", n * (n + 1) // 2, 8),
                               ("values", len(tables.codes), 8),
                               ("dstar", len(tables.ids), tables.ids.itemsize),
                               ("set_sizes", len(tables.codes), 1),
                               ("classes", tables.classes.size, 1),
                               ("slots", 0, tables.matrices.itemsize)):
        sections[name] = off, width
        off += count * width
    return sections


_REJECTED = {"values": "code out of range", "dstar": "edge id out of range",
             "pair_sizes": "sizes out of range", "set_sizes": "set size out of range",
             "slots": "slot out of range"}


@pytest.mark.parametrize("section, value", [
    ("values", -1), ("values", (1 << 62) + 1), ("dstar", -1), ("dstar", 4), ("dstar", 5),
    ("pair_sizes", 0), ("set_sizes", 1), ("slots", 1)])
def test_rejects_out_of_range_entries(oracle1_d1, section, value):
    # g1 has n=4, m=4 and, at d=1, five failure sets; row (0, 0) holds one
    # entry; each case edits the first item of its section.  A slot's value
    # counts from the last entry of its row's palette, pair (0, 1)'s, so
    # slots-1 writes the first slot out of range.  dstar-1 writes the byte
    # 0xFF, as the edge ids are one byte each
    tables = oracle1_d1.tables
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    off, width = _sections(tables)[section]
    if section == "slots":
        value += int(tables.pair_sizes[1]) - 1  # pairs u <= v: (0, 0), then (0, 1)
    blob[off:off + width] = value.to_bytes(width, "little", signed=True)
    with pytest.raises(OracleFileError, match=_REJECTED[section]):
        load_oracle(io.BytesIO(_reseal(blob)))


def test_rejects_sets_not_strictly_ascending(oracle1_d2):
    tables = oracle1_d2.tables
    p = int(np.flatnonzero(tables.set_sizes == 2)[0])
    lo = int(tables.set_sizes[:p].sum())
    first, second = tables.ids[lo:lo + 2].tolist()
    blob = bytearray(oracle_file_bytes(oracle1_d2))
    off, width = _sections(tables)["dstar"]
    off += width * lo
    for pair in ((second, first), (first, first)):
        blob[off:off + 2 * width] = np.array(pair, dtype=f"<u{width}").tobytes()
        with pytest.raises(OracleFileError, match="not strictly ascending"):
            load_oracle(io.BytesIO(_reseal(blob)))


def _palettes(tables) -> list[range]:
    """Each pair u <= v's palette entries, pairs row-major."""
    ends = np.cumsum(tables.pair_sizes).tolist()
    return [range(b - size, b) for b, size in zip(ends, tables.pair_sizes.tolist())]


def _edit(oracle, *edits: tuple[str, int, tuple[int, ...]]) -> bytes:
    """The file re-sealed with, per edit (section, at, values), the items at,
    at + 1, ... of section set to values."""
    blob = bytearray(oracle_file_bytes(oracle))
    for section, at, values in edits:
        off, width = _sections(oracle.tables)[section]
        for k, value in enumerate(values):
            blob[off + width * (at + k):off + width * (at + k + 1)] = \
                value.to_bytes(width, "little", signed=section in ("pair_sizes", "values"))
    return _reseal(blob)


def test_rejects_palette_codes_that_rise(oracle6_d2):
    # codes fall along each palette, in candidate order; swap two entries'
    # codes, leaving the last, the base code, in place
    tables = oracle6_d2.tables
    k = next(k for p in _palettes(tables) for k in p[:-2] if tables.codes[k] > tables.codes[k + 1])
    first, second = tables.codes[k:k + 2].tolist()
    with pytest.raises(OracleFileError, match="palette codes not in descending order"):
        load_oracle(io.BytesIO(_edit(oracle6_d2, ("values", k, (second, first)))))


def test_rejects_palette_not_ending_at_its_base_code(oracle6_d2):
    # every palette ends with the empty set at its pair's base code, which
    # load certifies against the stored graph: a lowered last code is
    # refused, and so are tie values re-sealed without the base codes they give
    tables = oracle6_d2.tables
    last = _palettes(tables)[1][-1]  # pair (0, 1)
    lowered = _edit(oracle6_d2, ("values", last, (int(tables.codes[last]) - 1,)))
    square = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    retied = _with_ties(oracle_file_bytes(build_oracle(square, d=1, seed=1)), 4, 4, base=False)
    for blob in (lowered, retied):
        with pytest.raises(OracleFileError, match="palette does not end with the empty set "
                                                  "at its pair's base code"):
            load_oracle(io.BytesIO(blob))


_BASE_CODE = "palette does not end with the empty set at its pair's base code"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rejects_any_base_code_off_by_one(name):
    # each pair u < v's last code raised or lowered by 1, or a diagonal
    # pair's set to 1: the stored codes are no longer the shortest codes,
    # and load's certificate refuses them
    make, d, _ = PINNED[name]
    oracle = build_oracle(make(), d, seed=1)
    n = oracle.graph.n
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    for (u, v), palette in zip(pairs, _palettes(oracle.tables)):
        code = int(oracle.tables.codes[palette[-1]])
        for bad in ((code - 1, code + 1) if u < v else (1,)):
            with pytest.raises(OracleFileError, match=_BASE_CODE):
                load_oracle(io.BytesIO(_edit(oracle, ("values", palette[-1], (bad,)))))


def test_load_runs_no_bellman_ford(oracle6_d2, monkeypatch):
    # load checks the stored base codes; only the build computes them
    calls = []
    monkeypatch.setattr(spindex, "_relax", lambda *args: calls.append("_relax"))
    monkeypatch.setattr(spindex, "_arc_list", lambda *args: calls.append("_arc_list"))
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d2)))
    assert calls == []
    assert np.array_equal(loaded.index.codes, oracle6_d2.index.codes)


def test_rejects_diagonal_palette_beyond_the_empty_set(oracle6_d2):
    # a pair (u, u) holds one entry, the empty set at code 0, and every read
    # of that pair takes its palette's first entry: a set spliced in front
    # of pair (1, 1)'s, written with the header's P and I to match and a
    # fresh trailer, would be read there
    built, n = oracle6_d2.tables, oracle6_d2.graph.n
    tables = copy.copy(built)
    at = int(built.pair_sizes[:n].sum())  # pair (1, 1)'s entry, after row 0's n pairs
    tables.pair_sizes = built.pair_sizes.copy()
    tables.pair_sizes[n] += 1
    tables.codes = np.insert(built.codes, at, 1)
    tables.set_sizes = np.insert(built.set_sizes, at, 1)
    tables.ids = np.insert(built.ids, int(built.set_sizes[:at].sum()), 0)
    blob = oracle_file_bytes(Oracle(oracle6_d2.index, tables))
    assert len(blob) == len(oracle_file_bytes(oracle6_d2)) + 8 + 1 + 1
    with pytest.raises(OracleFileError, match="diagonal palette holds more than the empty set"):
        load_oracle(io.BytesIO(blob))


def test_rejects_empty_set_before_a_palettes_end(oracle6_d2):
    # one-edge sets (a,) then (b,), a != b, neither last in its palette:
    # as () and the ascending (a, b) the ids keep their count
    tables = oracle6_d2.tables
    sizes, start = tables.set_sizes.tolist(), np.cumsum(tables.set_sizes) - tables.set_sizes
    ids = tables.ids.tolist()
    k = next(k for p in _palettes(tables) for k in p[:-2]
             if sizes[k] == sizes[k + 1] == 1 and ids[start[k]] != ids[start[k] + 1])
    at = int(start[k])
    pair = tuple(sorted(tables.ids[at:at + 2].tolist()))
    with pytest.raises(OracleFileError, match="palette holds the empty set before its end"):
        load_oracle(io.BytesIO(_edit(oracle6_d2, ("set_sizes", k, (0, 2)), ("dstar", at, pair))))


@pytest.mark.parametrize("at, value", [(0, 1), (1, 2), (5, 4)])
def test_rejects_class_ids_out_of_first_appearance_order(oracle6_d2, at, value):
    # pair (0, 1)'s row classes start 0 and never pass the largest so far
    # by more than 1
    classes = oracle6_d2.tables.classes[0, 0].tolist()
    assert value > max(classes[:at], default=-1) + 1
    with pytest.raises(OracleFileError, match="class ids not in order of first appearance"):
        load_oracle(io.BytesIO(_edit(oracle6_d2, ("classes", at, (value,)))))


@pytest.mark.parametrize("change", [-1, 1])
def test_rejects_header_matrix_count_that_disagrees_with_the_classes(oracle6_d2, change):
    # a header that names one slot more or fewer, in a file of that size
    tables = oracle6_d2.tables
    stored = len(tables.matrices)
    blob = bytearray(oracle_file_bytes(oracle6_d2))[:-32]
    # the header's last field is the matrix slot count
    blob[_HEADER.size - 8:_HEADER.size] = (stored + change).to_bytes(8, "little")
    blob = blob[:-1] if change < 0 else blob + b"\x00"
    with pytest.raises(OracleFileError, match=f"header names {stored + change} matrix "
                                              f"slots, the class ids {stored}"):
        load_oracle(io.BytesIO(_reseal(blob + bytes(32))))


def test_loads_a_pair_of_256_row_classes(monkeypatch):
    # at n = 128 a pair's 2n = 256 rows may all differ: ids up to 255, and
    # ku = 256, which load must count past uint8.  A 128-vertex path at
    # d = 1 with one-entry palettes, but for pair (0, 1): failing edge 0
    # cuts it, and each of its 256 rows is a class of its own
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2 ** 28, "SC_PAGE_SIZE": 4096}.__getitem__)
    n = 128
    index = ShortestPathIndex(Graph(n, [(i, i + 1, 1) for i in range(n - 1)]), list(range(1, n)))
    pair_sizes = np.ones(n * (n + 1) // 2, dtype=np.int64)
    pair_sizes[1] = 2  # pairs u <= v: (0, 0), (0, 1), ...
    codes = np.insert(index.codes[np.triu_indices(n)], 1, index.codec.unreachable_code)
    set_sizes = np.zeros(len(codes), dtype=np.uint8)
    set_sizes[1] = 1
    classes = np.zeros((n * (n - 1) // 2, 2, 2 * n), dtype=np.uint8)
    classes[0, 0] = np.arange(2 * n)
    matrices = np.zeros(2 * n + len(classes) - 1, dtype=np.uint8)
    matrices[1:2 * n:2] = 1  # rows (u', 1) of pair (0, 1) read the empty set, the rest the cut
    tables = ftoracle.tables.OracleTables(index.graph, 1, 1, index.codec, matrices, classes,
                                          pair_sizes, codes, set_sizes, np.zeros(1, np.uint8))
    blob = oracle_file_bytes(Oracle(index, tables))
    loaded = load_oracle(io.BytesIO(blob)).tables
    assert np.array_equal(loaded.classes, classes) and np.array_equal(loaded.matrices, matrices)
    for up, b1 in itertools.product(range(n), (0, 1)):
        assert loaded.read_block(0, 1, (up,), (5,), b1, 1) == \
            ((index.codec.unreachable_code, {0}) if b1 == 0 else (int(index.codes[0, 1]), set()))


def test_rejects_matrix_slot_beyond_its_own_palette(oracle6_d2):
    # each slot is checked against its own pair's palette size: the last
    # slot of the pair u < v with the smallest palette, set to that size,
    # lies below larger palettes' sizes and is still refused
    tables = oracle6_d2.tables
    n = tables.graph.n
    lower = np.delete(tables.pair_sizes, [u * n - u * (u - 1) // 2 for u in range(n)])
    pair = int(lower.argmin())
    assert lower[pair] < lower.max()
    last = int(class_bounds(tables.classes)[1][pair + 1]) - 1
    assert load_oracle(io.BytesIO(_edit(oracle6_d2, ("slots", last, (int(lower[pair]) - 1,)))))
    with pytest.raises(OracleFileError, match="palette slot out of range"):
        load_oracle(io.BytesIO(_edit(oracle6_d2, ("slots", last, (int(lower[pair]),)))))


def test_rejects_sets_longer_than_budget(oracle1_d2):
    # g1 at d=2 stores two-edge sets; a header claiming d=1 cannot hold them
    with pytest.raises(OracleFileError, match="set size out of range"):
        load_oracle(io.BytesIO(_with_budget(oracle_file_bytes(oracle1_d2), 1)))


def test_load_never_enumerates_failure_sets(oracle6_d2, g6, monkeypatch):
    built = build_oracle(g6, d=2, seed=1)
    blob = oracle_file_bytes(built)

    def refuse(m, d):
        raise AssertionError("enumerate_failure_sets called")
    monkeypatch.setattr(ftoracle.tables, "enumerate_failure_sets", refuse)
    loaded = load_oracle(io.BytesIO(blob))
    for u, v, failed in enumerate_instances(g6, 2):
        assert loaded.query_composite(u, v, failed) == \
            oracle6_d2.query_composite(u, v, failed)
    # build, save, load and query derive none of the dense views
    for tables in (built.tables, loaded.tables):
        assert not {"values", "dstar_idx", "subsets"} & set(vars(tables))
        assert tables.entry_count == 4 * 7 ** 4


def test_rejects_rows_too_wide_for_uint16_slots(oracle1_d1, monkeypatch):
    # n=129 has 4*129^2 = 66,564 keys per row; the header alone is refused
    pages = {"SC_PHYS_PAGES": 2 ** 28, "SC_PAGE_SIZE": 4096}  # 1 TiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    blob[8:16] = (129).to_bytes(8, "little")
    with pytest.raises(OracleFileError, match="uint16"):
        load_oracle(io.BytesIO(_reseal(blob)))


def test_uint16_slots_when_a_palette_outgrows_uint8(oracle6_d2, g6, monkeypatch):
    # no palette of a real build has outgrown uint8 so far; with the limit
    # at 9 g6's pair (1, 4), 10 entries, does, after rows of pairs up to 9
    # entries were written as uint8, so its matrix and every later one of
    # a palette above 9 entries goes as uint16, and the tables widen the
    # uint8 ones once.  One row per fill call: rows (0, 1), (0, 3), (0, 5)
    # and (1, 2) go as uint8
    narrow = oracle6_d2
    widths, sizes = [], []
    fill = ftoracle.tables._fill_rows

    def spy(*args):
        fill(*args)
        palettes, slots = args[-2:]
        sizes.append(int(palettes[-1][1].max()))
        widths.append(slots[-1][-1].itemsize)

    monkeypatch.setattr(ftoracle.tables, "UINT8_ENTRIES", 9)
    monkeypatch.setattr(ftoracle.tables, "FILL_BYTES", 0)
    monkeypatch.setattr(ftoracle.tables, "_fill_rows", spy)
    wide = build_oracle(g6, d=2, seed=1)
    monkeypatch.undo()
    assert widths[:5] == [1] * 4 + [2] and sizes[4] == 10
    assert widths == [1 + (size > 9) for size in sizes]
    blob = oracle_file_bytes(wide)
    loaded = load_oracle(io.BytesIO(blob))
    assert oracle_file_bytes(loaded) == blob
    assert _HEADER.unpack_from(blob)[2] == 2
    assert narrow.tables.matrices.dtype == narrow.tables.slots.dtype == np.uint8
    for tables in (wide.tables, loaded.tables):
        assert tables.matrices.dtype == tables.slots.dtype == np.uint16
        assert np.array_equal(tables.matrices, narrow.tables.matrices)
        assert np.array_equal(tables.classes, narrow.tables.classes)
        assert np.array_equal(tables.slots, narrow.tables.slots)
        assert logical_digest(tables) == logical_digest(narrow.tables)
    for u, v, failed in enumerate_instances(g6, 2):
        assert loaded.query_composite(u, v, failed) == narrow.query_composite(u, v, failed)
    # at both widths load refuses a slot at or above its pair's palette size
    for oracle in (narrow, wide):
        width = oracle.tables.matrices.itemsize
        blob = bytearray(oracle_file_bytes(oracle))
        last = len(blob) - 32 - width  # the last matrix slot, of pair (5, 6)
        size = int(oracle.tables.pair_sizes[-2])  # pairs u <= v: ..., (5, 6), (6, 6)
        for value in (size - 1, size, 256 ** width - 1):
            blob[last:last + width] = value.to_bytes(width, "little")
            if value < size:
                load_oracle(io.BytesIO(_reseal(blob)))
                continue
            with pytest.raises(OracleFileError, match="slot out of range"):
                load_oracle(io.BytesIO(_reseal(blob)))


@pytest.mark.parametrize("m, id_width", [(256, 1), (257, 2)])
def test_edge_id_width_follows_m(m, id_width):
    # ids are below m: one byte holds them up to m = 256, two past it.
    # gen_gnm(24, 257) stores edge 256 in some palette
    built = build_oracle(gen_gnm(24, m, 32, 0), d=1, seed=1)
    blob = oracle_file_bytes(built)
    loaded = load_oracle(io.BytesIO(blob))
    assert oracle_file_bytes(loaded) == blob
    assert built.tables.ids.itemsize == id_width
    assert built.tables.set_sizes.itemsize == 1
    for name in ("slots", "pair_sizes", "codes", "set_sizes", "ids"):
        assert getattr(loaded.tables, name).dtype == getattr(built.tables, name).dtype, name
    rng = random.Random(m)
    for e in range(m):  # every edge fails once
        u, v = rng.randrange(24), rng.randrange(24)
        assert loaded.query_composite(u, v, (e,)) == built.query_composite(u, v, (e,))
        assert loaded.query_composite(u, v) == built.query_composite(u, v)
    if id_width == 2:  # edge 256 needs two bytes; an id at or above m is refused
        tables, out = built.tables, bytearray(blob)
        assert int(tables.ids.max()) == m - 1
        off = _HEADER.size + 24 * m + 8 * (len(tables.pair_sizes) + len(tables.codes))
        for value in (m, 2 ** 16 - 1):
            out[off:off + 2] = value.to_bytes(2, "little")
            with pytest.raises(OracleFileError, match="edge id out of range"):
                load_oracle(io.BytesIO(_reseal(out)))


def _with_budget(blob: bytes, d: int) -> bytes:
    """The file re-sealed with another failure budget d in its header."""
    out = bytearray(blob)
    out[24:32] = d.to_bytes(8, "little")  # after magic, version, n and m
    return _reseal(out)


def test_rejects_zero_budget_header(oracle1_d1):
    with pytest.raises(OracleFileError, match="d=0 out of range"):
        load_oracle(io.BytesIO(_with_budget(oracle_file_bytes(oracle1_d1), 0)))


def test_rejects_budget_beyond_int32_set_indices():
    # K9 has m=36, so d=36 would ask load to enumerate 2**36 subsets
    oracle = build_oracle(gen_gnm(9, 36, 5, seed=3), d=1, seed=1)
    blob = oracle_file_bytes(oracle)
    with pytest.raises(OracleFileError, match="int32"):
        load_oracle(io.BytesIO(_with_budget(blob, 36)))
    with pytest.raises(OracleFileError, match="int32"):
        load_oracle(io.BytesIO(_with_budget(blob, 2 ** 63 - 1)))
    # a budget whose subsets int32 can index still loads the stored tables
    assert load_oracle(io.BytesIO(_with_budget(blob, 2))).d == 2


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_truncation_or_bit_flip_is_rejected(oracle1_d1, data):
    blob = oracle_file_bytes(oracle1_d1)
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        bit = data.draw(st.integers(0, len(blob) * 8 - 1), label="bit")
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad = bytes(flipped)
    with pytest.raises(OracleFileError):
        load_oracle(io.BytesIO(bad))


def test_rejects_budget_beyond_physical_memory():
    # K9 (m=36) at d=11 names 990,134,948 subsets, about 125 GiB as tuples:
    # within int32 set indices, far beyond memory, and refused before any
    # subset is enumerated
    blob = oracle_file_bytes(build_oracle(gen_gnm(9, 36, 5, seed=3), d=1, seed=1))
    bad = _with_budget(blob, 11)
    start = time.perf_counter()
    with pytest.raises(OracleFileError, match="physical memory"):
        load_oracle(io.BytesIO(bad))
    assert time.perf_counter() - start < 1.0


def _least_memory(check) -> int:
    """The fewest bytes of physical memory at which check() passes the budget gate."""
    lo, hi = 0, 2 ** 40
    while lo < hi:
        mid = (lo + hi) // 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sysconf", {"SC_PHYS_PAGES": mid, "SC_PAGE_SIZE": 1}.__getitem__)
            try:
                check()
                hi = mid
            except (BuildError, OracleFileError) as exc:
                assert "physical memory" in str(exc)
                lo = mid + 1
    return lo


def test_load_gate_charges_the_headers_matrix_slots(oracle6_d2, monkeypatch):
    # load is charged its file's S matrix slots, not the 4n^2 slots per
    # pair and the encoding that the build charges: it loads at the least
    # memory the gate admits for the file's matrix bytes, and one byte
    # fewer refuses it
    blob = oracle_file_bytes(oracle6_d2)
    graph, held = oracle6_d2.graph, oracle6_d2.tables.matrices.nbytes
    gate = lambda *matrix_bytes: lambda: check_build_size(graph.n, graph.m, 2, *matrix_bytes)
    least = _least_memory(gate(held))
    assert least - _least_memory(gate(0)) == held
    assert least < _least_memory(gate()) - graph.n * (graph.n - 1) // 2 * 4 * graph.n ** 2
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": least, "SC_PAGE_SIZE": 1}.__getitem__)
    assert np.array_equal(load_oracle(io.BytesIO(blob)).tables.matrices,
                          oracle6_d2.tables.matrices)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": least - 1, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(OracleFileError, match="cannot load: .* physical memory"):
        load_oracle(io.BytesIO(blob))


def test_tied_file_is_refused_at_load(tmp_path):
    # a unit-weight 4-cycle re-sealed with every tie value 1, and each
    # palette's last entry, the empty set, at the base code these tie
    # values give: 0 reaches 2 both ways round at the same composite
    # length.  The codes pass as shortest codes, but the certificate that
    # the build runs too finds two tight arcs into 2, so load refuses it
    square = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    tied = _with_ties(oracle_file_bytes(build_oracle(square, d=1, seed=1)), 4, 4)
    with pytest.raises(OracleFileError, match="stored tie values: root 0: vertex 2 has 2 "
                                              "optimal predecessors"):
        load_oracle(io.BytesIO(tied))
    path = tmp_path / "tied.oracle"
    path.write_bytes(tied)
    assert cli.main(["query", "-o", str(path), "-s", "0", "-t", "2"]) == 2


def _with_ties(blob: bytes, n: int, m: int, base: bool = True) -> bytes:
    """The file re-sealed with every tie value 1 and, if base, each palette's
    last code at the base code of the index those tie values give."""
    out = bytearray(blob)
    for eid in range(m):
        off = _HEADER.size + 24 * eid + 16  # edge record eid, tie field
        out[off:off + 8] = (1).to_bytes(8, "little")
    if base:
        graph = Graph(n, [(int(a), int(b), int(w)) for a, b, w, _ in np.frombuffer(
            blob, _EDGE, m, _HEADER.size).tolist()])
        pairs = n * (n + 1) // 2
        off = _HEADER.size + 24 * m
        sizes = np.frombuffer(blob, "<i8", pairs, off)
        last = off + 8 * (pairs + np.cumsum(sizes) - 1)  # each palette's last code
        codes = reference_codes(graph, [1] * m)
        for at, code in zip(last.tolist(), codes[np.triu_indices(n)].tolist()):
            out[at:at + 8] = code.to_bytes(8, "little")
    return _reseal(out)


@pytest.mark.parametrize("tie", [0, 8 * 4 * 4 * 4 + 1, 2 ** 64 - 1])
def test_rejects_out_of_range_tie_values(oracle1_d1, tie):
    # tie values lie in [1, 8*m*n^2], the range the codec's shift assumes
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    off = _HEADER.size + 16  # first edge record, tie field
    blob[off:off + 8] = tie.to_bytes(8, "little")
    with pytest.raises((OracleFileError, GraphError), match="tie value"):
        load_oracle(io.BytesIO(_reseal(blob)))
