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
from ftoracle.graph import Graph, edge_ids, tie_break_values
from ftoracle.hitset import FailureView, build_induced_key_tree
from ftoracle.query import Oracle, build_oracle
from ftoracle.reference import ReferenceOracle, enumerate_instances, verify_instance
from ftoracle.spindex import BuildError, LengthCodec, ShortestPathIndex
from ftoracle.tables import (NARROW_UNREACHABLE, OracleTables, PaletteError, check_build_size,
                             constraint_holds, enumerate_failure_sets, narrow_codes)

from conftest import PER_ROOT, base_length, derived_roots, reference_codes, underive
from test_file_digests import PINNED, logical_digest


def test_same_build_same_bytes(g1):
    a = oracle_file_bytes(build_oracle(g1, d=2, seed=1))
    b = oracle_file_bytes(build_oracle(g1, d=2, seed=1))
    assert a == b


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_same_build_same_bytes_at_every_budget(d):
    # the palettes are canonical: a second build, and a load followed by a
    # save, write the same bytes
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
    # the reference key tree, taken before the spy: it may derive root 3 of
    # the built index, which other tests share
    tree = build_induced_key_tree(oracle6_d2.index, 3, (0, 5))
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
    assert view.keys(3) == edge_ids(tree & ~view.path(3))
    assert calls == [3]


def test_queries_derive_only_the_roots_they_visit(g6, monkeypatch):
    # on a built index as on a loaded one, each from no root derived
    built = build_oracle(g6, 2, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)))
    ends = set()
    query_r = Oracle._query_r

    def spy(self, a, b, *rest):
        ends.update((a, b))
        return query_r(self, a, b, *rest)

    monkeypatch.setattr(Oracle, "_query_r", spy)
    damaged = 0
    for u, v, failed in enumerate_instances(g6, 2):
        answers = []
        for oracle in (built, loaded):
            underive(oracle.index)
            ends.clear()
            answers.append(oracle.query_composite(u, v, failed))
            if not oracle.index.path_intersects(u, v, failed):
                assert derived_roots(oracle.index) == {u}
            else:
                damaged += 1
                assert u in derived_roots(oracle.index) <= ends
        assert answers[0] == answers[1]
    assert damaged > 0


def test_queries_derive_only_the_pairs_they_read(g6, monkeypatch):
    # load derives no pair and no root's masks; on a built oracle as on a
    # loaded one, queries derive the pairs they read, each once for both
    # its rows, and each root's masks at most once
    built = build_oracle(g6, 2, seed=1)
    truth = [(u, v, failed, built.query_composite(u, v, failed))
             for u, v, failed in enumerate_instances(g6, 2)]
    built = build_oracle(g6, 2, seed=1)
    read, pairs, roots = {}, {}, {}  # per tables: pairs read, pairs derived, roots derived
    derive, root, read_block = OracleTables._derive, OracleTables._root, OracleTables.read_block

    def spy_read(self, u, v, *rest):
        read.setdefault(id(self), set()).add((min(u, v), max(u, v)))
        return read_block(self, u, v, *rest)

    def spy_derive(self, u, v):
        pairs.setdefault(id(self), []).append((min(u, v), max(u, v)))
        return derive(self, u, v)

    def spy_root(self, r):
        roots.setdefault(id(self), []).append(r)
        return root(self, r)

    monkeypatch.setattr(OracleTables, "read_block", spy_read)
    monkeypatch.setattr(OracleTables, "_derive", spy_derive)
    monkeypatch.setattr(OracleTables, "_root", spy_root)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)))
    assert read == pairs == roots == {}
    for oracle in (loaded, built):
        key = id(oracle.tables)
        for u, v, failed, answer in truth:
            assert oracle.query_composite(u, v, failed) == answer
            assert set(pairs.get(key, [])) == read.get(key, set())
            assert len(pairs.get(key, [])) == len(read.get(key, set()))
            assert len(set(roots.get(key, []))) == len(roots.get(key, []))
            assert set(roots.get(key, [])) <= {r for pair in read.get(key, ()) for r in pair}
        assert len(pairs[key]) > 0


def test_derived_roots_equal_the_built_index(g6):
    # g6 and every pinned build, loaded; and the largest n a file may hold,
    # whose index from_arrays rebuilds from its codes as load does (its
    # tables would not fit).  Built and loaded, each derives no root until
    # its first use, and then the same lists
    oracles = [build_oracle(g6, 2, seed=1)] + [build_oracle(make(), d, seed=1)
                                               for make, d, _ in PINNED.values()]
    pairs = [(o.index, load_oracle(io.BytesIO(oracle_file_bytes(o))).index) for o in oracles]
    path = Graph(128, [(i, i + 1, 1) for i in range(127)])
    path_index = ShortestPathIndex(path, list(range(1, 128)))
    pairs.append((path_index, ShortestPathIndex.from_arrays(path, path_index.tie,
                                                            path_index.codes.copy())))
    for built, index in pairs:
        assert derived_roots(built) == derived_roots(index) == set()
        assert np.array_equal(index.codes, built.codes)
        assert index.codes.dtype == built.codes.dtype
        for ix in (built, index):
            for r in range(ix.graph.n):
                base_length(ix, r, r)
            assert derived_roots(ix) == set(range(ix.graph.n))
        for name in PER_ROOT:
            assert getattr(index, name) == getattr(built, name), name


def test_loaded_key_trees_equal_the_built_index(g6):
    # on a fresh build and a fresh load, each view derives its roots, edge
    # marks included, and each key tree reads them
    oracle = build_oracle(g6, 2, seed=1)
    built = oracle.index
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle))).index
    assert derived_roots(loaded) == derived_roots(built) == set()
    sets = enumerate_failure_sets(g6.m, 2)[1:]
    for failed in random.Random(0).sample(sets, 16):
        views = FailureView(loaded, failed), FailureView(built, failed)
        for r in range(g6.n):
            for view in views:
                view.path(r)
            assert build_induced_key_tree(loaded, r, failed) == \
                build_induced_key_tree(built, r, failed), (failed, r)
    for index in (loaded, built):
        assert derived_roots(index) == set(range(g6.n))
    assert loaded._marks == built._marks


def test_key_trees_derive_their_own_root(oracle6_d2, g6):
    # on a fresh load, with no view and no path call first, a key tree
    # derives its root, whole, and only its root
    built = oracle6_d2.index
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d2))).index
    assert derived_roots(loaded) == set()
    sets = enumerate_failure_sets(g6.m, 2)[1:]
    for failed in random.Random(0).sample(sets, 16):
        for r in range(g6.n):
            assert build_induced_key_tree(loaded, r, failed) == \
                build_induced_key_tree(built, r, failed), (failed, r)
            assert derived_roots(loaded) == set(range(r + 1))
        underive(loaded)


def test_constraints_match_on_a_fresh_load(g6):
    # constraint_holds derives its roots on first use, on a fresh build as
    # on a fresh load
    oracle = build_oracle(g6, 2, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle)))
    assert derived_roots(loaded.index) == derived_roots(oracle.index) == set()
    sets = enumerate_failure_sets(g6.m, 2)
    for key in itertools.product(range(g6.n), repeat=4):
        for b1, b2 in itertools.product((0, 1), repeat=2):
            for failed in sets:
                assert constraint_holds(loaded.index, failed, key + (b1, b2)) == \
                    constraint_holds(oracle.index, failed, key + (b1, b2))
    assert derived_roots(loaded.index) == derived_roots(oracle.index) == set(range(g6.n))
    for name in PER_ROOT:
        assert getattr(loaded.index, name) == getattr(oracle.index, name), name


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
    for name in ("slots", "pair_sizes", "codes", "ids"):
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


def test_file_round_trip_via_path_object(oracle1_d2, tmp_path):
    # a path-like object is opened as a str path is, for save and load alike
    path = tmp_path / "x.oracle"
    save_oracle(oracle1_d2, path)
    assert path.read_bytes() == oracle_file_bytes(oracle1_d2)
    assert oracle_file_bytes(load_oracle(path)) == path.read_bytes()


def test_rejects_a_text_mode_handle(oracle1_d1, tmp_path):
    path = tmp_path / "x.oracle"
    save_oracle(oracle1_d1, path)
    for handle in (open(path, encoding="latin-1"), io.StringIO("FTDO" + "\0" * 200)):
        with handle, pytest.raises(OracleFileError, match="text mode"):
            load_oracle(handle)


def test_file_size_is_fixed_width(oracle1_d2):
    g, tables = oracle1_d2.graph, oracle1_d2.tables
    entries = len(tables.codes)
    blob = oracle_file_bytes(oracle1_d2)
    # the header names the palette entries, and with m and d they fix every
    # section's size
    assert _HEADER.size == 80 and _HEADER.unpack_from(blob)[-1] == entries
    # header, edges with tie values, palette codes u4, per entry a row of
    # min(d, m) = 2 edge ids u8 (m < 256), sha256; no index, no slots, no
    # sizes, no mirrored and no diagonal rows
    assert _HEADER.unpack_from(blob)[2] == tables.codes.itemsize
    assert tables.ids.shape == (entries, 2) and tables.ids.itemsize == 1
    assert tables.codes.dtype == np.uint32
    assert len(blob) == _HEADER.size + g.m * 24 + entries * (4 + 2) + 32


# builds past the pinned ones: d = 4, and edge ids of either width
EXTRA = {"gnm8x14-s5-d4": (lambda: gen_gnm(8, 14, 32, 5), 4),
         "gnm24x255-s0-d1": (lambda: gen_gnm(24, 255, 32, 0), 1),
         "gnm24x256-s0-d1": (lambda: gen_gnm(24, 256, 32, 0), 1)}


def _layout_length(blob: bytes) -> int:
    """80 + 24m + C*P + w*(id bytes)*P + 32, from the header's C, n, m, d
    and P: w = max(1, min(d, m)) ids per row, one byte each while m < 256."""
    _, _, width, _, m, d, _, _, entries = _HEADER.unpack_from(blob)
    ids = 1 if m < 256 else 2
    return 80 + 24 * m + width * entries + max(1, min(d, m)) * ids * entries + 32


@pytest.mark.parametrize("name", sorted(PINNED) + sorted(EXTRA))
def test_file_length_is_the_sum_of_its_sections(name):
    make, d = PINNED[name][:2] if name in PINNED else EXTRA[name]
    oracle = build_oracle(make(), d, seed=1)
    blob = oracle_file_bytes(oracle)
    m, tables = oracle.graph.m, oracle.tables
    assert len(blob) == _layout_length(blob)
    assert tables.ids.shape == (len(tables.codes), max(1, min(d, m)))
    assert tables.ids.itemsize == (1 if m < 256 else 2)


@pytest.fixture(scope="module")
def wide_oracle():
    # weights up to 2^20: the largest finite code of gen_gnm(10, 18) takes
    # more than 32 bits, so its file stores int64 codes
    return build_oracle(gen_gnm(10, 18, 1 << 20, 0), d=2, seed=1)


def test_int64_codes_round_trip(wide_oracle):
    blob = oracle_file_bytes(wide_oracle)
    assert _HEADER.unpack_from(blob)[2] == 8
    loaded = load_oracle(io.BytesIO(blob))
    assert oracle_file_bytes(loaded) == blob
    for tables in (wide_oracle.tables, loaded.tables):
        assert tables.codes.dtype == tables.values.dtype == np.int64
        assert tables.codes.max() == LengthCodec.unreachable_code
    assert np.array_equal(loaded.tables.codes, wide_oracle.tables.codes)
    graph = wide_oracle.graph
    reference = ReferenceOracle(graph, wide_oracle.index.tie)
    rng = random.Random(0)
    sets = enumerate_failure_sets(graph.m, 2)
    for _ in range(300):
        u, v, failed = rng.randrange(graph.n), rng.randrange(graph.n), rng.choice(sets)
        assert loaded.query_composite(u, v, failed) == reference.dist_avoiding(failed, u, v)


@pytest.mark.parametrize("make, d", [PINNED["path5-d2"][:2], (lambda: gen_gnm(10, 18, 32, 0), 3)],
                         ids=["path5-d2", "gnm10x18-s0-d3"])
def test_uint32_codes_decode_as_the_int64_build(make, d, monkeypatch):
    # builds whose codes fit uint32 and that store unreachable entries.
    # The same build with its codes kept at int64 is the decoding: every
    # values cell and every key's lookup agree, built and loaded, and the
    # stored 2^32 - 1 reads as the codec's unreachable code
    graph = make()
    narrow = build_oracle(graph, d, seed=1)
    monkeypatch.setattr(ftoracle.tables, "narrow_codes", lambda codes: codes)
    wide = build_oracle(graph, d, seed=1).tables
    monkeypatch.undo()
    assert wide.codes.dtype == np.int64
    unreachable = wide.codes == LengthCodec.unreachable_code
    assert unreachable.any() and wide.codes[~unreachable].max() < NARROW_UNREACHABLE
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(narrow))).tables
    n = graph.n
    keys = list(itertools.product(*[range(n)] * 4, (0, 1), (0, 1)))
    for tables in (narrow.tables, loaded):
        assert tables.codes.dtype == np.uint32
        assert np.array_equal(tables.codes == NARROW_UNREACHABLE, unreachable)
        assert tables.values.dtype == np.int64
        assert np.array_equal(tables.values, wide.values)
        for key in keys:
            assert tables.lookup(*key) == wide.lookup(*key)


@pytest.mark.parametrize("oracle", ["oracle6_d2", "wide_oracle"])
def test_load_reads_palettes_in_place(request, oracle):
    # the codes and the rows of edge ids are aligned views into the file's
    # bytes, at either code width: they add no copy to load
    blob = oracle_file_bytes(request.getfixturevalue(oracle))
    loaded = load_oracle(io.BytesIO(blob)).tables
    held = np.frombuffer(loaded.codes.base, np.uint8)
    assert held.tobytes() == blob
    for name in ("codes", "ids"):
        view = getattr(loaded, name)
        assert np.shares_memory(view, held), name
        assert view.flags.aligned and not view.flags.owndata, name


def _wide_but_fits(oracle) -> bytes:
    """The file with its uint32 codes written as int64, unreachable at 2^62."""
    tables = copy.copy(oracle.tables)
    tables.codes = ftoracle.tables.wide_codes(tables.codes)
    return oracle_file_bytes(Oracle(oracle.index, tables))


def _code_width(oracle, width) -> bytes:
    """The file re-sealed with another code width in its header."""
    blob = bytearray(oracle_file_bytes(oracle))
    blob[6] = width  # after magic and version, the low byte
    return _reseal(blob)


def _unreachable_base(oracle) -> bytes:
    """The file with pair (0, 1)'s last code, its base code, at uint32's unreachable."""
    return _edit(oracle, ("values", _palettes(oracle.tables)[0][-1], (NARROW_UNREACHABLE,)))


@pytest.mark.parametrize("make, message", [
    (lambda o: _code_width(o, 2), r"unsupported code width 2 \(expected 4 or 8\)"),
    (_wide_but_fits, "8-byte palette codes whose finite values fit in 4 bytes"),
    (_unreachable_base, "palette does not end with the empty set at its pair's base code")],
    ids=["code-width-2", "int64-that-fits", "unreachable-base-code"])
def test_rejects_code_sections_off_their_width(oracle6_d2, tmp_path, make, message):
    blob = make(oracle6_d2)
    with pytest.raises(OracleFileError, match=message):
        load_oracle(io.BytesIO(blob))
    path = tmp_path / "bad.oracle"
    path.write_bytes(blob)
    assert cli.main(["query", "-o", str(path), "-s", "0", "-t", "1"]) == 2


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


@pytest.mark.parametrize("version", [4, 5, 6, 7, 8, 9, 10])
def test_rejects_older_versions(oracle1_d1, version):
    # version 4 stored a uint16 slot row for every ordered pair, version 5
    # int64 set sizes and edge ids, version 6 4n^2 slots per pair u < v,
    # version 7 int64 palette codes and a u16 slot width, version 8 a
    # palette per pair u <= v, version 9 each pair's class ids and slots,
    # version 10 each palette's size and each set's size
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    blob[4:6] = version.to_bytes(2, "little")
    with pytest.raises(OracleFileError,
                       match=rf"unsupported oracle file version {version} \(expected 11\)"):
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


class _Endless:
    """A stream of head, then zero bytes without end, counting the bytes it serves."""

    def __init__(self, head: bytes):
        self.head, self.served = head, 0

    def read(self, size: int = -1) -> bytes:
        assert size >= 0, "read to the end of an endless stream"
        out = self.head[self.served:self.served + size]
        self.served += size
        return out + bytes(size - len(out))


def test_endless_stream_is_read_no_further_than_its_header_names(oracle1_d1):
    # a valid header is read for its size and one byte more; a header that
    # names more than the budget gate charges is refused before any read
    blob = oracle_file_bytes(oracle1_d1)
    huge = _HEADER.pack(*_HEADER.unpack_from(blob)[:-1], 2 ** 60)  # 2^60 palette entries
    for head, error, most in ((b"", "not an oracle file", _HEADER.size),
                              (blob, "trailing data in oracle file", len(blob) + 1),
                              (huge, "more than the gate's", _HEADER.size)):
        stream = _Endless(head)
        with pytest.raises(OracleFileError, match=error):
            load_oracle(stream)
        assert stream.served <= most, error


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


@pytest.mark.parametrize("change, message", [
    ("self-loop", "edge 0: self-loop"),
    ("duplicate", "edge 1: duplicate edge"),
    ("zero weight", "edge 0: nonpositive weight 0"),
    ("endpoint", "edge 0: endpoint out of range"),
    ("no vertex", "vertex count must be positive"),
    ("no edge", "graph is disconnected"),
], ids=["self-loop", "duplicate", "zero-weight", "endpoint", "no-vertex", "no-edge"])
def test_rejects_an_invalid_stored_graph(tmp_path, change, message):
    # a re-sealed file whose stored graph is no valid graph is a bad file:
    # OracleFileError, not the GraphError of graph input, and exit 2
    blob = bytearray(oracle_file_bytes(build_oracle(gen_gnm(8, 12, 32, 7), 2, seed=1)))
    edge = _HEADER.size  # edge record 0: a u32, b u32, w u64, tie u64
    if change == "self-loop":
        blob[edge + 4:edge + 8] = blob[edge:edge + 4]
    elif change == "duplicate":
        blob[edge + 24:edge + 40] = blob[edge:edge + 16]  # edge 1's ends and weight
    elif change == "zero weight":
        blob[edge + 8:edge + 16] = bytes(8)
    elif change == "endpoint":
        blob[edge:edge + 4] = (99).to_bytes(4, "little")
    elif change == "no vertex":
        blob[8:16] = bytes(8)  # header n
    else:  # n = 2, m = 0 and no palette entries: a header and a trailer
        fields = list(_HEADER.unpack_from(blob))
        fields[3:5], fields[8] = (2, 0), 0
        blob = bytearray(_HEADER.pack(*fields) + bytes(32))
    with pytest.raises(OracleFileError, match=f"stored graph: {message}"):
        load_oracle(io.BytesIO(_reseal(blob)))
    path = tmp_path / "invalid.oracle"
    path.write_bytes(_reseal(blob))
    assert cli.main(["query", "-o", str(path), "-s", "0", "-t", "1"]) == 2


def _reseal(blob: bytearray) -> bytes:
    """Recompute the sha256 trailer, as a deliberately crafted file would."""
    body = bytes(blob[:-32])
    return body + hashlib.sha256(body).digest()


def _sections(tables) -> dict:
    """Byte offset and item width of each palette section of the tables'
    file.

    The table values are the palette codes, four or eight bytes each (the
    header's code width, the tables' itemsize).  The D*s are rows of w edge
    ids, one byte each while m < 256, read as one run: row p's slot j is
    item p * w + j.  Both sections start with pair (0, 1), the first stored.
    """
    off = _HEADER.size + tables.graph.m * 24
    return {"values": (off, tables.codes.itemsize),
            "dstar": (off + tables.codes.nbytes, tables.ids.itemsize)}


@pytest.mark.parametrize("section, value, message", [
    pytest.param("values", -1, "code out of range", id="values--1"),
    pytest.param("values", (1 << 62) + 1, "code out of range", id="values-4611686018427387905"),
    pytest.param("dstar", -1, "edge id out of range", id="dstar--1"),
    pytest.param("dstar", 4, "empty set before its end", id="dstar-4"),
    pytest.param("dstar", 5, "edge id out of range", id="dstar-5")])
def test_rejects_out_of_range_entries(oracle1_d1, wide_oracle, section, value, message):
    # g1 has n=4, m=4 and, at d=1, five failure sets; each case edits the
    # first item of its section, of pair (0, 1).  dstar-1 writes the byte
    # 0xFF, as the edge ids are one byte each, and dstar-4 writes m, the
    # pad, so pair (0, 1)'s first set reads as the empty set before its
    # palette's end.  Every 4-byte code is in range, so the codes go out of
    # range in a file of 8-byte codes
    oracle = wide_oracle if section == "values" else oracle1_d1
    blob = bytearray(oracle_file_bytes(oracle))
    off, width = _sections(oracle.tables)[section]
    blob[off:off + width] = value.to_bytes(width, "little", signed=True)
    with pytest.raises(OracleFileError, match=message):
        load_oracle(io.BytesIO(_reseal(blob)))


def test_rejects_sets_not_strictly_ascending(oracle1_d2):
    # a row of two edges, its ids swapped or repeated, or its first id moved
    # after a pad, m
    tables, m = oracle1_d2.tables, oracle1_d2.graph.m
    p = next(p for p, row in enumerate(tables.ids.tolist()) if m not in row)
    first, second = tables.ids[p].tolist()
    for row in ((second, first), (first, first), (m, first)):
        with pytest.raises(OracleFileError, match="not strictly ascending"):
            load_oracle(io.BytesIO(_edit(oracle1_d2, ("dstar", 2 * p, row))))


def _palettes(tables) -> list[range]:
    """Each pair u < v's palette entries, pairs row-major."""
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
                value.to_bytes(width, "little", signed=width == 8)  # the i8 sections
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
    last = _palettes(tables)[0][-1]  # pair (0, 1)
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
    # each pair u < v's last code raised or lowered by 1: the stored codes
    # are no longer the shortest codes, and load's certificate refuses them
    make, d, _ = PINNED[name]
    oracle = build_oracle(make(), d, seed=1)
    for palette in _palettes(oracle.tables):
        code = int(oracle.tables.codes[palette[-1]])
        for bad in (code - 1, code + 1):
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


def test_rejects_empty_set_before_a_palettes_end(oracle6_d2):
    # pair (0, 1)'s first set, not its palette's last, written as all
    # padding: the file then holds more empty sets than pairs
    tables, m = oracle6_d2.tables, oracle6_d2.graph.m
    width = tables.ids.shape[1]
    palette = _palettes(tables)[0]
    assert len(palette) > 1
    with pytest.raises(OracleFileError, match="palette holds the empty set before its end"):
        load_oracle(io.BytesIO(_edit(oracle6_d2, ("dstar", width * palette[0], (m,) * width))))


def _lie(oracle, lie: str) -> tuple[tuple[int, int], bytes]:
    """A palette change that load cannot see, and the pair u < v it changes.

    "edge-id": a one-edge set moved to an edge off its pair's tree path.
    "swapped-rows": a set and a proper subset of it, the superset first,
    swapped, so the superset, feasible only where the subset is, wins no key.
    """
    tables, m = oracle.tables, oracle.graph.m
    width, index = tables.ids.shape[1], oracle.index
    sets = [tuple(e for e in row if e < m) for row in tables.ids.tolist()]
    palettes = zip(itertools.combinations(range(oracle.graph.n), 2), _palettes(tables))
    if lie == "edge-id":
        pair, k, e = next((pair, k, e) for pair, palette in palettes for k in palette
                          if len(sets[k]) == 1 for e in range(m)
                          if not index.path_intersects(*pair, (e,)))
        return pair, _edit(oracle, ("dstar", width * k, (e,)))
    pair, i, j = next((pair, i, j) for pair, palette in palettes for i in palette
                      for j in palette if i < j and sets[j] and set(sets[j]) < set(sets[i]))
    return pair, _edit(oracle, ("dstar", width * i, tables.ids[j].tolist()),
                       ("dstar", width * j, tables.ids[i].tolist()))


@pytest.mark.parametrize("lie, message", [("edge-id", "a palette set misses the base path"),
                                          ("swapped-rows", "a palette entry wins no key")],
                         ids=["edge-id", "swapped-rows"])
def test_first_read_refuses_a_palette_no_build_makes(oracle6_d2, g6, tmp_path, monkeypatch,
                                                     lie, message):
    # the changed file loads; every query that reads no changed pair answers
    # as the build does, and the first query that reads it is refused, with
    # exit 2 in the CLI
    pair, blob = _lie(oracle6_d2, lie)
    loaded = load_oracle(io.BytesIO(blob))
    derive, derived = OracleTables._derive, []  # the loaded tables' pairs, as derived

    def spy(self, u, v):
        if self is loaded.tables:
            derived.append((min(u, v), max(u, v)))
        return derive(self, u, v)
    monkeypatch.setattr(OracleTables, "_derive", spy)
    for u, v, failed in enumerate_instances(g6, 2):
        try:
            answer = loaded.query_composite(u, v, failed)
        except PaletteError as exc:
            assert derived[-1] == pair and str(exc) == f"pair {pair}: {message}"
            break
        assert pair not in derived
        assert answer == oracle6_d2.query_composite(u, v, failed)
    else:
        pytest.fail("no query read the changed pair")
    path = tmp_path / "lie.oracle"
    path.write_bytes(blob)
    fail = [arg for e in failed for arg in ("--fail", "%d-%d" % g6.edges[e][:2])]
    assert cli.main(["query", "-o", str(path), "-s", str(u), "-t", str(v)] + fail) == 2


def test_first_read_refuses_a_pair_of_256_row_classes(monkeypatch):
    # at n = 128 a pair's 2n = 256 rows may all differ only in a palette no
    # build makes: rows (u, 1), (v, 0) and (v, 1) of a built pair (u, v)
    # admit only the empty set, as every other set hits the tree path u->v.
    # A 128-vertex path, from 1 at one end through 0 at position 64 to 127,
    # plus heavy chords (path[k], path[k + 2]); d = 1 with one-entry
    # palettes, but for pair (0, 1), whose palette lists the path edges from
    # 1's end, then the chords from 127's end.  Its rows would all differ,
    # and it loads, as load derives no pair; its first read refuses it, for
    # its sets off the path 0->1, while every other pair reads as stored
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2 ** 28, "SC_PAGE_SIZE": 4096}.__getitem__)
    n = 128
    path = [1] + list(range(2, 65)) + [0] + list(range(65, n))
    graph = Graph(n, [(path[i], path[i + 1], 1) for i in range(n - 1)]
                  + [(path[k], path[k + 2], 1000) for k in range(n - 2)])
    index = ShortestPathIndex(graph, list(range(1, graph.m + 1)))
    order = list(range(n - 1)) + list(range(graph.m - 1, n - 2, -1))  # edge ids
    pair_sizes = np.ones(n * (n - 1) // 2, dtype=np.int64)
    pair_sizes[0] = len(order) + 1  # pair (0, 1)
    base = index.codes[np.triu_indices(n, 1)].tolist()
    codes = narrow_codes(np.array([base[0] + len(order) - k for k in range(len(order))] + base))
    ids = np.array(order + [graph.m] * len(base), np.uint8).reshape(-1, 1)
    tables = OracleTables(index, 1, 1, pair_sizes, codes, ids)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(Oracle(index, tables)))).tables
    for t in (tables, loaded):
        with pytest.raises(PaletteError, match=r"pair \(0, 1\): a palette set misses"):
            t.read_block(0, 1, (0,), (1,), 0, 0)
        assert t.read_block(0, 2, (5,), (9,), 1, 0) == (base[1], set())


@pytest.mark.parametrize("change", [-1, 1])
def test_rejects_header_entry_count_that_disagrees_with_the_pair_sizes(oracle6_d2, change):
    # the pair sizes are the runs that end at the all-padding rows.  A
    # header that names one palette entry fewer, with the last code and row
    # gone, leaves one pair without its empty set; one more, with a copy of
    # the first code and row appended, leaves an entry after the last empty
    # set.  Each file is of its header's size
    tables = oracle6_d2.tables
    codes, rows = tables.codes, tables.ids
    codes, rows = (codes[:-1], rows[:-1]) if change < 0 else \
        (np.append(codes, codes[:1]), np.concatenate((rows, rows[:1])))
    blob = bytearray(oracle_file_bytes(oracle6_d2)[:_HEADER.size + 24 * oracle6_d2.graph.m])
    blob[_HEADER.size - 8:_HEADER.size] = len(codes).to_bytes(8, "little")  # the entry count
    blob += codes.tobytes() + rows.tobytes()
    with pytest.raises(OracleFileError, match="palette sizes out of range"):
        load_oracle(io.BytesIO(_reseal(blob + bytes(32))))


def test_rejects_sets_longer_than_budget(oracle1_d2):
    # g1 at d=2 stores rows of two edge ids; a header claiming d=1 names
    # rows of one, so a shorter file than this one
    with pytest.raises(OracleFileError, match="trailing data in oracle file"):
        load_oracle(io.BytesIO(_with_budget(oracle_file_bytes(oracle1_d2), 1)))


def test_rejects_budget_raised_past_the_stored_rows(oracle1_d1, tmp_path):
    # g1 (m=4) at d=1 stores rows of one edge id; re-sealed as d=2, its
    # header names rows of two, so a longer file: it is refused at load,
    # and so no query of two failures reads tables built for one
    blob = _with_budget(oracle_file_bytes(oracle1_d1), 2)
    with pytest.raises(OracleFileError, match="truncated oracle file"):
        load_oracle(io.BytesIO(blob))
    path = tmp_path / "d2.oracle"
    path.write_bytes(blob)
    assert cli.main(["query", "-o", str(path), "-s", "0", "-t", "2",
                     "--fail", "0-1", "--fail", "2-3"]) == 2


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
    # at 9, g6's pairs of more than 9 entries, such as (1, 4) with 10,
    # derive uint16 matrices and the rest uint8, built and loaded alike,
    # with the same class ids and slots.  The file stores no slots, so it
    # does not change
    narrow = oracle6_d2
    blob = oracle_file_bytes(narrow)
    pairs = list(itertools.combinations(range(g6.n), 2))
    sizes = dict(zip(pairs, narrow.tables.pair_sizes.tolist()))
    expect = {pair: narrow.tables.pair_classes(*pair) for pair in pairs}  # before the patch
    assert sizes[1, 4] == 10 and narrow.tables.slots.dtype == np.uint8
    monkeypatch.setattr(ftoracle.tables, "UINT8_ENTRIES", 9)
    wide = build_oracle(g6, d=2, seed=1)
    loaded = load_oracle(io.BytesIO(blob))
    assert oracle_file_bytes(wide) == oracle_file_bytes(loaded) == blob
    for tables in (wide.tables, loaded.tables):
        for pair in pairs:
            classes, matrix = tables.pair_classes(*pair)
            assert matrix.dtype == (np.uint16 if sizes[pair] > 9 else np.uint8)
            assert np.array_equal(classes, expect[pair][0])
            assert np.array_equal(matrix, expect[pair][1])
        assert tables.slots.dtype == np.uint16
        assert np.array_equal(tables.slots, narrow.tables.slots)
        assert logical_digest(tables) == logical_digest(narrow.tables)
    for u, v, failed in enumerate_instances(g6, 2):
        assert loaded.query_composite(u, v, failed) == narrow.query_composite(u, v, failed)


@pytest.mark.parametrize("m, id_width", [(255, 1), (256, 2)])
def test_edge_id_width_follows_m(m, id_width):
    # ids are below m and the pad is m itself: one byte holds them while
    # m < 256, two from m = 256 on
    built = build_oracle(gen_gnm(24, m, 32, 0), d=1, seed=1)
    blob = oracle_file_bytes(built)
    loaded = load_oracle(io.BytesIO(blob))
    assert oracle_file_bytes(loaded) == blob
    assert len(blob) == _layout_length(blob)
    assert built.tables.ids.itemsize == id_width
    assert built.tables.ids.max() == m  # the pad of every palette's empty set
    for name in ("slots", "pair_sizes", "codes", "ids"):
        assert getattr(loaded.tables, name).dtype == getattr(built.tables, name).dtype, name
    rng = random.Random(m)
    for e in range(m):  # every edge fails once
        u, v = rng.randrange(24), rng.randrange(24)
        assert loaded.query_composite(u, v, (e,)) == built.query_composite(u, v, (e,))
        assert loaded.query_composite(u, v) == built.query_composite(u, v)
    if id_width == 2:  # the pad 256 needs two bytes; an id above m is refused
        tables, out = built.tables, bytearray(blob)
        off = _HEADER.size + 24 * m + tables.codes.nbytes
        for value in (m + 1, 2 ** 16 - 1):
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
    # a budget whose subsets int32 can index passes the gate, and then
    # names rows of two ids, which the file does not hold
    with pytest.raises(OracleFileError, match="truncated oracle file"):
        load_oracle(io.BytesIO(_with_budget(blob, 2)))


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


def test_load_gate_charges_what_the_build_charges(oracle6_d2, monkeypatch):
    # load is charged, as the build is, the class ids and slots its tables
    # derive as they are read: at the least memory the gate admits for
    # (n, m, d) g6 builds and its file loads, and one byte fewer refuses both
    blob = oracle_file_bytes(oracle6_d2)
    graph = oracle6_d2.graph
    least = _least_memory(lambda: check_build_size(graph.n, graph.m, 2))
    assert least == _least_memory(lambda: load_oracle(io.BytesIO(blob)))
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": least, "SC_PAGE_SIZE": 1}.__getitem__)
    assert oracle_file_bytes(build_oracle(graph, 2, seed=1)) == blob
    assert oracle_file_bytes(load_oracle(io.BytesIO(blob))) == blob
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": least - 1, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(OracleFileError, match="cannot load: .* physical memory"):
        load_oracle(io.BytesIO(blob))
    with pytest.raises(BuildError, match="physical memory"):
        build_oracle(graph, 2, seed=1)


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


def test_a_tied_seed_retries_at_the_next():
    # the unit 4-cycle ties at tie seed 461 (12 of the seeds 0-4999 tie,
    # no two of them consecutive): the build draws again at 462, which the
    # tables and the file's header keep, so a load and a save reproduce
    # the file, and verify passes
    square = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    with pytest.raises(spindex.TieBreakError):
        ShortestPathIndex(square, tie_break_values(square, 461))
    assert spindex.build_index_auto(square, 461)[2] == 462
    oracle = build_oracle(square, 1, seed=461)
    assert oracle.tables.tie_seed == 462
    blob = oracle_file_bytes(oracle)
    assert _HEADER.unpack_from(blob)[6] == 462
    assert oracle_file_bytes(load_oracle(io.BytesIO(blob))) == blob
    assert verify_instance(oracle).ok


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
        _, _, width, _, _, d, _, _, entries = _HEADER.unpack_from(blob)
        off = _HEADER.size + 24 * m
        rows = np.frombuffer(blob, np.uint8, entries * max(1, min(d, m)), off + width * entries)
        # each palette's last code, at its all-padding row
        last = off + width * np.flatnonzero(rows.reshape(entries, -1)[:, 0] == m)
        codes = reference_codes(graph, [1] * m)
        for at, code in zip(last.tolist(), codes[np.triu_indices(n, 1)].tolist()):
            out[at:at + width] = code.to_bytes(width, "little")
    return _reseal(out)


@pytest.mark.parametrize("tie", [0, 8 * 4 * 4 * 4 + 1, 2 ** 64 - 1])
def test_rejects_out_of_range_tie_values(oracle1_d1, tie):
    # tie values lie in [1, 8*m*n^2], the range the codec's shift assumes
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    off = _HEADER.size + 16  # first edge record, tie field
    blob[off:off + 8] = tie.to_bytes(8, "little")
    with pytest.raises(OracleFileError, match="stored tie values: .*tie value"):
        load_oracle(io.BytesIO(_reseal(blob)))


# Seeded single-byte edits of two files, each re-sealed, and what load makes
# of each: (file, offset, byte written there, "loads" or the refusal's type
# and exact text).  "gnm8x12" is PINNED's gnm8x12-s0-d2 file, 4-byte codes,
# "wide" wide_oracle's, 8-byte codes.  Per file the offsets fall one in each
# header field and one more anywhere in the header, then ten in the edge
# records, ten in the codes and ten in the id rows; half the bytes are the
# old one +-1, half any other.  Physical memory, which the budget gate's
# text names, is fixed at 16 GiB.  Every check is pinned with the text it
# gives and the order it runs in: the first failing check names the file.
LOAD_PINS = [
    ("gnm8x12", 3, 180, "OracleFileError: not an oracle file (magic b'FTD\\xb4')"),
    ("gnm8x12", 5, 52,
     "OracleFileError: unsupported oracle file version 13323 (expected 11); rebuild the oracle"),
    ("gnm8x12", 7, 70, "OracleFileError: unsupported code width 17924 (expected 4 or 8)"),
    ("gnm8x12", 11, 149,
     "OracleFileError: cannot load: build needs about 7.27e+28 GiB for n=2499805192 m=12 d=2, "
     "more than the 16 GiB of physical memory"),
    ("gnm8x12", 23, 1,
     "OracleFileError: cannot load: failure budget d=2 with m=72057594037927948 gives more "
     "failure sets than int32 set indices can address"),
    ("gnm8x12", 29, 137, "OracleFileError: truncated oracle file: 1684 bytes, expected 3824"),
    ("gnm8x12", 33, 106, "loads"),
    ("gnm8x12", 60, 227, "OracleFileError: stored graph does not match its stored digest"),
    ("gnm8x12", 75, 210,
     "OracleFileError: oracle header names 21139293844 bytes, more than the gate's 832692"),
    ("gnm8x12", 71, 214, "OracleFileError: stored graph does not match its stored digest"),
    ("gnm8x12", 123, 255,
     "OracleFileError: stored tie values: edge 1: tie value 4278194743 outside [1, 6144]"),
    ("gnm8x12", 158, 1, "OracleFileError: stored graph: edge 3: endpoint out of range: 5 65536"),
    ("gnm8x12", 257, 1, "OracleFileError: stored graph does not match its stored digest"),
    ("gnm8x12", 130, 39,
     "OracleFileError: stored graph: edge 2: endpoint out of range: 2555905 2"),
    ("gnm8x12", 257, 255, "OracleFileError: stored graph does not match its stored digest"),
    ("gnm8x12", 243, 175,
     "OracleFileError: stored tie values: edge 6: tie value 2936016483 outside [1, 6144]"),
    ("gnm8x12", 193, 2,
     "OracleFileError: palette does not end with the empty set at its pair's base code"),
    ("gnm8x12", 176, 255, "OracleFileError: stored graph: edge 4: endpoint out of range: 255 3"),
    ("gnm8x12", 115, 66, "OracleFileError: stored graph does not match its stored digest"),
    ("gnm8x12", 248, 0, "OracleFileError: stored graph: edge 7: duplicate edge 0-3"),
    ("gnm8x12", 986, 107, "OracleFileError: palette codes not in descending order"),
    ("gnm8x12", 990, 20, "OracleFileError: palette codes not in descending order"),
    ("gnm8x12", 807, 175, "OracleFileError: palette codes not in descending order"),
    ("gnm8x12", 1018, 136, "OracleFileError: palette codes not in descending order"),
    ("gnm8x12", 459, 1, "OracleFileError: palette codes not in descending order"),
    ("gnm8x12", 433, 101,
     "OracleFileError: palette does not end with the empty set at its pair's base code"),
    ("gnm8x12", 1077, 46,
     "OracleFileError: palette does not end with the empty set at its pair's base code"),
    ("gnm8x12", 1212, 4, "OracleFileError: palette codes not in descending order"),
    ("gnm8x12", 710, 254, "loads"),
    ("gnm8x12", 1630, 2, "loads"),
    ("gnm8x12", 1577, 176, "OracleFileError: palette edge id out of range"),
    ("gnm8x12", 1553, 128, "OracleFileError: palette edge id out of range"),
    ("gnm8x12", 1650, 11, "OracleFileError: palette sizes out of range"),
    ("gnm8x12", 1444, 4, "loads"),
    ("gnm8x12", 1226, 3, "OracleFileError: palette set not strictly ascending"),
    ("gnm8x12", 1340, 0, "loads"),
    ("gnm8x12", 1396, 8, "OracleFileError: palette set not strictly ascending"),
    ("gnm8x12", 1360, 13, "OracleFileError: palette edge id out of range"),
    ("gnm8x12", 1632, 3, "loads"),
    ("wide", 1, 253, "OracleFileError: not an oracle file (magic b'F\\xfdDO')"),
    ("wide", 4, 10,
     "OracleFileError: unsupported oracle file version 10 (expected 11); rebuild the oracle"),
    ("wide", 6, 9, "OracleFileError: unsupported code width 9 (expected 4 or 8)"),
    ("wide", 11, 175,
     "OracleFileError: cannot load: build needs about 1.38e+29 GiB for n=2936012810 m=18 d=2, "
     "more than the 16 GiB of physical memory"),
    ("wide", 20, 1,
     "OracleFileError: cannot load: failure budget d=2 with m=4294967314 gives more failure "
     "sets than int32 set indices can address"),
    ("wide", 30, 251, "OracleFileError: truncated oracle file: 4774 bytes, expected 11542"),
    ("wide", 39, 29, "loads"),
    ("wide", 61, 199, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 77, 254,
     "OracleFileError: oracle header names 2792759534555814 bytes, more than the gate's 2177704"),
    ("wide", 49, 229, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 222, 113,
     "OracleFileError: stored tie values: edge 5: tie value 31806672368305162 outside [1, 14400]"),
    ("wide", 286, 252, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 436, 255,
     "OracleFileError: stored tie values: edge 14: tie value 1095216673403 outside [1, 14400]"),
    ("wide", 83, 239,
     "OracleFileError: stored graph: edge 0: endpoint out of range: 4009754631 8"),
    ("wide", 138, 218, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 94, 135, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 355, 79, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 212, 213, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 96, 153,
     "OracleFileError: palette does not end with the empty set at its pair's base code"),
    ("wide", 324, 2, "OracleFileError: stored graph does not match its stored digest"),
    ("wide", 3280, 221, "loads"),
    ("wide", 3848, 143, "OracleFileError: palette codes not in descending order"),
    ("wide", 1239, 72, "OracleFileError: palette code out of range"),
    ("wide", 1934, 1, "OracleFileError: palette code out of range"),
    ("wide", 3034, 54, "OracleFileError: palette codes not in descending order"),
    ("wide", 1739, 138, "loads"),
    ("wide", 2016, 102, "OracleFileError: palette codes not in descending order"),
    ("wide", 2351, 1, "loads"),
    ("wide", 3730, 141, "loads"),
    ("wide", 3761, 99, "loads"),
    ("wide", 4676, 8, "loads"),
    ("wide", 4560, 227, "OracleFileError: palette edge id out of range"),
    ("wide", 4093, 8, "loads"),
    ("wide", 4678, 9, "OracleFileError: palette set not strictly ascending"),
    ("wide", 4674, 189, "OracleFileError: palette edge id out of range"),
    ("wide", 3926, 11, "loads"),
    ("wide", 4344, 186, "OracleFileError: palette edge id out of range"),
    ("wide", 4068, 13, "loads"),
    ("wide", 4377, 152, "OracleFileError: palette edge id out of range"),
    ("wide", 3909, 187, "OracleFileError: palette edge id out of range"),
]


@pytest.mark.parametrize("name, offset, byte, expected", LOAD_PINS,
                         ids=[f"{name}-{offset}-{byte}" for name, offset, byte, _ in LOAD_PINS])
def test_load_pins(wide_oracle, monkeypatch, name, offset, byte, expected):
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1 << 22, "SC_PAGE_SIZE": 4096}.__getitem__)
    if name == "wide":
        oracle = wide_oracle
    else:
        make, d = PINNED["gnm8x12-s0-d2"][:2]
        oracle = build_oracle(make(), d, seed=1)
    blob = bytearray(oracle_file_bytes(oracle))
    assert blob[offset] != byte
    blob[offset] = byte
    try:
        load_oracle(io.BytesIO(_reseal(blob)))
        outcome = "loads"
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    assert outcome == expected
