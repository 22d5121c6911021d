"""Binary oracle files: everything needed to answer queries without rebuilding.

Layout, version 11 (all integers little-endian):

    header   magic "FTDO", version u16, code width C u16 (4 or 8), n u64,
             m u64, d u64, tie seed i64, sha256 of the canonical graph
             text, palette entries P u64
    edges    m x (a u32, b u32, w u64, tie value u64)
    codes    P packed length codes of C bytes, palette by palette
    rows     P rows of w = max(1, min(d, m)) edge ids, u8 while m < 256,
             else u16: each entry's D* ascending, then padded with m
    trailer  sha256 of everything before it

The palettes come one per pair u < v, pairs row-major.  A pair's palette
holds the distinct winners of row (u, v)'s 4n^2 keys as (code, D*), in
rank order: codes descending, ties in failure-set order.  Row (v, u) has
the same winners, so each pair u < v stores its palette once, and every
key of a diagonal row holds the empty set at distance 0, so no part of
one is stored.  No key's slot into its palette is stored: a key's winner
is the first entry of its pair's palette whose D* meets the key's
constraint, and the tables derive a pair's slots on its first read
(tables.OracleTables), for a built oracle as for a loaded one.  No
palette's size and no set's size is stored either: each palette ends at
its one all-padding row, the empty set at its pair's base code, so the
positions of those rows give the palette sizes and the codes there the
base codes, and a set is its row's ids below m.  C is 4 (2^32 - 1 for
unreachable) when every finite code is below 2^32 - 1, else 8.  The
build's tables hold the codes (tables.narrow_codes) and rows
(tables.palette_id_dtype, by m) at these widths.  Every section's size
follows from the header, the header and edges are multiples of 8 bytes
and the codes of 4 or 8, so both palette arrays load as aligned
zero-copy views, and the palettes in memory are these sections.  Only
the rows' width depends on d, so a header whose d changes min(d, m)
names a file of another length, and sets are edge ids, so load never
enumerates failure sets.  The length codec and the shortest-path index
are derived, not stored; a vertex's own base code is 0.  Load
range-checks the tie values and certifies the base codes on the stored
graph with the build's own certificate (from_arrays, which computes
none), so the index cannot disagree with the graph, and a file whose tie
values leave two shortest paths tied is refused; each root's tree is
derived on its first query from the tree arcs the certificate kept.
Before reading past the header, load runs the build's budget gate,
check_build_size, which charges what the tables derive as they are read.
It refuses a header that names a larger file than the gate charges, then
reads the size the header names and one byte more, so neither an endless
stream nor trailing data is read to its end.
No id may pass m, and each row's ids must ascend before its first pad
and be pads after it, n(n-1)/2 rows must be all padding, the last row
among them, each palette must hold at most 4n^2 entries, and its codes
must not increase; a pair's first read refuses a palette no build stores
(tables.PaletteError).  Other versions, such as version 10, fail with a
version error, and so does a code width but 4 or 8, or i8 codes that fit
u4.  Saving the same build twice is byte-identical, and a load followed
by a save reproduces the file exactly.
"""
from __future__ import annotations

import hashlib
import io
import struct
from typing import BinaryIO

import numpy as np

from .graph import Graph, GraphError
from .query import Oracle
from .spindex import BuildError, CodeError, LengthCodec, ShortestPathIndex, TieBreakError
from .tables import OracleTables, check_build_size, narrow_codes, palette_id_dtype, wide_codes

MAGIC = b"FTDO"
VERSION = 11
_HEADER = struct.Struct("<4sHHQQQq32sQ")
_EDGE = np.dtype([("a", "<u4"), ("b", "<u4"), ("w", "<u8"), ("tie", "<u8")])
_TRAILER = hashlib.sha256().digest_size


class OracleFileError(ValueError):
    """Corrupt, truncated or mismatched oracle file."""


def save_oracle(oracle: Oracle, target: str | BinaryIO) -> None:
    """Serialize an oracle to a path or binary file object."""
    if isinstance(target, str):
        with open(target, "wb") as fh:
            save_oracle(oracle, fh)
        return
    graph, index, tables = oracle.graph, oracle.index, oracle.tables
    edges = np.array([(a, b, w, t) for (a, b, w), t in zip(graph.edges, index.tie)],
                     dtype=_EDGE)
    digest = hashlib.sha256()
    for part in (_HEADER.pack(MAGIC, VERSION, tables.codes.itemsize, graph.n, graph.m, tables.d,
                              tables.tie_seed, bytes.fromhex(graph.digest()), tables.codes.size),
                 edges.tobytes(),
                 tables.codes.astype(tables.codes.dtype.newbyteorder("<"), copy=False).tobytes(),
                 tables.ids.astype(palette_id_dtype(graph.m), copy=False).tobytes()):
        digest.update(part)
        target.write(part)
    target.write(digest.digest())


def load_oracle(source: str | BinaryIO, graph: Graph | None = None) -> Oracle:
    """Load an oracle; if a graph is given its digest must match the file."""
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return load_oracle(fh, graph)
    blob = source.read(_HEADER.size)
    if len(blob) < _HEADER.size:
        raise OracleFileError("truncated oracle file while reading header")
    magic, version, code_width, n, m, d, tie_seed, digest, entries = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise OracleFileError(f"not an oracle file (magic {magic!r})")
    if version != VERSION:
        raise OracleFileError(f"unsupported oracle file version {version} "
                              f"(expected {VERSION}); rebuild the oracle")
    if code_width not in (4, 8):
        raise OracleFileError(f"unsupported code width {code_width} (expected 4 or 8)")
    try:
        need = check_build_size(n, m, d)
    except BuildError as exc:
        raise OracleFileError(f"cannot load: {exc}") from None
    offset = _HEADER.size + m * _EDGE.itemsize
    pairs = n * (n - 1) // 2  # pairs u < v
    id_type, width = palette_id_dtype(m), max(1, min(d, m))
    rows_at = offset + code_width * entries
    size = rows_at + id_type.itemsize * width * entries + _TRAILER
    if size > need:  # no file the gate admits is larger than what it charges
        raise OracleFileError(f"oracle header names {size} bytes, more than the gate's {need}")
    blob += source.read(size - _HEADER.size)  # the named size, then one byte: no read to EOF
    if len(blob) < size:
        raise OracleFileError(f"truncated oracle file: {len(blob)} bytes, expected {size}")
    if source.read(1):
        raise OracleFileError(f"trailing data in oracle file: more than the {size} bytes expected")
    if hashlib.sha256(memoryview(blob)[:-_TRAILER]).digest() != blob[-_TRAILER:]:
        raise OracleFileError("oracle file does not match its sha256 digest trailer")

    edges = np.frombuffer(blob, _EDGE, m, _HEADER.size)
    g = Graph(n, list(zip(edges["a"].tolist(), edges["b"].tolist(),
                          edges["w"].tolist())))
    try:
        g.validate()
    except GraphError as exc:
        raise OracleFileError(f"stored graph: {exc}") from None
    if g.digest() != digest.hex():
        raise OracleFileError("stored graph does not match its stored digest")
    if graph is not None and graph.digest() != digest.hex():
        raise OracleFileError("oracle file was built for a different graph")

    codes = np.frombuffer(blob, "<u4" if code_width == 4 else "<i8", entries, offset)
    rows = np.frombuffer(blob, id_type, width * entries, rows_at).reshape(entries, width)
    if codes.min(initial=0) < 0 or codes.max(initial=0) > LengthCodec.unreachable_code:
        raise OracleFileError("palette code out of range")
    if code_width == 8 and narrow_codes(codes) is not codes:  # one file per build
        raise OracleFileError("8-byte palette codes whose finite values fit in 4 bytes")
    if rows.max(initial=0) > m:
        raise OracleFileError("palette edge id out of range")
    # each id above the one before it, or a pad: then every id after it is one
    if not ((rows[:, 1:] > rows[:, :-1]) | (rows[:, 1:] == m)).all():
        raise OracleFileError("palette set not strictly ascending")
    last = np.flatnonzero(rows[:, 0] == m)  # the all-padding rows, each palette's last
    if len(last) > pairs:
        raise OracleFileError("palette holds the empty set before its end")
    pair_sizes = np.diff(last, prepend=-1)
    if len(last) < pairs or pair_sizes.sum() != entries or pair_sizes.max(initial=0) > 4 * n * n:
        raise OracleFileError("palette sizes out of range")
    climbs = codes[1:] > codes[:-1]
    climbs[last[:-1]] = False  # from one palette to the next
    if climbs.any():
        raise OracleFileError("palette codes not in descending order")
    base = np.zeros((n, n), dtype=np.int64)  # each pair's last code, mirrored; own codes 0
    base[np.less.outer(range(n), range(n))] = wide_codes(codes[last])
    base += base.T
    try:
        index = ShortestPathIndex.from_arrays(g, edges["tie"].tolist(), base)
    except (GraphError, TieBreakError) as exc:
        raise OracleFileError(f"stored tie values: {exc}") from None
    except CodeError:
        raise OracleFileError("palette does not end with the empty set at its pair's "
                              "base code") from None
    return Oracle(index, OracleTables(index, d, tie_seed, pair_sizes, codes, rows))


def oracle_file_bytes(oracle: Oracle) -> bytes:
    """Serialized form in memory (used for size reporting and tests)."""
    buf = io.BytesIO()
    save_oracle(oracle, buf)
    return buf.getvalue()
