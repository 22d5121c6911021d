"""Binary oracle files: everything needed to answer queries without rebuilding.

Layout, version 10 (all integers little-endian):

    header   magic "FTDO", version u16, code width C u16 (4 or 8), n u64,
             m u64, d u64, tie seed i64, sha256 of the canonical graph
             text, palette entries P u64, palette edge ids I u64
    edges    m x (a u32, b u32, w u64, tie value u64)
    pairs    n(n-1)/2 palette sizes i64, one per pair u < v
    codes    P packed length codes of C bytes, palette by palette
    ids      I edge ids, u8 when m <= 256, else u16, each entry's D*
             ascending, entry by entry
    sizes    P set sizes u8, one per palette entry
    trailer  sha256 of everything before it

Every section numbers the pairs u < v row-major.  A pair's palette holds
the distinct winners of row (u, v)'s 4n^2 keys as (code, D*), in rank
order: codes descending, ties in failure-set order.  Row (v, u) has the
same winners, so each pair u < v stores its palette once, and every key
of a diagonal row holds the empty set at distance 0, so no part of one is
stored.  No key's slot into its palette is stored: a key's winner is the
first entry of its pair's palette whose D* meets the key's constraint, and
the tables derive a pair's slots on its first read (tables.OracleTables),
for a built oracle as for a loaded one.  C is 4 (2^32 - 1 for
unreachable) when every finite code is below 2^32 - 1, else 8.  The
build's tables hold the codes (tables.narrow_codes), ids and set sizes
(tables.palette_dtypes, by m) at these widths.  Every section's size
follows from the header, and the sections before the codes are multiples
of 8 bytes, so each palette array loads as an aligned zero-copy view, and
the palettes in memory are these sections.  No layout depends on d, and
sets are edge ids, so load never enumerates failure sets.  The length
codec and the shortest-path index are derived, not stored; the base codes
are each palette's last code, and a vertex's own is 0.  Load range-checks
the tie values and certifies those codes on the stored graph with the
build's own certificate (from_arrays, which computes none), so the index
cannot disagree with the graph, and a file whose tie values leave two
shortest paths tied is refused; each root's tree is derived on its first
query from the tree arcs the certificate kept.  Before reading past the
header, load runs the build's budget gate, check_build_size, which
charges what the tables derive as they are read.  Each palette's codes
must not increase, its last entry must be the empty set at its pair's
base code, and no other entry may be empty.  Other versions, such as
version 9, fail with a version error, and so does a code width but 4 or
8, or i8 codes that fit u4.  Saving the same build twice is
byte-identical, and a load followed by a save reproduces the file
exactly.
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
from .tables import OracleTables, check_build_size, narrow_codes, palette_dtypes, wide_codes

MAGIC = b"FTDO"
VERSION = 10
_HEADER = struct.Struct("<4sHHQQQq32sQQ")
_EDGE = np.dtype([("a", "<u4"), ("b", "<u4"), ("w", "<u8"), ("tie", "<u8")])
_TRAILER = hashlib.sha256().digest_size
_NOT_BASE = "palette does not end with the empty set at its pair's base code"


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
    id_type, size_type = palette_dtypes(graph.m)
    digest = hashlib.sha256()
    for part in (_HEADER.pack(MAGIC, VERSION, tables.codes.itemsize, graph.n, graph.m, tables.d,
                              tables.tie_seed, bytes.fromhex(graph.digest()), tables.codes.size,
                              tables.ids.size),
                 edges.tobytes(),
                 tables.pair_sizes.astype("<i8", copy=False).tobytes(),
                 tables.codes.astype(tables.codes.dtype.newbyteorder("<"), copy=False).tobytes(),
                 tables.ids.astype(id_type, copy=False).tobytes(),
                 tables.set_sizes.astype(size_type, copy=False).tobytes()):
        digest.update(part)
        target.write(part)
    target.write(digest.digest())


def load_oracle(source: str | BinaryIO, graph: Graph | None = None) -> Oracle:
    """Load an oracle; if a graph is given its digest must match the file."""
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return load_oracle(fh, graph)
    blob = source.read()
    if len(blob) < _HEADER.size:
        raise OracleFileError("truncated oracle file while reading header")
    magic, version, code_width, n, m, d, tie_seed, digest, entries, id_count = \
        _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise OracleFileError(f"not an oracle file (magic {magic!r})")
    if version != VERSION:
        raise OracleFileError(f"unsupported oracle file version {version} "
                              f"(expected {VERSION}); rebuild the oracle")
    if code_width not in (4, 8):
        raise OracleFileError(f"unsupported code width {code_width} (expected 4 or 8)")
    try:
        check_build_size(n, m, d)
    except BuildError as exc:
        raise OracleFileError(f"cannot load: {exc}") from None
    offset = _HEADER.size + m * _EDGE.itemsize
    pairs = n * (n - 1) // 2  # pairs u < v
    id_type, size_type = palette_dtypes(m)
    ids_at = offset + 8 * pairs + code_width * entries
    sizes_at = ids_at + id_type.itemsize * id_count
    size = sizes_at + entries + _TRAILER
    if len(blob) != size:
        what = "truncated" if len(blob) < size else "trailing data in"
        raise OracleFileError(f"{what} oracle file: {len(blob)} bytes, expected {size}")
    if hashlib.sha256(memoryview(blob)[:-_TRAILER]).digest() != blob[-_TRAILER:]:
        raise OracleFileError("oracle file does not match its sha256 digest trailer")

    edges = np.frombuffer(blob, _EDGE, m, _HEADER.size)
    g = Graph(n, list(zip(edges["a"].tolist(), edges["b"].tolist(),
                          edges["w"].tolist())))
    g.validate()
    if g.digest() != digest.hex():
        raise OracleFileError("stored graph does not match its stored digest")
    if graph is not None and graph.digest() != digest.hex():
        raise OracleFileError("oracle file was built for a different graph")

    pair_sizes = np.frombuffer(blob, "<i8", pairs, offset)
    codes = np.frombuffer(blob, "<u4" if code_width == 4 else "<i8", entries, offset + 8 * pairs)
    ids = np.frombuffer(blob, id_type, id_count, ids_at)
    set_sizes = np.frombuffer(blob, size_type, entries, sizes_at)
    if (pair_sizes.min(initial=1) < 1 or pair_sizes.max(initial=0) > 4 * n * n
            or pair_sizes.sum() != entries):
        raise OracleFileError("palette sizes out of range")
    if codes.min(initial=0) < 0 or codes.max(initial=0) > LengthCodec.unreachable_code:
        raise OracleFileError("palette code out of range")
    if code_width == 8 and narrow_codes(codes) is not codes:  # one file per build
        raise OracleFileError("8-byte palette codes whose finite values fit in 4 bytes")
    if set_sizes.max(initial=0) > min(d, m) or set_sizes.sum() != id_count:
        raise OracleFileError("palette set size out of range")
    if ids.size and ids.max() >= m:
        raise OracleFileError("palette edge id out of range")
    rising = np.empty(id_count, dtype=bool)  # above the id before it, or starts a set
    np.greater(ids[1:], ids[:-1], out=rising[1:])
    rising[(np.cumsum(set_sizes) - set_sizes)[set_sizes > 0]] = True
    if not rising.all():
        raise OracleFileError("palette set not strictly ascending")
    last = np.cumsum(pair_sizes) - 1  # each palette's last entry
    climbs = codes[1:] > codes[:-1]
    climbs[last[:-1]] = False  # from one palette to the next
    if climbs.any():
        raise OracleFileError("palette codes not in descending order")
    base = np.zeros((n, n), dtype=np.int64)  # each pair's last code, mirrored; own codes 0
    base[np.less.outer(range(n), range(n))] = wide_codes(codes[last])
    base += base.T
    if set_sizes[last].any():
        raise OracleFileError(_NOT_BASE)
    try:
        index = ShortestPathIndex.from_arrays(g, edges["tie"].tolist(), base)
    except (GraphError, TieBreakError) as exc:
        raise OracleFileError(f"stored tie values: {exc}") from None
    except CodeError:
        raise OracleFileError(_NOT_BASE) from None
    if np.count_nonzero(set_sizes) != entries - pairs:
        raise OracleFileError("palette holds the empty set before its end")
    return Oracle(index, OracleTables(index, d, tie_seed, pair_sizes, codes, set_sizes, ids))


def oracle_file_bytes(oracle: Oracle) -> bytes:
    """Serialized form in memory (used for size reporting and tests)."""
    buf = io.BytesIO()
    save_oracle(oracle, buf)
    return buf.getvalue()
