"""Binary oracle files: everything needed to answer queries without rebuilding.

Layout, version 9 (all integers little-endian):

    header   magic "FTDO", version u16, slot width W u8 (1 or 2), code
             width C u8 (4 or 8), n u64, m u64, d u64, tie seed i64, sha256
             of the canonical graph text, palette entries P u64, palette
             edge ids I u64, matrix slots S u64
    edges    m x (a u32, b u32, w u64, tie value u64)
    pairs    n(n-1)/2 palette sizes i64, one per pair u < v
    codes    P packed length codes of C bytes, palette by palette
    ids      I edge ids, u8 when m <= 256, else u16, each entry's D*
             ascending, entry by entry
    sizes    P set sizes u8, one per palette entry
    classes  n(n-1)/2 x 4n class ids u8, pair by pair: the 2n row classes
             of (u', b1) at 2u' + b1, then the 2n column classes of
             (v', b2) at 2v' + b2
    matrices S palette slots of W bytes, each pair's ku x kv matrix
             row-major, pair by pair
    trailer  sha256 of everything before it

Every section numbers the pairs u < v row-major.  A pair's slots, the 4n^2
keys of row (u, v) as a 2n x 2n matrix, are stored as class ids and a
matrix of the distinct rows and columns (tables.OracleTables): key (u, v,
u', v', b1, b2) holds the matrix's slot at (row class of (u', b1), column
class of (v', b2)).  Classes are numbered in order of first appearance, so
ku and kv are the ids' maxima plus one, and no two classes of a pair have
equal rows or columns, so the encoding is canonical.  Row (v, u) is row
(u, v) with its u' and v' axes and its b1 and b2 axes swapped, and it uses
the same palette, so each pair u < v stores its row once.  Every key of a
diagonal row holds the empty set at distance 0, so no part of one is
stored.  W is 1 when every palette has at most 256 entries, else 2; C is 4
(2^32 - 1 for unreachable) when every finite code is below 2^32 - 1, else
8.  The build's tables hold the codes (tables.narrow_codes), ids and set
sizes (tables.palette_dtypes, by m) at these widths.  Every section's size
follows from the header, and the sections before the codes are multiples
of 8 bytes, so each palette array loads as an aligned zero-copy view.  The
class ids and matrices load as views too, and the tables in memory are
these sections; only 2-byte matrices at an odd offset are copied.  No
layout depends on d, and sets are edge ids, so load never enumerates
failure sets.  The length codec and the shortest-path index are derived,
not stored; the base codes are each palette's last code, and a vertex's
own is 0.  Load range-checks the tie values and certifies those codes on
the stored graph with the build's own certificate (from_arrays, which
computes none), so the index cannot disagree with the graph, and a file
whose tie values leave two shortest paths tied is refused; each root's
tree is derived on its first query from the tree arcs the certificate
kept.  Before reading past the header, load runs the build's budget gate,
check_build_size, charged for the header's S matrix slots.  Each palette's
codes must not increase, its last entry must be the empty set at its
pair's base code, and no other entry may be empty.  Class ids must come in
order of first appearance, the header's S must be the sum of ku * kv, and
every matrix slot must lie below its pair's palette size.  Other versions,
such as version 8, fail with a version error, and so does a slot width but
1 or 2, a code width but 4 or 8, or i8 codes that fit u4.  Saving the same
build twice is byte-identical, and a load followed by a save reproduces
the file exactly.
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
VERSION = 9
_HEADER = struct.Struct("<4sHBBQQQq32sQQQ")
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
    width = tables.matrices.itemsize
    id_type, size_type = palette_dtypes(graph.m)
    digest = hashlib.sha256()
    for part in (_HEADER.pack(MAGIC, VERSION, width, tables.codes.itemsize, graph.n, graph.m,
                              tables.d, tables.tie_seed, bytes.fromhex(graph.digest()),
                              tables.codes.size, tables.ids.size, tables.matrices.size),
                 edges.tobytes(),
                 tables.pair_sizes.astype("<i8", copy=False).tobytes(),
                 tables.codes.astype(tables.codes.dtype.newbyteorder("<"), copy=False).tobytes(),
                 tables.ids.astype(id_type, copy=False).tobytes(),
                 tables.set_sizes.astype(size_type, copy=False).tobytes(),
                 tables.classes.tobytes(),
                 tables.matrices.astype(f"<u{width}", copy=False).tobytes()):
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
    magic, version, width, code_width, n, m, d, tie_seed, digest, entries, id_count, stored = \
        _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise OracleFileError(f"not an oracle file (magic {magic!r})")
    if version != VERSION:
        raise OracleFileError(f"unsupported oracle file version {version} "
                              f"(expected {VERSION}); rebuild the oracle")
    if width not in (1, 2):
        raise OracleFileError(f"unsupported slot width {width} (expected 1 or 2)")
    if code_width not in (4, 8):
        raise OracleFileError(f"unsupported code width {code_width} (expected 4 or 8)")
    try:
        check_build_size(n, m, d, width * stored)
    except BuildError as exc:
        raise OracleFileError(f"cannot load: {exc}") from None
    offset = _HEADER.size + m * _EDGE.itemsize
    pairs = n * (n - 1) // 2  # pairs u < v
    id_type, size_type = palette_dtypes(m)
    ids_at = offset + 8 * pairs + code_width * entries
    sizes_at = ids_at + id_type.itemsize * id_count
    classes_at = sizes_at + entries
    slots_at = classes_at + 4 * n * pairs
    size = slots_at + width * stored + _TRAILER
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
    classes = np.frombuffer(blob, np.uint8, 4 * n * pairs, classes_at).reshape(pairs, 2, 2 * n)
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
    # the running maximum stays below 2n - 1 up to a first violation
    seen = np.maximum.accumulate(classes, axis=2)
    if classes[:, :, 0].any() or (classes[:, :, 1:] > seen[:, :, :-1] + 1).any():
        raise OracleFileError("class ids not in order of first appearance")
    # copied only if unaligned, which a memoryview cannot index
    matrices = np.require(np.frombuffer(blob, f"<u{width}", stored, slots_at), requirements="A")
    tables = OracleTables(g, d, tie_seed, index.codec, matrices, classes, pair_sizes, codes,
                          set_sizes, ids)
    bounds = tables.matrix_bounds
    if bounds[-1] != stored:
        raise OracleFileError(f"header names {stored} matrix slots, the class ids "
                              f"{bounds[-1]}")
    if pairs and (np.maximum.reduceat(matrices, bounds[:-1]) >= pair_sizes).any():
        raise OracleFileError("palette slot out of range")
    return Oracle(index, tables)


def oracle_file_bytes(oracle: Oracle) -> bytes:
    """Serialized form in memory (used for size reporting and tests)."""
    buf = io.BytesIO()
    save_oracle(oracle, buf)
    return buf.getvalue()
