"""Binary oracle files: everything needed to answer queries without rebuilding.

Layout, version 2 (all integers little-endian):

    header   magic "FTDO", version u16, 2 zero bytes, n u64, m u64, d u64,
             tie seed i64, sha256 of the canonical graph text
    edges    m x (a u32, b u32, w u64, tie value u64)
    index    n*n x (true_len u64, tie_key u64, parent i32, parent edge i32),
             row-major by (root, vertex); -1 encodes "none"
    values   4*n^4 packed length codes i64 in (u, v, u', v', b1, b2) order
    dstar    4*n^4 indices i32 into enumerate_failure_sets(m, d), same order
    trailer  sha256 of everything before it

Every section's size follows from the header, and every section is a
multiple of 8 bytes, so the two table arrays load as aligned zero-copy
views.  The length codec, the subset list and the tree intervals are
derived, not stored.  The index section holds the index's packed base
distances split into their two fields; load range-checks each field (and
every tie value) before packing, so no stored pair can alias another
length.  Before it enumerates the subsets a header's d names, load runs
the same physical-memory check as a build.  Saving the same build twice is
byte-identical, and a load followed by a save reproduces the file exactly.
"""
from __future__ import annotations

import hashlib
import io
import struct
from typing import BinaryIO

import numpy as np

from .graph import Graph
from .query import Oracle
from .spindex import BuildError, ShortestPathIndex, length_codec
from .tables import (OracleTables, check_build_size, enumerate_failure_sets,
                     failure_set_count)

MAGIC = b"FTDO"
VERSION = 2
_HEADER = struct.Struct("<4sH2xQQQq32s")
_EDGE = np.dtype([("a", "<u4"), ("b", "<u4"), ("w", "<u8"), ("tie", "<u8")])
_PAIR = np.dtype([("tl", "<u8"), ("tk", "<u8"),
                  ("parent", "<i4"), ("parent_eid", "<i4")])
_ENTRY_BYTES = 8 + 4
_TRAILER = hashlib.sha256().digest_size
_MAX_SUBSETS = 2 ** 31  # dstar_idx is int32


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
    pairs = np.empty(graph.n * graph.n, dtype=_PAIR)
    codes = index.codes.ravel()
    pairs["tl"] = codes >> index.codec.shift
    pairs["tk"] = codes & index.codec.mask
    pairs["parent"] = np.ravel(index._parent)
    pairs["parent_eid"] = np.ravel(index._parent_eid)
    digest = hashlib.sha256()
    for part in (_HEADER.pack(MAGIC, VERSION, graph.n, graph.m, tables.d,
                              tables.tie_seed, bytes.fromhex(tables.graph_digest)),
                 edges.tobytes(), pairs.tobytes(),
                 tables.values.astype("<i8", copy=False).tobytes(),
                 tables.dstar_idx.astype("<i4", copy=False).tobytes()):
        digest.update(part)
        target.write(part)
    target.write(digest.digest())


def _file_size(n: int, m: int) -> int:
    return (_HEADER.size + m * _EDGE.itemsize + n * n * _PAIR.itemsize +
            4 * n ** 4 * _ENTRY_BYTES + _TRAILER)


def load_oracle(source: str | BinaryIO, graph: Graph | None = None) -> Oracle:
    """Load an oracle; if a graph is given its digest must match the file."""
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return load_oracle(fh, graph)
    blob = source.read()
    if len(blob) < _HEADER.size:
        raise OracleFileError("truncated oracle file while reading header")
    magic, version, n, m, d, tie_seed, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise OracleFileError(f"not an oracle file (magic {magic!r})")
    if version != VERSION:
        raise OracleFileError(f"unsupported oracle file version {version} "
                              f"(expected {VERSION}); rebuild the oracle")
    size = _file_size(n, m)
    if len(blob) != size:
        what = "truncated" if len(blob) < size else "trailing data in"
        raise OracleFileError(f"{what} oracle file: {len(blob)} bytes, expected {size}")
    if hashlib.sha256(memoryview(blob)[:-_TRAILER]).digest() != blob[-_TRAILER:]:
        raise OracleFileError("oracle file does not match its sha256 digest trailer")
    if d < 1:
        raise OracleFileError(f"failure budget d={d} out of range")
    if failure_set_count(m, d, _MAX_SUBSETS) > _MAX_SUBSETS:
        raise OracleFileError(f"failure budget d={d} with m={m} gives more failure "
                              f"sets than int32 set indices can address")
    try:
        check_build_size(n, m, d)
    except BuildError as exc:
        raise OracleFileError(f"cannot load: {exc}") from None

    edges = np.frombuffer(blob, _EDGE, m, _HEADER.size)
    g = Graph(n, list(zip(edges["a"].tolist(), edges["b"].tolist(),
                          edges["w"].tolist())))
    g.validate()
    if g.digest() != digest.hex():
        raise OracleFileError("stored graph does not match its stored digest")
    if graph is not None and graph.digest() != digest.hex():
        raise OracleFileError("oracle file was built for a different graph")

    pairs = np.frombuffer(blob, _PAIR, n * n, _HEADER.size + m * _EDGE.itemsize)
    parent, parent_eid = pairs["parent"], pairs["parent_eid"]
    if parent.min() < -1 or parent.max() >= n or \
            parent_eid.min() < -1 or parent_eid.max() >= m:
        raise OracleFileError("tree arrays out of range")
    # packing a field past its width would alias another length
    codec = length_codec(g)
    tl, tk = pairs["tl"], pairs["tk"]
    if tl.max() > codec.max_len or tk.max() > codec.mask:
        raise OracleFileError("tree index lengths out of range")
    codes = (tl.astype(np.int64) << codec.shift) | tk.astype(np.int64)
    index = ShortestPathIndex.from_arrays(
        g, edges["tie"].tolist(), codes.reshape(n, n),
        parent.reshape(n, n).tolist(), parent_eid.reshape(n, n).tolist())

    subsets = enumerate_failure_sets(m, d)
    count = 4 * n ** 4
    offset = size - _TRAILER - count * _ENTRY_BYTES
    shape = (n, n, n, n, 2, 2)
    values = np.frombuffer(blob, "<i8", count, offset).reshape(shape)
    dstar_idx = np.frombuffer(blob, "<i4", count, offset + count * 8).reshape(shape)
    if values.min() < 0 or values.max() > index.codec.unreachable_code or \
            dstar_idx.min() < 0 or dstar_idx.max() >= len(subsets):
        raise OracleFileError("table entry out of range")
    return Oracle(index, OracleTables(g, d, tie_seed, index.codec, values,
                                      dstar_idx, subsets))


def oracle_file_bytes(oracle: Oracle) -> bytes:
    """Serialized form in memory (used for size reporting and tests)."""
    buf = io.BytesIO()
    save_oracle(oracle, buf)
    return buf.getvalue()
