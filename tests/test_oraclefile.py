"""Binary oracle files: round trips, byte identity, corruption detection."""
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftoracle.oraclefile import (OracleFileError, _HEADER, load_oracle,
                                 oracle_file_bytes, save_oracle)
from ftoracle.query import build_oracle
from ftoracle.reference import enumerate_instances


def test_same_build_same_bytes(g1):
    a = oracle_file_bytes(build_oracle(g1, d=2, seed=1))
    b = oracle_file_bytes(build_oracle(g1, d=2, seed=1))
    assert a == b


def test_load_then_save_is_identity(oracle6_d1):
    blob = oracle_file_bytes(oracle6_d1)
    loaded = load_oracle(io.BytesIO(blob))
    assert oracle_file_bytes(loaded) == blob


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
    g = oracle1_d2.graph
    n, m = g.n, g.m
    # header, edges with tie values, tree index, values i64 + dstar i32, sha256
    expect = _HEADER.size + m * 24 + n * n * 24 + 4 * n ** 4 * 12 + 32
    assert len(oracle_file_bytes(oracle1_d2)) == expect


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
    # flip one edge weight; the stored digest no longer matches
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    off = _HEADER.size + 8  # first edge record, weight field
    blob[off:off + 8] = (9).to_bytes(8, "little")
    with pytest.raises(OracleFileError, match="digest"):
        load_oracle(io.BytesIO(bytes(blob)))


def _reseal(blob: bytearray) -> bytes:
    """Recompute the sha256 trailer, as a deliberately crafted file would."""
    body = bytes(blob[:-32])
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("section, value", [
    ("values", -1), ("values", (1 << 62) + 1), ("dstar", -1), ("dstar", 5),
    ("parent", 4), ("parent_eid", 4)])
def test_rejects_out_of_range_entries(oracle1_d1, section, value):
    # g1 has n=4, m=4 and, at d=1, five failure sets
    blob = bytearray(oracle_file_bytes(oracle1_d1))
    count = 4 * 4 ** 4
    where = {"values": (len(blob) - 32 - count * 12, 8),
             "dstar": (len(blob) - 32 - count * 4, 4),
             "parent": (_HEADER.size + 4 * 24 + 16, 4),
             "parent_eid": (_HEADER.size + 4 * 24 + 20, 4)}
    off, width = where[section]
    blob[off:off + width] = value.to_bytes(width, "little", signed=True)
    with pytest.raises(OracleFileError, match="out of range"):
        load_oracle(io.BytesIO(_reseal(blob)))


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
