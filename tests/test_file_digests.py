"""Pinned sha256 digests of oracle files built from fixed graphs and seeds.

A refactor of the index, the table build or the file writer must leave
every byte of these files as it was.  A change that alters the file format
on purpose re-records the digests (run each build below and hash
oracle_file_bytes) and says so in CHANGES.md.

The same builds also have layout-independent pins: every entry's (true
length, tie key) and sorted D*, as perfbench's tables_digest hashes them,
for the built tables and for the tables loaded back from the file.  A
format change must leave these as they are.
"""
import hashlib
import io

import numpy as np
import pytest

from ftoracle import Graph, build_oracle, gen_gnm, load_oracle, oracle_file_bytes


def _k5():
    return Graph(5, [(a, b, 1) for a in range(5) for b in range(a + 1, 5)])


def _path5():
    return Graph(5, [(i, i + 1, 1) for i in range(4)])


# name -> (graph factory, d, sha256 of oracle_file_bytes(build_oracle(g, d, seed=1)))
PINNED = {
    "n1-d1": (lambda: Graph(1, []), 1,
              "666f1afefec950eec84e05de35bd590c26e1740114af175abc2bdf06631e8ef9"),
    "n1-d2": (lambda: Graph(1, []), 2,
              "a9940bf223424971e909f4edfeb97456f6b9cf2fee6b0b1f41b6f0c3f3c6e639"),
    "n1-d3": (lambda: Graph(1, []), 3,
              "6e937eb75acf193a5e734754fd07ab3846f54ee52931dd8575697a01c230a107"),
    "edge-d1": (lambda: Graph(2, [(0, 1, 7)]), 1,
                "f455ca66c11039060fcfb035436f3d9f6436e17be2394acd324f2a938e1ea14a"),
    "edge-d3": (lambda: Graph(2, [(0, 1, 7)]), 3,
                "2ea39b38a1c71cea5a451b2907be8bfca05058df381c1dc0fe0e6df8b89d3e9d"),
    "path5-d2": (_path5, 2,
                 "7ce0de499df8749a746ee12ceba540440ead9c937bc096bb9c7e8cf1f8c19917"),
    "k5-d1": (_k5, 1,
              "8465a94e4cae97ef176c0c8f74afaf77c9b23be8f5d53488a86a6c21acecf05f"),
    "k5-d2": (_k5, 2,
              "d0246a31dda769f5116cc9c04040a96866911803d9e7577891a6e66db0d6e7e9"),
    "k5-d3": (_k5, 3,
              "5ac8417968d2e8e4935c569e243aae95a51ecf62dad0807788ff512acb1984d9"),
    "tree7-s0-d1": (lambda: gen_gnm(7, 6, 1, 0), 1,
                    "25ff25c59168b05bc4d4f32014c0084e5c42083875326bc7bc7793a0f2777b17"),
    "tree7-s0-d2": (lambda: gen_gnm(7, 6, 1, 0), 2,
                    "ca2a35d9dbb56bf2b7db6fddf328e3cfb541a14bb1280f97c8041f70916b4b3f"),
    "tree7-s1-d1": (lambda: gen_gnm(7, 6, 1, 1), 1,
                    "08099ca13824fc339990d698e7872d423a8a359727aaed5157389458a07f70f1"),
    "tree7-s1-d2": (lambda: gen_gnm(7, 6, 1, 1), 2,
                    "156e4e2691a88df846baf87f1e4c58afd5f4a883d08c6dc4576dddce153a1c59"),
    "tree7-s2-d1": (lambda: gen_gnm(7, 6, 1, 2), 1,
                    "7ebef948e4df4a5009af2cc49856dec2bb77024635e46f345a9ef1ae53d1dcca"),
    "tree7-s2-d2": (lambda: gen_gnm(7, 6, 1, 2), 2,
                    "bf26c6bb69c402d5694d11c77e3b70b820e059b0719c9561d24855ac231c5d28"),
    "gnm8x12-s0-d2": (lambda: gen_gnm(8, 12, 32, 0), 2,
                      "6af5fb61dc6fd8b6a920780f9fac6712cb18796cdf127525415dc77f98c70549"),
    "gnm8x12-s1-d2": (lambda: gen_gnm(8, 12, 32, 1), 2,
                      "d1b7106fc7691db5781fa4149170dd350e5979ddefe8bb812c58038eb93609d2"),
    "gnm8x12-s2-d2": (lambda: gen_gnm(8, 12, 32, 2), 2,
                      "385d1ae4b9922c9af5fce64a22c0fc9c83c9cce9194552c498be4c8f299ef5ab"),
    "gnm8x14-s0-d3": (lambda: gen_gnm(8, 14, 32, 0), 3,
                      "9d9b04bdc0575dc7ee8220394552928add4fb8a9fec0a18c29e48c4286828f93"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_file_digest_is_pinned(name):
    make, d, digest = PINNED[name]
    blob = oracle_file_bytes(build_oracle(make(), d, seed=1))
    assert hashlib.sha256(blob).hexdigest() == digest


# name -> sha256 of the tables' logical content (see logical_digest)
LOGICAL = {
    "edge-d1": "3c381bf27c0393d0748bc2bc052b9025dbf728d88eef62de7e8fbca2b1059385",
    "edge-d3": "c942de8b9d6d2018bdb11df70ec03fb3bb58ac08ef0cf3099e6ad6dee5ac8119",
    "gnm8x12-s0-d2": "6edcd8a2986f21e9f76f3b1eac71c4c2439b5df0a7693da3d0c1c43a56594fc5",
    "gnm8x12-s1-d2": "fd03322ac046d1954b84d4c6d93c908a6c21cea4f669c6063b691f3d2d2cc3f8",
    "gnm8x12-s2-d2": "e3b47db308f7d6f76b7875907997340123cbdc506744daaa1bb7d5805ceb54e5",
    "gnm8x14-s0-d3": "994b22024945ee0543a1e5be5321daf1e4191b1529758fdb881abded38423a79",
    "k5-d1": "21d11f46c1a8f118568abe787905c1a837aa4f686a39bdf965dcb76fe6b4f016",
    "k5-d2": "2e2e4e1ad4d016b7d54fc05ed9dd60e58565e05d041bca8013e3bfa9b652c7e1",
    "k5-d3": "13a41a50cd4df780cff41b89ad6a983a2cd09b0b26d6c88ed630837e3ee40a17",
    "n1-d1": "51cdfd15463a712da38c49e9390d861030e28cf1f19ebe9f5a8b6901a9df64fc",
    "n1-d2": "75fa787726b05a0296ffdba4c60cb799529c27ce560e2fff9a11012ce9d66707",
    "n1-d3": "be58b73a462d9ed4e4c138f64e7acab4eb6e7fa59ffaed111e50f23a3a8cd562",
    "path5-d2": "5e9f82da51cd62adb31fae46776a0420af0c01725c624b9df84372c1479bc1a2",
    "tree7-s0-d1": "600d8115b542d22228e4e1111f515ef66e1ea1320aa39bee0e99b9133b4b9e25",
    "tree7-s0-d2": "de61dfa0b83ab1e70e99fe5357ad398e24ddba30e8ab2542c72ab9a4c4935d87",
    "tree7-s1-d1": "c16a7af087b48598efc1cd361ac364d0ac0810a3482a0e6cd42e958b3d5732cc",
    "tree7-s1-d2": "3dd2932d3cf76c484b89c2f48274a1f42f8ead3859a6e15f2ede112ca7079475",
    "tree7-s2-d1": "c3757a03898443d1810d8c4f2af95c705bf0c0c35d446373ad14e22b82cf3447",
    "tree7-s2-d2": "fbecdaa1e3032e79b32035d8f47a904534f4bc9b4caab8475ce3ddcce2a4f0ff",
}


def logical_digest(tables) -> str:
    """sha256 of every entry's (true length, tie key) and sorted D*."""
    codec = tables.codec
    values = tables.values.reshape(-1)
    unreach = values >= codec.unreachable_code
    lengths = np.stack([np.where(unreach, -1, values >> codec.shift),
                        np.where(unreach, -1, values & codec.mask)], axis=1)
    ids = np.full((len(tables.subsets), max(1, tables.d)), -1, dtype=np.int64)
    for i, sub in enumerate(tables.subsets):
        ids[i, :len(sub)] = sorted(sub)
    h = hashlib.sha256(lengths.astype("<i8").tobytes())
    h.update(ids[tables.dstar_idx.reshape(-1)].astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_logical_digest_is_pinned(name):
    make, d, _ = PINNED[name]
    oracle = build_oracle(make(), d, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle)))
    assert logical_digest(oracle.tables) == LOGICAL[name]
    assert logical_digest(loaded.tables) == LOGICAL[name]
