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
              "19cc6a7c68c53a4b9fe3f261caaf1a09dcd92b81561c4e74137280242dbe9686"),
    "n1-d2": (lambda: Graph(1, []), 2,
              "94c3e8f56f8fd4bb6f341b9deccc52ba8cbf6f4b2e0341a5b2a0eb4368f40519"),
    "n1-d3": (lambda: Graph(1, []), 3,
              "fa8c622432cdffcbdb7dfe7de2e166f59db3e0c96c9b75b31ca8df08753a017d"),
    "edge-d1": (lambda: Graph(2, [(0, 1, 7)]), 1,
                "815d13c0cdd269d03d8a6e45bb2fed2932f18b386fbbf363ce9c7cd022f52163"),
    "edge-d3": (lambda: Graph(2, [(0, 1, 7)]), 3,
                "6d04b4dfe4230d0e06b583f16e44716fb32fb3db1c2ee7acf8a6d4fa7b7995b8"),
    "path5-d2": (_path5, 2,
                 "e609bb2f89aff3bfefee54da1a4f8784b3b884223e8bea3362b2e994466a8ed5"),
    "k5-d1": (_k5, 1,
              "edc5a2b7cd97830d68429f0f1a41dc417dfc12dbf0c9a12692f570b1bc2b8c2b"),
    "k5-d2": (_k5, 2,
              "ee2d8780a3196f72eaec68a367a52aadb4a8b9e5551fa52792a0aa3098a52351"),
    "k5-d3": (_k5, 3,
              "336975c10dea79495005035749af50eaf61e296f6b029f30f67b4fd8cda63e21"),
    "tree7-s0-d1": (lambda: gen_gnm(7, 6, 1, 0), 1,
                    "abc914290c0804826bc1cf6d25ecfe46aac54479e93d9c0e4af434395753258b"),
    "tree7-s0-d2": (lambda: gen_gnm(7, 6, 1, 0), 2,
                    "e514f6f3942b5a2da39d5be381b55d136eac2be983bcf04deb2e9c069593ef71"),
    "tree7-s1-d1": (lambda: gen_gnm(7, 6, 1, 1), 1,
                    "894f67a517f3bc6c949274a8e51bf58a1f85923bf8aae7bc4ea5697a0c2ea857"),
    "tree7-s1-d2": (lambda: gen_gnm(7, 6, 1, 1), 2,
                    "d00ecdf514abaedd439e493c971894c4b44dac2f0d90036f143538a9e3d8c5bc"),
    "tree7-s2-d1": (lambda: gen_gnm(7, 6, 1, 2), 1,
                    "4f3bd951559b7917c99b2b964e7780a1de6058f6999be015b118978ce64e2d01"),
    "tree7-s2-d2": (lambda: gen_gnm(7, 6, 1, 2), 2,
                    "e2c94fa00881daecd79acbd2a8187270a34c7587a94aaa14eb3d1981b0d9a3d8"),
    "gnm8x12-s0-d2": (lambda: gen_gnm(8, 12, 32, 0), 2,
                      "afbcd884c66b76bbd7ded7742cd8dda64e3aaba749f4d271f91ff177854f358e"),
    "gnm8x12-s1-d2": (lambda: gen_gnm(8, 12, 32, 1), 2,
                      "938f4717e1de11decdc6159505c615ad9667b1d0ccd3bb309107a8a43aa63288"),
    "gnm8x12-s2-d2": (lambda: gen_gnm(8, 12, 32, 2), 2,
                      "a2c21ce919970c1f21574f8ebf8bbbef94f5ec583b77c7a6311e63f316e154be"),
    "gnm8x14-s0-d3": (lambda: gen_gnm(8, 14, 32, 0), 3,
                      "985b783f16ff9bc7ef611ad1d50e97b93b94edcb548e2514d181beb683305146"),
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
