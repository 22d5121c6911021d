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
              "d2db9e87d8fc99390fcf12223c50d761b4ae225fba280bfba55c21819157501f"),
    "n1-d2": (lambda: Graph(1, []), 2,
              "fe6af2682116851f2def103b7a7c4c3de6d7f3d88d15ff669f57fbd0e6871b0b"),
    "n1-d3": (lambda: Graph(1, []), 3,
              "f2f887a9ccf584b274468f05a69fb9f923c4cf511d1ea3dddb465c258a4d3261"),
    "edge-d1": (lambda: Graph(2, [(0, 1, 7)]), 1,
                "5ce41e9b294308ed55215e47f6bff3e5d47240df5cf32b3efc189f468c7ceecb"),
    "edge-d3": (lambda: Graph(2, [(0, 1, 7)]), 3,
                "f908957ba3e7d0fa31633df02da7d985817a0d7f54f555db2baa09672da5e837"),
    "path5-d2": (_path5, 2,
                 "3e4ab306c8bc515c87d31efc313a078985202ad364a23f08d0f6d7b5fbdfa428"),
    "k5-d1": (_k5, 1,
              "71dca9da3c4cb16a96a6c74e00c4ff8af524afa673c3868310738efb682ba308"),
    "k5-d2": (_k5, 2,
              "d67d0303f95933268578be3b73bb84357854801c02406f94f7cbf49a3f497076"),
    "k5-d3": (_k5, 3,
              "71eb60cdf5a6adb4fc7bbece72ad92d399d5ee986fd0a79b8c199af272300490"),
    "tree7-s0-d1": (lambda: gen_gnm(7, 6, 1, 0), 1,
                    "9c84d91cd4da17be25c1d1f3fe1c29abd170b6be59d7b50b73b72bcc4dcaa824"),
    "tree7-s0-d2": (lambda: gen_gnm(7, 6, 1, 0), 2,
                    "ba001eae705818d89ecf2bb524f9d4c0a13abbc723194bc49b6980be51f1727b"),
    "tree7-s1-d1": (lambda: gen_gnm(7, 6, 1, 1), 1,
                    "8460817e7368f00365356a7a382c38aa1077d7ee9aea0b6200284b075fab4fd5"),
    "tree7-s1-d2": (lambda: gen_gnm(7, 6, 1, 1), 2,
                    "38cee7061b06b7111d980530245b4e66d44dd212cb1d5a4c45802064d29bd4b6"),
    "tree7-s2-d1": (lambda: gen_gnm(7, 6, 1, 2), 1,
                    "17baa2ce527ebbfc7c15c884ea61d8d10778f522b715eecccc03b435402ee8cc"),
    "tree7-s2-d2": (lambda: gen_gnm(7, 6, 1, 2), 2,
                    "b76861954d955f6773ba385eed048f07a383c33d62008c3b67d12d5d5987cc00"),
    "gnm8x12-s0-d2": (lambda: gen_gnm(8, 12, 32, 0), 2,
                      "a590f6c5ed3aafef3d913815fc8a5bfdb4fb570fa777bb7b51d853de41bfbf35"),
    "gnm8x12-s1-d2": (lambda: gen_gnm(8, 12, 32, 1), 2,
                      "1c2975d755cfa73082d8016b0e7191e569696950b5449060b2f77b0784ac6d9f"),
    "gnm8x12-s2-d2": (lambda: gen_gnm(8, 12, 32, 2), 2,
                      "4d438244da101463a3e6ea0adf7eab7e6a23ee07f44ab337542f21a9dfaea00e"),
    "gnm8x14-s0-d3": (lambda: gen_gnm(8, 14, 32, 0), 3,
                      "9b48053111413e109ec261ac1754c4aaba0ef260aa438f86de10398747c8ff5b"),
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
