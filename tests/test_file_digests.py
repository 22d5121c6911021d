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
              "680ee9517001b6d5916d013542690986c1efa4d92bf6154d8ce548bcd511aac0"),
    "n1-d2": (lambda: Graph(1, []), 2,
              "5f3fc57d0b26fd4fc52bd73ecb47a7b72dd32cca4db45ad7327a1bc551fe300c"),
    "n1-d3": (lambda: Graph(1, []), 3,
              "a37adee5ab5d8763838b79251c6f4ab165244b91b385bff3b15bf5712ca9d91c"),
    "edge-d1": (lambda: Graph(2, [(0, 1, 7)]), 1,
                "bf1bbd6b1590bf664030b12915194efd45efa82b190de485366580a3f65933b7"),
    "edge-d3": (lambda: Graph(2, [(0, 1, 7)]), 3,
                "f95b56e6defe84bd299d72a83be868fe591bc36911d7243f013b2812df358b53"),
    "path5-d2": (_path5, 2,
                 "12d0c6b3b0b86a48da165bfb520eadf568ed22e6f477a185802a1022b47eb81b"),
    "k5-d1": (_k5, 1,
              "886de0e1a1e11824e224d81b91e8f9b43a2493b3b48906cac645f28c45c63d02"),
    "k5-d2": (_k5, 2,
              "b2b9667079e6cfed549d4f65f91795525956bf082b971bcf68239d4593dc168c"),
    "k5-d3": (_k5, 3,
              "f0856c17c40a40865b9c8af9e0c9ab1c7c920739c0b28bac95de8353dd592a59"),
    "tree7-s0-d1": (lambda: gen_gnm(7, 6, 1, 0), 1,
                    "2616f4a7d4213b1cbaaf743763f0091a450c774d642b5aa3de464195f0a20f44"),
    "tree7-s0-d2": (lambda: gen_gnm(7, 6, 1, 0), 2,
                    "76aa4d9c3a4a645bc0c7728463fd7b79be8d6a5ab2fc2dc03534df81ee8ccb96"),
    "tree7-s1-d1": (lambda: gen_gnm(7, 6, 1, 1), 1,
                    "e4af4347173536b060072bc7cde31a6d35019de9157f32cf907fe9dc68bb2342"),
    "tree7-s1-d2": (lambda: gen_gnm(7, 6, 1, 1), 2,
                    "b8e6b20305d55563ce7ac86df8accce6a723e6631209f16c557a6572ed87e3d4"),
    "tree7-s2-d1": (lambda: gen_gnm(7, 6, 1, 2), 1,
                    "7d2c78d619b0685ad6e2ed305ac742da66ffe613a0dc736b2d2846b2f167db62"),
    "tree7-s2-d2": (lambda: gen_gnm(7, 6, 1, 2), 2,
                    "c3d60100fbd50d341bded7c83f63a3b6dcb90ecfa605ac00f1dbe97362594d94"),
    "gnm8x12-s0-d2": (lambda: gen_gnm(8, 12, 32, 0), 2,
                      "4ca1bbba3a15c9b469f6a3d7fbbe0f5a87985edc2926a4032fcd1e6de1ec6035"),
    "gnm8x12-s1-d2": (lambda: gen_gnm(8, 12, 32, 1), 2,
                      "6094dfc543e857ce4a869d9c8c6276fd5983bcc0f3fe756fab1990953f142ec9"),
    "gnm8x12-s2-d2": (lambda: gen_gnm(8, 12, 32, 2), 2,
                      "2c4131b39511bd5877fe60c1c25c9630b69e5244aa66635b5604949d165fd05d"),
    "gnm8x14-s0-d3": (lambda: gen_gnm(8, 14, 32, 0), 3,
                      "fb0f0e5c40c02b81bc0326a1c771377b71617089f0a1c129693972458646ffa5"),
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
