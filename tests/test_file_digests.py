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
              "052ef3f59f3d97826ca2bec43f46b32d5d1f0e6407b4a42431474db3eed563d4"),
    "n1-d2": (lambda: Graph(1, []), 2,
              "0fb9d758ef344c780da2d505331b6b11c547d8e1d2ef073a8dc2dac20bdeaa57"),
    "n1-d3": (lambda: Graph(1, []), 3,
              "d3552a9f5f86c1ff17d4336285a5493de90827b314ce9bd0845f222721ae5171"),
    "edge-d1": (lambda: Graph(2, [(0, 1, 7)]), 1,
                "c2016e34d33c9ad35005bd94305be9b6caa46910054d1b1a0fae444c0e772bb7"),
    "edge-d3": (lambda: Graph(2, [(0, 1, 7)]), 3,
                "b4549d48505637e1d16371cc26e2117f91eadeb7785a7bef374730e92ae88882"),
    "path5-d2": (_path5, 2,
                 "48e16a2c80f6e41e8f61b3e7b103ca1a91aaa7914c7af053e5a10d8bf12f12fd"),
    "k5-d1": (_k5, 1,
              "48bef075bac575f4920c3f0c332ea3d0d49f040da9bc459cfcb52f73e2b3f25c"),
    "k5-d2": (_k5, 2,
              "64510219f2535daa9ec79bcfdac3f076f2620dc9e45b79159c0b3413e04903f2"),
    "k5-d3": (_k5, 3,
              "ba08303e47910c8d84af7129b0e72c8598e2ddff598c9b3dab0b71a89171e18f"),
    "tree7-s0-d1": (lambda: gen_gnm(7, 6, 1, 0), 1,
                    "1714d5d027e0cf3e541e2d9fe7408a380dd59b3d4e12f13f9d74be9e4d0b6cf4"),
    "tree7-s0-d2": (lambda: gen_gnm(7, 6, 1, 0), 2,
                    "10960a9ec3ad95476a916fd42bcbe35c74ce5c50d25653560b9445606a8aa2a6"),
    "tree7-s1-d1": (lambda: gen_gnm(7, 6, 1, 1), 1,
                    "44b2e1a6827aa5717b8a55cd7b266e2e3307d4dfb37ad4b21c538a2bf2a5e390"),
    "tree7-s1-d2": (lambda: gen_gnm(7, 6, 1, 1), 2,
                    "38b3602f8650d1d531c5911a78d128ea65c4ebcc3c9d7cc829560d7b2b589400"),
    "tree7-s2-d1": (lambda: gen_gnm(7, 6, 1, 2), 1,
                    "06844a88386808d6f3b5ba28946a9a0777f73d5316fc59cdcfe87e8b8892c188"),
    "tree7-s2-d2": (lambda: gen_gnm(7, 6, 1, 2), 2,
                    "e734594714e55f8ac3c1989c0d99e5eede8a93d11936110cd4df914659d5804e"),
    "gnm8x12-s0-d2": (lambda: gen_gnm(8, 12, 32, 0), 2,
                      "9da7b8e9c0d52067451adb2371283977ea2cc1fe51a51ae235652d2505e496de"),
    "gnm8x12-s1-d2": (lambda: gen_gnm(8, 12, 32, 1), 2,
                      "76bfa11a223df49e4e9cb8887d68ec96a7f98343f3fb75b3d67550e9ac43b862"),
    "gnm8x12-s2-d2": (lambda: gen_gnm(8, 12, 32, 2), 2,
                      "307254fbc4c7fd2adfe58102596f29164b0d2cac924617336511b55f00ef8fbf"),
    "gnm8x14-s0-d3": (lambda: gen_gnm(8, 14, 32, 0), 3,
                      "70a1e9f92b4b6b1a166d8f5a3e6a3738c7f5de45094358fd5e4154f09fc01721"),
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
