"""Pinned sha256 digests of oracle files built from fixed graphs and seeds.

A refactor of the index, the table build or the file writer must leave
every byte of these files as it was.  A change that alters the file format
on purpose re-records the digests (run each build below and hash
oracle_file_bytes) and says so in CHANGES.md.
"""
import hashlib

import pytest

from ftoracle import Graph, build_oracle, gen_gnm, oracle_file_bytes


def _k5():
    return Graph(5, [(a, b, 1) for a in range(5) for b in range(a + 1, 5)])


def _path5():
    return Graph(5, [(i, i + 1, 1) for i in range(4)])


# name -> (graph factory, d, sha256 of oracle_file_bytes(build_oracle(g, d, seed=1)))
PINNED = {
    "n1-d1": (lambda: Graph(1, []), 1,
              "2cb405daf7520e3c1eaffaf29eee95cf253aa04ed93aaf37db36ab5f4f1d86fa"),
    "n1-d2": (lambda: Graph(1, []), 2,
              "8603df60846763bc2b873bf191d82d090e84eea1e9299a6a8e9e53b367dc5c93"),
    "n1-d3": (lambda: Graph(1, []), 3,
              "ebb8a551b73e33a45108835d20a3f4f13c10341b1c6adc50eee6a4d36da88e31"),
    "edge-d1": (lambda: Graph(2, [(0, 1, 7)]), 1,
                "9cebbec240b18ea1831fc2a6e40cd8173b4f8f2a301023fb33a595821a69d982"),
    "edge-d3": (lambda: Graph(2, [(0, 1, 7)]), 3,
                "9632243d2801663f361a69bade2673c2178a0ea14602bda210cd14822ac8640c"),
    "path5-d2": (_path5, 2,
                 "3cbedfd4961f7703a06495f7378410a2d4a16152fa3e557ea13ddac3485448f9"),
    "k5-d1": (_k5, 1,
              "0e37c35b3753c5233d263925563b28a51d328b1bdbbd58cb8665701ec4f23f27"),
    "k5-d2": (_k5, 2,
              "172e665e12d29bfc46616767ea5aff2fa88939f88872f7129d8a9f7c27301434"),
    "k5-d3": (_k5, 3,
              "c16595cecd94e6f04569a576c6690e140975ba23614c89973c5558d126fcf35b"),
    "tree7-s0-d1": (lambda: gen_gnm(7, 6, 1, 0), 1,
                    "3a28879cc2f08986fdab231c882488672a0418a340d70d5894eac3a41942fe26"),
    "tree7-s0-d2": (lambda: gen_gnm(7, 6, 1, 0), 2,
                    "cb0cd22705a1590bad41137c5689adcbf4cbbd8118336de8d26d56ab7ad6a437"),
    "tree7-s1-d1": (lambda: gen_gnm(7, 6, 1, 1), 1,
                    "bfa8f350e7bec156df5575a7a9a28b9d11076bfdb42bb44dfe0b0b01c25f594d"),
    "tree7-s1-d2": (lambda: gen_gnm(7, 6, 1, 1), 2,
                    "0aee74916bf2b2a2ecfd03c6c07191f6a6678569c22d279d857450e81fdf7aa6"),
    "tree7-s2-d1": (lambda: gen_gnm(7, 6, 1, 2), 1,
                    "57aded1aeabba16e28c456731cb4d4fe746f87f45f5a3655b18a993ba3b50f7f"),
    "tree7-s2-d2": (lambda: gen_gnm(7, 6, 1, 2), 2,
                    "df70a2efc26e8be079d247844cf011c1cd59a88e9a0d33f91dc71cc4693c8351"),
    "gnm8x12-s0-d2": (lambda: gen_gnm(8, 12, 32, 0), 2,
                      "c577f821c24cf79b30eea619c92006a2be85f3ffcc4f8e38086c4ab012d1cc8c"),
    "gnm8x12-s1-d2": (lambda: gen_gnm(8, 12, 32, 1), 2,
                      "7c6c7ef1167ecc8eca6fb6f1b28f98f9a39d818cde19384bdbae54ea004ae2a7"),
    "gnm8x12-s2-d2": (lambda: gen_gnm(8, 12, 32, 2), 2,
                      "8524972f11ff17dcdcd4d819c15d6eedc7487beafbc7b986cda52a8614942e50"),
    "gnm8x14-s0-d3": (lambda: gen_gnm(8, 14, 32, 0), 3,
                      "9d42b40c2b1e4b7acfd68b46a4b08812bfa35fe93a9adfa2acf56a665d7fe9a6"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_file_digest_is_pinned(name):
    make, d, digest = PINNED[name]
    blob = oracle_file_bytes(build_oracle(make(), d, seed=1))
    assert hashlib.sha256(blob).hexdigest() == digest
