"""Key-tree construction and the three hitting-set cases.

The induced-tree invariants are checked against a brute-force rebuild:
union the pairwise tree paths between failure endpoints (root included),
count degrees, and apply the degree/endpoint rules directly.
"""
import hashlib
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import ftoracle
from ftoracle.generate import gen_gnm
from ftoracle.graph import UNREACHABLE
from ftoracle.hitset import (FailureView, HitSetEngine, QueryStats,
                             build_induced_key_tree, hit_budget)
from ftoracle.query import build_oracle
from ftoracle.reference import CheckedEngine, GuardError

from conftest import G1_TEXT, base_length, tree_path_edges


def brute_induced_edges(index, root, failed):
    pts = {p for eid in failed for p in index.graph.edges[eid][:2]}
    pts.add(root)
    out = set()
    for a in pts:
        for b in pts:
            out |= tree_path_edges(index, root, a) ^ \
                tree_path_edges(index, root, b)
    return out


def nonempty_failure_sets(m, dmax):
    for k in range(1, dmax + 1):
        yield from combinations(range(m), k)


def view(oracle, failed, stats=None):
    """The failure view the query engine runs the cases on."""
    return FailureView(oracle.index, failed, stats)


def decoded(oracle, bound):
    """An engine bound (a packed code) as a composite length."""
    return oracle.index.codec.decode(bound)


@pytest.fixture(scope="module")
def oracle_gnm10_d3():
    return build_oracle(gen_gnm(10, 18, 32, 0), d=3, seed=1)


# -- induced key tree -----------------------------------------------------------

def test_key_tree_g1_tail_failure(idx1):
    assert build_induced_key_tree(idx1, 0, (2,)) == 1 << 2 | 1 << 3


def test_key_tree_g1_root_failure(idx1):
    assert build_induced_key_tree(idx1, 0, (0,)) == 1 << 0 | 1 << 1


def test_key_tree_g6_middle_failure(idx6):
    assert build_induced_key_tree(idx6, 0, (2,)) == 1 << 2 | 1 << 3


def test_key_tree_requires_failures(idx1):
    with pytest.raises(AssertionError):
        build_induced_key_tree(idx1, 0, ())


def test_key_tree_matches_brute_force(idx1, idx6, oracle_gnm10_d3):
    for index, dmax in ((idx1, 2), (idx6, 2), (oracle_gnm10_d3.index, 3)):
        g = index.graph
        for root in range(g.n):
            for failed in nonempty_failure_sets(g.m, dmax):
                tree = build_induced_key_tree(index, root, failed)
                keys = {x for x in range(g.n) if tree >> x & 1}
                induced = brute_induced_edges(index, root, failed)

                # degree inside the induced tree, plus one for the root,
                # which counts as if an edge hung above it
                deg = {}
                for eid in induced:
                    for p in g.edges[eid][:2]:
                        deg[p] = deg.get(p, 0) + 1
                deg[root] = deg.get(root, 0) + 1

                endpoints = {p for eid in failed for p in g.edges[eid][:2]}
                expect_keys = {v for v, dg in deg.items() if dg >= 3}
                expect_keys |= endpoints
                assert tree < 1 << g.n
                assert keys == expect_keys
                for v, dg in deg.items():
                    if v not in keys:
                        assert dg == 2


def test_key_tree_size_linear_in_failures(idx6):
    for failed in nonempty_failure_sets(8, 3):
        tree = build_induced_key_tree(idx6, 0, failed)
        assert tree.bit_count() <= 4 * len(failed) + 1


# -- case one ---------------------------------------------------------------------

def test_case_one_g6_detour(oracle6_d1):
    engine = CheckedEngine(oracle6_d1.index, oracle6_d1.tables)
    bound, hits = engine.case_one(0, 4, 5, 6, view(oracle6_d1, (2,)))
    assert decoded(oracle6_d1, bound).true_len == 7
    assert hits == frozenset()


def test_case_one_empty_max_set(oracle3_d1):
    # the stored maximizer for this key is the empty set, so no candidate
    # hits exist and the bound collapses to the intact distance
    engine = CheckedEngine(oracle3_d1.index, oracle3_d1.tables)
    assert oracle3_d1.tables.lookup(1, 2, 2, 1, 1, 1).d_star == ()
    bound, hits = engine.case_one(1, 2, 2, 1, view(oracle3_d1, (2,)))
    assert hits == frozenset()
    assert decoded(oracle3_d1, bound) == base_length(oracle3_d1.index, 1, 2)


def test_case_one_rejects_dirty_anchor(oracle1_d2):
    engine = HitSetEngine(oracle1_d2.index, oracle1_d2.tables)
    with pytest.raises(AssertionError, match="anchor"):
        engine.case_one(0, 2, 0, 2, view(oracle1_d2, (1,)))


# -- case two ---------------------------------------------------------------------

def test_case_two_g1(oracle1_d1):
    engine = CheckedEngine(oracle1_d1.index, oracle1_d1.tables)
    bound, _ = engine.case_two(0, 2, 3, view(oracle1_d1, (1,)))
    assert decoded(oracle1_d1, bound).true_len == 6


def test_case_two_g6(oracle6_d1):
    engine = CheckedEngine(oracle6_d1.index, oracle6_d1.tables)
    bound, _ = engine.case_two(0, 4, 6, view(oracle6_d1, (2,)))
    assert decoded(oracle6_d1, bound).true_len == 7


def test_case_two_mirrored_matches_forward_swap(oracle6_d1):
    # row (4, 0) is row (0, 4) transposed, so searching from 4 with the
    # clean anchor on the 0 side must see the same replacement length
    engine = CheckedEngine(oracle6_d1.index, oracle6_d1.tables)
    ref = engine.ref
    assert not ref.path_intersects(0, 5, (2,))
    assert not ref.subtree_touches(0, 5, (2,))
    bound, _ = engine.case_two(4, 0, 5, view(oracle6_d1, (2,)))
    assert decoded(oracle6_d1, bound).true_len == 7


def test_case_two_all_edges_discarded(oracle1_d1):
    # with the single key-tree child sitting below the failure, every edge
    # is discarded and the fold never starts; the view's cached key tree of
    # root 0 is seeded with that child's mask
    engine = HitSetEngine(oracle1_d1.index, oracle1_d1.tables)
    assert oracle1_d1.index.path_intersects(0, 1, (0,))
    v = view(oracle1_d1, (0,))
    v.trees[0] = 1 << 1
    bound, hits = engine.case_two(0, 2, 3, v)
    assert decoded(oracle1_d1, bound) == UNREACHABLE
    assert hits == frozenset()


def test_case_two_counts_lookups(oracle6_d1):
    engine = HitSetEngine(oracle6_d1.index, oracle6_d1.tables)
    stats = QueryStats()
    engine.case_two(0, 4, 6, view(oracle6_d1, (2,), stats=stats))
    assert stats.lookups >= 1


# -- case three -------------------------------------------------------------------

def test_case_three_g6(oracle6_d1, ref6):
    engine = CheckedEngine(oracle6_d1.index, oracle6_d1.tables)
    bound, hits = engine.case_three(0, 4, view(oracle6_d1, (2,)))
    assert decoded(oracle6_d1, bound).true_len == 7
    assert not hits.intersection(ref6.replacement_path((2,), 0, 4))


def test_case_three_g1(oracle1_d1):
    engine = CheckedEngine(oracle1_d1.index, oracle1_d1.tables)
    bound, _ = engine.case_three(0, 2, view(oracle1_d1, (1,)))
    assert decoded(oracle1_d1, bound).true_len == 6


def test_case_three_disconnecting_failure(oracle1_d2):
    engine = CheckedEngine(oracle1_d2.index, oracle1_d2.tables)
    bound, hits = engine.case_three(0, 2, view(oracle1_d2, (1, 2)))
    for w in hits:
        assert oracle1_d2.index.path_intersects(0, w, (1, 2))
        assert oracle1_d2.index.path_intersects(2, w, (1, 2))
    if not hits:
        assert decoded(oracle1_d2, bound) == UNREACHABLE


def test_case_three_requires_damage(oracle1_d1):
    engine = HitSetEngine(oracle1_d1.index, oracle1_d1.tables)
    with pytest.raises(AssertionError, match="damaged"):
        engine.case_three(0, 1, view(oracle1_d1, (2,)))


def test_guarded_lookup_rejects_violated_constraint(oracle1_d1):
    engine = CheckedEngine(oracle1_d1.index, oracle1_d1.tables)
    # edge 0 lies on the tree path 0->1, so (0,) breaks the key's constraint
    with pytest.raises(GuardError, match="unguarded lookup"):
        engine._read(0, 2, [1], [2], 0, 0, view(oracle1_d1, (0,)))


def test_read_guards_every_key(oracle1_d1):
    # a read's first key is feasible and its second is not: the guard must
    # check every key of the batch, not only the first
    engine = CheckedEngine(oracle1_d1.index, oracle1_d1.tables)
    stats = QueryStats()
    assert engine.ref.constraint_holds((0,), (0, 2, 0, 2, 0, 0))
    assert not engine.ref.constraint_holds((0,), (0, 2, 1, 2, 0, 0))
    with pytest.raises(GuardError, match=r"unguarded lookup \(0, 2, 1, 2, 0, 0\)"):
        engine._read(0, 2, [0, 1], [2], 0, 0, view(oracle1_d1, (0,), stats))
    assert stats.lookups == 0


GUARD_UNDER_O = f"""
import sys
from ftoracle.graph import parse_graph
from ftoracle.hitset import FailureView
from ftoracle.query import build_oracle
from ftoracle.reference import CheckedEngine, GuardError
assert sys.flags.optimize, "not running under -O"
oracle = build_oracle(parse_graph({G1_TEXT!r}), d=1, seed=1)
engine = CheckedEngine(oracle.index, oracle.tables)
assert not engine.ref.constraint_holds((0,), (0, 2, 1, 2, 0, 0))
try:
    engine._read(0, 2, [1], [2], 0, 0, FailureView(oracle.index, (0,)))
except GuardError:
    print("guard raised")
"""


def test_guard_check_survives_optimized_mode():
    # python -O strips assert statements; the guard must not depend on them
    src = str(Path(ftoracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", GUARD_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "guard raised"


def test_case_three_guarded_everywhere(oracle1_d2, oracle6_d1):
    # CheckedEngine revalidates the constraint behind every single lookup
    for oracle in (oracle1_d2, oracle6_d1):
        engine = CheckedEngine(oracle.index, oracle.tables)
        g = oracle.graph
        budget = hit_budget(oracle.d)
        for failed in nonempty_failure_sets(g.m, oracle.d):
            for u in range(g.n):
                for v in range(g.n):
                    if u == v or not oracle.index.path_intersects(u, v, failed):
                        continue
                    stats = QueryStats()
                    _, hits = engine.case_three(u, v, view(oracle, failed, stats=stats))
                    assert stats.lookups <= budget
                    assert len(hits) <= budget


def test_case_three_double_checks_every_hit(oracle6_d2):
    engine = HitSetEngine(oracle6_d2.index, oracle6_d2.tables)
    index = oracle6_d2.index
    for failed in nonempty_failure_sets(8, 2):
        for u in range(7):
            for v in range(7):
                if u == v or not index.path_intersects(u, v, failed):
                    continue
                _, hits = engine.case_three(u, v, view(oracle6_d2, failed))
                for w in hits:
                    assert index.path_intersects(u, w, failed)
                    assert index.path_intersects(v, w, failed)


def case_three_digest(oracle):
    """sha256 over case_three's (bound, hits, lookups) on every damaged query."""
    engine = HitSetEngine(oracle.index, oracle.tables)
    index, g = oracle.index, oracle.graph
    digest = hashlib.sha256()
    for failed in nonempty_failure_sets(g.m, oracle.d):
        fv = view(oracle, failed)
        for u in range(g.n):
            for v in range(g.n):
                if u == v or not index.path_intersects(u, v, failed):
                    continue
                stats = fv.stats = QueryStats()
                bound, hits = engine.case_three(u, v, fv)
                row = (u, v, failed, bound, sorted(hits), stats.lookups)
                digest.update(repr(row).encode("ascii"))
    return digest.hexdigest()


# recorded by case_three_digest on the kernel that ran one block per
# (lookup, D* edge); a faster kernel must keep every outcome and count
CASE_THREE_DIGESTS = {
    "g6-d2": "fef5e26fe4b221390a38a91cae11b4335f037daad8151ddcf7996ed6a0ab1ea9",
    "gnm10-d3": "9348c0cc86bc807aa91ecefef2310e35f0a2d533ba302a8f6c8d10d202ca557e",
}


def test_case_three_outcomes_pinned(oracle6_d2, oracle_gnm10_d3):
    got = {"g6-d2": case_three_digest(oracle6_d2),
           "gnm10-d3": case_three_digest(oracle_gnm10_d3)}
    assert got == CASE_THREE_DIGESTS


def test_case_three_records_outcome(oracle6_d1):
    engine = CheckedEngine(oracle6_d1.index, oracle6_d1.tables)
    seen = engine.records
    outcome = engine.case_three(0, 4, view(oracle6_d1, (2,)))
    assert len(seen) == 1
    assert seen[0] == (0, 4, (2,), outcome)


# -- declared budgets ---------------------------------------------------------------

def test_hit_budget_values():
    assert hit_budget(1) == 32
    assert hit_budget(2) == 1040
    assert hit_budget(3) == 11680
