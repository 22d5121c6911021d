"""Key-tree construction and the three hitting-set cases.

The induced-tree invariants are checked against a brute-force rebuild:
union the pairwise tree paths between failure endpoints (root included),
count degrees, and apply the degree/endpoint rules directly.
"""
from itertools import combinations

import pytest

from ftoracle.graph import UNREACHABLE
from ftoracle.hitset import (AUX_ROOT, HitSetEngine, InducedKeyTree,
                             QueryStats, build_induced_key_tree, hit_budget)

from conftest import tree_path_edges


def brute_induced_edges(index, root, failed):
    pts = {p for eid in failed for p in index.graph.endpoints(eid)}
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


# -- induced key tree -----------------------------------------------------------

def test_key_tree_g1_tail_failure(idx1):
    tree = build_induced_key_tree(idx1, 0, (2,))
    assert tree.key_vertices == (AUX_ROOT, 2, 3)
    assert tree.key_edges == ((AUX_ROOT, 2), (2, 3))


def test_key_tree_g1_root_failure(idx1):
    tree = build_induced_key_tree(idx1, 0, (0,))
    assert tree.key_vertices == (AUX_ROOT, 0, 1)
    assert tree.key_edges == ((AUX_ROOT, 0), (0, 1))


def test_key_tree_g6_middle_failure(idx6):
    tree = build_induced_key_tree(idx6, 0, (2,))
    assert tree.key_vertices == (AUX_ROOT, 2, 3)
    assert tree.key_edges == ((AUX_ROOT, 2), (2, 3))


def test_key_tree_requires_failures(idx1):
    with pytest.raises(AssertionError):
        build_induced_key_tree(idx1, 0, ())


def test_key_tree_matches_brute_force(idx1, idx6):
    for index in (idx1, idx6):
        g = index.graph
        for root in range(g.n):
            for failed in nonempty_failure_sets(g.m, 2):
                tree = build_induced_key_tree(index, root, failed)
                induced = brute_induced_edges(index, root, failed)
                assert tree.induced_edges == induced

                # degree inside the induced tree, plus the auxiliary edge
                # glued above the root
                deg = {}
                for eid in induced:
                    for p in g.endpoints(eid):
                        deg[p] = deg.get(p, 0) + 1
                deg[root] = deg.get(root, 0) + 1

                endpoints = {p for eid in failed for p in g.endpoints(eid)}
                expect_keys = {v for v, dg in deg.items() if dg >= 3}
                expect_keys |= endpoints
                assert set(tree.key_vertices) == expect_keys | {AUX_ROOT}
                for v, dg in deg.items():
                    if v not in tree.key_vertices:
                        assert dg == 2


def test_key_tree_edges_connect_nearest_key_ancestors(idx6):
    for failed in nonempty_failure_sets(8, 2):
        tree = build_induced_key_tree(idx6, 0, failed)
        keys = set(tree.key_vertices)
        assert tree.key_edges[0][0] == AUX_ROOT
        for p, c in tree.key_edges:
            if p == AUX_ROOT:
                continue
            assert idx6.is_ancestor(0, p, c) and p != c
            # no key vertex strictly between p and c
            v = idx6.parent(0, c)
            while v != p:
                assert v not in keys
                v = idx6.parent(0, v)


def test_key_tree_size_linear_in_failures(idx6):
    for failed in nonempty_failure_sets(8, 3):
        tree = build_induced_key_tree(idx6, 0, failed)
        assert len(tree.key_vertices) <= 4 * len(failed) + 2


# -- case one ---------------------------------------------------------------------

def test_case_one_g6_detour(oracle6_d1):
    engine = HitSetEngine(oracle6_d1.index, oracle6_d1.tables,
                          check_guards=True)
    bound, hits = engine.case_one(0, 4, 5, 6, (2,))
    assert bound.true_len == 7
    assert hits == frozenset()


def test_case_one_empty_max_set(oracle3_d1):
    # the stored maximizer for this key is the empty set, so no candidate
    # hits exist and the bound collapses to the intact distance
    engine = HitSetEngine(oracle3_d1.index, oracle3_d1.tables,
                          check_guards=True)
    assert oracle3_d1.tables.lookup(1, 2, 2, 1, 1, 1).d_star == ()
    bound, hits = engine.case_one(1, 2, 2, 1, (2,))
    assert hits == frozenset()
    assert bound == oracle3_d1.index.distance(1, 2)


def test_case_one_rejects_dirty_anchor(oracle1_d2):
    engine = HitSetEngine(oracle1_d2.index, oracle1_d2.tables)
    with pytest.raises(AssertionError, match="anchor"):
        engine.case_one(0, 2, 0, 2, (1,))


# -- case two ---------------------------------------------------------------------

def test_case_two_g1(oracle1_d1):
    engine = HitSetEngine(oracle1_d1.index, oracle1_d1.tables,
                          check_guards=True)
    bound, _ = engine.case_two(0, 2, 3, (1,))
    assert bound.true_len == 6


def test_case_two_g6(oracle6_d1):
    engine = HitSetEngine(oracle6_d1.index, oracle6_d1.tables,
                          check_guards=True)
    bound, _ = engine.case_two(0, 4, 6, (2,))
    assert bound.true_len == 7


def test_case_two_mirrored_matches_forward_swap(oracle6_d1):
    # mirroring swaps endpoint roles, so searching from 4 with the clean
    # anchor on the 0 side must see the same replacement length
    engine = HitSetEngine(oracle6_d1.index, oracle6_d1.tables,
                          check_guards=True)
    assert oracle6_d1.index.is_clean(0, 5, (2,))
    bound, _ = engine.case_two(0, 4, 5, (2,), mirrored=True)
    assert bound.true_len == 7


def test_case_two_all_edges_discarded(oracle1_d1):
    # with the single key-tree child sitting below the failure, every edge
    # is discarded and the fold never starts
    engine = HitSetEngine(oracle1_d1.index, oracle1_d1.tables)
    stub = InducedKeyTree(0, frozenset({0}), (AUX_ROOT, 1),
                          ((AUX_ROOT, 1),))
    assert oracle1_d1.index.path_intersects(0, 1, (0,))
    bound, hits = engine.case_two(0, 2, 3, (0,), tree=stub)
    assert bound == UNREACHABLE
    assert hits == frozenset()


def test_case_two_counts_lookups(oracle6_d1):
    engine = HitSetEngine(oracle6_d1.index, oracle6_d1.tables)
    stats = QueryStats()
    engine.case_two(0, 4, 6, (2,), stats=stats)
    assert stats.lookups >= 1


# -- case three -------------------------------------------------------------------

def test_case_three_g6(oracle6_d1, ref6):
    engine = HitSetEngine(oracle6_d1.index, oracle6_d1.tables,
                          check_guards=True)
    bound, hits = engine.case_three(0, 4, (2,))
    assert bound.true_len == 7
    assert not hits.intersection(ref6.replacement_path((2,), 0, 4))


def test_case_three_g1(oracle1_d1):
    engine = HitSetEngine(oracle1_d1.index, oracle1_d1.tables,
                          check_guards=True)
    bound, _ = engine.case_three(0, 2, (1,))
    assert bound.true_len == 6


def test_case_three_disconnecting_failure(oracle1_d2):
    engine = HitSetEngine(oracle1_d2.index, oracle1_d2.tables,
                          check_guards=True)
    bound, hits = engine.case_three(0, 2, (1, 2))
    for w in hits:
        assert oracle1_d2.index.path_intersects(0, w, (1, 2))
        assert oracle1_d2.index.path_intersects(2, w, (1, 2))
    if not hits:
        assert bound == UNREACHABLE


def test_case_three_requires_damage(oracle1_d1):
    engine = HitSetEngine(oracle1_d1.index, oracle1_d1.tables)
    with pytest.raises(AssertionError, match="damaged"):
        engine.case_three(0, 1, (2,))


def test_case_three_guarded_everywhere(oracle1_d2, oracle6_d1):
    # check_guards revalidates the constraint behind every single lookup
    for oracle in (oracle1_d2, oracle6_d1):
        engine = HitSetEngine(oracle.index, oracle.tables, check_guards=True)
        g = oracle.graph
        budget = hit_budget(oracle.d)
        for failed in nonempty_failure_sets(g.m, oracle.d):
            for u in range(g.n):
                for v in range(g.n):
                    if u == v or not oracle.index.path_intersects(u, v, failed):
                        continue
                    stats = QueryStats()
                    _, hits = engine.case_three(u, v, failed, stats=stats)
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
                _, hits = engine.case_three(u, v, failed)
                for w in hits:
                    assert index.path_intersects(u, w, failed)
                    assert index.path_intersects(v, w, failed)


def test_case_three_notifies_observer(oracle6_d1):
    engine = HitSetEngine(oracle6_d1.index, oracle6_d1.tables)
    seen = []
    outcome = engine.case_three(0, 4, (2,),
                                observer=lambda *args: seen.append(args))
    assert len(seen) == 1
    assert seen[0] == (0, 4, (2,), outcome)


# -- declared budgets ---------------------------------------------------------------

def test_hit_budget_values():
    assert hit_budget(1) == 32
    assert hit_budget(2) == 1040
    assert hit_budget(3) == 11680
