"""Brute-force reference: avoidance distances, path ranks, the verifier."""
import pytest

from ftoracle.generate import gen_gnm
from ftoracle.hitset import HitSetEngine
from ftoracle.query import build_oracle
from ftoracle.reference import (ReferenceOracle, enumerate_instances,
                                verify_instance)


def test_dist_avoiding_examples(ref1):
    assert ref1.dist_avoiding((1,), 0, 2).true_len == 6
    assert ref1.dist_avoiding((1, 2), 0, 2).is_unreachable
    assert ref1.dist_avoiding((), 0, 2).true_len == 3


def test_dist_avoiding_empty_set_matches_index(oracle6_d1, ref6):
    for u in range(7):
        for v in range(7):
            assert ref6.dist_avoiding((), u, v) == \
                oracle6_d1.index.distance(u, v)


def test_replacement_path_g1(ref1):
    assert ref1.replacement_path((1,), 0, 2) == [0, 3, 2]


def test_replacement_path_g6(ref6):
    assert ref6.replacement_path((2,), 0, 4) == [0, 1, 2, 6, 3, 4]


def test_replacement_path_disconnected(ref1):
    assert ref1.replacement_path((1, 2), 0, 2) is None
    assert ref1.rank((1, 2), 0, 2) is None


def test_replacement_path_without_failures_is_tree_path(oracle6_d1, ref6):
    for u in range(7):
        for v in range(7):
            assert ref6.replacement_path((), u, v) == \
                oracle6_d1.index.tree_path(u, v)


def test_rank_of_detour(ref1):
    # 0-3 is heavier than the tree path, so it can only be a jump edge
    assert ref1.rank_of_path([0, 3, 2]) == 1


def test_rank_zero_for_intact_shortest_paths(oracle6_d1, ref6):
    for u in range(7):
        for v in range(7):
            assert ref6.rank_of_path(oracle6_d1.index.tree_path(u, v)) == 0


def test_rank_trivial_path(ref1):
    assert ref1.rank_of_path([2]) == 0


def test_rank_g6_detour(ref6):
    r = ref6.rank((2,), 0, 4)
    assert r == ref6.rank_of_path([0, 1, 2, 6, 3, 4])
    assert r <= 1


def test_rank_never_exceeds_failure_count(ref6):
    from itertools import combinations
    for k in (1, 2):
        for failed in combinations(range(8), k):
            for u in range(7):
                for v in range(7):
                    if u == v:
                        continue
                    r = ref6.rank(failed, u, v)
                    assert r is None or r <= k


def test_enumerate_exhaustive_counts(g1):
    instances = list(enumerate_instances(g1, 2))
    assert len(instances) == 132  # 12 ordered pairs x 11 failure sets
    assert instances[0] == (0, 1, ())


def test_enumerate_sampled_deterministic(g6):
    a = list(enumerate_instances(g6, 3, "sampled", samples=200, seed=9))
    b = list(enumerate_instances(g6, 3, "sampled", samples=200, seed=9))
    assert a == b
    assert len(a) == 200
    for u, v, failed in a:
        assert u != v
        assert 1 <= len(failed) <= 3
        assert failed == tuple(sorted(failed))


def test_enumerate_rejects_unknown_mode(g1):
    with pytest.raises(ValueError, match="mode"):
        list(enumerate_instances(g1, 1, "everything"))


def test_verify_g1_exhaustive(oracle1_d2):
    report = verify_instance(oracle1_d2)
    assert report.ok
    assert report.instances == 132
    assert report.mismatches == 0
    assert "PASS" in report.summary()


def test_verify_g6_exhaustive(oracle6_d1):
    report = verify_instance(oracle6_d1)
    assert report.ok
    assert report.max_rank <= 1


def test_verify_random_graph():
    oracle = build_oracle(gen_gnm(8, 12, 32, seed=7), d=2, seed=1)
    report = verify_instance(oracle)
    assert report.ok
    assert report.instances == (1 + 12 + 66) * 8 * 7


def test_verify_sampled_collects_answers(oracle6_d2):
    report = verify_instance(oracle6_d2, mode="sampled", samples=50, seed=3)
    assert report.instances == 50
    assert report.answers is None
    replay = verify_instance(oracle6_d2, mode="sampled", samples=50, seed=3,
                             collect_answers=True)
    assert len(replay.answers) == 50


def test_verify_summary_reports_failures(oracle1_d1):
    report = verify_instance(oracle1_d1)
    report.mismatches = 1
    report.mismatch_examples.append((0, 2, (1,), None, None))
    assert not report.ok
    assert "FAIL" in report.summary()
    assert "counterexample" in report.summary()


def test_verify_restores_guard_flag(oracle1_d1):
    assert oracle1_d1.engine.check_guards is False
    verify_instance(oracle1_d1)
    assert oracle1_d1.engine.check_guards is False


def test_verify_leaves_guard_flag_alone_while_running(oracle1_d1, monkeypatch):
    # the caller's engine stays unguarded during the run, not just after it,
    # while every lookup the run makes is guarded
    caller_flags, lookup_flags = [], []
    real_dist, real_lookup = ReferenceOracle.dist_avoiding, HitSetEngine._lookup

    def spy_dist(self, failed, u, v):
        caller_flags.append(oracle1_d1.engine.check_guards)
        return real_dist(self, failed, u, v)

    def spy_lookup(self, *args):
        lookup_flags.append(self.check_guards)
        return real_lookup(self, *args)

    monkeypatch.setattr(ReferenceOracle, "dist_avoiding", spy_dist)
    monkeypatch.setattr(HitSetEngine, "_lookup", spy_lookup)
    report = verify_instance(oracle1_d1)
    assert report.ok
    assert caller_flags and not any(caller_flags)
    assert lookup_flags and all(lookup_flags)
