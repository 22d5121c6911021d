"""Brute-force reference: avoidance distances, path ranks, the verifier."""
import pytest

from ftoracle.generate import gen_gnm
from ftoracle.hitset import HitSetEngine, HitSetOutcome
from ftoracle.oraclefile import load_oracle, save_oracle
from ftoracle.query import Oracle, build_oracle
from ftoracle.reference import (CheckedEngine, GuardError, ReferenceOracle,
                                enumerate_instances, verify_instance)

from conftest import base_length, mask_parents, swap_parents, tree_path


def test_dist_avoiding_examples(ref1):
    assert ref1.dist_avoiding((1,), 0, 2).true_len == 6
    assert ref1.dist_avoiding((1, 2), 0, 2).is_unreachable
    assert ref1.dist_avoiding((), 0, 2).true_len == 3


def test_dist_avoiding_empty_set_matches_index(oracle6_d1, ref6):
    for u in range(7):
        for v in range(7):
            assert ref6.dist_avoiding((), u, v) == \
                base_length(oracle6_d1.index, u, v)


def test_replacement_path_g1(ref1):
    assert ref1.replacement_path((1,), 0, 2) == [0, 3, 2]


def test_replacement_path_g6(ref6):
    assert ref6.replacement_path((2,), 0, 4) == [0, 1, 2, 6, 3, 4]


def test_replacement_path_disconnected(ref1):
    assert ref1.replacement_path((1, 2), 0, 2) is None
    assert ref1.rank((1, 2), 0, 2) is None


def test_replacement_path_without_failures_is_tree_path(oracle6_d1, ref6):
    # the reference's Dijkstra trees against the index's, read off its masks
    for u in range(7):
        parent = mask_parents(oracle6_d1.index, u)[0]
        for v in range(7):
            path = [v]
            while path[-1] != u:
                path.append(parent[path[-1]])
            assert ref6.replacement_path((), u, v) == path[::-1]


def test_rank_of_detour(ref1):
    # 0-3 is heavier than the tree path, so it can only be a jump edge
    assert ref1.rank_of_path([0, 3, 2]) == 1


def test_rank_zero_for_intact_shortest_paths(oracle6_d1, ref6):
    for u in range(7):
        for v in range(7):
            assert ref6.rank_of_path(tree_path(oracle6_d1.index, u, v)) == 0


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


def test_verify_sampled_checks_the_sample_count(oracle6_d2):
    report = verify_instance(oracle6_d2, samples=50, seed=3)
    assert report.instances == 50


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_refuses_sample_counts_below_one(oracle1_d1, samples):
    # such a count would check nothing and still report a pass
    with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
        verify_instance(oracle1_d1, samples=samples)


def test_verify_summary_reports_failures(oracle1_d1):
    report = verify_instance(oracle1_d1)
    report.mismatches = 1
    report.mismatch_examples.append((0, 2, (1,), None, None))
    assert not report.ok
    assert "FAIL" in report.summary()
    assert "counterexample" in report.summary()


def test_verify_leaves_caller_engine(oracle1_d1):
    engine = oracle1_d1.engine
    assert type(engine) is HitSetEngine
    verify_instance(oracle1_d1)
    assert oracle1_d1.engine is engine
    assert type(engine) is HitSetEngine


def test_verify_guards_every_lookup_while_running(oracle1_d2, monkeypatch):
    # the caller's engine stays the same plain engine during the run, not
    # just after it, while every key of every read the run makes is guarded
    # first; at d = 2 some reads take several keys
    engine = oracle1_d2.engine
    caller_engines, read_engines, keys, guards = [], [], [], []
    real_dist, real_read = ReferenceOracle.dist_avoiding, HitSetEngine._read
    real_guard = ReferenceOracle.constraint_holds

    def spy_dist(self, failed, u, v):
        caller_engines.append(oracle1_d2.engine)
        return real_dist(self, failed, u, v)

    def spy_read(self, u, v, ups, vps, *args):
        read_engines.append(type(self))
        keys.append(len(ups) * len(vps))
        return real_read(self, u, v, ups, vps, *args)

    def spy_guard(self, *args):
        guards.append(args)
        return real_guard(self, *args)

    monkeypatch.setattr(ReferenceOracle, "dist_avoiding", spy_dist)
    monkeypatch.setattr(HitSetEngine, "_read", spy_read)
    monkeypatch.setattr(ReferenceOracle, "constraint_holds", spy_guard)
    report = verify_instance(oracle1_d2)
    assert report.ok
    assert caller_engines and all(e is engine for e in caller_engines)
    assert type(engine) is HitSetEngine
    assert read_engines and all(t is CheckedEngine for t in read_engines)
    assert len(guards) == sum(keys) > len(keys)


def test_verify_records_every_case_three(oracle6_d2, monkeypatch):
    # the outcomes checked per instance are exactly its case_three calls
    counts = []
    real = Oracle.query_composite

    def spy(self, u, v, failures=(), stats=None):
        answer = real(self, u, v, failures, stats)
        counts.append((len(self.engine.records), stats.case_three_calls))
        return answer

    monkeypatch.setattr(Oracle, "query_composite", spy)
    report = verify_instance(oracle6_d2)
    assert report.ok
    assert len(counts) == report.instances
    assert all(got == want for got, want in counts)
    assert sum(want for _, want in counts) == report.case_three_calls > 0


def test_verify_flags_bound_below_truth(oracle6_d1, monkeypatch):
    # a bound one code under the true distance with no hit to excuse it
    real = HitSetEngine.case_three

    def short(self, u, v, view):
        return HitSetOutcome(real(self, u, v, view).bound - 1, frozenset())

    monkeypatch.setattr(HitSetEngine, "case_three", short)
    report = verify_instance(oracle6_d1)
    assert report.bound_violations > 0
    assert not report.ok


def test_verify_flags_hit_off_damaged_paths(oracle6_d1, monkeypatch):
    # u itself is never on a damaged tree path from u, so it fails the check
    real = HitSetEngine.case_three

    def extra(self, u, v, view):
        bound, hits = real(self, u, v, view)
        return HitSetOutcome(bound, hits | {u})

    monkeypatch.setattr(HitSetEngine, "case_three", extra)
    report = verify_instance(oracle6_d1)
    assert report.hit_check_violations > 0
    assert not report.ok


def test_verify_raises_on_unguarded_lookup(oracle6_d1, monkeypatch):
    # anchor v is on a damaged path from u whenever case_three runs
    real = HitSetEngine.case_three

    def unguarded(self, u, v, view):
        self._read(u, v, [v], [v], 0, 0, view)
        return real(self, u, v, view)

    monkeypatch.setattr(HitSetEngine, "case_three", unguarded)
    with pytest.raises(GuardError, match="unguarded lookup"):
        verify_instance(oracle6_d1)


def test_guard_catches_a_swapped_loaded_tree(tmp_path, monkeypatch):
    # each root in turn derives, on first use after a load, a tree with two
    # parents swapped; the guard walks the reference's own trees, not the
    # index's, so an exhaustive replay raises.  The tables derive their slots
    # on an intact load's index, as a pair's first read would refuse a palette
    # that misses its swapped tree path before the guard saw a lookup
    oracle = build_oracle(gen_gnm(8, 12, 32, 0), 2, seed=1)
    saved = str(tmp_path / "g.oracle")
    save_oracle(oracle, saved)
    intact = load_oracle(saved).index
    for root in range(oracle.graph.n):
        with monkeypatch.context() as patch:
            swap_parents(patch, root)
            loaded = load_oracle(saved)
            loaded.tables.index = intact
            with pytest.raises(GuardError, match="unguarded lookup"):
                verify_instance(loaded)
            assert mask_parents(loaded.index, root) != mask_parents(oracle.index, root)
