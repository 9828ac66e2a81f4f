import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrank import metrics
from dynrank.metrics import (
    JudgmentSet,
    MetricSpec,
    RankedList,
    alpha_dcg_at_k,
    alpha_ndcg_at_k,
    dcg_at_k,
    doc_relevance,
    ideal_alpha_dcg_at_k,
    ndcg_at_k,
    report_value,
    session_ndcg,
    target_value,
)

rel_lists = st.lists(st.floats(0, 5), min_size=1, max_size=6)


def brute_force_max_dcg(rels, k):
    return max(dcg_at_k(p, k) for p in itertools.permutations(rels))


class TestDcg:
    def test_hand_value(self):
        assert dcg_at_k([3, 2, 0], 3) == pytest.approx(3 + 2 / math.log2(3), abs=1e-4)

    def test_all_zero(self):
        assert dcg_at_k([0, 0, 0], 3) == 0.0

    def test_single_item_rank_one_discount(self):
        assert dcg_at_k([5], 10) == 5.0

    def test_negative_relevance_rejected(self):
        with pytest.raises(ValueError):
            dcg_at_k([1, -1], 2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            dcg_at_k([1], 0)

    @given(rel_lists, st.integers(1, 6), st.integers(0, 5), st.floats(0.1, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_any_topk_entry(self, rels, k, pos, bump):
        pos = pos % min(k, len(rels))
        bumped = list(rels)
        bumped[pos] += bump
        assert dcg_at_k(bumped, k) >= dcg_at_k(rels, k)


class TestNdcg:
    def test_ideal_order_scores_one(self):
        assert ndcg_at_k([3, 2, 1], 3) == pytest.approx(1.0)

    def test_all_zero_scores_zero(self):
        assert ndcg_at_k([0, 0], 2) == 0.0

    def test_hand_value(self):
        assert ndcg_at_k([0, 3], 2) == pytest.approx(0.6309, abs=1e-4)

    @given(rel_lists, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_range(self, rels, k):
        assert 0.0 <= ndcg_at_k(rels, k) <= 1.0 + 1e-12

    def test_brute_force_optimality_small(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(1, 6)
            rels = [float(g) for g in rng.integers(0, 4, n)]
            k = int(rng.integers(1, n + 1))
            ideal = dcg_at_k(sorted(rels, reverse=True), k)
            assert ideal == pytest.approx(brute_force_max_dcg(rels, k), abs=1e-12)
            if ideal > 0:
                assert ndcg_at_k(sorted(rels, reverse=True), k) == pytest.approx(1.0)


class TestAlphaDcg:
    def test_single_cover_is_one(self):
        assert alpha_dcg_at_k([{"s1": 1}], 1, 0.5) == pytest.approx(1.0)

    def test_redundant_pair(self):
        cov = [{"s1": 1}, {"s1": 2}]
        assert alpha_dcg_at_k(cov, 2, 0.5) == pytest.approx(1 + 0.5 / math.log2(3), abs=1e-4)

    def test_diverse_pair(self):
        cov = [{"s1": 1}, {"s2": 1}]
        assert alpha_dcg_at_k(cov, 2, 0.5) == pytest.approx(1 + 1 / math.log2(3), abs=1e-4)

    def test_accepts_sets(self):
        assert alpha_dcg_at_k([{"s1"}, {"s1"}], 2, 0.5) == pytest.approx(
            alpha_dcg_at_k([{"s1": 3}, {"s1": 1}], 2, 0.5)
        )

    def test_alpha_zero_single_subtopic_equals_binary_dcg(self):
        cov = [{"s": 1}, {}, {"s": 2}, {"s": 1}]
        binary = [1.0, 0.0, 1.0, 1.0]
        assert alpha_dcg_at_k(cov, 4, 0.0) == pytest.approx(dcg_at_k(binary, 4))

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            alpha_dcg_at_k([{"s"}], 1, 1.0)
        with pytest.raises(ValueError):
            alpha_dcg_at_k([{"s"}], 1, -0.1)

    @given(st.lists(st.sets(st.sampled_from("abcd"), max_size=3), min_size=1, max_size=6),
           st.sets(st.sampled_from("abcd"), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_appending_never_decreases(self, cov, extra):
        base = alpha_dcg_at_k(cov, len(cov), 0.5)
        extended = alpha_dcg_at_k(cov + [extra], len(cov) + 1, 0.5)
        assert extended >= base - 1e-12


class TestAlphaNdcg:
    def test_single_relevant_doc_is_one(self):
        assert alpha_ndcg_at_k([{"s1": 2}], 1, 0.5) == pytest.approx(1.0)

    def test_redundant_vs_diverse_pool(self):
        redundant = [{"s1"}, {"s1"}]
        pool = [("a", {"s1"}), ("b", {"s1"}), ("c", {"s2"})]
        got = alpha_ndcg_at_k(redundant, 2, 0.5, pool=pool)
        expected = (1 + 0.5 / math.log2(3)) / (1 + 1 / math.log2(3))
        assert got == pytest.approx(expected, abs=1e-3)
        assert got == pytest.approx(0.8066, abs=1e-3)

    def test_empty_coverage_scores_zero(self):
        assert alpha_ndcg_at_k([], 3, 0.5) == 0.0
        assert alpha_ndcg_at_k([{}, {}], 2, 0.5) == 0.0

    @given(st.lists(st.sets(st.sampled_from("abc"), max_size=2), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_range(self, cov):
        val = alpha_ndcg_at_k(cov, len(cov), 0.5)
        assert 0.0 <= val <= 1.0

    def test_greedy_ideal_vs_enumeration_small(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            cov = [set(np.array(list("abcd"))[rng.random(4) < 0.4]) for _ in range(n)]
            greedy = ideal_alpha_dcg_at_k(cov, n, 0.5)
            best = max(
                alpha_dcg_at_k([cov[i] for i in perm], n, 0.5)
                for perm in itertools.permutations(range(n))
            )
            assert greedy == pytest.approx(best, abs=1e-12)

    def test_greedy_tie_breaks_on_doc_id(self):
        # identical coverage: the smaller doc id must be ranked first
        pool = [("b", {"s"}), ("a", {"s"})]
        assert ideal_alpha_dcg_at_k(pool, 2, 0.5) == pytest.approx(1 + 0.5 / math.log2(3))


class TestCachedGreedyIdeal:
    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                           st.dictionaries(st.sampled_from(["s1", "s2", "s3"]),
                                           st.sampled_from([0.0, 1.0, 2.0]), min_size=1),
                           min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_matches_greedy_reference_bitwise(self, docs):
        js = JudgmentSet(
            {("t", sub, doc): g for doc, cov in docs.items() for sub, g in cov.items()}
        )

        def check():
            # built from the judgments, not from the cached pool under test
            coverage = {d: js.coverage("t", d) for d in "abcdefg" if js.coverage("t", d)}
            pool = [(d, cov) for d, cov in coverage.items() if any(g > 0 for g in cov.values())]
            for alpha in (0.5, 0.2):
                for k in range(1, len(pool) + 3):
                    assert js.ideal_alpha_dcg("t", k, alpha) == ideal_alpha_dcg_at_k(pool, k, alpha)

        check()
        js.add("t", "s4", "g", 1.0)  # must invalidate the cached ideal
        check()

    def test_add_invalidates(self):
        js = JudgmentSet({("t", "s1", "a"): 1.0})
        assert js.ideal_alpha_dcg("t", 2, 0.5) == 1.0
        js.add("t", "s2", "b", 1.0)
        assert js.ideal_alpha_dcg("t", 2, 0.5) == 1.0 + 1.0 / math.log2(3)


class TestCachedRealizedAlphaDcg:
    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                           st.dictionaries(st.sampled_from(["s1", "s2", "s3", "s4"]),
                                           st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1),
                           min_size=1),
           st.permutations(["a", "b", "c", "d", "e", "f", "u1", "u2"]),
           st.integers(1, 8), st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    @settings(max_examples=100, deadline=None)
    def test_targets_and_reports_match_reference_bitwise(self, docs, order, length, alpha):
        js = JudgmentSet(
            {("t", sub, doc): g for doc, cov in docs.items() for sub, g in cov.items()}
        )
        ranked = order[:length]  # judged, grade-0 and unjudged ("u*") documents

        def check():
            # built from the judgments, not from the cached pool under test
            pool = [(d, js.coverage("t", d)) for d in sorted(order)]
            pool = [(d, cov) for d, cov in pool if any(g > 0 for g in cov.values())]

            def normalized(k):
                realized = alpha_dcg_at_k([js.coverage("t", d) for d in ranked], k, alpha)
                ideal = ideal_alpha_dcg_at_k(pool, k, alpha)
                return min(realized / ideal, 1.0) if ideal > 0.0 else 0.0

            k = len(ranked)
            realized = alpha_dcg_at_k([js.coverage("t", d) for d in ranked], k, alpha)
            spec = MetricSpec(target="alpha-dcg", alpha=alpha)
            assert target_value(js, "t", ranked, spec) == realized
            spec = MetricSpec(target="alpha-ndcg", alpha=alpha)
            assert target_value(js, "t", ranked, spec) == normalized(k)
            run = RankedList("t", ranked, [k])
            assert report_value(js, "t", run, "alpha-ndcg", spec) == normalized(k)
            for cut in (1, 3):
                assert report_value(js, "t", run, f"alpha-ndcg@{cut}", spec) == normalized(cut)

        check()
        js.add("t", "s5", ranked[0], 1.0)  # must invalidate the cached subtopic sets
        check()


class TestIncrementalRealizedAlphaDcg:
    COVERAGE = {  # multi-subtopic documents, so alpha != 0.5 rounds per order
        "t": {"a": {"s1": 1, "s2": 2}, "b": {"s1": 1, "s2": 1, "s3": 1}, "c": {"s3": 2},
              "d": {"s1": 1, "s2": 1, "s3": 1, "s4": 1}, "e": {"s4": 1}, "f": {"s2": 0}},
        "u": {"a": {"x": 1}, "b": {"x": 1, "y": 1}, "c": {"y": 1, "z": 2}},
    }
    ORDER = {"t": ["d", "b", "u1", "a", "f", "c", "e"], "u": ["b", "a", "c", "u2"]}

    @given(st.lists(st.tuples(st.sampled_from(["t", "u"]), st.integers(1, 7),
                              st.sampled_from([0.5, 0.3, 0.0]), st.integers(1, 8)),
                    min_size=1, max_size=15))
    @settings(max_examples=150, deadline=None)
    def test_matches_alpha_dcg_at_k_bitwise(self, calls):
        """Each call may grow the list, change the topic, shorten the list,
        change alpha or cut it: the extended sum keeps the reference's bits."""
        js = JudgmentSet({(t, sub, d): g for t, docs in self.COVERAGE.items()
                          for d, cov in docs.items() for sub, g in cov.items()})
        for topic, length, alpha, cut in calls:
            ranked = self.ORDER[topic][:length]
            for k in (len(ranked), cut):
                want = alpha_dcg_at_k([js.coverage(topic, d) for d in ranked], k, alpha)
                assert repr(js.alpha_dcg(topic, ranked, k, alpha)) == repr(want)
            spec = MetricSpec(target="alpha-dcg", alpha=alpha)
            want = alpha_dcg_at_k([js.coverage(topic, d) for d in ranked], len(ranked), alpha)
            assert repr(target_value(js, topic, ranked, spec)) == repr(want)

    def test_growing_list_extends_the_previous_sum(self, monkeypatch):
        summed = []  # documents summed per call
        real = metrics._extend_alpha_dcg

        def counting(total, counts, subsets, done, alpha):
            subsets = list(subsets)
            summed.append(len(subsets))
            return real(total, counts, subsets, done, alpha)

        monkeypatch.setattr(metrics, "_extend_alpha_dcg", counting)
        js = JudgmentSet({("t", sub, d): g for d, cov in self.COVERAGE["t"].items()
                          for sub, g in cov.items()})
        ranked = self.ORDER["t"]
        for n in range(1, len(ranked) + 1):
            js.alpha_dcg("t", ranked[:n], n, 0.3)
        js.alpha_dcg("t", ranked[:2], 2, 0.3)  # a shorter list starts over
        js.alpha_dcg("t", ranked[:3], 3, 0.5)  # and so does another alpha
        assert summed == [1] * len(ranked) + [2, 3]


def test_alpha_dcg_does_not_depend_on_hash_seed():
    """Gains are summed in sorted subtopic order, not in set order, which
    depends on the process's string hash seed."""
    code = (
        "from dynrank.metrics import JudgmentSet, alpha_dcg_at_k, ideal_alpha_dcg_at_k\n"
        "cov = [{'a'}, {'a', 'b'}, {'a', 'b', 'c'}, {'a', 'b', 'c', 'd'}]\n"
        "js = JudgmentSet({('t', s, f'd{i}'): 1.0 for i, c in enumerate(cov) for s in c})\n"
        "print(repr(alpha_dcg_at_k(cov, 4, 0.3)), repr(ideal_alpha_dcg_at_k(cov[::-1], 4, 0.3)),\n"
        "      repr(js.alpha_dcg('t', ['d0', 'd1', 'd2', 'd3'], 4, 0.3)))\n"
    )
    src = str(Path(metrics.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                   text=True, check=True, timeout=60).stdout)
    assert outs[0] == outs[1]
    assert outs[0].split()[0] == repr(alpha_dcg_at_k(
        [{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d"}], 4, 0.3))


class TestSessionNdcg:
    def test_single_iteration_equals_ndcg(self):
        rels = [2.0, 0.0, 1.0]
        assert session_ndcg([rels], 3, 4.0) == pytest.approx(ndcg_at_k(rels, 3))

    def test_all_zero_session(self):
        assert session_ndcg([[0, 0], [0, 0]], 2, 4.0) == 0.0

    def test_realized_equals_ideal(self):
        # iteration DCGs 4.0 then 2.0; globally best assignment is the same
        assert session_ndcg([[4.0], [2.0]], 1, 4.0) == pytest.approx(1.0)

    def test_discounts_strictly_decreasing(self):
        bq = 4.0
        discounts = [1.0 / (1.0 + math.log(j, bq)) for j in range(1, 8)]
        assert all(a > b for a, b in zip(discounts, discounts[1:]))

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            session_ndcg([], 2, 4.0)

    def test_bq_must_exceed_one(self):
        with pytest.raises(ValueError):
            session_ndcg([[1.0]], 1, 1.0)

    def test_pool_extends_ideal(self):
        # with a stronger pool the same session scores lower
        own = session_ndcg([[1.0]], 1, 4.0)
        pooled = session_ndcg([[1.0]], 1, 4.0, pool=[3.0, 1.0])
        assert own == pytest.approx(1.0)
        assert pooled == pytest.approx(1.0 / 3.0)


class TestJudgments:
    def make(self):
        return JudgmentSet({
            ("t1", "s1", "d1"): 2.0,
            ("t1", "s2", "d1"): 1.0,
            ("t1", "s1", "d2"): 4.0,
            ("t2", "s1", "d3"): 1.0,
        })

    def test_doc_relevance_sums_subtopics(self):
        js = self.make()
        assert doc_relevance(js, "t1", "d1") == 3.0
        assert doc_relevance(js, "t1", "d2") == 4.0

    def test_unjudged_doc_is_zero(self):
        assert doc_relevance(self.make(), "t1", "nope") == 0.0

    def test_negative_grade_rejected(self):
        with pytest.raises(ValueError):
            JudgmentSet({("t", "s", "d"): -1.0})

    def test_topic_indexes(self):
        js = self.make()
        assert [t for t in ("t0", "t1", "t2", "t3") if js.has_topic(t)] == ["t1", "t2"]
        assert set(js.coverage("t1", "d1")) | set(js.coverage("t1", "d2")) == {"s1", "s2"}
        assert len(js) == 4
        assert {d for d in ("d1", "d2", "d3") if js.coverage("t1", d)} == {"d1", "d2"}
        assert js.positive_docs("t2") == {"d3"}
        assert js.coverage("t1", "d1").get("s1", 0.0) == 2.0
        assert js.coverage("t1", "d1").get("s9", 0.0) == 0.0
        assert js == self.make() and js != JudgmentSet({("t2", "s1", "d3"): 1.0})


class TestRankedList:
    def test_iteration_blocks(self):
        rl = RankedList("t", ["a", "b", "c", "d", "e"], [2, 5])
        assert rl.iteration_blocks() == [["a", "b"], ["c", "d", "e"]]

    def test_duplicate_docs_rejected(self):
        with pytest.raises(ValueError):
            RankedList("t", ["a", "a"], [2])

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            RankedList("t", ["a", "b"], [2, 2])

    def test_last_boundary_must_close_list(self):
        with pytest.raises(ValueError):
            RankedList("t", ["a", "b"], [1])


class TestTargets:
    def make(self):
        return JudgmentSet({
            ("t1", "s1", "d1"): 3.0,
            ("t1", "s2", "d2"): 1.0,
            ("t1", "s1", "d3"): 1.0,
        })

    def test_dcg_target_matches_direct(self):
        js = self.make()
        spec = MetricSpec(target="dcg")
        got = target_value(js, "t1", ["d1", "d3"], spec)
        assert got == pytest.approx(dcg_at_k([3.0, 1.0], 2))

    def test_alpha_dcg_target_matches_direct(self):
        js = self.make()
        spec = MetricSpec(target="alpha-dcg", alpha=0.5)
        got = target_value(js, "t1", ["d1", "d3"], spec)
        assert got == pytest.approx(alpha_dcg_at_k([{"s1": 3.0}, {"s1": 1.0}], 2, 0.5))

    def test_ndcg_target_uses_pool_ideal(self):
        js = self.make()
        spec = MetricSpec(target="ndcg")
        got = target_value(js, "t1", ["d2"], spec)
        assert got == pytest.approx(1.0 / 3.0)

    def test_unknown_topic_rejected(self):
        with pytest.raises(ValueError):
            target_value(self.make(), "nope", ["d1"], MetricSpec())

    def test_report_value_cutoff_suffix(self):
        js = self.make()
        spec = MetricSpec(report=("ndcg@1",))
        ranked = RankedList("t1", ["d3", "d1"], [2])
        assert report_value(js, "t1", ranked, "ndcg@1", spec) == pytest.approx(1.0 / 3.0)

    def test_report_nsdcg_uses_blocks(self):
        js = self.make()
        spec = MetricSpec()
        ranked = RankedList("t1", ["d1", "d3", "d2"], [2, 3])
        val = report_value(js, "t1", ranked, "nsdcg", spec, k_per_iteration=2)
        lists = [[3.0, 1.0], [1.0]]
        expected = session_ndcg(lists, 2, 4.0, pool=[3.0, 1.0, 1.0])
        assert val == pytest.approx(expected)

    def test_spec_validates_names(self):
        with pytest.raises(ValueError):
            MetricSpec(target="mrr")
        with pytest.raises(ValueError):
            MetricSpec(report=("precision",))
