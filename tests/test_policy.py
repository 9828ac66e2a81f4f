import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from dynrank.data import gen_synthetic
from dynrank.feedback import EmbedRocchioFeedback, RocchioParams
from dynrank.metrics import MetricSpec, alpha_dcg_at_k, dcg_at_k
from dynrank.policy import (
    PolicyConfig,
    SessionState,
    _PoolCache,
    best_action,
    epsilon_schedule,
    evaluate_session,
    forward_inputs,
    greedy_pick,
    new_session,
    pair_input,
    run_session,
    score_candidates,
    select_action,
    session_transition,
    step_reward,
    step_transition,
    train_session,
)
from dynrank.valuenet import (
    NetConfig,
    ScoringWorkspace,
    ValueNetParams,
    apply_update,
    forward,
    forward_candidates,
    init_glorot,
    param_count,
    project_docs,
)

NET = NetConfig(layers=2, input_dim=8, hidden_dims=(5, 5), dense_dims=(4,),
                window=3, dropout=0.0, learning_rate=0.05, output="linear")


def tiny_dataset(num_topics=2, docs=12, subtopics=2, seed=0):
    return gen_synthetic(num_topics, docs, subtopics, dim=4, seed=seed)


def rank(state, doc):
    """``step_transition`` by doc id."""
    return step_transition(state, state.candidates().index(doc))


def with_candidates(state, docs):
    """``state`` with only ``docs`` left to rank."""
    return dataclasses.replace(state, live=sorted(state.ids.index(d) for d in docs))


def score_map(params, state, pool=None):
    """``score_candidates`` as a doc id -> score map, from a fresh pool
    unless ``pool`` is given."""
    values = score_candidates(params, state, pool or _PoolCache())
    assert values.shape == (len(state.live),)
    return dict(zip(state.candidates(), values.tolist()))


def test_epsilon_schedule_exact_values():
    assert epsilon_schedule(0) == 0.5
    assert epsilon_schedule(999) == 0.5
    assert epsilon_schedule(1000) == pytest.approx(0.45, abs=1e-15)
    assert epsilon_schedule(2000) == pytest.approx(0.405, abs=1e-15)
    assert epsilon_schedule(3000) == pytest.approx(0.3645, abs=1e-15)
    assert epsilon_schedule(1000) == 0.5 * 0.9
    assert epsilon_schedule(2000) == 0.5 * 0.9**2
    assert epsilon_schedule(3000) == 0.5 * 0.9**3


class TestScoreCandidates:
    def test_zero_params_score_zero(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        params = ValueNetParams(NET, np.zeros(param_count(NET)))
        scores = score_map(params, state)
        assert list(scores) == sorted(ds.pools["t000"])
        assert all(v == 0.0 for v in scores.values())

    def test_single_candidate(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        keep = state.candidates()[0]
        state = SessionState(
            topic_id=state.topic_id, query=state.query, vectors=state.vectors,
            ids=state.ids, live=[0],
        )
        params = init_glorot(NET, 0)
        scores = score_map(params, state)
        assert list(scores) == [keep]

    def test_matches_independent_forward_calls(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 1)
        state = new_session(ds, "t000")
        # rank two docs first so the prefix is non-trivial
        for doc in state.candidates()[:2]:
            state = rank(state, doc)
        scores = score_map(params, state)
        for doc in state.candidates()[:3]:
            inputs = forward_inputs(state) + [np.concatenate([state.vectors[doc], state.query])]
            expected, _ = forward(params, inputs, mode="eval")
            assert scores[doc] == pytest.approx(expected, abs=1e-12)

    def test_empty_candidates_rejected(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        state = SessionState(topic_id=state.topic_id, query=state.query,
                             vectors=state.vectors, ids=state.ids)
        with pytest.raises(ValueError):
            score_candidates(init_glorot(NET, 0), state, _PoolCache())


@st.composite
def scoring_cases(draw):
    """A random net and session: 1-3 layers, window 1-5, either head, input
    scale 1 or not, embedding mode or feature mode (empty query), some
    documents ranked and a candidate set that may be smaller than the pool."""
    layers = draw(st.integers(1, 3))
    feature_mode = draw(st.booleans())
    dim = draw(st.integers(1, 5))
    net = NetConfig(
        layers=layers,
        input_dim=dim if feature_mode else 2 * dim,
        hidden_dims=tuple(draw(st.lists(st.integers(1, 6), min_size=layers, max_size=layers))),
        dense_dims=(3,),
        window=draw(st.integers(1, 5)),
        dropout=0.0,
        output=draw(st.sampled_from(["linear", "sigmoid"])),
        input_scale=draw(st.sampled_from([1.0, 0.7, 11.3])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_docs = draw(st.integers(1, 10))
    vectors = {f"d{i:02d}": rng.standard_normal(dim) for i in range(n_docs)}
    query = np.zeros(0) if feature_mode else rng.standard_normal(dim)
    state = SessionState(topic_id="t", query=query, vectors=vectors,
                         ids=tuple(sorted(vectors)), live=range(n_docs))
    order = rng.permutation(sorted(vectors))
    for doc in order[: draw(st.integers(0, n_docs - 1))]:
        state = rank(state, str(doc))
    keep = draw(st.lists(st.sampled_from(state.candidates()), min_size=1, unique=True))
    return init_glorot(net, seed), state, frozenset(keep)


def reference_scores(params, state):
    """Per-candidate forward over prefix + [candidate unit]."""
    prefix = forward_inputs(state)
    return {
        doc: forward(params, prefix + [pair_input(state.vectors[doc], state.query)], mode="eval")[0]
        for doc in state.candidates()
    }


class TestScoringFastPath:
    @given(scoring_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_candidate_forward(self, case):
        params, state, keep = case
        # one pool: a fresh projection, the kept one, a subset's, then the
        # kept projection compacted by a transition
        pool = _PoolCache()
        for _ in range(2):
            scores = score_map(params, state, pool)
            expected = reference_scores(params, state)
            for doc, value in scores.items():
                assert abs(value - expected[doc]) <= 1e-12
            assert score_map(params, state, pool) == scores
            subset = with_candidates(state, keep & set(state.candidates()) or state.candidates())
            sub_scores = score_map(params, subset, pool)
            assert all(abs(sub_scores[d] - expected[d]) <= 1e-12 for d in sub_scores)
            if len(state.live) == 1:
                break
            score_map(params, state, pool)
            pos = state.candidates().index(max(scores, key=scores.get))
            nxt = step_transition(state, pos)
            pool.drop(state.live, pos, nxt.live)
            assert pool.live is nxt.live
            state = nxt

    def test_scoring_follows_updated_weights(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 1)
        state = rank(new_session(ds, "t000"), "t000-d0003")
        before = score_map(params, state)
        grad = np.random.default_rng(0).standard_normal(params.n_params)
        updated = apply_update(params, grad, 0.1)
        after = score_map(updated, state)
        expected = reference_scores(updated, state)
        assert all(abs(after[d] - expected[d]) <= 1e-12 for d in after)
        assert all(after[d] != before[d] for d in after)


class TestInPlaceUpdateScoring:
    @given(scoring_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_scores_and_train_forward_follow_in_place_update(self, case, seed):
        params, state, _ = case
        pool = _PoolCache()
        score_candidates(params, state, pool)  # keeps the projection at this version
        grad = np.random.default_rng(seed).standard_normal(params.n_params)
        apply_update(params, grad, 0.1)
        fresh = params.copy()
        after = score_candidates(params, state, pool)
        want = score_candidates(fresh, state, _PoolCache())
        assert after.tobytes() == want.tobytes()
        nxt = step_transition(state, best_action(after))
        inputs = forward_inputs(nxt, params.config.window)
        assert forward(params, inputs, mode="train")[0] == forward(fresh, inputs, mode="train")[0]

    @given(scoring_cases())
    @settings(max_examples=80, deadline=None)
    def test_direct_projection_matches_cached_gather(self, case):
        params, state, keep = case
        sub = with_candidates(state, keep)
        pool = _PoolCache()
        kept = pool.gate_block(params, state)
        assert pool.proj is kept and pool.gate_block(params, state) is kept
        cached = kept[:, np.searchsorted(state.live, sub.live)]
        direct = pool.gate_block(params, sub)  # other live rows: projected afresh
        assert pool.live is sub.live and pool.ids is state.ids  # the same session's pool
        np.testing.assert_allclose(direct, cached, rtol=0, atol=1e-12)
        apply_update(params, np.ones(params.n_params), 0.1)
        again = pool.gate_block(params, sub)  # new weights: projected again
        fresh = _PoolCache().gate_block(params, sub)
        assert again.tobytes() == fresh.tobytes()


def reference_best_action(scores):
    """The dict-based argmax: the best-scoring id, ties to the smallest id."""
    ids = sorted(scores)
    vals = np.fromiter(map(scores.__getitem__, ids), np.float64, len(ids))
    return ids[int(np.argmax(vals))]


def reference_select_action(scores, epsilon, mode, rng):
    """The dict-based epsilon-greedy pick over an id -> score map."""
    ids = sorted(scores)
    if rng.random() < epsilon:
        return ids[rng.integers(len(ids))]
    if mode == "argmax":
        return reference_best_action(scores)
    vals = np.fromiter(map(scores.__getitem__, ids), np.float64, len(ids))
    total = vals.sum()
    if not math.isfinite(total):
        raise FloatingPointError("non-finite candidate scores")
    lo = vals.min()
    if lo <= 0.0:
        vals = vals - lo + 1e-6
        total = vals.sum()
    return ids[rng.choice(len(ids), p=vals / total)]


def pick_id(scores, epsilon, mode, rng):
    """``select_action`` over an id -> score map, returning the id."""
    ids = sorted(scores)
    return ids[select_action(np.array([scores[d] for d in ids]), epsilon, mode, rng)]


class TestSelectAction:
    @given(st.dictionaries(st.text("abc", min_size=1, max_size=3),
                           st.sampled_from([-1.0, 0.0, 0.25, 2.0]), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_argmax_ties_go_to_smallest_id(self, scores):
        best = min(scores, key=lambda d: (-scores[d], d))
        assert pick_id(scores, 0.0, "argmax", np.random.default_rng(0)) == best

    @pytest.mark.parametrize("mode", ["argmax", "sample"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    def test_matches_dict_reference(self, mode, epsilon):
        # exact ties (scores drawn from a few values) and negative scores
        data = np.random.default_rng(17)
        for case in range(200):
            n = int(data.integers(1, 9))
            ids = [f"d{i:02d}" for i in data.permutation(n)]  # inserted out of order
            scores = dict(zip(ids, data.choice([-0.5, 0.0, 0.25, 1.0, 3.0], n).tolist()))
            rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
            for _ in range(5):
                assert pick_id(scores, epsilon, mode, rng) == reference_select_action(
                    scores, epsilon, mode, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert sorted(scores)[best_action(np.array([scores[d] for d in sorted(scores)]))] \
                == reference_best_action(scores)

    def test_epsilon_one_is_uniform(self):
        rng = np.random.default_rng(0)
        scores = {c: float(i) for i, c in enumerate("abcde")}
        counts = {c: 0 for c in scores}
        n = 10_000
        for _ in range(n):
            counts[pick_id(scores, 1.0, "argmax", rng)] += 1
        expected = n / len(scores)
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.99, df=len(scores) - 1)

    def test_epsilon_zero_argmax(self):
        rng = np.random.default_rng(0)
        scores = {"a": 0.2, "b": 0.9}
        assert all(pick_id(scores, 0.0, "argmax", rng) == "b" for _ in range(50))

    def test_argmax_tie_breaks_ascending(self):
        rng = np.random.default_rng(0)
        scores = {"b": 1.0, "a": 1.0, "c": 0.5}
        assert pick_id(scores, 0.0, "argmax", rng) == "a"

    def test_proportional_sampling_frequency(self):
        rng = np.random.default_rng(123)
        scores = {"a": 1.0, "b": 3.0}
        n = 10_000
        hits = sum(pick_id(scores, 0.0, "sample", rng) == "b" for _ in range(n))
        assert hits / n == pytest.approx(0.75, abs=0.02)

    def test_sampling_kl_convergence(self):
        rng = np.random.default_rng(7)
        scores = {"a": 1.0, "b": 2.0, "c": 5.0}
        total = sum(scores.values())
        n = 100_000
        counts = {k: 0 for k in scores}
        for _ in range(n):
            counts[pick_id(scores, 0.0, "sample", rng)] += 1
        kl = sum(
            (counts[k] / n) * math.log((counts[k] / n) / (scores[k] / total))
            for k in scores if counts[k] > 0
        )
        assert kl <= 0.01

    def test_nonpositive_scores_shifted(self):
        # after the shift the lowest score keeps only the tiny delta mass
        rng = np.random.default_rng(5)
        scores = {"a": -2.0, "b": 0.0}
        picks = [pick_id(scores, 0.0, "sample", rng) for _ in range(200)]
        assert picks.count("b") >= 199
        # equal non-positive scores become uniform
        rng = np.random.default_rng(6)
        even = {"a": -1.0, "b": -1.0}
        hits = sum(pick_id(even, 0.0, "sample", rng) == "a" for _ in range(2000))
        assert hits / 2000 == pytest.approx(0.5, abs=0.05)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            select_action(np.zeros(0), 0.5, "argmax", np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected_in_sample_mode(self, bad):
        with pytest.raises(FloatingPointError, match="non-finite candidate scores"):
            select_action(np.array([bad, 1.0]), 0.0, "sample", np.random.default_rng(0))


class TestTransitions:
    def test_step_moves_doc(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        n_ranked, n_cand = len(state.ranked), len(state.live)
        doc = state.candidates()[0]
        nxt = step_transition(state, 0)
        assert len(nxt.ranked) == n_ranked + 1
        assert len(nxt.live) == n_cand - 1
        assert nxt.ranked[-1][0] == doc
        assert len(state.live) == n_cand  # the old state is untouched

    def test_repeat_doc_rejected(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        doc = state.candidates()[0]
        state = step_transition(state, 0)
        assert doc not in state.candidates()
        for pos in (-1, len(state.live)):  # positions index only the live rows
            with pytest.raises(ValueError):
                step_transition(state, pos)
        with pytest.raises(ValueError, match="overlap"):  # the ranked doc made live again
            dataclasses.replace(state, live=range(len(state.ids)))

    @pytest.mark.parametrize("live", [[1, 0], [0, 0], [-1, 2], [0, 12], [[0, 1]]])
    def test_bad_live_rows_rejected(self, live):
        state = new_session(tiny_dataset(), "t000")  # a pool of 12
        with pytest.raises(ValueError, match="live rows"):
            dataclasses.replace(state, live=live)

    def test_prefix_preserved(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        docs = state.candidates()[:3]
        for d in docs:
            state = rank(state, d)
        assert state.ranked_ids() == docs

    def test_invariant_after_many_steps(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        total = len(state.live)
        rng = np.random.default_rng(0)
        for _ in range(6):
            state = step_transition(state, int(rng.integers(len(state.live))))
            assert not (set(state.ranked_ids()) & set(state.candidates()))
            assert len(state.ranked) + len(state.live) == total
            assert (np.diff(state.live) > 0).all()

    def test_session_transition_replaces_query_only(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        state = step_transition(state, 0)
        new_q = state.query + 1.0
        nxt = session_transition(state, new_q)
        assert nxt.n == state.n + 1
        assert nxt.ranked == state.ranked
        assert nxt.candidates() == state.candidates()
        np.testing.assert_array_equal(nxt.query, new_q)

    def test_session_transition_dim_mismatch(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        with pytest.raises(ValueError):
            session_transition(state, np.zeros(state.query.size + 1))

    def test_inputs_pair_ranked_docs_with_new_query(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        for _ in range(2):
            state = step_transition(state, 0)
        new_q = state.query * 2.0 + 0.5
        state = session_transition(state, new_q)
        for unit, (_, vec) in zip(forward_inputs(state), state.ranked):
            np.testing.assert_array_equal(unit[: vec.size], vec)
            np.testing.assert_array_equal(unit[vec.size:], new_q)


class TestStepReward:
    def make_state(self, ds, topic, docs):
        state = new_session(ds, topic)
        for d in docs:
            state = rank(state, d)
        return state

    def test_first_step_grade(self):
        ds = tiny_dataset()
        topic = "t000"
        pos = sorted(ds.judgments.positive_docs(topic))[0]
        state = self.make_state(ds, topic, [pos])
        from dynrank.metrics import doc_relevance

        expected = doc_relevance(ds.judgments, topic, pos)
        assert step_reward(MetricSpec(target="dcg"), state, ds.judgments) == expected

    def test_unjudged_first_step_is_zero(self):
        ds = tiny_dataset()
        topic = "t000"
        unjudged = next(d for d in sorted(ds.pools[topic]) if not ds.judgments.coverage(topic, d))
        state = self.make_state(ds, topic, [unjudged])
        assert step_reward(MetricSpec(target="dcg"), state, ds.judgments) == 0.0

    def test_alpha_dcg_matches_metrics_module(self):
        ds = tiny_dataset()
        topic = "t000"
        docs = sorted(ds.judgments.positive_docs(topic))[:2]
        state = self.make_state(ds, topic, docs)
        got = step_reward(MetricSpec(target="alpha-dcg", alpha=0.5), state, ds.judgments)
        cov = [ds.judgments.coverage(topic, d) for d in docs]
        assert got == pytest.approx(alpha_dcg_at_k(cov, 2, 0.5))

    def test_nondecreasing_within_iteration(self):
        ds = tiny_dataset()
        topic = "t000"
        state = new_session(ds, topic)
        spec = MetricSpec(target="dcg")
        last = 0.0
        for _ in range(6):
            state = step_transition(state, 0)
            val = step_reward(spec, state, ds.judgments)
            assert val >= last - 1e-12
            last = val

    def test_unknown_topic_rejected(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        state = step_transition(state, 0)
        broken = dataclasses.replace(state, topic_id="nope")
        with pytest.raises(ValueError):
            step_reward(MetricSpec(), broken, ds.judgments)


def quick_policy(**kw):
    defaults = dict(epsilon=0.5, docs_per_iteration=2, iterations=2,
                    selection="sample", seed=0, epoch_cap=3, stop_tol=0.0)
    defaults.update(kw)
    return PolicyConfig(**defaults)


class TestTrainSession:
    def test_degenerate_single_doc_corpus(self):
        ds = gen_synthetic(1, 1, 1, 4, seed=2)
        net = NetConfig(layers=1, input_dim=8, hidden_dims=(4,), dense_dims=(3,),
                        window=3, dropout=0.0, learning_rate=0.01)
        params = init_glorot(net, 0)
        trained, log = train_session(params, ds, None, quick_policy(epoch_cap=2))
        assert len(log) == 2
        assert all(s.epsilon == 0.5 for s in log)

    def test_empty_training_set_rejected(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        with pytest.raises(ValueError):
            train_session(params, ds, None, quick_policy(), topics=[])

    def test_loss_decreases_on_separable_corpus(self):
        ds = gen_synthetic(6, 60, 1, 16, seed=0)
        net = NetConfig(layers=2, input_dim=32, hidden_dims=(16, 16), dense_dims=(8,),
                        window=3, dropout=0.0, learning_rate=0.3, output="linear",
                        input_scale=4.0)
        params = init_glorot(net, 0)
        config = quick_policy(epsilon=0.1, selection="argmax", epoch_cap=10,
                              docs_per_iteration=5, iterations=2)
        fb = EmbedRocchioFeedback(ds.corpus, RocchioParams())
        trained, log = train_session(params, ds, fb, config, MetricSpec(target="dcg"))
        assert log[-1].mean_loss < log[0].mean_loss

    def test_stop_rule_halts_training(self):
        ds = gen_synthetic(1, 4, 1, 4, seed=1)
        net = NetConfig(layers=1, input_dim=8, hidden_dims=(3,), dense_dims=(2,),
                        window=2, dropout=0.0, learning_rate=1e-9)
        params = init_glorot(net, 0)
        config = quick_policy(epsilon=0.0, selection="argmax", epoch_cap=50, stop_tol=1e-4)
        _, log = train_session(params, ds, None, config)
        # with a frozen net the loss plateau triggers the relative-improvement stop
        assert len(log) == 2

    def test_epoch_log_shape(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        _, log = train_session(params, ds, None, quick_policy(epoch_cap=3))
        assert [s.epoch for s in log] == [1, 2, 3]
        assert all(s.mean_loss >= 0 for s in log)


class TestEvaluateSession:
    def test_deterministic(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        config = quick_policy(iterations=3)
        spec = MetricSpec(report=("alpha-ndcg", "ndcg@5"))
        a = evaluate_session(greedy_pick(params), ds, None, config, spec)
        b = evaluate_session(greedy_pick(params), ds, None, config, spec)
        assert a.values == b.values
        assert {t: r.doc_ids for t, r in a.ranked.items()} == {t: r.doc_ids for t, r in b.ranked.items()}

    def test_iteration_one_is_one_shot_ranking(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 3)
        config = quick_policy(iterations=2, docs_per_iteration=3)
        result = evaluate_session(greedy_pick(params), ds, None, config, MetricSpec(report=("ndcg",)))
        # replay iteration 1 by hand: greedy argmax picks without feedback
        for topic in result.topics:
            state = new_session(ds, topic)
            picks = []
            for _ in range(3):
                scores = score_map(params, state)
                doc = min(sorted(scores), key=lambda d: (-scores[d], d))
                state = rank(state, doc)
                picks.append(doc)
            assert result.ranked[topic].iteration_blocks()[0] == picks

    def test_blocks_match_iterations(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        config = quick_policy(iterations=3, docs_per_iteration=2)
        result = evaluate_session(greedy_pick(params), ds, None, config)
        for topic in result.topics:
            blocks = result.ranked[topic].iteration_blocks()
            assert len(blocks) == 3
            assert all(len(b) == 2 for b in blocks)

    def test_candidate_exhaustion_handled(self):
        ds = gen_synthetic(1, 3, 1, 4, seed=0)
        net = NetConfig(layers=1, input_dim=8, hidden_dims=(3,), dense_dims=(2,),
                        window=2, dropout=0.0)
        params = init_glorot(net, 0)
        config = quick_policy(iterations=4, docs_per_iteration=2)
        result = evaluate_session(greedy_pick(params), ds, None, config)
        ranked = result.ranked["t000"]
        assert len(ranked.doc_ids) == 3  # pool exhausted
        assert ("alpha-ndcg", 4) in result.values



class _RecordingFeedback:
    """Keeps every call's (state.n, record, ranked ids) and keeps the query."""

    def __init__(self):
        self.calls = []

    def __call__(self, state, record):
        self.calls.append((state.n, record, tuple(state.ranked_ids())))
        return state.query


# blocks of 2 picks from pools of 12 (2, 2, 2), 4 (2, 2, 0), 5 (2, 2, 1, 0)
# and 3 documents (2, 1, 0, 0): feedback follows each non-empty block but
# the last iteration's, and stops once the pool is exhausted
@pytest.mark.parametrize("pool, iterations, expected_calls",
                         [(12, 3, [1, 2]), (4, 3, [1, 2]), (5, 4, [1, 2, 3]), (3, 4, [1, 2])])
def test_session_loop_feedback_contract(pool, iterations, expected_calls):
    ds = gen_synthetic(1, pool, 1, 4, seed=0)
    net = NetConfig(layers=1, input_dim=8, hidden_dims=(3,), dense_dims=(2,),
                    window=2, dropout=0.0)
    config = quick_policy(iterations=iterations, docs_per_iteration=2, epoch_cap=1)
    train_fb, eval_fb = _RecordingFeedback(), _RecordingFeedback()
    train_session(init_glorot(net, 0), ds, train_fb, config)
    evaluate_session(greedy_pick(init_glorot(net, 0)), ds, eval_fb, config)
    for calls in (train_fb.calls, eval_fb.calls):
        assert [n for n, _, _ in calls] == expected_calls
        ranked_before = 0
        for n, record, ranked in calls:
            assert record.iteration == n
            assert len(record.returned) == min(2, pool - 2 * (n - 1))
            assert record.returned == ranked[ranked_before:]  # the block just ranked
            ranked_before = len(ranked)


def test_pool_projections_per_session_and_step(monkeypatch):
    """Evaluation projects each session's pool once, at its first pick;
    training projects the live candidates once per step."""
    from dynrank import valuenet

    calls = []
    real = valuenet.project_docs
    monkeypatch.setattr(valuenet, "project_docs", lambda *a, **k: calls.append(1) or real(*a, **k))
    ds = tiny_dataset()
    config = quick_policy(iterations=3, docs_per_iteration=2, epoch_cap=2)
    evaluate_session(greedy_pick(init_glorot(NET, 0)), ds, None, config)
    assert len(calls) == len(ds.topic_ids())
    calls.clear()
    _, log = train_session(init_glorot(NET, 0), ds, None, config)
    assert len(calls) == len(log) * len(ds.topic_ids()) * 3 * 2  # one per gradient step


def test_compacted_projection_matches_fresh_gather():
    """Evaluation scores every pick of whole sessions, across query changes,
    from its kept projection, compacted pick by pick between two buffers,
    and gets the bits of a gather from a fresh whole-pool projection."""
    ds = tiny_dataset(docs=30)
    params = init_glorot(NET, 4)
    fb = EmbedRocchioFeedback(ds.corpus, RocchioParams())
    window = params.config.window
    pool = _PoolCache()
    flat = pool.workspace._flat
    sizes = []  # candidates scored at each pick

    def pick(state):
        values = score_candidates(params, state, pool)
        assert pool.live is state.live  # scored from the kept projection
        buffers = {id(flat[0]), id(flat[5])}
        whole = np.empty((len(pool.proj), len(state.ids)))
        project_docs(params, pool.docs.copy().T, out=whole.T)
        want = forward_candidates(params, forward_inputs(state, window - 1), whole[:, state.live].T,
                                  state.query, workspace=ScoringWorkspace())
        assert values.tobytes() == want.tobytes()
        pos = best_action(values)
        nxt = step_transition(state, pos)
        pool.drop(state.live, pos, nxt.live)
        assert {id(flat[0]), id(flat[5])} == buffers  # swapped, not allocated
        sizes.append(len(state.live))
        return nxt

    config = quick_policy(iterations=4, docs_per_iteration=8)  # the pool of 30 runs out
    for topic in ds.topic_ids():
        for _ in run_session(ds, topic, fb, config, pick):
            pass
    assert sizes == list(range(30, 0, -1)) * len(ds.topic_ids())


def test_greedy_pick_ranks_sessions_in_a_row(monkeypatch):
    """One ``greedy_pick`` ranks two topics in a row from one pool: every
    pick scores the bits of a fresh pool, the pool follows each session,
    and the workspace's flat buffers are reused, not reallocated."""
    from dynrank import policy

    ds = tiny_dataset()
    params = init_glorot(NET, 0)
    real = policy.score_candidates
    seen = []  # (topic, pool, the workspace's flat buffers) at each pick

    def checked(p, state, pool):
        values = real(p, state, pool)
        assert values.tobytes() == real(p, state, _PoolCache()).tobytes()
        assert pool.ids is state.ids
        seen.append((state.topic_id, pool, list(pool.workspace._flat)))
        return values

    monkeypatch.setattr(policy, "score_candidates", checked)
    config = quick_policy(iterations=3, docs_per_iteration=2)
    evaluate_session(greedy_pick(params), ds, None, config, topics=["t000", "t001"])
    assert [t for t, _, _ in seen] == ["t000"] * 6 + ["t001"] * 6
    assert len({id(pool) for _, pool, _ in seen}) == 1
    first = {id(buf) for buf in seen[0][2]}
    assert all({id(buf) for buf in bufs} == first for _, _, bufs in seen)
