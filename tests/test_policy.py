import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCORE_TOL
from dynrank import valuenet
from dynrank.data import gen_synthetic
from dynrank.feedback import EmbedRocchioFeedback, RocchioParams, simulate_feedback
from dynrank.metrics import MetricSpec, alpha_dcg_at_k, dcg_at_k, target_value
from dynrank.policy import (
    PolicyConfig,
    SessionState,
    best_action,
    epsilon_schedule,
    evaluate_session,
    forward_inputs,
    greedy_pick,
    iteration_values,
    new_session,
    pair_input,
    random_pick,
    run_session,
    score_candidates,
    select_action,
    session_transition,
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


def session_start(state):
    """The first state of ``state``'s session: nothing ranked, the whole pool live."""
    return dataclasses.replace(state, ranked=(), live=range(len(state.ids)))


def score_map(params, state, pool=None):
    """``score_candidates`` as a doc id -> score map, from a fresh workspace
    unless ``pool`` is given."""
    values = score_candidates(params, state, pool or ScoringWorkspace())
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
        assert list(scores) == sorted(ds.docs["t000"])
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
            expected, _ = forward(params, inputs)
            assert scores[doc] == pytest.approx(expected, rel=SCORE_TOL, abs=SCORE_TOL)

    def test_empty_candidates_rejected(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        state = SessionState(topic_id=state.topic_id, query=state.query,
                             vectors=state.vectors, ids=state.ids)
        with pytest.raises(ValueError):
            score_candidates(init_glorot(NET, 0), state, ScoringWorkspace())


@st.composite
def scoring_cases(draw):
    """A random net and session: 1-3 layers, window 1-5, either head, input
    scale 1 or not, some documents ranked and a candidate set that may be
    smaller than the pool."""
    layers = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 5))
    net = NetConfig(
        layers=layers,
        input_dim=2 * dim,
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
    query = rng.standard_normal(dim)
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
        doc: forward(params, prefix + [pair_input(state.vectors[doc], state.query)])[0]
        for doc in state.candidates()
    }


class TestScoringFastPath:
    @given(scoring_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_candidate_forward(self, case):
        params, state, keep = case
        # one workspace: a fresh projection of the session's start, which it
        # keeps, then gathers from it for the state, a subset of its
        # candidates and the state a pick leads to
        pool = ScoringWorkspace()
        for current in (session_start(state), state):
            for _ in range(2):
                scores = score_map(params, current, pool)
                expected = reference_scores(params, current)
                for doc, value in scores.items():
                    assert value == pytest.approx(expected[doc], rel=SCORE_TOL, abs=SCORE_TOL)
                assert score_map(params, current, pool) == scores
                subset = with_candidates(current, keep & set(current.candidates()) or current.candidates())
                sub_scores = score_map(params, subset, pool)
                for doc, value in sub_scores.items():
                    assert value == pytest.approx(expected[doc], rel=SCORE_TOL, abs=SCORE_TOL)
                assert pool.version == params.version  # still the whole-pool projection
                if len(current.live) == 1:
                    break
                current = step_transition(current, current.candidates().index(max(scores, key=scores.get)))

    def test_scoring_follows_updated_weights(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 1)
        state = rank(new_session(ds, "t000"), "t000-d0003")
        before = score_map(params, state)
        grad = np.random.default_rng(0).standard_normal(params.n_params)
        updated = apply_update(params, grad, 0.1)
        after = score_map(updated, state)
        expected = reference_scores(updated, state)
        for doc, value in after.items():
            assert value == pytest.approx(expected[doc], rel=SCORE_TOL, abs=SCORE_TOL)
        assert all(after[d] != before[d] for d in after)


class TestInPlaceUpdateScoring:
    @given(scoring_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_scores_and_train_forward_follow_in_place_update(self, case, seed):
        params, state, _ = case
        pool = ScoringWorkspace()
        score_candidates(params, state, pool)  # keeps the projection at this version
        grad = np.random.default_rng(seed).standard_normal(params.n_params)
        apply_update(params, grad, 0.1)
        fresh = params.copy()
        after = score_candidates(params, state, pool)
        want = score_candidates(fresh, state, ScoringWorkspace())
        assert after.tobytes() == want.tobytes()
        nxt = step_transition(state, best_action(after))
        inputs = forward_inputs(nxt, params.config.window)
        assert forward(params, inputs)[0] == forward(fresh, inputs)[0]

    @given(scoring_cases())
    @settings(max_examples=80, deadline=None)
    def test_direct_projection_matches_cached_gather(self, case):
        params, state, keep = case
        sub = with_candidates(state, keep)
        pool = ScoringWorkspace()
        kept = gate_block(pool, params, session_start(state))
        assert np.shares_memory(kept, pool.proj) and pool.version == params.version  # the whole pool: kept
        cached = gate_block(pool, params, sub)  # gathered into the gate block
        assert not np.shares_memory(cached, kept) and pool.ids is state.ids  # the same session's pool
        assert cached.tobytes() == kept[:, sub.live].tobytes()
        direct = gate_block(ScoringWorkspace(), params, sub)  # its live columns projected
        np.testing.assert_allclose(direct, cached, rtol=SCORE_TOL, atol=SCORE_TOL)
        apply_update(params, np.ones(params.n_params), 0.1)
        again = gate_block(pool, params, sub)  # new weights: projected again
        fresh = gate_block(ScoringWorkspace(), params, sub)
        assert again.tobytes() == fresh.tobytes()


def gate_block(pool, params, state):
    """``pool``'s document projections of the live candidates, gate-major
    (4H, len(state.live))."""
    return pool.doc_proj(params, state.ids, state.vectors, state.live).T


def reference_project_docs(params, docs, out):
    """The projection scoring used before the workspace kept a scaled pool:
    ``docs``, the transpose of the caller's float64 (dim, N) scratch, is
    scaled by ``input_scale`` in place, cast to float32 and projected by
    the float32 first-layer weights gate-major into the float32 ``out.T``."""
    D = np.atleast_2d(np.asarray(docs, dtype=np.float64))
    scaled = D.T
    scaled *= params.config.input_scale
    W_d = params.lstm[0].W[:, : D.shape[1]].astype(np.float32)
    np.matmul(W_d, scaled.astype(np.float32), out=out.T)
    return out


class ReferencePoolCache:
    """The pool cache scoring used before ``ScoringWorkspace.doc_proj``, with
    grow-only buffers of its own: the session's unscaled pool matrix and the
    projection with the weights version it was made at, kept only when it
    covers the whole pool. At that version a pick gathers its live columns;
    any other pick gathers its documents and projects them afresh."""

    def __init__(self):
        self.ids = self.docs = self.version = self.proj = None
        self.flat = [np.empty(0, np.float32), np.empty(0), np.empty(0, np.float32)]  # gates, docs, proj

    def block(self, slot, rows, n):
        if self.flat[slot].size < rows * n:
            self.flat[slot] = np.empty(rows * n, self.flat[slot].dtype)
        return self.flat[slot][: rows * n].reshape(rows, n)

    def gate_block(self, params, state):
        """The live candidates' document projections, (4H, len(state.live))."""
        live, rows = state.live, 4 * params.lstm[0].H
        if state.ids is not self.ids:  # a new session: drop the last one's pool first
            self.ids = self.docs = self.version = self.proj = None
            self.docs = np.stack([state.vectors[d] for d in state.ids], axis=1)
            self.ids = state.ids
        elif self.version == params.version:
            return np.take(self.proj, live, axis=1, out=self.block(0, rows, len(live)), mode="clip")
        docs = self.block(1, len(self.docs), len(live))
        np.take(self.docs, live, axis=1, out=docs, mode="clip")
        self.proj = self.block(2, rows, len(live))
        reference_project_docs(params, docs.T, out=self.proj.T)
        self.version = params.version if len(live) == len(state.ids) else None
        return self.proj


@st.composite
def doc_proj_sequences(draw):
    """A random net and session, then a sequence of (operation, seed):
    rank a candidate, go back to an earlier state of the session, keep a
    subset of the candidates, update the weights in place, or start a new
    session on the same pool or on another."""
    params, state, _ = draw(scoring_cases())
    ops = st.sampled_from(("step", "back", "subset", "update", "session"))
    return params, state, draw(st.lists(st.tuples(ops, st.integers(0, 2**32 - 1)), max_size=30))


@given(doc_proj_sequences())
@settings(max_examples=150, deadline=None)
def test_doc_proj_matches_pool_cache_reference(case):
    """Every state of every session gets the reference's bits from one
    workspace, as the transpose of a C-contiguous block, and every pick but
    one that makes the kept projection gets them in the gate block."""
    params, state, ops = case
    ws, ref = ScoringWorkspace(), ReferencePoolCache()
    seen = [state]
    dim = len(state.vectors[state.ids[0]])
    for op, seed in [("score", 0)] + ops:
        rng = np.random.default_rng(seed)
        if op == "step" and len(state.live) > 1:
            state = step_transition(state, int(rng.integers(len(state.live))))
            seen.append(state)
        elif op == "back":
            state = seen[int(rng.integers(len(seen)))]
        elif op == "subset":
            live = state.live[rng.random(len(state.live)) < 0.5]
            state = dataclasses.replace(state, live=live if live.size else state.live[:1])
        elif op == "update":
            apply_update(params, rng.standard_normal(params.n_params), 0.1)
        elif op == "session":
            vectors = state.vectors if rng.random() < 0.5 else {
                f"e{i:02d}": rng.standard_normal(dim) for i in range(int(rng.integers(1, 10)))}
            state = SessionState(topic_id="t", query=state.query, vectors=vectors,
                                 ids=tuple(sorted(vectors)), live=range(len(vectors)))
            seen = [state]
        got = ws.doc_proj(params, state.ids, state.vectors, state.live).T
        assert got.flags.c_contiguous and got.shape == (4 * params.lstm[0].H, len(state.live))
        assert got.tobytes() == ref.gate_block(params, state).tobytes()
        # in the gate block, where the first layer completes in place, unless
        # it is the whole-pool projection the workspace keeps
        assert np.shares_memory(got, ws._flat[0]) is not np.shares_memory(got, ws.proj)


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

    def test_chi2_bound_is_the_tabulated_quantile(self, chi2_ppf_99):
        # scipy.stats.chi2.ppf(0.99, df=4), bit for bit
        assert chi2_ppf_99(4) == 13.276704135987622

    def test_epsilon_one_is_uniform(self, chi2_ppf_99):
        rng = np.random.default_rng(0)
        scores = {c: float(i) for i, c in enumerate("abcde")}
        counts = {c: 0 for c in scores}
        n = 10_000
        for _ in range(n):
            counts[pick_id(scores, 1.0, "argmax", rng)] += 1
        expected = n / len(scores)
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2_ppf_99(len(scores) - 1)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_best_score_rejected(self, bad):
        # a bare argmax returns the first NaN, or the +inf, as the pick
        for scores in (np.array([1.0, bad, 2.0]), np.array([bad, 1.0])):
            with pytest.raises(FloatingPointError, match="non-finite candidate scores"):
                best_action(scores)
            with pytest.raises(FloatingPointError, match="non-finite candidate scores"):
                select_action(scores, 0.0, "argmax", np.random.default_rng(0))
        assert best_action(np.array([-math.inf, 1.0, -math.inf])) == 1  # only the best must be finite


class TestTransitions:
    def test_session_reads_the_dataset_vectors(self):
        ds = tiny_dataset()
        for topic in ds.topic_ids():
            state = new_session(ds, topic)
            assert state.vectors is ds.docs[topic]
            assert state.query is ds.query_vectors[topic]
            assert state.ids == tuple(sorted(ds.docs[topic]))
            np.testing.assert_array_equal(state.live, np.arange(len(state.ids)))

    def test_step_moves_doc(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        n_ranked, n_cand = len(state.ranked), len(state.live)
        doc = state.candidates()[0]
        nxt = step_transition(state, 0)
        assert len(nxt.ranked) == n_ranked + 1
        assert len(nxt.live) == n_cand - 1
        assert nxt.ranked[-1] == doc
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
        assert list(state.ranked) == docs

    def test_invariant_after_many_steps(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        total = len(state.live)
        rng = np.random.default_rng(0)
        for _ in range(6):
            state = step_transition(state, int(rng.integers(len(state.live))))
            assert not (set(state.ranked) & set(state.candidates()))
            assert len(state.ranked) + len(state.live) == total
            assert (np.diff(state.live) > 0).all()

    def test_session_transition_replaces_query_only(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        state = step_transition(state, 0)
        new_q = state.query + 1.0
        nxt = session_transition(state, new_q)
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
        for unit, doc in zip(forward_inputs(state), state.ranked):
            vec = state.vectors[doc]
            np.testing.assert_array_equal(unit[: vec.size], vec)
            np.testing.assert_array_equal(unit[vec.size:], new_q)


class TestStepReward:
    """A training step's regression target: ``target_value`` of the list so far."""

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
        assert target_value(ds.judgments, topic, state.ranked, MetricSpec(target="dcg")) == expected

    def test_unjudged_first_step_is_zero(self):
        ds = tiny_dataset()
        topic = "t000"
        unjudged = next(d for d in sorted(ds.docs[topic]) if not ds.judgments.coverage(topic, d))
        state = self.make_state(ds, topic, [unjudged])
        assert target_value(ds.judgments, topic, state.ranked, MetricSpec(target="dcg")) == 0.0

    def test_alpha_dcg_matches_metrics_module(self):
        ds = tiny_dataset()
        topic = "t000"
        docs = sorted(ds.judgments.positive_docs(topic))[:2]
        state = self.make_state(ds, topic, docs)
        got = target_value(ds.judgments, topic, state.ranked, MetricSpec(target="alpha-dcg", alpha=0.5))
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
            val = target_value(ds.judgments, topic, state.ranked, spec)
            assert val >= last - 1e-12
            last = val

    def test_unknown_topic_rejected(self):
        ds = tiny_dataset()
        state = new_session(ds, "t000")
        state = step_transition(state, 0)
        with pytest.raises(ValueError):
            target_value(ds.judgments, "nope", state.ranked, MetricSpec())


def quick_policy(**kw):
    defaults = dict(epsilon=0.5, docs_per_iteration=2, iterations=2,
                    selection="sample", epoch_cap=3, stop_tol=0.0)
    defaults.update(kw)
    return PolicyConfig(**defaults)


def rng0():
    """A fresh exploration stream from seed 0."""
    return np.random.default_rng(0)


class TestTrainSession:
    def test_degenerate_single_doc_corpus(self):
        ds = gen_synthetic(1, 1, 1, 4, seed=2)
        net = NetConfig(layers=1, input_dim=8, hidden_dims=(4,), dense_dims=(3,),
                        window=3, dropout=0.0, learning_rate=0.01)
        params = init_glorot(net, 0)
        trained, log = train_session(params, ds, None, quick_policy(epoch_cap=2), rng=rng0())
        assert len(log) == 2
        assert all(s.epsilon == 0.5 for s in log)

    def test_empty_training_set_rejected(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        with pytest.raises(ValueError):
            train_session(params, ds, None, quick_policy(), topics=[], rng=rng0())

    def test_loss_decreases_on_separable_corpus(self):
        ds = gen_synthetic(6, 60, 1, 16, seed=0)
        net = NetConfig(layers=2, input_dim=32, hidden_dims=(16, 16), dense_dims=(8,),
                        window=3, dropout=0.0, learning_rate=0.3, output="linear",
                        input_scale=4.0)
        params = init_glorot(net, 0)
        config = quick_policy(epsilon=0.1, selection="argmax", epoch_cap=10,
                              docs_per_iteration=5, iterations=2)
        fb = EmbedRocchioFeedback(RocchioParams())
        trained, log = train_session(params, ds, fb, config, MetricSpec(target="dcg"), rng=rng0())
        assert log[-1].mean_loss < log[0].mean_loss

    def test_stop_rule_halts_training(self):
        ds = gen_synthetic(1, 4, 1, 4, seed=1)
        net = NetConfig(layers=1, input_dim=8, hidden_dims=(3,), dense_dims=(2,),
                        window=2, dropout=0.0, learning_rate=1e-9)
        params = init_glorot(net, 0)
        config = quick_policy(epsilon=0.0, selection="argmax", epoch_cap=50, stop_tol=1e-4)
        _, log = train_session(params, ds, None, config, rng=rng0())
        # with a frozen net the loss plateau triggers the relative-improvement stop
        assert len(log) == 2

    def test_train_forward_steps_the_scored_prefix(self, monkeypatch):
        """Each step unrolls the ranked prefix once, while scoring, and the
        train forward then unrolls only the chosen input on top of it."""
        calls = []
        unroll = valuenet._unroll

        def counting(params, X, runs=None):
            calls.append((len(X), runs is not None))
            return unroll(params, X, runs)

        monkeypatch.setattr(valuenet, "_unroll", counting)
        config = quick_policy(epoch_cap=1, iterations=2, docs_per_iteration=3)
        train_session(init_glorot(NET, 0), tiny_dataset(), None, config, topics=["t000"],
                      rng=rng0())
        prefix_steps = [min(k, NET.window - 1) for k in range(6)]  # 6 steps, window 3
        assert calls == [call for k in prefix_steps for call in ((k, False), (1, True))]

    def test_epoch_log_shape(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        _, log = train_session(params, ds, None, quick_policy(epoch_cap=3), rng=rng0())
        assert [s.epoch for s in log] == [1, 2, 3]
        assert all(s.mean_loss >= 0 for s in log)


class TestEvaluateSession:
    def test_deterministic(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        config = quick_policy(iterations=3)
        spec = MetricSpec(report=("alpha-ndcg", "ndcg@5"))
        a = evaluate_session(greedy_pick(params), ds, None, config)
        b = evaluate_session(greedy_pick(params), ds, None, config)
        assert (iteration_values(ds.judgments, a, 3, spec, 2)
                == iteration_values(ds.judgments, b, 3, spec, 2))
        assert {t: r.doc_ids for t, r in a.items()} == {t: r.doc_ids for t, r in b.items()}

    def test_iteration_one_is_one_shot_ranking(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 3)
        config = quick_policy(iterations=2, docs_per_iteration=3)
        result = evaluate_session(greedy_pick(params), ds, None, config)
        # replay iteration 1 by hand: greedy argmax picks without feedback
        for topic in result:
            state = new_session(ds, topic)
            picks = []
            for _ in range(3):
                scores = score_map(params, state)
                doc = min(sorted(scores), key=lambda d: (-scores[d], d))
                state = rank(state, doc)
                picks.append(doc)
            assert result[topic].iteration_blocks()[0] == picks

    def test_blocks_match_iterations(self):
        ds = tiny_dataset()
        params = init_glorot(NET, 0)
        config = quick_policy(iterations=3, docs_per_iteration=2)
        result = evaluate_session(greedy_pick(params), ds, None, config)
        assert list(result) == ds.topic_ids()
        for topic in result:
            blocks = result[topic].iteration_blocks()
            assert len(blocks) == 3
            assert all(len(b) == 2 for b in blocks)

    def test_candidate_exhaustion_handled(self):
        ds = gen_synthetic(1, 3, 1, 4, seed=0)
        net = NetConfig(layers=1, input_dim=8, hidden_dims=(3,), dense_dims=(2,),
                        window=2, dropout=0.0)
        params = init_glorot(net, 0)
        config = quick_policy(iterations=4, docs_per_iteration=2)
        ranked = evaluate_session(greedy_pick(params), ds, None, config)["t000"]
        assert len(ranked.doc_ids) == 3  # pool exhausted
        values = iteration_values(ds.judgments, {"t000": ranked}, 4, MetricSpec(), 2)
        assert ("alpha-ndcg", 4) in values
        # iterations after the last block score the whole list
        assert values[("alpha-ndcg", 2)] == values[("alpha-ndcg", 3)] == values[("alpha-ndcg", 4)]



class _RecordingFeedback:
    """Keeps every call's (record.iteration, record, ranked ids) and keeps the query."""

    def __init__(self):
        self.calls = []

    def __call__(self, state, record):
        self.calls.append((record.iteration, record, state.ranked))
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
    train_session(init_glorot(net, 0), ds, train_fb, config, rng=rng0())
    evaluate_session(greedy_pick(init_glorot(net, 0)), ds, eval_fb, config)
    for calls in (train_fb.calls, eval_fb.calls):
        assert [n for n, _, _ in calls] == expected_calls
        ranked_before = 0
        for n, record, ranked in calls:
            assert record.iteration == n
            assert len(record.returned) == min(2, pool - 2 * (n - 1))
            assert record.returned == ranked[ranked_before:]  # the block just ranked
            ranked_before = len(ranked)


def reference_run_session(dataset, topic, feedback_fn, config, pick):
    """The session loop as a generator of ``(iteration, state, boundaries)``,
    the last being the session's live list of block ends."""
    state = new_session(dataset, topic)
    boundaries = []
    for it in range(1, config.iterations + 1):
        start = len(state.ranked)
        for _ in range(config.docs_per_iteration):
            if not state.live.size:
                break
            state = pick(state)
        block = list(state.ranked[start:])
        if block:
            boundaries.append(len(state.ranked))
        yield it, state, boundaries
        if it < config.iterations:
            query = state.query
            if block and feedback_fn is not None:
                query = feedback_fn(state, simulate_feedback(dataset.judgments, topic, block, it))
            state = session_transition(state, query)


class _WrappedFeedback:
    """A reformulator that keeps every call's (iteration, block, query)."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def __call__(self, state, record):
        self.calls.append((record.iteration, record.returned, state.query.tobytes()))
        return self.inner(state, record)


@settings(max_examples=60, deadline=None)
@given(pool=st.integers(1, 12), iterations=st.integers(1, 5), per_iteration=st.integers(1, 4),
       reformulate=st.booleans(), greedy=st.booleans(), seed=st.integers(0, 2**16))
def test_run_session_matches_the_generator_loop(pool, iterations, per_iteration, reformulate, greedy, seed):
    """``run_session`` returns the final ids and block ends of the generator
    loop, and calls the reformulator with the same iterations, blocks and
    queries."""
    ds = gen_synthetic(1, pool, 2, 4, seed=seed)
    config = quick_policy(iterations=iterations, docs_per_iteration=per_iteration)
    params = init_glorot(NET, seed)
    runs = []
    for loop in (run_session, reference_run_session):
        fb = _WrappedFeedback(EmbedRocchioFeedback(RocchioParams())) if reformulate else None
        pick = greedy_pick(params) if greedy else random_pick(seed)
        result = loop(ds, "t000", fb, config, pick)
        if loop is reference_run_session:
            *_, (_, state, boundaries) = result
            result = (list(state.ranked), boundaries)
        else:
            result = (result.doc_ids, result.boundaries)
        runs.append((result, fb.calls if fb else None))
    assert runs[0] == runs[1]
    (doc_ids, boundaries), _ = runs[0]
    assert len(doc_ids) == min(pool, iterations * per_iteration)
    assert boundaries[-1] == len(doc_ids)


def count_projections(monkeypatch):
    from dynrank import valuenet

    calls = []
    real = valuenet.project_docs
    monkeypatch.setattr(valuenet, "project_docs", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_pool_projections_per_session_and_step(monkeypatch):
    """Evaluation projects each session's pool once, at its first pick;
    training projects the live candidates once per step."""
    calls = count_projections(monkeypatch)
    ds = tiny_dataset()
    config = quick_policy(iterations=3, docs_per_iteration=2, epoch_cap=2)
    evaluate_session(greedy_pick(init_glorot(NET, 0)), ds, None, config)
    assert len(calls) == len(ds.topic_ids())
    calls.clear()
    _, log = train_session(init_glorot(NET, 0), ds, None, config, rng=rng0())
    assert len(calls) == len(log) * len(ds.topic_ids()) * 3 * 2  # one per gradient step


def whole_pool_scores(params, state):
    """``score_candidates`` as a gather from a fresh whole-pool projection."""
    whole = np.empty((4 * params.lstm[0].H, len(state.ids)), np.float32)
    docs = np.stack([state.vectors[d] for d in state.ids], axis=1)
    reference_project_docs(params, docs.T, out=whole.T)
    return forward_candidates(params, forward_inputs(state, params.config.window - 1),
                              whole[:, state.live].T, state.query, workspace=ScoringWorkspace())


def test_gathered_projection_matches_fresh_gather():
    """Evaluation scores every pick of whole sessions, across query changes,
    by a gather from the whole-pool projection it kept at the session's
    first pick, and gets the bits of a gather from a fresh whole-pool
    projection; the workspace's flat buffers are reused, not reallocated."""
    ds = tiny_dataset(docs=30)
    params = init_glorot(NET, 4)
    fb = EmbedRocchioFeedback(RocchioParams())
    pool = ScoringWorkspace()
    buffers = set()  # the workspace's flat buffers after each pick
    sizes = []  # candidates scored at each pick

    def pick(state):
        values = score_candidates(params, state, pool)
        assert pool.version == params.version and pool.proj.shape[1] == len(state.ids)
        assert values.tobytes() == whole_pool_scores(params, state).tobytes()
        buffers.add(tuple(id(buf) for buf in pool._flat))
        sizes.append(len(state.live))
        return step_transition(state, best_action(values))

    config = quick_policy(iterations=4, docs_per_iteration=8)  # the pool of 30 runs out
    for topic in ds.topic_ids():
        run_session(ds, topic, fb, config, pick)
    assert sizes == list(range(30, 0, -1)) * len(ds.topic_ids())
    assert len(buffers) == 1


def test_states_out_of_order_gather_from_the_kept_projection(monkeypatch):
    """At the kept version any state of the session gathers from the
    whole-pool projection: an earlier state after a later one, and a
    sibling that another pick leads to, each get the bits of a gather from
    a fresh whole-pool projection, and the pool is projected once."""
    params = init_glorot(NET, 2)
    start = new_session(tiny_dataset(docs=20), "t000")
    line = [start]
    for pos in (3, 0, 7, 2):
        line.append(step_transition(line[-1], pos))
    siblings = [step_transition(line[2], pos) for pos in (1, 5)]
    want = {id(state): whole_pool_scores(params, state) for state in line + siblings}
    calls = count_projections(monkeypatch)
    pool = ScoringWorkspace()
    for state in (start, line[4], line[1], siblings[0], line[3], siblings[1], line[2], start):
        assert score_candidates(params, state, pool).tobytes() == want[id(state)].tobytes()
    assert len(calls) == 1


def test_pool_follows_the_input_scale():
    """One workspace scoring one session with nets of two input scales
    scales the pool for each: every pick gets the bits of a gather from a
    fresh whole-pool projection."""
    start = new_session(tiny_dataset(), "t000")
    later = step_transition(start, 2)
    nets = [init_glorot(dataclasses.replace(NET, input_scale=s), 0) for s in (1.0, 3.0)]
    pool = ScoringWorkspace()
    for params in nets * 2:
        for state in (start, later):
            assert score_candidates(params, state, pool).tobytes() == whole_pool_scores(params, state).tobytes()


def test_partial_projection_is_not_kept(monkeypatch):
    """A projection of part of the pool is not kept: a whole-pool state that
    follows at the same version is projected afresh, never gathered from
    it, and that projection is kept."""
    params = init_glorot(NET, 3)
    start = new_session(tiny_dataset(docs=20), "t000")
    later = step_transition(step_transition(start, 4), 0)
    want = whole_pool_scores(params, start)
    calls = count_projections(monkeypatch)
    pool = ScoringWorkspace()
    partial = score_candidates(params, later, pool)
    assert pool.version is None
    assert score_candidates(params, start, pool).tobytes() == want.tobytes()
    assert pool.version == params.version
    np.testing.assert_allclose(score_candidates(params, later, pool), partial,
                               rtol=SCORE_TOL, atol=SCORE_TOL)
    assert len(calls) == 2


def test_greedy_pick_ranks_sessions_in_a_row(monkeypatch):
    """One ``greedy_pick`` ranks two topics in a row from one pool: every
    pick scores the bits of a gather from a fresh whole-pool projection,
    the pool follows each session, and the workspace's flat buffers are
    reused, not reallocated."""
    from dynrank import policy

    ds = tiny_dataset()
    params = init_glorot(NET, 0)
    real = policy.score_candidates
    seen = []  # (topic, pool, the workspace's flat buffers) at each pick

    def checked(p, state, pool):
        values = real(p, state, pool)
        assert values.tobytes() == whole_pool_scores(p, state).tobytes()
        assert pool.ids is state.ids
        seen.append((state.topic_id, pool, list(pool._flat)))
        return values

    monkeypatch.setattr(policy, "score_candidates", checked)
    config = quick_policy(iterations=3, docs_per_iteration=2)
    evaluate_session(greedy_pick(params), ds, None, config, topics=["t000", "t001"])
    assert [t for t, _, _ in seen] == ["t000"] * 6 + ["t001"] * 6
    assert len({id(pool) for _, pool, _ in seen}) == 1
    first = {id(buf) for buf in seen[0][2]}
    assert all({id(buf) for buf in bufs} == first for _, _, bufs in seen)
