from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrank.data import Dataset
from dynrank.embedspace import cosine, embed_term_weights, embed_text, tokenize
from dynrank.feedback import (
    EmbedRocchioFeedback,
    FeedbackRecord,
    RocchioParams,
    nqe_expand,
    rocchio_classic,
    rocchio_embed,
    simulate_feedback,
    tf_unit,
)
from dynrank.harness import RunConfig, make_feedback
from dynrank.metrics import JudgmentSet


def judgments():
    return JudgmentSet({
        ("t1", "s1", "d1"): 2.0,
        ("t1", "s2", "d1"): 1.0,
        ("t1", "s1", "d2"): 4.0,
        ("t1", "s3", "d5"): 1.0,
    })


class TestSimulateFeedback:
    def test_unjudged_block_has_no_entries(self):
        rec = simulate_feedback(judgments(), "t1", ["d3", "d4"], 1)
        assert rec.entries == ()
        assert rec.returned == ("d3", "d4")

    def test_single_judged_doc(self):
        rec = simulate_feedback(judgments(), "t1", ["d2"], 1)
        assert rec.entries == (("d2", "s1", 4.0),)

    def test_block_entries_equal_qrels_restriction(self):
        js = judgments()
        block = ["d1", "d2", "d3", "d4", "d5"]
        rec = simulate_feedback(js, "t1", block, 2)
        expected = {
            (d, s, g)
            for d in block
            for s, g in js.coverage("t1", d).items()
            if g > 0
        }
        assert set(rec.entries) == expected
        assert rec.iteration == 2

    def test_unknown_topic_rejected(self):
        with pytest.raises(ValueError):
            simulate_feedback(judgments(), "nope", ["d1"], 1)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            simulate_feedback(judgments(), "t1", [], 1)

    def test_no_subtopic_count_leak(self):
        # only labels present in positive entries of the block are exposed
        rec = simulate_feedback(judgments(), "t1", ["d2"], 1)
        labels = {s for _, s, _ in rec.entries}
        assert labels == {"s1"}


class TestFeedbackRecord:
    def test_entry_outside_block_rejected(self):
        with pytest.raises(ValueError):
            FeedbackRecord(1, ("d1",), (("d2", "s1", 1.0),))

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError):
            FeedbackRecord(1, ("d1",), (("d1", "s1", -1.0),))

    def test_positive_negative_split(self):
        rec = FeedbackRecord(1, ("a", "b", "c"), (("a", "s", 2.0),))
        assert rec.positive_docs() == {"a"}
        assert rec.negative_docs() == {"b", "c"}


class TestRocchioEmbed:
    def test_hand_computed_example(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s1", 1.0),))
        corpus = {"p": np.array([0.0, 1.0])}
        out = rocchio_embed(np.array([1.0, 0.0]), fb, corpus, RocchioParams(0.9, 0.75, 0.25))
        np.testing.assert_allclose(out, [0.55, 0.675], atol=1e-12)

    def test_equal_weights_keep_query_coefficient_one(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(4)
        fb = FeedbackRecord(2, ("p", "n"), (("p", "s", 1.0),))
        corpus = {"p": rng.standard_normal(4), "n": rng.standard_normal(4)}
        params = RocchioParams(0.9, 0.4, 0.4)
        out = rocchio_embed(q, fb, corpus, params)
        increment = 0.9**2 * 0.4 * (corpus["p"] - corpus["n"])
        np.testing.assert_allclose(out, q + increment, atol=1e-12)

    def test_zero_weights_identity(self):
        q = np.array([0.3, -0.2, 0.5])
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = rocchio_embed(q, fb, {"p": np.ones(3)}, RocchioParams(0.9, 0.0, 0.0))
        np.testing.assert_allclose(out, q, atol=1e-15)

    def test_linear_in_query(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(3)
        fb = FeedbackRecord(1, ("p", "n"), (("p", "s", 2.0),))
        corpus = {"p": rng.standard_normal(3), "n": rng.standard_normal(3)}
        params = RocchioParams()
        base = rocchio_embed(np.zeros(3), fb, corpus, params)
        out1 = rocchio_embed(q, fb, corpus, params)
        out2 = rocchio_embed(3.0 * q, fb, corpus, params)
        np.testing.assert_allclose(out2 - base, 3.0 * (out1 - base), atol=1e-12)

    def test_moves_towards_positive_centroid(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.standard_normal(8)
            pos = rng.standard_normal(8)
            fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
            out = rocchio_embed(q, fb, {"p": pos}, RocchioParams())
            if abs(cosine(q, pos)) < 0.999:
                assert cosine(out, pos) > cosine(q, pos)

    def test_increment_norm_decays_with_iteration(self):
        q = np.zeros(3)
        corpus = {"p": np.array([1.0, 2.0, 3.0])}
        norms = []
        for n in (1, 2, 3, 5):
            fb = FeedbackRecord(n, ("p",), (("p", "s", 1.0),))
            out = rocchio_embed(q, fb, corpus, RocchioParams())
            norms.append(np.linalg.norm(out))
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_missing_document_rejected(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        with pytest.raises(ValueError):
            rocchio_embed(np.zeros(2), fb, {}, RocchioParams())

    def test_dimension_mismatch_rejected(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        with pytest.raises(ValueError):
            rocchio_embed(np.zeros(2), fb, {"p": np.zeros(3)}, RocchioParams())

    def test_block_without_positive_document_has_zero_positive_centroid(self):
        fb = FeedbackRecord(1, ("n",), ())
        corpus = {"n": np.array([0.0, 2.0])}
        out = rocchio_embed(np.array([1.0, 0.0]), fb, corpus, RocchioParams(0.9, 0.75, 0.25))
        np.testing.assert_allclose(out, [0.55, -0.45], atol=1e-12)

    def test_centroid_of_one_document_is_that_document(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        corpus = {"p": np.array([2.0, 0.0])}
        out = rocchio_embed(np.array([-1.0, 3.0]), fb, corpus, RocchioParams(1.0, 1.0, 0.0))
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_centroid_of_mixed_width_documents_rejected(self):
        fb = FeedbackRecord(1, ("p", "m"), (("p", "s", 1.0), ("m", "s", 1.0)))
        corpus = {"p": np.array([1.0, 0.0]), "m": np.array([1.0])}
        with pytest.raises(ValueError):
            rocchio_embed(np.zeros(2), fb, corpus, RocchioParams())

    def test_centroid_of_two_documents(self):
        fb = FeedbackRecord(1, ("p", "m"), (("p", "s", 1.0), ("m", "s", 2.0)))
        corpus = {"p": np.array([1.0, 0.0]), "m": np.array([0.0, 1.0])}
        out = rocchio_embed(np.zeros(2), fb, corpus, RocchioParams(1.0, 1.0, 0.0))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    @given(st.lists(st.lists(st.floats(-3, 3), min_size=3, max_size=3), min_size=1, max_size=6),
           st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_returned_order_keeps_bits(self, vecs, rnd):
        corpus = {f"d{i}": np.array(v) for i, v in enumerate(vecs)}
        block = list(corpus)
        positive = tuple((d, "s", 1.0) for d in block if rnd.random() < 0.5)
        shuffled = list(block)
        rnd.shuffle(shuffled)
        q = np.array([0.5, -1.0, 2.0])
        outs = [rocchio_embed(q, FeedbackRecord(2, tuple(order), positive), corpus).tobytes()
                for order in (block, shuffled)]
        assert outs[0] == outs[1]

    @given(st.floats(0.1, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_algebra_on_random_fixtures(self, gamma, b, c, n):
        rng = np.random.default_rng(17)
        q = rng.standard_normal(4)
        fb = FeedbackRecord(n, ("p", "m"), (("p", "s", 1.0),))
        corpus = {"p": rng.standard_normal(4), "m": rng.standard_normal(4)}
        params = RocchioParams(gamma, b, c)
        out = rocchio_embed(q, fb, corpus, params)
        expected = (1 - gamma**n * (b - c)) * q + gamma**n * (b * corpus["p"] - c * corpus["m"])
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestRocchioClassic:
    def test_empty_feedback_scales_query(self):
        fb = FeedbackRecord(1, ("d9",), ())
        # a returned doc with no text would fail, so give it an empty text
        out = rocchio_classic({"polar": 1.0}, fb, {"d9": ""}, RocchioParams())
        coef = 1 - 0.9 * (0.75 - 0.25)
        assert out["polar"] == pytest.approx(coef)

    def test_positive_doc_terms_enter_weighted(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 2.0),))
        out = rocchio_classic({}, fb, {"p": "polar ice"}, RocchioParams())
        unit = 1.0 / np.sqrt(2.0)
        assert out["polar"] == pytest.approx(0.9 * 0.75 * unit)
        assert out["ice"] == pytest.approx(0.9 * 0.75 * unit)

    def test_zero_weights_identity(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        terms = {"a": 0.5, "b": 0.25}
        out = rocchio_classic(terms, fb, {"p": "x y"}, RocchioParams(0.9, 0.0, 0.0))
        assert out == pytest.approx(terms)

    def test_truncates_to_top_terms(self):
        text = " ".join(f"term{i}" for i in range(80))
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = rocchio_classic({}, fb, {"p": text}, RocchioParams())
        assert len(out) == 50


# more words than NQE adds in a round, so the cut is exercised
VOCAB = ["polar", "ice", "shelf", "melt", "sea", "level", "glacier", "bear",
         "ocean", "heat", "tide", "coast", "flood", "arctic", "winter", "current"]


def term_feedback(variant, texts, queries, dim, seed, params=RocchioParams()):
    """The ``variant`` reformulator of a run over a text corpus, as the harness builds it."""
    dataset = Dataset(dict(queries), {}, JudgmentSet(), {}, texts=texts, dim=dim)
    return make_feedback(RunConfig(feedback=variant, rocchio=params, seed=seed), dataset)


class TestNqe:
    def test_zero_expansion_keeps_query(self):
        # a positive document holds no term the query lacks
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        assert nqe_expand({"polar": 1, "ice": 2}, fb, {"p": "ice polar ice"}) == {"polar": 1, "ice": 2}

    def test_no_positive_docs_keeps_query(self):
        fb = FeedbackRecord(1, ("p",), ())
        assert nqe_expand({"polar": 1, "ice": 1}, fb, {"p": "melt"}) == {"polar": 1, "ice": 1}

    def test_appends_most_frequent_novel_terms(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        texts = {"p": "melt melt shelf shelf shelf ice glacier"}
        out = nqe_expand({"polar": 1, "ice": 1}, fb, texts)
        assert list(out.items()) == [("polar", 1), ("ice", 1), ("shelf", 1), ("melt", 1), ("glacier", 1)]

    def test_tie_break_is_lexicographic(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = nqe_expand({"q": 1}, fb, {"p": "zebra apple"})
        assert list(out) == ["q", "apple", "zebra"]

    def test_adds_at_most_ten_terms(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = nqe_expand({"q": 1}, fb, {"p": " ".join(f"t{i:02d}" for i in range(30))})
        assert list(out) == ["q"] + [f"t{i:02d}" for i in range(10)]

    def test_keeps_the_input_map(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        terms = {"q": 1}
        nqe_expand(terms, fb, {"p": "melt"})
        assert terms == {"q": 1}

    @given(st.lists(st.sampled_from(VOCAB), max_size=6),
           st.lists(st.lists(st.sampled_from(VOCAB), max_size=16), min_size=1, max_size=4),
           st.data(), st.integers(1, 40), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_counts_embed_as_the_expanded_text(self, query, docs, data, dim, seed):
        """Expanding the query's term counts embeds to the bytes of the
        expanded query text, over rounds of feedback."""
        texts = {f"d{i}": " ".join(words) for i, words in enumerate(docs)}
        text, terms = " ".join(query), Counter(tokenize(" ".join(query)))
        for it in range(1, 4):
            positive = data.draw(st.lists(st.sampled_from(sorted(texts)), unique=True))
            fb = FeedbackRecord(it, tuple(sorted(texts)), tuple((d, "s", 1.0) for d in positive))
            text, terms = reference_nqe_expand(text, fb, texts, 10), nqe_expand(terms, fb, texts)
            assert embed_term_weights(terms, dim, seed).tobytes() == embed_text(text, dim, seed).tobytes()


class TestReformulators:
    def test_embed_reformulator_matches_function(self):
        class S:
            query = np.array([1.0, 0.0])
            topic_id = "t"
            vectors = {"p": np.array([0.0, 1.0])}

        rec = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        fn = EmbedRocchioFeedback(RocchioParams())
        np.testing.assert_allclose(fn(S(), rec), [0.55, 0.675], atol=1e-12)

    @pytest.mark.parametrize("variant", ["classic-rocchio", "nqe"])
    def test_resets_per_session(self, variant):
        # one reformulator serves every fold and session of a run
        fn = term_feedback(variant, {"p": "shelf shelf", "q": "melt"}, {"t": "polar"}, dim=8, seed=0)

        class S:
            query = np.zeros(8)
            topic_id = "t"

        rec1 = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        first = fn(S(), rec1)
        fn(S(), FeedbackRecord(2, ("q",), (("q", "s", 1.0),)))
        again = fn(S(), rec1)  # new session restarts at the original query
        np.testing.assert_allclose(first, again, atol=1e-12)

    @pytest.mark.parametrize("variant", ["classic-rocchio", "nqe"])
    def test_record_for_another_topic_restarts(self, variant):
        texts, queries = {"p": "shelf shelf", "q": "melt"}, {"t": "polar", "u": "sea"}
        rec = FeedbackRecord(2, ("q",), (("q", "s", 1.0),))
        fn = term_feedback(variant, texts, queries, dim=8, seed=0)
        fn(SimpleNamespace(topic_id="t"), FeedbackRecord(1, ("p",), (("p", "s", 1.0),)))
        fresh = term_feedback(variant, texts, queries, dim=8, seed=0)
        state = SimpleNamespace(topic_id="u")
        assert fn(state, rec).tobytes() == fresh(state, rec).tobytes()

    def test_nqe_reformulator_embeds_expansion(self):
        texts = {"p": "shelf shelf melt"}

        class S:
            query = np.zeros(16)
            topic_id = "t"

        fn = term_feedback("nqe", texts, {"t": "polar"}, dim=16, seed=0)
        rec = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = fn(S(), rec)
        np.testing.assert_allclose(out, embed_text("polar shelf melt", 16, 0), atol=1e-12)


# --- References: the reformulators as they were before each held only the
# live session, NQE as it was when it expanded the query text, and the
# embedding Rocchio before it averaged its own centroids

def reference_nqe_expand(query_text, fb, corpus_texts, top_m) -> str:
    existing = set(tokenize(query_text))
    counts = Counter()
    for doc in sorted(fb.positive_docs()):
        if doc not in corpus_texts:
            raise ValueError(f"feedback document {doc!r} has no text")
        counts.update(t for t in tokenize(corpus_texts[doc]) if t not in existing)
    if not counts:
        return query_text
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_m]
    return query_text + " " + " ".join(t for t, _ in ranked)


def reference_mean_vectors(vectors, dim=None) -> np.ndarray:
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vecs:
        if dim is None:
            raise ValueError("dim is required to take the mean of an empty set")
        return np.zeros(dim, dtype=np.float64)
    for v in vecs[1:]:
        if v.shape[0] != vecs[0].shape[0]:
            raise ValueError(f"mixed dimensions: {vecs[0].shape[0]} vs {v.shape[0]}")
    return np.mean(np.stack(vecs), axis=0)


def reference_rocchio_embed(q_n, fb, vectors, params, n) -> np.ndarray:
    q_n = np.asarray(q_n, dtype=np.float64)
    dim = q_n.shape[0]

    def centroid(doc_ids) -> np.ndarray:
        vecs = []
        for doc in sorted(doc_ids):
            if doc not in vectors:
                raise ValueError(f"feedback document {doc!r} missing from corpus")
            vecs.append(vectors[doc])
        mean = reference_mean_vectors(vecs, dim=dim)
        if mean.shape[0] != dim:
            raise ValueError(f"dimension mismatch: query {dim}, documents {mean.shape[0]}")
        return mean

    decay = params.gamma**n
    blend = (1.0 - decay * (params.b - params.c)) * q_n
    return blend + decay * (params.b * centroid(fb.positive_docs()) - params.c * centroid(fb.negative_docs()))


class ReferenceEmbedRocchio:
    def __init__(self, params):
        self.params = params

    def __call__(self, state, record):
        return reference_rocchio_embed(state.query, record, state.vectors, self.params, n=record.iteration)


class ReferenceClassicRocchio:
    """One term map per topic; every caller passed n=record.iteration and
    top_terms=50, which ``rocchio_classic`` now reads from the record and
    its constant."""

    def __init__(self, corpus_texts, query_texts, params, dim, seed):
        self.texts, self.query_texts = corpus_texts, dict(query_texts)
        self.params, self.dim, self.seed = params, dim, seed
        self._terms = {}

    def __call__(self, state, record):
        topic = state.topic_id
        if record.iteration == 1 or topic not in self._terms:
            self._terms[topic] = tf_unit(self.query_texts.get(topic, "") or "")
        self._terms[topic] = rocchio_classic(self._terms[topic], record, self.texts, self.params)
        return embed_term_weights(self._terms[topic], self.dim, self.seed)


class ReferenceNQE:
    def __init__(self, corpus_texts, query_texts, dim, seed, top_m):
        self.texts, self.query_texts = corpus_texts, dict(query_texts)
        self.dim, self.seed, self.top_m = dim, seed, top_m
        self._current = {}

    def __call__(self, state, record):
        topic = state.topic_id
        if record.iteration == 1:
            self._current.pop(topic, None)
        text = self._current.get(topic, self.query_texts.get(topic, "") or "")
        expanded = reference_nqe_expand(text, record, self.texts, self.top_m)
        self._current[topic] = expanded
        return embed_text(expanded, self.dim, self.seed)


TEXTS = {
    "d0": "polar ice shelf melt melt",
    "d1": "ice sheet glacier glacier",
    "d2": "melt water sea level rise",
    "d3": "glacier retreat polar bear",
    "d4": "sea ice arctic winter ice",
    "d5": "ocean heat shelf current",
}
QUERIES = {"a": "polar ice", "b": "sea level", "c": "glacier melt"}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_reformulators_match_references_over_sessions(data):
    """One reformulator of each kind serves a run's sessions one after
    another, topics repeating; every query vector equals its reference's
    bit for bit."""
    params = RocchioParams(0.8, 0.75, 0.25)
    pairs = [
        (EmbedRocchioFeedback(params), ReferenceEmbedRocchio(params)),
        (term_feedback("classic-rocchio", TEXTS, QUERIES, dim=16, seed=3, params=params),
         ReferenceClassicRocchio(TEXTS, QUERIES, params, dim=16, seed=3)),
        (term_feedback("nqe", TEXTS, QUERIES, dim=16, seed=3),
         ReferenceNQE(TEXTS, QUERIES, dim=16, seed=3, top_m=10)),
    ]
    vectors = {d: embed_text(t, 16, 3) for d, t in TEXTS.items()}
    for _ in range(data.draw(st.integers(1, 6), label="sessions")):
        topic = data.draw(st.sampled_from(sorted(QUERIES)), label="topic")
        records = []
        for it in range(1, data.draw(st.integers(1, 5), label="records") + 1):
            block = data.draw(st.lists(st.sampled_from(sorted(TEXTS)), min_size=1, max_size=4, unique=True))
            positive = data.draw(st.lists(st.sampled_from(block), unique=True))
            records.append(FeedbackRecord(it, tuple(block), tuple((d, "s1", 1.0) for d in positive)))
        for new, old in pairs:
            query = embed_text(QUERIES[topic], 16, 3)
            states = [SimpleNamespace(topic_id=topic, query=query, vectors=vectors) for _ in range(2)]
            for record in records:
                got, want = new(states[0], record), old(states[1], record)
                assert got.tobytes() == want.tobytes(), (type(new).__name__, topic, record)
                states[0].query, states[1].query = got, want
