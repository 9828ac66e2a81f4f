import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrank.embedspace import cosine, embed_term_weights, embed_text
from dynrank.feedback import (
    ClassicRocchioFeedback,
    EmbedRocchioFeedback,
    FeedbackRecord,
    NQEFeedback,
    RocchioParams,
    nqe_expand,
    rocchio_classic,
    rocchio_embed,
    simulate_feedback,
)
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
        out = rocchio_embed(np.array([1.0, 0.0]), fb, corpus, RocchioParams(0.9, 0.75, 0.25), n=1)
        np.testing.assert_allclose(out, [0.55, 0.675], atol=1e-12)

    def test_equal_weights_keep_query_coefficient_one(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(4)
        fb = FeedbackRecord(2, ("p", "n"), (("p", "s", 1.0),))
        corpus = {"p": rng.standard_normal(4), "n": rng.standard_normal(4)}
        params = RocchioParams(0.9, 0.4, 0.4)
        out = rocchio_embed(q, fb, corpus, params, n=2)
        increment = 0.9**2 * 0.4 * (corpus["p"] - corpus["n"])
        np.testing.assert_allclose(out, q + increment, atol=1e-12)

    def test_zero_weights_identity(self):
        q = np.array([0.3, -0.2, 0.5])
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = rocchio_embed(q, fb, {"p": np.ones(3)}, RocchioParams(0.9, 0.0, 0.0), n=1)
        np.testing.assert_allclose(out, q, atol=1e-15)

    def test_linear_in_query(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(3)
        fb = FeedbackRecord(1, ("p", "n"), (("p", "s", 2.0),))
        corpus = {"p": rng.standard_normal(3), "n": rng.standard_normal(3)}
        params = RocchioParams()
        base = rocchio_embed(np.zeros(3), fb, corpus, params, n=1)
        out1 = rocchio_embed(q, fb, corpus, params, n=1)
        out2 = rocchio_embed(3.0 * q, fb, corpus, params, n=1)
        np.testing.assert_allclose(out2 - base, 3.0 * (out1 - base), atol=1e-12)

    def test_moves_towards_positive_centroid(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.standard_normal(8)
            pos = rng.standard_normal(8)
            fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
            out = rocchio_embed(q, fb, {"p": pos}, RocchioParams(), n=1)
            if abs(cosine(q, pos)) < 0.999:
                assert cosine(out, pos) > cosine(q, pos)

    def test_increment_norm_decays_with_iteration(self):
        q = np.zeros(3)
        fb1 = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        corpus = {"p": np.array([1.0, 2.0, 3.0])}
        norms = []
        for n in (1, 2, 3, 5):
            out = rocchio_embed(q, fb1, corpus, RocchioParams(), n=n)
            norms.append(np.linalg.norm(out))
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_missing_document_rejected(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        with pytest.raises(ValueError):
            rocchio_embed(np.zeros(2), fb, {}, RocchioParams(), n=1)

    def test_dimension_mismatch_rejected(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        with pytest.raises(ValueError):
            rocchio_embed(np.zeros(2), fb, {"p": np.zeros(3)}, RocchioParams(), n=1)

    @given(st.floats(0.1, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_algebra_on_random_fixtures(self, gamma, b, c, n):
        rng = np.random.default_rng(17)
        q = rng.standard_normal(4)
        fb = FeedbackRecord(n, ("p", "m"), (("p", "s", 1.0),))
        corpus = {"p": rng.standard_normal(4), "m": rng.standard_normal(4)}
        params = RocchioParams(gamma, b, c)
        out = rocchio_embed(q, fb, corpus, params, n=n)
        expected = (1 - gamma**n * (b - c)) * q + gamma**n * (b * corpus["p"] - c * corpus["m"])
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestRocchioClassic:
    def test_empty_feedback_scales_query(self):
        fb = FeedbackRecord(1, ("d9",), ())
        # a returned doc with no text would fail, so give it an empty text
        out = rocchio_classic({"polar": 1.0}, fb, {"d9": ""}, RocchioParams(), n=1)
        coef = 1 - 0.9 * (0.75 - 0.25)
        assert out["polar"] == pytest.approx(coef)

    def test_positive_doc_terms_enter_weighted(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 2.0),))
        out = rocchio_classic({}, fb, {"p": "polar ice"}, RocchioParams(), n=1)
        unit = 1.0 / np.sqrt(2.0)
        assert out["polar"] == pytest.approx(0.9 * 0.75 * unit)
        assert out["ice"] == pytest.approx(0.9 * 0.75 * unit)

    def test_zero_weights_identity(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        terms = {"a": 0.5, "b": 0.25}
        out = rocchio_classic(terms, fb, {"p": "x y"}, RocchioParams(0.9, 0.0, 0.0), n=1)
        assert out == pytest.approx(terms)

    def test_truncates_to_top_terms(self):
        text = " ".join(f"term{i}" for i in range(80))
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = rocchio_classic({}, fb, {"p": text}, RocchioParams(), n=1, top_terms=50)
        assert len(out) == 50


class TestNqe:
    def test_zero_expansion_keeps_query(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        assert nqe_expand("polar ice", fb, {"p": "melt melt"}, 0) == "polar ice"

    def test_no_positive_docs_keeps_query(self):
        fb = FeedbackRecord(1, ("p",), ())
        assert nqe_expand("polar ice", fb, {"p": "melt"}, 3) == "polar ice"

    def test_appends_most_frequent_novel_terms(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        texts = {"p": "melt melt shelf shelf shelf ice glacier"}
        out = nqe_expand("polar ice", fb, texts, 2)
        assert out == "polar ice shelf melt"

    def test_tie_break_is_lexicographic(self):
        fb = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = nqe_expand("q", fb, {"p": "zebra apple"}, 2)
        assert out == "q apple zebra"


class TestReformulators:
    def test_embed_reformulator_matches_function(self):
        class S:
            query = np.array([1.0, 0.0])
            topic_id = "t"
            vectors = {"p": np.array([0.0, 1.0])}

        rec = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        fn = EmbedRocchioFeedback(RocchioParams())
        np.testing.assert_allclose(fn(S(), rec), [0.55, 0.675], atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda texts: ClassicRocchioFeedback(texts, {"t": "polar"}, RocchioParams(), dim=8, seed=0),
        lambda texts: NQEFeedback(texts, {"t": "polar"}, dim=8, seed=0),
    ], ids=["classic-rocchio", "nqe"])
    def test_resets_per_session(self, make):
        # one reformulator serves every fold and session of a run
        fn = make({"p": "shelf shelf", "q": "melt"})

        class S:
            query = np.zeros(8)
            topic_id = "t"

        rec1 = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        first = fn(S(), rec1)
        fn(S(), FeedbackRecord(2, ("q",), (("q", "s", 1.0),)))
        again = fn(S(), rec1)  # new session restarts at the original query
        np.testing.assert_allclose(first, again, atol=1e-12)

    def test_nqe_reformulator_embeds_expansion(self):
        texts = {"p": "shelf shelf melt"}

        class S:
            query = np.zeros(16)
            topic_id = "t"

        fn = NQEFeedback(texts, {"t": "polar"}, dim=16, seed=0, top_m=1)
        rec = FeedbackRecord(1, ("p",), (("p", "s", 1.0),))
        out = fn(S(), rec)
        np.testing.assert_allclose(out, embed_text("polar shelf", 16, 0), atol=1e-12)

