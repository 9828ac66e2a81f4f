import json

import numpy as np
import pytest

from dynrank.data import DataError, gen_synthetic, load_letor, load_trec_dd, split_folds
from dynrank.embedspace import cosine, embed_text
from dynrank.metrics import doc_relevance


def write_trec_fixture(tmp_path, docs_as_vectors=False):
    topics = tmp_path / "topics.jsonl"
    topics.write_text(
        json.dumps({"topic_id": "t1", "query": "polar ice"}) + "\n"
        + json.dumps({"topic_id": "t2", "query": "ebola outbreak"}) + "\n"
    )
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text(
        "t1\ts1\td1\t2\n"
        "t1\ts2\td1\t1\n"
        "t1\ts3\td2\t1\n"
        "t2\ts1\td3\t3\n"
    )
    docs = tmp_path / ("docs.tsv" if docs_as_vectors else "docs.jsonl")
    if docs_as_vectors:
        docs.write_text(
            "#dim=3\n"
            "d1\t1.0\t0.0\t0.0\n"
            "d2\t0.0\t1.0\t0.0\n"
            "d3\t0.0\t0.0\t1.0\n"
        )
    else:
        docs.write_text(
            json.dumps({"doc_id": "d1", "text": "polar ice sheet"}) + "\n"
            + json.dumps({"doc_id": "d2", "text": "ice core data"}) + "\n"
            + json.dumps({"doc_id": "d3", "text": "ebola vaccine"}) + "\n"
        )
    return topics, qrels, docs


class TestLoadTrecDD:
    def test_two_topic_fixture(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path), dim=16, seed=0)
        assert ds.topic_ids() == ["t1", "t2"]
        assert {d for d in ds.pools["t1"] if ds.judgments.coverage("t1", d)} == {"d1", "d2"}
        assert ds.kind == "embedded"
        assert ds.dim == 16
        assert ds.input_dim() == 32

    def test_subtopic_sum_cross_check(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path), dim=16)
        assert doc_relevance(ds.judgments, "t1", "d1") == 3.0

    def test_query_vectors_use_hashed_embedding(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path), dim=16, seed=5)
        np.testing.assert_array_equal(ds.query_vector("t1"), embed_text("polar ice", 16, 5))

    def test_vector_route_sets_dim_from_header(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path, docs_as_vectors=True))
        assert ds.dim == 3
        np.testing.assert_array_equal(ds.doc_vector("t1", "d2"), [0.0, 1.0, 0.0])
        assert ds.texts is None

    def test_orphan_judgment_names_doc(self, tmp_path):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        qrels.write_text(qrels.read_text() + "t2\ts1\tmissing\t1\n")
        with pytest.raises(DataError, match="missing"):
            load_trec_dd(topics, qrels, docs)

    def test_unknown_topic_in_qrels(self, tmp_path):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        qrels.write_text(qrels.read_text() + "t9\ts1\td1\t1\n")
        with pytest.raises(DataError, match="t9"):
            load_trec_dd(topics, qrels, docs)

    def test_duplicate_topic_rejected_with_line(self, tmp_path):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        topics.write_text(topics.read_text() + json.dumps({"topic_id": "t1", "query": "x"}) + "\n")
        with pytest.raises(DataError, match="line 3"):
            load_trec_dd(topics, qrels, docs)

    def test_topic_without_judgments_rejected_with_line(self, tmp_path):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        topics.write_text(topics.read_text() + json.dumps({"topic_id": "t3", "query": "x"}) + "\n")
        with pytest.raises(DataError) as info:
            load_trec_dd(topics, qrels, docs)
        assert str(info.value) == f"{topics}: line 3: topic 't3' has no judgments in {qrels}"

    def test_malformed_qrels_line(self, tmp_path):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        qrels.write_text("t1\ts1\td1\n")
        with pytest.raises(DataError, match="line 1"):
            load_trec_dd(topics, qrels, docs)

    @pytest.mark.parametrize("grade", ["nan", "inf"])
    def test_non_finite_grade_rejected(self, tmp_path, grade):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        qrels.write_text(qrels.read_text() + f"t2\ts2\td3\t{grade}\n")
        with pytest.raises(DataError, match=f"qrels.tsv: line 5: non-finite grade '{grade}'"):
            load_trec_dd(topics, qrels, docs)

    def test_pools_cover_whole_corpus(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path), dim=8)
        assert ds.pools["t1"] == ["d1", "d2", "d3"]


LETOR_FIXTURE = """\
2 qid:10 1:0.5 2:0.1 #docid = GX1 extra
0 qid:10 1:0.0 2:0.9
1 qid:10 1:0.4 2:0.4
1 qid:20 1:0.7 2:0.2 #docid = GX9
0 qid:20 1:0.1 2:0.1
"""


class TestLoadLetor:
    def test_line_parsing(self, tmp_path):
        path = tmp_path / "letor.txt"
        path.write_text("2 qid:10 1:0.5 2:0.1\n")
        ds = load_letor(path)
        assert ds.kind == "feature"
        assert ds.dim == 2
        (key,) = ds.features.rows
        assert key[0] == "10"
        np.testing.assert_array_equal(ds.features.rows[key], [0.5, 0.1])
        assert doc_relevance(ds.judgments, "10", key[1]) == 2.0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "letor.txt"
        path.write_text("")
        with pytest.raises(DataError):
            load_letor(path)

    def test_fixture_counts(self, tmp_path):
        path = tmp_path / "letor.txt"
        path.write_text(LETOR_FIXTURE)
        ds = load_letor(path)
        assert sorted(ds.topics) == ["10", "20"]
        assert len(ds.pools["10"]) == 3
        assert len(ds.pools["20"]) == 2
        assert "GX1" in ds.pools["10"]
        assert ds.query_vector("10").size == 0

    def test_grade_out_of_range(self, tmp_path):
        path = tmp_path / "letor.txt"
        path.write_text("4 qid:1 1:0.5\n")
        with pytest.raises(DataError, match="line 1"):
            load_letor(path)

    def test_malformed_feature(self, tmp_path):
        path = tmp_path / "letor.txt"
        path.write_text("1 qid:1 1:zzz\n")
        with pytest.raises(DataError, match="line 1"):
            load_letor(path)

    @pytest.mark.parametrize("token", ["0:9.0", "-1:9.0"])
    def test_feature_index_below_one_rejected(self, tmp_path, token):
        path = tmp_path / "letor.txt"
        path.write_text(f"1 qid:1 1:0.1 2:0.2\n2 qid:1 {token} 1:0.5 2:0.25\n")
        with pytest.raises(DataError, match=f"line 2: feature index must be >= 1 in '{token}'"):
            load_letor(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "letor.txt"
        path.write_text(f"1 qid:1 1:0.1 2:0.2\n0 qid:1 1:{value} 2:0.2\n")
        with pytest.raises(DataError, match="line 2"):
            load_letor(path)

    def test_all_zero_query_is_registered_and_trains(self, tmp_path):
        from dynrank.metrics import MetricSpec, target_value
        from dynrank.policy import PolicyConfig, train_session
        from dynrank.valuenet import NetConfig, init_glorot

        path = tmp_path / "letor.txt"
        path.write_text(
            "1 qid:1 1:0.1 2:0.2\n0 qid:1 1:0.3 2:0.4\n"
            "0 qid:2 1:0.5 2:0.6\n0 qid:2 1:0.7 2:0.8\n"
            "2 qid:3 1:0.9 2:0.1\n"
        )
        ds = load_letor(path)
        assert ds.unjudged_topics() == ["2"]
        assert ds.judgments.has_topic("2")
        for target in ("dcg", "ndcg", "alpha-ndcg"):
            assert target_value(ds.judgments, "2", ds.pools["2"], MetricSpec(target=target)) == 0.0
        net = NetConfig(layers=1, input_dim=2, hidden_dims=(3,), dense_dims=(2,), window=2,
                        dropout=0.0)
        policy = PolicyConfig(docs_per_iteration=1, iterations=2, epoch_cap=2, stop_tol=0.0)
        _, log = train_session(init_glorot(net, 0), ds, None, policy)
        assert len(log) == 2 and all(np.isfinite(s.mean_loss) for s in log)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "letor.txt"
        path.write_text("1 qid:1 1:0.1 2:0.2\n1 qid:1 1:0.1 2:0.2 3:0.3\n")
        with pytest.raises(DataError, match="line 2"):
            load_letor(path)


class TestGenSynthetic:
    def test_deterministic_bitwise(self):
        a = gen_synthetic(3, 20, 2, 16, seed=7)
        b = gen_synthetic(3, 20, 2, 16, seed=7)
        assert sorted(a.corpus.vectors) == sorted(b.corpus.vectors)
        for doc in a.corpus.vectors:
            assert a.corpus.vectors[doc].tobytes() == b.corpus.vectors[doc].tobytes()
        assert a.judgments == b.judgments

    def test_single_subtopic_clusters(self):
        ds = gen_synthetic(2, 30, 1, 32, seed=1)
        for topic in ds.topic_ids():
            high = [d for d in ds.pools[topic]
                    if ds.judgments.grade(topic, "s0", d) == 2.0]
            assert len(high) >= 2
            for i, a in enumerate(high):
                for b in high[i + 1:]:
                    assert cosine(ds.corpus.vectors[a], ds.corpus.vectors[b]) >= 0.5

    def test_grades_match_recomputed_cosines(self):
        ds = gen_synthetic(3, 25, 3, 24, seed=3)
        centroids = ds.extras["centroids"]
        for topic in ds.topic_ids():
            for doc in ds.pools[topic]:
                vec = ds.corpus.vectors[doc]
                for sid, centroid in centroids[topic].items():
                    cos = float(np.dot(vec, centroid))
                    if cos >= 0.9:
                        expected = 2.0
                    elif cos >= 0.75:
                        expected = 1.0
                    else:
                        expected = 0.0
                    assert ds.judgments.grade(topic, sid, doc) == expected

    def test_queries_are_centroid_means(self):
        ds = gen_synthetic(2, 10, 3, 16, seed=5)
        for topic in ds.topic_ids():
            cents = np.stack(list(ds.extras["centroids"][topic].values()))
            np.testing.assert_allclose(ds.query_vector(topic), cents.mean(axis=0), atol=1e-15)

    def test_every_topic_has_positive_docs(self):
        ds = gen_synthetic(4, 40, 3, 32, seed=0)
        assert ds.unjudged_topics() == []

    def test_rejects_nonpositive_args(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 10, 1, 8, seed=0)


class TestSplitFolds:
    def test_shapes_and_coverage(self):
        ds = gen_synthetic(10, 5, 1, 8, seed=0)
        folds = split_folds(ds, 5, seed=3)
        assert len(folds) == 5
        tests = [set(test) for _, test in folds]
        assert all(len(t) == 2 for t in tests)
        for i, a in enumerate(tests):
            for b in tests[i + 1:]:
                assert not (a & b)
        assert set().union(*tests) == set(ds.topic_ids())
        for train, test in folds:
            assert set(train) | set(test) == set(ds.topic_ids())
            assert not (set(train) & set(test))

    def test_same_seed_same_split(self):
        ds = gen_synthetic(7, 5, 1, 8, seed=0)
        assert split_folds(ds, 3, seed=9) == split_folds(ds, 3, seed=9)

    def test_ids_are_plain_str(self):
        folds = split_folds(gen_synthetic(5, 5, 1, 8, seed=0), 2, seed=1)
        assert all(type(t) is str for train, test in folds for t in train + test)

    def test_too_many_folds_rejected(self):
        ds = gen_synthetic(3, 5, 1, 8, seed=0)
        with pytest.raises(ValueError):
            split_folds(ds, 4, seed=0)
