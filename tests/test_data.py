import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrank import data
from dynrank.data import DataError, Dataset, gen_synthetic, load_trec_dd, split_folds
from dynrank.embedspace import cosine, embed_text
from dynrank.metrics import JudgmentSet, doc_relevance


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
        assert {d for d in ds.docs["t1"] if ds.judgments.coverage("t1", d)} == {"d1", "d2"}
        assert ds.dim == 16
        assert {v.shape for pool in ds.docs.values() for v in pool.values()} == {(16,)}
        assert {v.shape for v in ds.query_vectors.values()} == {(16,)}

    def test_subtopic_sum_cross_check(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path), dim=16)
        assert doc_relevance(ds.judgments, "t1", "d1") == 3.0

    def test_query_vectors_use_hashed_embedding(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path), dim=16, seed=5)
        np.testing.assert_array_equal(ds.query_vectors["t1"], embed_text("polar ice", 16, 5))

    def test_vector_route_sets_dim_from_header(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path, docs_as_vectors=True))
        assert ds.dim == 3
        np.testing.assert_array_equal(ds.docs["t1"]["d2"], [0.0, 1.0, 0.0])
        assert ds.texts is None

    def test_all_zero_query_is_registered_and_trains(self, tmp_path):
        from dynrank.metrics import MetricSpec, target_value
        from dynrank.policy import PolicyConfig, train_session
        from dynrank.valuenet import NetConfig, init_glorot

        topics, qrels, docs = write_trec_fixture(tmp_path, docs_as_vectors=True)
        topics.write_text(topics.read_text() + json.dumps({"topic_id": "t3", "query": "sea ice"}) + "\n")
        # grade 0 is a judgment too: a topic judged all-irrelevant stays a
        # known topic and trains with target 0
        qrels.write_text(qrels.read_text() + "t3\ts1\td2\t0\nt3\ts2\td3\t0\n")
        ds = load_trec_dd(topics, qrels, docs)
        assert [t for t in ds.topic_ids() if not ds.judgments.pool_relevances(t)] == ["t3"]
        assert ds.judgments.has_topic("t3")
        for target in ("dcg", "ndcg", "alpha-ndcg"):
            assert target_value(ds.judgments, "t3", list(ds.docs["t3"]), MetricSpec(target=target)) == 0.0
        net = NetConfig(layers=1, input_dim=6, hidden_dims=(3,), dense_dims=(2,), window=2,
                        dropout=0.0)
        policy = PolicyConfig(docs_per_iteration=1, iterations=2, epoch_cap=2, stop_tol=0.0)
        _, log = train_session(init_glorot(net, 0), ds, None, policy, rng=np.random.default_rng(0))
        assert len(log) == 2 and all(np.isfinite(s.mean_loss) for s in log)

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

    @pytest.mark.parametrize("which", ["topics", "docs"])
    @pytest.mark.parametrize("row", ["5", "null", "[1, 2]", '"topic_id query"'])
    def test_jsonl_row_not_an_object_rejected_with_line(self, tmp_path, which, row):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        path = topics if which == "topics" else docs
        text = path.read_text()
        path.write_text(text + row + "\n")
        with pytest.raises(DataError) as info:
            load_trec_dd(topics, qrels, docs)
        lineno = len(text.splitlines()) + 1
        assert str(info.value).startswith(f"{path}: line {lineno}: expected a JSON object")

    @pytest.mark.parametrize("which, row, message", [
        ("topics", {"topic_id": "t3", "query": None}, "'query' must be a string, got NoneType"),
        ("docs", {"doc_id": "d4", "text": ["polar", "ice"]}, "'text' must be a string, got list"),
        ("docs", {"doc_id": "d4", "text": {"a": 1}}, "'text' must be a string, got dict"),
        ("docs", {"doc_id": True, "text": "ice"}, "'doc_id' must be a string or an integer, got bool"),
        ("topics", {"topic_id": 1.5, "query": "x"}, "'topic_id' must be a string or an integer, got float"),
    ], ids=["null-query", "list-text", "object-text", "bool-id", "float-id"])
    def test_jsonl_value_of_wrong_type_rejected_with_line(self, tmp_path, which, row, message):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        path = topics if which == "topics" else docs
        path.write_text(path.read_text() + json.dumps(row) + "\n")
        with pytest.raises(DataError) as info:
            load_trec_dd(topics, qrels, docs)
        assert str(info.value) == f"{path}: line {len(path.read_text().splitlines())}: {message}"

    def test_integer_id_is_its_decimal_string(self, tmp_path):
        topics, qrels, docs = write_trec_fixture(tmp_path)
        docs.write_text(docs.read_text() + json.dumps({"doc_id": 7, "text": "ice"}) + "\n")
        assert "7" in load_trec_dd(topics, qrels, docs).docs["t1"]

    @pytest.mark.parametrize("docs_as_vectors", [False, True], ids=["jsonl", "tsv"])
    def test_docs_file_is_opened_once(self, tmp_path, monkeypatch, docs_as_vectors):
        topics, qrels, docs = write_trec_fixture(tmp_path, docs_as_vectors=docs_as_vectors)
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(data, "open", counting_open, raising=False)
        load_trec_dd(topics, qrels, docs)
        assert opened.count(docs) == 1
        assert opened.count(topics) == opened.count(qrels) == 1

    def test_pools_cover_whole_corpus(self, tmp_path):
        ds = load_trec_dd(*write_trec_fixture(tmp_path), dim=8)
        assert sorted(ds.docs["t1"]) == ["d1", "d2", "d3"]
        assert ds.docs["t1"] is ds.docs["t2"]  # one map for the shared pool

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("which", ["qrels", "vectors"])
    def test_non_utf8_byte_past_first_chunk_names_its_line(self, tmp_path, which, newline):
        """A bad byte well past the text layer's 8 KiB decode chunk is
        reported by the line that holds it, not by its offset in a chunk,
        with lines counted as the loaders count them."""
        topics, qrels, docs = write_trec_fixture(tmp_path, docs_as_vectors=True)
        if which == "qrels":
            bad, head = qrels, qrels.read_bytes() + (b"# padding comment line" + newline) * 3000
        else:
            bad, head = docs, docs.read_bytes() + b"".join(b"x%04d\t0.5\t0.5\t0.5" % i + newline
                                                           for i in range(1000))
        assert len(head) > 8192
        lineno = len(head.splitlines()) + 1
        bad.write_bytes(head + b"d9\t0.\xff\t0.0\t0.0" + newline)
        with pytest.raises(DataError) as info:
            load_trec_dd(topics, qrels, docs)
        assert str(info.value) == (f"{bad}: line {lineno}: 'utf-8' codec can't decode byte 0xff "
                                   "in position 5: invalid start byte")


def _unit(v):
    return v / np.linalg.norm(v)


def reference_gen_synthetic(num_topics, docs_per_topic, subtopics_per_topic, dim, seed,
                            decoy_clusters=False, frac_high=0.2, frac_mid=0.2) -> Dataset:
    """The slow reference for ``gen_synthetic``: the same corpus built one
    document and one judgment at a time, each document its own array.
    Returns the corpus and each topic's subtopic centroids."""
    rng = np.random.default_rng(seed)
    judgments = JudgmentSet()
    query_vectors, docs, all_centroids = {}, {}, {}
    n_high = max(int(docs_per_topic * frac_high), 1)
    n_mid = int(docs_per_topic * frac_mid)
    n_concepts = max(4 * subtopics_per_topic, 8)
    dictionary = [_unit(rng.standard_normal(dim)) for _ in range(n_concepts)]
    for ti in range(num_topics):
        topic = f"t{ti:03d}"
        concept_ids = rng.choice(n_concepts, size=subtopics_per_topic, replace=False)
        centroids = [dictionary[ci] for ci in concept_ids]
        subtopic_ids = [f"s{si}" for si in range(subtopics_per_topic)]
        query_dir = _unit(np.mean(np.stack(centroids), axis=0))
        n_rel = n_high + n_mid
        n_decoy = (docs_per_topic - n_rel) // 2 if decoy_clusters else 0
        decoys = []
        if decoy_clusters:
            m = float(np.mean([np.dot(c, query_dir) for c in centroids]))
            m = min(max(m, -0.99), 0.99)
            off_topic = [i for i in range(n_concepts) if i not in set(concept_ids)]
            fake_ids = rng.choice(off_topic, size=min(subtopics_per_topic, len(off_topic)),
                                  replace=False)
            for fi in fake_ids:
                e = dictionary[fi]
                ortho = _unit(e - np.dot(e, query_dir) * query_dir)
                decoys.append(m * query_dir + np.sqrt(1.0 - m**2) * ortho)
        id_perm = rng.permutation(docs_per_topic)
        vectors = docs[topic] = {}
        for di in range(docs_per_topic):
            doc_id = f"{topic}-d{id_perm[di]:04d}"
            if di < n_rel + n_decoy:
                k = di - n_rel
                anchor, high = ((centroids[di % subtopics_per_topic], di < n_high) if k < 0
                                else (decoys[k % len(decoys)], k < n_decoy // 2))
                target_cos = rng.uniform(0.91, 0.98) if high else rng.uniform(0.78, 0.87)
                raw = rng.standard_normal(dim)
                ortho = _unit(raw - np.dot(raw, anchor) * anchor)
                vec = target_cos * anchor + np.sqrt(1.0 - target_cos**2) * ortho
            else:
                vec = _unit(rng.standard_normal(dim))
            vectors[doc_id] = vec
            for sid, centroid in zip(subtopic_ids, centroids):
                cos = float(np.dot(vec, centroid))
                if cos >= 0.9:
                    judgments.add(topic, sid, doc_id, 2.0)
                elif cos >= 0.75:
                    judgments.add(topic, sid, doc_id, 1.0)
        query_vectors[topic] = np.mean(np.stack(centroids), axis=0)
        all_centroids[topic] = dict(zip(subtopic_ids, centroids))
    dataset = Dataset(topics=dict.fromkeys(docs), query_vectors=query_vectors,
                      judgments=judgments, docs=docs, dim=dim)
    return dataset, all_centroids


def ordered_grades(judgments: JudgmentSet) -> list[tuple[str, str, str, float]]:
    """Every (topic, doc, subtopic, grade), in the order the grades were added."""
    return [(topic, doc, sid, grade) for topic, by_doc in judgments._coverage.items()
            for doc, by_sub in by_doc.items() for sid, grade in by_sub.items()]


def assert_same_corpus(got: Dataset, want: Dataset) -> None:
    """Same documents in the same order with the same bytes, same queries
    and grades, grades in the same order."""
    assert list(got.topics) == list(want.topics)
    for topic, pool in want.docs.items():
        assert list(got.docs[topic]) == list(pool)
        for doc, vec in pool.items():
            assert got.docs[topic][doc].dtype == vec.dtype and got.docs[topic][doc].shape == vec.shape
            assert got.docs[topic][doc].tobytes() == vec.tobytes(), (topic, doc)
        assert got.query_vectors[topic].tobytes() == want.query_vectors[topic].tobytes()
    assert ordered_grades(got.judgments) == ordered_grades(want.judgments)


# (topics, docs per topic, subtopics, dim, decoys, frac_high, frac_mid)
REFERENCE_SHAPES = {
    "trend-session": (12, 200, 6, 32, True, 0.2, 0.2),
    "oneshot-wide": (4, 200, 3, 64, False, 0.2, 0.2),
    "eval-deep": (2, 1000, 6, 32, True, 0.2, 0.2),
    "cli": (4, 20, 2, 8, False, 0.2, 0.2),
    "all-mid": (3, 30, 3, 16, True, 0.0, 1.0),  # one more anchored slot than the pool
    "no-mid": (3, 30, 2, 12, True, 0.3, 0.0),
    "high-only": (3, 25, 3, 24, True, 0.0, 0.0),
    "tiny-full": (3, 3, 4, 5, True, 0.5, 0.5),  # anchored documents fill the pool
    "one-doc": (2, 1, 1, 3, True, 0.2, 0.2),
    "odd-dim": (2, 40, 5, 33, True, 0.25, 0.15),
    "wide-dim": (2, 20, 2, 129, False, 0.2, 0.2),
}


class TestGenSynthetic:
    @pytest.mark.parametrize("seed", [0, 1, 11])
    @pytest.mark.parametrize("shape", REFERENCE_SHAPES.values(), ids=REFERENCE_SHAPES.keys())
    def test_matches_per_document_reference(self, shape, seed):
        *sizes, decoys, frac_high, frac_mid = shape
        kw = dict(decoy_clusters=decoys, frac_high=frac_high, frac_mid=frac_mid)
        assert_same_corpus(gen_synthetic(*sizes, seed, **kw),
                           reference_gen_synthetic(*sizes, seed, **kw)[0])

    @settings(max_examples=40, deadline=None)
    @given(num_topics=st.integers(1, 3), docs_per_topic=st.integers(1, 60),
           subtopics=st.integers(1, 5), dim=st.integers(2, 70), seed=st.integers(0, 2**32 - 1),
           decoys=st.booleans(), fracs=st.sampled_from([(0.2, 0.2), (0.0, 1.0), (1.0, 0.0),
                                                        (0.0, 0.0), (0.35, 0.4), (0.5, 0.5)]))
    def test_matches_reference_on_random_shapes(self, num_topics, docs_per_topic, subtopics, dim,
                                                seed, decoys, fracs):
        kw = dict(decoy_clusters=decoys, frac_high=fracs[0], frac_mid=fracs[1])
        args = (num_topics, docs_per_topic, subtopics, dim, seed)
        assert_same_corpus(gen_synthetic(*args, **kw), reference_gen_synthetic(*args, **kw)[0])

    def test_documents_are_read_only_rows_of_one_block(self):
        ds = gen_synthetic(2, 10, 2, 8, seed=0, decoy_clusters=True)
        for pool in ds.docs.values():
            blocks = {id(vec.base) for vec in pool.values()}
            assert len(blocks) == 1
            vec = next(iter(pool.values()))
            assert vec.base.shape == (10, 8)
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                vec *= 2.0
            with pytest.raises(ValueError):
                vec.flags.writeable = True

    def test_deterministic_bitwise(self):
        a = gen_synthetic(3, 20, 2, 16, seed=7)
        b = gen_synthetic(3, 20, 2, 16, seed=7)
        assert {t: sorted(p) for t, p in a.docs.items()} == {t: sorted(p) for t, p in b.docs.items()}
        for topic, pool in a.docs.items():
            for doc, vec in pool.items():
                assert vec.tobytes() == b.docs[topic][doc].tobytes()
        assert ordered_grades(a.judgments) == ordered_grades(b.judgments)

    def test_single_subtopic_clusters(self):
        ds = gen_synthetic(2, 30, 1, 32, seed=1)
        for topic in ds.topic_ids():
            pool = ds.docs[topic]
            high = [d for d in pool if ds.judgments.coverage(topic, d).get("s0", 0.0) == 2.0]
            assert len(high) >= 2
            for i, a in enumerate(high):
                for b in high[i + 1:]:
                    assert cosine(pool[a], pool[b]) >= 0.5

    def test_grades_match_recomputed_cosines(self):
        ds = gen_synthetic(3, 25, 3, 24, seed=3)
        centroids = reference_gen_synthetic(3, 25, 3, 24, seed=3)[1]
        for topic in ds.topic_ids():
            for doc, vec in ds.docs[topic].items():
                for sid, centroid in centroids[topic].items():
                    cos = float(np.dot(vec, centroid))
                    if cos >= 0.9:
                        expected = 2.0
                    elif cos >= 0.75:
                        expected = 1.0
                    else:
                        expected = 0.0
                    assert ds.judgments.coverage(topic, doc).get(sid, 0.0) == expected

    def test_queries_are_centroid_means(self):
        ds = gen_synthetic(2, 10, 3, 16, seed=5)
        centroids = reference_gen_synthetic(2, 10, 3, 16, seed=5)[1]
        for topic in ds.topic_ids():
            cents = np.stack(list(centroids[topic].values()))
            np.testing.assert_allclose(ds.query_vectors[topic], cents.mean(axis=0), atol=1e-15)

    def test_every_topic_has_positive_docs(self):
        ds = gen_synthetic(4, 40, 3, 32, seed=0)
        assert all(ds.judgments.pool_relevances(t) for t in ds.topic_ids())

    def test_rejects_nonpositive_args(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 10, 1, 8, seed=0)

    def test_rejects_one_dimension(self):
        """A 1-D relevant document has no direction orthogonal to its anchor
        for its noise: its vector would be NaN."""
        with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
            gen_synthetic(4, 20, 2, 1, seed=0)


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
