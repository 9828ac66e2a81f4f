"""Dataset ingestion, synthetic corpus generation and fold splitting.

Supported inputs:
  - topics JSONL: {"topic_id": ..., "query": ...}
  - qrels TSV:    topic_id <TAB> subtopic_id <TAB> doc_id <TAB> grade
  - docs JSONL:   {"doc_id": ..., "text": ...}, or an embeddings TSV
    (header ``#dim=D``) for precomputed vectors
  - LETOR lines:  ``grade qid:N 1:v1 2:v2 ... #comment``

Loaders validate referential integrity and reject broken files with line
numbers instead of repairing them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from dynrank.embedspace import EmbeddedCorpus, embed_text, read_vectors_tsv
from dynrank.metrics import JudgmentSet


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass
class FeatureCorpus:
    """Fixed-length query-document feature vectors keyed by (topic, doc)."""

    feature_len: int
    rows: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for key, vec in self.rows.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.feature_len,):
                raise ValueError(f"row {key}: expected {self.feature_len} features, got {arr.shape}")
            self.rows[key] = arr


@dataclass
class Dataset:
    """Topics, hidden judgments and a document representation.

    ``kind`` is "embedded" (documents and queries share one embedding
    space) or "feature" (precomputed query-document feature vectors; the
    query has no vector of its own). ``pools`` lists each topic's
    candidate documents.
    """

    kind: str
    topics: dict[str, str | None]
    query_vectors: dict[str, np.ndarray]
    judgments: JudgmentSet
    pools: dict[str, list[str]]
    corpus: EmbeddedCorpus | None = None
    features: FeatureCorpus | None = None
    texts: dict[str, str] | None = None
    dim: int = 0
    extras: dict = field(default_factory=dict)

    def topic_ids(self) -> list[str]:
        return sorted(self.topics)

    def doc_vector(self, topic: str, doc_id: str) -> np.ndarray:
        if self.kind == "feature":
            return self.features.rows[(topic, doc_id)]
        return self.corpus.vectors[doc_id]

    def query_vector(self, topic: str) -> np.ndarray:
        return self.query_vectors[topic]

    def unjudged_topics(self) -> list[str]:
        """Topics without a single positively judged document (flagged, kept)."""
        return [t for t in self.topic_ids() if not self.judgments.positive_docs(t)]

    def input_dim(self) -> int:
        """Width of one value-network input unit."""
        return self.dim if self.kind == "feature" else 2 * self.dim


def _read_qrels(path) -> tuple[JudgmentSet, list[tuple[int, str, str, str, float]]]:
    judgments = JudgmentSet()
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cells = line.split("\t")
            if len(cells) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 tab-separated columns, got {len(cells)}")
            topic, subtopic, doc = cells[0], cells[1], cells[2]
            try:
                grade = float(cells[3])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: malformed grade {cells[3]!r}") from None
            if not math.isfinite(grade):
                raise DataError(f"{path}: line {lineno}: non-finite grade {cells[3]!r}")
            if grade < 0:
                raise DataError(f"{path}: line {lineno}: negative grade {grade}")
            judgments.add(topic, subtopic, doc, grade)
            rows.append((lineno, topic, subtopic, doc, grade))
    return judgments, rows


def _read_jsonl_map(path, key: str, value: str, noun: str,
                    plural: str) -> tuple[dict[str, str], dict[str, int]]:
    """``str(row[key]) -> str(row[value])`` over the rows of a JSONL file,
    and each key's line number; ``noun`` and ``plural`` name a row in the
    errors."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            if key not in row or value not in row:
                raise DataError(f"{path}: line {lineno}: expected keys {key!r} and {value!r}")
            k = str(row[key])
            if k in out:
                raise DataError(f"{path}: line {lineno}: duplicate {noun} {k!r}")
            out[k], lines[k] = str(row[value]), lineno
    if not out:
        raise DataError(f"{path}: no {plural} found")
    return out, lines


def load_trec_dd(topics_path, qrels_path, docs_or_vectors_path, dim: int = 512, seed: int = 0) -> Dataset:
    """Load a topics/qrels/documents triple into an embedded Dataset.

    The documents file is either JSONL with text (embedded via the hashed
    fallback at ``dim``) or a precomputed-embeddings TSV whose header
    fixes the dimension.
    """
    topics, topic_lines = _read_jsonl_map(topics_path, "topic_id", "query", "topic", "topics")
    judgments, qrel_rows = _read_qrels(qrels_path)

    with open(docs_or_vectors_path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    texts: dict[str, str] | None = None
    if first.startswith("#dim="):
        try:
            corpus = read_vectors_tsv(docs_or_vectors_path)
        except ValueError as exc:
            raise DataError(f"{docs_or_vectors_path}: {exc}") from None
    else:
        texts = _read_jsonl_map(docs_or_vectors_path, "doc_id", "text", "doc", "documents")[0]
        corpus = EmbeddedCorpus(
            dim=dim,
            vectors={doc_id: embed_text(text, dim, seed) for doc_id, text in texts.items()},
        )

    for lineno, topic, _, doc, _ in qrel_rows:
        if topic not in topics:
            raise DataError(f"{qrels_path}: line {lineno}: judgment for unknown topic {topic!r}")
        if doc not in corpus:
            raise DataError(f"{qrels_path}: line {lineno}: judgment for missing document {doc!r}")
    for topic, lineno in topic_lines.items():
        if not judgments.has_topic(topic):
            raise DataError(f"{topics_path}: line {lineno}: topic {topic!r} has no judgments in {qrels_path}")

    all_docs = sorted(corpus.vectors)
    return Dataset(
        kind="embedded",
        topics=dict(topics),
        query_vectors={t: embed_text(q, corpus.dim, seed) for t, q in topics.items()},
        judgments=judgments,
        pools={t: list(all_docs) for t in topics},
        corpus=corpus,
        texts=texts,
        dim=corpus.dim,
    )


def load_letor(path) -> Dataset:
    """Load a LETOR-style feature file into a feature Dataset.

    Each line is ``grade qid:N 1:v1 2:v2 ... #comment``; grades must be
    0, 1 or 2. Documents keep their ``docid`` from the comment when
    present, otherwise get a per-line identifier.
    """
    rows: dict[tuple[str, str], np.ndarray] = {}
    judgments = JudgmentSet()
    pools: dict[str, list[str]] = {}
    feature_len: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            body, _, comment = line.partition("#")
            parts = body.split()
            if len(parts) < 2:
                raise DataError(f"{path}: line {lineno}: expected 'grade qid:N features...'")
            try:
                grade = int(parts[0])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: malformed grade {parts[0]!r}") from None
            if grade not in (0, 1, 2):
                raise DataError(f"{path}: line {lineno}: grade must be 0, 1 or 2, got {grade}")
            if not parts[1].startswith("qid:"):
                raise DataError(f"{path}: line {lineno}: expected 'qid:N', got {parts[1]!r}")
            qid = parts[1][4:]
            feats: dict[int, float] = {}
            for token in parts[2:]:
                idx, _, val = token.partition(":")
                try:
                    index, value = int(idx), float(val)
                except ValueError:
                    raise DataError(f"{path}: line {lineno}: malformed feature {token!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: line {lineno}: non-finite feature {token!r}")
                if index < 1:
                    raise DataError(f"{path}: line {lineno}: feature index must be >= 1 in {token!r}")
                feats[index] = value
            if not feats:
                raise DataError(f"{path}: line {lineno}: no features")
            width = max(feats)
            if feature_len is None:
                feature_len = width
            elif width != feature_len:
                raise DataError(
                    f"{path}: line {lineno}: {width} features, expected {feature_len}"
                )
            vec = np.zeros(feature_len, dtype=np.float64)
            for idx, val in feats.items():
                vec[idx - 1] = val
            doc_id = None
            if comment:
                tokens = comment.split()
                if len(tokens) >= 3 and tokens[0] == "docid" and tokens[1] == "=":
                    doc_id = tokens[2]
            if doc_id is None:
                doc_id = f"{qid}-{lineno}"
            key = (qid, doc_id)
            if key in rows:
                raise DataError(f"{path}: line {lineno}: duplicate document {doc_id!r} for qid {qid!r}")
            rows[key] = vec
            pools.setdefault(qid, []).append(doc_id)
            # grade 0 is a judgment too: a query judged all-irrelevant stays a
            # known topic (flagged by unjudged_topics) and trains with target 0
            judgments.add(qid, "0", doc_id, float(grade))
    if not rows:
        raise DataError(f"{path}: no data lines")
    return Dataset(
        kind="feature",
        topics={qid: None for qid in pools},
        query_vectors={qid: np.zeros(0, dtype=np.float64) for qid in pools},
        judgments=judgments,
        pools=pools,
        features=FeatureCorpus(feature_len=feature_len, rows=rows),
        dim=feature_len,
    )


# Fractions of each topic's documents built near a subtopic centroid.
_FRAC_HIGH = 0.2   # cosine band [0.91, 0.98] -> grade 2
_FRAC_MID = 0.2    # cosine band [0.78, 0.87] -> grade 1


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def gen_synthetic(
    num_topics: int,
    docs_per_topic: int,
    subtopics_per_topic: int,
    dim: int,
    seed: int,
    decoy_clusters: bool = False,
    frac_high: float = _FRAC_HIGH,
    frac_mid: float = _FRAC_MID,
) -> Dataset:
    """Generate a vector-native corpus with hidden subtopic structure.

    Per topic: subtopic centroids are drawn on the unit sphere; relevant
    documents sit at a controlled cosine to their centroid and the rest
    are isotropic noise. Grades come from cosine bands against every
    centroid (>= 0.9 -> 2, >= 0.75 -> 1), and the topic query is the mean
    of its centroids. Deterministic in the seed.

    Subtopic centroids are drawn per topic from a shared per-run concept
    dictionary, mirroring how real encoders reuse semantic directions
    across topics; held-out topics are therefore rankable from what
    training topics teach.

    With ``decoy_clusters`` half of the irrelevant documents cluster
    around fake facets (off-topic concepts blended towards the query so
    their query alignment matches the real centroids'): one-shot ranking
    struggles to tell decoys from relevant clusters, and judged feedback
    is what identifies the real facets.
    """
    if min(num_topics, docs_per_topic, subtopics_per_topic, dim) < 1:
        raise ValueError("all generator arguments must be positive")
    if frac_high < 0 or frac_mid < 0 or frac_high + frac_mid > 1:
        raise ValueError("relevant fractions must be non-negative and sum to at most 1")
    rng = np.random.default_rng(seed)
    vectors: dict[str, np.ndarray] = {}
    judgments = JudgmentSet()
    topics: dict[str, str | None] = {}
    query_vectors: dict[str, np.ndarray] = {}
    pools: dict[str, list[str]] = {}
    all_centroids: dict[str, dict[str, np.ndarray]] = {}

    # at least one strongly relevant doc so every topic is judged
    n_high = max(int(docs_per_topic * frac_high), 1)
    n_mid = int(docs_per_topic * frac_mid)

    # shared concept dictionary all topics draw their centroids from
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
        decoys: list[np.ndarray] = []
        if decoy_clusters:
            # fake facets: off-topic concepts pulled towards the query until
            # their alignment matches the real centroids'
            m = float(np.mean([np.dot(c, query_dir) for c in centroids]))
            m = min(max(m, -0.99), 0.99)
            off_topic = [i for i in range(n_concepts) if i not in set(concept_ids)]
            fake_ids = rng.choice(off_topic, size=min(subtopics_per_topic, len(off_topic)),
                                  replace=False)
            for fi in fake_ids:
                e = dictionary[fi]
                ortho = _unit(e - np.dot(e, query_dir) * query_dir)
                decoys.append(m * query_dir + np.sqrt(1.0 - m**2) * ortho)
        # doc ids carry no role information: roles are assigned to shuffled slots
        id_perm = rng.permutation(docs_per_topic)
        docs = []
        for di in range(docs_per_topic):
            doc_id = f"{topic}-d{id_perm[di]:04d}"
            if di < n_rel + n_decoy:
                # relevant documents near a subtopic centroid, decoys near a
                # fake facet; the first part of each group in the high band
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
            docs.append(doc_id)
            for sid, centroid in zip(subtopic_ids, centroids):
                cos = float(np.dot(vec, centroid))  # unit vectors
                if cos >= 0.9:
                    judgments.add(topic, sid, doc_id, 2.0)
                elif cos >= 0.75:
                    judgments.add(topic, sid, doc_id, 1.0)
        topics[topic] = None
        query_vectors[topic] = np.mean(np.stack(centroids), axis=0)
        pools[topic] = sorted(docs)
        all_centroids[topic] = dict(zip(subtopic_ids, centroids))

    return Dataset(
        kind="embedded",
        topics=topics,
        query_vectors=query_vectors,
        judgments=judgments,
        pools=pools,
        corpus=EmbeddedCorpus(dim=dim, vectors=vectors),
        dim=dim,
        extras={"centroids": all_centroids},
    )


def split_folds(dataset: Dataset, k: int = 5, seed: int = 0) -> list[tuple[list[str], list[str]]]:
    """Shuffle topics by seed and partition into k near-equal test folds.

    Fold i tests on part i and trains on the rest.
    """
    topics = dataset.topic_ids()
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(topics):
        raise ValueError(f"k={k} exceeds the number of topics ({len(topics)})")
    order = [topics[i] for i in np.random.default_rng(seed).permutation(len(topics))]
    parts = [p.tolist() for p in np.array_split(order, k)]
    return [([t for j, p in enumerate(parts) if j != i for t in p], parts[i]) for i in range(k)]
