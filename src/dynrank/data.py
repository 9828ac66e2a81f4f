"""Dataset ingestion, synthetic corpus generation and fold splitting.

Supported inputs:
  - topics JSONL: {"topic_id": ..., "query": ...}
  - qrels TSV:    topic_id <TAB> subtopic_id <TAB> doc_id <TAB> grade
  - docs JSONL:   {"doc_id": ..., "text": ...}, or an embeddings TSV
    (header ``#dim=D``) for precomputed vectors

Loaders validate referential integrity and reject broken files with line
numbers instead of repairing them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from dynrank.embedspace import embed_text
from dynrank.metrics import JudgmentSet


class DataError(Exception):
    """Malformed or inconsistent input data."""


def read_lines(path):
    """Yield ``(line number, line)`` over a UTF-8 text file. A file that is
    missing, a directory, unreadable or not UTF-8 is a DataError naming it,
    and for bytes that are not UTF-8 the first line that holds them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {_undecodable_line(path) or exc}") from None


def _undecodable_line(path) -> str | None:
    """``line N: <decode error>`` for the first line of ``path`` that is not
    UTF-8, or None. Lines break at ``\\n``, ``\\r`` and ``\\r\\n``, as in
    ``read_lines``; no UTF-8 sequence holds either byte, so no split cuts one."""
    with open(path, "rb") as fh:
        lines = (part for raw in fh for part in raw.splitlines())
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {lineno}: {exc}"
    return None


def read_vectors_tsv(path, lines=None) -> tuple[int, dict[str, np.ndarray]]:
    """Read an embeddings TSV: header ``#dim=D`` then ``doc_id\\tv1...\\tvD`` rows.

    Returns ``(D, doc_id -> vector)``. Malformed input is a DataError
    naming the file and line. ``lines`` are the file's numbered lines
    (``read_lines``) when the caller has already opened it.
    """
    lines = read_lines(path) if lines is None else lines
    header = next(lines, (1, ""))[1]
    if not header.startswith("#dim="):
        raise DataError(f"{path}: line 1: expected header '#dim=D'")
    try:
        dim = int(header[len("#dim="):].strip())
    except ValueError:
        raise DataError(f"{path}: line 1: malformed dimension in header") from None
    if dim < 1:
        raise DataError(f"{path}: line 1: dimension must be >= 1")
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != dim + 1:
            raise DataError(f"{path}: line {lineno}: expected {dim + 1} columns, got {len(cells)}")
        doc_id = cells[0]
        if doc_id in vectors:
            raise DataError(f"{path}: line {lineno}: duplicate doc id {doc_id!r}")
        try:
            vec = np.array([float(c) for c in cells[1:]], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: malformed float") from None
        if not np.isfinite(vec).all():
            raise DataError(f"{path}: line {lineno}: non-finite entry for doc {doc_id!r}")
        vectors[doc_id] = vec
    return dim, vectors


@dataclass
class Dataset:
    """Topics, hidden judgments and the documents' vectors.

    Documents and queries share one embedding space of width ``dim``.
    ``docs`` maps each topic to its candidate documents' vectors; topics
    that share a pool share one map.
    """

    topics: dict[str, str | None]
    query_vectors: dict[str, np.ndarray]
    judgments: JudgmentSet
    docs: dict[str, dict[str, np.ndarray]]
    texts: dict[str, str] | None = None
    dim: int = 0

    def topic_ids(self) -> list[str]:
        return sorted(self.topics)

    def input_dim(self) -> int:
        """Width of one value-network input unit: a document, then the query."""
        return 2 * self.dim


def _read_qrels(path) -> tuple[JudgmentSet, list[tuple[int, str, str, str, float]]]:
    judgments = JudgmentSet()
    rows = []
    for lineno, line in read_lines(path):
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


def _read_jsonl_map(path, lines, key: str, value: str, noun: str,
                    plural: str) -> tuple[dict[str, str], dict[str, int]]:
    """``row[key] -> row[value]`` over the numbered ``lines`` of a JSONL
    file, and each key's line number. A key is a JSON string or integer
    (kept as its decimal string), a value a JSON string; ``noun`` and
    ``plural`` name a row in the errors."""
    out: dict[str, str] = {}
    where: dict[str, int] = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if not isinstance(row, dict):
            raise DataError(f"{path}: line {lineno}: expected a JSON object, got {type(row).__name__}")
        if key not in row or value not in row:
            raise DataError(f"{path}: line {lineno}: expected keys {key!r} and {value!r}")
        k, v = row[key], row[value]
        if isinstance(k, bool) or not isinstance(k, (str, int)):
            raise DataError(f"{path}: line {lineno}: {key!r} must be a string or an integer, "
                            f"got {type(k).__name__}")
        if not isinstance(v, str):
            raise DataError(f"{path}: line {lineno}: {value!r} must be a string, got {type(v).__name__}")
        k = str(k)
        if k in out:
            raise DataError(f"{path}: line {lineno}: duplicate {noun} {k!r}")
        out[k], where[k] = v, lineno
    if not out:
        raise DataError(f"{path}: no {plural} found")
    return out, where


def load_trec_dd(topics_path, qrels_path, docs_or_vectors_path, dim: int = 512, seed: int = 0) -> Dataset:
    """Load a topics/qrels/documents triple into an embedded Dataset.

    The documents file is either JSONL with text (embedded via the hashed
    fallback at ``dim``) or a precomputed-embeddings TSV whose header
    fixes the dimension.
    """
    topics, topic_lines = _read_jsonl_map(topics_path, read_lines(topics_path), "topic_id", "query",
                                          "topic", "topics")
    judgments, qrel_rows = _read_qrels(qrels_path)

    # one pass over the docs file: its first line tells a vectors TSV from JSONL
    lines = read_lines(docs_or_vectors_path)
    first = list(itertools.islice(lines, 1))
    lines = itertools.chain(first, lines)
    texts: dict[str, str] | None = None
    if first and first[0][1].startswith("#dim="):
        dim, vectors = read_vectors_tsv(docs_or_vectors_path, lines)
    else:
        texts = _read_jsonl_map(docs_or_vectors_path, lines, "doc_id", "text", "doc", "documents")[0]
        vectors = {doc_id: embed_text(text, dim, seed) for doc_id, text in texts.items()}

    for lineno, topic, _, doc, _ in qrel_rows:
        if topic not in topics:
            raise DataError(f"{qrels_path}: line {lineno}: judgment for unknown topic {topic!r}")
        if doc not in vectors:
            raise DataError(f"{qrels_path}: line {lineno}: judgment for missing document {doc!r}")
    for topic, lineno in topic_lines.items():
        if not judgments.has_topic(topic):
            raise DataError(f"{topics_path}: line {lineno}: topic {topic!r} has no judgments in {qrels_path}")

    return Dataset(
        topics=dict(topics),
        query_vectors={t: embed_text(q, dim, seed) for t, q in topics.items()},
        judgments=judgments,
        docs=dict.fromkeys(topics, vectors),
        texts=texts,
        dim=dim,
    )


# Fractions of each topic's documents built near a subtopic centroid.
_FRAC_HIGH = 0.2   # cosine band [0.91, 0.98] -> grade 2
_FRAC_MID = 0.2    # cosine band [0.78, 0.87] -> grade 1


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, one BLAS dot per row: the sum order, and
    so the bits, of ``np.linalg.norm`` on that row alone."""
    return np.sqrt([np.dot(r, r) for r in rows])


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

    A topic's documents are the read-only rows of one ``(docs_per_topic,
    dim)`` block. The block is built from the same draws and, element by
    element, the same float operations as one document at a time; every
    dot product and norm is still one BLAS dot per row, so the bytes do
    not depend on the blocking.
    """
    if min(num_topics, docs_per_topic, subtopics_per_topic, dim) < 1:
        raise ValueError("all generator arguments must be positive")
    if dim < 2:  # a relevant document's noise is orthogonal to its anchor: no room in 1-D
        raise ValueError(f"dim must be >= 2, got {dim}")
    if frac_high < 0 or frac_mid < 0 or frac_high + frac_mid > 1:
        raise ValueError("relevant fractions must be non-negative and sum to at most 1")
    rng = np.random.default_rng(seed)
    judgments = JudgmentSet()
    topics: dict[str, str | None] = {}
    query_vectors: dict[str, np.ndarray] = {}
    docs: dict[str, dict[str, np.ndarray]] = {}

    # at least one strongly relevant doc so every topic is judged
    n_high = max(int(docs_per_topic * frac_high), 1)
    n_mid = int(docs_per_topic * frac_mid)
    n_rel = n_high + n_mid

    # shared concept dictionary all topics draw their centroids from
    n_concepts = max(4 * subtopics_per_topic, 8)
    dictionary = [_unit(rng.standard_normal(dim)) for _ in range(n_concepts)]

    for ti in range(num_topics):
        topic = f"t{ti:03d}"
        concept_ids = rng.choice(n_concepts, size=subtopics_per_topic, replace=False)
        centroids = [dictionary[ci] for ci in concept_ids]
        centroid_rows = np.stack(centroids)
        subtopic_ids = [f"s{si}" for si in range(subtopics_per_topic)]
        query_dir = _unit(np.mean(centroid_rows, axis=0))
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
        block = np.empty((docs_per_topic, dim))
        # the first n_anchored slots are relevant documents near a subtopic
        # centroid, then decoys near a fake facet; the first part of each
        # group is in the high band. Each draws its cosine, then its noise.
        n_anchored = min(n_rel + n_decoy, docs_per_topic)
        anchors = np.empty((n_anchored, dim))
        target_cos = np.empty(n_anchored)
        sin_sq = np.empty(n_anchored)
        for di in range(n_anchored):
            k = di - n_rel
            anchor, high = ((centroids[di % subtopics_per_topic], di < n_high) if k < 0
                            else (decoys[k % len(decoys)], k < n_decoy // 2))
            anchors[di] = anchor
            t = rng.uniform(0.91, 0.98) if high else rng.uniform(0.78, 0.87)
            # a Python float power: numpy's square rounds some draws differently
            target_cos[di], sin_sq[di] = t, 1.0 - t**2
            rng.standard_normal(out=block[di])
        # the rest is isotropic noise: one call draws what one call per row did
        noise = block[n_anchored:]
        rng.standard_normal(out=noise)
        noise /= _row_norms(noise)[:, None]
        raw = block[:n_anchored]
        ortho = raw - np.array([np.dot(r, a) for r, a in zip(raw, anchors)])[:, None] * anchors
        ortho /= _row_norms(ortho)[:, None]
        np.add(target_cos[:, None] * anchors, np.sqrt(sin_sq)[:, None] * ortho, out=raw)
        block.flags.writeable = False
        doc_ids = [f"{topic}-d{i:04d}" for i in id_perm.tolist()]
        docs[topic] = dict(zip(doc_ids, block))
        # one product finds every cosine near a band (its sums may round a
        # few ulps away from a lone dot's); each is then recomputed as the
        # one BLAS dot that grades it, in document then subtopic order
        near = np.nonzero(block @ centroid_rows.T >= 0.75 - 1e-9)
        for di, si in zip(*(ix.tolist() for ix in near)):
            cos = float(np.dot(block[di], centroids[si]))  # unit vectors
            if cos >= 0.9:
                judgments.add(topic, subtopic_ids[si], doc_ids[di], 2.0)
            elif cos >= 0.75:
                judgments.add(topic, subtopic_ids[si], doc_ids[di], 1.0)
        topics[topic] = None
        query_vectors[topic] = np.mean(centroid_rows, axis=0)

    return Dataset(
        topics=topics,
        query_vectors=query_vectors,
        judgments=judgments,
        docs=docs,
        dim=dim,
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
