"""Feedback digestion: user simulator and query reformulators.

The simulator plays hidden judgments back as per-subtopic scores for the
documents just returned. Reformulators turn that record into the next
query: the default blends the old query vector with centroids of
positively and negatively judged documents, decaying the blend weight
geometrically over search iterations. Term-space variants (classic
Rocchio, naive query expansion) exist as ablation arms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from dynrank.embedspace import embed_term_weights, tokenize
from dynrank.metrics import JudgmentSet


@dataclass(frozen=True)
class RocchioParams:
    """Blend weights: gamma decays per iteration, b/c weight positive/negative centroids."""

    gamma: float = 0.9
    b: float = 0.75
    c: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.b < 0 or self.c < 0:
            raise ValueError(f"b and c must be >= 0, got b={self.b}, c={self.c}")


@dataclass(frozen=True)
class FeedbackRecord:
    """Per-subtopic scores for one returned block of documents.

    ``entries`` holds (doc_id, subtopic_id, score) for every positive
    judgment among the returned documents; ``returned`` is the full block
    in rank order (needed to identify the documents that got no positive
    feedback). Subtopic ids are opaque labels.
    """

    iteration: int
    returned: tuple[str, ...]
    entries: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if self.iteration < 1:
            raise ValueError(f"iteration must be >= 1, got {self.iteration}")
        block = set(self.returned)
        for doc, subtopic, score in self.entries:
            if doc not in block:
                raise ValueError(f"entry for {doc!r} which is not in the returned block")
            if score < 0:
                raise ValueError(f"negative score {score} for ({doc}, {subtopic})")

    def positive_docs(self) -> set[str]:
        return {doc for doc, _, score in self.entries if score > 0}

    def negative_docs(self) -> set[str]:
        return set(self.returned) - self.positive_docs()


def simulate_feedback(
    judgments: JudgmentSet, topic: str, returned_docs: Sequence[str], n: int
) -> FeedbackRecord:
    """Reveal the judged subtopic scores of one returned block.

    Emits one entry per (document, subtopic) with grade > 0; subtopic
    content and total count never leak beyond the labels present.
    """
    if not returned_docs:
        raise ValueError("returned_docs must be non-empty")
    if not judgments.has_topic(topic):
        raise ValueError(f"unknown topic {topic!r}")
    entries = []
    for doc in returned_docs:
        for subtopic, grade in sorted(judgments.coverage(topic, doc).items()):
            if grade > 0:
                entries.append((doc, subtopic, float(grade)))
    return FeedbackRecord(n, tuple(returned_docs), tuple(entries))


def rocchio_embed(
    q_n: np.ndarray,
    fb: FeedbackRecord,
    vectors: Mapping[str, np.ndarray],
    params: RocchioParams = RocchioParams(),
) -> np.ndarray:
    """Reformulate a query vector from one block of feedback.

    q' = (1 - gamma^n (b - c)) q + gamma^n (b mean(D_r) - c mean(D_nr)),
    where n is the block's iteration, D_r are returned documents with any
    positive feedback and D_nr the rest. Empty centroids are zero vectors.
    """
    q_n = np.asarray(q_n, dtype=np.float64)
    dim = q_n.shape[0]

    def centroid(doc_ids) -> np.ndarray:
        rows = []
        for doc in sorted(doc_ids):
            if doc not in vectors:
                raise ValueError(f"feedback document {doc!r} missing from corpus")
            if np.shape(vectors[doc]) != (dim,):
                raise ValueError(f"dimension mismatch: query {dim}, {doc!r} {np.shape(vectors[doc])}")
            rows.append(vectors[doc])
        return np.mean(rows, axis=0) if rows else np.zeros(dim)

    decay = params.gamma**fb.iteration
    blend = (1.0 - decay * (params.b - params.c)) * q_n
    return blend + decay * (params.b * centroid(fb.positive_docs()) - params.c * centroid(fb.negative_docs()))


_TOP_TERMS = 50  # terms a classic Rocchio query keeps
_NQE_TERMS = 10  # novel terms naive query expansion adds per round


def tf_unit(text: str) -> dict[str, float]:
    """L2-normalized term frequencies of ``text``."""
    counts = Counter(tokenize(text))
    norm = float(np.sqrt(sum(c * c for c in counts.values())))
    if norm == 0.0:
        return {}
    return {t: c / norm for t, c in counts.items()}


def rocchio_classic(
    query_terms: Mapping[str, float],
    fb: FeedbackRecord,
    corpus_texts: Mapping[str, str],
    params: RocchioParams = RocchioParams(),
) -> dict[str, float]:
    """Classic term-space Rocchio over L2-normalized term frequencies.

    Same blend algebra as the embedding variant, applied to sparse term
    maps; the result keeps only the ``_TOP_TERMS`` highest-weight terms.
    """
    def centroid(doc_ids) -> dict[str, float]:
        docs = sorted(doc_ids)
        acc: dict[str, float] = {}
        for doc in docs:
            if doc not in corpus_texts:
                raise ValueError(f"feedback document {doc!r} has no text")
            for t, w in tf_unit(corpus_texts[doc]).items():
                acc[t] = acc.get(t, 0.0) + w
        return {t: w / len(docs) for t, w in acc.items()} if docs else {}

    decay = params.gamma**fb.iteration
    coef = 1.0 - decay * (params.b - params.c)
    result: dict[str, float] = {t: coef * w for t, w in query_terms.items()}
    for t, w in centroid(fb.positive_docs()).items():
        result[t] = result.get(t, 0.0) + decay * params.b * w
    for t, w in centroid(fb.negative_docs()).items():
        result[t] = result.get(t, 0.0) - decay * params.c * w
    # zero weights mean "absent" in sparse term space
    kept = sorted(
        ((t, w) for t, w in result.items() if w != 0.0),
        key=lambda kv: (-kv[1], kv[0]),
    )[:_TOP_TERMS]
    return dict(kept)


def nqe_expand(
    query_terms: Mapping[str, float],
    fb: FeedbackRecord,
    corpus_texts: Mapping[str, str],
) -> dict[str, float]:
    """Add the ``_NQE_TERMS`` most frequent novel terms of positively judged
    documents to a term-count map, each with count 1 and after the
    existing terms: the counts of the query text with those terms appended."""
    counts: Counter = Counter()
    for doc in sorted(fb.positive_docs()):
        if doc not in corpus_texts:
            raise ValueError(f"feedback document {doc!r} has no text")
        counts.update(t for t in tokenize(corpus_texts[doc]) if t not in query_terms)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:_NQE_TERMS]
    return {**query_terms, **dict.fromkeys((t for t, _ in ranked), 1)}


# --- Reformulators: callables (state, record) -> new query vector -------

class EmbedRocchioFeedback:
    """Embedding-space Rocchio reformulator; the returned documents'
    vectors come from the session state's pool."""

    def __init__(self, params: RocchioParams = RocchioParams()):
        self.params = params

    def __call__(self, state, record: FeedbackRecord) -> np.ndarray:
        return rocchio_embed(state.query, record, state.vectors, self.params)


class TermFeedback:
    """Term-space reformulator: ``start(topic)`` is a topic's first term
    map, ``step(terms, record)`` the next; each map is re-embedded by
    hashing at ``dim`` with ``seed``.

    Holds the live session's ``(topic, term map)``: a session's first
    record, or a record for another topic, restarts from ``start``.
    A session is one ``run_session`` call, so nothing else is kept.
    """

    def __init__(self, start: Callable[[str], Mapping[str, float]],
                 step: Callable[[Mapping[str, float], FeedbackRecord], Mapping[str, float]],
                 dim: int, seed: int):
        self.start, self.step, self.dim, self.seed = start, step, dim, seed
        self._session: tuple[str | None, Mapping[str, float]] = (None, {})

    def __call__(self, state, record: FeedbackRecord) -> np.ndarray:
        topic, terms = self._session
        if record.iteration == 1 or topic != state.topic_id:
            terms = self.start(state.topic_id)
        terms = self.step(terms, record)
        self._session = (state.topic_id, terms)
        return embed_term_weights(terms, self.dim, self.seed)
