"""Ranking quality measures and training targets.

Graded DCG/NDCG, a novelty-discounted DCG pair that geometrically
penalizes repeated coverage of the same query facet, and a session
variant that discounts later result batches. The same functions serve
as the reward oracle for value-network training.

DCG uses the linear gain ``rel / log2(rank + 1)``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

TARGET_METRICS = ("dcg", "ndcg", "alpha-dcg", "alpha-ndcg")
REPORT_METRICS = ("ndcg", "alpha-ndcg", "nsdcg")


@dataclass(frozen=True)
class MetricSpec:
    """Which gain function trains the network and which metrics get reported.

    ``report`` entries are metric names. ``ndcg`` and ``alpha-ndcg`` may
    carry a fixed cutoff, an integer >= 1 such as ``ndcg@5``; without one
    the cutoff is the current ranked-list length. ``nsdcg`` takes none: its
    per-iteration cutoff is the session's ``docs_per_iteration``.
    """

    target: str = "dcg"
    report: tuple[str, ...] = ("alpha-ndcg",)
    alpha: float = 0.5
    bq: float = 4.0

    def __post_init__(self):
        if self.target not in TARGET_METRICS:
            raise ValueError(f"unknown target metric {self.target!r}")
        if not self.report:
            raise ValueError("metric.report must name at least one metric")
        for name in self.report:
            base, at, cut = name.partition("@")
            if base not in REPORT_METRICS:
                raise ValueError(f"unknown report metric {name!r}")
            if at and base == "nsdcg":
                raise ValueError(f"report metric {name!r}: nsdcg takes no cutoff, its "
                                 "per-iteration cutoff is policy.docs_per_iteration")
            if at and not (cut.isdecimal() and int(cut) >= 1):
                raise ValueError(f"report metric {name!r}: the cutoff must be an integer >= 1")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.bq <= 1.0:
            raise ValueError(f"bq must be > 1, got {self.bq}")


class JudgmentSet:
    """Per-topic, per-subtopic graded relevance. Absent triples grade 0."""

    def __init__(self, grades: Mapping[tuple[str, str, str], float] | None = None):
        # topic -> doc -> subtopic -> grade
        self._coverage: dict[str, dict[str, dict[str, float]]] = {}
        self._pool_cache: dict[str, tuple] = {}
        # the last realized alpha-DCG: (topic, alpha, doc ids, counts, total)
        self._realized: tuple | None = None
        if grades:
            for (topic, subtopic, doc), grade in grades.items():
                self.add(topic, subtopic, doc, grade)

    def add(self, topic: str, subtopic: str, doc: str, grade: float) -> None:
        grade = float(grade)
        if grade < 0:
            raise ValueError(f"negative grade {grade} for ({topic}, {subtopic}, {doc})")
        self._coverage.setdefault(topic, {}).setdefault(doc, {})[subtopic] = grade
        self._pool_cache.pop(topic, None)
        self._realized = None

    def _pool(self, topic: str) -> tuple:
        """Memoized per-topic pool: positive docs, each judged doc's sorted
        positive subtopics, descending relevance values and the greedy
        alpha-DCG ideals by alpha (filled by ``ideal_alpha_dcg``). Recomputed
        whenever the topic changes."""
        cached = self._pool_cache.get(topic)
        if cached is None:
            judged = self._coverage.get(topic, {})
            subsets = {doc: _positive_subtopics(cov) for doc, cov in judged.items()}
            docs = sorted(doc for doc, subs in subsets.items() if subs)
            rels = sorted((sum(judged[d].values()) for d in docs), reverse=True)
            cached = (docs, subsets, rels, {})
            self._pool_cache[topic] = cached
        return cached

    def ideal_alpha_dcg(self, topic: str, k: int, alpha: float) -> float:
        """``ideal_alpha_dcg_at_k`` over the topic's positive pool, bit for bit.

        Greedy picks do not depend on k, so the cumulative gains of one
        greedy ranking of the whole pool answer every cutoff; they are
        computed once per (topic, alpha).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        docs, subsets, _, ideals = self._pool(topic)
        prefix = ideals.get(alpha)
        if prefix is None:
            pool = [(d, subsets[d]) for d in docs]
            prefix = ideals[alpha] = _greedy_alpha_prefix(pool, len(pool), alpha)
        return prefix[min(k, len(prefix) - 1)]

    def alpha_dcg(self, topic: str, doc_ids: Sequence[str], k: int, alpha: float) -> float:
        """``alpha_dcg_at_k`` of the documents' coverage maps, bit for bit,
        from the cached sorted positive subtopics (unjudged docs cover none).

        When the previous call summed a prefix of this list, at the same
        topic and alpha, its sum is extended by the new documents' terms in
        the same order, so a session's growing list costs one document per
        call."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        subsets = self._pool(topic)[1]
        ids = list(doc_ids[:k])
        last = self._realized
        if last is not None and last[:2] == (topic, alpha) and ids[:len(last[2])] == last[2]:
            done, counts, total = len(last[2]), last[3], last[4]
        else:
            done, counts, total = 0, Counter(), 0.0
        total = _extend_alpha_dcg(total, counts, (subsets.get(d, ()) for d in ids[done:]), done, alpha)
        self._realized = (topic, alpha, ids, counts, total)
        return total

    def has_topic(self, topic: str) -> bool:
        return topic in self._coverage

    def positive_docs(self, topic: str) -> set[str]:
        return set(self._pool(topic)[0])

    def pool_relevances(self, topic: str) -> list[float]:
        """Descending overall relevance of the topic's positive documents."""
        return list(self._pool(topic)[2])

    def coverage(self, topic: str, doc: str) -> dict[str, float]:
        """Subtopic -> grade map for one document (empty when unjudged)."""
        return dict(self._coverage.get(topic, {}).get(doc, {}))

    def __len__(self) -> int:
        return sum(len(cov) for docs in self._coverage.values() for cov in docs.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, JudgmentSet) and self._coverage == other._coverage


def doc_relevance(judgments: JudgmentSet, topic: str, doc: str) -> float:
    """Overall relevance of a document: sum of its subtopic grades."""
    return float(sum(judgments.coverage(topic, doc).values()))


@dataclass
class RankedList:
    """An ordered result list with one contiguous block per search iteration."""

    topic_id: str
    doc_ids: list[str]
    boundaries: list[int]

    def __post_init__(self):
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("duplicate doc ids in ranked list")
        if any(b <= a for a, b in zip([0, *self.boundaries], self.boundaries)):
            raise ValueError(f"boundaries must be strictly increasing, got {self.boundaries}")
        if self.boundaries and self.boundaries[-1] != len(self.doc_ids):
            raise ValueError("last boundary must equal the list length")
        if not self.boundaries and self.doc_ids:
            raise ValueError("non-empty list requires boundaries")

    def iteration_blocks(self) -> list[list[str]]:
        return [self.doc_ids[a:b] for a, b in zip([0, *self.boundaries], self.boundaries)]


def dcg_at_k(rels: Sequence[float], k: int) -> float:
    """Discounted cumulative gain over the top-k, linear gains."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = np.asarray(list(rels), dtype=np.float64)
    if r.size and (r < 0).any():
        raise ValueError("negative relevance")
    r = r[:k]
    if r.size == 0:
        return 0.0
    ranks = np.arange(1, r.size + 1, dtype=np.float64)
    return float(np.sum(r / np.log2(ranks + 1.0)))


def ndcg_at_k(rels: Sequence[float], k: int) -> float:
    """DCG normalized by the descending-sorted ideal; 0 when the ideal is 0."""
    ideal = dcg_at_k(sorted(rels, reverse=True), k)
    if ideal <= 0.0:
        return 0.0
    return dcg_at_k(rels, k) / ideal


def _positive_subtopics(item) -> tuple:
    """A document's covered subtopics, sorted: gains are summed in this
    order, so no total depends on the process's string hash seed."""
    if isinstance(item, Mapping):
        return tuple(sorted(s for s, g in item.items() if g > 0))
    return tuple(sorted(set(item)))


def alpha_dcg_at_k(coverage: Sequence, k: int, alpha: float = 0.5) -> float:
    """Novelty-discounted DCG.

    ``coverage`` holds, per ranked document, either the set of subtopics
    it covers or a subtopic -> grade mapping (binarized at grade > 0).
    A document's gain for a subtopic already covered c times earlier is
    discounted by (1 - alpha)**c.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return _extend_alpha_dcg(0.0, Counter(), map(_positive_subtopics, coverage[:k]), 0, alpha)


def _extend_alpha_dcg(total: float, counts: Counter, subsets: Iterable[tuple], done: int,
                      alpha: float) -> float:
    """``total``, the alpha-DCG of the first ``done`` ranked documents whose
    subtopic coverage ``counts`` holds, plus the terms of the documents
    ranked next, given by their sorted positive subtopics; ``counts`` is
    updated in place."""
    for rank, subs in enumerate(subsets, start=done + 1):
        gain = sum((1.0 - alpha) ** counts[s] for s in subs)
        total += gain / math.log2(rank + 1)
        for s in subs:
            counts[s] += 1
    return total


def _normalize_pool(pool: Sequence) -> list[tuple[str, tuple]]:
    items = []
    for idx, item in enumerate(pool):
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str):
            items.append((item[0], _positive_subtopics(item[1])))
        else:
            items.append((f"{idx:09d}", _positive_subtopics(item)))
    return items


def _greedy_alpha_prefix(pool: Sequence, k: int, alpha: float) -> list[float]:
    """Cumulative alpha-DCG of the greedy ideal ranking: entry r is the
    ideal at cutoff r, for r = 0 .. min(k, len(pool))."""
    remaining = sorted(_normalize_pool(pool))
    counts: Counter = Counter()
    totals = [0.0]
    for rank in range(1, min(k, len(remaining)) + 1):
        best_i = 0
        best_gain = -1.0
        for i, (_, subs) in enumerate(remaining):
            gain = sum((1.0 - alpha) ** counts[s] for s in subs)
            if gain > best_gain:
                best_i, best_gain = i, gain
        _, subs = remaining.pop(best_i)
        totals.append(totals[-1] + best_gain / math.log2(rank + 1))
        for s in subs:
            counts[s] += 1
    return totals


def ideal_alpha_dcg_at_k(pool: Sequence, k: int, alpha: float = 0.5) -> float:
    """Best achievable novelty-discounted DCG from ``pool``, greedy construction.

    At each rank the document with the largest marginal gain is taken;
    ties break on ascending doc id. Greedy is the standard ideal here and
    exact on small instances; the brute-force check lives in the tests.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return _greedy_alpha_prefix(pool, k, alpha)[-1]


def alpha_ndcg_at_k(coverage: Sequence, k: int, alpha: float = 0.5, pool: Sequence | None = None) -> float:
    """Novelty-discounted DCG over its greedy ideal, clamped to [0, 1].

    ``pool`` is the candidate set the ideal ranking may draw from; it
    defaults to ``coverage`` itself. Pass the full judged pool to measure
    retrieval quality rather than mere reordering quality.
    """
    realized = alpha_dcg_at_k(coverage, k, alpha)
    ideal = ideal_alpha_dcg_at_k(coverage if pool is None else pool, k, alpha)
    if ideal <= 0.0:
        return 0.0
    return min(realized / ideal, 1.0)


def session_ndcg(
    iteration_lists: Sequence[Sequence[float]],
    k_per_iteration: int,
    bq: float = 4.0,
    pool: Sequence[float] | None = None,
) -> float:
    """Session DCG over its ideal.

    sDCG discounts iteration j by 1 / (1 + log_bq(j)) and sums per-iteration
    DCG at ``k_per_iteration``. The ideal session assigns the globally best
    relevances (from ``pool``, defaulting to the realized values) to
    iterations in order, k at a time. 0 when the ideal is 0.
    """
    if not iteration_lists:
        raise ValueError("empty session")
    if bq <= 1.0:
        raise ValueError(f"bq must be > 1, got {bq}")
    if k_per_iteration < 1:
        raise ValueError(f"k_per_iteration must be >= 1, got {k_per_iteration}")

    def discount(j: int) -> float:
        return 1.0 / (1.0 + math.log(j, bq))

    realized = sum(
        discount(j) * dcg_at_k(lst, k_per_iteration)
        for j, lst in enumerate(iteration_lists, start=1)
    )
    pool_rels = sorted(
        (list(pool) if pool is not None else [r for lst in iteration_lists for r in lst]),
        reverse=True,
    )
    ideal = 0.0
    for j in range(1, len(iteration_lists) + 1):
        block = pool_rels[(j - 1) * k_per_iteration : j * k_per_iteration]
        if block:
            ideal += discount(j) * dcg_at_k(block, k_per_iteration)
    if ideal <= 0.0:
        return 0.0
    return realized / ideal


def ranked_relevances(judgments: JudgmentSet, topic: str, doc_ids: Sequence[str]) -> list[float]:
    return [doc_relevance(judgments, topic, d) for d in doc_ids]


def _value_at_k(judgments: JudgmentSet, topic: str, doc_ids: Sequence[str], name: str, k: int,
                alpha: float) -> float:
    """``name`` (dcg, ndcg, alpha-dcg or alpha-ndcg) of a ranked list at
    cutoff ``k``. Normalized values divide by the ideal built from the
    topic's positive pool, and are 0 when that ideal is 0."""
    if name in ("dcg", "ndcg"):
        realized = dcg_at_k(ranked_relevances(judgments, topic, doc_ids), k)
        if name == "dcg":
            return realized
        pool_rels = judgments.pool_relevances(topic)
        ideal = dcg_at_k(pool_rels, k) if pool_rels else 0.0
        return realized / ideal if ideal > 0 else 0.0
    realized = judgments.alpha_dcg(topic, doc_ids, k, alpha)
    if name == "alpha-dcg":
        return realized
    ideal = judgments.ideal_alpha_dcg(topic, k, alpha)
    return min(realized / ideal, 1.0) if ideal > 0 else 0.0


def target_value(judgments: JudgmentSet, topic: str, doc_ids: Sequence[str], spec: MetricSpec) -> float:
    """The true metric value of a ranked list, used as the regression target.

    Cutoff is the current list length. Normalized targets divide by the
    ideal built from the topic's full judged pool.
    """
    if not judgments.has_topic(topic):
        raise ValueError(f"unknown topic {topic!r}")
    return _value_at_k(judgments, topic, doc_ids, spec.target, max(len(doc_ids), 1), spec.alpha)


def report_value(
    judgments: JudgmentSet,
    topic: str,
    ranked: RankedList,
    name: str,
    spec: MetricSpec,
    k_per_iteration: int | None = None,
) -> float:
    """Evaluate one report metric (``name`` may carry an ``@k`` cutoff)."""
    if not judgments.has_topic(topic):
        raise ValueError(f"unknown topic {topic!r}")
    if name == "nsdcg":
        blocks = ranked.iteration_blocks()
        if not blocks:
            return 0.0
        lists = [ranked_relevances(judgments, topic, b) for b in blocks]
        kpi = k_per_iteration or max(len(b) for b in blocks) or 1
        return session_ndcg(lists, kpi, spec.bq, pool=judgments.pool_relevances(topic))
    base, _, cut = name.partition("@")
    if base not in ("ndcg", "alpha-ndcg"):
        raise ValueError(f"unknown report metric {name!r}")
    k = int(cut) if cut else max(len(ranked.doc_ids), 1)
    return _value_at_k(judgments, topic, ranked.doc_ids, base, k, spec.alpha)
