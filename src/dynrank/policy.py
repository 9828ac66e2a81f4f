"""The ranking loop: epsilon-greedy selection, state transitions, rewards,
stepwise training and session evaluation.

A session ranks one topic: per search iteration, the policy picks
``docs_per_iteration`` documents one at a time (each pick conditions the
value network on the list ranked so far), then the simulated user judges
the block and the query is reformulated before the next iteration.
Training and evaluation run the same session loop (``run_session``) and
differ only in how a document is picked: training performs one
squared-loss gradient step per ranked document, evaluation picks greedily.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from dynrank import valuenet
from dynrank.data import Dataset
from dynrank.feedback import FeedbackRecord, simulate_feedback
from dynrank.metrics import JudgmentSet, MetricSpec, RankedList, report_value, target_value
from dynrank.valuenet import ValueNetParams


@dataclass(frozen=True)
class PolicyConfig:
    """Exploration, session shape and stopping parameters."""

    epsilon: float = 0.5
    epsilon_decay: float = 0.9
    decay_period: int = 1000
    docs_per_iteration: int = 5
    iterations: int = 10
    selection: str = "sample"  # or "argmax"
    seed: int = 0
    epoch_cap: int = 5000
    stop_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError(f"epsilon_decay must be in (0, 1], got {self.epsilon_decay}")
        if self.decay_period < 1 or self.docs_per_iteration < 1 or self.iterations < 1:
            raise ValueError("decay_period, docs_per_iteration and iterations must be >= 1")
        if self.selection not in ("sample", "argmax"):
            raise ValueError(f"selection must be 'sample' or 'argmax', got {self.selection!r}")
        if self.epoch_cap < 1:
            raise ValueError(f"epoch_cap must be >= 1, got {self.epoch_cap}")


def epsilon_schedule(
    completed_epochs: int,
    epsilon0: float = 0.5,
    decay: float = 0.9,
    period: int = 1000,
) -> float:
    """Exploration rate after a number of completed epochs (decays stepwise)."""
    if completed_epochs < 0:
        raise ValueError(f"completed_epochs must be >= 0, got {completed_epochs}")
    return epsilon0 * decay ** (completed_epochs // period)


@dataclass
class SessionState:
    """Search context: current query, ranked list and remaining candidates."""

    topic_id: str
    query: np.ndarray
    vectors: Mapping[str, np.ndarray]
    ranked: tuple[tuple[str, np.ndarray], ...] = ()
    candidates: frozenset[str] = frozenset()
    n: int = 1
    # scoring cache shared by the states of one session, built lazily
    _pool: _PoolCache | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"iteration index must be >= 1, got {self.n}")
        ranked_ids = [d for d, _ in self.ranked]
        if len(set(ranked_ids)) != len(ranked_ids):
            raise ValueError("duplicate documents in ranked list")
        if set(ranked_ids) & self.candidates:
            raise ValueError("ranked list and candidate set overlap")

    def ranked_ids(self) -> list[str]:
        return [d for d, _ in self.ranked]


def new_session(dataset: Dataset, topic: str) -> SessionState:
    """Fresh state for one topic: empty ranked list, full candidate pool."""
    if topic not in dataset.topics:
        raise ValueError(f"unknown topic {topic!r}")
    pool = dataset.pools[topic]
    vectors = {d: dataset.doc_vector(topic, d) for d in pool}
    return SessionState(
        topic_id=topic,
        query=dataset.query_vector(topic),
        vectors=vectors,
        candidates=frozenset(pool),
    )


def pair_input(doc_vec: np.ndarray, query: np.ndarray) -> np.ndarray:
    """One network input unit. Feature-mode queries are empty and the
    document's feature vector is the whole unit."""
    if query.size == 0:
        return doc_vec
    return np.concatenate([doc_vec, query])


def forward_inputs(state: SessionState, window: int | None = None) -> list[np.ndarray]:
    """Input sequence for the current ranked list, most recent last."""
    ranked = state.ranked if window is None else state.ranked[-window:]
    return [pair_input(vec, state.query) for _, vec in ranked]


class _PoolCache:
    """The session's pool in sorted-id order, stored as the columns of one
    (dim, pool) matrix, and the scoring workspace the session's picks reuse.

    Each pick's first-layer document projections go into the workspace's
    gate block, gate-major (4H, N). Evaluation, whose weights are frozen,
    passes ``params``: the whole pool's projection is built once, up front,
    and each pick gathers its candidates' columns from it while the weights
    keep that version. Training, whose weights change between picks, passes
    none, and each pick projects only the live candidates' columns."""

    __slots__ = ("ids", "row_of", "docs", "version", "proj", "workspace")

    def __init__(self, vectors: Mapping[str, np.ndarray], params: ValueNetParams | None = None):
        self.ids = sorted(vectors)
        self.row_of = {d: i for i, d in enumerate(self.ids)}
        self.docs = np.stack([vectors[d] for d in self.ids], axis=1)
        self.version = self.proj = None  # the pool projection and its params version
        if params is not None:
            # the transpose of the C-contiguous matrix keeps the matmul copy-free
            self.version, self.proj = params.version, valuenet.project_docs(params, self.docs.T).T
        self.workspace = valuenet.ScoringWorkspace()

    def gate_block(self, params: ValueNetParams, idx: np.ndarray) -> np.ndarray:
        """The candidates ``idx``'s document projections in the gate block."""
        ws = self.workspace
        gates = ws.gates(4 * params.lstm[0].H, len(idx))
        # "clip": "raise" would buffer the output
        if params.version == self.version:
            np.take(self.proj, idx, axis=1, out=gates, mode="clip")
        else:
            self.version = self.proj = None  # never gather a stale projection
            docs = ws.docs(len(self.docs), len(idx))
            np.take(self.docs, idx, axis=1, out=docs, mode="clip")
            valuenet.project_docs(params, docs.T, out=gates.T)
        return gates


def score_candidates(params: ValueNetParams, state: SessionState) -> dict[str, float]:
    """Value of appending each candidate to the current ranked list.

    Pure eval-mode scoring; candidates share the ranked prefix, so the
    final network step runs batched across them, in the session's
    workspace. Returns the scores in ascending doc-id order.
    """
    if not state.candidates:
        raise ValueError("no candidates to score")
    if state._pool is None:
        state._pool = _PoolCache(state.vectors)
    pool = state._pool
    idx = np.fromiter(map(pool.row_of.__getitem__, state.candidates), np.intp, len(state.candidates))
    idx.sort()
    window = params.config.window
    prefix = forward_inputs(state, window - 1) if window > 1 else []
    gates = pool.gate_block(params, idx)
    values = valuenet.forward_candidates(params, prefix, gates.T, state.query,
                                         workspace=pool.workspace)
    ids = pool.ids
    return dict(zip([ids[i] for i in idx.tolist()], values.tolist()))


def best_action(scores: Mapping[str, float]) -> str:
    """The best-scoring candidate, ties broken by ascending doc id."""
    ids = sorted(scores)
    vals = np.fromiter(map(scores.__getitem__, ids), np.float64, len(ids))
    return ids[int(np.argmax(vals))]  # first maximum: the smallest id


def select_action(
    scores: Mapping[str, float],
    epsilon: float,
    mode: str,
    rng: np.random.Generator,
) -> str:
    """Epsilon-greedy pick over candidate scores.

    With probability epsilon a uniformly random candidate is returned.
    Otherwise 'argmax' returns :func:`best_action` and 'sample' draws
    proportionally to the scores (shifted into the positive range when any
    score is <= 0).
    """
    if not scores:
        raise ValueError("empty score map")
    ids = sorted(scores)
    if rng.random() < epsilon:
        return ids[rng.integers(len(ids))]
    if mode == "argmax":
        return best_action(scores)
    if mode != "sample":
        raise ValueError(f"unknown selection mode {mode!r}")
    vals = np.fromiter(map(scores.__getitem__, ids), np.float64, len(ids))
    total = vals.sum()
    if not math.isfinite(total):
        raise FloatingPointError("non-finite candidate scores")
    lo = vals.min()
    if lo <= 0.0:
        vals = vals - lo + 1e-6
        total = vals.sum()
    return ids[rng.choice(len(ids), p=vals / total)]


def step_transition(state: SessionState, doc_id: str) -> SessionState:
    """Append a candidate to the ranked list and drop it from the pool."""
    if doc_id not in state.candidates:
        raise ValueError(f"{doc_id!r} is not an available candidate")
    return dataclasses.replace(
        state,
        ranked=state.ranked + ((doc_id, state.vectors[doc_id]),),
        candidates=state.candidates - {doc_id},
    )


def session_transition(state: SessionState, new_query: np.ndarray) -> SessionState:
    """Replace the query for the next search iteration; the list stays."""
    new_query = np.asarray(new_query, dtype=np.float64)
    if new_query.shape != state.query.shape:
        raise ValueError(f"query dimension mismatch: {new_query.shape} vs {state.query.shape}")
    return dataclasses.replace(state, query=new_query, n=state.n + 1)


def step_reward(metric: MetricSpec, state: SessionState, judgments: JudgmentSet) -> float:
    """True metric value of the ranked list so far (the regression target)."""
    return target_value(judgments, state.topic_id, state.ranked_ids(), metric)


FeedbackFn = Callable[[SessionState, FeedbackRecord], np.ndarray]


def run_session(
    dataset: Dataset,
    topic: str,
    feedback_fn: FeedbackFn | None,
    config: PolicyConfig,
    pick: Callable[[SessionState], SessionState],
) -> Iterator[tuple[int, SessionState, list[int]]]:
    """One search session: the episode training and evaluation share.

    Each iteration asks ``pick`` (state -> state with one more document) for
    up to ``docs_per_iteration`` documents, fewer once the pool runs out, and
    yields ``(iteration, state, boundaries)``, the last being the session's
    live list of block ends. Between iterations the simulator judges the
    block and ``feedback_fn`` rewrites the query; no block or no reformulator
    keeps it.
    """
    state = new_session(dataset, topic)
    boundaries: list[int] = []
    for it in range(1, config.iterations + 1):
        start = len(state.ranked)
        for _ in range(config.docs_per_iteration):
            if not state.candidates:
                break
            state = pick(state)
        block = [d for d, _ in state.ranked[start:]]
        if block:
            boundaries.append(len(state.ranked))
        yield it, state, boundaries
        if it < config.iterations:
            query = state.query
            if block and feedback_fn is not None:
                query = feedback_fn(state, simulate_feedback(dataset.judgments, topic, block, state.n))
            state = session_transition(state, query)
    # drop the scoring cache now, not when the caller rebinds its last state,
    # so two sessions' caches are never alive together
    state._pool = None


def _check_topics(dataset: Dataset, topics: Sequence[str] | None, purpose: str) -> list[str]:
    topic_list = list(topics) if topics is not None else dataset.topic_ids()
    if not topic_list:
        raise ValueError(f"empty {purpose} topic set")
    for t in topic_list:
        if not dataset.judgments.has_topic(t):
            raise ValueError(f"no judgments for {purpose} topic {t!r}")
    return topic_list


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    epsilon: float


def _diverged(epoch: int, what) -> FloatingPointError:
    return FloatingPointError(f"training diverged at epoch {epoch} ({what})")


def train_session(
    params: ValueNetParams,
    dataset: Dataset,
    feedback_fn: FeedbackFn | None,
    config: PolicyConfig,
    metric: MetricSpec | None = None,
    topics: Sequence[str] | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[ValueNetParams, list[EpochStats]]:
    """Stepwise training over full search sessions; updates ``params`` in
    place and returns it with the epoch log.

    Every ranked document triggers one gradient step towards the true
    metric of the list so far; after each block the simulator's feedback
    reformulates the query through ``feedback_fn`` (None keeps the query
    fixed). Epochs stop at ``epoch_cap`` or when the relative epoch-loss
    improvement falls below ``stop_tol``.

    Raises FloatingPointError naming the epoch as soon as a step's value,
    loss or candidate scores are non-finite.
    """
    metric = metric or MetricSpec()
    topic_list = _check_topics(dataset, topics, "training")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    lr = params.config.learning_rate
    window = params.config.window
    grad = np.empty_like(params.theta)  # every step's gradient, overwritten by backward
    log: list[EpochStats] = []
    prev_loss: float | None = None
    for epoch in range(1, config.epoch_cap + 1):
        eps = epsilon_schedule(epoch - 1, config.epsilon, config.epsilon_decay, config.decay_period)
        losses: list[float] = []

        def pick(state: SessionState) -> SessionState:
            scores = score_candidates(params, state)
            try:
                action = select_action(scores, eps, config.selection, rng)
            except FloatingPointError as exc:
                raise _diverged(epoch, exc) from None
            state = step_transition(state, action)
            target = step_reward(metric, state, dataset.judgments)
            value, cache = valuenet.forward(params, forward_inputs(state, window), mode="train", rng=rng)
            err = value - target
            loss = err * err  # overflows to inf, where ** 2 raises OverflowError
            if not math.isfinite(loss):  # also catches a non-finite value
                raise _diverged(epoch, "non-finite value or loss")
            valuenet.backward(params, cache, target, out=grad)
            valuenet.apply_update(params, grad, lr)
            losses.append(loss)
            return state

        for topic in topic_list:
            for _ in run_session(dataset, topic, feedback_fn, config, pick):
                pass
        mean_loss = float(np.mean(losses)) if losses else 0.0
        log.append(EpochStats(epoch, mean_loss, eps))
        # plateau detection: epsilon-greedy losses are noisy, so a large
        # worsening continues training while a tiny change either way stops it
        if prev_loss is not None and prev_loss > 0:
            if abs(prev_loss - mean_loss) / prev_loss < config.stop_tol:
                break
        prev_loss = mean_loss
    return params, log


def iteration_values(
    judgments: JudgmentSet,
    ranked: RankedList,
    iteration: int,
    spec: MetricSpec,
    k_per_iteration: int,
    into: dict[tuple[str, int], dict[str, float]],
) -> None:
    """Score one snapshot with every report metric into
    ``into[(metric, iteration)][topic]``."""
    for name in spec.report:
        into.setdefault((name, iteration), {})[ranked.topic_id] = report_value(
            judgments, ranked.topic_id, ranked, name, spec, k_per_iteration=k_per_iteration
        )


@dataclass
class EvalResult:
    """Per-topic ranked lists and per-iteration metric values."""

    topics: list[str]
    ranked: dict[str, RankedList]
    values: dict[tuple[str, int], dict[str, float]]  # (metric, iteration) -> topic -> value


def evaluate_session(
    params: ValueNetParams,
    dataset: Dataset,
    feedback_fn: FeedbackFn | None,
    config: PolicyConfig,
    metric: MetricSpec | None = None,
    topics: Sequence[str] | None = None,
) -> EvalResult:
    """Greedy (epsilon = 0, argmax) sessions with per-iteration metrics.

    Iteration 1 is a pure one-shot ranking; feedback only applies between
    iterations. Cumulative report metrics are snapshotted after every
    iteration, per topic; the caller aggregates them.
    """
    metric = metric or MetricSpec()
    topic_list = _check_topics(dataset, topics, "evaluation")

    def pick(state: SessionState) -> SessionState:
        if state._pool is None:  # frozen weights: project the session's pool once
            state._pool = _PoolCache(state.vectors, params)
        return step_transition(state, best_action(score_candidates(params, state)))

    ranked_lists: dict[str, RankedList] = {}
    values: dict[tuple[str, int], dict[str, float]] = {}
    for topic in topic_list:
        for it, state, boundaries in run_session(dataset, topic, feedback_fn, config, pick):
            snapshot = RankedList(topic, state.ranked_ids(), list(boundaries))
            iteration_values(dataset.judgments, snapshot, it, metric, config.docs_per_iteration, values)
        ranked_lists[topic] = snapshot
    return EvalResult(topics=topic_list, ranked=ranked_lists, values=values)
