"""The ranking loop: epsilon-greedy selection, state transitions, stepwise
training, session evaluation and the per-iteration scores of ranked lists.

A session ranks one topic: per search iteration, the policy picks
``docs_per_iteration`` documents one at a time (each pick conditions the
value network on the list ranked so far), then the simulated user judges
the block and the query is reformulated before the next iteration.
Training and evaluation run the same session loop (``run_session``) and
differ only in how a document is picked: training performs one
squared-loss gradient step per ranked document, evaluation picks greedily,
and the random and cosine baselines run the same loop with their own picks.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from dynrank import valuenet
from dynrank.data import Dataset
from dynrank.embedspace import cosine
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
    epoch_cap: int = 5000
    stop_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError(f"epsilon_decay must be in (0, 1], got {self.epsilon_decay}")
        for name in ("decay_period", "docs_per_iteration", "iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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
    """Search context: current query, ranked list and remaining candidates.

    The candidates are rows of ``ids``, the session's pool in ascending id
    order: ``live`` holds the rows not ranked yet, ascending, and ``ranked``
    the ids ranked so far. Transitions share ``ids`` and never modify a
    state's arrays, so every state of a session stays valid."""

    topic_id: str
    query: np.ndarray
    vectors: Mapping[str, np.ndarray]
    ids: tuple[str, ...] = ()
    live: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    ranked: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError("duplicate documents in ranked list")
        live = self.live = np.asarray(self.live, dtype=np.intp)
        if live.ndim != 1 or (np.diff(live) <= 0).any():
            raise ValueError("live rows must be one ascending array")
        if live.size and (live[0] < 0 or live[-1] >= len(self.ids)):
            raise ValueError(f"live rows must index the {len(self.ids)} pool ids")
        if not set(self.ranked).isdisjoint(self.candidates()):
            raise ValueError("ranked list and candidate set overlap")

    def candidates(self) -> list[str]:
        """The ids of the candidates not ranked yet, ascending."""
        ids = self.ids
        return [ids[i] for i in self.live.tolist()]


def _evolve(state: SessionState, **changes) -> SessionState:
    """``dataclasses.replace`` without re-validating: transitions keep the
    invariants that ``__post_init__`` checks, which cost O(pool) per pick."""
    new = copy.copy(state)
    new.__dict__.update(changes)
    return new


def new_session(dataset: Dataset, topic: str) -> SessionState:
    """Fresh state for one topic: empty ranked list, full candidate pool.
    The state reads the dataset's vectors for the topic; it copies none."""
    if topic not in dataset.topics:
        raise ValueError(f"unknown topic {topic!r}")
    vectors = dataset.docs[topic]
    return SessionState(
        topic_id=topic,
        query=dataset.query_vectors[topic],
        vectors=vectors,
        ids=tuple(sorted(vectors)),
        live=np.arange(len(vectors), dtype=np.intp),
    )


def pair_input(doc_vec: np.ndarray, query: np.ndarray) -> np.ndarray:
    """One network input unit: the document's vector, then the query's."""
    return np.concatenate([doc_vec, query])


def forward_inputs(state: SessionState, window: int | None = None) -> list[np.ndarray]:
    """Input sequence for the current ranked list, most recent last."""
    ranked = state.ranked if window is None else state.ranked[-window:]
    return [pair_input(state.vectors[d], state.query) for d in ranked]


def score_candidates(params: ValueNetParams, state: SessionState,
                     pool: valuenet.ScoringWorkspace) -> np.ndarray:
    """Value of appending each candidate to the current ranked list.

    Dropout-free scoring; candidates share the ranked prefix, so the
    final network step runs batched across them, in ``pool``, which keeps
    the document side of the session's scoring. Returns a new array of the
    scores in the order of ``state.live``, which is ascending doc id. Weights
    past float32's range score as non-finite, without numpy's warnings: the
    picks (:func:`best_action`, :func:`select_action`) raise on them.
    """
    if not state.live.size:
        raise ValueError("no candidates to score")
    window = params.config.window
    prefix = forward_inputs(state, window - 1) if window > 1 else []
    with np.errstate(over="ignore", invalid="ignore"):
        return valuenet.forward_candidates(
            params, prefix, pool.doc_proj(params, state.ids, state.vectors, state.live), state.query,
            workspace=pool)


def best_action(scores: np.ndarray) -> int:
    """Position of the best score; ties go to the first, which is the
    smallest doc id. A non-finite best (argmax's first NaN, or +inf) raises."""
    pos = int(np.argmax(scores))
    if not math.isfinite(scores[pos]):
        raise FloatingPointError("non-finite candidate scores")
    return pos


def select_action(
    scores: np.ndarray,
    epsilon: float,
    mode: str,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy pick over candidate scores; returns a position.

    With probability epsilon a uniformly random position is returned.
    Otherwise 'argmax' returns :func:`best_action` and 'sample' draws
    proportionally to the scores (shifted into the positive range when any
    score is <= 0).
    """
    vals = np.asarray(scores, dtype=np.float64)
    n = len(vals)
    if not n:
        raise ValueError("no candidate scores")
    if rng.random() < epsilon:
        return int(rng.integers(n))
    if mode == "argmax":
        return best_action(vals)
    if mode != "sample":
        raise ValueError(f"unknown selection mode {mode!r}")
    total = vals.sum()
    if not math.isfinite(total):
        raise FloatingPointError("non-finite candidate scores")
    lo = vals.min()
    if lo <= 0.0:
        vals = vals - lo + 1e-6
        total = vals.sum()
    return int(rng.choice(n, p=vals / total))


def step_transition(state: SessionState, pos: int) -> SessionState:
    """Rank the candidate at position ``pos`` of ``state.live``: append it
    to the ranked list and drop it from the candidates."""
    live = state.live
    if not 0 <= pos < live.size:
        raise ValueError(f"candidate position {pos} out of range for {live.size} candidates")
    doc = state.ids[live[pos]]
    rest = np.empty(live.size - 1, np.intp)
    rest[:pos] = live[:pos]
    rest[pos:] = live[pos + 1:]
    return _evolve(state, ranked=state.ranked + (doc,), live=rest)


def session_transition(state: SessionState, new_query: np.ndarray) -> SessionState:
    """Replace the query for the next search iteration; the list stays."""
    new_query = np.asarray(new_query, dtype=np.float64)
    if new_query.shape != state.query.shape:
        raise ValueError(f"query dimension mismatch: {new_query.shape} vs {state.query.shape}")
    return _evolve(state, query=new_query)


FeedbackFn = Callable[[SessionState, FeedbackRecord], np.ndarray]
Pick = Callable[[SessionState], SessionState]


def run_session(
    dataset: Dataset,
    topic: str,
    feedback_fn: FeedbackFn | None,
    config: PolicyConfig,
    pick: Pick,
) -> RankedList:
    """One search session, the episode training and evaluation share;
    returns the topic's ranked list, one block per iteration that ranked a
    document.

    Each iteration asks ``pick`` (state -> state with one more document) for
    up to ``docs_per_iteration`` documents, fewer once the pool runs out.
    Between iterations the simulator judges the block and ``feedback_fn``
    rewrites the query; no block or no reformulator keeps it.
    """
    state = new_session(dataset, topic)
    boundaries: list[int] = []
    for it in range(1, config.iterations + 1):
        start = len(state.ranked)
        for _ in range(config.docs_per_iteration):
            if not state.live.size:
                break
            state = pick(state)
        block = state.ranked[start:]
        if block:
            boundaries.append(len(state.ranked))
        if it < config.iterations:
            query = state.query
            if block and feedback_fn is not None:
                query = feedback_fn(state, simulate_feedback(dataset.judgments, topic, block, it))
            state = session_transition(state, query)
    return RankedList(topic, list(state.ranked), boundaries)


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
    *,
    rng: np.random.Generator,
) -> tuple[ValueNetParams, list[EpochStats]]:
    """Stepwise training over full search sessions; updates ``params`` in
    place and returns it with the epoch log. ``rng`` draws the exploration
    (and any dropout masks).

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
    lr = params.config.learning_rate
    grad = np.empty_like(params.theta)  # every step's gradient, overwritten by backward
    pool = valuenet.ScoringWorkspace()
    log: list[EpochStats] = []
    prev_loss: float | None = None
    for epoch in range(1, config.epoch_cap + 1):
        eps = epsilon_schedule(epoch - 1, config.epsilon, config.epsilon_decay, config.decay_period)
        losses: list[float] = []

        def pick(state: SessionState) -> SessionState:
            scores = score_candidates(params, state, pool)
            try:
                pos = select_action(scores, eps, config.selection, rng)
            except FloatingPointError as exc:
                raise _diverged(epoch, exc) from None
            state = step_transition(state, pos)
            target = target_value(dataset.judgments, state.topic_id, state.ranked, metric)
            value, cache = valuenet.forward(params, forward_inputs(state, params.config.window),
                                            rng=rng, workspace=pool)  # steps the scored prefix
            err = value - target
            loss = err * err  # overflows to inf, where ** 2 raises OverflowError
            if not math.isfinite(loss):  # also catches a non-finite value
                raise _diverged(epoch, "non-finite value or loss")
            valuenet.backward(params, cache, target, out=grad)
            valuenet.apply_update(params, grad, lr)
            losses.append(loss)
            return state

        for topic in topic_list:
            run_session(dataset, topic, feedback_fn, config, pick)
        mean_loss = float(np.mean(losses)) if losses else 0.0
        log.append(EpochStats(epoch, mean_loss, eps))
        # plateau detection: epsilon-greedy losses are noisy, so a large
        # worsening continues training while a tiny change either way stops it
        if prev_loss is not None and prev_loss > 0:
            if abs(prev_loss - mean_loss) / prev_loss < config.stop_tol:
                break
        prev_loss = mean_loss
    return params, log


def greedy_pick(params: ValueNetParams) -> Pick:
    """The learned ranker: the argmax of the network's scores (epsilon 0,
    no random draws), on a pool projected once per session."""
    pool = valuenet.ScoringWorkspace()

    def pick(state: SessionState) -> SessionState:
        return step_transition(state, best_action(score_candidates(params, state, pool)))
    return pick


def random_pick(seed: int) -> Pick:
    """A uniform ranker: a session's n-th pick is row n of the topic's pool
    permutation from ``default_rng([seed, blake2b(topic)])``, whatever the query."""
    perms: dict[str, np.ndarray] = {}

    def pick(state: SessionState) -> SessionState:
        perm = perms.get(state.topic_id)
        if perm is None:
            key = hashlib.blake2b(state.topic_id.encode("utf-8"), digest_size=4).digest()
            rng = np.random.default_rng([seed, int.from_bytes(key, "little")])
            perm = perms[state.topic_id] = rng.permutation(len(state.ids))
        return step_transition(state, int(np.searchsorted(state.live, perm[len(state.ranked)])))
    return pick


def cosine_pick(state: SessionState) -> SessionState:
    """A ranker without parameters: the candidate most similar to the
    current query; ties go to the smallest id."""
    ids, vectors, query = state.ids, state.vectors, state.query
    sims = [cosine(vectors[ids[i]], query) for i in state.live.tolist()]
    return step_transition(state, int(np.argmax(sims)))


def evaluate_session(
    pick: Pick,
    dataset: Dataset,
    feedback_fn: FeedbackFn | None,
    config: PolicyConfig,
    topics: Sequence[str] | None = None,
) -> dict[str, RankedList]:
    """Each topic's list ranked by ``pick`` (:func:`greedy_pick`,
    :func:`random_pick` or :func:`cosine_pick`), in topic order, with one
    block per iteration that ranked a document; :func:`iteration_values`
    scores them.

    Iteration 1 is a pure one-shot ranking; feedback only applies between
    iterations.
    """
    return {topic: run_session(dataset, topic, feedback_fn, config, pick)
            for topic in _check_topics(dataset, topics, "evaluation")}


def iteration_values(
    judgments: JudgmentSet,
    ranked: Mapping[str, RankedList],
    iterations: int,
    spec: MetricSpec,
    k_per_iteration: int,
) -> dict[tuple[str, int], dict[str, float]]:
    """Every report metric of each topic's list after each of ``iterations``
    iterations, as ``{(metric, iteration): {topic: value}}``.

    The list after iteration n is its first n blocks. An iteration after a
    list's last block (its pool ran out) scores the whole list.
    """
    values: dict[tuple[str, int], dict[str, float]] = {}
    for topic, full in ranked.items():
        for it in range(1, iterations + 1):
            ends = full.boundaries[:it]
            snapshot = RankedList(topic, full.doc_ids[:ends[-1] if ends else 0], ends)
            for name in spec.report:
                values.setdefault((name, it), {})[topic] = report_value(
                    judgments, topic, snapshot, name, spec, k_per_iteration=k_per_iteration)
    return values
