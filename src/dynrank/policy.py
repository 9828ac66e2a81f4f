"""The ranking loop: epsilon-greedy selection, state transitions, rewards,
stepwise training and session evaluation.

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
from typing import Callable, Iterator, Mapping, Sequence

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
    """Search context: current query, ranked list and remaining candidates.

    The candidates are rows of ``ids``, the session's pool in ascending id
    order: ``live`` holds the rows not ranked yet, ascending. Transitions
    share ``ids`` and never modify a state's arrays, so every state of a
    session stays valid."""

    topic_id: str
    query: np.ndarray
    vectors: Mapping[str, np.ndarray]
    ids: tuple[str, ...] = ()
    live: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    ranked: tuple[tuple[str, np.ndarray], ...] = ()
    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"iteration index must be >= 1, got {self.n}")
        ranked_ids = [d for d, _ in self.ranked]
        if len(set(ranked_ids)) != len(ranked_ids):
            raise ValueError("duplicate documents in ranked list")
        live = self.live = np.asarray(self.live, dtype=np.intp)
        if live.ndim != 1 or (np.diff(live) <= 0).any():
            raise ValueError("live rows must be one ascending array")
        if live.size and (live[0] < 0 or live[-1] >= len(self.ids)):
            raise ValueError(f"live rows must index the {len(self.ids)} pool ids")
        if not set(ranked_ids).isdisjoint(self.candidates()):
            raise ValueError("ranked list and candidate set overlap")

    def ranked_ids(self) -> list[str]:
        return [d for d, _ in self.ranked]

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
    """Fresh state for one topic: empty ranked list, full candidate pool."""
    if topic not in dataset.topics:
        raise ValueError(f"unknown topic {topic!r}")
    vectors = {d: dataset.doc_vector(topic, d) for d in dataset.pools[topic]}
    return SessionState(
        topic_id=topic,
        query=dataset.query_vector(topic),
        vectors=vectors,
        ids=tuple(sorted(vectors)),
        live=np.arange(len(vectors), dtype=np.intp),
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
    """A pick's scoring cache: the current session's pool as the columns of
    one (dim, pool) matrix, in the order of ``SessionState.ids``, the first
    layer's document projections of the live candidates, and the scoring
    workspace the picks reuse.

    The projection is the workspace's gate-major (4H, N) projection block,
    one column per live candidate, kept with the weights version and the
    live rows it holds. A pick at that version and those rows scores from
    it; any other gathers and projects the live columns afresh, as training
    does at every pick, since its weights change at every step. ``drop``
    follows a transition: it copies the projection, minus the ranked
    column, into the gate block and swaps the two blocks. So evaluation
    projects each session's pool once, and a pick neither allocates nor
    gathers."""

    __slots__ = ("ids", "docs", "version", "live", "proj", "workspace")

    def __init__(self):
        self.ids = self.docs = self.version = self.live = self.proj = None
        self.workspace = valuenet.ScoringWorkspace()

    def gate_block(self, params: ValueNetParams, state: SessionState) -> np.ndarray:
        """The live candidates' document projections, (4H, len(state.live))."""
        live = state.live
        if state.ids is not self.ids:  # a new session: drop the last one's pool first
            self.ids = self.docs = self.live = self.proj = None
            self.docs = np.stack([state.vectors[d] for d in state.ids], axis=1)
            self.ids = state.ids
        elif self.version == params.version and self.live is live:
            return self.proj
        ws = self.workspace
        docs = ws.docs(len(self.docs), len(live))
        np.take(self.docs, live, axis=1, out=docs, mode="clip")  # "raise" would buffer the output
        self.proj = ws.proj(4 * params.lstm[0].H, len(live))
        valuenet.project_docs(params, docs.T, out=self.proj.T)
        self.version, self.live = params.version, live
        return self.proj

    def drop(self, live: np.ndarray, pos: int, rest: np.ndarray) -> None:
        """Follow the transition from ``live`` to ``rest``, which ranked the
        candidate at ``pos``: compact the kept projection if it holds
        ``live``."""
        if self.live is not live:
            return
        rows, n = self.proj.shape
        out = self.workspace.gates(rows, n - 1)
        out[:, :pos] = self.proj[:, :pos]
        out[:, pos:] = self.proj[:, pos + 1:]
        self.workspace.swap_gates()
        self.proj, self.live = out, rest


def score_candidates(params: ValueNetParams, state: SessionState, pool: _PoolCache) -> np.ndarray:
    """Value of appending each candidate to the current ranked list.

    Pure eval-mode scoring; candidates share the ranked prefix, so the
    final network step runs batched across them, in ``pool``'s workspace.
    Returns a new array of the scores in the order of ``state.live``, which
    is ascending doc id.
    """
    if not state.live.size:
        raise ValueError("no candidates to score")
    window = params.config.window
    prefix = forward_inputs(state, window - 1) if window > 1 else []
    gates = pool.gate_block(params, state)
    return valuenet.forward_candidates(params, prefix, gates.T, state.query,
                                       workspace=pool.workspace)


def best_action(scores: np.ndarray) -> int:
    """Position of the best score; ties go to the first, which is the
    smallest doc id."""
    return int(np.argmax(scores))


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
    return _evolve(state, ranked=state.ranked + ((doc, state.vectors[doc]),), live=rest)


def session_transition(state: SessionState, new_query: np.ndarray) -> SessionState:
    """Replace the query for the next search iteration; the list stays."""
    new_query = np.asarray(new_query, dtype=np.float64)
    if new_query.shape != state.query.shape:
        raise ValueError(f"query dimension mismatch: {new_query.shape} vs {state.query.shape}")
    return _evolve(state, query=new_query, n=state.n + 1)


def step_reward(metric: MetricSpec, state: SessionState, judgments: JudgmentSet) -> float:
    """True metric value of the ranked list so far (the regression target)."""
    return target_value(judgments, state.topic_id, state.ranked_ids(), metric)


FeedbackFn = Callable[[SessionState, FeedbackRecord], np.ndarray]
Pick = Callable[[SessionState], SessionState]


def run_session(
    dataset: Dataset,
    topic: str,
    feedback_fn: FeedbackFn | None,
    config: PolicyConfig,
    pick: Pick,
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
            if not state.live.size:
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
    pool = _PoolCache()
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


def greedy_pick(params: ValueNetParams) -> Pick:
    """The learned ranker: the argmax of the network's scores (epsilon 0,
    no random draws), on a pool projected once per session."""
    pool = _PoolCache()

    def pick(state: SessionState) -> SessionState:
        pos = best_action(score_candidates(params, state, pool))
        nxt = step_transition(state, pos)
        pool.drop(state.live, pos, nxt.live)
        return nxt
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
    metric: MetricSpec | None = None,
    topics: Sequence[str] | None = None,
) -> EvalResult:
    """Sessions ranked by ``pick`` (:func:`greedy_pick`, :func:`random_pick`
    or :func:`cosine_pick`) with per-iteration metrics.

    Iteration 1 is a pure one-shot ranking; feedback only applies between
    iterations. Cumulative report metrics are snapshotted after every
    iteration, per topic; the caller aggregates them.
    """
    metric = metric or MetricSpec()
    topic_list = _check_topics(dataset, topics, "evaluation")
    ranked_lists: dict[str, RankedList] = {}
    values: dict[tuple[str, int], dict[str, float]] = {}
    for topic in topic_list:
        for it, state, boundaries in run_session(dataset, topic, feedback_fn, config, pick):
            snapshot = RankedList(topic, state.ranked_ids(), list(boundaries))
            iteration_values(dataset.judgments, snapshot, it, metric, config.docs_per_iteration, values)
        ranked_lists[topic] = snapshot
    return EvalResult(topics=topic_list, ranked=ranked_lists, values=values)
