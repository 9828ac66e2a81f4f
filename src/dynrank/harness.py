"""Experiment orchestration: run configs, fold loops, ablations, layer
sweeps, offline scoring and deterministic report emission.

A run is fully determined by its config (seed included): random streams
are forked per fold from (seed, fold index, purpose), so fold results do
not depend on execution order and two identical runs produce
byte-identical report files. Wall time is kept out of the report files
and lands in a separate ``timing.json``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from dynrank import valuenet
from dynrank.data import DataError, Dataset, gen_synthetic, load_letor, load_trec_dd, split_folds
from dynrank.feedback import (
    ClassicRocchioFeedback,
    EmbedRocchioFeedback,
    NQEFeedback,
    RocchioParams,
)
from dynrank.fileio import atomic_open
from dynrank.metrics import MetricSpec, RankedList
from dynrank.policy import (
    PolicyConfig,
    cosine_pick,
    evaluate_session,
    greedy_pick,
    iteration_values,
    random_pick,
    train_session,
)
from dynrank.valuenet import NetConfig, init_glorot


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


ABLATION_VARIANTS = ("embed-rocchio", "classic-rocchio", "nqe", "no-feedback")
SWEEP_LAYERS = (1, 2, 3, 4)
COMMANDS = ("train", "evaluate", "ablate", "sweep-layers", "metrics")


@dataclass(frozen=True)
class DatasetSpec:
    """Where the data comes from: generated, topic/qrels/docs files, or LETOR."""

    kind: str = "synthetic"
    num_topics: int = 20
    docs_per_topic: int = 200
    subtopics_per_topic: int = 3
    dim: int = 64
    decoy_clusters: bool = False
    frac_high: float = 0.2
    frac_mid: float = 0.2
    topics_path: str | None = None
    qrels_path: str | None = None
    docs_path: str | None = None
    letor_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "trec_dd", "letor"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "trec_dd" and not (self.topics_path and self.qrels_path and self.docs_path):
            raise ConfigError("trec_dd datasets need topics_path, qrels_path and docs_path")
        if self.kind == "letor" and not self.letor_path:
            raise ConfigError("letor datasets need letor_path")


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec = DatasetSpec()
    net: NetConfig = NetConfig()
    policy: PolicyConfig = PolicyConfig()
    rocchio: RocchioParams = RocchioParams()
    metric: MetricSpec = MetricSpec()
    feedback: str = "embed-rocchio"
    folds: int = 5
    seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.feedback not in ABLATION_VARIANTS:
            raise ConfigError(f"unknown feedback variant {self.feedback!r}")
        if self.folds < 2:  # one fold would train on no topics
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.net.output == "sigmoid" and self.metric.target in ("dcg", "alpha-dcg"):
            raise ConfigError(f"a sigmoid head cannot fit the unnormalized {self.metric.target!r} "
                              "target; use a normalized target or net.output 'linear'")


def config_to_dict(config: RunConfig) -> dict:
    return valuenet.config_to_dict(config)


def config_from_dict(d: dict) -> RunConfig:
    unknown = set(d) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        metric_d = dict(d.get("metric", {}))
        if "report" in metric_d:
            metric_d["report"] = tuple(metric_d["report"])
        return RunConfig(**{
            **d,
            "dataset": DatasetSpec(**d.get("dataset", {})),
            "net": valuenet.config_from_dict(d.get("net", {})),
            "policy": PolicyConfig(**d.get("policy", {})),
            "rocchio": RocchioParams(**d.get("rocchio", {})),
            "metric": MetricSpec(**metric_d),
        })
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return config_from_dict(json.load(fh))
    except (json.JSONDecodeError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_dataset(spec: DatasetSpec, seed: int = 0) -> Dataset:
    if spec.kind == "synthetic":
        return gen_synthetic(
            spec.num_topics, spec.docs_per_topic, spec.subtopics_per_topic, spec.dim, seed,
            decoy_clusters=spec.decoy_clusters,
            frac_high=spec.frac_high, frac_mid=spec.frac_mid,
        )
    if spec.kind == "trec_dd":
        return load_trec_dd(spec.topics_path, spec.qrels_path, spec.docs_path, dim=spec.dim, seed=seed)
    return load_letor(spec.letor_path)


def _check_config(config: RunConfig, dataset: Dataset) -> None:
    """Reject a config the dataset cannot train or evaluate."""
    if config.folds > len(dataset.topics):
        raise ConfigError(f"folds={config.folds} exceeds the dataset's {len(dataset.topics)} topics")
    expected = dataset.input_dim()
    if config.net.input_dim != expected:
        raise ConfigError(
            f"net.input_dim={config.net.input_dim} but the dataset needs {expected} "
            f"({dataset.kind} mode, dim {dataset.dim})"
        )


def make_feedback(config: RunConfig, dataset: Dataset):
    """Build the query reformulator for a variant; returns (fn, notes).

    Term-space variants need document and query text; on vector-only
    corpora they fall back to the identity reformulation and say so.
    """
    name = config.feedback
    notes: list[str] = []
    if name == "no-feedback":
        return None, notes
    if dataset.kind == "feature":
        notes.append(f"feedback {name!r} requires embedded queries; feature mode runs without feedback")
        return None, notes
    if name == "embed-rocchio":
        return EmbedRocchioFeedback(dataset.corpus, config.rocchio), notes
    query_texts = {t: q for t, q in dataset.topics.items() if q}
    if not dataset.texts or len(query_texts) < len(dataset.topics):
        notes.append(f"feedback {name!r} needs document and query text; corpus is vector-only, "
                     "falling back to the identity reformulation")
        return None, notes
    if name == "classic-rocchio":
        return ClassicRocchioFeedback(
            dataset.texts, query_texts, config.rocchio, dim=dataset.dim, seed=config.seed
        ), notes
    return NQEFeedback(dataset.texts, query_texts, dim=dataset.dim, seed=config.seed), notes


@dataclass
class RunReport:
    """Everything a run produced, minus wall time (kept out of the files)."""

    command: str
    config: dict
    folds: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    wall_time: float | None = field(default=None, compare=False)


_SCHEMA = "dynrank-report/1"


def report_to_dict(report: RunReport) -> dict:
    fields = ("command", "config", "folds", "tables", "notes")
    return {"schema": _SCHEMA, **{k: getattr(report, k) for k in fields}}


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")


# report tables written as CSV: table name -> (file name, header)
_CSV_TABLES = {
    "evaluation": ("evaluation.csv", ("iteration", "metric_name", "mean", "stddev")),
    "evaluation_by_fold": ("evaluation_by_fold.csv", ("fold", "iteration", "metric_name", "mean", "stddev")),
    "ablation": ("ablation_summary.csv", ("variant", "iteration", "metric_name", "mean", "stddev")),
    "sweep": ("sweep_layers.csv", ("layers", "metric_name", "value")),
}


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the report deterministically; returns the files written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    with atomic_open(path) as fh:
        json.dump(report_to_dict(report), fh, sort_keys=True, indent=1)
        fh.write("\n")
    written = [path]
    for name, rows in sorted(report.tables.items()):
        if name in _CSV_TABLES:
            filename, header = _CSV_TABLES[name]
            _write_csv(out / filename, header, rows)
            written.append(out / filename)
    if report.wall_time is not None:
        with atomic_open(out / "timing.json") as fh:
            json.dump({"wall_time_seconds": report.wall_time}, fh)
            fh.write("\n")
    return written


def _fold_rng(seed: int, fold: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, fold, purpose])


def _ckpt_path(out: Path, fold: int) -> Path:
    return out / "checkpoints" / f"fold{fold}.ckpt"


def train_run(config: RunConfig, dataset: Dataset | None = None) -> RunReport:
    """Train one network per fold; writes checkpoints and training logs."""
    if dataset is None:
        dataset = load_dataset(config.dataset, config.seed)
    _check_config(config, dataset)
    out = Path(config.out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    report = RunReport(command="train", config=config_to_dict(config))
    fb, report.notes = make_feedback(config, dataset)
    folds = split_folds(dataset, config.folds, config.seed)
    for i, (train_topics, test_topics) in enumerate(folds):
        params = init_glorot(config.net, _fold_rng(config.seed, i, 1))
        try:
            log = train_session(
                params, dataset, fb, config.policy, config.metric,
                topics=train_topics, rng=_fold_rng(config.seed, i, 2),
            )[1]
        except FloatingPointError as exc:
            raise RuntimeError(f"fold {i}: {exc}; no checkpoint written") from None
        # every step's loss was finite, but an epoch mean may overflow and
        # the last update may leave non-finite weights
        bad = [s.epoch for s in log if not np.isfinite(s.mean_loss)]
        if bad or not np.isfinite(params.theta).all():
            epoch = bad[0] if bad else log[-1].epoch
            raise RuntimeError(f"fold {i}: training diverged at epoch {epoch} (non-finite "
                               "loss or weights); no checkpoint written")
        valuenet.save(params, _ckpt_path(out, i))
        params = None  # one fold's weights at a time: drop them before the next fold's exist
        _write_csv(out / f"train_fold{i}.csv", ("epoch", "mean_loss", "epsilon"),
                   [(s.epoch, float(s.mean_loss), float(s.epsilon)) for s in log])
        report.folds.append({
            "fold": i,
            "train_topics": list(train_topics),
            "test_topics": list(test_topics),
            "epochs": len(log),
            "first_loss": float(log[0].mean_loss),
            "final_loss": float(log[-1].mean_loss),
        })
    return report


def _rows_from_values(values: dict) -> list:
    """Aggregate per-topic values in sorted-topic order so identical results
    reduce to identical floats regardless of fold evaluation order."""
    rows = []
    for (name, it), by_topic in values.items():
        arr = np.asarray([by_topic[t] for t in sorted(by_topic)], dtype=np.float64)
        rows.append((it, name, float(arr.mean()), float(arr.std())))
    return sorted(rows, key=lambda r: (r[0], r[1]))


def _write_runfile(out: Path, ranked: dict[str, RankedList]) -> None:
    with atomic_open(out / "run.jsonl") as fh:
        for topic in sorted(ranked):
            for it, block in enumerate(ranked[topic].iteration_blocks(), start=1):
                fh.write(json.dumps(
                    {"topic_id": topic, "iteration": it, "doc_ids": block}, sort_keys=True
                ) + "\n")


def evaluate_run(config: RunConfig, dataset: Dataset | None = None) -> RunReport:
    """Greedy evaluation of every fold's test topics using its checkpoint."""
    if dataset is None:
        dataset = load_dataset(config.dataset, config.seed)
    _check_config(config, dataset)
    out = Path(config.out_dir)
    report = RunReport(command="evaluate", config=config_to_dict(config))
    fb, report.notes = make_feedback(config, dataset)
    folds = split_folds(dataset, config.folds, config.seed)
    values: dict = {}
    ranked: dict[str, RankedList] = {}
    by_fold = []
    for i, (train_topics, test_topics) in enumerate(folds):
        path = _ckpt_path(out, i)
        if not path.exists():
            raise DataError(f"missing checkpoint {path}; run 'train' first")
        params = None  # drop the previous fold's weights before loading this fold's
        params = valuenet.load(path)
        if params.config != config.net:
            trained, wanted = valuenet.config_to_dict(params.config), valuenet.config_to_dict(config.net)
            diff = ", ".join(f"{k} {trained[k]!r} (run config: {wanted[k]!r})"
                             for k in trained if trained[k] != wanted[k])
            raise ConfigError(f"checkpoint {path} does not match the run's net config: {diff}")
        result = evaluate_session(
            greedy_pick(params), dataset, fb, config.policy, config.metric, topics=test_topics
        )
        for key, by_topic in result.values.items():
            values.setdefault(key, {}).update(by_topic)
        ranked.update(result.ranked)
        fold_rows = _rows_from_values(result.values)
        by_fold.extend((i, it, name, mean, std) for it, name, mean, std in fold_rows)
        report.folds.append({
            "fold": i,
            "test_topics": list(test_topics),
            "evaluation": fold_rows,
        })
    report.tables["evaluation"] = _rows_from_values(values)
    report.tables["evaluation_by_fold"] = by_fold
    out.mkdir(parents=True, exist_ok=True)
    _write_runfile(out, ranked)
    return report


def with_layers(net: NetConfig, layers: int) -> NetConfig:
    """``net`` at another stack depth, every layer as wide as the first."""
    hidden = net.hidden_dims
    if hidden is not None:
        hidden = (hidden[0],) * layers
    return dataclasses.replace(net, layers=layers, hidden_dims=hidden)


def _copy_files(src: Path, dst: Path) -> None:
    """Copy every file under ``src`` (temporary files aside) to the same
    place under ``dst``, each written atomically."""
    for path in sorted(src.rglob("*")):
        if path.is_file() and not path.name.startswith("."):
            target = dst / path.relative_to(src)
            target.parent.mkdir(parents=True, exist_ok=True)
            with atomic_open(target, "wb") as fh:
                fh.write(path.read_bytes())


def _run_arms(command: str, config: RunConfig, arms, dataset: Dataset) -> RunReport:
    """Train, evaluate and emit each ``(label, sub-config, same_as)`` arm on
    one dataset; the report holds each arm's table as ``evaluation:<label>``
    and the notes of every arm.

    An arm whose ``same_as`` names an earlier arm would run exactly as that
    one did, so it is not run again: it gets copies of that arm's files and
    its evaluation report, with its own config echo and notes."""
    report = RunReport(command=command, config=config_to_dict(config))
    runs: dict[str, tuple[RunConfig, RunReport]] = {}
    for label, sub, same_as in arms:
        if same_as is None:
            notes = train_run(sub, dataset).notes
            eval_rep = evaluate_run(sub, dataset)
            runs[label] = (sub, eval_rep)
        else:
            first, shared = runs[same_as]
            _copy_files(Path(first.out_dir), Path(sub.out_dir))
            notes = make_feedback(sub, dataset)[1]
            eval_rep = dataclasses.replace(shared, config=config_to_dict(sub), notes=notes)
        emit_report(eval_rep, sub.out_dir)
        report.notes.extend(n for n in notes + eval_rep.notes if n not in report.notes)
        report.tables[f"evaluation:{label}"] = eval_rep.tables["evaluation"]
    return report


def ablate_run(config: RunConfig, dataset: Dataset) -> RunReport:
    """Train and evaluate all feedback variants, everything else fixed.

    The variants that get no query reformulator on the dataset (no-feedback,
    the term-space ones on vector-only corpora, all of them in feature mode)
    rank identically, so the first of them is trained and evaluated once
    for all of them."""
    out = Path(config.out_dir) / "ablate"
    arms, plain = [], []  # plain: the variants without a reformulator
    for v in ABLATION_VARIANTS:
        sub = dataclasses.replace(config, feedback=v, out_dir=str(out / v))
        same_as = None
        if make_feedback(sub, dataset)[0] is None:
            same_as = plain[0] if plain else None
            plain.append(v)
        arms.append((v, sub, same_as))
    report = _run_arms("ablate", config, arms, dataset)
    if len(plain) > 1:
        report.notes.append(f"variants {', '.join(plain[1:])} rank exactly as {plain[0]} does "
                            f"(no query reformulator): they were trained and evaluated once, as "
                            f"{plain[0]}, and their files are copies of its files")
    report.tables["ablation"] = [
        (v, *row) for v in ABLATION_VARIANTS for row in report.tables[f"evaluation:{v}"]
    ]
    return report


def sweep_run(config: RunConfig, dataset: Dataset) -> RunReport:
    """Repeat training for each stack depth and report the final metric."""
    out = Path(config.out_dir) / "sweep"
    report = _run_arms("sweep-layers", config, [
        (f"J{n}", dataclasses.replace(config, net=with_layers(config.net, n), out_dir=str(out / f"J{n}")),
         None)
        for n in SWEEP_LAYERS
    ], dataset)
    primary = config.metric.report[0]
    rows = []
    for n in SWEEP_LAYERS:
        table = report.tables[f"evaluation:J{n}"]
        final_it = max(it for it, _, _, _ in table)
        value = next(mean for it, name, mean, _ in table if it == final_it and name == primary)
        rows.append((n, primary, value))
    report.tables["sweep"] = rows
    return report


def metrics_run(config: RunConfig, run_path, dataset: Dataset | None = None) -> RunReport:
    """Score a run file offline against the config's dataset judgments."""
    if dataset is None:
        dataset = load_dataset(config.dataset, config.seed)
    blocks: dict[str, dict[int, list[str]]] = {}
    seen: dict[str, set[str]] = {}  # each topic's documents so far
    with open(run_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                topic, it, doc_ids = str(row["topic_id"]), row["iteration"], row["doc_ids"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{run_path}: line {lineno}: {exc}") from None
            where = f"{run_path}: line {lineno}: topic {topic!r}"
            if type(it) is not int or it < 1:
                raise DataError(f"{where}: iteration must be an integer >= 1, got {it!r}")
            its, docs = blocks.setdefault(topic, {}), seen.setdefault(topic, set())
            if it in its:
                raise DataError(f"{where}: iteration {it} repeated")
            if not doc_ids or not isinstance(doc_ids, list) or not all(isinstance(d, str) for d in doc_ids):
                raise DataError(f"{where}: doc_ids must be a non-empty list of strings")
            for doc in doc_ids:
                if doc in docs:
                    raise DataError(f"{where}: document {doc!r} repeated")
                docs.add(doc)
            its[it] = doc_ids
    if not blocks:
        raise DataError(f"{run_path}: no run rows")
    # iterations after a pool ran out have no run rows but are still reported
    max_it = max(config.policy.iterations, *(max(its) for its in blocks.values()))
    values: dict = {}
    for topic in sorted(blocks):
        if not dataset.judgments.has_topic(topic):
            raise DataError(f"{run_path}: no judgments for topic {topic!r}")
        doc_ids: list[str] = []
        boundaries: list[int] = []
        its = blocks[topic]
        for it in range(1, max_it + 1):
            if it in its:
                doc_ids.extend(its[it])
                boundaries.append(len(doc_ids))
            iteration_values(dataset.judgments, RankedList(topic, list(doc_ids), list(boundaries)),
                             it, config.metric, config.policy.docs_per_iteration, values)
    report = RunReport(command="metrics", config=config_to_dict(config))
    report.tables["evaluation"] = _rows_from_values(values)
    return report


def run(config: RunConfig, command: str, run_path=None) -> RunReport:
    """Dispatch one command, time it, and write the report files."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    start = time.perf_counter()
    dataset = load_dataset(config.dataset, config.seed)
    if command == "train":
        report = train_run(config, dataset)
    elif command == "evaluate":
        report = evaluate_run(config, dataset)
    elif command == "ablate":
        report = ablate_run(config, dataset)
    elif command == "sweep-layers":
        report = sweep_run(config, dataset)
    else:
        report = metrics_run(config, run_path or Path(config.out_dir) / "run.jsonl", dataset)
    report.wall_time = time.perf_counter() - start
    emit_report(report, config.out_dir)
    return report


# --- Canned profiles --------------------------------------------------------

def default_config(out_dir: str = "runs/default", seed: int = 0) -> RunConfig:
    """Desk-scale dynamic-search profile: full sessions with Rocchio feedback.

    A five-fold train+evaluate takes on the order of ten minutes; pass
    --folds 2 or --iterations 3 to the CLI for quicker passes.
    """
    return RunConfig(
        dataset=DatasetSpec(kind="synthetic", num_topics=20, docs_per_topic=200,
                            subtopics_per_topic=3, dim=64),
        net=NetConfig(layers=3, input_dim=128, hidden_dims=(64, 64, 64),
                      dense_dims=(32, 16), window=5, dropout=0.0,
                      learning_rate=0.3, output="sigmoid", input_scale=16.0),
        policy=PolicyConfig(epsilon=0.5, docs_per_iteration=5, iterations=10,
                            selection="sample", seed=seed, epoch_cap=8, stop_tol=1e-4),
        metric=MetricSpec(target="alpha-ndcg", report=("alpha-ndcg", "nsdcg"), alpha=0.5),
        feedback="embed-rocchio",
        folds=5,
        seed=seed,
        out_dir=out_dir,
    )


def sanity_config(out_dir: str = "runs/sanity", seed: int = 0, folds: int = 5) -> RunConfig:
    """One-shot ranking profile on the desk corpus and net of
    :func:`default_config` (no feedback, 1 iteration)."""
    base = default_config(out_dir, seed)
    return dataclasses.replace(
        base,
        policy=dataclasses.replace(base.policy, iterations=1, epoch_cap=40, stop_tol=0.0),
        metric=MetricSpec(target="ndcg", report=("ndcg@5",)),
        feedback="no-feedback",
        folds=folds,
    )


def trend_config(out_dir: str = "runs/trend", seed: int = 0) -> RunConfig:
    """Multi-subtopic profile where feedback matters: relevant documents are
    scarce and hidden facets are confusable with decoy clusters, so judged
    feedback is what steers later iterations."""
    return RunConfig(
        dataset=DatasetSpec(kind="synthetic", num_topics=12, docs_per_topic=200,
                            subtopics_per_topic=6, dim=32, decoy_clusters=True,
                            frac_high=0.06, frac_mid=0.06),
        net=NetConfig(layers=3, input_dim=64, hidden_dims=(32, 32, 32),
                      dense_dims=(16, 8), window=5, dropout=0.0,
                      learning_rate=0.3, output="sigmoid", input_scale=11.3),
        policy=PolicyConfig(epsilon=0.5, docs_per_iteration=5, iterations=10,
                            selection="sample", seed=seed, epoch_cap=20, stop_tol=0.0),
        metric=MetricSpec(target="alpha-ndcg", report=("alpha-ndcg",), alpha=0.5),
        feedback="embed-rocchio",
        folds=2,
        seed=seed,
        out_dir=out_dir,
    )


def sweep_config(out_dir: str = "runs/sweep", seed: int = 0) -> RunConfig:
    """Layer-sweep profile: the one-shot task at a reduced fold count."""
    return sanity_config(out_dir=out_dir, seed=seed, folds=2)


# --- Trivial baselines ----------------------------------------------------

def evaluate_baseline(
    dataset: Dataset,
    topics: Sequence[str],
    method: str,
    metric_name: str,
    spec: MetricSpec,
    k: int,
    seed: int = 0,
) -> list[float]:
    """Per-topic values of one report metric for a one-shot top-``k``
    ranking by a trivial baseline: 'random' or 'cosine'."""
    picks = {"random": random_pick(seed), "cosine": cosine_pick}
    if method not in picks:
        raise ValueError(f"unknown baseline {method!r}")
    result = evaluate_session(picks[method], dataset, None,
                              PolicyConfig(iterations=1, docs_per_iteration=k),
                              dataclasses.replace(spec, report=(metric_name,)), topics)
    by_topic = result.values[(metric_name, 1)]
    return [by_topic[t] for t in topics]
