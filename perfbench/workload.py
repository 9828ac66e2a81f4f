"""One repeat of a benchmark workload, run in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --out DIR \
        --result FILE --start T [--trace] [--smoke]

``--start`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports,
``harness.load_dataset``, ``split_folds`` and (for ``eval-deep``) writing
the checkpoints: what a user pays on every CLI call. The process then
trains and evaluates through dynrank's public API, checks its outputs and
writes one JSON result to ``--result``. ``perfbench/run.py`` sets the BLAS
thread variables before starting it, so numpy loads single-threaded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Epoch counts: with stop_tol = 0 training always runs to epoch_cap, so the
# number of gradient steps is fixed by the config.
TREND_EPOCHS = 2  # 2 folds x 6 train topics x 10 iterations x 5 docs x 2 = 1200 steps
ONESHOT_EPOCHS = 8  # 2 folds x 10 train topics x 1 iteration x 5 docs x 8 = 800 steps
PROBE_EPOCHS = 8  # eval-deep training probe: 2 folds x 3 x 1 x 5 x 8 = 240 steps


@dataclasses.dataclass(frozen=True)
class Workload:
    config: object  # the harness.RunConfig that harness.evaluate_run evaluates
    train_config: object  # the one harness.train_run trains
    # evaluate_run calls per repeat: one evaluation of trend-session or
    # oneshot-wide lasts 0.35-1 s, too short to time steadily on its own,
    # so it is repeated until it takes about as long as training
    eval_passes: int
    # evaluation only: setup writes untrained checkpoints for `config`, and
    # `train_config` is a training probe that wall_s leaves out
    eval_only: bool = False


def _smoke(config):
    """Minimal size of the same workload shape, for the smoke check."""
    return dataclasses.replace(
        config,
        dataset=dataclasses.replace(config.dataset, num_topics=4, docs_per_topic=30),
        policy=dataclasses.replace(config.policy, iterations=min(config.policy.iterations, 2),
                                   epoch_cap=1),
    )


def build(name: str, seed: int, out_dir: str, smoke: bool) -> Workload:
    """The workload's run config; the seed goes only into the config."""
    from dynrank import harness

    if name == "trend-session":
        cfg = harness.trend_config(out_dir=out_dir, seed=seed)
        cfg = dataclasses.replace(cfg, folds=2, policy=dataclasses.replace(
            cfg.policy, epoch_cap=TREND_EPOCHS, stop_tol=0.0))
        cfg = _smoke(cfg) if smoke else cfg
        return Workload(cfg, cfg, eval_passes=4)
    if name == "oneshot-wide":
        cfg = harness.sweep_config(out_dir=out_dir, seed=seed)
        cfg = dataclasses.replace(cfg, policy=dataclasses.replace(
            cfg.policy, epoch_cap=ONESHOT_EPOCHS, stop_tol=0.0))
        cfg = _smoke(cfg) if smoke else cfg
        return Workload(cfg, cfg, eval_passes=10)
    if name == "eval-deep":
        cfg = harness.trend_config(out_dir=out_dir, seed=seed)
        cfg = dataclasses.replace(
            cfg,
            folds=2,
            dataset=dataclasses.replace(cfg.dataset, num_topics=6, docs_per_topic=1000),
            policy=dataclasses.replace(cfg.policy, iterations=20, stop_tol=0.0),
            metric=dataclasses.replace(cfg.metric, report=("alpha-ndcg", "nsdcg")),
        )
        if smoke:
            cfg = _smoke(cfg)
        probe = dataclasses.replace(
            cfg,
            out_dir=str(Path(out_dir) / "probe"),
            policy=dataclasses.replace(cfg.policy, iterations=1,
                                       epoch_cap=1 if smoke else PROBE_EPOCHS),
        )
        return Workload(cfg, probe, eval_passes=1, eval_only=True)
    raise ValueError(f"unknown workload {name!r}")


def environment() -> dict:
    """Interpreter, numpy/BLAS build and thread settings of this process."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _steps(config, folds) -> int:
    p = config.policy
    return p.epoch_cap * p.iterations * p.docs_per_iteration * sum(len(tr) for tr, _ in folds)


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    return True


def _digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every file the repeat wrote, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _train_checks(report, config, errors: list) -> None:
    for fold in report.folds:
        if fold["epochs"] != config.policy.epoch_cap:
            errors.append(f"fold {fold['fold']} trained {fold['epochs']} epochs, "
                          f"config says {config.policy.epoch_cap}")
    for i in range(config.folds):
        if not (Path(config.out_dir) / f"train_fold{i}.csv").is_file():
            errors.append(f"missing train_fold{i}.csv")


def run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from dynrank import harness, valuenet

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    out = Path(args.out)
    wl = build(args.workload, args.seed, str(out), args.smoke)
    cfg = wl.config
    dataset = harness.load_dataset(cfg.dataset, cfg.seed)
    folds = harness.split_folds(dataset, cfg.folds, cfg.seed)
    if wl.eval_only:
        (out / "checkpoints").mkdir(parents=True, exist_ok=True)
        for i in range(cfg.folds):
            params = valuenet.init_glorot(cfg.net, [cfg.seed, i, 1])
            valuenet.save(params, out / "checkpoints" / f"fold{i}.ckpt")
    ready = time.monotonic()
    res = {"setup_s": ready - args.start}

    errors: list[str] = []
    train_cfg = wl.train_config
    t = time.perf_counter()
    train_rep = harness.train_run(train_cfg, dataset)
    res["train_s"] = time.perf_counter() - t
    res["train_steps"] = _steps(train_cfg, folds)
    _train_checks(train_rep, train_cfg, errors)

    t = time.perf_counter()
    eval_reps = [harness.evaluate_run(cfg, dataset) for _ in range(wl.eval_passes)]
    res["eval_s"] = time.perf_counter() - t
    eval_rep = eval_reps[0]
    if any(harness.report_to_dict(r) != harness.report_to_dict(eval_rep) for r in eval_reps):
        errors.append("evaluation passes of one checkpoint set differ")

    t = time.perf_counter()
    harness.emit_report(eval_rep, out)
    harness.emit_report(train_rep, Path(train_cfg.out_dir) / "train")
    res["emit_s"] = time.perf_counter() - t
    res["wall_s"] = time.monotonic() - args.start - (res["train_s"] if wl.eval_only else 0.0)
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    p = cfg.policy
    expected_picks = p.iterations * p.docs_per_iteration * len(dataset.topic_ids())
    for name in ("report.json", "evaluation.csv", "evaluation_by_fold.csv", "run.jsonl"):
        if not (out / name).is_file():
            errors.append(f"missing {name}")
    picks = 0
    if (out / "run.jsonl").is_file():
        with open(out / "run.jsonl", encoding="utf-8") as fh:
            picks = sum(len(json.loads(line)["doc_ids"]) for line in fh if line.strip())
    if picks != expected_picks:
        errors.append(f"ranked {picks} documents, config implies {expected_picks}")
    res["eval_picks"] = expected_picks * wl.eval_passes

    primary, final_it = cfg.metric.report[0], p.iterations
    quality = [r[2] for r in eval_rep.tables["evaluation"] if r[0] == final_it and r[1] == primary]
    res["quality"] = quality[0] if quality else float("nan")
    for rep, what in ((eval_rep, "evaluation"), (train_rep, "training")):
        if not _finite([rep.folds, rep.tables]):
            errors.append(f"non-finite value in the {what} report")
    if not math.isfinite(res["quality"]):
        errors.append("no finite quality value")
    res["digest"], res["bytes_written"] = _digest(out)

    if tracer is not None:
        from tracing import summarise

        layers = summarise(tracer)
        layers["harness.bytes_written"] = res["bytes_written"]
        steps, picks = res["train_steps"], res["eval_picks"]
        train_sessions = train_cfg.policy.epoch_cap * sum(len(tr) for tr, _ in folds)
        eval_sessions = len(dataset.topic_ids()) * wl.eval_passes
        rounds = 0
        if cfg.feedback == "embed-rocchio":
            rounds = ((train_cfg.policy.iterations - 1) * train_sessions
                      + (p.iterations - 1) * eval_sessions)
        expected = {
            "valuenet.backward.calls": steps,
            "valuenet.apply_update.calls": steps,
            "valuenet.forward.calls": steps,
            "metrics.target_value.calls": steps,
            "valuenet.forward_candidates.calls": steps + picks,
            "policy.score_candidates.calls": steps + picks,
            "policy.new_session.calls": train_sessions + eval_sessions,
            "feedback.simulate_feedback.calls": rounds,
            "feedback.reformulate.calls": rounds,
        }
        for name, want in expected.items():
            if layers[name] != want:
                errors.append(f"traced {name} = {layers[name]}, config implies {want}")
        res["layers"] = layers
        tracer.write(Path(args.result).parent / "spans.jsonl")

    res["errors"] = errors
    res["env"] = environment()
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--start", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        res = run(args)
        code = 0
    except Exception:  # reported to the parent, which counts the repeat as failed
        res = {"errors": [traceback.format_exc()]}
        code = 1
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
