"""dynrank benchmark: train/eval throughput of full search sessions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dynrank source tree. Each repeat of the workload
runs in a fresh single-threaded process (``perfbench/workload.py``) with
BLAS pinned to one thread; repeats follow one another until ``--seconds``
have passed (at least ``MIN_REPEATS``). Every repeat's outputs are
checked; the metrics are medians over the repeats. With ``--trace 1`` the
repeats alternate untraced and traced, and the per-layer metrics and the
tracing overhead are reported instead of the end-to-end metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The environment, every repeat's samples and the spans of traced repeats
are written under ``.perfbench/`` in the source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WORKLOADS = ("trend-session", "oneshot-wide", "eval-deep")
MIN_REPEATS = 3
HARD_LIMIT_S = 170  # a run must end within 180 s, even if a repeat hangs

# Printed and recorded with every result but not bounded metrics, so not in
# BENCHMARK.json: error_rate is 0 on a correct program (the JSON line carries
# it as failed/attempted), and quality depends on the seed far more than any
# bound allows (see perfbench/README.md). name -> (unit, better)
UNBOUNDED = {
    "error_rate": ("fraction", "lower"),
    "quality": ("metric", "higher"),
}


def source_root() -> Path:
    """The dynrank tree the benchmark measures: the parent of perfbench/."""
    return HERE.parent


def git_state(root: Path) -> dict:
    """Commit and dirty flag when the tree is a git checkout, else nulls."""
    state = {"sha": None, "dirty": None}
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return state
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return state
    state["sha"] = sha.stdout.strip() or None
    state["dirty"] = bool(status.stdout.strip())
    return state


def run_repeat(args, index: int, traced: bool, work: Path, timeout: float) -> dict:
    """Start one workload process, wait for it, return its result."""
    out = work / "out"
    if out.exists():
        shutil.rmtree(out)
    result = work / f"repeat{index:02d}.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--result", str(result)]
    if traced:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    cmd += ["--start", repr(start)]
    try:
        proc = subprocess.run(cmd, cwd=source_root(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"repeat killed after {timeout:.0f} s"], "traced": traced}
    try:
        res = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        res = {"errors": [f"no result from the workload process: {exc}", proc.stderr[-2000:]]}
    if proc.returncode != 0 and not res.get("errors"):
        res.setdefault("errors", []).append(f"exit code {proc.returncode}")
    res["traced"] = traced
    return res


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """Every end-to-end figure the workload processes measure."""
    return {
        "setup_s": median_of(samples, "setup_s"),
        "train_steps_per_s": statistics.median(s["train_steps"] / s["train_s"] for s in samples),
        "eval_picks_per_s": statistics.median(s["eval_picks"] / s["eval_s"] for s in samples),
        "wall_s": median_of(samples, "wall_s"),
        "peak_rss_mb": median_of(samples, "peak_rss_mb"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal workload size, for checking the benchmark itself")
    args = ap.parse_args(argv)

    root = source_root()
    if not (root / "src" / "dynrank" / "__init__.py").is_file():
        print(f"error: no dynrank source tree at {root / 'src' / 'dynrank'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in THREAD_VARS:
        os.environ[var] = "1"

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = root / ".perfbench" / tag
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    # Start another repeat while it is expected to end within --seconds.
    repeats: list[dict] = []
    durations: list[float] = []
    begin = time.monotonic()
    while time.monotonic() - begin < HARD_LIMIT_S - 1 and (len(repeats) < MIN_REPEATS or (
        time.monotonic() - begin + statistics.median(durations) <= args.seconds
    )):
        traced = bool(args.trace) and len(repeats) % 2 == 1
        t = time.monotonic()
        res = run_repeat(args, len(repeats), traced, work, HARD_LIMIT_S - (t - begin))
        durations.append(time.monotonic() - t)
        repeats.append(res)
        print(f"repeat {len(repeats) - 1} ({'traced' if traced else 'untraced'}): "
              + ("ok" if not res["errors"] else "FAILED: " + "; ".join(res["errors"])), flush=True)
    shutil.rmtree(work / "out", ignore_errors=True)

    # Determinism: every repeat of the same code and seed writes the same
    # bytes, traced or not. Repeats off the majority digest fail.
    digests = Counter(r["digest"] for r in repeats if "digest" in r)
    majority = digests.most_common(1)[0][0] if digests else None
    for r in repeats:
        if "digest" in r and r["digest"] != majority:
            r["errors"].append("output bytes differ from the other repeats")
    if args.trace:
        counts = {json.dumps({k: v for k, v in r["layers"].items() if isinstance(v, int)},
                             sort_keys=True) for r in repeats if "layers" in r}
        if len(counts) > 1:
            for r in repeats:
                if "layers" in r:
                    r["errors"].append("traced counts differ between repeats")

    measured = [r for r in repeats if "wall_s" in r]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict[str, dict] = {}
    errors: list[str] = []
    if args.trace and traced and untraced:
        figures = {"trace.overhead_s": median_of(traced, "wall_s") - median_of(untraced, "wall_s")}
        figures.update((name, statistics.median(r["layers"][name] for r in traced))
                       for name in traced[0]["layers"])
    elif not args.trace and untraced:
        figures = end_to_end(untraced)
    else:
        figures = {}
    for m in listed:
        if m["name"] in figures:
            metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}
        elif figures:
            errors.append(f"{m['name']} is listed in BENCHMARK.json but not measured")

    failed = sum(1 for r in repeats if r["errors"])
    unbounded = {"error_rate": failed / len(repeats)}
    if untraced:
        unbounded["quality"] = median_of(untraced, "quality")

    env = next((r["env"] for r in repeats if "env" in r), {})
    env["git"] = git_state(root)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(repeats)} repeats "
          f"({len(traced)} traced), {failed} failed")
    for e in errors:
        print("error: " + e)
    better = {m["name"]: m["better"] for m in listed}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} ({better[name]} is better)")
    for name, value in unbounded.items():
        unit, direction = UNBOUNDED[name]
        print(f"  {name} = {value:.6g} {unit} ({direction} is better)")

    (root / ".perfbench" / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "unbounded": unbounded, "errors": errors, "repeats": repeats,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    correct = failed == 0 and not errors and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(repeats), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
