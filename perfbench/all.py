"""Run every benchmark workload, untraced and traced, and check what it emits.

    python3 perfbench/all.py [--seed N] [--smoke]

Runs ``perfbench/run.py`` for each workload with ``--trace 0`` and
``--trace 1``, each for ``run_seconds`` of ``BENCHMARK.json``, and prints
every metric by name, unit and direction. It fails (exit 1) unless every
run is correct and emits exactly the metrics ``BENCHMARK.json`` lists for
its mode.

``--smoke`` is the fast check of the benchmark itself: each workload at
minimal size for about a second, plus a check that ``run.py`` refuses to
run (non-zero exit, no result line) in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

ROOT = run.source_root()


def check_bare_directory() -> list[str]:
    """run.py must exit non-zero without a result when dynrank is absent."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("run.py exited 0 in a directory without the dynrank sources")
    if '"correct"' in proc.stdout:
        errors.append("run.py printed a result in a directory without the dynrank sources")
    return errors


def check_run(spec: dict, workload: str, trace: int, result: dict) -> list[str]:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"] for m in listed}
    got = result["metrics"]
    where = f"{workload} trace {trace}"
    errors = []
    if not result["correct"] or result["failed"]:
        errors.append(f"{where}: not correct ({result['failed']} of {result['attempted']} failed)")
    for name in sorted(want - set(got)):
        errors.append(f"{where}: {name} not emitted")
    for name in sorted(set(got) - want):
        errors.append(f"{where}: {name} emitted but not in BENCHMARK.json")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = 1 if args.smoke else spec["run_seconds"]
    errors: list[str] = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("repeat ")),
                  flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                errors.append(f"{workload} trace {trace}: no result line "
                              f"(exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            errors += check_run(spec, workload, trace, result)
    if args.smoke:
        errors += check_bare_directory()
    for e in errors:
        print("FAIL: " + e)
    print("all checks passed" if not errors else f"{len(errors)} check(s) failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
