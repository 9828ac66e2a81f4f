"""Command line entry point.

    dynrank <command> [--config <path>] [overrides]

Commands: train, evaluate, ablate, sweep-layers, metrics. Without --config,
``ablate`` runs ``harness.trend_config``, ``sweep-layers`` runs
``harness.sweep_config`` and the others ``harness.default_config``.
Exit codes: 0 success, 2 config or usage error, 3 data error, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from dynrank import harness
from dynrank.data import DataError
from dynrank.harness import ConfigError, RunConfig


def _apply_overrides(config: RunConfig, opts: dict) -> RunConfig:
    net = config.net
    policy = config.policy
    rocchio = config.rocchio
    metric = config.metric
    if opts["layers"] is not None:
        net = harness.with_layers(net, opts["layers"])
    if opts["window"] is not None:
        net = dataclasses.replace(net, window=opts["window"])
    if opts["epsilon0"] is not None:
        policy = dataclasses.replace(policy, epsilon=opts["epsilon0"])
    if opts["docs_per_iter"] is not None:
        policy = dataclasses.replace(policy, docs_per_iteration=opts["docs_per_iter"])
    if opts["iterations"] is not None:
        policy = dataclasses.replace(policy, iterations=opts["iterations"])
    rocchio = dataclasses.replace(
        rocchio, **{k: opts[k] for k in ("gamma", "b", "c") if opts[k] is not None})
    if opts["alpha"] is not None:
        metric = dataclasses.replace(metric, alpha=opts["alpha"])
    if opts["metric"] is not None:
        # normalized targets: every profile's head is a sigmoid
        target = {"alpha-ndcg": "alpha-ndcg", "ndcg": "ndcg", "nsdcg": "ndcg"}[opts["metric"]]
        metric = dataclasses.replace(metric, report=(opts["metric"],), target=target)
    replacements = {"net": net, "policy": policy, "rocchio": rocchio, "metric": metric}
    if opts["seed"] is not None:
        replacements["seed"] = opts["seed"]
    if opts["folds"] is not None:
        replacements["folds"] = opts["folds"]
    if opts["out"] is not None:
        replacements["out_dir"] = opts["out"]
    return dataclasses.replace(config, **replacements)


# the built-in profile each command runs without --config
_PROFILES = {"ablate": harness.trend_config, "sweep-layers": harness.sweep_config}

_COMMANDS = {
    "train": "Train one value network per fold and write checkpoints.",
    "evaluate": "Evaluate fold checkpoints; writes the per-iteration metric table.",
    "ablate": "Train and evaluate each feedback variant the corpus supports, all else fixed.",
    "sweep-layers": "Repeat training across stack depths and compare final metrics.",
    "metrics": "Score an existing run file offline.",
}


def _parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: "--it" is not "--iterations"
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", dest="config_path", metavar="PATH",
                        help="JSON run config; defaults to the command's built-in profile.")
    for flag in ("--seed", "--folds", "--layers"):
        common.add_argument(flag, type=int)
    for flag in ("--epsilon0", "--alpha", "--gamma", "--b", "--c"):
        common.add_argument(flag, type=float)
    for flag in ("--window", "--docs-per-iter", "--iterations"):
        common.add_argument(flag, type=int)
    common.add_argument("--metric", choices=["alpha-ndcg", "ndcg", "nsdcg"])
    common.add_argument("--out", metavar="DIR")
    parser = argparse.ArgumentParser(prog="dynrank", allow_abbrev=False,
                                     description="Dynamic-search ranking experiments.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, doc in _COMMANDS.items():
        sub = commands.add_parser(name, parents=[common], allow_abbrev=False,
                                  help=doc, description=doc)
        if name == "metrics":
            sub.add_argument("--run", dest="run_path", metavar="PATH",
                             help="Run file to score; defaults to <out_dir>/run.jsonl.")
    return parser


def main(argv: list[str] | None = None) -> None:
    opts = vars(_parser().parse_args(argv))
    command, config_path = opts.pop("command"), opts.pop("config_path")
    run_path = opts.pop("run_path", None)
    try:
        if config_path:
            config = harness.load_config(config_path)
        else:
            config = _PROFILES.get(command, harness.default_config)()
        try:
            config = _apply_overrides(config, opts)
        except ValueError as exc:  # an out-of-range override
            raise ConfigError(str(exc)) from None
        report = harness.run(config, command, run_path=run_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        sys.exit(3)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        sys.exit(4)
    print(f"{command}: report written to {config.out_dir}")
    for name, rows in sorted(report.tables.items()):
        if name in ("evaluation", "sweep", "ablation"):
            print(f"[{name}]")
            for row in rows:
                print("  " + ", ".join(str(c) for c in row))
    for note in report.notes:
        print(f"note: {note}")


if __name__ == "__main__":
    main()
