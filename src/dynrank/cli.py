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
import sys

from dynrank import harness, valuenet
from dynrank.data import DataError
from dynrank.harness import ConfigError, RunConfig


# normalized targets: every profile's head is a sigmoid
_TARGETS = {"alpha-ndcg": "alpha-ndcg", "ndcg": "ndcg", "nsdcg": "ndcg"}

# every override flag, in --help order: the config field it sets and its add_argument keywords
_OVERRIDES = {
    "--seed": ("seed", {"type": int}),
    "--folds": ("folds", {"type": int}),
    "--layers": ("net.layers", {"type": int}),  # ahead of the other net flags: it rebuilds the net
    "--epsilon0": ("policy.epsilon", {"type": float}),
    "--alpha": ("metric.alpha", {"type": float}),
    "--gamma": ("rocchio.gamma", {"type": float}),
    "--b": ("rocchio.b", {"type": float}),
    "--c": ("rocchio.c", {"type": float}),
    "--window": ("net.window", {"type": int}),
    "--docs-per-iter": ("policy.docs_per_iteration", {"type": int}),
    "--iterations": ("policy.iterations", {"type": int}),
    "--metric": ("metric.report", {"choices": _TARGETS}),  # and metric.target
    "--out": ("out_dir", {"metavar": "DIR"}),
}


def _apply_overrides(config: RunConfig, opts: dict) -> RunConfig:
    """``config`` with the overrides written into its JSON form and read back like a config file."""
    d = valuenet.config_to_dict(config)
    for flag, (field, _) in _OVERRIDES.items():
        value = opts[flag[2:].replace("-", "_")]
        if value is None:
            continue
        if flag == "--layers":  # every layer as wide as the first
            d["net"] = valuenet.config_to_dict(harness.with_layers(config.net, value))
        elif flag == "--metric":
            d["metric"]["target"], value = _TARGETS[value], [value]
        section, _, key = field.rpartition(".")
        (d[section] if section else d)[key] = value
    return harness.config_from_dict(d)


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
    for flag, (_, kwargs) in _OVERRIDES.items():
        common.add_argument(flag, **kwargs)
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
        except ValueError as exc:  # harness.with_layers at an out-of-range --layers
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
