"""Command line entry point.

    dynrank <command> [--config <path>] [overrides]

Commands: train, evaluate, ablate, sweep-layers, metrics. Without --config,
``ablate`` runs ``harness.trend_config``, ``sweep-layers`` runs
``harness.sweep_config`` and the others ``harness.default_config``.
Exit codes: 0 success, 2 config error, 3 data error, 4 runtime failure.
"""

from __future__ import annotations

import dataclasses
import sys

import click

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
    if opts["seed"] is not None:  # both seeds, as the profiles set them
        replacements["seed"] = opts["seed"]
        replacements["policy"] = dataclasses.replace(policy, seed=opts["seed"])
    if opts["folds"] is not None:
        replacements["folds"] = opts["folds"]
    if opts["out"] is not None:
        replacements["out_dir"] = opts["out"]
    return dataclasses.replace(config, **replacements)


# the built-in profile each command runs without --config
_PROFILES = {"ablate": harness.trend_config, "sweep-layers": harness.sweep_config}


def _common_options(fn):
    opts = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON run config; defaults to the command's built-in profile."),
        click.option("--seed", type=int, default=None),
        click.option("--folds", type=int, default=None),
        click.option("--layers", type=int, default=None),
        click.option("--epsilon0", type=float, default=None),
        click.option("--alpha", type=float, default=None),
        click.option("--gamma", type=float, default=None),
        click.option("--b", type=float, default=None),
        click.option("--c", type=float, default=None),
        click.option("--window", type=int, default=None),
        click.option("--docs-per-iter", type=int, default=None),
        click.option("--iterations", type=int, default=None),
        click.option("--metric", type=click.Choice(["alpha-ndcg", "ndcg", "nsdcg"]), default=None),
        click.option("--out", type=click.Path(), default=None),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _run(command: str, config_path, run_path=None, **opts):
    try:
        if config_path:
            config = harness.load_config(config_path)
        else:
            config = _PROFILES.get(command, harness.default_config)()
        config = _apply_overrides(config, opts)
        report = harness.run(config, command, run_path=run_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(3)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"runtime failure: {exc}", err=True)
        sys.exit(4)
    click.echo(f"{command}: report written to {config.out_dir}")
    for name, rows in sorted(report.tables.items()):
        if name in ("evaluation", "sweep", "ablation"):
            click.echo(f"[{name}]")
            for row in rows:
                click.echo("  " + ", ".join(str(c) for c in row))
    for note in report.notes:
        click.echo(f"note: {note}")
    return report


@click.group()
def main():
    """Dynamic-search ranking experiments."""


@main.command()
@_common_options
def train(config_path, **opts):
    """Train one value network per fold and write checkpoints."""
    _run("train", config_path, **opts)


@main.command()
@_common_options
def evaluate(config_path, **opts):
    """Evaluate fold checkpoints; writes the per-iteration metric table."""
    _run("evaluate", config_path, **opts)


@main.command()
@_common_options
def ablate(config_path, **opts):
    """Train and evaluate every feedback variant, all else fixed."""
    _run("ablate", config_path, **opts)


@main.command(name="sweep-layers")
@_common_options
def sweep_layers(config_path, **opts):
    """Repeat training across stack depths and compare final metrics."""
    _run("sweep-layers", config_path, **opts)


@main.command()
@click.option("--run", "run_path", type=click.Path(), default=None,
              help="Run file to score; defaults to <out_dir>/run.jsonl.")
@_common_options
def metrics(config_path, run_path, **opts):
    """Score an existing run file offline."""
    _run("metrics", config_path, run_path=run_path, **opts)


if __name__ == "__main__":
    main()
