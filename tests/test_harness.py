import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dynrank import fileio, harness, valuenet
from dynrank.cli import main
from dynrank.data import DataError, gen_synthetic
from dynrank.harness import (
    ConfigError,
    DatasetSpec,
    RunConfig,
    RunReport,
    config_from_dict,
    default_config,
    emit_report,
    evaluate_baseline,
    evaluate_run,
    load_config,
    load_dataset,
    make_feedback,
    metrics_run,
    report_to_dict,
    run,
    sanity_config,
    sweep_config,
    train_run,
    trend_config,
)
from dynrank.embedspace import cosine, embed_text
from dynrank.feedback import EmbedRocchioFeedback, RocchioParams
from dynrank.metrics import MetricSpec, RankedList, report_value
from dynrank.policy import PolicyConfig, cosine_pick, evaluate_session, random_pick, run_session
from dynrank.valuenet import NetConfig, config_to_dict


def invoke(capsys, args) -> tuple[int, str]:
    """Run the CLI in-process; returns its exit code and its stdout + stderr."""
    try:
        main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def tiny_config(out_dir, **kw) -> RunConfig:
    defaults = dict(
        dataset=DatasetSpec(kind="synthetic", num_topics=4, docs_per_topic=10,
                            subtopics_per_topic=2, dim=6),
        net=NetConfig(layers=1, input_dim=12, hidden_dims=(6,), dense_dims=(4,),
                      window=3, dropout=0.0, learning_rate=0.1, output="sigmoid"),
        policy=PolicyConfig(epsilon=0.3, docs_per_iteration=2, iterations=2,
                            selection="sample", epoch_cap=2, stop_tol=0.0),
        metric=MetricSpec(target="ndcg", report=("alpha-ndcg", "ndcg@5")),
        folds=2,
        seed=0,
        out_dir=str(out_dir),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestConfig:
    def test_round_trip(self, tmp_path):
        """The CLI writes its overrides into this JSON form and reads it back."""
        for make in (tiny_config, default_config, sanity_config, trend_config, sweep_config):
            config = make(str(tmp_path / "o"))
            assert config_from_dict(config_to_dict(config)) == config, make.__name__

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"nope": 1})

    def test_json_values_take_their_fields_types(self):
        config = config_from_dict({"rocchio": {"b": 1}, "dataset": {"topics_path": None},
                                   "net": {"hidden_dims": None, "dense_dims": [4, 2]},
                                   "metric": {"report": ["ndcg", "nsdcg"]}})
        assert config.rocchio.b == 1 and config.dataset.topics_path is None
        assert config.net.dense_dims == (4, 2) and config.metric.report == ("ndcg", "nsdcg")

    def test_bad_nested_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"policy": {"epsilon": 2.0}})

    def test_non_finite_value_from_python_rejected(self, tmp_path):
        """A Python caller's config never passes through the JSON reader;
        RunConfig still refuses its NaN and infinite floats."""
        net = dataclasses.replace(tiny_config(tmp_path).net, learning_rate=math.nan)
        with pytest.raises(ConfigError, match="net.learning_rate must be finite, got nan"):
            tiny_config(tmp_path, net=net)

    def test_load_config_file(self, tmp_path):
        config = tiny_config(tmp_path / "o")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert load_config(path) == config

    def test_load_config_malformed(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_dataset_spec_validation(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            DatasetSpec(kind="trec_dd")
        for kind in ("nope", "letor"):  # every corpus is embedded: no LETOR feature files
            with pytest.raises(ConfigError, match=f"unknown dataset kind '{kind}'"):
                DatasetSpec(kind=kind)
        cfg_path = tmp_path / "c.json"
        config = config_to_dict(tiny_config(tmp_path / "out"))
        cfg_path.write_text(json.dumps({**config, "dataset": {**config["dataset"], "letor_path": "x.txt"}}))
        code, output = invoke(capsys, ["train", "--config", str(cfg_path)])
        assert code == 2, output
        assert output.startswith("config error: unknown config key dataset.letor_path"), output

    def test_dim_consistency_checked(self, tmp_path):
        config = tiny_config(tmp_path, net=NetConfig(layers=1, input_dim=99, hidden_dims=(6,),
                                                     dense_dims=(4,), window=3, dropout=0.0))
        with pytest.raises(ConfigError) as info:
            train_run(config)
        assert str(info.value) == "net.input_dim=99 but the dataset needs 12 (twice its dim 6)"


class TestReportSerialization:
    def test_round_trip_equality(self, tmp_path):
        report = RunReport(
            command="evaluate",
            config={"seed": 0},
            folds=[{"fold": 0, "test_topics": ["t0"]}],
            tables={"evaluation": [[1, "ndcg", 0.5, 0.1]]},
            notes=["n"],
            wall_time=1.23,
        )
        emit_report(report, tmp_path)
        d = json.loads((tmp_path / "report.json").read_text())
        assert d == report_to_dict(report)
        back = RunReport(**{k: v for k, v in d.items() if k != "schema"})
        assert back == report  # wall_time excluded from comparison
        assert back.wall_time is None

    def test_emit_csv_and_json(self, tmp_path):
        report = RunReport(
            command="evaluate", config={},
            tables={"evaluation": [(1, "ndcg", 0.25, 0.0), (2, "ndcg", 0.5, 0.1)]},
        )
        files = emit_report(report, tmp_path)
        names = {f.name for f in files}
        assert names == {"report.json", "evaluation.csv"}
        lines = (tmp_path / "evaluation.csv").read_text().splitlines()
        assert lines[0] == "iteration,metric_name,mean,stddev"
        assert len(lines) == 3

    def test_csv_cells_of_numpy_floats_are_plain_numbers(self, tmp_path):
        report = RunReport(command="evaluate", config={},
                           tables={"evaluation": [(1, "ndcg", np.float64(0.1), 0.25)]})
        emit_report(report, tmp_path)
        assert (tmp_path / "evaluation.csv").read_text().splitlines()[1] == "1,ndcg,0.1,0.25"

    def test_wall_time_lands_in_sidecar(self, tmp_path):
        report = RunReport(command="train", config={}, wall_time=2.0)
        emit_report(report, tmp_path)
        assert json.loads((tmp_path / "timing.json").read_text())["wall_time_seconds"] == 2.0
        assert "wall_time" not in (tmp_path / "report.json").read_text()


class _TornFile:
    """A file whose writes fail, as on a full disk, once ``budget``
    characters have gone through: the failing write is left half done."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.fixture
def tear_writes_to(monkeypatch):
    """Make every atomic write of files named ``name`` fail part-way through."""

    def arm(name, budget=5):
        def torn_open(path, mode, **kw):
            fh = open(path, mode, **kw)
            return _TornFile(fh, budget) if Path(path).name.startswith(f".{name}.") else fh

        monkeypatch.setattr(fileio, "open", torn_open, raising=False)

    return arm


THEMES = [
    "polar ice glacier arctic shelf melt",
    "ebola virus outbreak vaccine clinic fever",
    "bitcoin ledger mining wallet exchange block",
    "volcano lava eruption magma ash crater",
    "election ballot vote poll candidate district",
    "reef coral bleaching ocean fish algae",
]
COMMON = "report news study data review update".split()


def write_text_corpus(root: Path) -> dict:
    """A 6-topic TREC-DD corpus with query and document text, six documents
    per topic and two subtopics; returns its ``dataset`` config section."""
    topics, docs, qrels = [], [], []
    for ti, theme in enumerate(THEMES):
        words = theme.split()
        topic = f"T{ti}"
        topics.append({"topic_id": topic, "query": " ".join(words[:2])})
        for j in range(6):
            doc = f"{topic}-d{j}"
            text = [words[j], words[(j + 2) % 6], words[(j + 2) % 6], COMMON[(ti + j) % 6], COMMON[j]]
            docs.append({"doc_id": doc, "text": " ".join(text)})
            if j % 3 != 2:
                qrels.append(f"{topic}\ts{j % 2}\t{doc}\t{1 + j % 2}\n")
    for name, rows in (("topics.jsonl", topics), ("docs.jsonl", docs)):
        (root / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
    (root / "qrels.tsv").write_text("".join(qrels))
    return {"kind": "trec_dd", "topics_path": str(root / "topics.jsonl"),
            "qrels_path": str(root / "qrels.tsv"), "docs_path": str(root / "docs.jsonl"), "dim": 16}


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestAtomicWrites:
    @pytest.mark.parametrize("name", ["report.json", "evaluation.csv", "timing.json"])
    def test_failed_report_write_keeps_previous_file(self, tmp_path, tear_writes_to, name):
        old = RunReport(command="evaluate", config={"seed": 0},
                        tables={"evaluation": [(1, "ndcg", 0.25, 0.0)]}, wall_time=1.0)
        emit_report(old, tmp_path)
        before = tree_bytes(tmp_path)
        new = RunReport(command="evaluate", config={"seed": 1},
                        tables={"evaluation": [(1, "ndcg", 0.5, 0.1), (2, "ndcg", 0.75, 0.0)]},
                        wall_time=2.0)
        tear_writes_to(name)
        with pytest.raises(OSError):
            emit_report(new, tmp_path)
        after = tree_bytes(tmp_path)
        assert set(after) == set(before)  # no temporary file left behind
        assert after[name] == before[name]

    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, tear_writes_to):
        net = NetConfig(layers=1, input_dim=3, hidden_dims=(2,), dense_dims=(2,), dropout=0.0)
        path = tmp_path / "fold0.ckpt"
        valuenet.save(valuenet.init_glorot(net, 0), path)
        before = tree_bytes(tmp_path)
        tear_writes_to("fold0.ckpt", budget=40)
        with pytest.raises(OSError):
            valuenet.save(valuenet.init_glorot(net, 1), path)
        assert tree_bytes(tmp_path) == before

    def test_failed_runfile_write_keeps_previous_file(self, tmp_path, tear_writes_to):
        config = tiny_config(tmp_path)
        train_run(config)
        evaluate_run(config)
        before = tree_bytes(tmp_path)
        tear_writes_to("run.jsonl", budget=100)
        with pytest.raises(OSError):
            evaluate_run(config)
        assert tree_bytes(tmp_path) == before


class TestTrainEvaluate:
    def test_train_writes_checkpoints_and_logs(self, tmp_path):
        config = tiny_config(tmp_path)
        report = train_run(config)
        assert (tmp_path / "checkpoints" / "fold0.ckpt").exists()
        assert (tmp_path / "checkpoints" / "fold1.ckpt").exists()
        log = (tmp_path / "train_fold0.csv").read_text().splitlines()
        assert log[0] == "epoch,mean_loss,epsilon"
        assert len(log) == 3
        assert len(report.folds) == 2

    def test_evaluate_requires_checkpoints(self, tmp_path):
        config = tiny_config(tmp_path)
        with pytest.raises(DataError, match="checkpoint"):
            evaluate_run(config)

    def test_evaluate_table_shape(self, tmp_path):
        config = tiny_config(tmp_path)
        train_run(config)
        report = evaluate_run(config)
        rows = report.tables["evaluation"]
        iterations = {r[0] for r in rows}
        names = {r[1] for r in rows}
        assert iterations == {1, 2}
        assert names == {"alpha-ndcg", "ndcg@5"}
        for _, _, mean, std in rows:
            assert 0.0 <= mean <= 1.0 and std >= 0.0

    def test_per_fold_rows_cover_folds_iterations_metrics(self, tmp_path):
        config = tiny_config(tmp_path)
        train_run(config)
        report = evaluate_run(config)
        by_fold = report.tables["evaluation_by_fold"]
        n_metrics = len(config.metric.report)
        assert len(by_fold) == config.folds * config.policy.iterations * n_metrics
        assert all("evaluation" in f for f in report.folds)
        emit_report(report, config.out_dir)
        lines = (tmp_path / "evaluation_by_fold.csv").read_text().splitlines()
        assert lines[0] == "fold,iteration,metric_name,mean,stddev"
        assert len(lines) - 1 == len(by_fold)

    def test_offline_metrics_match_evaluate(self, tmp_path):
        config = tiny_config(tmp_path)
        train_run(config)
        eval_report = evaluate_run(config)
        emit_report(eval_report, config.out_dir)
        offline = metrics_run(config, Path(config.out_dir) / "run.jsonl")
        assert offline.tables["evaluation"] == eval_report.tables["evaluation"]

    def test_offline_metrics_keep_iterations_after_pool_runs_out(self, tmp_path):
        # 3-document pools and 4 iterations of 2 picks: blocks 3 and 4 are
        # empty, so the run file stops at iteration 2
        base = tiny_config(tmp_path)
        config = dataclasses.replace(
            base,
            dataset=dataclasses.replace(base.dataset, docs_per_topic=3),
            policy=dataclasses.replace(base.policy, iterations=4),
        )
        train_run(config)
        eval_report = evaluate_run(config)
        runfile = Path(config.out_dir) / "run.jsonl"
        assert max(json.loads(l)["iteration"] for l in runfile.read_text().splitlines()) == 2
        offline = metrics_run(config, runfile)
        assert {r[0] for r in eval_report.tables["evaluation"]} == {1, 2, 3, 4}
        assert offline.tables["evaluation"] == eval_report.tables["evaluation"]

    @pytest.mark.parametrize("rows, line, message", [
        ([(1, ["d1", "d2"]), (2, ["d3", "d1"])], 2, "document 'd1' repeated"),
        ([(1, ["d1", "d1"])], 1, "document 'd1' repeated"),
        ([(0, ["d1"])], 1, "iteration must be an integer >= 1, got 0"),
        ([(2, ["d1"]), (-1, ["d2"])], 2, "iteration must be an integer >= 1, got -1"),
        ([(1.5, ["d1"])], 1, "iteration must be an integer >= 1, got 1.5"),
        ([(1, ["d1"]), (1, ["d2"])], 2, "iteration 1 repeated"),
        ([(1, [])], 1, "doc_ids must be a non-empty list of strings"),
        ([(1, "d1")], 1, "doc_ids must be a non-empty list of strings"),
        ([(1, [["d1"]])], 1, "doc_ids must be a non-empty list of strings"),
    ], ids=["across-iterations", "within-block", "iteration-0", "negative-iteration",
            "fractional-iteration", "repeated-iteration", "empty-block", "string-block", "nested-block"])
    def test_bad_run_rows_rejected_with_line(self, tmp_path, rows, line, message):
        runfile = tmp_path / "run.jsonl"
        runfile.write_text("".join(json.dumps({"topic_id": "t000", "iteration": it, "doc_ids": docs}) + "\n"
                                   for it, docs in rows))
        with pytest.raises(DataError) as info:
            metrics_run(tiny_config(tmp_path), runfile)
        assert str(info.value) == f"{runfile}: line {line}: topic 't000': {message}"

    def test_run_dispatch_writes_reports(self, tmp_path):
        config = tiny_config(tmp_path)
        report = run(config, "train")
        assert report.wall_time is not None
        assert (tmp_path / "report.json").exists()
        run(config, "evaluate")
        assert (tmp_path / "evaluation.csv").exists()
        assert (tmp_path / "run.jsonl").exists()

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run(tiny_config(tmp_path), "explode")

    def test_checkpoint_config_mismatch_rejected(self, tmp_path, capsys):
        trained = tiny_config(tmp_path / "out", net=dataclasses.replace(tiny_config(tmp_path).net, window=5))
        train_run(trained)
        other = dataclasses.replace(trained, net=dataclasses.replace(trained.net, window=3))
        ckpt = tmp_path / "out" / "checkpoints" / "fold0.ckpt"
        with pytest.raises(ConfigError, match=r"fold0\.ckpt.*window 5 \(run config: 3\)") as info:
            evaluate_run(other)
        assert str(ckpt) in str(info.value)
        assert "input_dim" not in str(info.value)  # only the differing fields
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(trained)))
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path), "--window", "3"])
        assert code == 2
        assert "window" in output


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        import shutil

        out = tmp_path / "out"
        config = tiny_config(out)

        def snapshot():
            run(config, "train")
            run(config, "evaluate")
            tree = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "timing.json"
            }
            shutil.rmtree(out)
            return tree

        first = snapshot()
        second = snapshot()
        assert first.keys() == second.keys()
        for key in first:
            assert first[key] == second[key], f"{key} differs between runs"

    def test_config_echo_reproduces_run(self, tmp_path):
        """The echo is the config minus ``out_dir``: with the out dir given
        back it rebuilds the run's config."""
        config = tiny_config(tmp_path)
        report = train_run(config)
        assert "out_dir" not in report.config
        assert config_from_dict({**report.config, "out_dir": config.out_dir}) == config

    def test_same_config_same_bytes_in_two_directories(self, tmp_path):
        """Where a run writes does not change what it writes."""
        trees = []
        for name in ("a", "much-longer-directory-name"):
            config = tiny_config(tmp_path / name)
            run(config, "train")
            run(config, "evaluate")
            trees.append({k: v for k, v in tree_bytes(tmp_path / name).items()
                          if Path(k).name != "timing.json"})
        assert "report.json" in trees[0] and "checkpoints/fold1.ckpt" in trees[0]
        assert trees[0] == trees[1]


class TestAblate:
    def test_vector_corpus_runs_the_two_variants_it_supports(self, tmp_path):
        config = tiny_config(tmp_path)
        report = run(config, "ablate")
        assert sorted(k for k in report.tables if k.startswith("evaluation:")) == [
            "evaluation:embed-rocchio", "evaluation:no-feedback"]
        assert sorted(p.name for p in (tmp_path / "ablate").iterdir()) == ["embed-rocchio", "no-feedback"]
        for variant in ("embed-rocchio", "no-feedback"):
            assert (tmp_path / "ablate" / variant / "evaluation.csv").exists()
        summary = (tmp_path / "ablation_summary.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in summary} == {"embed-rocchio", "no-feedback"}

    def test_vector_corpus_notes_term_fallback(self, tmp_path):
        """On a vector-only corpus the term-space variants fall away: no arm
        is written for them, and the report, in memory and on disk, notes
        what the corpus lacks."""
        config = tiny_config(tmp_path)
        report = run(config, "ablate")
        note = ("variants classic-rocchio, nqe were not run: they need document "
                "and query text, which the corpus lacks")
        assert report.notes == [note]
        assert json.loads((tmp_path / "report.json").read_text())["notes"] == [note]
        assert not any((tmp_path / "ablate" / v).exists() for v in ("classic-rocchio", "nqe"))

    def test_variants_differ_only_in_feedback(self, tmp_path):
        config = tiny_config(tmp_path)
        report = run(config, "ablate")
        echoes = []
        for variant in ("embed-rocchio", "no-feedback"):
            sub = json.loads((tmp_path / "ablate" / variant / "report.json").read_text())
            echoes.append(sub["config"])
        diff_keys = {
            k for k in echoes[0]
            if echoes[0][k] != echoes[1][k]
        }
        assert diff_keys == {"feedback"}

    def test_each_arm_is_its_own_run(self, tmp_path, monkeypatch):
        """Every arm trains once, and its files are the bytes a run of its
        own writes elsewhere."""
        trained = []
        real = harness.train_run
        monkeypatch.setattr(harness, "train_run", lambda c, d=None: trained.append(c.feedback) or real(c, d))
        config = tiny_config(tmp_path / "grid")
        run(config, "ablate")
        assert trained == ["embed-rocchio", "no-feedback"]
        monkeypatch.undo()
        alone = dataclasses.replace(config, feedback="no-feedback", out_dir=str(tmp_path / "alone"))
        train_run(alone)
        emit_report(evaluate_run(alone), alone.out_dir)
        assert tree_bytes(tmp_path / "grid" / "ablate" / "no-feedback") == tree_bytes(tmp_path / "alone")

    def test_term_space_arms_reformulate_on_a_text_corpus(self, tmp_path):
        """On a corpus with document and query text every arm trains, and
        classic Rocchio and NQE change the ranking; two string hash seeds
        give the same files."""
        config = {
            "dataset": write_text_corpus(tmp_path),
            "net": {"layers": 1, "input_dim": 32, "hidden_dims": [8], "dense_dims": [4], "window": 3,
                    "dropout": 0.0, "learning_rate": 0.1, "output": "sigmoid", "input_scale": 4.0},
            "policy": {"docs_per_iteration": 2, "iterations": 3, "epoch_cap": 2},
            "metric": {"target": "alpha-ndcg", "report": ["alpha-ndcg"]},
            "folds": 2,
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        src = str(Path(__file__).resolve().parents[1] / "src")
        trees = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-m", "dynrank.cli", "ablate", "--config", str(cfg_path)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert "note:" not in done.stdout  # a text corpus skips no variant
            trees.append({k: v for k, v in tree_bytes(tmp_path / "out").items() if Path(k).name != "timing.json"})
            (tmp_path / "out").rename(tmp_path / f"out{seed}")
        assert trees[0] == trees[1]
        runs = {v: trees[0][f"ablate/{v}/run.jsonl"] for v in harness.ABLATION_VARIANTS}
        assert runs["classic-rocchio"] != runs["no-feedback"]
        assert runs["nqe"] != runs["no-feedback"]


class TestSweep:
    def test_sweep_table(self, tmp_path):
        config = tiny_config(tmp_path, metric=MetricSpec(target="ndcg", report=("ndcg@5",)))
        report = run(config, "sweep-layers")
        rows = report.tables["sweep"]
        assert [r[0] for r in rows] == [1, 2, 3, 4]
        assert all(r[1] == "ndcg@5" for r in rows)
        assert (tmp_path / "sweep_layers.csv").exists()

    def test_report_keeps_arm_notes(self, tmp_path):
        """The sweep's report and every arm's report carry the same notes,
        none, since each arm runs the variant it was given."""
        config = tiny_config(tmp_path)
        report = run(config, "sweep-layers")
        assert report.notes == []
        assert json.loads((tmp_path / "report.json").read_text())["notes"] == []
        for n in (1, 2, 3, 4):
            arm = json.loads((tmp_path / "sweep" / f"J{n}" / "report.json").read_text())
            assert arm["notes"] == report.notes


def corpus_config(tmp_path, corpus: str) -> RunConfig:
    """A runnable config on one kind of corpus: "synthetic", "tsv" (TREC-DD
    with precomputed vectors, no text) or "text" (TREC-DD with document and
    query text)."""
    if corpus == "synthetic":
        return tiny_config(tmp_path / "out")
    spec = write_text_corpus(tmp_path)
    if corpus == "tsv":
        texts = [json.loads(line) for line in Path(spec["docs_path"]).read_text().splitlines()]
        vectors = tmp_path / "docs.tsv"
        vectors.write_text("#dim=16\n" + "".join(
            row["doc_id"] + "".join(f"\t{float(x)!r}" for x in embed_text(row["text"], 16)) + "\n" for row in texts))
        spec["docs_path"] = str(vectors)
    return config_from_dict({**config_to_dict(tiny_config(tmp_path / "out")), "dataset": spec,
                             "net": {**config_to_dict(tiny_config(tmp_path).net), "input_dim": 32}})


class TestFeedbackVariants:
    @pytest.mark.parametrize("corpus, variants", [
        ("synthetic", ["embed-rocchio", "no-feedback"]),
        ("tsv", ["embed-rocchio", "no-feedback"]),
        ("text", ["embed-rocchio", "classic-rocchio", "nqe", "no-feedback"]),
    ], ids=["synthetic", "tsv", "text"])
    def test_variants_per_corpus(self, tmp_path, corpus, variants):
        config = corpus_config(tmp_path, corpus)
        ds = load_dataset(config.dataset, config.seed)
        assert list(harness.feedback_variants(ds)) == variants
        for v in variants:
            fn = make_feedback(dataclasses.replace(config, feedback=v), ds)
            assert (fn is None) == (v == "no-feedback")

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep-layers"])
    @pytest.mark.parametrize("corpus, variant", [("synthetic", "classic-rocchio"), ("tsv", "nqe")],
                             ids=["synthetic-classic-rocchio", "tsv-nqe"])
    def test_unsupported_variant_exits_2(self, tmp_path, capsys, command, corpus, variant):
        """A variant the corpus cannot run is a config error that names it
        and what the corpus lacks, and nothing is written."""
        config = dataclasses.replace(corpus_config(tmp_path, corpus), feedback=variant)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        code, output = invoke(capsys, [command, "--config", str(cfg_path)])
        assert code == 2, output
        assert output.startswith(f"config error: feedback {variant!r} needs document and query text, "
                                 "which the corpus lacks; it supports "), output
        assert not Path(config.out_dir).exists()


def reference_baseline(dataset, topic, method, k, seed=0) -> list[str]:
    """The top ``k`` of a one-shot baseline, by the sort the baselines used
    before they ran as session picks: the reference the picks must match."""
    vectors = dataset.docs[topic]
    pool = sorted(vectors)
    if method == "random":
        topic_key = int.from_bytes(hashlib.blake2b(topic.encode("utf-8"), digest_size=4).digest(), "little")
        rng = np.random.default_rng([seed, topic_key])
        order = [pool[i] for i in rng.permutation(len(pool))]
    else:
        q = dataset.query_vectors[topic]
        order = sorted(pool, key=lambda d: (-cosine(vectors[d], q), d))
    return order[:k]


def baseline_lists(dataset, pick, k, feedback_fn=None, iterations=1) -> dict[str, list[str]]:
    """Each topic's list from sessions ranked by ``pick``."""
    config = PolicyConfig(iterations=iterations, docs_per_iteration=k)
    ranked = evaluate_session(pick, dataset, feedback_fn, config)
    return {t: r.doc_ids for t, r in ranked.items()}


class TestBaselines:
    def test_random_deterministic(self):
        ds = gen_synthetic(3, 12, 2, 8, seed=0)
        a = baseline_lists(ds, random_pick(1), 5)["t000"]
        b = baseline_lists(ds, random_pick(1), 5)["t000"]
        assert a == b

    def test_cosine_orders_by_similarity(self):
        ds = gen_synthetic(1, 20, 1, 8, seed=0)
        ranked = baseline_lists(ds, cosine_pick, 20)["t000"]
        q = ds.query_vectors["t000"]
        sims = [cosine(ds.docs["t000"][d], q) for d in ranked]
        assert all(a >= b - 1e-12 for a, b in zip(sims, sims[1:]))

    def test_evaluate_baseline_values(self):
        ds = gen_synthetic(3, 12, 2, 8, seed=0)
        vals = evaluate_baseline(ds, ds.topic_ids(), "cosine", "ndcg@5",
                                 MetricSpec(), k=5, seed=0)
        assert len(vals) == 3
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("k", [1, 5, 12, 30])  # 30 is above the pool size
    def test_picks_match_reference(self, seed, k):
        ds = gen_synthetic(4, 12, 2, 8, seed=seed)
        pool = ds.docs["t001"]
        tied = sorted(pool)
        pool[tied[5]] = pool[tied[9]].copy()  # an exact cosine tie
        for method, pick in (("random", random_pick(seed)), ("cosine", cosine_pick)):
            want = {t: reference_baseline(ds, t, method, k, seed) for t in ds.topic_ids()}
            assert baseline_lists(ds, pick, k) == want, method

    @pytest.mark.parametrize("method", ["random", "cosine"])
    def test_evaluate_baseline_matches_reference(self, method):
        ds = gen_synthetic(4, 12, 2, 8, seed=3)
        spec = MetricSpec(report=("alpha-ndcg",))
        topics = ["t002", "t000", "t003"]  # values come back in this order
        for k in (3, 5, 20):
            want = []
            for t in topics:
                top = reference_baseline(ds, t, method, k, seed=2)
                want.append(report_value(ds.judgments, t, RankedList(t, top, [len(top)]), "ndcg@5",
                                         spec, k_per_iteration=k))
            assert evaluate_baseline(ds, topics, method, "ndcg@5", spec, k=k, seed=2) == want

    def test_unknown_baseline_rejected(self):
        ds = gen_synthetic(1, 5, 1, 4, seed=0)
        with pytest.raises(ValueError, match="unknown baseline"):
            evaluate_baseline(ds, ["t000"], "bm25", "ndcg@5", MetricSpec(), k=5)

    @pytest.mark.parametrize("method", ["random", "cosine"])
    def test_sessions_with_rocchio_feedback(self, method):
        ds = gen_synthetic(3, 30, 2, 8, seed=0)
        fb = EmbedRocchioFeedback(RocchioParams())
        pick = random_pick(4) if method == "random" else cosine_pick
        config = PolicyConfig(iterations=3, docs_per_iteration=4)
        for topic in ds.topic_ids():
            queries = [ds.query_vectors[topic]]  # each iteration's query

            def recording(state, record):
                queries.append(fb(state, record))
                return queries[-1]

            run_session(ds, topic, recording, config, pick)
            assert not np.array_equal(queries[0], queries[1])
            assert not np.array_equal(queries[1], queries[2])
        lists = baseline_lists(ds, pick, 4, fb, iterations=3)
        for topic, docs in lists.items():
            assert len(docs) == 12 and len(set(docs)) == 12
        if method == "random":  # the query does not steer a random ranker
            assert lists == baseline_lists(ds, pick, 12)


class TestCli:
    def test_train_then_evaluate(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        code, output = invoke(capsys, ["train", "--config", str(cfg_path)])
        assert code == 0, output
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 0, output
        assert "iteration" not in output or output  # table printed
        assert (tmp_path / "out" / "evaluation.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"policy": {"epsilon": 5.0}}))
        code, _ = invoke(capsys, ["train", "--config", str(bad)])
        assert code == 2

    def test_data_error_exit_code(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        code, _ = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3  # no checkpoints yet

    @pytest.mark.parametrize("folds, message", [(1, "folds must be >= 2"), (5, "exceeds the dataset's 4")])
    def test_untrainable_fold_count_exits_2(self, tmp_path, capsys, folds, message):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(tiny_config(tmp_path / "out"))))
        for command in ("train", "evaluate"):
            code, output = invoke(capsys, [command, "--config", str(cfg_path), "--folds", str(folds)])
            assert code == 2, output
            assert message in output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grade", ["nan", "inf"])
    def test_non_finite_qrels_grade_exits_3(self, tmp_path, capsys, grade):
        (tmp_path / "topics.jsonl").write_text(json.dumps({"topic_id": "t1", "query": "ice"}) + "\n")
        (tmp_path / "docs.jsonl").write_text(json.dumps({"doc_id": "d1", "text": "ice sheet"}) + "\n")
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text(f"t1\ts1\td1\t1\nt1\ts2\td1\t{grade}\n")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"dataset": {
            "kind": "trec_dd", "topics_path": str(tmp_path / "topics.jsonl"),
            "qrels_path": str(qrels), "docs_path": str(tmp_path / "docs.jsonl")}}))
        code, output = invoke(capsys, ["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 3, output
        assert f"{qrels}: line 2: non-finite grade" in output

    @pytest.mark.parametrize("flag, value, message", [
        ("--layers", "0", "layers must be >= 1, got 0"),
        ("--window", "0", "window must be >= 1, got 0"),
        ("--epsilon0", "2", "epsilon must be in [0, 1], got 2.0"),
        ("--alpha", "1.5", "alpha must be in [0, 1), got 1.5"),
        ("--gamma", "0", "gamma must be in (0, 1], got 0.0"),
        ("--iterations", "0", "iterations must be >= 1, got 0"),
        ("--docs-per-iter", "0", "docs_per_iteration must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--c", "nan", "rocchio.c must be finite, got nan"),
        ("--b", "inf", "rocchio.b must be finite, got inf"),
    ])
    def test_out_of_range_override_exits_2(self, tmp_path, monkeypatch, capsys, flag, value, message):
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("bad override ran"))
        code, output = invoke(capsys, ["train", "--out", str(tmp_path / "out"), flag, value])
        assert code == 2, output
        assert output.startswith("config error: ") and message in output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("5", "c.json: expected a JSON object at the top level, got int"),
        ("null", "c.json: expected a JSON object at the top level, got NoneType"),
        ('{"dataset": {"num_topics": 0}}', "dataset.num_topics must be >= 1, got 0"),
        ('{"dataset": {"docs_per_topic": 0}}', "dataset.docs_per_topic must be >= 1, got 0"),
        ('{"dataset": {"subtopics_per_topic": -1}}', "dataset.subtopics_per_topic must be >= 1, got -1"),
        ('{"dataset": {"dim": 0}}', "dataset.dim must be >= 1, got 0"),
        ('{"dataset": {"frac_high": 0.6, "frac_mid": 0.5}}',
         "dataset.frac_high and dataset.frac_mid must be >= 0 and sum to at most 1, got 0.6 and 0.5"),
        ('{"dataset": {"frac_mid": -0.1}}', "dataset.frac_high and dataset.frac_mid must be >= 0"),
        ('{"policy": {"decay_period": 0}}', "error: decay_period must be >= 1, got 0"),
        ('{"dataset": {"kind": "trec_dd", "topics_path": "t", "qrels_path": "q", "docs_path": "d", '
         '"dim": 0}}', "dataset.dim must be >= 1, got 0"),
        ('{"dataset": {"num_topics": "4"}}', "dataset.num_topics: expected an integer, got str"),
        ('{"folds": "2"}', "folds: expected an integer, got str"),
        ('{"folds": true}', "folds: expected an integer, got bool"),
        ('{"seed": null}', "seed: expected an integer, got null"),
        ('{"net": {"hidden_dims": 5}}', "net.hidden_dims: expected a list, got int"),
        ('{"net": {"dropout": "0.5"}}', "net.dropout: expected a number, got str"),
        ('{"policy": {"epochs": 3}}', "unknown config key policy.epochs"),
        ('{"metric": {"report": "ndcg"}}', "metric.report: expected a list, got str"),
        ('{"metric": {"report": ["ndcg", 5]}}', "metric.report[1]: expected a string, got int"),
        ('{"rocchio": null}', "rocchio: expected an object, got null"),
        ('{"metric": {"report": ["ndcg@x"]}}', "report metric 'ndcg@x': the cutoff must be an integer >= 1"),
        ('{"metric": {"report": ["ndcg@0"]}}', "report metric 'ndcg@0': the cutoff must be an integer >= 1"),
        ('{"metric": {"report": ["ndcg@"]}}', "report metric 'ndcg@': the cutoff must be an integer >= 1"),
        ('{"metric": {"report": ["alpha-ndcg@-2"]}}',
         "report metric 'alpha-ndcg@-2': the cutoff must be an integer >= 1"),
        ('{"metric": {"report": ["nsdcg@3"]}}', "report metric 'nsdcg@3': nsdcg takes no cutoff"),
        ('{"metric": {"report": []}}', "metric.report must name at least one metric"),
        ('{"policy": {"seed": 0}}', "unknown config key policy.seed"),
        ('{"seed": -1}', "seed must be >= 0, got -1"),
        ('{"dataset": {"dim": 1}}', "dataset.dim must be >= 2 for a synthetic corpus, got 1"),
        ('{"metric": {"bq": NaN, "report": ["nsdcg"]}}', "metric.bq must be finite, got nan"),
        ('{"net": {"learning_rate": NaN}}', "net.learning_rate must be finite, got nan"),
        ('{"rocchio": {"b": Infinity}}', "rocchio.b must be finite, got inf"),
        ('{"net": {"input_scale": Infinity}}', "net.input_scale must be finite, got inf"),
        ('{"dataset": {"frac_high": NaN}}', "dataset.frac_high must be finite, got nan"),
    ], ids=["int", "null", "num_topics", "docs_per_topic", "subtopics", "dim", "frac_sum",
            "frac_negative", "decay_period", "trec_dd_dim", "type_num_topics", "type_folds",
            "type_bool", "type_null", "type_hidden_dims", "type_dropout", "unknown_nested_key",
            "type_report", "type_report_item", "type_section", "cutoff_text", "cutoff_0",
            "cutoff_empty", "cutoff_negative", "cutoff_nsdcg", "report_empty", "policy_seed",
            "seed_negative", "synthetic_dim_1", "nan_bq", "nan_learning_rate", "inf_rocchio_b",
            "inf_input_scale", "nan_frac_high"])
    def test_bad_config_file_exits_2(self, tmp_path, monkeypatch, capsys, text, message):
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("bad config ran"))
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        code, output = invoke(capsys, ["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2, output
        assert output.startswith("config error: ") and message in output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keep, message", [
        (4, "truncated checkpoint: missing header"),
        (12, "truncated checkpoint: incomplete header"),
        (-8, "parameter payload has"),
    ])
    def test_broken_checkpoint_exits_3_with_path(self, tmp_path, capsys, keep, message):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        ckpt = tmp_path / "out" / "checkpoints" / "fold1.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3, output
        assert f"data error: {ckpt}: {message}" in output
        assert not (tmp_path / "out" / "evaluation.csv").exists()
        assert not (tmp_path / "out" / "run.jsonl").exists()

    def test_non_finite_checkpoint_exits_3_with_path(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        ckpt = tmp_path / "out" / "checkpoints" / "fold1.ckpt"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:-8] + np.array([np.nan], dtype="<f8").tobytes())
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3, output
        n = valuenet.param_count(config.net)
        assert f"data error: {ckpt}: 1 of {n} parameters are not finite" in output
        assert not (tmp_path / "out" / "evaluation.csv").exists()
        assert not (tmp_path / "out" / "run.jsonl").exists()

    def test_evaluate_on_another_split_exits_2(self, tmp_path, capsys):
        """``train`` records each fold's test topics beside the checkpoints.
        Evaluating with other folds or another seed would test fold networks
        on their own training topics: a config error naming the record and
        the first fold that differs, and nothing is written."""
        out = tmp_path / "out"
        six = DatasetSpec(kind="synthetic", num_topics=6, docs_per_topic=10, subtopics_per_topic=2, dim=6)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(tiny_config(out, dataset=six))))
        cfg = ["--config", str(cfg_path)]
        code, output = invoke(capsys, ["train", *cfg, "--folds", "3"])
        assert code == 0, output
        record = out / "checkpoints" / "split.json"
        tests = [fold["test_topics"] for fold in json.loads((out / "report.json").read_text())["folds"]]
        assert record.read_text() == json.dumps({"test_topics": tests}, sort_keys=True) + "\n"
        before = tree_bytes(out)
        for args in (["--folds", "2"], ["--folds", "3", "--seed", "1"]):
            code, output = invoke(capsys, ["evaluate", *cfg, *args])
            assert code == 2, output
            assert output.startswith(f"config error: {record}: fold 0 was trained with test topics "
                                     f"{tests[0]}, but this run tests it on ")
            assert tree_bytes(out) == before
        record.write_text("{")
        code, output = invoke(capsys, ["evaluate", *cfg, "--folds", "3"])
        assert code == 3 and output.startswith(f"data error: {record}: "), output
        assert tree_bytes(out) == {**before, "checkpoints/split.json": b"{"}
        record.unlink()  # checkpoints without a record are evaluated as they are
        code, output = invoke(capsys, ["evaluate", *cfg, "--folds", "3"])
        assert code == 0, output

    @pytest.mark.parametrize("which", ["topics", "docs"])
    @pytest.mark.parametrize("row", ["5", "null"])
    def test_jsonl_row_not_an_object_exits_3(self, tmp_path, capsys, which, row):
        topics, docs = tmp_path / "topics.jsonl", tmp_path / "docs.jsonl"
        topics.write_text(json.dumps({"topic_id": "A", "query": "ice"}) + "\n")
        docs.write_text(json.dumps({"doc_id": "d1", "text": "ice sheet"}) + "\n")
        bad = topics if which == "topics" else docs
        bad.write_text(bad.read_text() + row + "\n")
        (tmp_path / "qrels.tsv").write_text("A\ts1\td1\t1\n")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"dataset": {
            "kind": "trec_dd", "topics_path": str(topics),
            "qrels_path": str(tmp_path / "qrels.tsv"), "docs_path": str(docs)}}))
        code, output = invoke(capsys, ["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 3, output
        assert f"data error: {bad}: line 2: expected a JSON object" in output
        assert not (tmp_path / "out").exists()

    def test_bad_run_file_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(tiny_config(tmp_path / "out"))))
        runfile = tmp_path / "run.jsonl"
        runfile.write_text('{"topic_id": "t000", "iteration": 1, "doc_ids": ["d1"]}\n'
                           '{"topic_id": "t000", "iteration": 2, "doc_ids": ["d1"]}\n')
        code, output = invoke(capsys, ["metrics", "--config", str(cfg_path), "--run", str(runfile)])
        assert code == 3, output
        assert f"{runfile}: line 2: topic 't000': document 'd1' repeated" in output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["run-missing", "run-directory", "topics-missing",
                                      "docs-not-utf8", "qrels-not-utf8", "config-not-utf8"])
    def test_unreadable_input_exits_with_its_code(self, tmp_path, capsys, case):
        """A config file that cannot be read is a config error (exit 2); a
        dataset or run file that cannot be read is a data error (exit 3).
        Each names the file, and nothing is written."""
        corpus = write_text_corpus(tmp_path)
        config = config_to_dict(tiny_config(tmp_path / "out"))
        args = ["train"]
        if case.startswith("run-"):
            bad = tmp_path / "run.jsonl"
            if case == "run-directory":
                bad.mkdir()
            args = ["metrics", "--run", str(bad)]
        else:
            config["dataset"] = corpus
            bad = {"topics": tmp_path / "missing.jsonl", "docs": tmp_path / "docs.jsonl",
                   "qrels": tmp_path / "qrels.tsv", "config": tmp_path / "c.json"}[case.split("-")[0]]
            if case == "topics-missing":
                config["dataset"]["topics_path"] = str(bad)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        if case.endswith("not-utf8"):
            bad.write_bytes(bad.read_bytes() + b"\xff\xfe\n")
        code, output = invoke(capsys, [*args, "--config", str(cfg_path)])
        kind, want = ("config error", 2) if case == "config-not-utf8" else ("data error", 3)
        assert code == want, output
        assert output.startswith(f"{kind}: {bad}: "), output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["fold1.ckpt", "split.json"])
    def test_checkpoint_or_record_that_is_a_directory_exits_3(self, tmp_path, capsys, which):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        bad = tmp_path / "out" / "checkpoints" / which
        bad.unlink()
        bad.mkdir()
        before = tree_bytes(tmp_path / "out")
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3, output
        assert output.startswith(f"data error: {bad}: "), output
        assert tree_bytes(tmp_path / "out") == before

    @pytest.mark.parametrize("topics, message", [
        (5, "test_topics: expected a list, got int"),
        (None, "test_topics: expected a list, got null"),
        ("ab", "test_topics: expected a list, got str"),
        ([5, 6], "test_topics[0]: expected a list, got int"),
    ], ids=["int", "null", "string", "flat-list"])
    def test_split_record_of_wrong_shape_exits_3(self, tmp_path, capsys, topics, message):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        record = tmp_path / "out" / "checkpoints" / "split.json"
        record.write_text(json.dumps({"test_topics": topics}))
        before = tree_bytes(tmp_path / "out")
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3, output
        assert output.startswith(f"data error: {record}: {message}"), output
        assert tree_bytes(tmp_path / "out") == before

    def test_checkpoint_header_of_wrong_json_type_exits_3(self, tmp_path, capsys, rewrite_header):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        ckpts = [tmp_path / "out" / "checkpoints" / f"fold{i}.ckpt" for i in range(config.folds)]
        for ckpt in ckpts:
            rewrite_header(ckpt, "config.window", float(config.net.window))
        before = tree_bytes(tmp_path / "out")
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3, output
        assert output.startswith(f"data error: {ckpts[0]}: invalid header: "
                                 "config.window: expected an integer, got float"), output
        assert tree_bytes(tmp_path / "out") == before

    @pytest.mark.parametrize("field, value, message", [
        ("config.learning_rate", math.nan, "config.learning_rate must be finite, got nan"),
        ("config.input_scale", math.inf, "config.input_scale must be finite, got inf"),
    ], ids=["nan_learning_rate", "inf_input_scale"])
    def test_checkpoint_header_with_non_finite_float_exits_3(self, tmp_path, capsys, rewrite_header,
                                                              field, value, message):
        """A NaN or infinite header float is a data error naming the field,
        not a net-config mismatch (exit 2)."""
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        ckpt = tmp_path / "out" / "checkpoints" / "fold0.ckpt"
        rewrite_header(ckpt, field, value)
        before = tree_bytes(tmp_path / "out")
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3, output
        assert output.startswith(f"data error: {ckpt}: invalid header: {message}"), output
        assert tree_bytes(tmp_path / "out") == before

    @pytest.mark.parametrize("stop", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_stopped_train_leaves_no_fold_checkpoints(self, tmp_path, monkeypatch, capsys, stop):
        """A ``train --folds 3`` that stops while saving fold 1, over a
        finished 2-fold run: evaluating with the 2-fold config must not
        test the 3-fold fold-0 network on topics it trained on."""
        out = tmp_path / "out"
        six = DatasetSpec(kind="synthetic", num_topics=6, docs_per_topic=10, subtopics_per_topic=2, dim=6)
        config = tiny_config(out, dataset=six)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        real_save = valuenet.save

        def save(params, path):
            if Path(path).name == "fold1.ckpt":
                raise stop
            real_save(params, path)

        monkeypatch.setattr(valuenet, "save", save)
        with pytest.raises(type(stop)):
            train_run(dataclasses.replace(config, folds=3))
        monkeypatch.undo()
        assert not list((out / "checkpoints").iterdir())
        before = tree_bytes(out)
        code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 3, output
        assert output.startswith(f"data error: missing checkpoint {out / 'checkpoints' / 'fold0.ckpt'}")
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("iterations, missing, later", [
        ((1, 3), 2, 3), ((2,), 1, 2), ((4, 1), 2, 4),
    ])
    def test_run_file_with_missing_iteration_exits_3(self, tmp_path, capsys, iterations, missing, later):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(tiny_config(tmp_path / "out"))))
        runfile = tmp_path / "run.jsonl"
        runfile.write_text("".join(json.dumps({"topic_id": "t000", "iteration": it, "doc_ids": [f"d{it}"]})
                                   + "\n" for it in iterations))
        code, output = invoke(capsys, ["metrics", "--config", str(cfg_path), "--run", str(runfile)])
        assert code == 3, output
        assert (f"data error: {runfile}: topic 't000': iteration {missing} has no rows, "
                f"but iteration {later} has") in output
        assert not (tmp_path / "out").exists()

    def test_unjudged_trec_topic_exits_3_before_training(self, tmp_path, capsys):
        topics = tmp_path / "topics.jsonl"
        topics.write_text(json.dumps({"topic_id": "A", "query": "ice"}) + "\n"
                          + json.dumps({"topic_id": "C", "query": "ebola"}) + "\n")
        (tmp_path / "docs.jsonl").write_text(json.dumps({"doc_id": "d1", "text": "ice sheet"}) + "\n")
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("A\ts1\td1\t1\n")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"dataset": {
            "kind": "trec_dd", "topics_path": str(topics),
            "qrels_path": str(qrels), "docs_path": str(tmp_path / "docs.jsonl")}, "folds": 2}))
        code, output = invoke(capsys, ["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 3, output
        assert f"{topics}: line 2: topic 'C' has no judgments" in output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["train", "--metric", "dcg"],  # not a --metric choice
        ["train", "--bogus"],  # unknown flag
        ["train", "--it", "3"],  # abbreviations are not accepted
    ], ids=["bad-metric", "unknown-flag", "abbreviation"])
    def test_usage_error_exits_2(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("usage error ran"))
        with pytest.raises(SystemExit) as info:
            main(args + ["--out", str(tmp_path)])
        assert info.value.code == 2
        assert args[1] in capsys.readouterr().err

    def test_overrides_apply(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        out2 = tmp_path / "other"
        code, output = invoke(capsys, [
            "train", "--config", str(cfg_path), "--out", str(out2), "--seed", "3",
        ])
        assert code == 0, output
        assert (out2 / "checkpoints" / "fold1.ckpt").exists()
        assert not (tmp_path / "out").exists()  # the report sits in --out, not the config's out_dir
        echo = json.loads((out2 / "report.json").read_text())["config"]
        assert echo["seed"] == 3
        assert "out_dir" not in echo

    @pytest.mark.parametrize("command, profile", [
        ("ablate", trend_config), ("sweep-layers", sweep_config), ("train", default_config),
    ])
    def test_default_profile_per_command(self, tmp_path, monkeypatch, command, profile, capsys):
        seen = []

        def fake_run(config, command, run_path=None):
            seen.append(config)
            return RunReport(command=command, config={})

        monkeypatch.setattr(harness, "run", fake_run)
        code, output = invoke(capsys, [command, "--out", str(tmp_path)])
        assert code == 0, output
        assert seen == [profile(out_dir=str(tmp_path))]

    def test_every_override_flag_at_once(self, tmp_path, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(harness, "run", lambda config, command, run_path=None:
                            seen.append(config) or RunReport(command=command, config={}))
        code, output = invoke(capsys, [
            "train", "--layers", "1", "--window", "2", "--epsilon0", "0.3", "--alpha", "0.4",
            "--gamma", "0.8", "--b", "0.5", "--c", "0.1", "--docs-per-iter", "3", "--iterations", "3",
            "--metric", "nsdcg", "--folds", "2", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0, output
        base = default_config()
        assert seen == [dataclasses.replace(
            base,
            net=dataclasses.replace(base.net, layers=1, hidden_dims=base.net.hidden_dims[:1], window=2),
            policy=dataclasses.replace(base.policy, epsilon=0.3, docs_per_iteration=3, iterations=3),
            rocchio=RocchioParams(gamma=0.8, b=0.5, c=0.1),
            metric=dataclasses.replace(base.metric, alpha=0.4, report=("nsdcg",), target="ndcg"),
            folds=2, seed=1, out_dir=str(tmp_path),
        )]

    def test_metric_override_sets_target(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        code, output = invoke(capsys, [
            "train", "--config", str(cfg_path), "--metric", "alpha-ndcg",
        ])
        assert code == 0, output
        echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert echo["metric"]["report"] == ["alpha-ndcg"]
        assert echo["metric"]["target"] == "alpha-ndcg"

    @pytest.mark.parametrize("metric, target", [
        ("alpha-ndcg", "alpha-ndcg"), ("ndcg", "ndcg"), ("nsdcg", "ndcg"),
    ])
    def test_metric_override_maps_to_normalized_target(self, tmp_path, monkeypatch, metric, target, capsys):
        seen = []
        monkeypatch.setattr(harness, "run", lambda config, command, run_path=None:
                            seen.append(config) or RunReport(command=command, config={}))
        code, output = invoke(capsys, ["train", "--out", str(tmp_path), "--metric", metric])
        assert code == 0, output
        assert seen[0].metric.report == (metric,) and seen[0].metric.target == target

    def test_seed_override_sets_run_seed(self, tmp_path, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(harness, "run", lambda config, command, run_path=None:
                            seen.append(config) or RunReport(command=command, config={}))
        code, output = invoke(capsys, ["ablate", "--out", str(tmp_path), "--seed", "3"])
        assert code == 0, output
        assert seen[0].seed == 3

    @pytest.mark.parametrize("target", ["dcg", "alpha-dcg"])
    def test_sigmoid_head_with_unnormalized_target_exits_2(self, tmp_path, target, capsys):
        d = config_to_dict(tiny_config(tmp_path / "out"))
        assert d["net"]["output"] == "sigmoid"
        d["metric"]["target"] = target
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(d))
        code, output = invoke(capsys, ["train", "--config", str(cfg_path)])
        assert code == 2
        assert "sigmoid" in output and target in output
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, metric=MetricSpec(target=target))


def nan_query_dataset(config):
    """The config's synthetic dataset with NaN queries: the first gradient
    step makes theta non-finite, and argmax selection keeps training going."""
    ds = load_dataset(config.dataset, config.seed)
    for q in ds.query_vectors.values():
        q[:] = np.nan
    return ds


class TestNonFiniteTraining:
    def config(self, tmp_path):
        return tiny_config(tmp_path / "out", policy=PolicyConfig(
            epsilon=0.0, docs_per_iteration=2, iterations=2, selection="argmax",
            epoch_cap=2, stop_tol=0.0))

    def test_no_checkpoint_written(self, tmp_path):
        config = self.config(tmp_path)
        with pytest.raises(RuntimeError, match="fold 0: training diverged at epoch 1"):
            train_run(config, nan_query_dataset(config))
        assert not list((tmp_path / "out" / "checkpoints").iterdir())

    def test_sample_selection_names_fold_and_epoch(self, tmp_path):
        # NaN scores reach select_action's sampling before any train forward
        config = tiny_config(tmp_path / "out")
        assert config.policy.selection == "sample"
        with pytest.raises(RuntimeError, match="fold 0: training diverged at epoch 1"):
            train_run(config, nan_query_dataset(config))
        assert not list((tmp_path / "out" / "checkpoints").iterdir())

    def test_overflowing_linear_head(self, tmp_path):
        # |value| passes 1e154 within a few steps, so (value - target)**2
        # would overflow a Python float; the divergence error is the only
        # report, with no numpy warning from the float32 scoring before it
        config = tiny_config(
            tmp_path / "out",
            net=dataclasses.replace(tiny_config(tmp_path).net, output="linear", learning_rate=1e250),
            metric=MetricSpec(target="dcg", report=("ndcg@5",)),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match=r"fold 0: training diverged at epoch \d+"):
                train_run(config)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not list((tmp_path / "out" / "checkpoints").iterdir())

    def test_evaluate_on_weights_past_float32_exits_4(self, tmp_path, capsys):
        # finite float64 weights the checkpoint loader accepts, but their
        # float32 copies are infinite: scoring yields no finite best score
        config = self.config(tmp_path)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        assert invoke(capsys, ["train", "--config", str(cfg_path)])[0] == 0
        ckpt = tmp_path / "out" / "checkpoints" / "fold0.ckpt"
        params = valuenet.load(ckpt)
        params.theta *= 1e40
        valuenet.save(params, ckpt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, output = invoke(capsys, ["evaluate", "--config", str(cfg_path)])
        assert code == 4, output
        assert "runtime failure: non-finite candidate scores" in output
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_cli_exits_4(self, tmp_path, monkeypatch, capsys):
        from dynrank import harness

        config = self.config(tmp_path)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config_to_dict(config)))
        monkeypatch.setattr(harness, "load_dataset", lambda spec, seed: nan_query_dataset(config))
        code, output = invoke(capsys, ["train", "--config", str(cfg_path)])
        assert code == 4
        assert "fold 0" in output and "epoch 1" in output
        assert not list((tmp_path / "out" / "checkpoints").iterdir())


def test_runs_hold_few_copies_of_the_weights(tmp_path):
    """Peak traced memory of train_run and evaluate_run, in units of one
    copy of theta: training holds the weights and the run-owned gradient,
    evaluation one fold's weights."""
    import tracemalloc

    config = tiny_config(
        tmp_path / "out",
        dataset=DatasetSpec(kind="synthetic", num_topics=4, docs_per_topic=20,
                            subtopics_per_topic=2, dim=64),
        net=NetConfig(layers=3, input_dim=128, hidden_dims=(256, 256, 256), dense_dims=(16,),
                      window=3, dropout=0.0, learning_rate=0.01, output="sigmoid",
                      input_scale=8.0),
        policy=PolicyConfig(epsilon=0.5, docs_per_iteration=2, iterations=2,
                            selection="sample", epoch_cap=1, stop_tol=0.0),
        metric=MetricSpec(target="ndcg", report=("ndcg",)),
        feedback="no-feedback",
    )
    dataset = load_dataset(config.dataset, config.seed)
    copy_bytes = 8 * valuenet.param_count(config.net)
    assert copy_bytes > 11_000_000  # ~1.45M parameters: theta dwarfs everything else
    peaks = []
    tracemalloc.start()
    try:
        for fn in (train_run, evaluate_run):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(config, dataset)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / copy_bytes)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 2.5, f"train_run peaked at {peaks[0]:.2f} copies of theta"
    assert peaks[1] <= 1.5, f"evaluate_run peaked at {peaks[1]:.2f} copies of theta"


def test_package_does_not_import_scipy():
    """Neither scipy nor click (no longer dependencies) is imported by any
    dynrank module, the CLI included."""
    import dynrank

    code = (
        "import pkgutil, sys, dynrank\n"
        "for m in pkgutil.iter_modules(dynrank.__path__):\n"
        "    __import__('dynrank.' + m.name)\n"
        "assert 'dynrank.cli' in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click')))\n"
    )
    src = str(Path(dynrank.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
