"""End-to-end command-line pipeline tests."""

import json
import shutil

import numpy as np
import pytest

from aqplearn import cli, read_workload, synth, write_workload
from aqplearn.encoder import load_encoded, save_encoded
from aqplearn.store import dump_csv, dump_schema


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def make_inputs(root, n_rows=200, targets=None):
    ds = synth.make_transactions_table(n_rows=n_rows)
    dump_csv(ds, root / "data.csv")
    dump_schema(list(ds.schema), root / "schema.json")
    template = {
        "targets": targets or [{"func": "avg", "attr": "sales"}],
        "cont_filter_attrs": ["sales"],
        "nom_filter_attrs": ["region", "category"],
        "n_cont_samples": 4,
        "seed": 42,
    }
    (root / "template.json").write_text(json.dumps(template))


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("pipeline")
    make_inputs(root)
    steps = [
        ("generate", ["generate", "--data", root / "data.csv", "--schema", root / "schema.json",
                      "--template", root / "template.json", "--out", root / "workload.jsonl",
                      "--sql"]),
        ("label", ["label", "--data", root / "data.csv", "--schema", root / "schema.json",
                   "--workload", root / "workload.jsonl", "--out", root / "labeled.jsonl",
                   "--threads", 2]),
        ("encode", ["encode", "--data", root / "data.csv", "--schema", root / "schema.json",
                    "--template", root / "template.json", "--workload", root / "labeled.jsonl",
                    "--out-vocab", root / "vocab.json", "--out-encoded", root / "encoded.npz"]),
        ("train", ["train", "--encoded", root / "encoded.npz", "--vocab", root / "vocab.json",
                   "--out", root / "model.npz", "--lstm-units", 8, "--dense-units", 12,
                   "--max-epochs", 2, "--batch-size", 16]),
        ("predict", ["predict", "--checkpoint", root / "model.npz", "--vocab", root / "vocab.json",
                     "--workload", root / "labeled.jsonl", "--out", root / "preds.jsonl",
                     "--workers", 2]),
        ("eval", ["eval", "--checkpoint", root / "model.npz", "--encoded", root / "encoded.npz",
                  "--vocab", root / "vocab.json", "--data", root / "data.csv",
                  "--schema", root / "schema.json", "--out", root / "eval.json"]),
        ("bench", ["bench", "--checkpoint", root / "model.npz", "--encoded", root / "encoded.npz",
                   "--vocab", root / "vocab.json", "--workers", 2, "--ql-queries", 10,
                   "--out", root / "bench.json"]),
    ]
    for name, argv in steps:
        assert run(*argv) == 0, f"{name} failed"
    return root


class TestPipeline:
    def test_profile(self, pipeline, capsys):
        assert run("profile", "--data", pipeline / "data.csv",
                   "--schema", pipeline / "schema.json") == 0
        out = capsys.readouterr().out
        assert "rows: 200" in out and "sales" in out

    def test_profile_json(self, pipeline, capsys):
        assert run("profile", "--data", pipeline / "data.csv",
                   "--schema", pipeline / "schema.json", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 200
        assert {a["name"] for a in report["attributes"]} == {
            "region", "category", "sales", "discount",
        }

    def test_all_artifacts_exist(self, pipeline):
        for name in ("workload.jsonl", "workload.jsonl.sql", "labeled.jsonl", "vocab.json",
                     "encoded.npz", "model.npz", "model.npz.report.json", "preds.jsonl",
                     "eval.json", "bench.json"):
            assert (pipeline / name).exists(), name

    def test_sql_sidecar_is_valid_sql_text(self, pipeline):
        lines = (pipeline / "workload.jsonl.sql").read_text().splitlines()
        header = json.loads((pipeline / "workload.jsonl").read_text().splitlines()[0])
        assert len(lines) == header["count"]
        assert all(line.startswith("SELECT AVG(sales) FROM data WHERE") for line in lines)

    def test_predictions_preserve_workload_order(self, pipeline):
        workload = (pipeline / "labeled.jsonl").read_text().splitlines()[1:]
        preds = (pipeline / "preds.jsonl").read_text().splitlines()[1:]
        assert len(workload) == len(preds)
        for wline, pline in zip(workload, preds):
            wrec, prec = json.loads(wline), json.loads(pline)
            for key in ("target", "between", "in"):
                assert prec["query"][key] == wrec[key]
            assert isinstance(prec["prediction"], float)

    def test_eval_report_contents(self, pipeline):
        report = json.loads((pipeline / "eval.json").read_text())
        assert report["split"] == "test"
        assert report["n_test"] > 0
        assert report["nrmse_pct"] > 0
        assert report["mean_entropy_bits"] > 0
        assert 0 < report["input_variance"] < 0.25

    def test_bench_report_contents(self, pipeline):
        report = json.loads((pipeline / "bench.json").read_text())
        assert report["ql_mean_ms"] > 0
        assert report["qt_qps"] > 0
        assert report["workers"] == 2

    def test_train_report_sidecar(self, pipeline):
        report = json.loads((pipeline / "model.npz.report.json").read_text())
        assert report["train_report"]["epochs_run"] == 2
        assert report["n_train"] > report["n_test"]

    def test_train_report_times_each_epoch(self, pipeline):
        report = json.loads((pipeline / "model.npz.report.json").read_text())["train_report"]
        assert len(report["epoch_seconds"]) == report["epochs_run"]
        assert all(s > 0 for s in report["epoch_seconds"])

    def test_train_report_records_gradient_norms(self, pipeline):
        report = json.loads((pipeline / "model.npz.report.json").read_text())["train_report"]
        assert len(report["grad_norms"]) == report["epochs_run"]
        assert all(g > 0 for g in report["grad_norms"])


class TestDeterminism:
    def test_generate_twice_is_byte_identical(self, tmp_path):
        make_inputs(tmp_path)
        common = ["generate", "--data", tmp_path / "data.csv", "--schema",
                  tmp_path / "schema.json", "--template", tmp_path / "template.json"]
        assert run(*common, "--out", tmp_path / "a.jsonl") == 0
        assert run(*common, "--out", tmp_path / "b.jsonl") == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_seed_override_changes_the_workload(self, tmp_path):
        make_inputs(tmp_path)
        common = ["generate", "--data", tmp_path / "data.csv", "--schema",
                  tmp_path / "schema.json", "--template", tmp_path / "template.json"]
        assert run(*common, "--out", tmp_path / "a.jsonl") == 0
        assert run(*common, "--out", tmp_path / "b.jsonl", "--seed", 99) == 0
        assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


class TestFailureModes:
    def test_usage_error_is_exit_2(self):
        assert run("generate") == 2  # missing required arguments
        assert run("no-such-command") == 2

    def test_missing_file_is_exit_1_with_json_error(self, tmp_path, capsys):
        code = run("profile", "--data", tmp_path / "nope.csv",
                   "--schema", tmp_path / "nope.json")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "nope" in err["message"]

    def test_truncated_schema_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys):
        text = (pipeline / "schema.json").read_text()
        (tmp_path / "schema.json").write_text(text[: len(text) // 2])
        code = run("profile", "--data", pipeline / "data.csv", "--schema", tmp_path / "schema.json")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "CorruptArtifact"

    def test_truncated_checkpoint_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys):
        data = (pipeline / "model.npz").read_bytes()
        (tmp_path / "model.npz").write_bytes(data[: len(data) // 2])
        code = run("bench", "--checkpoint", tmp_path / "model.npz", "--encoded",
                   pipeline / "encoded.npz", "--vocab", pipeline / "vocab.json")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "CorruptArtifact"

    @pytest.mark.parametrize("text, error", [
        ('{"lstm_units": 8, "dense_', "CorruptArtifact"),
        ('{"lstm_unitz": 8}', "InvalidConfig"),
    ])
    def test_bad_train_config_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys,
                                                        text, error):
        (tmp_path / "config.json").write_text(text)
        code = run("train", "--encoded", pipeline / "encoded.npz", "--vocab",
                   pipeline / "vocab.json", "--out", tmp_path / "model.npz",
                   "--config", tmp_path / "config.json")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error
        assert not (tmp_path / "model.npz").exists()

    def test_truncated_template_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys):
        (tmp_path / "template.json").write_text('{"targets": [{"func": "avg", "att')
        code = run("generate", "--data", pipeline / "data.csv", "--schema",
                   pipeline / "schema.json", "--template", tmp_path / "template.json",
                   "--out", tmp_path / "workload.jsonl")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "CorruptArtifact"
        assert not (tmp_path / "workload.jsonl").exists()

    def test_stale_dataset_aborts_labeling(self, pipeline, tmp_path, capsys):
        for name in ("data.csv", "schema.json", "workload.jsonl"):
            shutil.copy(pipeline / name, tmp_path / name)
        with open(tmp_path / "data.csv", "a") as fh:
            fh.write("north,food,1.0,0.1\n")
        code = run("label", "--data", tmp_path / "data.csv", "--schema",
                   tmp_path / "schema.json", "--workload", tmp_path / "workload.jsonl",
                   "--out", tmp_path / "labeled.jsonl")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "HashMismatch"
        assert not (tmp_path / "labeled.jsonl").exists()  # no partial output

    def test_workload_without_dataset_hash_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                    capsys):
        _, queries = read_workload(pipeline / "workload.jsonl")
        write_workload(tmp_path / "workload.jsonl", queries)  # no meta, so no dataset_sha256
        code = run("label", "--data", pipeline / "data.csv", "--schema",
                   pipeline / "schema.json", "--workload", tmp_path / "workload.jsonl",
                   "--out", tmp_path / "labeled.jsonl")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "HashMismatch" and "'dataset_sha256'" in err["message"]
        assert not (tmp_path / "labeled.jsonl").exists()

    def test_encoded_without_vocab_hash_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                  capsys):
        X, y, support, _ = load_encoded(pipeline / "encoded.npz")
        save_encoded(tmp_path / "encoded.npz", X, y, support)  # no vocab_content_hash
        code = run("train", "--encoded", tmp_path / "encoded.npz", "--vocab",
                   pipeline / "vocab.json", "--out", tmp_path / "model.npz")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "HashMismatch" and "'vocab_content_hash'" in err["message"]
        assert not (tmp_path / "model.npz").exists()

    def test_encoded_with_missing_labels_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                   capsys):
        X, y, support, meta = load_encoded(pipeline / "encoded.npz")
        save_encoded(tmp_path / "encoded.npz", X, y[:-3], support,
                     meta={"vocab_content_hash": meta["vocab_content_hash"]})
        code = run("train", "--encoded", tmp_path / "encoded.npz", "--vocab",
                   pipeline / "vocab.json", "--out", tmp_path / "model.npz")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "CorruptArtifact"
        assert not (tmp_path / "model.npz").exists()

    def test_too_few_queries_to_validate_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                    capsys):
        # Five queries split 3/0/2, which leaves no validation set.
        X, y, support, meta = load_encoded(pipeline / "encoded.npz")
        save_encoded(tmp_path / "encoded.npz", X[:5], y[:5], support[:5],
                     meta={"vocab_content_hash": meta["vocab_content_hash"]})
        code = run("train", "--encoded", tmp_path / "encoded.npz", "--vocab",
                   pipeline / "vocab.json", "--out", tmp_path / "model.npz")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "EmptyList" and "validation" in err["message"]
        assert not (tmp_path / "model.npz").exists()

    def test_wrong_shaped_checkpoint_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                               capsys):
        with np.load(pipeline / "model.npz") as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param_W_h"] = arrays["param_W_h"][:4, :8]
        np.savez(tmp_path / "model.npz", **arrays)
        code = run("predict", "--checkpoint", tmp_path / "model.npz", "--vocab",
                   pipeline / "vocab.json", "--workload", pipeline / "labeled.jsonl",
                   "--out", tmp_path / "preds.jsonl")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "CorruptArtifact"
        assert not (tmp_path / "preds.jsonl").exists()

    def test_labeling_a_labeled_workload_fails(self, pipeline, capsys):
        code = run("label", "--data", pipeline / "data.csv", "--schema",
                   pipeline / "schema.json", "--workload", pipeline / "labeled.jsonl",
                   "--out", pipeline / "dup.jsonl")
        assert code == 1
        capsys.readouterr()

    def test_foreign_vocabulary_rejected_at_predict(self, pipeline, tmp_path, capsys):
        make_inputs(tmp_path, targets=[{"func": "sum", "attr": "sales"}])
        for step in (
            ["generate", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
             "--template", tmp_path / "template.json", "--out", tmp_path / "w.jsonl"],
            ["label", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
             "--workload", tmp_path / "w.jsonl", "--out", tmp_path / "l.jsonl"],
            ["encode", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
             "--template", tmp_path / "template.json", "--workload", tmp_path / "l.jsonl",
             "--out-vocab", tmp_path / "vocab.json", "--out-encoded", tmp_path / "e.npz"],
        ):
            assert run(*step) == 0
        code = run("predict", "--checkpoint", pipeline / "model.npz",
                   "--vocab", tmp_path / "vocab.json",
                   "--workload", tmp_path / "l.jsonl", "--out", tmp_path / "p.jsonl")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VocabularyMismatch"

    def test_multi_target_training_requires_target_flag(self, tmp_path, capsys):
        make_inputs(
            tmp_path,
            targets=[{"func": "avg", "attr": "sales"}, {"func": "count", "attr": "sales"}],
        )
        for step in (
            ["generate", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
             "--template", tmp_path / "template.json", "--out", tmp_path / "w.jsonl"],
            ["label", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
             "--workload", tmp_path / "w.jsonl", "--out", tmp_path / "l.jsonl"],
            ["encode", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
             "--template", tmp_path / "template.json", "--workload", tmp_path / "l.jsonl",
             "--out-vocab", tmp_path / "vocab.json", "--out-encoded", tmp_path / "e.npz"],
        ):
            assert run(*step) == 0
        train = ["train", "--encoded", tmp_path / "e.npz", "--vocab", tmp_path / "vocab.json",
                 "--out", tmp_path / "m.npz", "--lstm-units", 8, "--dense-units", 8,
                 "--max-epochs", 1]
        assert run(*train) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidTarget"
        assert run(*train, "--target", "count(sales)") == 0
