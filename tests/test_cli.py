"""End-to-end command-line pipeline tests."""

import dataclasses
import hashlib
import json
import logging
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from aqplearn import (
    BetweenFilter,
    Dataset,
    InFilter,
    Kind,
    ModelConfig,
    TokenVocabulary,
    build_vocabulary,
    cli,
    decode,
    encode_workload,
    evaluate_predictions,
    input_tensor_variance,
    load_csv,
    load_schema,
    load_template,
    make_schema,
    read_workload,
    split_indices,
    synth,
    write_workload,
)
from aqplearn.artifacts import save_npz
from aqplearn.metrics import dataset_entropy
from aqplearn.nnet import LstmModel
from aqplearn.store import dump_csv, dump_schema
from cli_options import subcommand_options
from conftest import BAD_SCALE_VOCAB_FIELDS, MISTYPED_VOCAB_FIELDS


REPO = Path(__file__).resolve().parents[1]


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
        ("train", ["train", "--workload", root / "labeled.jsonl",
                   "--out", root / "model.npz", "--lstm-units", 8, "--dense-units", 12,
                   "--max-epochs", 2, "--batch-size", 16]),
        ("predict", ["predict", "--checkpoint", root / "model.npz",
                     "--workload", root / "labeled.jsonl", "--out", root / "preds.jsonl",
                     "--workers", 2]),
        ("eval", ["eval", "--checkpoint", root / "model.npz", "--workload", root / "labeled.jsonl",
                  "--workers", 2, "--out", root / "eval.json"]),
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
        for name in ("workload.jsonl", "workload.jsonl.sql", "labeled.jsonl",
                     "model.npz", "model.npz.report.json", "preds.jsonl", "eval.json"):
            assert (pipeline / name).exists(), name
        assert [p.name for p in pipeline.glob("*.npz")] == ["model.npz"]  # no encoded file

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

    def test_predictions_record_their_checkpoint_and_workload(self, pipeline):
        header = json.loads((pipeline / "preds.jsonl").read_text().splitlines()[0])
        for key, name in (("checkpoint_sha256", "model.npz"), ("workload_sha256", "labeled.jsonl")):
            assert header[key] == hashlib.sha256((pipeline / name).read_bytes()).hexdigest()

    def test_eval_report_contents(self, pipeline):
        report = json.loads((pipeline / "eval.json").read_text())
        assert (report["split"], report["split_seed"], report["target"]) == (
            "test", 0, "avg(sales)")
        assert report["n_test"] > 0
        assert report["nrmse_pct"] > 0
        assert report["mean_entropy_bits"] > 0
        assert 0 < report["input_variance"] < 0.25

    def test_eval_report_times_the_rows_it_scores(self, pipeline):
        report = json.loads((pipeline / "eval.json").read_text())
        assert report["ql_mean_ms"] > 0
        check_timing(report)
        assert report["workers"] == 2

    def test_eval_report_weighs_the_model(self, pipeline):
        report = json.loads((pipeline / "eval.json").read_text())
        vocab = library_vocabulary(pipeline, "labeled.jsonl")
        H, Dd = 8, 12  # the fixture's --lstm-units and --dense-units
        n_params = 4 * H * (vocab.row_width + H + 1) + H * Dd + Dd + Dd + 1
        assert report["param_bytes"] == 4 * n_params  # float32
        assert report["checkpoint_bytes"] == (pipeline / "model.npz").stat().st_size
        assert report["checkpoint_bytes"] > 3 * report["param_bytes"]  # with two Adam moments

    def test_checkpoint_records_the_sole_target_and_split_seed(self, pipeline):
        model = LstmModel.load(pipeline / "model.npz")
        assert (model.target, model.split_seed) == ("avg(sales)", 0)

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

    def test_the_template_seed_changes_the_workload(self, tmp_path):
        make_inputs(tmp_path)
        common = ["generate", "--data", tmp_path / "data.csv", "--schema",
                  tmp_path / "schema.json", "--template", tmp_path / "template.json"]
        assert run(*common, "--out", tmp_path / "a.jsonl") == 0
        template = json.loads((tmp_path / "template.json").read_text())
        (tmp_path / "template.json").write_text(json.dumps({**template, "seed": 99}))
        assert run(*common, "--out", tmp_path / "b.jsonl") == 0
        assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


# One change each that makes a valid template invalid: an unreadable target,
# a value out of range, or a value of the wrong type that a loose reader
# would coerce (12.9 to 12, true to 1, a string to its characters).
BAD_TEMPLATE_CHANGES = [
    pytest.param({"targets": [{"func": "foo", "attr": "sales"}]}, id="unknown-func"),
    pytest.param({"targets": [{"func": "avg"}]}, id="target-without-attr"),
    pytest.param({"n_cont_samples": 0}, id="no-samples"),
    pytest.param({"numeric_scales": {"sales": 0}}, id="zero-scale"),
    pytest.param({"seed": -1}, id="negative-seed"),
    pytest.param({"numeric_scales": {"sales": float("nan")}}, id="nan-scale"),
    pytest.param({"numeric_scales": {"sales": float("inf")}}, id="inf-scale"),
    pytest.param({"numeric_scales": {"sales": float("-inf")}}, id="minus-inf-scale"),
    pytest.param({"numeric_scales": {"sales": True}}, id="bool-scale"),
    pytest.param({"n_cont_samples": 12.9}, id="fractional-samples"),
    pytest.param({"seed": 2.5}, id="fractional-seed"),
    pytest.param({"seed": True}, id="bool-seed"),
    pytest.param({"numeric_scales": [["sales", 2.0]]}, id="scales-as-pairs"),
    pytest.param({"cont_filter_attrs": "sales"}, id="attrs-as-a-string"),
]


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

    def test_invalid_utf8_data_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "data.csv").read_bytes().split(b"\n")
        lines[2] = b"\xff\xfe" + lines[2][lines[2].index(b","):]
        (tmp_path / "data.csv").write_bytes(b"\n".join(lines))
        code = run("profile", "--data", tmp_path / "data.csv", "--schema", pipeline / "schema.json")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ParseError" and "row 2, column 'region'" in err["message"]

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
        code = run("eval", "--checkpoint", tmp_path / "model.npz", "--workload",
                   pipeline / "labeled.jsonl")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "CorruptArtifact"

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys, lr):
        code = run("train", "--workload", pipeline / "labeled.jsonl", "--out", tmp_path / "model.npz",
                   "--lr", lr)
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidConfig"
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

    @pytest.mark.parametrize("change", BAD_TEMPLATE_CHANGES)
    def test_bad_template_content_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys,
                                                            change):
        template = json.loads((pipeline / "template.json").read_text())
        (tmp_path / "template.json").write_text(json.dumps({**template, **change}))
        code = run("generate", "--data", pipeline / "data.csv", "--schema",
                   pipeline / "schema.json", "--template", tmp_path / "template.json",
                   "--out", tmp_path / "workload.jsonl")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "CorruptArtifact"
        key = next(iter(change))  # a bad target is named by its function or missing key
        assert key == "targets" or key in json.loads(lines[0])["message"]
        assert not (tmp_path / "workload.jsonl").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("predict", "--workers", "0"),
        ("eval", "--workers", "0"),
        ("eval", "--workers", "two"),
        ("eval", "--ql-queries", "10"),  # eval takes a fixed number of latency samples
        ("label", "--threads", "0"),
        ("train", "--seed", "-1"),
        ("train", "--split-seed", "-1"),
        ("eval", "--split-seed", "3"),  # eval reads the checkpoint's split seed
    ])
    def test_out_of_range_number_is_a_usage_error(self, pipeline, tmp_path, capsys,
                                                  command, flag, value):
        data = ["--data", pipeline / "data.csv", "--schema", pipeline / "schema.json"]
        model = ["--checkpoint", pipeline / "model.npz"]
        labeled = ["--workload", pipeline / "labeled.jsonl"]
        out = ["--out", tmp_path / "out"]
        argv = {
            "generate": [*data, "--template", pipeline / "template.json", *out],
            "label": [*data, "--workload", pipeline / "workload.jsonl", *out],
            "train": [*labeled, *out],
            "predict": [*model, *labeled, *out],
            "eval": [*model, *labeled, *out],
        }[command]
        assert run(command, *argv, flag, value) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bench_is_a_usage_error(self, pipeline, tmp_path, capsys):
        assert run("bench", "--checkpoint", pipeline / "model.npz", "--workload",
                   pipeline / "labeled.jsonl",
                   "--out", tmp_path / "bench.json") == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--seed", "1"),
        ("encode", "--schema", "schema.json"),
        ("train", "--config", "config.json"),
        ("encode", "--out-vocab", "vocab.json"),
        ("train", "--vocab", "vocab.json"),
        ("predict", "--vocab", "vocab.json"),
        ("eval", "--vocab", "vocab.json"),
        ("encode", "--out-encoded", "encoded.npz"),
        ("train", "--out-encoded", "encoded.npz"),
        ("train", "--encoded", "encoded.npz"),
        ("eval", "--encoded", "encoded.npz"),
    ])
    def test_removed_input_is_a_usage_error(self, pipeline, tmp_path, capsys, command, flag, value):
        # The template's seed, the train flags, the vocabulary that the
        # checkpoint records and the labeled workload that train and eval
        # encode are the one source of each; there is no encode stage.
        data = ["--data", pipeline / "data.csv", "--schema", pipeline / "schema.json"]
        labeled = ["--workload", pipeline / "labeled.jsonl", "--out", tmp_path / "o"]
        argv = {
            "generate": [*data, "--template", pipeline / "template.json", "--out", tmp_path / "o"],
            "encode": labeled,
            "train": labeled,
            "predict": ["--checkpoint", pipeline / "model.npz", *labeled],
            "eval": ["--checkpoint", pipeline / "model.npz", *labeled],
        }[command]
        assert run(command, *argv, flag, value) == 2
        err = capsys.readouterr().err
        expected = ("invalid choice: 'encode'" if command == "encode"
                    else f"unrecognized arguments: {flag}")
        assert expected in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_template_in_the_agg_funcs_form_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                       capsys):
        template = json.loads((pipeline / "template.json").read_text())
        del template["targets"]
        template.update(agg_funcs=["avg"], agg_attrs=["sales"])
        (tmp_path / "template.json").write_text(json.dumps(template))
        assert run("generate", "--data", pipeline / "data.csv", "--schema",
                   pipeline / "schema.json", "--template", tmp_path / "template.json",
                   "--out", tmp_path / "workload.jsonl") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "CorruptArtifact"
        assert "unknown keys ['agg_attrs', 'agg_funcs']" in err["message"]
        assert not (tmp_path / "workload.jsonl").exists()

    def test_window_without_a_grid_point_is_exit_1_with_json_error(self, tmp_path, capsys):
        # Every x lies in [0.201, 0.699], which holds no multiple of 1/scale at scale 1.
        rng = np.random.default_rng(0)
        ds = Dataset.from_columns(
            make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)]),
            {"g": [f"m{i % 3}" for i in range(200)],
             "x": np.round(rng.uniform(0.201, 0.699, 200), 3)},
        )
        dump_csv(ds, tmp_path / "data.csv")
        dump_schema(list(ds.schema), tmp_path / "schema.json")
        (tmp_path / "template.json").write_text(json.dumps({
            "targets": [{"func": "avg", "attr": "x"}], "cont_filter_attrs": ["x"]}))
        lo, hi = float(ds.continuous_values("x").min()), float(ds.continuous_values("x").max())
        assert run("generate", "--data", tmp_path / "data.csv", "--schema",
                   tmp_path / "schema.json", "--template", tmp_path / "template.json",
                   "--out", tmp_path / "workload.jsonl") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "NumericOverflow",
            "message": f"no grid point with scale 1.0 inside [{lo}, {hi}]; increase the scale",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.csv", "schema.json", "template.json"]

    def test_empty_split_is_exit_1_with_json_error(self, pipeline, tmp_path, capsys):
        # Five queries split 3/0/2, which leaves no validation set to train on,
        # score or time.
        header, records = read_workload(pipeline / "labeled.jsonl")
        write_labeled(tmp_path / "l.jsonl", header, records[:5])
        # A checkpoint of the five queries' vocabulary, which train cannot write.
        vocab = library_vocabulary(pipeline, tmp_path / "l.jsonl")
        LstmModel(ModelConfig(lstm_units=4, dense_units=4), vocab.sequence_length, vocab.row_width,
                  target="avg(sales)", split_seed=0, vocabulary=vocab).save(tmp_path / "five.npz")
        common = ["--workload", tmp_path / "l.jsonl"]
        for argv, out in (
            (["eval", *common, "--checkpoint", tmp_path / "five.npz", "--split", "validation"],
             tmp_path / "eval.json"),
            (["train", *common, "--max-epochs", 1], tmp_path / "model.npz"),
        ):
            assert run(*argv, "--out", out) == 1
            stdout, err = capsys.readouterr()
            assert stdout == "" and len(err.splitlines()) == 1
            assert json.loads(err) == {
                "error": "EmptyList",
                "message": f"{tmp_path / 'l.jsonl'}: the validation split of the 5 avg(sales) "
                           "queries is empty (train/validation/test 3/0/2 with split seed 0)",
            }
            assert not out.exists()

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

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("label, message", [
        ("NaN", "line 4: label nan is not a finite number"),
        ("Infinity", "line 4: label inf is not a finite number"),
        ("-Infinity", "line 4: label -inf is not a finite number"),
        (None, "line 4 is not a workload record: KeyError 'label'"),
    ], ids=["nan", "inf", "minus-inf", "missing"])
    def test_labeled_record_without_a_finite_label_is_exit_1_with_json_error(
            self, pipeline, tmp_path, capsys, command, label, message):
        lines = (pipeline / "labeled.jsonl").read_text().splitlines()
        lines[3] = re.sub(r'"label": [^,]+, ', "" if label is None else f'"label": {label}, ',
                          lines[3])
        (tmp_path / "l.jsonl").write_text("\n".join(lines) + "\n")
        model = ["--checkpoint", pipeline / "model.npz"] if command == "eval" else []
        assert run(command, "--workload", tmp_path / "l.jsonl", *model,
                   "--out", tmp_path / "out") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "CorruptArtifact",
                                   "message": f"{tmp_path / 'l.jsonl'} {message}"}
        assert [p.name for p in tmp_path.iterdir()] == ["l.jsonl"]

    def test_too_few_queries_to_validate_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                    capsys):
        # Five queries split 3/0/2, which leaves no validation set.
        header, records = read_workload(pipeline / "labeled.jsonl")
        write_labeled(tmp_path / "l.jsonl", header, records[:5])
        code = run("train", "--workload", tmp_path / "l.jsonl", "--out", tmp_path / "model.npz")
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
        code = run("predict", "--checkpoint", tmp_path / "model.npz",
                   "--workload", pipeline / "labeled.jsonl", "--out", tmp_path / "preds.jsonl")
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

    def test_labeling_that_excludes_every_query_still_marks_the_output_labeled(
            self, pipeline, tmp_path, capsys):
        header, queries = read_workload(pipeline / "workload.jsonl")
        nowhere = (BetweenFilter("sales", 1e9, 2e9),)  # above every sales value
        write_workload(tmp_path / "w.jsonl",
                       [dataclasses.replace(q, between_filters=nowhere) for q in queries],
                       {"dataset_sha256": header["dataset_sha256"], "template": header["template"]})
        label = ["label", "--data", pipeline / "data.csv", "--schema", pipeline / "schema.json",
                 "--workload", tmp_path / "w.jsonl", "--out", tmp_path / "l.jsonl"]
        assert run(*label) == 0
        assert f"labeled 0/{len(queries)} queries" in capsys.readouterr().out
        header, records = read_workload(tmp_path / "l.jsonl")
        assert header["labeled"] is True and records == []
        assert run(*label[:-4], "--workload", tmp_path / "l.jsonl",
                   "--out", tmp_path / "again.jsonl") == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ShapeMismatch"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_labeled_workload_with_no_queries_fails_before_writing(
            self, pipeline, tmp_path, capsys, command):
        header, queries = read_workload(pipeline / "workload.jsonl")
        nowhere = (BetweenFilter("sales", 1e9, 2e9),)  # above every sales value
        write_workload(tmp_path / "w.jsonl",
                       [dataclasses.replace(q, between_filters=nowhere) for q in queries],
                       {"dataset_sha256": header["dataset_sha256"], "template": header["template"]})
        assert run("label", "--data", pipeline / "data.csv", "--schema", pipeline / "schema.json",
                   "--workload", tmp_path / "w.jsonl", "--out", tmp_path / "l.jsonl") == 0
        capsys.readouterr()
        model = ["--checkpoint", pipeline / "model.npz"] if command == "eval" else []
        code = run(command, "--workload", tmp_path / "l.jsonl", *model, "--out", tmp_path / "o")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "EmptyList",
            "message": f"{tmp_path / 'l.jsonl'} holds no labeled queries to train on or score"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.jsonl", "w.jsonl"]

    def test_target_without_rows_is_invalid_target_in_train_and_eval(self, tmp_path, capsys):
        # The template declares min(sales) as well, so the vocabulary holds it;
        # the labeled workload, rewritten without its min(sales) records, has no such row.
        make_inputs(tmp_path, targets=[{"func": "avg", "attr": "sales"},
                                       {"func": "min", "attr": "sales"}])
        generate_and_label(tmp_path)
        header, records = read_workload(tmp_path / "l.jsonl")
        meta = {k: v for k, v in header.items() if k not in ("kind", "version", "count")}
        write_workload(tmp_path / "avg.jsonl",
                       [lq for lq in records if lq.query.target.token() != "min(sales)"], meta)
        assert run("train", "--workload", tmp_path / "avg.jsonl",
                   "--out", tmp_path / "m.npz", "--target", "avg(sales)", "--lstm-units", 8,
                   "--dense-units", 8, "--max-epochs", 1) == 0
        capsys.readouterr()
        answers_min = LstmModel.load(tmp_path / "m.npz")
        answers_min.target = "min(sales)"
        answers_min.save(tmp_path / "min.npz")
        message = f"no queries for target 'min(sales)' in {tmp_path / 'avg.jsonl'}"
        model = ["--workload", tmp_path / "avg.jsonl"]
        for argv in (
            ["train", *model, "--target", "min(sales)", "--out", tmp_path / "m2.npz"],
            ["eval", *model, "--checkpoint", tmp_path / "min.npz"],
            ["eval", *model, "--checkpoint", tmp_path / "min.npz", "--split", "all"],
        ):
            assert run(*argv) == 1
            err = json.loads(capsys.readouterr().err)
            assert (err["error"], err["message"]) == ("InvalidTarget", message)
        assert not (tmp_path / "m2.npz").exists()

    def test_multi_target_training_requires_target_flag(self, tmp_path, capsys):
        make_inputs(
            tmp_path,
            targets=[{"func": "avg", "attr": "sales"}, {"func": "count", "attr": "sales"}],
        )
        generate_and_label(tmp_path)
        train = ["train", "--workload", tmp_path / "l.jsonl",
                 "--out", tmp_path / "m.npz", "--lstm-units", 8, "--dense-units", 8,
                 "--max-epochs", 1]
        assert run(*train) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidTarget"
        assert run(*train, "--target", "count(sales)") == 0


class TestStderrIsJsonLines:
    """The library's INFO records reach the user as JSON lines on stderr,
    and an error stays the last line."""

    def csv_with_a_null(self, pipeline, tmp_path):
        lines = (pipeline / "data.csv").read_text().splitlines()
        fields = lines[5].split(",")
        fields[lines[0].split(",").index("sales")] = ""
        lines[5] = ",".join(fields)
        (tmp_path / "nulls.csv").write_text("\n".join(lines) + "\n")
        return tmp_path / "nulls.csv"

    def test_dropped_rows_are_logged_once_per_call(self, pipeline, tmp_path, capsys):
        path = self.csv_with_a_null(pipeline, tmp_path)
        logger = logging.getLogger("aqplearn")
        level, handlers = logger.level, list(logger.handlers)
        logger.setLevel(logging.ERROR)  # main lowers it to INFO for the call, then restores it
        expected = {"level": "info", "logger": "aqplearn.store",
                    "message": f"load_csv({path}): dropped 1 rows containing nulls"}
        try:
            for _ in range(2):
                assert run("profile", "--data", path, "--schema", pipeline / "schema.json") == 0
                out, err = capsys.readouterr()
                assert "rows: 199" in out
                assert [json.loads(line) for line in err.splitlines()] == [expected]
                assert (logger.level, logger.handlers) == (logging.ERROR, handlers)
        finally:
            logger.setLevel(level)

    def test_error_is_the_last_line(self, pipeline, tmp_path, capsys):
        path = self.csv_with_a_null(pipeline, tmp_path)
        (tmp_path / "template.json").write_text('{"targets": [{"func": "avg", "att')
        assert run("generate", "--data", path, "--schema", pipeline / "schema.json",
                   "--template", tmp_path / "template.json",
                   "--out", tmp_path / "workload.jsonl") == 1
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [line.get("logger") for line in lines] == ["aqplearn.store", None]
        assert lines[-1]["error"] == "CorruptArtifact"
        assert not (tmp_path / "workload.jsonl").exists()


class TestCheckpointAnswersItsTarget:
    """train records its target and split seed in the checkpoint; eval
    evaluates them, and predict refuses the checkpoint for another target
    before it writes anything."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("two_targets")
        make_inputs(root, targets=[{"func": "avg", "attr": "sales"},
                                   {"func": "sum", "attr": "sales"}])
        generate_and_label(root)
        header, records = read_workload(root / "l.jsonl")
        meta = {k: v for k, v in header.items() if k not in ("kind", "version", "count")}
        write_workload(root / "avg.jsonl",
                       [lq for lq in records if lq.query.target.token() == "avg(sales)"], meta)
        assert run("train", "--workload", root / "l.jsonl",
                   "--out", root / "m.npz", "--target", "avg(sales)", "--split-seed", 3,
                   "--lstm-units", 8, "--dense-units", 8, "--max-epochs", 1) == 0
        return root

    def test_checkpoint_records_target_and_split_seed(self, trained):
        model = LstmModel.load(trained / "m.npz")
        assert (model.target, model.split_seed) == ("avg(sales)", 3)

    def test_the_recorded_target_and_split_pass(self, trained, tmp_path):
        model = ["--checkpoint", trained / "m.npz"]
        evaluate = ["eval", *model, "--workload", trained / "l.jsonl"]
        assert run(*evaluate, "--out", tmp_path / "eval.json") == 0
        assert run(*evaluate, "--split", "all", "--out", tmp_path / "all.json") == 0
        assert run("predict", *model, "--workload", trained / "avg.jsonl",
                   "--out", tmp_path / "preds.jsonl") == 0
        _, records = read_workload(trained / "l.jsonl")
        n_avg = sum(lq.query.target.token() == "avg(sales)" for lq in records)
        for split, name in (("test", "eval.json"), ("all", "all.json")):
            report = json.loads((tmp_path / name).read_text())
            assert (report["target"], report["split_seed"]) == ("avg(sales)", 3)
            expected = evaluate_on_the_table(trained, "l.jsonl", "m.npz", "avg(sales)", 3, split)
            assert {k: report[k] for k in expected} == expected
            check_timing(report)  # the rows of the target's split, not the file's
        assert json.loads((tmp_path / "all.json").read_text())["qt_queries"] == n_avg < len(records)
        seed_0 = evaluate_on_the_table(trained, "l.jsonl", "m.npz", "avg(sales)", 0)
        assert seed_0["rmse"] != json.loads((tmp_path / "eval.json").read_text())["rmse"]

    def test_checkpoint_without_target_is_invalid_target_on_two_targets(self, trained, tmp_path,
                                                                         capsys):
        model = LstmModel.load(trained / "m.npz")
        model.target = model.split_seed = None  # as the Python API saves it
        model.save(tmp_path / "api.npz")
        capsys.readouterr()
        assert run("eval", "--checkpoint", tmp_path / "api.npz", "--workload", trained / "l.jsonl",
                   "--out", tmp_path / "eval.json") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InvalidTarget" and "eval" not in err["message"]
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("command, message", [
        (["predict", "--workload", "l.jsonl"], "m.npz answers 'avg(sales)', not 'sum(sales)'"),
    ], ids=["predict-target"])
    def test_another_target_or_split_is_exit_1(self, trained, tmp_path, capsys, command, message):
        argv = [trained / a if str(a).endswith((".npz", ".jsonl")) else a for a in command]
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run(*argv, "--checkpoint", trained / "m.npz",
                   "--out", out) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "CheckpointMismatch"
        assert err["message"] == f"{trained}/{message}"
        assert not out.exists()


def rewrite_npz_meta(src, dst, **fields):
    """Copy the .npz artifact `src` to `dst` with its JSON meta changed: each
    keyword sets a field, and the value ... removes it."""
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    meta = {**json.loads(bytes(arrays["meta"])), **fields}
    meta = {k: v for k, v in meta.items() if v is not ...}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def edited(record: dict, field: str | None, value):
    """The vocabulary record `record` with `field` set to `value`, or, with
    no field, `value` in its place; a callable value edits the field."""
    if field is None:
        return value
    return {**record, field: value(record[field]) if callable(value) else value}


def one_member_changed(members: dict) -> dict:
    return {**members, "region": ["nowhere", *members["region"][1:]]}


# Edits that leave the record well typed but make it another vocabulary.
WELL_TYPED_VOCAB_EDITS = [
    pytest.param("members", one_member_changed, id="one-member-changed"),
    pytest.param("nom_attrs", lambda attrs: attrs[::-1], id="nom-attrs-reordered"),
    pytest.param("numeric_scales", {"sales": 0.5}, id="scale-added"),
]


class TestVocabularyTravelsInTheArtifacts:
    """train stores the vocabulary of the labeled workload in the
    checkpoint; predict encodes under it, eval checks the workload's
    against it, and no stage reads or writes a vocabulary or encoded file."""

    def test_the_checkpoint_holds_the_vocabulary_of_the_labeled_workload(self, pipeline):
        vocab = library_vocabulary(pipeline, "labeled.jsonl")
        model = LstmModel.load(pipeline / "model.npz")
        assert (model.vocabulary, model.vocab_hash) == (vocab, vocab.content_hash())
        assert list(pipeline.glob("*vocab*")) == []

    def test_predict_encodes_under_the_checkpoint_s_vocabulary(self, pipeline):
        model = LstmModel.load(pipeline / "model.npz")
        _, records = read_workload(pipeline / "labeled.jsonl")
        lines = (pipeline / "preds.jsonl").read_text().splitlines()[1:]
        expected = model.predict_batch(encode_workload(records, model.vocabulary), n_workers=2)
        assert [json.loads(line)["prediction"] for line in lines] == expected.tolist()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("field, value", [
        pytest.param(None, ..., id="removed"),
        pytest.param(None, None, id="saved-without-one"),
        *WELL_TYPED_VOCAB_EDITS,
        *MISTYPED_VOCAB_FIELDS,
        *BAD_SCALE_VOCAB_FIELDS,
    ])
    def test_edited_vocabulary_of_the_checkpoint_is_exit_1(self, pipeline, tmp_path, capsys,
                                                           command, field, value):
        record = LstmModel.load(pipeline / "model.npz").vocabulary.to_record()
        rewrite_npz_meta(pipeline / "model.npz", tmp_path / "m.npz",
                         vocab=edited(record, field, value))
        assert run(command, "--checkpoint", tmp_path / "m.npz",
                   "--workload", pipeline / "labeled.jsonl", "--out", tmp_path / "out") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        err = json.loads(err)
        assert err["error"] == "CorruptArtifact"
        assert err["message"].startswith(str(tmp_path / "m.npz"))
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]

    @pytest.mark.parametrize("how", ["a-member-renamed", "scale-changed", "another-template"])
    def test_workload_of_another_vocabulary_is_hash_mismatch_at_eval(self, pipeline, tmp_path,
                                                                     capsys, how):
        header, records = read_workload(pipeline / "labeled.jsonl")
        if how == "another-template":
            make_inputs(tmp_path, targets=[{"func": "avg", "attr": "sales"},
                                           {"func": "sum", "attr": "sales"}])
            generate_and_label(tmp_path)
        elif how == "a-member-renamed":
            query = records[0].query
            assert query.in_filters[0].attr == "region"
            renamed = dataclasses.replace(query, in_filters=(InFilter("region", "nowhere"),
                                                             *query.in_filters[1:]))
            write_labeled(tmp_path / "l.jsonl", header,
                          [dataclasses.replace(records[0], query=renamed), *records[1:]])
        else:
            template = {**header["template"], "numeric_scales": {"sales": 2.0}}
            write_labeled(tmp_path / "l.jsonl", {**header, "template": template}, records)
        capsys.readouterr()
        assert run("eval", "--checkpoint", pipeline / "model.npz", "--workload", tmp_path / "l.jsonl",
                   "--out", tmp_path / "eval.json") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        err = json.loads(err)
        assert err["error"] == "HashMismatch"
        assert err["message"].startswith(f"the vocabulary of {tmp_path / 'l.jsonl'} (hash ")
        assert not (tmp_path / "eval.json").exists()


TIMING_FIELDS = ("ql_mean_ms", "ql_p50_ms", "ql_p99_ms", "ql_max_ms", "qt_qps", "qt_seconds")


def untimed(report: dict) -> dict:
    """An eval report without the fields that vary from run to run."""
    return {k: v for k, v in report.items() if k not in TIMING_FIELDS}


def check_timing(report: dict) -> None:
    """eval times the rows it scored: the first 200 one query at a time,
    then all of them in one batch."""
    assert 0 < report["ql_p50_ms"] <= report["ql_p99_ms"] <= report["ql_max_ms"]
    assert report["qt_qps"] > 0 and report["qt_seconds"] > 0
    assert report["qt_queries"] == report["n_test"]
    assert report["ql_queries"] == min(200, report["n_test"])


def make_demo_06_inputs(root):
    """The table, schema and template of demos/06_cli_pipeline.sh."""
    ds = synth.make_transactions_table(n_rows=2000, seed=3)
    dump_csv(ds, root / "data.csv")
    dump_schema(list(ds.schema), root / "schema.json")
    (root / "template.json").write_text(json.dumps({
        "targets": [{"func": "avg", "attr": "sales"}],
        "cont_filter_attrs": ["sales"],
        "nom_filter_attrs": ["region", "category"],
        "n_cont_samples": 150,
        "seed": 21,
        "numeric_scales": {"sales": 1.0},
    }))


def make_half_unit_inputs(root):
    """The CLI tests' inputs with sales quantized to halves."""
    make_inputs(root)
    template = json.loads((root / "template.json").read_text())
    (root / "template.json").write_text(json.dumps({**template, "numeric_scales": {"sales": 2.0}}))


def generate_and_label(root):
    """Generate w.jsonl from the inputs under root and label it into l.jsonl."""
    data = ["--data", root / "data.csv", "--schema", root / "schema.json"]
    assert run("generate", *data, "--template", root / "template.json",
               "--out", root / "w.jsonl") == 0
    assert run("label", *data, "--workload", root / "w.jsonl", "--out", root / "l.jsonl") == 0


def write_labeled(path, header: dict, records) -> None:
    """Write `records` as a labeled workload with the meta of `header`."""
    write_workload(path, records,
                   {k: v for k, v in header.items() if k not in ("kind", "version", "count")})


def library_vocabulary(root, workload) -> TokenVocabulary:
    """The vocabulary of the labeled workload root/workload (or the absolute
    path `workload`) under the template and table under root, built through
    the Python API."""
    ds = load_csv(root / "data.csv", load_schema(root / "schema.json"))
    _, records = read_workload(root / workload)
    return build_vocabulary(records, load_template(root / "template.json", ds))


def evaluate_on_the_table(root, workload, checkpoint, target, split_seed, split="test"):
    """The report fields of eval computed through the Python API: the split
    of `target`'s records of root/workload, encoded under the vocabulary of
    root's template and table, and the mean entropy of root/data.csv."""
    _, records = read_workload(root / workload)
    records = [lq for lq in records if lq.query.target.token() == target]
    if split != "all":
        tr, va, te = split_indices(len(records), seed=split_seed)
        records = [records[i] for i in {"train": tr, "validation": va, "test": te}[split]]
    X = encode_workload(records, library_vocabulary(root, workload))
    y = np.array([lq.label for lq in records])
    report = evaluate_predictions(LstmModel.load(root / checkpoint).predict_batch(X), y)
    table = load_csv(root / "data.csv", load_schema(root / "schema.json"))
    return {**report.to_record(), "input_variance": input_tensor_variance(X),
            "mean_entropy_bits": dataset_entropy(table)["mean"]}


class TestTrainReadsTheLabeledWorkload:
    """label reads the template that generate recorded against its table
    and records it beside the table's schema; train builds the vocabulary
    from both, encodes the records and fits, and reads no table, template
    or schema file."""

    @pytest.mark.parametrize("make", [make_inputs, make_demo_06_inputs, make_half_unit_inputs],
                             ids=["cli-tests", "demo-06", "half-unit-scale"])
    def test_checkpoint_equals_the_library_path_without_the_table(self, tmp_path, make):
        make(tmp_path)
        generate_and_label(tmp_path)
        _, records = read_workload(tmp_path / "l.jsonl")
        vocab = library_vocabulary(tmp_path, "l.jsonl")
        X, y = encode_workload(records, vocab), np.array([lq.label for lq in records])
        tr, va, _ = split_indices(len(records), seed=0)
        config = ModelConfig(lstm_units=8, dense_units=8, batch_size=16, max_epochs=2)
        model = LstmModel(config, vocab.sequence_length, vocab.row_width, target="avg(sales)",
                          split_seed=0, vocabulary=vocab)
        model.fit(X[tr], y[tr], X[va], y[va])
        model.save(tmp_path / "library.npz")
        for name in ("data.csv", "schema.json", "template.json"):
            (tmp_path / name).unlink()
        assert run("train", "--workload", tmp_path / "l.jsonl", "--out", tmp_path / "m.npz",
                   "--lstm-units", 8, "--dense-units", 8, "--batch-size", 16,
                   "--max-epochs", 2) == 0
        with np.load(tmp_path / "m.npz") as cli_path, np.load(tmp_path / "library.npz") as api:
            assert cli_path.files == api.files
            for name in api.files:  # the JSON meta buffer included
                np.testing.assert_array_equal(cli_path[name], api[name], err_msg=name)
        assert [decode(x, vocab) for x in X] == [lq.query for lq in records]

    @pytest.mark.parametrize("flag, name", [("--template", "template.json"),
                                            ("--data", "data.csv")])
    def test_template_or_data_option_is_a_usage_error(self, pipeline, tmp_path, capsys,
                                                     flag, name):
        assert run("train", "--workload", pipeline / "labeled.jsonl", flag, pipeline / name,
                   "--out", tmp_path / "m.npz") == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("meta, reason", [
        ({}, "is missing"),
        ({"template": None}, "is null, not an object"),
        ({"template": "template.json"}, 'is "template.json", not an object'),
        ({"template": {"targets": [{"func": "avg"}]}}, "is not a valid template: KeyError 'attr'"),
    ], ids=["no-template", "null-template", "template-path", "target-without-attr"])
    def test_header_without_a_template_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                capsys, meta, reason):
        # label reads the template before it scans, so it never writes a
        # labeled workload that train could not read.
        header, queries = read_workload(pipeline / "workload.jsonl")
        write_workload(tmp_path / "w.jsonl", queries,
                       {"dataset_sha256": header["dataset_sha256"], **meta})
        assert run("label", "--data", pipeline / "data.csv", "--schema", pipeline / "schema.json",
                   "--workload", tmp_path / "w.jsonl", "--out", tmp_path / "l.jsonl") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        err = json.loads(err)
        assert err["error"] == "CorruptArtifact"
        assert err["message"] == f"{tmp_path / 'w.jsonl'}: header 'template' {reason}"
        assert [p.name for p in tmp_path.iterdir()] == ["w.jsonl"]

    def test_label_records_the_template_and_the_schema_of_its_table(self, pipeline):
        header, _ = read_workload(pipeline / "labeled.jsonl")
        assert header["schema"] == json.loads((pipeline / "schema.json").read_text())
        assert "schema" not in read_workload(pipeline / "workload.jsonl")[0]
        assert header["template"] == read_workload(pipeline / "workload.jsonl")[0]["template"]

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("schema, reason", [
        (..., "is missing"),
        (None, "is null, not a list"),
        ("schema.json", 'is "schema.json", not a list'),
        ([{"name": "sales", "kind": "decimal"}],
         "is not a valid schema: ValueError 'decimal' is not a valid Kind"),
        ([{"name": ["sales"], "kind": "continuous"}],
         "is not a valid schema: TypeError name ['sales'] is not a string"),
    ], ids=["no-schema", "null-schema", "schema-path", "unknown-kind", "name-not-a-string"])
    def test_header_without_a_valid_schema_is_exit_1_with_json_error(self, pipeline, tmp_path,
                                                                    capsys, command, schema,
                                                                    reason):
        header, records = read_workload(pipeline / "labeled.jsonl")
        if schema is ...:
            del header["schema"]
        else:
            header["schema"] = schema
        write_labeled(tmp_path / "l.jsonl", header, records)
        model = ["--checkpoint", pipeline / "model.npz"] if command == "eval" else []
        assert run(command, "--workload", tmp_path / "l.jsonl", *model,
                   "--out", tmp_path / "out") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        err = json.loads(err)
        assert err["error"] == "CorruptArtifact"
        assert err["message"] == f"{tmp_path / 'l.jsonl'}: header 'schema' {reason}"
        assert [p.name for p in tmp_path.iterdir()] == ["l.jsonl"]

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("change", [
        pytest.param(..., id="no-template"),
        pytest.param(None, id="null-template"),
        pytest.param("template.json", id="template-path"),
        *BAD_TEMPLATE_CHANGES,
    ])
    def test_edited_template_of_the_labeled_workload_is_exit_1(self, pipeline, tmp_path, capsys,
                                                              command, change):
        # The header's template is where the vocabulary comes from, so an
        # edit made after label must fail before train fits or eval scores.
        header, records = read_workload(pipeline / "labeled.jsonl")
        if change is ...:
            del header["template"]
        else:
            header["template"] = ({**header["template"], **change} if isinstance(change, dict)
                                  else change)
        write_labeled(tmp_path / "l.jsonl", header, records)
        model = ["--checkpoint", pipeline / "model.npz"] if command == "eval" else []
        assert run(command, "--workload", tmp_path / "l.jsonl", *model,
                   "--out", tmp_path / "out") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        err = json.loads(err)
        assert err["error"] == "CorruptArtifact"
        assert err["message"].startswith(f"{tmp_path / 'l.jsonl'}: header 'template' ")
        if isinstance(change, dict):
            key = next(iter(change))  # a bad target is named by its function or missing key
            assert key == "targets" or key in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["l.jsonl"]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_an_encoded_file_is_a_version_mismatch(self, pipeline, tmp_path, capsys, command):
        # An encoded tensor file as the encode stage of earlier releases wrote it.
        save_npz(tmp_path / "encoded.npz", "encoded", 2,
                 {"X": np.zeros((3, 2, 2), dtype=np.uint8), "y": np.zeros(3),
                  "support": np.ones(3, dtype=np.int64)}, {"count": 3})
        model = ["--checkpoint", pipeline / "model.npz"] if command == "eval" else []
        assert run(command, "--workload", tmp_path / "encoded.npz", *model,
                   "--out", tmp_path / "out") == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {
            "error": "VersionMismatch",
            "message": f"{tmp_path / 'encoded.npz'} holds encoded version 2 where workload "
                       "version 1 is expected"}
        assert [p.name for p in tmp_path.iterdir()] == ["encoded.npz"]


class TestEvalReadsItsArtifacts:
    """eval evaluates the checkpoint's target on the checkpoint's split, and
    reports the table's entropy that label recorded."""

    @pytest.mark.parametrize("make", [make_inputs, make_demo_06_inputs],
                             ids=["cli-tests", "demo-06"])
    def test_report_equals_the_one_computed_from_the_table(self, tmp_path, make, capsys):
        make(tmp_path)
        generate_and_label(tmp_path)
        assert run("train", "--workload", tmp_path / "l.jsonl",
                   "--out", tmp_path / "m.npz", "--lstm-units", 8, "--dense-units", 8,
                   "--max-epochs", 1) == 0
        expected = evaluate_on_the_table(tmp_path, "l.jsonl", "m.npz", "avg(sales)", 0)
        capsys.readouterr()
        assert run("profile", "--data", tmp_path / "data.csv",
                   "--schema", tmp_path / "schema.json", "--json") == 0
        profiled = json.loads(capsys.readouterr().out)["mean_entropy_bits"]
        for name in ("data.csv", "schema.json", "template.json"):
            (tmp_path / name).unlink()
        assert run("eval", "--checkpoint", tmp_path / "m.npz", "--workload", tmp_path / "l.jsonl",
                   "--out", tmp_path / "eval.json") == 0
        out = capsys.readouterr().out
        assert f"{profiled:.4f} bits" in out
        report = json.loads((tmp_path / "eval.json").read_text())
        assert {k: report[k] for k in expected} == expected
        assert report["mean_entropy_bits"] == profiled
        assert (report["target"], report["split_seed"], report["split"]) == (
            "avg(sales)", 0, "test")
        check_timing(report)
        assert f"QL p50 {report['ql_p50_ms']:.3f} ms/query" in out
        assert f"QT {report['qt_qps']:.0f} queries/s ({report['n_test']} queries, 1 workers)" in out
        assert (f"model weight {report['param_bytes']} parameter bytes, "
                f"checkpoint {report['checkpoint_bytes']} bytes") in out

    @pytest.mark.parametrize("flag, value", [
        ("--target", "avg(sales)"), ("--split-seed", "0"),
        ("--data", "data.csv"), ("--schema", "schema.json"),
    ])
    def test_removed_option_is_a_usage_error(self, pipeline, tmp_path, capsys, flag, value):
        assert run("eval", "--checkpoint", pipeline / "model.npz", "--workload",
                   pipeline / "labeled.jsonl",
                   "--out", tmp_path / "eval.json", flag, value) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def run_eval_on_meta(self, pipeline, tmp_path, **meta):
        header, records = read_workload(pipeline / "labeled.jsonl")
        del header["mean_entropy_bits"]
        write_labeled(tmp_path / "l.jsonl", {**header, **meta}, records)
        return run("eval", "--checkpoint", pipeline / "model.npz", "--workload", tmp_path / "l.jsonl",
                   "--workers", 2, "--out", tmp_path / "eval.json")

    def test_workload_without_entropy_reports_none(self, pipeline, tmp_path, capsys):
        assert self.run_eval_on_meta(pipeline, tmp_path) == 0
        assert "entropy" not in capsys.readouterr().out
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["mean_entropy_bits"] is None
        expected = json.loads((pipeline / "eval.json").read_text())
        assert untimed(report) == untimed({**expected, "mean_entropy_bits": None})

    @pytest.mark.parametrize("value", ["2.4", True, [2.4], 2, -1.0, float("nan"), float("inf")],
                             ids=["string", "bool", "list", "int", "negative", "nan", "inf"])
    def test_entropy_that_is_not_a_number_of_bits_is_exit_1(self, pipeline, tmp_path, capsys,
                                                           value):
        assert self.run_eval_on_meta(pipeline, tmp_path, mean_entropy_bits=value) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        err = json.loads(err)
        assert err["error"] == "CorruptArtifact"
        assert err["message"].startswith(
            f"{tmp_path / 'l.jsonl'}: header 'mean_entropy_bits' is ")
        assert not (tmp_path / "eval.json").exists()

    def test_checkpoint_without_target_or_split_seed_takes_the_defaults_of_train(self, pipeline,
                                                                                tmp_path):
        model = LstmModel.load(pipeline / "model.npz")
        model.target = model.split_seed = None  # as the Python API saves it
        model.save(tmp_path / "api.npz")
        assert run("eval", "--checkpoint", tmp_path / "api.npz", "--workload",
                   pipeline / "labeled.jsonl", "--workers", 2,
                   "--out", tmp_path / "eval.json") == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        expected = json.loads((pipeline / "eval.json").read_text())
        assert untimed(report) == {**untimed(expected),
                                   "checkpoint_bytes": (tmp_path / "api.npz").stat().st_size}


def documented_command_lines(text: str) -> list[list[str]]:
    """Each `aqplearn ...` command of a shell text, `\\` continuations joined."""
    joined = re.sub(r"\\\n", " ", text)
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("aqplearn ")]


def test_documented_command_lines_parse():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    quick_start = section.split("```sh\n", 1)[1].split("```", 1)[0]
    demo = (REPO / "demos" / "06_cli_pipeline.sh").read_text(encoding="utf-8")
    known = {opt for opts in subcommand_options().values() for opt in opts} | {"--help"}
    for source, text, named_in in (("README quick start", quick_start, section),
                                   ("demo 06", demo, demo)):
        lines = documented_command_lines(text)
        assert [argv[0] for argv in lines] == [
            "profile", "generate", "label", "train", "predict", "eval",
        ], source
        for argv in lines:
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{source}: aqplearn {shlex.join(argv)} is a usage error")
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", named_in))
        assert named and named - known == set(), source
    undocumented = known - set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert undocumented == set(), "options that README's CLI quick start does not name"
