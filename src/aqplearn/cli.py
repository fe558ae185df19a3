"""Command-line pipeline: profile, generate, label, train, predict, eval.

Each stage reads the previous stage's artifact and writes its own, and
every input has one source. generate samples with the template's seed.
label reads that template against its table and records it beside the
table's schema and mean entropy in the labeled workload's header. train
and eval read the labeled workload: they build its vocabulary under the
header's template and schema and encode the rows they use, so no encoding
is stored. train takes its model settings as flags and stores the
vocabulary in the checkpoint, under which predict encodes. eval scores
the target and split the checkpoint records, then times single-query
latency and batch throughput on those same rows, and loads no table.
Files embed the SHA-256 of their upstream inputs or vocabulary, and stages
verify the chain before doing work, so a stale or swapped file fails fast
instead of silently labeling the wrong table or scoring under the wrong
vocabulary.

Exit codes: 0 on success, 1 on an expected pipeline error, 2 on bad
command-line usage. Every line on stderr is one JSON object: the INFO
records of the aqplearn loggers while a command runs, and on exit 1 the
error as the last line. Output files are written to a temporary name and
renamed into place, so an interrupted run never leaves a half-written
artifact behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import encoder, executor, metrics, nnet, querygen, store
from .artifacts import atomic_open, write_json, write_jsonl
from .errors import (
    AqpError,
    CheckpointMismatch,
    CorruptArtifact,
    EmptyList,
    HashMismatch,
    InvalidConfig,
    InvalidTarget,
    ShapeMismatch,
)
from .queries import number_parts


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_dataset(args) -> store.Dataset:
    schema = store.load_schema(args.schema)
    return store.load_csv(args.data, schema)


def _from_header(path, header: dict, key: str, container: type, parse):
    """`parse` of the JSON list or object that the header of the artifact
    at `path` holds under `key`; a missing, mistyped or invalid entry raises
    CorruptArtifact naming it."""
    where = f"{path}: header {key!r}"
    if key not in header:
        raise CorruptArtifact(f"{where} is missing")
    if not isinstance(header[key], container):
        what = "a list" if container is list else "an object"
        raise CorruptArtifact(f"{where} is {json.dumps(header[key])}, not {what}")
    try:
        return parse(header[key])
    except (AqpError, KeyError, TypeError, ValueError) as exc:
        reason = exc.__cause__ or exc  # not the CorruptArtifact of parsing, which shows the dict
        raise CorruptArtifact(
            f"{where} is not a valid {key}: {type(reason).__name__} {reason}") from exc


def _check_upstream(header: dict, key: str, actual: str, what: str) -> None:
    """The artifact whose `header` this is must record `actual`, the hash
    of `what`, under `key`; a header without `key` cannot vouch for it."""
    recorded = header.get(key)
    if recorded is None:
        raise HashMismatch(f"artifact header has no {key!r} to check {what} against")
    if recorded != actual:
        raise HashMismatch(
            f"{what} (hash {actual[:12]}..) is not the one this artifact was built "
            f"from (expected {recorded[:12]}..)"
        )


# -- subcommands -------------------------------------------------------------

def cmd_profile(args) -> int:
    ds = _load_dataset(args)
    entropy = metrics.dataset_entropy(ds)
    report = {"rows": ds.row_count, "attributes": [], "mean_entropy_bits": entropy["mean"]}
    for attr in ds.schema:
        entry = {"name": attr.name, "kind": attr.kind.value}
        if attr.kind is store.Kind.CONTINUOUS:
            st = store.continuous_stats(ds, attr.name)
            entry.update(min=st.min, q1=st.q1, median=st.median, q3=st.q3, max=st.max)
        else:
            entry["members"] = list(ds.members(attr.name))
        entry["entropy_bits"] = entropy["per_attribute"][attr.name]
        report["attributes"].append(entry)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"rows: {report['rows']}")
    for entry in report["attributes"]:
        if entry["kind"] == "continuous":
            detail = (
                f"min={entry['min']:g} q1={entry['q1']:g} median={entry['median']:g} "
                f"q3={entry['q3']:g} max={entry['max']:g}"
            )
        else:
            detail = f"members={len(entry['members'])}"
        print(f"{entry['name']:<20} {entry['kind']:<11} {detail}  "
              f"entropy={entry['entropy_bits']:.3f} bits")
    print(f"mean entropy: {report['mean_entropy_bits']:.3f} bits")
    return 0


def cmd_generate(args) -> int:
    ds = _load_dataset(args)
    template = querygen.load_template(args.template, ds)
    queries, report = querygen.generate_workload(ds, template)
    meta = {
        "dataset_sha256": _sha256_file(args.data),
        "template": template.to_record(),
        "generation": dataclasses.asdict(report),
    }
    querygen.write_workload(args.out, queries, meta)
    if args.sql:
        with atomic_open(str(args.out) + ".sql") as fh:
            for q in queries:
                fh.write(q.to_sql() + ";\n")
    print(
        f"generated {report.n_queries} queries "
        f"({report.n_targets} targets x {report.n_between_sets} windows "
        f"x {report.n_member_combos} member combos) -> {args.out}"
    )
    return 0


def cmd_label(args) -> int:
    ds = _load_dataset(args)
    header, queries = querygen.read_workload(args.workload)
    if header.get("labeled"):
        raise ShapeMismatch(f"{args.workload} is already labeled")
    data_hash = _sha256_file(args.data)
    _check_upstream(header, "dataset_sha256", data_hash, f"dataset {args.data}")
    template = _from_header(args.workload, header, "template", dict,
                            lambda raw: querygen.load_template(raw, ds))
    labeled, report = executor.label_workload(ds, queries, threads=args.threads)
    meta = {
        "labeled": True,  # also when every query was excluded and no record says so
        "dataset_sha256": data_hash,
        "workload_sha256": _sha256_file(args.workload),
        "template": template.to_record(),
        "schema": store.schema_to_record(ds.schema),
        "labeling": dataclasses.asdict(report),
        "mean_entropy_bits": metrics.dataset_entropy(ds)["mean"],
    }
    querygen.write_workload(args.out, labeled, meta)
    print(
        f"labeled {report.labeled}/{report.total} queries "
        f"({report.zero_filled} zero-support kept, "
        f"{report.excluded_empty} empty excluded, {report.scans} scans) -> {args.out}"
    )
    return 0


def _read_labeled(path) -> tuple[dict, list, encoder.TokenVocabulary]:
    """The header and records of the labeled workload at `path`, and their
    vocabulary under the template and schema the header records."""
    header, records = querygen.read_workload(path)
    if not header.get("labeled"):
        raise ShapeMismatch(f"{path} is not labeled; run the label stage first")
    schema = _from_header(path, header, "schema", list, store.schema_from_record)
    ds = store.Dataset.from_columns(schema, {a.name: [] for a in schema})  # kinds, no rows
    template = _from_header(path, header, "template", dict,
                            lambda raw: querygen.load_template(raw, ds))
    if not records:
        raise EmptyList(f"{path} holds no labeled queries to train on or score")
    return header, records, encoder.build_vocabulary(records, template)


def _target_records(records, vocab, target: str | None, path) -> tuple[list, str]:
    """The records of the labeled workload `path` that ask for `target`, in
    file order, and that target, which may be None when the vocabulary has
    one."""
    if target is None:
        if len(vocab.targets) > 1:
            raise InvalidTarget(
                f"vocabulary holds {len(vocab.targets)} targets {list(vocab.targets)}; "
                "train picks one with --target"
            )
        return records, vocab.targets[0]
    chosen = [lq for lq in records if lq.query.target.token() == target]
    if not chosen:
        raise InvalidTarget(f"no queries for target {target!r} in {path}")
    return chosen, target


def _split_rows(path, target: str, n: int, seed: int, needed) -> dict[str, np.ndarray]:
    """The train, validation and test rows among the n records of `target`
    in the labeled workload `path`, split with `seed`; EmptyList if a
    `needed` split is empty."""
    parts = dict(zip(("train", "validation", "test"), querygen.split_indices(n, seed=seed)))
    for name in needed:
        if len(parts[name]) == 0:
            sizes = "/".join(str(len(rows)) for rows in parts.values())
            raise EmptyList(f"{path}: the {name} split of the {n} {target} queries is empty "
                            f"(train/validation/test {sizes} with split seed {seed})")
    return parts


def _model_config(args) -> nnet.ModelConfig:
    """The ModelConfig of train's flags, one per field; a field whose flag
    is not given keeps its default."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(nnet.ModelConfig)}
    try:
        return nnet.ModelConfig(**{k: v for k, v in fields.items() if v is not None})
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad model settings: {exc}") from None


def _load_model(path) -> nnet.LstmModel:
    """The checkpoint at `path`, which must hold the vocabulary to encode queries under."""
    model = nnet.LstmModel.load(path)
    if model.vocabulary is None:  # the Python API can save a model without one
        raise CorruptArtifact(f"{path} records no vocabulary to encode queries under")
    return model


def cmd_train(args) -> int:
    _, records, vocab = _read_labeled(args.workload)
    records, target = _target_records(records, vocab, args.target, args.workload)
    config = _model_config(args)
    tr, va, te = _split_rows(args.workload, target, len(records), args.split_seed,
                             ("train", "validation")).values()
    X, y = encoder.encode_workload(records, vocab), np.array([lq.label for lq in records])
    model = nnet.LstmModel(config, vocab.sequence_length, vocab.row_width, target=target,
                           split_seed=args.split_seed, vocabulary=vocab)
    report = model.fit(X[tr], y[tr], X[va], y[va])
    model.save(args.out)
    sidecar = {
        "target": target,
        "split_seed": args.split_seed,
        "n_train": len(tr),
        "n_validation": len(va),
        "n_test": len(te),
        "train_report": report.to_record(),
    }
    write_json(str(args.out) + ".report.json", sidecar)
    print(
        f"trained {report.epochs_run} epochs (best epoch {report.best_epoch}, "
        f"validation MSE {report.best_val_mse:.6g}, {report.wall_seconds:.1f}s) -> {args.out}"
    )
    return 0


def cmd_predict(args) -> int:
    model = _load_model(args.checkpoint)
    header, records = querygen.read_workload(args.workload)
    targets = {part.token() for c, part in number_parts(records)[0] if c == 0}
    others = sorted(targets - {model.target})
    if model.target is not None and others:  # a model that records no target is not checked
        raise CheckpointMismatch(f"{args.checkpoint} answers {model.target!r}, not {others[0]!r}")
    X = encoder.encode_workload(records, model.vocabulary)
    preds = model.predict_batch(X, n_workers=args.workers)
    rows = [{"query": q, "prediction": float(p)}
            for q, p in zip(querygen.query_records(records), preds)]
    write_jsonl(args.out, "predictions", 1, rows,
                {"checkpoint_sha256": _sha256_file(args.checkpoint),
                 "workload_sha256": _sha256_file(args.workload)})
    print(f"predicted {len(records)} queries -> {args.out}")
    return 0


QL_QUERIES = 200  # single-query latency samples, the first rows eval scores


def cmd_eval(args) -> int:
    header, records, vocab = _read_labeled(args.workload)
    entropy = header.get("mean_entropy_bits")  # label's; older workloads lack it
    if entropy is not None and (type(entropy) is not float or not 0 <= entropy < float("inf")):
        raise CorruptArtifact(f"{args.workload}: header 'mean_entropy_bits' is "
                              f"{json.dumps(entropy)}, not a finite, non-negative float")
    model = _load_model(args.checkpoint)
    _check_upstream({"vocab_hash": model.vocab_hash}, "vocab_hash", vocab.content_hash(),
                    f"the vocabulary of {args.workload}")
    records, target = _target_records(records, vocab, model.target, args.workload)
    split_seed = 0 if model.split_seed is None else model.split_seed  # train's default
    if args.split != "all":
        part = _split_rows(args.workload, target, len(records), split_seed,
                           (args.split,))[args.split]
        records = [records[i] for i in part]
    X_eval = encoder.encode_workload(records, vocab)
    y_eval = np.array([lq.label for lq in records])
    preds = model.predict_batch(X_eval, n_workers=args.workers)
    report = dataclasses.replace(
        metrics.evaluate_predictions(preds, y_eval),
        input_variance=metrics.input_tensor_variance(X_eval),
        mean_entropy_bits=entropy,
    )
    ql = metrics.measure_ql(model.predict, X_eval[:QL_QUERIES])
    qt = metrics.measure_qt(model.predict_batch, X_eval, n_workers=args.workers)
    param_bytes = sum(p.nbytes for p in model.params.values())
    checkpoint_bytes = os.path.getsize(args.checkpoint)
    if args.out:
        doc = report.to_record()
        doc.update(
            split=args.split, split_seed=split_seed, target=target,
            ql_mean_ms=ql.mean_ms, ql_p50_ms=ql.p50_ms, ql_p99_ms=ql.p99_ms,
            ql_max_ms=ql.max_ms, ql_queries=ql.n,
            qt_qps=qt.qps, qt_queries=qt.queries, qt_seconds=qt.seconds, workers=args.workers,
            param_bytes=param_bytes, checkpoint_bytes=checkpoint_bytes,
        )
        write_json(args.out, doc)
    print(report.to_text())
    print(
        f"QL p50 {ql.p50_ms:.3f} ms/query (mean {ql.mean_ms:.3f}, p99 {ql.p99_ms:.3f}, "
        f"max {ql.max_ms:.3f}, n={ql.n})  "
        f"QT {qt.qps:.0f} queries/s ({qt.queries} queries, {args.workers} workers)"
    )
    print(f"model weight {param_bytes} parameter bytes, "
          f"checkpoint {checkpoint_bytes} bytes with Adam moments")
    return 0


# -- parser -------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type for an integer >= low; anything else is a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


POSITIVE, NON_NEGATIVE = _int_at_least(1), _int_at_least(0)


def _add_data_args(p):
    p.add_argument("--data", required=True, help="CSV data file")
    p.add_argument("--schema", required=True, help="JSON schema declaration")


WORKERS_HELP = ("threads that answer the batch, one contiguous run of chunks each; with more "
                "than one, pin BLAS to one thread (OPENBLAS_NUM_THREADS=1) so that they do not "
                "oversubscribe the cores")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqplearn",
        description="Learned approximate query processing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="summarize a dataset's attributes")
    _add_data_args(p)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("generate", help="sample an artificial workload from a template")
    _add_data_args(p)
    p.add_argument("--template", required=True, help="JSON query template")
    p.add_argument("--out", required=True, help="output workload file")
    p.add_argument("--sql", action="store_true", help="also write <out>.sql with query text")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("label", help="run every workload query exactly and record labels")
    _add_data_args(p)
    p.add_argument("--workload", required=True, help="unlabeled workload file")
    p.add_argument("--out", required=True, help="output labeled workload file")
    p.add_argument("--threads", type=POSITIVE, default=1,
                   help="threads that run the labeling scans; more than one pays only on "
                        "large tables, around a million rows")
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("train", help="train the regressor on a labeled workload, encoded under "
                                     "the template and schema it records")
    p.add_argument("--workload", required=True, help="labeled workload file")
    p.add_argument("--out", required=True, help="output checkpoint file")
    p.add_argument("--target", default=None, help="target token, e.g. 'avg(sales)'")
    p.add_argument("--lstm-units", type=int, default=None)
    p.add_argument("--dense-units", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None, help="learning rate")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--seed", type=NON_NEGATIVE, default=None, help="weight init and shuffle seed")
    p.add_argument("--split-seed", type=NON_NEGATIVE, default=0,
                   help="train/validation/test shuffle seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="answer workload queries with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--workload", required=True, help="workload file (labels ignored)")
    p.add_argument("--out", required=True, help="output predictions file")
    p.add_argument("--workers", type=POSITIVE, default=1, help=WORKERS_HELP)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("eval", help="accuracy, latency and throughput of the checkpoint's "
                                    "target on its split of a labeled workload, with the "
                                    "entropy the workload records and the model's weight")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--workload", required=True, help="labeled workload file")
    p.add_argument("--split", choices=["train", "validation", "test", "all"], default="test")
    p.add_argument("--workers", type=POSITIVE, default=1, help=WORKERS_HELP)
    p.add_argument("--out", default=None, help="optional JSON report file")
    p.set_defaults(fn=cmd_eval)

    return parser


class _JsonLines(logging.Formatter):
    def format(self, record) -> str:
        return json.dumps({"level": record.levelname.lower(), "logger": record.name,
                           "message": record.getMessage()})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The library logs INFO records (rows load_csv drops for nulls) that the
    # user should see; a handler made per call writes to the current stderr.
    logger = logging.getLogger("aqplearn")
    level = logger.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLines())
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return args.fn(args)
    except (AqpError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
