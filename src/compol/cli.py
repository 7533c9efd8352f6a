"""Command-line entry point for reproducible experiments.

Subcommands: ``gen-data`` (simulate a coupled system and write a
dataset), ``train`` (fit a model from a JSON experiment config),
``eval`` (score a checkpoint on a dataset), ``gradcheck`` (run the
finite-difference suites), and ``export-plot`` (turn run records into
CSV tables).

Exit codes: 0 success, 1 verification or numeric failure (gradient check
failed, solver blow-up, non-finite loss, incompatible checkpoint/data
pair), an interrupt (Ctrl-C or SIGTERM) or a worker process that died,
2 usage or I/O error (bad flags, bad config schema, missing files, corrupt
or truncated datasets and checkpoints).  Every artifact embeds the hash of
the configuration that produced it, and is written whole or not at all
(``dataio.write_file``).

``COMPOL_THREADS`` sets the worker count, capped at the CPUs the process
may run on; a value that is not an integer exits 2.  ``gen-data`` solves
on that many processes (all usable CPUs when it is unset).  ``eval``
scores its batches on that many threads when it is set, and on one
otherwise; the thread count never changes the printed table or the dumped
error fields.  Run a threaded ``eval`` with single-threaded BLAS
(``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from concurrent.futures import BrokenExecutor

import numpy as np

from . import datagen as D
from . import model as M
from . import training as TR
from .dataio import (FORMAT_VERSION, MAGIC, MANIFEST_FILENAME, check_fields, config_hash,
                     load_dataset, write_fields, write_file, write_json)

__all__ = ["main", "build_parser", "UsageError", "data_signature"]

CONFIG_FILENAME = "config.json"
RECORD_FILENAME = "run.jsonl"
CHECKPOINT_FILENAME = "checkpoint.ckpt"

# the sections of an experiment config, and the keys written back into its copies
_TOP_FIELDS = {**dict.fromkeys(("system", "data", "model", "train", "paths"), ("object", None)),
               "config_hash": ("str", None), "model_kind": ("str", None)}
# each section's fields (see dataio.check_fields) and the keys it must hold
_SECTIONS = {
    "data": ({"n_train": ("int", 0), "n_test": ("int", 0), "resolution": ("int", 1),
              "seed": ("int", 0)}, ("n_train", "n_test")),
    "train": ({"epochs": ("int", 0), "batch": ("int", 1), "lr": ("positive", None),
               "schedule": ("str", ("cosine", "constant"))}, ("epochs",)),
    "paths": ({"data": ("str", None), "out": ("str", None)}, ()),
}
_GEN_DATA_FLAGS = {"n": ("int", 0), "seed": ("int", 0)}


class UsageError(Exception):
    """Bad flags, malformed config, or unreadable input (exit code 2)."""


class IncompatibleError(Exception):
    """Checkpoint and dataset disagree (exit code 1)."""


# ---------------------------------------------------------------------------
# experiment config


def load_experiment_config(path: str) -> dict:
    """Parse and strictly validate a JSON experiment document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must be a JSON object")
    check_fields(doc, _TOP_FIELDS, required=("model", "train", "data"), closed=True)
    for name, (table, required) in _SECTIONS.items():
        if name in doc:
            check_fields(doc[name], table, f"{name}.", required, closed=True)
    try:
        M.CompolConfig.from_dict(doc["model"])
    except (ValueError, TypeError) as e:
        raise UsageError(f"model section invalid: {e}") from e
    if "system" in doc:
        sec = dict(doc["system"])
        name = sec.pop("system", None)
        if name is None:
            raise UsageError("system section needs a 'system' name")
        try:
            D.system_spec(name, overrides=sec)
        except ValueError as e:
            raise UsageError(f"system section invalid: {e}") from e
    return doc


def experiment_hash(doc: dict) -> str:
    """Hash of the meaningful sections, stable under copy round-trips."""
    return config_hash({k: doc[k] for k in ("system", "data", "model", "train")
                        if k in doc})


def data_signature(manifest: dict) -> str:
    """Hash identifying the data distribution a model was trained on.

    Covers the generating system and the channel layout but not the
    sample count or seed, so an independently drawn test set from the
    same system remains compatible.
    """
    payload = {"channels": manifest.get("counts", {}).get("channels")}
    if "system" in manifest:
        payload["system"] = manifest["system"]
    return config_hash(payload)


def model_kind(cfg: "M.CompolConfig") -> str:
    if cfg.aggregation == "none":
        return "fno-c" if cfg.processes == 1 else "independent"
    return {a: k for k, a in M.KIND_AGGREGATION.items()}.get(cfg.aggregation, cfg.aggregation)


# ---------------------------------------------------------------------------
# subcommands


def _parse_param_overrides(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--param expects KEY=VAL, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def cmd_gen_data(args) -> int:
    check_fields({"n": args.n, "seed": args.seed}, _GEN_DATA_FLAGS, "--")
    spec = D.system_spec(args.system, resolution=args.resolution,
                         overrides=_parse_param_overrides(args.param))
    manifest = D.generate_dataset(spec, args.n, args.seed, args.out)
    path = os.path.join(args.out, MANIFEST_FILENAME)
    print(f"wrote {path}")
    print(f"system={spec.system} samples={args.n} "
          f"resolution={spec.resolution} seed={args.seed} "
          f"config_hash={manifest['config_hash']}")
    for m, entry in enumerate(manifest["stats"]["output"]):
        means = " ".join(f"{v:.4g}" for v in entry["mean"])
        stds = " ".join(f"{v:.4g}" for v in entry["std"])
        print(f"  process {m} ({','.join(manifest['channel_names'][m])}): "
              f"output mean {means} std {stds}")
    return 0


def _resolve_path(flag_value, doc: dict, key: str, what: str) -> str:
    if flag_value:
        return flag_value
    value = doc.get("paths", {}).get(key)
    if not value:
        raise UsageError(f"no {what} given (flag or config paths.{key})")
    return value


def cmd_train(args) -> int:
    doc = load_experiment_config(args.config)
    data_dir = _resolve_path(args.data, doc, "data", "--data directory")
    out_dir = _resolve_path(args.out, doc, "out", "--out directory")
    try:
        dataset = load_dataset(data_dir)
    except FileNotFoundError as e:
        raise UsageError(f"cannot load dataset: {e}") from e

    cfg = M.CompolConfig.from_dict(doc["model"])
    if args.model:
        cfg = M.config_for_kind(args.model, cfg)
    kind = args.model or model_kind(cfg)

    data_sec = doc["data"]
    n_train, n_test = data_sec["n_train"], data_sec["n_test"]
    if n_train + n_test > dataset.n_samples:
        raise UsageError(
            f"split needs {n_train}+{n_test} samples but dataset has "
            f"{dataset.n_samples}")
    if "resolution" in data_sec:
        grid = dataset.inputs[0].shape[2:]
        if any(g != data_sec["resolution"] for g in grid):
            raise UsageError(
                f"data.resolution {data_sec['resolution']} does not match "
                f"dataset grid {tuple(grid)}")
    if "system" in doc and "system" in dataset.manifest:
        want = doc["system"].get("system")
        have = dataset.manifest["system"].get("system")
        if want != have:
            raise UsageError(f"config system {want!r} but dataset was "
                             f"generated from {have!r}")
    train_ds = dataset.subset(np.arange(n_train))
    test_ds = (dataset.subset(np.arange(n_train, n_train + n_test))
               if n_test else None)

    train_sec = doc["train"]
    train_args = {"epochs": train_sec["epochs"], "batch": train_sec.get("batch", 32),
                  "lr": float(train_sec.get("lr", 1e-3)),
                  "schedule": train_sec.get("schedule", "cosine")}
    result = TR.train(cfg, train_ds, test_ds, epochs=train_args["epochs"],
                      batch_size=train_args["batch"], lr=train_args["lr"],
                      schedule=train_args["schedule"])

    resolved = {"data": data_sec, "model": result.config.to_dict(), "train": train_args}
    if "system" in doc:
        resolved["system"] = doc["system"]
    exp_hash = experiment_hash(resolved)
    resolved["config_hash"] = exp_hash
    resolved["model_kind"] = kind

    os.makedirs(out_dir, exist_ok=True)
    cfg_path = os.path.join(out_dir, CONFIG_FILENAME)
    write_json(cfg_path, resolved)
    record_path = os.path.join(out_dir, RECORD_FILENAME)
    TR.write_run_record(record_path, result,
                        extra_head={"experiment_hash": exp_hash,
                                    "model_kind": kind,
                                    "n_train": n_train, "n_test": n_test})
    ckpt_path = os.path.join(out_dir, CHECKPOINT_FILENAME)
    M.save_checkpoint(ckpt_path, result.best_model(), extra={
        "experiment_hash": exp_hash,
        "data_signature": data_signature(dataset.manifest),
        "model_kind": kind,
        "best_epoch": result.best_epoch,
        "best_err": result.best_err,
    })

    for rec in result.records:
        print(f"epoch {rec.epoch:4d}  lr {rec.lr:.3e}  "
              f"train {rec.train_loss:.4f}  test {rec.test_aggregate:.4f}")
    print(f"best epoch {result.best_epoch} test {result.best_err:.4f}")
    print(f"wrote {cfg_path}, {record_path}, {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    workers = D.env_workers() or 1
    try:
        model, extra = M.load_checkpoint(args.checkpoint)
    except FileNotFoundError as e:
        raise UsageError(f"cannot read checkpoint: {e}") from e
    try:
        dataset = load_dataset(args.data)
    except FileNotFoundError as e:
        raise UsageError(f"cannot load dataset: {e}") from e
    if dataset.n_samples == 0:
        raise UsageError(f"dataset {args.data} has no samples to score")

    ckpt_sig = (extra or {}).get("data_signature")
    data_sig = data_signature(dataset.manifest)
    if ckpt_sig is not None and ckpt_sig != data_sig:
        raise IncompatibleError(
            "checkpoint and dataset are incompatible: "
            f"checkpoint data_signature={ckpt_sig} dataset={data_sig}")

    result = TR.evaluate(model, dataset,
                         error_fields=args.dump_error_fields is not None,
                         workers=workers)

    names = dataset.manifest.get("channel_names")
    rows = []
    for m, err in enumerate(result.per_process):
        label = ",".join(names[m]) if names and m < len(names) else f"p{m}"
        rows.append((f"process {m} ({label})", err))
    rows.append(("aggregate", result.aggregate))
    width = max(len(r[0]) for r in rows)
    print(f"{'target'.ljust(width)}  rel_l2")
    for label, err in rows:
        print(f"{label.ljust(width)}  {err:.6f}")
    if result.absolute_fallback:
        print("note: zero-norm targets present; absolute norm used there")

    if args.dump_error_fields is not None:
        out_dir = args.dump_error_fields
        os.makedirs(out_dir, exist_ok=True)
        header = {
            "groups": ["error"],
            "config_hash": (extra or {}).get("experiment_hash"),
            "data_signature": data_sig,
        }
        dump_path = os.path.join(out_dir, "error_fields.cmpd")
        write_fields(dump_path, header, [[err] for err in result.error_fields])
        write_json(os.path.join(out_dir, MANIFEST_FILENAME), {
            "format": MAGIC.decode("ascii"), "version": FORMAT_VERSION,
            "files": [{"name": "error_fields.cmpd"}],
            "config_hash": (extra or {}).get("experiment_hash"),
            "data_signature": data_sig,
            "contents": "per-sample |prediction - target| fields",
        })
        print(f"wrote {dump_path}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import gradcheck as G
    TR._keep_freed_blocks()     # the tape's freed blocks stay for the next check, as in train
    try:
        _, ok = G.run(args.module)
    except ValueError as e:
        raise UsageError(str(e)) from e
    return 0 if ok else 1


def _load_run(run_dir: str) -> dict:
    record_path = os.path.join(run_dir, RECORD_FILENAME)
    if not os.path.exists(record_path):
        raise UsageError(f"{run_dir} has no {RECORD_FILENAME}")
    try:
        head, epochs = TR.read_run_record(record_path)
    except TR.TrainingError as e:   # a malformed record is bad input
        raise UsageError(str(e)) from e
    cfg_path = os.path.join(run_dir, CONFIG_FILENAME)   # the resolved copy train wrote
    doc = load_experiment_config(cfg_path) if os.path.exists(cfg_path) else {}
    return {"dir": run_dir, "head": head, "epochs": epochs, "config": doc}


def _csv_lines_curves(run: dict) -> "list[str]":
    head = run["head"]
    chash = head.get("experiment_hash") or head.get("config_hash", "")
    n_proc = len(run["epochs"][0]["test_err"]) if run["epochs"] else 0
    cols = (["epoch", "lr", "train_loss", "test_aggregate"]
            + [f"test_p{m}" for m in range(n_proc)] + ["config_hash"])
    lines = [",".join(cols)]
    for rec in run["epochs"]:
        row = [str(rec["epoch"]), repr(rec["lr"]), repr(rec["train_loss"]),
               repr(rec["test_aggregate"])]
        row += [repr(v) for v in rec["test_err"]]
        row.append(chash)
        lines.append(",".join(row))
    return lines


def _csv_lines_comparison(runs: "list[dict]") -> "list[str]":
    groups: dict = {}
    for run in runs:
        head = run["head"]
        kind = head.get("model_kind") or run["config"].get("model_kind", "?")
        n_train = head.get("n_train")
        if n_train is None:
            n_train = run["config"].get("data", {}).get("n_train", 0)
        groups.setdefault((str(kind), int(n_train)), []).append(
            float(head["best_err"]))
    lines = ["model,n_train,runs,mean_err,std_err"]
    for (kind, n_train), errs in sorted(groups.items()):
        lines.append(f"{kind},{n_train},{len(errs)},"
                     f"{float(np.mean(errs))!r},{float(np.std(errs))!r}")
    return lines


def cmd_export_plot(args) -> int:
    runs = [_load_run(d) for d in args.run]
    if len(runs) == 1:
        lines = _csv_lines_curves(runs[0])
    else:
        lines = _csv_lines_comparison(runs)
    text = "\n".join(lines) + "\n"
    if args.out:
        write_file(args.out, [text.encode("utf-8")])
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compol",
        description="Coupled neural-operator experiments: data generation, "
                    "training, evaluation, verification, and plot export.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="simulate a system and write a dataset")
    g.add_argument("--system", required=True, choices=D.SYSTEM_NAMES)
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--resolution", required=True, type=int)
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("--out", required=True)
    g.add_argument("--param", action="append", metavar="KEY=VAL",
                   help="override a system parameter (repeatable)")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--data", help="dataset directory (or config paths.data)")
    t.add_argument("--out", help="run directory (or config paths.out)")
    t.add_argument("--model", choices=M.MODEL_KINDS,
                   help="override the configured architecture")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--dump-error-fields", metavar="DIR",
                   help="also write |prediction - target| fields")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    c.add_argument("--module", default="all",
                   choices=("all", "tensor", "layers", "aggregation", "model"))
    c.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-plot", help="run records to CSV tables")
    p.add_argument("--run", required=True, action="append", metavar="DIR",
                   help="run directory (repeat to build a comparison table)")
    p.add_argument("--format", required=True, choices=("csv",))
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_export_plot)
    return parser


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM ends a command as Ctrl-C does; only the main thread may set handlers
    in_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _interrupt) if in_main else None
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as e:  # bad input files are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:        # a config sized beyond the machine
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    # BrokenExecutor: a gen-data worker ended on its own (SIGKILL, the OOM killer)
    except (D.BlowUpError, TR.TrainingError, IncompatibleError, BrokenExecutor) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:       # Ctrl-C or SIGTERM: a run that did not finish
        print("error: interrupted", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    raise SystemExit(main())
