"""End-to-end command-line flows, driven in process through ``main``.

Exit code contract: 0 success, 1 numeric/verification failures
(incompatible checkpoint, blow-up, failed gradient check), 2 usage and
I/O problems (bad flags, bad schema, missing files).
"""

import contextlib
import ctypes
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from compol import cli, datagen
from compol import dataio as D
from compol import model as M
from compol import training as TR


GEN_LV = ["--param", "fine_factor=2", "--param", "horizon=1.0",
          "--param", "dt=0.02"]


@pytest.fixture(scope="module")
def lv_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("lv_data")
    code = cli.main(["gen-data", "--system", "lv", "--n", "6",
                     "--resolution", "32", "--seed", "9", "--out", str(out)]
                    + GEN_LV)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def bz_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("bz_data")
    code = cli.main(["gen-data", "--system", "bz", "--n", "2",
                     "--resolution", "32", "--seed", "1", "--out", str(out),
                     "--param", "fine_factor=1", "--param", "horizon=0.1",
                     "--param", "dt=0.002"])
    assert code == 0
    return out


def experiment_doc(data_dir, out_dir, **model_kw):
    model = dict(processes=2, channels=[1, 1], layers=2, width=8, modes=4,
                 aggregation="gru", mix="add", seed=0)
    model.update(model_kw)
    return {
        "system": {"system": "lv", "fine_factor": 2, "horizon": 1.0, "dt": 0.02},
        "data": {"n_train": 4, "n_test": 2, "resolution": 32, "seed": 9},
        "model": model,
        "train": {"epochs": 2, "batch": 2, "lr": 1e-3, "schedule": "cosine"},
        "paths": {"data": str(data_dir), "out": str(out_dir)},
    }


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, lv_data):
    out = tmp_path_factory.mktemp("run_gru")
    cfg = tmp_path_factory.mktemp("cfg") / "exp.json"
    write_config(cfg, experiment_doc(lv_data, out))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return out


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_reports_and_is_loadable(lv_data, capsys):
    ds = D.load_dataset(lv_data)
    assert ds.n_samples == 6 and ds.processes == 2
    manifest = D.read_manifest(lv_data / D.MANIFEST_FILENAME)
    assert manifest["system"]["system"] == "lv"
    assert manifest["system"]["fine_factor"] == 2


def test_gen_data_rerun_is_byte_identical(lv_data, tmp_path):
    code = cli.main(["gen-data", "--system", "lv", "--n", "6",
                     "--resolution", "32", "--seed", "9",
                     "--out", str(tmp_path)] + GEN_LV)
    assert code == 0
    for name in (D.DATA_FILENAME, D.MANIFEST_FILENAME):
        assert (tmp_path / name).read_bytes() == (lv_data / name).read_bytes()


def test_gen_data_prints_summary(tmp_path, capsys):
    code = cli.main(["gen-data", "--system", "lv", "--n", "1",
                     "--resolution", "32", "--seed", "0",
                     "--out", str(tmp_path)] + GEN_LV)
    out = capsys.readouterr().out
    assert code == 0
    assert "config_hash=" in out
    assert "process 0 (u)" in out and "process 1 (v)" in out


def test_gen_data_zero_samples(tmp_path):
    code = cli.main(["gen-data", "--system", "lv", "--n", "0",
                     "--resolution", "32", "--seed", "0",
                     "--out", str(tmp_path)] + GEN_LV)
    assert code == 0
    assert D.load_dataset(tmp_path).n_samples == 0


def test_gen_data_bad_overrides_are_usage_errors(tmp_path, capsys):
    base = ["gen-data", "--system", "lv", "--n", "1", "--resolution", "32",
            "--seed", "0", "--out", str(tmp_path)]
    assert cli.main(base + ["--param", "nope=1"]) == 2
    assert cli.main(base + ["--param", "du=-0.5"]) == 2
    assert cli.main(base + ["--param", "malformed"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("param", [
    "a=null", "dt=[1]", "fine_factor=2.7", "dt=true", "resolution=32.0", "horizon=fast",
    "horizon=Infinity", "a=NaN", pytest.param("a=1" + "0" * 400, id="a=int-past-float-range"),
])
def test_gen_data_param_types_exit_2(tmp_path, capsys, param):
    """An override is a finite number (a bool is not one), an int for
    resolution and fine_factor: anything else is one error line, never a
    traceback and never coerced into the manifest."""
    code = cli.main(["gen-data", "--system", "lv", "--n", "1", "--resolution", "32",
                     "--seed", "0", "--out", str(tmp_path / "out"), "--param", param])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "out").exists()


def test_gen_data_blow_up_on_the_pool_is_one_error_line(tmp_path):
    """A blow-up in a worker reaches the parent intact: exit 1 and one line,
    without a RuntimeWarning from any process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "COMPOL_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "compol.cli", "gen-data", "--system", "lv", "--n", "16",
         "--resolution", "32", "--seed", "0", "--out", str(tmp_path / "out"),
         "--param", "init_shift=1e308", "--param", "fine_factor=1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: sample(s) [0, 1, 2, 3, 4, 5, 6, 7]: non-finite state")


_TEST_PID = os.getpid()
_solve_chunk = datagen._generate_chunk


def _die_in_chunk_0(spec_dict, seed, start, stop):
    """A pool worker that ends on its own at chunk 0, as SIGKILL would end it."""
    if start == 0:
        assert os.getpid() != _TEST_PID, "chunk 0 ran in the test process"
        os._exit(9)
    return _solve_chunk(spec_dict, seed, start, stop)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork" or not hasattr(signal, "alarm"),
                    reason="the pool workers must inherit the patched chunk solver")
def test_gen_data_worker_that_dies_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A gen-data pool worker that dies on its own breaks the pool: exit 1
    and one line, no traceback, no dataset, and no worker left behind.  Two
    workers are forced even on one CPU, and the command has 120 s."""
    monkeypatch.setenv("COMPOL_THREADS", "2")
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(datagen, "_generate_chunk", _die_in_chunk_0)
    before = set(multiprocessing.active_children())

    def too_slow(signum, frame):
        raise AssertionError("gen-data did not end within 120 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(120)
    try:
        code = cli.main(["gen-data", "--system", "lv", "--n", "16", "--resolution", "32",
                         "--seed", "1", "--out", str(tmp_path / "out")] + GEN_LV)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        left = set(multiprocessing.active_children()) - before
        for p in left:
            p.kill()
            p.join(10)
    err = capsys.readouterr().err
    assert code == 1, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "out").exists()
    assert left == set()


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="physical memory is not known")
def test_gen_data_count_past_memory_exits_2_at_once(tmp_path):
    """2**70 samples fit no machine's memory: gen-data refuses the count
    before it lists a chunk.  The child's address space is capped, so a
    regression ends in a failed assertion, not in the machine's memory."""
    resource = pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "compol.cli", "gen-data", "--system", "lv",
         "--n", str(2 ** 70), "--resolution", "16", "--seed", "0",
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"error: out of memory: {2 ** 70} samples need"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_gen_data_unknown_system_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["gen-data", "--system", "heat", "--n", "1",
                  "--resolution", "32", "--seed", "0", "--out", str(tmp_path)])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(run_dir):
    resolved = json.loads((run_dir / cli.CONFIG_FILENAME).read_text())
    assert resolved["model_kind"] == "compol-rnn"
    assert resolved["config_hash"] == cli.experiment_hash(resolved)
    head, epochs = TR.read_run_record(run_dir / cli.RECORD_FILENAME)
    assert head["experiment_hash"] == resolved["config_hash"]
    assert head["model_kind"] == "compol-rnn"
    assert (head["n_train"], head["n_test"]) == (4, 2)
    assert len(epochs) == 2
    model, extra = M.load_checkpoint(run_dir / cli.CHECKPOINT_FILENAME)
    assert extra["experiment_hash"] == resolved["config_hash"]
    assert model.config.aggregation == "gru"


def test_train_rerun_reproduces_artifacts(tmp_path, lv_data, run_dir):
    cfg = write_config(tmp_path / "exp.json",
                       experiment_doc(lv_data, tmp_path / "out"))
    assert cli.main(["train", "--config", cfg]) == 0
    a = (tmp_path / "out" / cli.CHECKPOINT_FILENAME).read_bytes()
    b = (run_dir / cli.CHECKPOINT_FILENAME).read_bytes()
    assert a == b
    assert ((tmp_path / "out" / cli.CONFIG_FILENAME).read_bytes()
            == (run_dir / cli.CONFIG_FILENAME).read_bytes())
    # records agree apart from wall-clock timing
    for name in (cli.RECORD_FILENAME,):
        la = (tmp_path / "out" / name).read_text().splitlines()
        lb = (run_dir / name).read_text().splitlines()
        for xa, xb in zip(la, lb):
            da, db = json.loads(xa), json.loads(xb)
            da.pop("wall_ms", None), db.pop("wall_ms", None)
            assert da == db


def test_train_model_flag_overrides_architecture(tmp_path, lv_data):
    cfg = write_config(tmp_path / "exp.json",
                       experiment_doc(lv_data, tmp_path / "out"))
    assert cli.main(["train", "--config", cfg, "--model", "fno-c"]) == 0
    resolved = json.loads((tmp_path / "out" / cli.CONFIG_FILENAME).read_text())
    assert resolved["model_kind"] == "fno-c"
    assert resolved["model"]["processes"] == 1
    assert resolved["model"]["channels"] == [2]
    _, epochs = TR.read_run_record(tmp_path / "out" / cli.RECORD_FILENAME)
    assert len(epochs[0]["test_err"]) == 2  # still scored per process


def test_train_flags_override_config_paths(tmp_path, lv_data):
    doc = experiment_doc(lv_data, tmp_path / "ignored")
    doc["train"]["epochs"] = 1
    cfg = write_config(tmp_path / "exp.json", doc)
    out = tmp_path / "real"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / cli.CHECKPOINT_FILENAME).exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("mutate,phrase", [
    (lambda d: d.update(extras=1), "unknown keys"),
    (lambda d: d["data"].update(shuffle=True), "unknown keys"),
    (lambda d: d.pop("train"), "missing"),
    (lambda d: d["data"].update(n_train=100), "split needs"),
    (lambda d: d["data"].update(resolution=64), "does not match"),
    (lambda d: d["system"].update(system="bz"), "config system"),
    (lambda d: d["model"].update(width=-3), "model section invalid"),
    (lambda d: d["train"].pop("epochs"), "epochs"),
])
def test_train_config_schema_violations(tmp_path, lv_data, capsys, mutate, phrase):
    doc = experiment_doc(lv_data, tmp_path / "out")
    mutate(doc)
    cfg = write_config(tmp_path / "exp.json", doc)
    assert cli.main(["train", "--config", cfg]) == 2
    assert phrase in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("model", "width", 2.5), ("model", "layers", 1.5), ("model", "modes", 4.5),
    ("model", "seed", 1.5), ("model", "channels", [1.7, 1]), ("model", "heads", True),
    ("model", "coords", 1), ("model", "aggregation", ["gru"]),
    ("data", "n_train", [2]), ("data", "n_train", 2.5), ("data", "seed", True),
    ("train", "batch", 2.5), ("train", "epochs", 1.5), ("train", "lr", "fast"),
    ("train", None, None), ("system", "system", ["lv"]), ("paths", "data", 5),
])
def test_train_config_types_exit_2(tmp_path, lv_data, capsys, section, key, value):
    """A value of the wrong type (bools are not integers) is one error line,
    never a traceback and never silently truncated."""
    doc = experiment_doc(lv_data, tmp_path / "out")
    if key is None:
        doc[section] = []
    else:
        doc[section][key] = value
    cfg = write_config(tmp_path / "exp.json", doc)
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model_kw", [
    {"width": 2 ** 56},                                  # lift weights: 1 EiB
    {"width": 8, "modes": 2 ** 50},                      # spectral weights: 512 PiB
    {"width": 8, "aggregation": "attention", "key_width": 2 ** 55},   # 2 EiB
], ids=["width", "modes", "key_width"])
def test_train_oversized_model_exits_2(tmp_path, lv_data, capsys, model_kw):
    """A model no machine can hold is one error line and exit 2.  Each size
    is far beyond any address space, so the first allocation fails at once."""
    doc = experiment_doc(lv_data, tmp_path / "out", **model_kw)
    cfg = write_config(tmp_path / "exp.json", doc)
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="physical memory is not known")
def test_train_layers_past_memory_exit_2_at_once(tmp_path, lv_data, capsys):
    """2**70 layers of a small model fit no machine's memory: init_params
    refuses them before drawing the first layer."""
    cfg = write_config(tmp_path / "exp.json",
                       experiment_doc(lv_data, tmp_path / "out", layers=2 ** 70))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert cli.main(["train", "--config", cfg]) == 2
    assert time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory"), err
    assert not (tmp_path / "out").exists()


def test_train_missing_config_file(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_per_process_table(run_dir, lv_data, capsys):
    code = cli.main(["eval", "--checkpoint",
                     str(run_dir / cli.CHECKPOINT_FILENAME),
                     "--data", str(lv_data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "process 0 (u)" in out
    assert "process 1 (v)" in out
    assert "aggregate" in out


def test_eval_refuses_other_system(run_dir, bz_data, capsys):
    code = cli.main(["eval", "--checkpoint",
                     str(run_dir / cli.CHECKPOINT_FILENAME),
                     "--data", str(bz_data)])
    err = capsys.readouterr().err
    assert code == 1
    assert "data_signature=" in err  # names both hashes
    assert err.count("=") >= 2


def test_eval_refuses_other_resolution(run_dir, tmp_path, capsys):
    code = cli.main(["gen-data", "--system", "lv", "--n", "1",
                     "--resolution", "64", "--seed", "9",
                     "--out", str(tmp_path)] + GEN_LV)
    assert code == 0
    code = cli.main(["eval", "--checkpoint",
                     str(run_dir / cli.CHECKPOINT_FILENAME),
                     "--data", str(tmp_path)])
    assert code == 1


def test_eval_accepts_freshly_drawn_test_set(run_dir, tmp_path):
    # same system, new seed: still statistically compatible
    code = cli.main(["gen-data", "--system", "lv", "--n", "2",
                     "--resolution", "32", "--seed", "777",
                     "--out", str(tmp_path)] + GEN_LV)
    assert code == 0
    assert cli.main(["eval", "--checkpoint",
                     str(run_dir / cli.CHECKPOINT_FILENAME),
                     "--data", str(tmp_path)]) == 0


def test_eval_dumps_error_fields(run_dir, lv_data, tmp_path):
    dump = tmp_path / "errors"
    code = cli.main(["eval", "--checkpoint",
                     str(run_dir / cli.CHECKPOINT_FILENAME),
                     "--data", str(lv_data),
                     "--dump-error-fields", str(dump)])
    assert code == 0
    header, fields = D.read_fields(dump / "error_fields.cmpd")
    assert header["groups"] == ["error"]
    assert header["samples"] == 6
    assert fields[0][0].shape == (6, 1, 32)
    assert np.all(fields[0][0] >= 0)
    meta = D.read_manifest(dump / D.MANIFEST_FILENAME)
    assert meta["data_signature"] == cli.data_signature(
        D.read_manifest(lv_data / D.MANIFEST_FILENAME))
    assert (meta["format"], meta["version"]) == ("CMPLDATA", 1)


def test_eval_tables_and_error_fields_do_not_depend_on_threads(
        run_dir, lv_data, tmp_path, monkeypatch, capsys):
    """Batches of 4 and 2 samples (the element budget cut to fit 4), scored on
    one thread and on two, print the same table and dump the same bytes."""
    monkeypatch.setattr(TR, "EVAL_BUDGET", 8 * 32 * 4)    # width 8, 32 points
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("COMPOL_THREADS", threads)
        dump = tmp_path / f"errors-{threads}"
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(run_dir / cli.CHECKPOINT_FILENAME),
                         "--data", str(lv_data), "--dump-error-fields", str(dump)]) == 0
        table = capsys.readouterr().out.replace(str(dump), "DIR")
        outputs.append((table, (dump / "error_fields.cmpd").read_bytes(),
                        (dump / D.MANIFEST_FILENAME).read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["eval", "gen-data"])
def test_non_integer_compol_threads_exits_2(command, run_dir, lv_data, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.setenv("COMPOL_THREADS", "abc")
    argv = (["eval", "--checkpoint", str(run_dir / cli.CHECKPOINT_FILENAME),
             "--data", str(lv_data)] if command == "eval" else
            ["gen-data", "--system", "lv", "--n", "1", "--resolution", "32",
             "--seed", "1", "--out", str(tmp_path / "data")] + GEN_LV)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: COMPOL_THREADS must be an integer, got 'abc'"]
    assert captured.out == ""


def test_attend_history_false_loads_and_true_exits_2(run_dir, lv_data, tmp_path, capsys):
    """Configs and checkpoints from before the attend_history field was
    removed carry ``attend_history: false``: they load and score the same.
    ``true`` is refused by eval and by train."""
    ckpt = str(run_dir / cli.CHECKPOINT_FILENAME)
    header, table = D.read_checkpoint(ckpt)
    assert "attend_history" not in header["config"]

    def legacy(value):
        path = tmp_path / f"legacy-{value}.ckpt"
        D.write_checkpoint(path, {**header, "config": {**header["config"],
                                                       "attend_history": value}},
                           list(table.items()))
        return str(path)

    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", str(lv_data)]) == 0
    want = capsys.readouterr().out
    assert cli.main(["eval", "--checkpoint", legacy(False), "--data", str(lv_data)]) == 0
    assert capsys.readouterr().out == want
    assert cli.main(["eval", "--checkpoint", legacy(True), "--data", str(lv_data)]) == 2
    assert "attend_history" in capsys.readouterr().err

    doc = experiment_doc(lv_data, tmp_path / "out", aggregation="attention",
                         attend_history=True)
    assert cli.main(["train", "--config", write_config(tmp_path / "exp.json", doc)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "attend_history" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dump", [False, True], ids=["table", "dump-error-fields"])
def test_eval_refuses_an_empty_dataset(run_dir, tmp_path, capsys, dump):
    """A test set of 0 samples has no error to report: one line and exit 2."""
    empty = tmp_path / "empty"
    assert cli.main(["gen-data", "--system", "lv", "--n", "0", "--resolution", "32",
                     "--seed", "9", "--out", str(empty)] + GEN_LV) == 0
    argv = ["eval", "--checkpoint", str(run_dir / cli.CHECKPOINT_FILENAME), "--data", str(empty)]
    capsys.readouterr()
    assert cli.main(argv + (["--dump-error-fields", str(tmp_path / "dump")] if dump else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dataset {empty} has no samples to score\n"
    assert not (tmp_path / "dump").exists()


def test_eval_missing_checkpoint(tmp_path, lv_data):
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--data", str(lv_data)]) == 2


# ---------------------------------------------------------------------------
# export-plot


def test_export_plot_single_run_curves(run_dir, tmp_path):
    out = tmp_path / "curves.csv"
    assert cli.main(["export-plot", "--run", str(run_dir),
                     "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("epoch,lr,train_loss,test_aggregate,"
                        "test_p0,test_p1,config_hash")
    assert len(lines) == 3  # header + 2 epochs
    resolved = json.loads((run_dir / cli.CONFIG_FILENAME).read_text())
    assert lines[1].endswith(resolved["config_hash"])
    # byte-identical on a second export
    out2 = tmp_path / "curves2.csv"
    cli.main(["export-plot", "--run", str(run_dir),
              "--format", "csv", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_export_plot_comparison_merges_by_model_and_size(
        run_dir, lv_data, tmp_path, capsys):
    # second run of the same model: same (model, n_train) cell
    cfg = write_config(tmp_path / "exp.json",
                       experiment_doc(lv_data, tmp_path / "again"))
    assert cli.main(["train", "--config", cfg]) == 0
    # and one baseline run for a second row
    cfg2 = write_config(tmp_path / "exp2.json",
                        experiment_doc(lv_data, tmp_path / "base"))
    assert cli.main(["train", "--config", cfg2, "--model", "fno-c"]) == 0
    capsys.readouterr()
    assert cli.main(["export-plot", "--format", "csv",
                     "--run", str(run_dir),
                     "--run", str(tmp_path / "again"),
                     "--run", str(tmp_path / "base")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "model,n_train,runs,mean_err,std_err"
    assert len(lines) == 3
    cells = {tuple(l.split(",")[:3]) for l in lines[1:]}
    assert ("compol-rnn", "4", "2") in cells
    assert ("fno-c", "4", "1") in cells


def test_export_plot_missing_run(tmp_path):
    assert cli.main(["export-plot", "--run", str(tmp_path / "ghost"),
                     "--format", "csv"]) == 2


_HEAD = {"kind": "run", "best_err": 0.5, "config_hash": "abc"}
_EPOCH = {"kind": "epoch", "epoch": 0, "lr": 1e-3, "train_loss": 0.9,
          "test_err": [0.4, 0.6], "test_aggregate": 0.5}


@pytest.mark.parametrize("lines", [
    [{"format": 1}],
    [[1, 2]],
    [_HEAD, 7],
    [_HEAD, {k: v for k, v in _EPOCH.items() if k != "test_err"}],
    [_HEAD, dict(_EPOCH, test_err="x")],
    [{"kind": "run"}],
    [_HEAD, _EPOCH, dict(_EPOCH, epoch=1, test_err=[0.5])],
], ids=["not-a-head", "head-not-an-object", "line-not-an-object",
        "epoch-without-test_err", "test_err-not-a-list", "head-without-best_err",
        "test_err-lengths-differ"])
def test_export_plot_malformed_run_record(tmp_path, capsys, lines):
    (tmp_path / cli.RECORD_FILENAME).write_text(
        "".join(json.dumps(line) + "\n" for line in lines))
    assert cli.main(["export-plot", "--run", str(tmp_path), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err


def test_export_plot_checks_the_config_copy(run_dir, tmp_path, capsys):
    """A comparison reads the model kind and n_train from config.json where the
    head lacks them; a config.json that is no experiment config exits 2."""
    for name in (cli.RECORD_FILENAME, cli.CONFIG_FILENAME):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    head, *rest = (tmp_path / cli.RECORD_FILENAME).read_text().splitlines()
    head = {k: v for k, v in json.loads(head).items() if k not in ("model_kind", "n_train")}
    (tmp_path / cli.RECORD_FILENAME).write_text("\n".join([json.dumps(head)] + rest) + "\n")
    argv = ["export-plot", "--run", str(run_dir), "--run", str(tmp_path), "--format", "csv"]
    assert cli.main(argv) == 0
    assert "compol-rnn,4,2," in capsys.readouterr().out
    for bad in ([1, 2], {"model": {}, "train": {"epochs": 1}, "data": 5}):
        (tmp_path / cli.CONFIG_FILENAME).write_text(json.dumps(bad))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1, captured.err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_tensor_module(capsys):
    assert cli.main(["gradcheck", "--module", "tensor"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_gradcheck_sets_glibc_thresholds_before_its_sweeps(monkeypatch):
    """As ``train`` and ``eval`` do, so the tape's freed blocks are reused
    and not faulted in again by the next check."""
    from compol import gradcheck as G
    events = []

    def mallopt(param, value):
        events.append((param, value))
        return 1

    def sweeps(module):
        events.append(("run", module))
        return [], True

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(G, "run", sweeps)
    assert cli.main(["gradcheck", "--module", "tensor"]) == 0
    assert events == [(-1, 256 << 20), (-3, 32 << 20), ("run", "tensor")]  # M_TRIM_, M_MMAP_THRESHOLD


# ---------------------------------------------------------------------------
# interrupts


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_ctrl_c_is_one_error_line_and_exit_1(command, lv_data, tmp_path, monkeypatch, capsys):
    """The KeyboardInterrupt that Ctrl-C raises inside a command ends it
    with one line and code 1, a run that did not finish: no traceback."""
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    if command == "gen-data":
        monkeypatch.setattr(cli.D, "generate_dataset", interrupted)
        argv = ["gen-data", "--system", "lv", "--n", "2", "--resolution", "32",
                "--seed", "1", "--out", str(tmp_path / "data")]
    else:
        monkeypatch.setattr(TR, "train", interrupted)
        doc = experiment_doc(lv_data, tmp_path / "run")
        argv = ["train", "--config", write_config(tmp_path / "exp.json", doc)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"


def test_main_handles_sigterm_only_while_a_command_runs(monkeypatch):
    """SIGTERM during a command ends it as Ctrl-C does; the handler in place
    before (here a recorder, so a regression cannot kill the test run) is
    put back on return."""
    received = []
    before = signal.signal(signal.SIGTERM, lambda *args: received.append(args))

    def command(args):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(1)   # the handler interrupts this wait
        return 0

    monkeypatch.setattr(cli, "cmd_gradcheck", command)
    try:
        code = cli.main(["gradcheck"])
        restored = signal.getsignal(signal.SIGTERM)
    finally:
        recorder = signal.signal(signal.SIGTERM, before)
    assert (code, received) == (1, [])
    assert restored is recorder


# the child: compol's main, with a marker file touched once the command is
# under way (in a pool worker for gen-data, after an epoch for train)
_SIGNAL_CHILD = """
import functools, os, signal, sys
from pathlib import Path
from compol import cli, datagen, training

def touching(real):
    @functools.wraps(real)
    def wrapped(*args, **kwargs):   # records the signal actions it runs under
        # whole or not at all: both pool workers write the marker, and either
        # may be killed halfway through
        part = Path(f"{sys.argv[1]}.{os.getpid()}")
        part.write_text(
            " ".join(repr(signal.getsignal(s)) for s in (signal.SIGINT, signal.SIGTERM)))
        os.replace(part, sys.argv[1])
        return real(*args, **kwargs)
    return wrapped

datagen._generate_chunk = touching(datagen._generate_chunk)
training.evaluate = touching(training.evaluate)
raise SystemExit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize("signum,to_group", [(signal.SIGINT, True), (signal.SIGTERM, False),
                                              (signal.SIGTERM, True)],
                         ids=["SIGINT-to-the-group", "SIGTERM-to-compol", "SIGTERM-to-the-group"])
def test_signals_end_in_one_error_line_and_leave_no_process(command, signum, to_group,
                                                             lv_data, tmp_path):
    """Ctrl-C (SIGINT to the whole process group, as a terminal sends it) and
    SIGTERM to compol alone each end a run with exit 1 and one line, no
    traceback from compol or its gen-data workers, and no process of the
    session left behind.  The child runs in its own session with at most two
    pool workers (``COMPOL_THREADS=2``); every wait is bounded, and the
    session is killed whatever happens."""
    if command == "gen-data":   # bz at its defaults: two rounds of 8-sample chunks
        argv = ["gen-data", "--system", "bz", "--n", "32", "--resolution", "256",
                "--seed", "1", "--out", str(tmp_path / "data")]
    else:                       # far more epochs than the test waits for
        doc = experiment_doc(lv_data, tmp_path / "run")
        doc["train"]["epochs"] = 100000
        argv = ["train", "--config", write_config(tmp_path / "exp.json", doc)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "COMPOL_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    ready = tmp_path / "ready"
    proc = subprocess.Popen([sys.executable, "-c", _SIGNAL_CHILD, str(ready), *argv],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while not ready.exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "the command never got under way"
            time.sleep(0.02)
        if to_group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1, err
        assert err == "error: interrupted\n"
        with pytest.raises(ProcessLookupError):    # the session is empty
            os.killpg(proc.pid, 0)
        if command == "gen-data":   # the workers leave both signals to compol
            assert ready.read_text() == f"{signal.SIG_IGN!r} {signal.SIG_DFL!r}"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate(timeout=10)


# ---------------------------------------------------------------------------
# crash points: every file is written whole or not at all


_READERS = {"data.cmpd": D.read_fields, "error_fields.cmpd": D.read_fields,
            "manifest.json": D.read_manifest, "checkpoint.ckpt": D.read_checkpoint,
            "run.jsonl": TR.read_run_record, "config.json": cli.load_experiment_config}


def _crash_case(command, lv_data, run_dir, tmp_path):
    """The output directory, and two runs of ``command`` that write different bytes there."""
    out = tmp_path / "out"
    if command == "gen-data":
        base = ["gen-data", "--system", "lv", "--n", "2", "--resolution", "32",
                "--out", str(out)] + GEN_LV
        return out, base + ["--seed", "9"], base + ["--seed", "10"]
    if command == "train":
        argvs = []
        for seed in (0, 1):
            doc = experiment_doc(lv_data, out, seed=seed)
            argvs.append(["train", "--config", write_config(tmp_path / f"{seed}.json", doc)])
        return out, *argvs
    if command == "eval":
        other = tmp_path / "other_run"
        doc = experiment_doc(lv_data, other, seed=1)
        assert cli.main(["train", "--config", write_config(tmp_path / "1.json", doc)]) == 0
        return out, *[["eval", "--checkpoint", str(run / cli.CHECKPOINT_FILENAME),
                       "--data", str(lv_data), "--dump-error-fields", str(out)]
                      for run in (run_dir, other)]
    base = ["export-plot", "--format", "csv", "--out", str(out / "plot.csv")]
    out.mkdir()
    return out, base + ["--run", str(run_dir)], base + ["--run", str(run_dir)] * 2


def _tear_write(monkeypatch, k, calls):
    """Record each ``write_file`` call's file name; the k-th (from 1) raises
    ``KeyboardInterrupt`` after half of its bytes have been written."""
    real = D.write_file

    def write_file(path, chunks):
        calls.append(os.path.basename(path))
        if len(calls) == k:
            data = b"".join(bytes(c) for c in chunks)

            def torn():
                yield data[:len(data) // 2]
                raise KeyboardInterrupt
            chunks = torn()
        real(path, chunks)

    for module in (D, cli, TR):
        if hasattr(module, "write_file"):
            monkeypatch.setattr(module, "write_file", write_file)


def _files(directory):
    """Each file's bytes, with the run record's wall times zeroed."""
    return {p.name: re.sub(rb'"wall_ms": [0-9.e+-]+', b'"wall_ms": 0', p.read_bytes())
            for p in directory.iterdir()}


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-an-earlier-run"])
@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "export-plot"])
def test_a_crash_in_any_write_leaves_only_whole_files(command, earlier, lv_data, run_dir,
                                                      tmp_path, monkeypatch, capsys):
    """Interrupt each of a command's writes in turn, halfway through its
    bytes.  The files written before it hold the new run's bytes, the one
    torn and those after it hold the earlier run's (or are absent), every
    file left passes its reader, and no temp sibling is left."""
    out, first, second = _crash_case(command, lv_data, run_dir, tmp_path)
    assert cli.main(first) == 0
    old = _files(out)
    calls = []
    with monkeypatch.context() as m:
        _tear_write(m, 0, calls)
        assert cli.main(second) == 0
    new = _files(out)
    assert sorted(calls) == sorted(new) and all(old[name] != new[name] for name in new)
    capsys.readouterr()
    for k in range(1, len(calls) + 1):
        for path in out.iterdir():
            path.unlink()
        for name, raw in (old.items() if earlier else ()):
            (out / name).write_bytes(raw)
        with monkeypatch.context() as m:
            _tear_write(m, k, [])
            assert cli.main(second) == 1
        assert capsys.readouterr().err == "error: interrupted\n"
        want = {name: new[name] for name in calls[:k - 1]}
        want.update({name: old[name] for name in calls[k - 1:] if earlier})
        assert _files(out) == want, (k, calls[k - 1])
        for name in want:
            if name in _READERS:
                _READERS[name](str(out / name))
