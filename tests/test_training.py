"""Optimizer, loss, schedule, and the mini-batch training harness.

The optimizer is checked against closed forms and a hand-rolled scalar
replica; the harness against a small synthetic low-pass regression task
whose dataset goes through the real on-disk container.
"""

import ctypes
import gc
import math
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from compol import dataio as D
from compol import model as M
from compol import params as P
from compol import tensor as T
from compol import training as TR


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_closed_form():
    p = np.array([1.0])
    g = np.array([0.5])
    state = TR.AdamState()
    TR.adam_step([("p", p)], {"p": g}, state, lr=0.1)
    # bias correction makes the first update lr * g / (|g| + eps)
    want = 1.0 - 0.1 * 0.5 / (0.5 + state.eps)
    assert abs(p[0] - want) < 1e-14


def test_adam_three_steps_match_scalar_replica():
    p = np.array([0.7])
    state = TR.AdamState()
    gs = [0.5, -0.2, 0.1]
    for g in gs:
        TR.adam_step([("p", p)], {"p": np.array([g])}, state, lr=0.05)

    q, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate(gs, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        c1, c2 = 1 - 0.9**t, 1 - 0.999**t
        q -= (0.05 / c1) * m / (math.sqrt(v / c2) + 1e-8)
    assert abs(p[0] - q) < 1e-14


def test_adam_complex_parameters():
    # second moment accumulates |g|^2; first step is lr * g / (|g| + eps)
    p = np.array([1.0 + 1.0j])
    g = np.array([0.3 - 0.4j])
    state = TR.AdamState()
    TR.adam_step([("p", p)], {"p": g.copy()}, state, lr=0.01)
    want = (1.0 + 1.0j) - 0.01 * (0.3 - 0.4j) / (0.5 + state.eps)
    assert abs(p[0] - want) < 1e-14
    assert state.v["p"].dtype == np.float64


def test_adam_zero_gradient_leaves_parameter_alone():
    a, b = np.array([2.0]), np.array([3.0])
    state = TR.AdamState()
    TR.adam_step([("a", a), ("b", b)], {"a": np.array([1.0]), "b": np.array([0.0])},
                 state, lr=0.1)
    assert a[0] != 2.0
    assert b[0] == 3.0


def test_adam_preserves_dtype():
    p = np.ones(3, dtype=np.float32)
    state = TR.AdamState()
    TR.adam_step([("p", p)], {"p": np.ones(3, dtype=np.float64)}, state, lr=0.1)
    assert p.dtype == np.float32


def test_adam_rejects_non_finite_gradient():
    p = np.array([1.0])
    with pytest.raises(TR.TrainingError, match="'layers.0.w'"):
        TR.adam_step([("layers.0.w", p)], {"layers.0.w": np.array([np.inf])},
                     TR.AdamState(), lr=0.1)


def test_cosine_schedule_endpoints():
    assert TR.cosine_lr(0, 10, 1e-3) == 1e-3
    assert TR.cosine_lr(10, 10, 1e-3) < 1e-18
    assert abs(TR.cosine_lr(5, 10, 1e-3) - 5e-4) < 1e-18
    assert TR.cosine_lr(0, 0, 1e-3) == 1e-3
    with pytest.raises(ValueError):
        TR.cosine_lr(11, 10, 1e-3)
    with pytest.raises(ValueError):
        TR.cosine_lr(-1, 10, 1e-3)


# ---------------------------------------------------------------------------
# loss pieces


def test_relative_l2_known_values():
    pred = np.array([[2.0, 0.0], [1.0, 1.0]])
    target = np.array([[1.0, 0.0], [1.0, 1.0]])
    errs, fb = TR.relative_l2(pred, target)
    assert np.allclose(errs, [1.0, 0.0])
    assert not fb.any()


def test_relative_l2_zero_target_falls_back_to_absolute():
    pred = np.array([[3.0, 4.0], [1.0, 0.0]])
    target = np.array([[0.0, 0.0], [1.0, 0.0]])
    errs, fb = TR.relative_l2(pred, target)
    assert list(fb) == [True, False]
    assert errs[0] == 5.0  # plain norm when the target vanishes


def test_relative_l2_shape_mismatch():
    with pytest.raises(Exception):
        TR.relative_l2(np.zeros((2, 3)), np.zeros((2, 4)))


def test_standardize_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 2, 16)).astype(np.float32)
    entry = {"mean": [3.1, 2.9], "std": [2.4, 2.6]}
    z = TR.standardize(x, entry)
    back = TR.destandardize(z.astype(np.float64), entry)
    assert z.dtype == np.float32
    assert np.abs(back - x).max() < 1e-5
    assert abs(z.mean()) < 0.2  # roughly centered


# ---------------------------------------------------------------------------
# harness on a synthetic task


def lowpass_dataset(tmp_path, n=24, grid=32, processes=1, seed=42):
    """Inputs are white noise, outputs their 4-mode low-pass: linear and
    easily learnable by a small spectral model."""
    rng = np.random.default_rng(seed)
    inputs, outputs = [], []
    for _ in range(processes):
        x = rng.normal(size=(n, 1, grid)).astype(np.float32)
        coef = np.fft.rfft(x.astype(np.float64), axis=-1)
        coef[..., 5:] = 0
        y = np.fft.irfft(coef, grid, axis=-1).astype(np.float32)
        inputs.append(x)
        outputs.append(y)
    D.write_dataset(tmp_path, inputs, outputs, {"system": {"system": "synthetic"}})
    return D.load_dataset(tmp_path)


def small_config(**kw):
    base = dict(processes=1, channels=[1], layers=2, width=8, modes=8,
                aggregation="none", seed=0)
    base.update(kw)
    return M.CompolConfig(**base)


def test_training_reduces_loss(tmp_path):
    ds = lowpass_dataset(tmp_path)
    res = TR.train(small_config(), ds.subset(np.arange(16)),
                   ds.subset(np.arange(16, 24)), epochs=30, batch_size=8, lr=3e-3)
    assert len(res.records) == 30
    assert res.records[0].train_loss > 0.9
    assert res.records[-1].train_loss < 0.5
    assert res.best_err < 0.6
    assert res.best_err == min(r.test_aggregate for r in res.records)
    # cosine schedule actually decays
    assert res.records[0].lr == 3e-3
    assert res.records[-1].lr < 3e-4


@pytest.mark.parametrize("aggregation", ["none", "gru", "attention", "skip"])
def test_real32_step_keeps_gradients_single_precision(tmp_path, aggregation):
    """The loss's backward stays in float32: no cotangent is promoted."""
    ds = lowpass_dataset(tmp_path, n=4, grid=16, processes=2)
    config = small_config(processes=2, channels=[1, 1], modes=4, aggregation=aggregation)
    model = M.init_params(config)
    stats = ds.manifest["stats"]
    xs, ys = TR._model_inputs(ds, stats, np.arange(4), np.float32, "direct")
    tape = T.Tape()
    bound = P.bind(model, tape)
    loss = TR._batch_loss(M.forward(bound, xs, tape), ys, stats["output"], np.float32)
    grads = T.backward(tape, loss)
    dtypes = {name: grads[leaf].dtype for name, leaf in P.named_tensors(bound)}
    assert set(dtypes.values()) <= {np.dtype(np.float32), np.dtype(np.complex64)}, dtypes


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("kind", M.MODEL_KINDS)
def test_training_step_leaves_no_reference_cycle(tmp_path, monkeypatch, gc_off, kind):
    """After one step at c07's architecture (2 processes, width 32, modes 12,
    4 layers), every forward value is freed by reference count alone."""
    ds = lowpass_dataset(tmp_path, n=2, grid=32, processes=2)
    config = M.config_for_kind(kind, M.CompolConfig(processes=2, channels=[1, 1], layers=4,
                                                    width=32, modes=12, seed=0))
    model = M.init_params(config)
    mode = TR._channel_mode(config, ds)
    stats = ds.manifest["stats"]
    out_stats = [TR._stacked_entry(stats["output"])] if mode == "stacked" else stats["output"]
    xs, ys = TR._model_inputs(ds, stats, np.arange(2), np.float32, mode)
    probes = []    # Tensor has no __weakref__ slot, so probe the arrays
    record = T._record

    def probing(name, out, inputs, fn):
        t = record(name, out, inputs, fn)
        probes.append(weakref.ref(t.data))
        return t

    monkeypatch.setattr(T, "_record", probing)
    gc.collect()

    tape = T.Tape()
    bound = P.bind(model, tape)
    loss = TR._batch_loss(M.forward(bound, xs, tape), ys, out_stats, np.float32)
    grads = T.backward(tape, loss)
    by_name = {name: grads[leaf] for name, leaf in P.named_tensors(bound)}
    TR.adam_step(model.named_parameters(), by_name, TR.AdamState(), 1e-3)
    del tape, bound, loss, grads, by_name

    assert len(probes) > 20
    assert [r for r in probes if r() is not None] == []
    assert gc.collect() == 0


def test_train_leaves_no_tape_behind(tmp_path, gc_off):
    """With the collector off, a tape in a cycle would still be listed."""
    ds = lowpass_dataset(tmp_path, n=8, grid=16, processes=2)
    config = small_config(processes=2, channels=[1, 1], modes=4, aggregation="gru")

    def tape_objects():
        return [o for o in gc.get_objects() if isinstance(o, (T.Tape, T._Node))]

    gc.collect()
    before = len(tape_objects())
    TR.train(config, ds, epochs=1, batch_size=4)
    assert len(tape_objects()) == before


class _Mallopt:
    argtypes = restype = None

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_train_sets_glibc_thresholds_and_runs_without_them(tmp_path, monkeypatch):
    ds = lowpass_dataset(tmp_path, n=8)
    mallopt = _Mallopt()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    want = TR.train(small_config(), ds, epochs=2, batch_size=4)
    assert mallopt.calls == [(-1, 256 << 20), (-3, 32 << 20)]    # M_TRIM_, M_MMAP_THRESHOLD
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert mallopt.restype is ctypes.c_int

    def refuse(name):
        raise OSError("no C library")

    # a C library without mallopt (as on macOS), or none that loads
    for cdll in (lambda name: types.SimpleNamespace(), refuse):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        got = TR.train(small_config(), ds, epochs=2, batch_size=4)
        assert [r.test_err for r in got.records] == [r.test_err for r in want.records]
        for name, arr in want.best_params.items():
            assert np.array_equal(got.best_params[name], arr), name


def test_training_is_deterministic(tmp_path):
    ds = lowpass_dataset(tmp_path, n=12)
    runs = [TR.train(small_config(), ds, epochs=3, batch_size=4, lr=1e-3, seed=5)
            for _ in range(2)]
    a, b = runs
    assert a.config_hash == b.config_hash
    for ra, rb in zip(a.records, b.records):
        da, db = ra.to_dict(), rb.to_dict()
        da.pop("wall_ms"), db.pop("wall_ms")  # timing may differ, results not
        assert da == db
    for name in a.best_params:
        assert np.array_equal(a.best_params[name], b.best_params[name])


def test_zero_learning_rate_changes_nothing(tmp_path):
    ds = lowpass_dataset(tmp_path, n=8)
    cfg = small_config()
    res = TR.train(cfg, ds, epochs=2, batch_size=4, lr=0.0)
    fresh = M.init_params(cfg)
    for (name, arr), (_, want) in zip(res.model.named_parameters(),
                                      fresh.named_parameters()):
        assert np.array_equal(arr, want), name


def test_zero_epochs_returns_initialization(tmp_path):
    ds = lowpass_dataset(tmp_path, n=8)
    res = TR.train(small_config(), ds, epochs=0)
    assert res.records == []
    assert res.best_epoch == 0 and res.best_err == 0.0
    fresh = dict(M.init_params(res.config).named_parameters())
    for name, arr in res.best_params.items():
        assert np.array_equal(arr, fresh[name])


def test_train_loss_equals_eval_metric_when_frozen(tmp_path):
    # with lr=0 and batches that split the data evenly, the optimizer's
    # loss and the reported metric are the same statistic
    ds = lowpass_dataset(tmp_path, n=8)
    res = TR.train(small_config(), ds, epochs=1, batch_size=4, lr=0.0)
    rec = res.records[0]
    assert abs(rec.train_loss - rec.test_aggregate) < 1e-5


def test_best_model_restores_best_epoch_parameters(tmp_path):
    ds = lowpass_dataset(tmp_path, n=12)
    res = TR.train(small_config(), ds, epochs=4, batch_size=4, lr=3e-3)
    best = res.best_model()
    for name, arr in best.named_parameters():
        assert np.array_equal(arr, res.best_params[name]), name
    # and those parameters really achieve the recorded error
    ev = TR.evaluate(best, ds)
    assert abs(ev.aggregate - res.best_err) < 1e-12


def test_non_finite_loss_aborts(tmp_path):
    ds = lowpass_dataset(tmp_path, n=8)
    poisoned = D.FieldDataset(
        [np.where(np.arange(8)[:, None, None] == 3, np.nan, x)
         .astype(np.float32) for x in ds.inputs],
        ds.outputs, ds.manifest)
    with pytest.raises(TR.TrainingError, match="non-finite loss"):
        TR.train(small_config(), poisoned, epochs=1, batch_size=8)


def test_train_validates_arguments(tmp_path):
    ds = lowpass_dataset(tmp_path, n=8)
    with pytest.raises(ValueError):
        TR.train(small_config(), ds, epochs=1, batch_size=0)
    with pytest.raises(TR.TrainingError, match="channels"):
        TR.train(small_config(channels=[3]), ds, epochs=1)


def test_missing_stats_refused():
    x = [np.zeros((2, 1, 8), dtype=np.float32)]
    ds = D.FieldDataset(x, x, {"stats": None})
    with pytest.raises(TR.TrainingError, match="stats"):
        TR.train(small_config(), ds, epochs=1)


# ---------------------------------------------------------------------------
# stacked single-branch mode (channel-concatenated baseline)


def test_stacked_mode_trains_and_reports_per_process(tmp_path):
    ds = lowpass_dataset(tmp_path, n=12, processes=2)
    base = small_config(processes=2, channels=[1, 1], aggregation="gru")
    cfg = M.config_for_kind("fno-c", base)
    assert TR._channel_mode(cfg, ds) == "stacked"
    res = TR.train(cfg, ds, epochs=2, batch_size=4, lr=1e-3)
    assert len(res.records[0].test_err) == 2  # metrics per dataset process
    ev = TR.evaluate(res.best_model(), ds)
    assert len(ev.per_process) == 2
    assert ev.aggregate == pytest.approx(np.mean(ev.per_process))


def test_stacked_mode_predictions_split_like_the_joint_field(tmp_path):
    ds = lowpass_dataset(tmp_path, n=6, processes=2)
    cfg = M.config_for_kind("fno-c", small_config(processes=2, channels=[1, 1]))
    model = M.init_params(cfg)
    ev = TR.evaluate(model, ds, error_fields=True)
    assert len(ev.error_fields) == 2
    for m in range(2):
        assert ev.error_fields[m].shape == (6, 1, 32)
        assert ev.per_sample[m].shape == (6,)


def test_channel_mode_mismatch_refused(tmp_path):
    ds = lowpass_dataset(tmp_path, n=4, processes=2)
    with pytest.raises(TR.TrainingError, match="do not match"):
        TR._channel_mode(small_config(processes=1, channels=[3]), ds)


# ---------------------------------------------------------------------------
# evaluation details


def test_evaluate_zero_target_sets_fallback_flag(tmp_path):
    x = [np.random.default_rng(0).normal(size=(3, 1, 16)).astype(np.float32)]
    y = [np.zeros((3, 1, 16), dtype=np.float32)]
    D.write_dataset(tmp_path, x, y, {})
    ds = D.load_dataset(tmp_path)
    ev = TR.evaluate(M.init_params(small_config(modes=4, width=4)), ds)
    assert ev.absolute_fallback


def test_evaluate_batching_invariant(tmp_path):
    ds = lowpass_dataset(tmp_path, n=10)
    model = M.init_params(small_config())
    a = TR.evaluate(model, ds, batch_size=3)
    b = TR.evaluate(model, ds, batch_size=10)
    assert np.allclose(a.per_sample[0], b.per_sample[0], atol=1e-12)


def test_evaluate_default_batch_from_element_budget(tmp_path, monkeypatch):
    """Without a batch size, each batch holds EVAL_BUDGET latent elements
    (batch x width x grid points) at most."""
    ds = lowpass_dataset(tmp_path, n=24, grid=32)
    model = M.init_params(small_config(width=8))
    assert TR.EVAL_BUDGET // (8 * 32) >= 24      # the default fits this set in one batch
    monkeypatch.setattr(TR, "EVAL_BUDGET", 8 * 32 * 5 + 7)
    batches = []
    forward = M.forward
    monkeypatch.setattr(M, "forward", lambda m, xs, tape: batches.append(len(xs[0])) or
                        forward(m, xs, tape))
    ev = TR.evaluate(model, ds)
    assert batches == [5, 5, 5, 5, 4]
    whole = TR.evaluate(model, ds, batch_size=24)
    assert np.allclose(ev.per_sample[0], whole.per_sample[0], atol=1e-12)


def test_evaluate_workers_give_identical_bits(tmp_path):
    """Batches are fixed by the batch size, not the thread count: 11 samples in
    batches of 3 (the last one short) score the same bits on 1, 2 and 3
    threads, with the interpreter switching threads every 10 us."""
    ds = lowpass_dataset(tmp_path, n=11, processes=2)
    model = M.init_params(small_config(processes=2, channels=[1, 1]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [TR.evaluate(model, ds, batch_size=3, error_fields=True, workers=w)
                for w in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    want = runs[0]
    assert [len(e) for e in want.per_sample] == [11, 11]
    for got in runs[1:]:
        assert got.per_process == want.per_process
        for a, b in zip(got.per_sample + got.error_fields,
                        want.per_sample + want.error_fields):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_evaluate_batch_error_reaches_caller_and_cancels_the_rest(tmp_path, monkeypatch):
    """Later batches wait until the pool has cancelled its queue, so each of
    the two workers holds at most one batch then, however late the caller
    is scheduled."""
    ds = lowpass_dataset(tmp_path, n=40)
    model = M.init_params(small_config())
    boom = RuntimeError("batch failed")
    calls = []
    lock = threading.Lock()
    forward = M.forward
    cancelled = threading.Event()

    class SignallingPool(TR.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            cancelled.set()
            super().shutdown(wait=wait)

    def failing_first(m, xs, tape):
        with lock:
            calls.append(len(xs[0]))
            first = len(calls) == 1
        if first:
            raise boom
        cancelled.wait(timeout=30)
        return forward(m, xs, tape)

    monkeypatch.setattr(TR, "ThreadPoolExecutor", SignallingPool)
    monkeypatch.setattr(M, "forward", failing_first)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        TR.evaluate(model, ds, batch_size=1, workers=2)
    assert info.value is boom
    assert len(calls) <= 4            # the 36 or more batches not yet started never ran
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# records and cross-validation


def test_run_record_roundtrip(tmp_path):
    ds = lowpass_dataset(tmp_path / "data", n=8)
    res = TR.train(small_config(), ds, epochs=2, batch_size=4)
    path = tmp_path / "run.jsonl"
    TR.write_run_record(path, res, extra_head={"n_train": 8})
    head, epochs = TR.read_run_record(path)
    assert head["kind"] == "run"
    assert head["seed"] == res.seed
    assert head["config_hash"] == res.config_hash
    assert head["n_train"] == 8
    assert head["best_epoch"] == res.best_epoch
    assert len(epochs) == 2
    assert epochs[1]["train_loss"] == res.records[1].train_loss


def test_read_run_record_rejects_other_files(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"kind": "epoch"}\n')
    with pytest.raises(TR.TrainingError):
        TR.read_run_record(path)


def test_cross_validation_structure(tmp_path):
    ds = lowpass_dataset(tmp_path, n=6)
    cv = TR.cross_validate(small_config(), ds, folds=3, epochs=1, batch_size=4)
    assert len(cv.fold_results) == 3
    assert cv.mean == pytest.approx(np.mean(cv.fold_errors))
    assert cv.std == pytest.approx(np.std(cv.fold_errors))
    # folds train on disjoint seeds and splits
    seeds = {r.seed for r in cv.fold_results}
    assert len(seeds) == 3
    sizes = [r.records[0].test_err for r in cv.fold_results]
    assert len(sizes) == 3


def test_cross_validation_bounds(tmp_path):
    ds = lowpass_dataset(tmp_path, n=4)
    with pytest.raises(ValueError):
        TR.cross_validate(small_config(), ds, folds=1, epochs=1)
    with pytest.raises(ValueError):
        TR.cross_validate(small_config(), ds, folds=5, epochs=1)
