"""Loss, optimizer, schedule, metrics, and the experiment harness.

The training loss is the mean over processes of each sample's relative
L2 error, computed on de-standardized predictions against the raw
targets, so the optimized quantity is exactly the reported metric.
Network inputs and regression targets are standardized per channel
using the statistics recorded in the dataset manifest.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import params as P
from . import tensor as T
from .dataio import FieldDataset, _keep_freed_blocks, check_fields, config_hash, write_file

__all__ = [
    "TrainingError", "AdamState", "EpochRecord", "TrainResult", "EvalResult",
    "relative_l2", "adam_step", "cosine_lr", "standardize", "destandardize",
    "train", "evaluate", "cross_validate",
    "write_run_record", "read_run_record",
]


class TrainingError(RuntimeError):
    """Non-finite loss/gradient or a configuration/data mismatch."""


# ---------------------------------------------------------------------------
# metric


def relative_l2(pred: np.ndarray, target: np.ndarray):
    """Per-sample ||pred - target|| / ||target|| over channels and grid.

    Returns ``(errors, absolute_fallback)`` where the mask marks samples
    whose target norm is zero; those entries hold the absolute norm.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise T.ShapeError(f"relative_l2 shapes differ: {pred.shape} vs {target.shape}")
    flat_axes = tuple(range(1, pred.ndim))
    num = np.sqrt(((pred - target) ** 2).sum(axis=flat_axes))
    den = np.sqrt((target ** 2).sum(axis=flat_axes))
    fallback = den == 0
    safe = np.where(fallback, 1.0, den)
    return num / safe, fallback


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(named_params, grads: "dict[str, np.ndarray]", state: AdamState,
              lr: float) -> None:
    """One bias-corrected update, in place on the parameter arrays.

    Complex parameters keep a complex first moment and a real second
    moment of |g|^2, which is Adam on the stacked (Re, Im) pair with a
    shared per-entry scale.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in named_params:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if g.dtype != p.dtype:
            g = g.astype(p.dtype)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros(p.shape, dtype=p.real.dtype)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        if np.iscomplexobj(g):
            v += (1.0 - b2) * (g.real * g.real + g.imag * g.imag)
        else:
            v += (1.0 - b2) * (g * g)
        denom = np.sqrt(v / c2) + state.eps
        p -= ((lr / c1) * m / denom).astype(p.dtype)


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 to 0 at epoch == total."""
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    if total_epochs == 0:
        return lr0
    return max(0.0, 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / total_epochs)))


# ---------------------------------------------------------------------------
# standardization


def _stat_arrays(stats_entry: dict, ndim: int, dtype) -> "tuple[np.ndarray, np.ndarray]":
    """Broadcastable [1, c, 1...] mean/std from one per-process stats dict."""
    shape = (1, -1) + (1,) * (ndim - 2)
    mean = np.asarray(stats_entry["mean"], dtype=dtype).reshape(shape)
    std = np.asarray(stats_entry["std"], dtype=dtype).reshape(shape)
    return mean, std


def standardize(x: np.ndarray, stats_entry: dict, dtype=np.float32) -> np.ndarray:
    mean, std = _stat_arrays(stats_entry, x.ndim, dtype)
    return ((x - mean) / std).astype(dtype)


def destandardize(y: np.ndarray, stats_entry: dict) -> np.ndarray:
    mean, std = _stat_arrays(stats_entry, y.ndim, y.dtype)
    return y * std + mean


# ---------------------------------------------------------------------------
# loss (on tape)


def _destandardize_t(y: T.Tensor, stats_entry: dict, dtype) -> T.Tensor:
    mean, std = _stat_arrays(stats_entry, y.ndim, dtype)
    return T.add(T.mul(y, T.Tensor(std)), T.Tensor(mean))


def _batch_loss(preds_std, targets_raw, out_stats, dtype) -> T.Tensor:
    """Mean over processes of per-sample relative L2, de-standardized."""
    per_process = []
    for m, (p_std, y) in enumerate(zip(preds_std, targets_raw)):
        pred = _destandardize_t(p_std, out_stats[m], dtype)
        err = T.sub(pred, T.Tensor(np.asarray(y, dtype=dtype)))
        axes = tuple(range(1, pred.ndim))
        num = T.sqrt(T.reduce_sum(T.mul(err, err), axes))
        den = np.sqrt((np.asarray(y, dtype=np.float64) ** 2)
                      .sum(axis=tuple(range(1, y.ndim))))
        inv = np.where(den > 0, 1.0 / np.where(den > 0, den, 1.0), 1.0)
        per_process.append(T.reduce_mean(T.mul(num, T.Tensor(inv.astype(dtype)))))
    total = per_process[0]
    for extra in per_process[1:]:
        total = T.add(total, extra)
    return T.scale(total, 1.0 / len(per_process))


# ---------------------------------------------------------------------------
# records


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    test_err: "list[float]"
    test_aggregate: float
    wall_ms: float

    def to_dict(self) -> dict:
        return {"kind": "epoch", **dataclasses.asdict(self)}


@dataclass
class TrainResult:
    config: "M.CompolConfig"
    seed: int
    config_hash: str
    records: "list[EpochRecord]"
    model: "M.CompolModel"
    best_params: "dict[str, np.ndarray]"
    best_epoch: int
    best_err: float

    def best_model(self) -> "M.CompolModel":
        """The model with copies of the best epoch's parameters."""
        return P.with_leaves(self.model, {k: a.copy() for k, a in self.best_params.items()})


@dataclass
class EvalResult:
    per_process: "list[float]"
    aggregate: float
    per_sample: "list[np.ndarray]"
    absolute_fallback: bool
    error_fields: "list[np.ndarray] | None" = None


def write_run_record(path: str, result: TrainResult,
                     extra_head: "dict | None" = None) -> None:
    """One JSON object per line: a head line, then one line per epoch."""
    head = {"kind": "run", "seed": result.seed, "config_hash": result.config_hash,
            "model": result.config.to_dict(), "best_epoch": result.best_epoch,
            "best_err": result.best_err, **(extra_head or {})}
    write_file(path, ((json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
                      for line in [head] + [rec.to_dict() for rec in result.records]))


# the fields the CSV exports read; a head may omit all but best_err
_HEAD_FIELDS = {"best_err": ("number", 0), "config_hash": (("str", None), None),
                "experiment_hash": (("str", None), None), "model_kind": (("str", None), None),
                "n_train": (("int", None), 0)}
_EPOCH_FIELDS = {"epoch": ("int", 0), "lr": ("number", 0), "train_loss": ("number", 0),
                 "test_aggregate": ("number", 0), "test_err": (["number"], 0)}


def read_run_record(path: str) -> "tuple[dict, list[dict]]":
    """The head and epoch lines of a run record, checked as the exports read them.

    Every line must be a JSON object, the first a ``run`` head with a
    ``best_err``, and every ``epoch`` line must carry all of its fields, with
    a ``test_err`` list as long as the first epoch's.  The fields are checked
    against ``_HEAD_FIELDS`` and ``_EPOCH_FIELDS``.  Anything else raises
    :class:`TrainingError`.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, text in enumerate(fh, 1):
            if text.strip():
                rec = json.loads(text)
                if not isinstance(rec, dict):
                    raise TrainingError(f"{path}: line {number} is not a JSON object")
                lines.append((number, rec))
    if not lines or lines[0][1].get("kind") != "run":
        raise TrainingError(f"{path}: not a run record")
    (first, head), epochs = lines[0], []
    try:
        check_fields(head, _HEAD_FIELDS, f"line {first}: ", required=("best_err",))
        for number, rec in lines[1:]:
            if rec.get("kind") != "epoch":
                continue
            check_fields(rec, _EPOCH_FIELDS, f"line {number}: ", required=tuple(_EPOCH_FIELDS))
            if epochs and len(rec["test_err"]) != len(epochs[0]["test_err"]):
                raise ValueError(f"line {number}: test_err has {len(rec['test_err'])} entries, "
                                 f"the first epoch's {len(epochs[0]['test_err'])}")
            epochs.append(rec)
    except ValueError as e:
        raise TrainingError(f"{path}: {e}") from e
    return head, epochs


# ---------------------------------------------------------------------------
# harness


def _require_stats(dataset: FieldDataset) -> dict:
    stats = dataset.manifest.get("stats")
    if not stats:
        raise TrainingError("dataset manifest has no normalization stats")
    return stats


def _channel_mode(config: "M.CompolConfig", dataset: FieldDataset) -> str:
    """How model branches map onto dataset processes.

    ``direct``: one branch per process. ``stacked``: a single-branch
    model consumes every process's channels concatenated (the
    channel-concatenated baseline); its predictions are split back at
    the process boundaries for reporting, so metrics stay comparable.
    """
    if (config.processes == dataset.processes
            and tuple(config.channels) == dataset.channels):
        return "direct"
    if (config.processes == 1 and dataset.processes > 1
            and config.channels[0] == sum(dataset.channels)):
        return "stacked"
    raise TrainingError(
        f"model channels {tuple(config.channels)} do not match "
        f"dataset channels {dataset.channels}")


def _stacked_entry(entries: "list[dict]") -> dict:
    return {"mean": [m for e in entries for m in e["mean"]],
            "std": [s for e in entries for s in e["std"]]}


def _shuffle_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 3, epoch]))


def _model_inputs(dataset: FieldDataset, stats: dict, idx, dtype, mode: str):
    xs = [standardize(x[idx], stats["input"][m], dtype)
          for m, x in enumerate(dataset.inputs)]
    ys = [y[idx] for y in dataset.outputs]
    if mode == "stacked":
        xs = [np.concatenate(xs, axis=1)]
        ys = [np.concatenate(ys, axis=1)]
    return xs, ys


def train(config: "M.CompolConfig", train_data: FieldDataset,
          test_data: "FieldDataset | None" = None, *, epochs: int,
          batch_size: int = 32, lr: float = 1e-3,
          seed: "int | None" = None) -> TrainResult:
    """Seeded mini-batch training; retains the best-test-epoch parameters.

    Epoch e trains at ``cosine_lr(e, epochs, lr)``.  With no test split the
    training split doubles as the selection set.
    ``epochs=0`` returns the untouched initialization and no records.

    Before the first epoch it sets glibc's trim and mmap thresholds through
    ``mallopt`` (see :func:`compol.dataio._keep_freed_blocks`).  The setting is
    process-wide and stays after ``train`` returns.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    mode = _channel_mode(config, train_data)
    stats = _require_stats(train_data)
    if seed is not None:
        config = dataclasses.replace(config, seed=int(seed))
    run_seed = config.seed
    model = M.init_params(config)
    named = model.named_parameters()
    dtype = config.np_dtype
    out_stats = ([_stacked_entry(stats["output"])] if mode == "stacked"
                 else stats["output"])
    eval_data = test_data if test_data is not None else train_data

    state = AdamState()
    records: "list[EpochRecord]" = []
    best_table = {name: arr.copy() for name, arr in named}
    best_epoch, best_err = 0, math.inf
    n = train_data.n_samples

    _keep_freed_blocks()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        lr_e = cosine_lr(epoch, epochs, lr)
        order = _shuffle_rng(run_seed, epoch).permutation(n)
        losses = []
        for b0 in range(0, n, batch_size):
            idx = order[b0:b0 + batch_size]
            xs, ys = _model_inputs(train_data, stats, idx, dtype, mode)
            tape = T.Tape()
            bound = P.bind(model, tape)
            outs = M.forward(bound, xs, tape)
            loss = _batch_loss(outs, ys, out_stats, dtype)
            value = float(loss.data.reshape(-1)[0])
            if not math.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} batch {b0 // batch_size}")
            grads = T.backward(tape, loss)
            by_name = {name: grads[leaf] for name, leaf in P.named_tensors(bound)}
            adam_step(named, by_name, state, lr_e)
            losses.append(value)
        test = evaluate(model, eval_data, stats=stats, batch_size=batch_size)
        if test.aggregate < best_err:
            best_err = test.aggregate
            best_epoch = epoch
            best_table = {name: arr.copy() for name, arr in named}
        records.append(EpochRecord(
            epoch=epoch, lr=lr_e, train_loss=float(np.mean(losses)) if losses else 0.0,
            test_err=test.per_process, test_aggregate=test.aggregate,
            wall_ms=(time.perf_counter() - t0) * 1e3))

    return TrainResult(
        config=config, seed=run_seed,
        config_hash=config_hash(config.to_dict()),
        records=records, model=model, best_params=best_table,
        best_epoch=best_epoch,
        best_err=best_err if math.isfinite(best_err) else 0.0)


# latent elements (batch x width x grid points) that one default evaluation
# batch holds: 4 samples of a width-32 model on a 64 x 64 grid, so that two
# batches in flight hold what one batch of 8 did
EVAL_BUDGET = 1 << 19


def evaluate(model: "M.CompolModel", dataset: FieldDataset, *,
             stats: "dict | None" = None, batch_size: "int | None" = None,
             error_fields: bool = False, workers: int = 1) -> EvalResult:
    """Relative L2 per process and aggregate over a dataset, de-standardized.

    Metrics are always reported per dataset process; a stacked
    single-branch model's prediction is split back at the process
    channel boundaries before the errors are taken.  Without a
    ``batch_size``, a batch holds as many samples as keep its latent
    within ``EVAL_BUDGET`` elements.

    With ``workers`` > 1 the batches are scored on a pool of that many
    threads (at most one per batch); numpy releases the GIL in its loops
    and BLAS calls.  Batches are fixed by the batch size alone and their
    results are taken in order, so every worker count gives the same bits.
    An exception in one batch cancels the batches not yet started and
    reaches the caller.  Like :func:`train`, it sets glibc's thresholds
    first (see :func:`compol.dataio._keep_freed_blocks`).
    """
    if batch_size is None:
        grid = math.prod(dataset.inputs[0].shape[2:])
        batch_size = max(1, EVAL_BUDGET // (model.config.width * grid))
    mode = _channel_mode(model.config, dataset)
    stats = stats or _require_stats(dataset)
    dtype = model.config.np_dtype
    n = dataset.n_samples
    mcount = dataset.processes
    bounds = np.cumsum([c for c in dataset.channels])[:-1]
    stacked_out = _stacked_entry(stats["output"]) if mode == "stacked" else None

    def score(b0: int):
        """Per-process errors, zero-norm flags and |error| fields of one batch."""
        idx = np.arange(b0, min(b0 + batch_size, n))
        xs, _ = _model_inputs(dataset, stats, idx, dtype, mode)
        ys = [y[idx] for y in dataset.outputs]
        outs = M.forward(model, xs, None)
        if mode == "stacked":
            full = destandardize(outs[0].data.astype(np.float64), stacked_out)
            preds = np.split(full, bounds, axis=1)
        else:
            preds = [destandardize(outs[m].data.astype(np.float64),
                                   stats["output"][m]) for m in range(mcount)]
        errs, fbs = zip(*(relative_l2(preds[m], ys[m]) for m in range(mcount)))
        fields = ([np.abs(preds[m] - ys[m]).astype(np.float32) for m in range(mcount)]
                  if error_fields else None)
        return errs, any(fb.any() for fb in fbs), fields

    starts = range(0, n, batch_size)
    threads = min(workers, len(starts))
    _keep_freed_blocks()
    if threads > 1:
        pool = ThreadPoolExecutor(max_workers=threads)
        try:
            parts = list(pool.map(score, starts))
        finally:
            pool.shutdown(cancel_futures=True)
    else:       # in this thread: a pool thread would bring a second malloc arena
        parts = [score(b0) for b0 in starts]

    per_sample = [np.concatenate([p[0][m] for p in parts]) if parts else np.zeros(0)
                  for m in range(mcount)]
    per_process = [float(errs.mean()) if errs.size else 0.0 for errs in per_sample]
    return EvalResult(
        per_process=per_process,
        aggregate=float(np.mean(per_process)) if per_process else 0.0,
        per_sample=per_sample,
        absolute_fallback=any(p[1] for p in parts),
        error_fields=([np.concatenate([p[2][m] for p in parts]) for m in range(mcount)]
                      if error_fields else None))


@dataclass
class CVResult:
    fold_results: "list[TrainResult]"
    fold_errors: "list[float]"
    mean: float
    std: float


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, 4, fold]).generate_state(1)[0])


def cross_validate(config: "M.CompolConfig", dataset: FieldDataset,
                   folds: int = 5, *, epochs: int, batch_size: int = 32,
                   lr: float = 1e-3,
                   seed: int = 0) -> CVResult:
    """Round-robin fold assignment: sample i tests in fold i % folds."""
    n = dataset.n_samples
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    idx = np.arange(n)
    results, errors = [], []
    for fold in range(folds):
        test_idx = idx[idx % folds == fold]
        train_idx = idx[idx % folds != fold]
        res = train(config, dataset.subset(train_idx), dataset.subset(test_idx),
                    epochs=epochs, batch_size=batch_size, lr=lr,
                    seed=_fold_seed(seed, fold))
        results.append(res)
        errors.append(res.best_err)
    return CVResult(fold_results=results, fold_errors=errors,
                    mean=float(np.mean(errors)), std=float(np.std(errors)))
