"""Coupled-operator model assembly, forward pass, and checkpoints.

A model holds one lift/Fourier-stack/projection branch per physical
process plus per-layer aggregation parameters.  Each forward layer first
fuses the previous latents into a shared state z (GRU, attention, skip,
or nothing), adds z to every branch, and applies that branch's
Fourier layer.  With aggregation ``none`` the branches never talk, which
makes an M=1 model exactly the plain FNO used as the channel-concatenated
baseline.

Inputs and outputs are [batch, channels, *grid].  Between the end of the
lift and the start of the projection every latent is channels-last,
[batch, *grid, width], so each channel map is a single matmul.

Checkpoints hold the config, extra metadata and every named parameter
array; :mod:`compol.dataio` owns their framing and byte layout.  One walk
over the declared block shapes, :func:`_build`, serves ``init_params``
(which draws) and ``load_checkpoint`` (which copies the file's arrays).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import aggregation as agg
from . import layers as L
from . import tensor as T
from .dataio import (CheckpointError, check_fields, read_checkpoint, require_memory,
                     write_checkpoint)
from .params import bind, is_bound, named_arrays
from .tensor import Tape, Tensor

__all__ = [
    "CompolConfig", "CompolModel", "init_params", "forward",
    "param_count", "total_params", "PARAM_COUNT_CONVENTION",
    "save_checkpoint", "load_checkpoint", "CheckpointError",
    "MODEL_KINDS", "config_for_kind",
]

_DTYPES = {"real32": np.float32, "real64": np.float64}

AGGREGATION_KINDS = ("gru", "attention", "skip", "none")

PARAM_COUNT_CONVENTION = "complex entries count as two reals; biases included"

# CLI-facing model names and the aggregation each one selects
KIND_AGGREGATION = {"compol-rnn": "gru", "compol-atn": "attention", "compol-skip": "skip",
                    "fno-c": "none"}
MODEL_KINDS = tuple(KIND_AGGREGATION)


# every field of a config dict: (kind, least value or allowed values), see check_fields.
# The processes are mixed by a learned map of their concatenated latents, every
# aggregation map is width to width, the shared state is added, every layer ends
# in a GELU, attention has one head and process m draws from stream m, so mix,
# d_mix, key_width, inject, activation, heads and process_seed_offset only load
# as "linear", null, null, "add", "gelu", 1 and 0.  They are not CompolConfig
# fields: to_dict writes them from _PINNED, so that config hashes and checkpoint
# headers keep their bytes.
_FIELDS = {
    "processes": ("int", 1), "channels": (["int"], 1), "layers": ("int", 1),
    "width": ("int", 1), "modes": (("int", ["int"]), 1), "spatial_dims": ("int", 1),
    "aggregation": ("str", AGGREGATION_KINDS), "mix": ("str", ("linear",)),
    "d_mix": (None, None), "inject": ("str", ("add",)), "activation": ("str", ("gelu",)),
    "coords": ("bool", None), "key_width": (None, None), "heads": ("int", (1,)),
    "dtype": ("str", tuple(_DTYPES)), "seed": ("int", 0), "process_seed_offset": ("int", (0,)),
}
_PINNED = {"mix": "linear", "d_mix": None, "inject": "add", "activation": "gelu",
           "key_width": None, "heads": 1, "process_seed_offset": 0}


@dataclass
class CompolConfig:
    """Architecture and initialization choices for one model."""

    processes: int
    channels: list[int]
    layers: int = 4
    width: int = 64
    modes: int | tuple[int, ...] = 16
    spatial_dims: int = 1
    aggregation: str = "attention"
    coords: bool = True
    dtype: str = "real32"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.modes, list):
            self.modes = tuple(self.modes)
        self.validate()

    def validate(self) -> None:
        """Check every field against ``_FIELDS`` (a bool is not an int), then
        the rules across fields."""
        check_fields(vars(self), _FIELDS)
        if len(self.channels) != self.processes:
            raise ValueError("need one channel count per process")
        if self.spatial_dims not in (1, 2):
            raise ValueError("spatial_dims must be 1 or 2")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    def to_dict(self) -> dict:
        d = {**dataclasses.asdict(self), **_PINNED}
        if isinstance(d["modes"], tuple):
            d["modes"] = list(d["modes"])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CompolConfig":
        d = dict(d)     # older configs hold attend_history: false, what every model does
        if d.pop("attend_history", False) is not False:
            raise ValueError("attend_history is no longer supported; only false loads")
        check_fields(d, _FIELDS, closed=True)     # before the constructor sees an unknown key
        return cls(**{k: v for k, v in d.items() if k not in _PINNED})


@dataclass
class ProcessParams:
    head: L.LiftProjectParams
    layers: list[L.FourierLayerParams]


@dataclass
class LayerAggregation:
    mix: agg.MixParams | None = None
    gru: agg.GruParams | None = None
    attn: agg.AttentionParams | None = None
    skip: agg.SkipParams | None = None


@dataclass
class CompolModel:
    config: CompolConfig
    processes: list[ProcessParams]
    aggregation: list[LayerAggregation]

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        return named_arrays(self)


def _aggregation_slots(cfg: CompolConfig) -> list:
    """One aggregation layer's (slot, class, shapes), in draw order."""
    w = cfg.width
    mix = [("mix", agg.MixParams, agg.mix_shapes(cfg.processes, w))]
    return {"gru": mix + [("gru", agg.GruParams, agg.gru_shapes(w))],
            "attention": [("attn", agg.AttentionParams, agg.attention_shapes(w))],
            "skip": mix + [("skip", agg.SkipParams, agg.skip_shapes(w))],
            "none": []}[cfg.aggregation]


def _head_shapes(cfg: CompolConfig, m: int) -> dict:
    n_coords = cfg.spatial_dims if cfg.coords else 0
    return L.lift_project_shapes(cfg.channels[m] + n_coords, cfg.channels[m], cfg.width)


def _build(cfg: CompolConfig, make) -> CompolModel:
    """Assemble a model from ``make(name, cls, shapes, rng)``, one call per block.

    Blocks are visited in draw order under their dotted names.  Process m
    draws from the stream (seed, 0, m) and aggregation layer l from
    (seed, 1, l), so branch m's arrays do not depend on the process count.
    """
    layer = L.fourier_shapes(cfg.width, cfg.modes, cfg.spatial_dims)
    processes = []
    for m in range(cfg.processes):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, m]))
        head = make(f"processes.{m}.head", L.LiftProjectParams, _head_shapes(cfg, m), rng)
        processes.append(ProcessParams(head, [
            make(f"processes.{m}.layers.{l}", L.FourierLayerParams, layer, rng)
            for l in range(cfg.layers)]))
    slots = _aggregation_slots(cfg)
    layer_aggs = []
    for l in range(cfg.layers if slots else 0):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, l]))
        layer_aggs.append(LayerAggregation(**{
            slot: make(f"aggregation.{l}.{slot}", cls, shapes, rng)
            for slot, cls, shapes in slots}))
    return CompolModel(config=cfg, processes=processes, aggregation=layer_aggs)


def init_params(config: CompolConfig, seed: int | None = None) -> CompolModel:
    """Build a model with per-branch parameter streams (see :func:`_build`)."""
    cfg = dataclasses.replace(config) if seed is None else dataclasses.replace(config, seed=seed)
    require_memory(_param_bytes(cfg), "the parameters")
    return _build(cfg, lambda _, cls, shapes, rng: L.draw(cls, rng, shapes, cfg.np_dtype))


def _param_bytes(cfg: CompolConfig) -> int:
    """Bytes ``init_params(cfg)`` allocates, summed over the declared shapes."""
    def nbytes(shapes):
        return sum(math.prod(s) * L.field_dtype(s, cfg.np_dtype).itemsize
                   for s in shapes.values())

    layer = nbytes(L.fourier_shapes(cfg.width, cfg.modes, cfg.spatial_dims))
    heads = sum(nbytes(_head_shapes(cfg, m)) for m in range(cfg.processes))
    aggs = sum(nbytes(shapes) for _, _, shapes in _aggregation_slots(cfg))
    return heads + cfg.layers * (cfg.processes * layer + aggs)


def _as_input_tensors(model: CompolModel, inputs) -> list[Tensor]:
    cfg = model.config
    if len(inputs) != cfg.processes:
        raise T.ShapeError(f"expected {cfg.processes} process inputs, got {len(inputs)}")
    ts = []
    for m, x in enumerate(inputs):
        t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=cfg.np_dtype))
        want = cfg.spatial_dims + 2
        if t.ndim != want or t.shape[1] != cfg.channels[m]:
            raise T.ShapeError(
                f"process {m}: expected [batch, {cfg.channels[m]}, grid...] with "
                f"{cfg.spatial_dims} spatial axes, got {t.shape}")
        ts.append(t)
    return ts


def forward(model: CompolModel, inputs, tape: Tape | None = None):
    """Run the coupled forward pass.

    ``inputs`` is one [batch, channels_m, *grid] array or tensor per
    process, and each output is [batch, channels_m, *grid] too.  A forward
    with no tape binds nothing, takes the parameter arrays as they are, and
    lets go of each layer's latents once the next layer has used them.
    """
    cfg = model.config
    xs = _as_input_tensors(model, inputs)
    procs, aggs = model.processes, model.aggregation
    if tape is not None:    # a tree bound by the caller is used as it is, without a second walk
        procs = procs if is_bound(procs) else bind(procs, tape)
        aggs = aggs if is_bound(aggs) else bind(aggs, tape)

    v = [L.lift(xs[m], procs[m].head, cfg.coords) for m in range(cfg.processes)]
    z: Tensor | None = None

    for l in range(cfg.layers):
        la = aggs[l] if aggs else None
        if cfg.aggregation == "attention":
            z = agg.attention_aggregate(v, la.attn)
        elif la is not None:                     # gru and skip carry z across layers
            if z is None:
                z = Tensor(np.zeros(v[0].shape, dtype=cfg.np_dtype))
            mixed = agg.mix_processes(v, la.mix)
            z = (agg.gru_step(mixed, z, la.gru) if cfg.aggregation == "gru"
                 else agg.skip_aggregate(mixed, z, la.skip))
        v = [L.fourier_layer(v[m] if la is None else agg.inject(v[m], z), procs[m].layers[l])
             for m in range(cfg.processes)]

    return [L.project(v[m], procs[m].head) for m in range(cfg.processes)]


def config_for_kind(kind: str, base: CompolConfig) -> CompolConfig:
    """Translate a CLI model name into configuration overrides."""
    if kind not in KIND_AGGREGATION:
        raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    if kind == "fno-c":         # one branch over every process's channels
        return dataclasses.replace(base, processes=1, channels=[sum(base.channels)],
                                   aggregation="none")
    return dataclasses.replace(base, aggregation=KIND_AGGREGATION[kind])


# ---------------------------------------------------------------------------
# parameter counting


def param_count(model: CompolModel) -> dict[str, int]:
    """Real-valued parameter count per named array."""
    counts = {}
    for name, arr in model.named_parameters():
        n = arr.size
        if np.iscomplexobj(arr):
            n *= 2
        counts[name] = int(n)
    return counts


def total_params(model: CompolModel) -> int:
    return sum(param_count(model).values())


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: CompolModel, extra: dict | None = None) -> None:
    write_checkpoint(path, {"config": model.config.to_dict(), "extra": extra or {}},
                     model.named_parameters())


def load_checkpoint(path) -> tuple[CompolModel, dict]:
    """Build the model from a checkpoint's arrays, drawing nothing.

    A name that is missing, unexpected, misshapen or of the wrong dtype is
    a :class:`CheckpointError` that names it.
    """
    header, table = read_checkpoint(path)

    def take(name, cls, shapes, _):
        fields = {}
        for field, shape in shapes.items():
            key = f"{name}.{field}"
            if key not in table:
                raise ValueError(f"parameter {key} is missing")
            arr, dtype = table.pop(key), L.field_dtype(shape, cfg.np_dtype)
            if arr.shape != shape:
                raise ValueError(f"{key}: shape {arr.shape} != expected {shape}")
            if arr.dtype != dtype:
                raise ValueError(f"{key}: dtype {arr.dtype} != expected {dtype}")
            fields[field] = arr.copy()
        return cls(**fields)

    try:
        cfg = CompolConfig.from_dict(header["config"])
        model = _build(cfg, take)
        if table:
            raise ValueError(f"unexpected parameters {sorted(table)}")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    return model, header.get("extra", {})
