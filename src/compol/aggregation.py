"""Latent aggregation across coupled process branches.

After every operator layer the per-process latent fields are fused into
one shared state z which is added back into each branch before the next
layer.  Every map returns the latent width.  ``gru`` and ``skip`` first mix
the processes: one learned pointwise map of their concatenated latents.
Four mechanisms are provided:

* ``gru``       -- a convex gated update driven by the mixed latents,
                   carrying state across layers,
* ``attention`` -- scaled dot-product attention over the process tokens
                   at every grid location (weights shared across space),
* ``skip``      -- running sum of pointwise-mapped mixed latents,
* ``none``      -- no shared state; branches stay independent.

Latents are channels-last, [batch, *grid, width], as in
:mod:`compol.layers`: every map is one matmul over the last axis, and
concatenation uses that axis.  Attention stacks its
tokens on a new leading axis and contracts them with ``T.einsum``.  All
maps act pointwise on channels, so every mechanism commutes with spatial
translations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import channel_affine
from .tensor import Tensor

__all__ = [
    "MixParams", "GruParams", "AttentionParams", "SkipParams",
    "mix_processes", "gru_step", "attention_aggregate", "skip_aggregate", "inject",
    "mix_shapes", "gru_shapes", "attention_shapes", "skip_shapes",
]


@dataclass
class MixParams:
    """Learned pointwise map from the stacked process channels."""

    w: np.ndarray   # [n_proc * width, width]
    b: np.ndarray   # [width]


@dataclass
class GruParams:
    """Gated recurrent update z_l = q * z_{l-1} + (1 - q) * cand."""

    wq: np.ndarray  # [width, width]
    uq: np.ndarray  # [width, width]
    bq: np.ndarray  # [width]
    wr: np.ndarray
    ur: np.ndarray
    br: np.ndarray
    wz: np.ndarray
    uz: np.ndarray
    bz: np.ndarray


@dataclass
class AttentionParams:
    """Shared query/key/value maps for per-location process attention.

    The key map deliberately has no bias: a shared key offset shifts all
    scores by the same amount and cancels inside the softmax, so it
    could never receive gradient.
    """

    wq: np.ndarray  # [width, width]
    bq: np.ndarray  # [width]
    wk: np.ndarray  # [width, width]
    wa: np.ndarray  # [width, width]
    ba: np.ndarray  # [width]


@dataclass
class SkipParams:
    w: np.ndarray   # [width, width]
    b: np.ndarray   # [width]


# each class's {field: shape}, in field order; layers.draw builds a block from one
def mix_shapes(n_proc: int, width: int) -> dict:
    return {"w": (n_proc * width, width), "b": (width,)}


def gru_shapes(width: int) -> dict:
    return {f"{kind}{gate}": (width,) if kind == "b" else (width, width)
            for gate in "qrz" for kind in "wub"}


def attention_shapes(width: int) -> dict:
    return {"wq": (width, width), "bq": (width,), "wk": (width, width), "wa": (width, width),
            "ba": (width,)}


def skip_shapes(width: int) -> dict:
    return {"w": (width, width), "b": (width,)}


def mix_processes(fields: list[Tensor], params: MixParams) -> Tensor:
    """Fuse per-process latents into one field: concatenate their channels,
    then apply the learned pointwise map."""
    return channel_affine(T.concat(fields, -1), params.w, params.b)


def gru_step(mixed: Tensor, z_prev: Tensor, p: GruParams) -> Tensor:
    """One gated update; ``z_prev`` is the zero field on the first call."""
    q = T.sigmoid(T.add(channel_affine(mixed, p.wq, p.bq), channel_affine(z_prev, p.uq)))
    r = T.sigmoid(T.add(channel_affine(mixed, p.wr, p.br), channel_affine(z_prev, p.ur)))
    cand = T.tanh(T.add(channel_affine(mixed, p.wz, p.bz),
                        channel_affine(T.mul(r, z_prev), p.uz)))
    one_minus_q = T.sub(Tensor(np.ones((), dtype=q.data.dtype)), q)
    return T.add(T.mul(q, z_prev), T.mul(one_minus_q, cand))


def attention_aggregate(fields: list[Tensor], p: AttentionParams) -> Tensor:
    """Scaled dot-product attention over process tokens, per grid location.

    The query comes from the mean latent.  The tokens are stacked on a
    leading axis, [m, b, *grid, w], so keys and values are one map each,
    the scores softmax(q . k / sqrt(width)) are one contraction and one
    softmax over that axis, and the weighted sum is one contraction.
    """
    mean = T.scale(functools.reduce(T.add, fields), 1.0 / len(fields))
    tokens = T.concat([T.reshape(f, (1,) + f.shape) for f in fields], 0)
    query = channel_affine(mean, p.wq, p.bq)                      # [b, *grid, w]
    keys = channel_affine(tokens, p.wk)                           # [m, b, *grid, w]
    values = channel_affine(tokens, p.wa, p.ba)
    scores = T.scale(T.einsum("...c,m...c->m...", query, keys), 1.0 / math.sqrt(p.wq.shape[1]))
    alpha = T.softmax(scores, 0)                                  # [m, b, *grid]
    return T.einsum("m...,m...c->...c", alpha, values)


def skip_aggregate(mixed: Tensor, z_prev: Tensor, p: SkipParams) -> Tensor:
    """Running sum of pointwise-mapped mixed latents."""
    return T.add(z_prev, channel_affine(mixed, p.w, p.b))


# folds the shared state back into one process branch by adding it
inject = T.add
