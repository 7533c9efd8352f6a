"""Fourier-operator building blocks.

Latents are channels-last: a layer maps a field ``v`` of shape
[batch, *grid, width] to ``gelu(v W + b + spectral_conv(v, R))``, where the
spectral convolution multiplies retained low-frequency modes by learned
complex matrices and zeroes the rest.  Every channel map is then one
matmul over the last axis, and the spectral convolution contracts the
grid axes where they lie.  ``lift`` takes the model's [batch, channels, *grid]
inputs into this layout and ``project`` returns to it.

Mode retention follows the usual convention for real transforms: the
``k1`` lowest non-negative frequencies on the real-transformed (last grid)
axis, and in 2-D the ``k2`` lowest-|frequency| bins of the other grid
axis, alternating signs (0, +1, -1, +2, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, full_axis_mode_indices

__all__ = [
    "FourierLayerParams", "LiftProjectParams",
    "spectral_conv", "fourier_layer", "channel_affine", "lift", "project",
    "fourier_shapes", "lift_project_shapes", "field_dtype", "draw",
    "full_axis_mode_indices", "coordinate_channels", "PROJECT_HIDDEN",
]

PROJECT_HIDDEN = 128  # fixed hidden width of the projection head

@dataclass
class FourierLayerParams:
    """One layer: complex mode weights, pointwise channel map, bias."""

    r: np.ndarray          # [width, width, k1] or [width, width, k1, k2], complex
    w: np.ndarray          # [width, width]
    b: np.ndarray          # [width]


@dataclass
class LiftProjectParams:
    """Channel-wise lift into the latent width and two-stage projection head."""

    p: np.ndarray          # [d_in (+ coords), width]
    p_b: np.ndarray        # [width]
    q1: np.ndarray         # [width, PROJECT_HIDDEN]
    q1_b: np.ndarray       # [PROJECT_HIDDEN]
    q2: np.ndarray         # [PROJECT_HIDDEN, d_out]
    q2_b: np.ndarray       # [d_out]


# each class's {field: shape}, in field order; draw builds a block from one
def fourier_shapes(width: int, modes, spatial_dims: int) -> dict:
    return {"r": (width, width) + _mode_counts(modes, spatial_dims), "w": (width, width),
            "b": (width,)}


def lift_project_shapes(d_in: int, d_out: int, width: int) -> dict:
    return {"p": (d_in, width), "p_b": (width,), "q1": (width, PROJECT_HIDDEN),
            "q1_b": (PROJECT_HIDDEN,), "q2": (PROJECT_HIDDEN, d_out), "q2_b": (d_out,)}


def field_dtype(shape, dtype) -> np.dtype:
    """A spectral weight (rank 3 or more) is complex; every other field has ``dtype``."""
    return np.dtype(np.result_type(dtype, np.complex64) if len(shape) > 2 else dtype)


def draw(cls, rng: np.random.Generator, shapes: dict, dtype=np.float32):
    """Build ``cls`` from its ``{field: shape}``, drawing the fields in order.

    A vector is a zero bias, a matrix [fan_in, fan_out] is Glorot-uniform
    (drawn in float64, then cast), and spectral weights [in, out, *modes]
    have Re and Im each uniform on [0, 1/(in*out)).
    """
    def one(s):
        if len(s) == 1:
            return np.zeros(s, dtype=dtype)
        if len(s) == 2:
            limit = math.sqrt(6.0 / (s[0] + s[1]))
            return rng.uniform(-limit, limit, size=s).astype(dtype)
        return (1.0 / (s[0] * s[1]) * (rng.random(s) + 1j * rng.random(s))).astype(
            field_dtype(s, dtype))

    return cls(**{name: one(s) for name, s in shapes.items()})


def _mode_counts(modes, spatial_dims: int) -> tuple[int, ...]:
    if isinstance(modes, int):
        return (modes,) * spatial_dims
    modes = tuple(int(m) for m in modes)
    if len(modes) != spatial_dims:
        raise ValueError(f"need {spatial_dims} mode counts, got {modes}")
    return modes


# the tape ops a layer is built from, under the names the layers use
channel_affine = T.affine       # pointwise channel map on the last axis
spectral_conv = T.spectral_conv  # one node; keeps only the retained modes


def fourier_layer(v: Tensor, p: FourierLayerParams) -> Tensor:
    local = channel_affine(v, p.w, p.b)
    return T.gelu(T.add(local, spectral_conv(v, p.r)))


def coordinate_channels(batch: int, grid: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """Normalized grid coordinates in [0, 1), one channel per axis."""
    channels = []
    for ax, n in enumerate(grid):
        line = (np.arange(n, dtype=np.float64) / n).astype(dtype)
        shape = [1] * len(grid)
        shape[ax] = n
        channels.append(np.broadcast_to(line.reshape(shape), grid))
    coords = np.stack(channels, axis=0)
    return np.broadcast_to(coords[None], (batch, len(grid)) + grid).astype(dtype).copy()


def lift(f: Tensor, p: LiftProjectParams, with_coords: bool = True) -> Tensor:
    """Append coordinate channels (optional), move channels last, and lift.

    ``f`` is [batch, channels, *grid]; the latent is [batch, *grid, width].
    """
    if with_coords:
        grid = f.shape[2:]
        coords = Tensor(coordinate_channels(f.shape[0], grid, dtype=f.data.real.dtype))
        f = T.concat([f, coords], 1)
    return channel_affine(T.moveaxis(f, 1, -1), p.p, p.p_b)


def project(v: Tensor, p: LiftProjectParams) -> Tensor:
    """Two-stage head: width -> 128 -> d_out with a GELU in between.

    ``v`` is [batch, *grid, width]; the output is [batch, d_out, *grid].
    """
    hidden = T.gelu(channel_affine(v, p.q1, p.q1_b))
    return T.moveaxis(channel_affine(hidden, p.q2, p.q2_b), -1, 1)
