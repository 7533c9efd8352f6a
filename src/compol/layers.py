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
    "init_fourier_layer", "init_lift_project", "glorot_uniform",
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


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """float64 [fan_in, fan_out]; each caller casts it to the model's dtype."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_fourier_layer(rng: np.random.Generator, width: int, modes, spatial_dims: int,
                       dtype=np.float32) -> FourierLayerParams:
    """Spectral entries: Re and Im each uniform on [0, 1/width**2)."""
    k = _mode_counts(modes, spatial_dims)
    shape = (width, width) + k
    scl = 1.0 / (width * width)
    r = scl * (rng.random(shape) + 1j * rng.random(shape))
    cplx = np.complex64 if np.dtype(dtype) == np.float32 else np.complex128
    return FourierLayerParams(
        r=r.astype(cplx),
        w=glorot_uniform(rng, width, width).astype(dtype),
        b=np.zeros(width, dtype=dtype),
    )


def init_lift_project(rng: np.random.Generator, d_in: int, d_out: int, width: int,
                      dtype=np.float32) -> LiftProjectParams:
    return LiftProjectParams(
        p=glorot_uniform(rng, d_in, width).astype(dtype),
        p_b=np.zeros(width, dtype=dtype),
        q1=glorot_uniform(rng, width, PROJECT_HIDDEN).astype(dtype),
        q1_b=np.zeros(PROJECT_HIDDEN, dtype=dtype),
        q2=glorot_uniform(rng, PROJECT_HIDDEN, d_out).astype(dtype),
        q2_b=np.zeros(d_out, dtype=dtype),
    )


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
