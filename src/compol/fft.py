"""Power-of-two FFTs as dense DFT blocks.

Forward transforms are unnormalized; inverse transforms carry the 1/N
factor per transformed axis.  The real-input variant keeps only the
``N//2 + 1`` non-negative frequency bins of the last transformed axis.

A length ``n <= BLOCK`` is one matmul by a cached DFT matrix: ``n x n``
complex, or for real data the ``[n, n + 2]`` analysis and ``[n + 2, n]``
synthesis matrices that act on (re, im) pairs.  :func:`dft_matrix` builds
every such matrix, here and for the tape: ``compol.tensor.spectral_conv``
derives its real matrices for the retained bins from it.
:func:`apply_dft` contracts an axis with one.

A longer length takes one four-step split ``n = n1 n2`` (Bailey 1990):
``n1``-point DFTs down the columns of the ``[n1, n2]`` view, one twiddle
multiply, then ``n2``-point DFTs along its rows, recursing while a factor
exceeds ``BLOCK``.  A longer real transform splits the same way on real
matrices (Sorensen et al. 1987): the real ``n1``-point analysis keeps the
bins ``k1 <= n1/2``, the twiddles follow, and the ``n2``-point row DFTs are
one real matmul on (re, im) pairs.  Their ``[n1/2 + 1, n2]`` rows are the
split's slot order: :func:`rfft_split` returns them as they are, and
:func:`split_freqs` gives each slot's signed frequency.  :func:`rfft` is one
gather from them into bins ``0..n/2``, with
``X[k1 + n1 k2] = conj(Z[n1 - k1, n2 - 1 - k2])`` past ``k1 = n1/2``.  The
inverses mirror it, :func:`irfft` as one scatter into the rows before
:func:`irfft_split`, which ends in the real synthesis matrix, whose Hermitian
weights drop the imaginary parts of the DC and Nyquist bins.  Up to BLOCK
points the slot order is the bin order.  ``compol.datagen`` keeps its ETDRK4
spectra in slot order, so its time loop never reorders them.

Every matmul is stacked over the first axis of its operand, with shapes
that do not depend on that axis's extent: a slice of the first axis
transforms to the same bits however many slices share the array.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple

__all__ = ["fft", "ifft", "rfft", "irfft", "rfft_split", "irfft_split", "split_freqs",
           "dft_matrix", "apply_dft", "UnsupportedLengthError"]

BLOCK = 64


class UnsupportedLengthError(ValueError):
    """Raised when a transform extent or a grid size is not a power of two (>= 2)."""


def _check_pow2(n: int, what: str = "transform extent") -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise UnsupportedLengthError(
            f"{what} must be a power of two >= 2, got {n}"
        )


def _phase(rows, cols, n: int, inverse: bool) -> np.ndarray:
    """``exp(-+2 pi i r c / n)`` over index arrays ``rows`` x ``cols``, in float64.

    An int ``k`` stands for ``arange(k)``.  ``r c`` is reduced mod n in
    integers first, and quarter turns are exact, so DC and Nyquist terms
    carry no stray imaginary part.
    """
    r = np.outer(np.arange(rows) if np.ndim(rows) == 0 else rows,
                 np.arange(cols) if np.ndim(cols) == 0 else cols) % n
    w = np.exp((2j if inverse else -2j) * np.pi * r / n)
    quarter = (4 * r) % n == 0
    w[quarter] = np.round(w[quarter])
    return w


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=128)
def dft_matrix(n: int, bins, inverse: bool, real: bool, dtype: str) -> np.ndarray:
    """Read-only DFT matrix of an ``n``-point axis for ``bins``, built in float64.

    ``bins`` is a count ``k``, for bins ``0..k-1``, or a tuple of bins.
    Analysis is [n, k], ``F = exp(-2 pi i t b / n)``; synthesis
    (``inverse``) is [k, n], ``G = exp(2 pi i b t / n) / n``.  A ``real``
    matrix acts on (re, im) pairs: analysis has columns (Re F, Im F), and
    synthesis rows (Re G, -Im G) with the Hermitian weights 1 for DC and
    Nyquist and 2 for every other bin, so its output is the real signal.
    """
    b = np.arange(bins) if isinstance(bins, int) else np.array(bins)
    if not inverse:
        w = _phase(n, b, n, False)
        if real:
            w = np.stack([w.real, w.imag], axis=-1).reshape(n, 2 * len(b))
        return _frozen(w, dtype)
    w = _phase(b, n, n, True)
    if real:
        w = w * np.where((b == 0) | (2 * b == n), 1, 2)[:, None] / n
        return _frozen(np.stack([w.real, -w.imag], axis=1).reshape(2 * len(b), n), dtype)
    return _frozen(w / n, dtype)


def _real_block(w: np.ndarray) -> np.ndarray:
    """Complex [p, q] as the real [2p, 2q] map of ``x @ w`` on (re, im) pairs."""
    rows = (np.stack([w.real, w.imag], -1), np.stack([-w.imag, w.real], -1))
    return np.stack(rows, 1).reshape(2 * w.shape[0], 2 * w.shape[1])


def _factor(n: int) -> tuple[int, int]:
    """The four-step split ``n = n1 n2`` of a length past BLOCK, ``n1 <= BLOCK``."""
    n1 = min(BLOCK, 1 << ((n.bit_length() - 1) // 2))
    return n1, n // n1


@lru_cache(maxsize=64)
def _twiddle(n1: int, n2: int, inverse: bool, dtype: str) -> np.ndarray:
    """Four-step twiddles ``w^(k1 t2)`` of ``n = n1 n2``, as [n1, n2, 1]."""
    return _frozen(_phase(n1, n2, n1 * n2, inverse)[:, :, None], dtype)


@lru_cache(maxsize=64)
def _pair_dft(n: int, inverse: bool, dtype: str) -> np.ndarray:
    """The complex ``n``-point DFT as the real [2n, 2n] map on (re, im) pairs."""
    return _frozen(_real_block(dft_matrix(n, n, inverse, False, "<c16")), dtype)


@lru_cache(maxsize=64)
def split_freqs(n: int) -> np.ndarray:
    """Signed frequency of each slot of the last axis of :func:`rfft_split`.

    Up to BLOCK points the slots are bins ``0..n/2``.  Past it they are the
    ``[n1/2 + 1, n2]`` rows of the real four-step split, flattened: row
    ``k1``, column ``k2`` holds bin ``k = k1 + n1 k2``, read as ``k - n``
    past ``n/2``.  Rows 0 and n1/2 hold each of their frequencies with its
    negative, so every bin ``0..n/2`` has a slot and no slot lies past
    ``+-n/2``.  Read-only int array.
    """
    _check_pow2(n)
    if n <= BLOCK:
        return _frozen(np.arange(n // 2 + 1), np.intp)
    n1, n2 = _factor(n)
    k = (np.arange(n1 // 2 + 1)[:, None] + n1 * np.arange(n2)).ravel()
    return _frozen(np.where(k > n // 2, k - n, k), np.intp)


@lru_cache(maxsize=64)
def _fold(n: int, inverse: bool, dtype: str) -> tuple[np.ndarray, np.ndarray]:
    """Between split slots and bins 0..n/2: flat indices, and -1 where conjugated.

    Forward, bin ``k`` reads the slot of frequency ``k``, or of ``-k`` where
    no slot holds ``k``.  Inverse, slot ``s`` reads bin ``|f_s|``.
    """
    f = split_freqs(n)
    if inverse:
        return _frozen(np.abs(f), np.intp), _frozen(np.where(f < 0, -1, 1), dtype)
    idx = np.empty(n // 2 + 1, np.intp)
    idx[-f[f < 0]] = np.flatnonzero(f < 0)
    idx[f[f >= 0]] = np.flatnonzero(f >= 0)
    return _frozen(idx, np.intp), _frozen(np.where(f[idx] < 0, -1, 1), dtype)


def apply_dft(x: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    """``x`` contracted with ``mat`` over ``axis`` where it lies, into a new array.

    The last axis runs as ``rows @ mat``, with ``x`` viewed as [first axis,
    rows, n].  There a real ``mat`` of (re, im) pairs reads complex ``x`` as
    pairs, and the product of real ``x`` as complex values.  An inner axis
    takes a complex ``mat``: ``x`` is viewed as [pre, n, post] and
    multiplied by ``mat^T``, batched over ``pre``, with no transpose of ``x``.
    """
    axis %= x.ndim
    shape = x.shape
    if axis < x.ndim - 1:
        x3 = x.reshape(math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:]))
        return np.matmul(mat.T, x3).reshape(shape[:axis] + (-1,) + shape[axis + 1:])
    pairs, real_in = mat.dtype.kind == "f", x.dtype.kind == "f"
    if pairs and not real_in:
        x = np.ascontiguousarray(x).view(x.real.dtype)
    n = x.shape[-1]
    rows = x.reshape(1, 1, n) if x.ndim == 1 else x.reshape(x.shape[0], math.prod(x.shape[1:-1]), n)
    out = np.matmul(rows, mat)
    if pairs and real_in:
        out = out.view(np.result_type(out.dtype, np.complex64))
    return out.reshape(shape[:-1] + (-1,))


def _dft(x: np.ndarray, inverse: bool) -> np.ndarray:
    """DFT along axis 1 of a complex [p, n, q] array, into a new array."""
    p, n, q = x.shape
    if n <= BLOCK:
        return apply_dft(x, 1, dft_matrix(n, n, inverse, False, x.dtype.str))
    n1, n2 = _factor(n)
    # x[t1 n2 + t2] -> y[k1, t2], times w^(k1 t2) -> X[k1 + n1 k2]
    y = _dft(x.reshape(p, n1, n2 * q), inverse).reshape(p, n1, n2, q)
    y *= _twiddle(n1, n2, inverse, x.dtype.str)
    if q == 1 and n2 <= BLOCK:
        # rows through the transposed view, so the product lands as [k2, k1]
        return _dft(y.reshape(p, n1, n2).transpose(0, 2, 1), inverse).reshape(p, n, 1)
    y = _dft(y.reshape(p * n1, n2, q), inverse).reshape(p, n1, n2, q)
    return np.ascontiguousarray(y.transpose(0, 2, 1, 3)).reshape(p, n, q)


def _complex_dtype(dtype: np.dtype) -> np.dtype:
    if dtype.kind == "c":
        return dtype
    return np.dtype(np.complex64 if dtype == np.float32 else np.complex128)


def _as_complex(a) -> np.ndarray:
    a = np.asarray(a)
    return a.astype(_complex_dtype(a.dtype), copy=False)


def _apply_along(x: np.ndarray, axes: tuple[int, ...], inverse: bool) -> np.ndarray:
    """Complex DFT of ``x`` along each of ``axes``, into a new C-ordered array."""
    for ax in axes:
        shape, n = x.shape, x.shape[ax]
        _check_pow2(n)
        if n <= BLOCK:
            x = apply_dft(x, ax, dft_matrix(n, n, inverse, False, x.dtype.str))
        else:  # on the last axis, one stacked item per line: each four-step views it as [n1, n2]
            x3 = x.reshape(math.prod(shape[:ax]), n, math.prod(shape[ax + 1:]))
            x = _dft(x3, inverse).reshape(shape)
    return np.ascontiguousarray(x)


def _row_dft(z: np.ndarray, inverse: bool) -> np.ndarray:
    """Complex DFT along the rows of a C-ordered [p, h, n2] array, into a new array."""
    p, h, n2 = z.shape
    if n2 > BLOCK:
        return _dft(z.reshape(p * h, n2, 1), inverse).reshape(p, h, n2)
    real = z.real.dtype.str
    return np.matmul(z.view(real), _pair_dft(n2, inverse, real)).view(z.dtype)


def _rfft_split_last(x: np.ndarray) -> np.ndarray:
    """The split slots of the last axis of a C-ordered real array."""
    n, real = x.shape[-1], x.dtype.str
    if n <= BLOCK:
        return apply_dft(x, -1, dft_matrix(n, n // 2 + 1, False, True, real))
    n1, n2 = _factor(n)
    h, p = n1 // 2 + 1, x.size // n
    # each row's x[t1 n2 + t2] -> bins k1 <= n1/2 over t1, as (re, im) rows of y
    y = np.matmul(dft_matrix(n1, h, False, True, real).T, x.reshape(p, n1, n2)).reshape(p, h, 2, n2)
    z = np.empty((p, h, n2), _complex_dtype(x.dtype))
    z.real, z.imag = y[:, :, 0], y[:, :, 1]
    z *= _twiddle(n1, n2, False, z.dtype.str)[:h, :, 0]
    return _row_dft(z, inverse=False).reshape(x.shape[:-1] + (h * n2,))


def _irfft_split_last(z: np.ndarray, n: int) -> np.ndarray:
    """``n`` real points from the split slots on the last axis of ``z``."""
    real = z.real.dtype.str
    if n <= BLOCK:
        return apply_dft(z, -1, dft_matrix(n, n // 2 + 1, True, True, real))
    n1, n2 = _factor(n)
    h = n1 // 2 + 1
    y = _row_dft(np.ascontiguousarray(z).reshape(-1, h, n2), inverse=True)
    y *= _twiddle(n1, n2, True, z.dtype.str)[:h, :, 0]
    # (re, im) rows of k1 into the real synthesis over t1
    pairs = np.empty((y.shape[0], h, 2, n2), real)
    pairs[:, :, 0], pairs[:, :, 1] = y.real, y.imag
    out = np.matmul(dft_matrix(n1, h, True, True, real).T, pairs.reshape(-1, 2 * h, n2))
    return out.reshape(z.shape[:-1] + (n,))


def _fold_last(x: np.ndarray, n: int, inverse: bool) -> np.ndarray:
    """The gather between split slots and bins 0..n/2 on the last axis of ``x``."""
    if n <= BLOCK:
        return x
    idx, sign = _fold(n, inverse, x.real.dtype.str)
    out = np.take(x.reshape(-1, x.shape[-1]), idx, axis=-1)
    out.imag *= sign
    return out.reshape(x.shape[:-1] + (-1,))


def _forward_real(a, axes, fold: bool) -> np.ndarray:
    """:func:`rfft` (``fold``: bins 0..n/2) or :func:`rfft_split` (split slots)."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError("rfft expects a real array")
    axes = normalize_axis_tuple(axes, a.ndim)
    last, n = axes[-1], a.shape[axes[-1]]
    _check_pow2(n)
    real = _complex_dtype(a.dtype).char.lower()
    moved = last != a.ndim - 1
    x = _rfft_split_last(np.ascontiguousarray(np.moveaxis(a, last, -1) if moved else a, dtype=real))
    if fold:
        x = _fold_last(x, n, inverse=False)
    return _apply_along(np.moveaxis(x, -1, last) if moved else x, axes[:-1], inverse=False)


def _inverse_real(a, axes, n: int | None, fold: bool) -> np.ndarray:
    """:func:`irfft` (``fold``: from bins 0..n/2) or :func:`irfft_split`."""
    x = _as_complex(a)
    axes = normalize_axis_tuple(axes, x.ndim)
    last = axes[-1]
    if n is None:
        n = 2 * (x.shape[last] - 1)
    _check_pow2(n)
    want, what = (n // 2 + 1, "half-spectrum bins") if fold else (split_freqs(n).size, "split slots")
    if x.shape[last] != want:
        raise ValueError(f"expected {want} {what}, got {x.shape[last]}")
    if axes[:-1]:
        x = _apply_along(x, axes[:-1], inverse=True)
    moved = last != x.ndim - 1
    x = np.moveaxis(x, last, -1) if moved else x
    out = _irfft_split_last(_fold_last(x, n, inverse=True) if fold else x, n)
    return np.ascontiguousarray(np.moveaxis(out, -1, last)) if moved else out


def fft(a: np.ndarray, axes=(-1,)) -> np.ndarray:
    """Unnormalized complex FFT along ``axes``."""
    x = _as_complex(a)
    return _apply_along(x, normalize_axis_tuple(axes, x.ndim), inverse=False)


def ifft(a: np.ndarray, axes=(-1,)) -> np.ndarray:
    """Inverse FFT along ``axes`` with 1/N per axis."""
    x = _as_complex(a)
    return _apply_along(x, normalize_axis_tuple(axes, x.ndim), inverse=True)


def rfft(a: np.ndarray, axes=(-1,)) -> np.ndarray:
    """FFT of a real array keeping bins 0..N/2 of the last of ``axes``.

    The remaining axes, if any, get the full complex transform.
    """
    return _forward_real(a, axes, fold=True)


def irfft(a: np.ndarray, axes=(-1,), n: int | None = None) -> np.ndarray:
    """Inverse of :func:`rfft`; ``n`` is the last-axis output extent.

    The imaginary parts of the DC and Nyquist bins are ignored, as
    ``numpy.fft.irfft`` ignores them.
    """
    return _inverse_real(a, axes, n, fold=True)


def rfft_split(a: np.ndarray, axes=(-1,)) -> np.ndarray:
    """:func:`rfft` with the last of ``axes`` in the split's slot order.

    Slot ``s`` holds the frequency ``split_freqs(n)[s]``: bins 0..N/2 up to
    BLOCK points, the real four-step split's rows past it.  A pointwise
    product with per-frequency coefficients needs no reordering in between.
    """
    return _forward_real(a, axes, fold=False)


def irfft_split(z: np.ndarray, n: int, axes=(-1,)) -> np.ndarray:
    """Inverse of :func:`rfft_split`; ``n`` is the last-axis output extent."""
    return _inverse_real(z, axes, n, fold=False)
