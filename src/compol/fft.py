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
exceeds ``BLOCK``.  A longer real transform reads its ``N = 2m`` reals as
``m`` complex values ``x[2j] + i x[2j+1]`` and separates the spectra ``E``
and ``O`` of the even and odd samples with the post-twiddle of Sorensen et
al. (1987).  As ``X[k] = E_k + w^k O_k`` and ``X[m-k] = conj(E_k - w^k O_k)``,
one half-length pass over the pairs ``k = 1..m/2`` gives both halves, and
the inverse mirrors it: half a complex transform plus one pass.

Every matmul is stacked over the first axis of its operand, with shapes
that do not depend on that axis's extent: a slice of the first axis
transforms to the same bits however many slices share the array.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple

__all__ = ["fft", "ifft", "rfft", "irfft", "dft_matrix", "apply_dft", "UnsupportedLengthError"]

BLOCK = 64


class UnsupportedLengthError(ValueError):
    """Raised when a transform extent is not a power of two (>= 2)."""


def _check_pow2(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise UnsupportedLengthError(
            f"transform extent must be a power of two >= 2, got {n}"
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


@lru_cache(maxsize=64)
def _twiddle(n1: int, n2: int, inverse: bool, dtype: str) -> np.ndarray:
    """Four-step twiddles ``w^(k1 t2)`` of ``n = n1 n2``, as [n1, n2, 1]."""
    return _frozen(_phase(n1, n2, n1 * n2, inverse)[:, :, None], dtype)


@lru_cache(maxsize=64)
def _pair_twiddle(m: int, inverse: bool, dtype: str) -> np.ndarray:
    """Factors ``(1 -+ i w^k) / 2`` for ``0 < k <= m/2``, ``w = exp(-+2 pi i / 2m)``."""
    w = _phase(2, m // 2 + 1, 2 * m, inverse)[1, 1:]
    return _frozen((1 + (1j if inverse else -1j) * w) / 2, dtype)


def _pair_pass(src: np.ndarray, dst: np.ndarray, m: int, inverse: bool) -> None:
    """Bins ``k`` and ``m-k`` of ``dst`` from the same bins of ``src``, ``0 < k <= m/2``.

    ``a = src[k]``, ``b = conj(src[m-k])``, ``d = A_k (a - b)`` with ``A_k``
    from :func:`_pair_twiddle`: ``dst[k] = b + d``, ``dst[m-k] = conj(a - d)``.
    Forward ``src`` is ``Z`` and ``dst`` is ``X``; inverse, the other way round.
    """
    h = m // 2
    a = src[..., 1:h + 1]
    b = np.conjugate(src[..., m - 1:h - 1:-1])
    d = a - b
    d *= _pair_twiddle(m, inverse, src.dtype.str)
    np.add(b, d, out=dst[..., 1:h + 1])
    np.subtract(a, d, out=b)
    np.conjugate(b, out=dst[..., m - 1:h - 1:-1])


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
    n1 = min(BLOCK, 1 << ((n.bit_length() - 1) // 2))
    n2 = n // n1
    # x[t1 n2 + t2] -> y[k1, t2], times w^(k1 t2) -> X[k1 + n1 k2]
    y = _dft(x.reshape(p, n1, n2 * q), inverse).reshape(p, n1, n2, q)
    y *= _twiddle(n1, n2, inverse, x.dtype.str)
    if q == 1 and n2 <= BLOCK:
        # rows through the transposed view, so the product lands as [k2, k1]
        return _dft(y.reshape(p, n1, n2).transpose(0, 2, 1), inverse).reshape(p, n, 1)
    y = _dft(y.reshape(p * n1, n2, q), inverse).reshape(p, n1, n2, q)
    return np.ascontiguousarray(y.transpose(0, 2, 1, 3)).reshape(p, n, q)


def _along(x: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    """Complex DFT of ``x`` along ``axis``, into a new C-ordered array."""
    axis %= x.ndim
    shape, n = x.shape, x.shape[axis]
    if n <= BLOCK:
        return apply_dft(x, axis, dft_matrix(n, n, inverse, False, x.dtype.str))
    # on the last axis, one stacked item per line: the four-step views each as [n1, n2]
    x3 = x.reshape(math.prod(shape[:axis]), n, math.prod(shape[axis + 1:]))
    return _dft(x3, inverse).reshape(shape)


def _complex_dtype(dtype: np.dtype) -> np.dtype:
    if dtype.kind == "c":
        return dtype
    return np.dtype(np.complex64 if dtype == np.float32 else np.complex128)


def _as_complex(a) -> np.ndarray:
    a = np.asarray(a)
    return a.astype(_complex_dtype(a.dtype), copy=False)


def _apply_along(x: np.ndarray, axes: tuple[int, ...], inverse: bool) -> np.ndarray:
    for ax in axes:
        _check_pow2(x.shape[ax])
        x = _along(x, ax, inverse)
    return np.ascontiguousarray(x)


def _rfft_last(x: np.ndarray) -> np.ndarray:
    """Bins 0..n/2 of the last axis of a C-ordered real array."""
    n = x.shape[-1]
    cdt = _complex_dtype(x.dtype)
    if n <= BLOCK:
        return apply_dft(x, -1, dft_matrix(n, n // 2 + 1, False, True, x.dtype.str))
    m = n // 2
    # Z = E + i O, where E and O are the spectra of the even and odd samples
    z = _along(x.view(cdt), -1, inverse=False)
    out = np.empty(z.shape[:-1] + (m + 1,), dtype=cdt)
    re, im = z[..., 0].real, z[..., 0].imag
    out[..., 0] = re + im
    out[..., m] = re - im
    _pair_pass(z, out, m, inverse=False)
    return out


def _irfft_last(x: np.ndarray, n: int) -> np.ndarray:
    """``n`` real points from bins 0..n/2 on the last axis of ``x``."""
    real = x.real.dtype
    if n <= BLOCK:
        return apply_dft(x, -1, dft_matrix(n, n // 2 + 1, True, True, real.str))
    m = n // 2
    # only the real parts of X[0] and X[m] count
    z = np.empty(x.shape[:-1] + (m,), dtype=x.dtype)
    dc, ny = x[..., 0].real, x[..., m].real
    z.real[..., 0] = (dc + ny) * 0.5
    z.imag[..., 0] = (dc - ny) * 0.5
    _pair_pass(x, z, m, inverse=True)
    # the inverse of Z interleaves the even and odd samples
    return _along(z, -1, inverse=True).view(real)


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
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError("rfft expects a real array")
    axes = normalize_axis_tuple(axes, a.ndim)
    last = axes[-1]
    _check_pow2(a.shape[last])
    real = _complex_dtype(a.dtype).char.lower()
    moved = last != a.ndim - 1
    x = _rfft_last(np.ascontiguousarray(np.moveaxis(a, last, -1) if moved else a, dtype=real))
    return _apply_along(np.moveaxis(x, -1, last) if moved else x, axes[:-1], inverse=False)


def irfft(a: np.ndarray, axes=(-1,), n: int | None = None) -> np.ndarray:
    """Inverse of :func:`rfft`; ``n`` is the last-axis output extent.

    The imaginary parts of the DC and Nyquist bins are ignored, as
    ``numpy.fft.irfft`` ignores them.
    """
    x = _as_complex(a)
    axes = normalize_axis_tuple(axes, x.ndim)
    last = axes[-1]
    if n is None:
        n = 2 * (x.shape[last] - 1)
    _check_pow2(n)
    if x.shape[last] != n // 2 + 1:
        raise ValueError(f"expected {n // 2 + 1} half-spectrum bins, got {x.shape[last]}")
    if axes[:-1]:
        x = _apply_along(x, axes[:-1], inverse=True)
    moved = last != x.ndim - 1
    out = _irfft_last(np.moveaxis(x, last, -1) if moved else x, n)
    return np.ascontiguousarray(np.moveaxis(out, -1, last)) if moved else out
