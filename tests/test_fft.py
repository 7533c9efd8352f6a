"""FFT primitives against a direct O(N^2) DFT oracle.

The oracle below is deliberately naive — an explicit twiddle-matrix
multiply — so the blocked kernel and the check share no code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compol import fft as F


def dft_matrix(n: int, inverse: bool = False) -> np.ndarray:
    k = np.arange(n)
    sign = 2j if inverse else -2j
    w = np.exp(sign * np.pi * np.outer(k, k) / n)
    return w / n if inverse else w


def naive_dft(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Direct matrix DFT along the last axis."""
    return x @ dft_matrix(x.shape[-1], inverse).T


def naive_dft_bins(x: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Direct forward DFT along the last axis at the chosen ``bins`` only."""
    t = np.arange(x.shape[-1])
    return x @ np.exp(-2j * np.pi * np.outer(t, bins) / x.shape[-1])


def naive_rfft(x: np.ndarray) -> np.ndarray:
    """Bins 0..n/2 of the direct DFT of a real last axis."""
    return naive_dft_bins(x.astype(np.float64), np.arange(x.shape[-1] // 2 + 1))


def naive_irfft(h: np.ndarray, n: int) -> np.ndarray:
    """Real part of the direct inverse DFT of the Hermitian extension of ``h``."""
    full = np.concatenate([h, np.conj(h[..., 1:n // 2][..., ::-1])], axis=-1)
    return naive_dft(full.astype(np.complex128), inverse=True).real


def naive_irfft_at(h: np.ndarray, n: int, t: np.ndarray) -> np.ndarray:
    """:func:`naive_irfft` at the chosen samples ``t`` only."""
    full = np.concatenate([h, np.conj(h[..., 1:n // 2][..., ::-1])], axis=-1)
    phase = np.outer(np.arange(n), t) % n
    return (full.astype(np.complex128) @ np.exp(2j * np.pi * phase / n)).real / n


def gather_bins(z: np.ndarray, n: int) -> np.ndarray:
    """Bins 0..n/2 from split slots: the slot of ``k``, else the conjugate of ``-k``'s."""
    f = F.split_freqs(n)
    out = np.empty(z.shape[:-1] + (n // 2 + 1,), z.dtype)
    out[..., -f[f < 0]] = np.conj(z[..., f < 0])
    out[..., f[f >= 0]] = z[..., f >= 0]
    return out


def scatter_slots(h: np.ndarray, n: int) -> np.ndarray:
    """Split slots from bins 0..n/2: bin ``|f|``, conjugated where ``f < 0``."""
    f = F.split_freqs(n)
    z = h[..., np.abs(f)]
    z[..., f < 0] = np.conj(z[..., f < 0])
    return z


# ---------------------------------------------------------------------------
# forward/inverse against the oracle


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 512, 1024, 2048])
def test_fft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    got = F.fft(x, axes=(-1,))
    want = naive_dft(x)
    assert np.max(np.abs(got - want)) < 1e-10 * n


@pytest.mark.parametrize("shape, axis", [((8192, 3), 0), ((2, 8192), -1)])
def test_fft_recursive_split_matches_naive_bins(shape, axis):
    """Above BLOCK**2 points a four-step factor splits again, along the
    last axis and along a leading one."""
    assert shape[axis] > F.BLOCK ** 2
    rng = np.random.default_rng(17)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    bins = np.concatenate([np.arange(70), rng.integers(0, shape[axis], 130)])
    got = np.moveaxis(F.fft(x, axes=(axis,)), axis, -1)[..., bins]
    want = naive_dft_bins(np.moveaxis(x, axis, -1), bins)
    assert np.max(np.abs(got - want)) < 1e-10 * shape[axis]


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_ifft_matches_naive_inverse(n):
    rng = np.random.default_rng(n + 1)
    x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    got = F.ifft(x, axes=(-1,))
    want = naive_dft(x, inverse=True)
    assert np.max(np.abs(got - want)) < 1e-10


def test_roundtrip_many_shapes():
    rng = np.random.default_rng(0)
    for shape in [(8,), (4, 16), (2, 3, 32), (5, 1, 64), (2, 8, 8)]:
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        back = F.ifft(F.fft(x, axes=(-1,)), axes=(-1,))
        assert np.max(np.abs(back - x)) < 1e-12, shape


def test_multi_axis_matches_sequential():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 8, 16)) + 1j * rng.normal(size=(3, 8, 16))
    both = F.fft(x, axes=(-2, -1))
    seq = F.fft(F.fft(x, axes=(-1,)), axes=(-2,))
    assert np.max(np.abs(both - seq)) < 1e-12
    # and the oracle along each axis
    want = naive_dft(np.moveaxis(naive_dft(x), -1, -2))
    want = np.moveaxis(want, -1, -2)
    assert np.max(np.abs(both - want)) < 1e-9


def test_parseval():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 128)) + 1j * rng.normal(size=(4, 128))
    X = F.fft(x, axes=(-1,))
    lhs = np.sum(np.abs(x) ** 2, axis=-1)
    rhs = np.sum(np.abs(X) ** 2, axis=-1) / 128
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * 128


# ---------------------------------------------------------------------------
# real transforms


def test_rfft_is_truncated_fft():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 32))
    half = F.rfft(x, axes=(-1,))
    full = F.fft(x.astype(complex), axes=(-1,))
    assert half.shape == (3, 17)
    assert np.max(np.abs(half - full[:, :17])) < 1e-12


def test_irfft_roundtrip_and_hermitian_consistency():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 16))
    back = F.irfft(F.rfft(x, axes=(-1,)), axes=(-1,))
    assert np.max(np.abs(back - x)) < 1e-12
    # 2-D round trip
    y = rng.normal(size=(2, 8, 8))
    back2 = F.irfft(F.rfft(y, axes=(-2, -1)), axes=(-2, -1))
    assert np.max(np.abs(back2 - y)) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 4, 64, 128, 256, 512, 1024, 2048, 8192])
def test_rfft_irfft_match_naive_dft(n, dtype):
    """Both real transforms against the direct DFT, in the input's precision:
    up to BLOCK points one real matmul, beyond it the real four-step split
    n = n1 n2.  Up to 2,048 points the oracle takes every bin and sample; at
    8,192, whose full oracle matrices would take gigabytes, the ends, the
    split's fold bins k = n1/2 and n1/2 +- 1 (mod n1), where the gather
    turns from the rows to their conjugates, and random ones."""
    tol = 2e-6 if dtype == np.float32 else 1e-10   # the oracle's own error in float64
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n)).astype(dtype)
    got = F.rfft(x, axes=(-1,))
    assert got.dtype == (np.complex64 if dtype == np.float32 else np.complex128)
    if n <= 2048:
        assert np.max(np.abs(got - naive_rfft(x))) < tol * n
    h = (rng.normal(size=(3, n // 2 + 1)) + 1j * rng.normal(size=(3, n // 2 + 1)))
    h[:, [0, -1]] = h[:, [0, -1]].real
    h = h.astype(got.dtype)
    back = F.irfft(h, axes=(-1,))
    assert back.dtype == dtype
    if n <= 2048:
        assert np.max(np.abs(back - naive_irfft(h, n))) < tol
        return
    n1 = F._factor(n)[0]
    fold = np.arange(n1 // 2 - 1, n // 2, n1)[:, None] + np.arange(3)
    pick = np.unique(np.r_[0, 1, fold.ravel(), n // 2 - 1, n // 2, rng.integers(0, n // 2, 64)])
    want = naive_dft_bins(x.astype(np.float64), pick)
    assert np.max(np.abs(got[:, pick] - want)) < tol * n
    assert np.max(np.abs(back[:, pick] - naive_irfft_at(h, n, pick))) < tol


@pytest.mark.parametrize("n", [2, 64, 128, 1024, 8192])
def test_split_pair_matches_naive_dft_at_its_frequencies(n):
    """Slot ``s`` of ``rfft_split`` is the direct DFT at ``split_freqs(n)[s]``,
    and ``irfft_split`` of a real signal's slots is the direct inverse of its
    half spectrum.  At 8,192 points the oracle takes the ends, the slots of
    rows 0 and 1 and of the last row, and random ones."""
    rng = np.random.default_rng(n + 11)
    x = rng.normal(size=(3, n))
    f = F.split_freqs(n)
    got = F.rfft_split(x, axes=(-1,))
    assert got.shape == (3, f.size)
    n2 = n // F._factor(n)[0] if n > F.BLOCK else f.size
    pick = np.arange(f.size) if n <= 2048 else np.unique(
        np.r_[np.arange(2 * n2), np.arange(f.size - n2, f.size), rng.integers(0, f.size, 64)])
    want = naive_dft_bins(x, f[pick] % n)
    assert np.max(np.abs(got[:, pick] - want)) < 1e-10 * n
    h = rng.normal(size=(3, n // 2 + 1)) + 1j * rng.normal(size=(3, n // 2 + 1))
    h[:, [0, -1]] = h[:, [0, -1]].real
    back = F.irfft_split(scatter_slots(h, n), n, axes=(-1,))
    t = np.arange(n) if n <= 2048 else np.unique(np.r_[0, 1, n // 2, n - 1, rng.integers(0, n, 64)])
    assert np.max(np.abs(back[:, t] - naive_irfft_at(h, n, t))) < 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 64, 128, 1024, 8192])
def test_rfft_and_irfft_are_the_gather_and_scatter_of_the_split_pair(n, dtype):
    """One implementation: the bin-order transforms give the bits of the
    split pair reordered, on a C-ordered last axis and on a moved one."""
    rng = np.random.default_rng(n + 12)
    x = rng.normal(size=(4, 3, n)).astype(dtype)
    assert np.array_equal(F.rfft(x, axes=(-1,)), gather_bins(F.rfft_split(x, axes=(-1,)), n))
    xt = np.moveaxis(x, -1, 1)
    assert np.array_equal(F.rfft(xt, axes=(1,)),
                          np.moveaxis(gather_bins(F.rfft_split(x, axes=(-1,)), n), -1, 1))
    h = F.rfft(x, axes=(-1,)) + 1j      # complex DC and Nyquist, which both ignore
    assert np.array_equal(F.irfft(h, axes=(-1,)),
                          F.irfft_split(scatter_slots(h, n), n, axes=(-1,)))


@pytest.mark.parametrize("n", [16, 128, 1024])
def test_split_pair_round_trip(n):
    rng = np.random.default_rng(n + 13)
    x = rng.normal(size=(2, 3, n))
    back = F.irfft_split(F.rfft_split(x, axes=(-1,)), n, axes=(-1,))
    assert np.max(np.abs(back - x)) < 1e-12
    y = rng.normal(size=(2, n, 32))
    back = F.irfft_split(F.rfft_split(y, axes=(1,)), n, axes=(1,))
    assert np.max(np.abs(back - y)) < 1e-12
    z = rng.normal(size=(2, 16, n))
    back = F.irfft_split(F.rfft_split(z, axes=(-2, -1)), n, axes=(-2, -1))
    assert np.max(np.abs(back - z)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 64, 128, 256, 1024, 8192, 2 ** 16])
def test_split_freqs_cover_every_bin_and_nothing_past_nyquist(n):
    f = F.split_freqs(n)
    assert f.dtype.kind == "i" and not f.flags.writeable
    assert np.array_equal(np.unique(np.abs(f)), np.arange(n // 2 + 1))
    assert np.all(np.abs(f) <= n // 2) and n // 2 in f
    if n <= F.BLOCK:
        assert np.array_equal(f, np.arange(n // 2 + 1))
    else:       # every frequency at most twice, as itself and its negative
        assert np.unique(f).size == f.size


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n", [4, 64, 256, 1024, 8192])
def test_irfft_ignores_dc_and_nyquist_imaginary_parts(n, dtype):
    """A truncated spectrum's new Nyquist bin is complex; only its real part
    belongs to a real signal, as numpy.fft.irfft has it.  At 8,192 points
    the oracle takes the ends and random samples."""
    rng = np.random.default_rng(n + 3)
    h = (rng.normal(size=(2, 3, n // 2 + 1))
         + 1j * rng.normal(size=(2, 3, n // 2 + 1))).astype(dtype)
    real_ends = h.copy()
    real_ends[..., [0, -1]] = real_ends[..., [0, -1]].real
    got = F.irfft(h, axes=(-1,))
    assert np.array_equal(got, F.irfft(real_ends, axes=(-1,)))
    if n <= 2048:
        want = naive_irfft(real_ends, n)
    else:
        t = np.unique(np.r_[0, 1, n // 2, n - 1, rng.integers(0, n, 64)])
        got, want = got[..., t], naive_irfft_at(real_ends, n, t)
    assert np.max(np.abs(got - want)) < (2e-6 if dtype == np.complex64 else 1e-10)


@pytest.mark.parametrize("n, dtype", [
    pytest.param(n, dtype, id=f"{n}" if dtype is np.float64 else f"{n}-float32")
    for dtype in (np.float64, np.float32) for n in (16, 128, 1024, 8192)])
def test_first_axis_slices_transform_alike(n, dtype):
    """A slice of the first axis gets the same bits alone as in its array,
    so a sample's data do not depend on how many samples share a chunk:
    one matmul, the real split's smallest case (128), its usual one (1,024)
    and its stage 2 past BLOCK (8,192)."""
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(5, n)).astype(dtype)    # a lone row is a different BLAS call
    for i in (0, 4):
        assert np.array_equal(F.rfft(rows, axes=(-1,))[i], F.rfft(rows[i:i + 1], axes=(-1,))[0])
        assert np.array_equal(F.fft(rows + 1j, axes=(-1,))[i],
                              F.fft(rows[i:i + 1] + 1j, axes=(-1,))[0])
    x = rng.normal(size=(5, 3, n)).astype(dtype)
    for i in (0, 4):
        assert np.array_equal(F.rfft(x, axes=(-1,))[i], F.rfft(x[i:i + 1], axes=(-1,))[0])
        h = F.rfft(x, axes=(-1,))
        assert np.array_equal(F.irfft(h, axes=(-1,))[i], F.irfft(h[i:i + 1], axes=(-1,))[0])
        c = x + 1j
        assert np.array_equal(F.fft(c, axes=(-1,))[i], F.fft(c[i:i + 1], axes=(-1,))[0])
    y = rng.normal(size=(5, 2, n, 32) if n <= 64 else (5, 2, 128, 128)).astype(dtype)
    whole = F.rfft(y, axes=(-2, -1))
    assert np.array_equal(whole[3], F.rfft(y[3:4], axes=(-2, -1))[0])
    assert np.array_equal(F.irfft(whole, axes=(-2, -1))[3],
                          F.irfft(whole[3:4], axes=(-2, -1))[0])


@pytest.mark.parametrize("n, dtype", [
    pytest.param(n, dtype, id=f"{n}" if dtype is np.float64 else f"{n}-float32")
    for n, dtype in ((128, np.float64), (1024, np.float64), (1024, np.float32),
                     (8192, np.float64))])
def test_first_axis_slices_split_alike(n, dtype):
    """The split pair keeps the bits of a first-axis slice, 1-D and 2-D."""
    rng = np.random.default_rng(n + 14)
    x = rng.normal(size=(5, 3, n)).astype(dtype)
    z = F.rfft_split(x, axes=(-1,))
    for i in (0, 4):
        assert np.array_equal(z[i], F.rfft_split(x[i:i + 1], axes=(-1,))[0])
        assert np.array_equal(F.irfft_split(z, n, axes=(-1,))[i],
                              F.irfft_split(z[i:i + 1], n, axes=(-1,))[0])
    y = rng.normal(size=(5, 2, 16, n)).astype(dtype)
    whole = F.rfft_split(y, axes=(-2, -1))
    assert np.array_equal(whole[3], F.rfft_split(y[3:4], axes=(-2, -1))[0])
    assert np.array_equal(F.irfft_split(whole, n, axes=(-2, -1))[3],
                          F.irfft_split(whole[3:4], n, axes=(-2, -1))[0])


@pytest.mark.parametrize("n", [16, 1024])
def test_last_axis_in_place_and_moved_give_the_same_bits(n):
    """On a C-ordered last axis rfft and irfft skip the axis moves and the
    contiguous copies.  The same rows as the first axis of the transpose,
    or as a strided slice, take the general path to the same bits."""
    rng = np.random.default_rng(n + 7)
    x = rng.normal(size=(5, n))
    h = F.rfft(x, axes=(-1,))
    y = F.irfft(h, axes=(-1,))
    assert np.array_equal(F.rfft(x.T, axes=(0,)), h.T)
    assert np.array_equal(F.irfft(h.T, axes=(0,)), y.T)
    wide = np.repeat(x, 2, axis=-1)[:, ::2]
    assert not wide.flags.c_contiguous and np.array_equal(wide, x)
    assert np.array_equal(F.rfft(wide, axes=(-1,)), h)
    wide_h = np.repeat(h, 2, axis=-1)[:, ::2]
    assert np.array_equal(F.irfft(wide_h, axes=(-1,)), y)


def test_irfft_explicit_n():
    rng = np.random.default_rng(7)
    spec = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    out = F.irfft(spec, axes=(-1,), n=16)
    assert out.shape == (2, 16)
    assert out.dtype == np.float64


def test_single_precision_stays_single():
    x = np.random.default_rng(1).normal(size=(2, 16)).astype(np.float32)
    assert F.rfft(x, axes=(-1,)).dtype == np.complex64
    assert F.irfft(F.rfft(x, axes=(-1,)), axes=(-1,)).dtype == np.float32


def test_non_power_of_two_rejected():
    x = np.zeros(12, dtype=complex)
    with pytest.raises(F.UnsupportedLengthError):
        F.fft(x, axes=(-1,))
    with pytest.raises(F.UnsupportedLengthError):
        F.rfft(np.zeros(10), axes=(-1,))
    with pytest.raises(F.UnsupportedLengthError):
        F.rfft_split(np.zeros(10), axes=(-1,))
    with pytest.raises(F.UnsupportedLengthError):
        F.irfft_split(np.zeros(6, dtype=complex), 10, axes=(-1,))
    with pytest.raises(F.UnsupportedLengthError):
        F.split_freqs(96)
    with pytest.raises(ValueError, match="expected 80 split slots, got 65"):
        F.irfft_split(np.zeros(65, dtype=complex), 128, axes=(-1,))


# ---------------------------------------------------------------------------
# algebraic properties


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_linearity(log2n, a, b):
    n = 2 ** log2n
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    lhs = F.fft(a * x + b * y, axes=(-1,))
    rhs = a * F.fft(x, axes=(-1,)) + b * F.fft(y, axes=(-1,))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=63))
def test_shift_theorem(log2n, shift):
    """Circular shift in space is a phase ramp in frequency."""
    n = 2 ** log2n
    s = shift % n
    rng = np.random.default_rng(log2n * 100 + s)
    x = rng.normal(size=n)
    lhs = F.fft(np.roll(x, s).astype(complex), axes=(-1,))
    k = np.arange(n)
    rhs = F.fft(x.astype(complex), axes=(-1,)) * np.exp(-2j * np.pi * k * s / n)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_impulse_and_constant_spectra():
    n = 16
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    assert np.max(np.abs(F.fft(impulse, axes=(-1,)) - 1.0)) < 1e-14
    const = np.ones(n, dtype=complex)
    spec = F.fft(const, axes=(-1,))
    assert abs(spec[0] - n) < 1e-12
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_fortran_ordered_input():
    rng = np.random.default_rng(11)
    x = np.asfortranarray(rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16)))
    assert np.max(np.abs(F.fft(x, axes=(-1,)) - naive_dft(np.ascontiguousarray(x)))) < 1e-10
