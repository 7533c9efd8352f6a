"""Operator building blocks: spectral convolution, lift/project, coords.

The spectral convolution is checked against a literal reference that
does the whole thing with dense numpy FFTs and an einsum — an
independent path from the tape op it is built on.  Latents are
channels-last, [batch, *grid, width]; test fields are drawn as
[batch, width, *grid] and moved with :func:`cl`, so the draws match the
channels-first layout the package used before.
"""

import numpy as np
import pytest

from compol import layers as L
from compol import tensor as T


def cl(a):
    """[batch, channels, *grid] as channels-last [batch, *grid, channels]."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def reference_spectral_conv_1d(v, r):
    """Dense rfft -> per-mode matrix multiply -> irfft, all numpy."""
    n = v.shape[1]
    k1 = r.shape[-1]
    vhat = np.fft.rfft(v, axis=1)
    out = np.zeros(vhat.shape[:-1] + r.shape[1:2], complex)
    out[:, :k1] = np.einsum("bki,iok->bko", vhat[:, :k1], r)
    return np.fft.irfft(out, n=n, axis=1)


def reference_spectral_conv_2d(v, r):
    n1, n2 = v.shape[1:3]
    k1, k2 = r.shape[-2], r.shape[-1]
    rows = L.full_axis_mode_indices(k2, n1)
    vhat = np.fft.rfft2(v, axes=(1, 2))
    sel = vhat[:, rows][:, :, :k1]                       # [b, k2, k1, w]
    mixed = np.einsum("blki,iokl->blko", sel, r)
    out = np.zeros(vhat.shape[:-1] + r.shape[1:2], complex)
    for j, row in enumerate(rows):
        out[:, row, :k1] = mixed[:, j]
    return np.fft.irfft2(out, s=(n1, n2), axes=(1, 2))


# ---------------------------------------------------------------------------
# mode retention


def test_full_axis_mode_order():
    assert L.full_axis_mode_indices(5, 8).tolist() == [0, 1, 7, 2, 6]
    assert L.full_axis_mode_indices(1, 8).tolist() == [0]
    assert L.full_axis_mode_indices(4, 8).tolist() == [0, 1, 7, 2]


def test_full_axis_mode_indices_rejects_overrun():
    with pytest.raises(ValueError):
        L.full_axis_mode_indices(9, 8)


# ---------------------------------------------------------------------------
# spectral convolution


def test_spectral_conv_1d_matches_reference():
    rng = np.random.default_rng(0)
    v = cl(rng.normal(size=(2, 4, 16)))
    r = (rng.normal(size=(4, 4, 5)) + 1j * rng.normal(size=(4, 4, 5)))
    got = L.spectral_conv(T.Tensor(v), T.Tensor(r)).data
    want = reference_spectral_conv_1d(v, r)
    assert np.max(np.abs(got - want)) < 1e-12


def test_spectral_conv_2d_matches_reference():
    rng = np.random.default_rng(1)
    v = cl(rng.normal(size=(2, 3, 8, 8)))
    r = (rng.normal(size=(3, 3, 4, 3)) + 1j * rng.normal(size=(3, 3, 4, 3)))
    got = L.spectral_conv(T.Tensor(v), T.Tensor(r)).data
    want = reference_spectral_conv_2d(v, r)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_spectral_conv_matches_reference_at_every_size(n):
    """float64, 1-D and 2-D, with a few modes and with every bin (Nyquist
    included), and more output than input channels."""
    rng = np.random.default_rng(n)
    for k1, k2 in [(3, 5), (n // 2 + 1, n)]:
        v = rng.normal(size=(2, n, 3))
        r = rng.normal(size=(3, 4, k1)) + 1j * rng.normal(size=(3, 4, k1))
        got = L.spectral_conv(T.Tensor(v), T.Tensor(r)).data
        assert np.max(np.abs(got - reference_spectral_conv_1d(v, r))) < 1e-12
        v2 = rng.normal(size=(2, n, n, 3))
        r2 = rng.normal(size=(3, 4, k1, k2)) + 1j * rng.normal(size=(3, 4, k1, k2))
        got = L.spectral_conv(T.Tensor(v2), T.Tensor(r2)).data
        assert np.max(np.abs(got - reference_spectral_conv_2d(v2, r2))) < 1e-12


def test_spectral_conv_output_is_real_and_shaped():
    rng = np.random.default_rng(2)
    v = cl(rng.normal(size=(3, 4, 32)).astype(np.float32))
    r = (rng.normal(size=(4, 4, 6)) + 1j * rng.normal(size=(4, 4, 6))).astype(np.complex64)
    out = L.spectral_conv(T.Tensor(v), T.Tensor(r))
    assert out.shape == (3, 32, 4)
    assert out.data.dtype == np.float32


def test_spectral_conv_translation_equivariance_1d():
    """Keeping only low modes commutes with circular shifts."""
    rng = np.random.default_rng(3)
    v = cl(rng.normal(size=(1, 3, 32)))
    r = (rng.normal(size=(3, 3, 7)) + 1j * rng.normal(size=(3, 3, 7)))
    base = L.spectral_conv(T.Tensor(v), T.Tensor(r)).data
    for s in (1, 5, 16, 31):
        shifted = L.spectral_conv(T.Tensor(np.roll(v, s, 1)), T.Tensor(r)).data
        assert np.max(np.abs(shifted - np.roll(base, s, 1))) < 1e-12, s


def test_spectral_conv_records_only_truncated_dft_nodes():
    """One node in 1-D and in 2-D: the truncated DFTs and the mode mixing
    are inside it.  No gather, scatter, full FFT or transpose node."""
    rng = np.random.default_rng(9)
    for v_shape, r_shape in [((2, 16, 3), (3, 3, 5)), ((2, 8, 8, 3), (3, 3, 4, 3))]:
        tape = T.Tape()
        v = tape.leaf(rng.normal(size=v_shape))
        r = tape.leaf(rng.normal(size=r_shape) + 0j)
        L.spectral_conv(v, r)
        assert [node.name for node in tape._nodes[2:]] == ["spectral_conv"]


def test_fourier_layer_records_no_transpose():
    """The channel map is one affine node and the latent keeps its layout
    through the layer: no moveaxis in 1-D or 2-D."""
    rng = np.random.default_rng(10)
    for v_shape, modes, spatial in [((2, 16, 3), 5, 1), ((2, 8, 8, 3), (4, 3), 2)]:
        p = L.draw(L.FourierLayerParams, rng, L.fourier_shapes(3, modes, spatial), np.float64)
        tape = T.Tape()
        leaves = L.FourierLayerParams(*(tape.leaf(a) for a in (p.r, p.w, p.b)))
        L.fourier_layer(tape.leaf(rng.normal(size=v_shape)), leaves)
        assert [node.name for node in tape._nodes[4:]] == ["affine", "spectral_conv", "add", "gelu"]


def test_lift_and_project_transpose_once():
    """The only layout changes are at the ends: the lift moves its few input
    channels last, the projection moves its d_out channels back."""
    p = L.draw(L.LiftProjectParams, np.random.default_rng(11), L.lift_project_shapes(2, 1, 4),
               np.float64)
    tape = T.Tape()
    v = L.lift(tape.leaf(np.ones((2, 1, 8))), p)
    L.project(v, p)
    assert [node.name for node in tape._nodes[1:]] == [
        "concat", "moveaxis", "affine", "affine", "gelu", "affine", "moveaxis"]


def test_spectral_conv_too_many_modes():
    v = T.Tensor(np.zeros((1, 8, 2)))
    r = T.Tensor(np.zeros((2, 2, 6), dtype=complex))  # 8//2+1 = 5 bins
    with pytest.raises(T.ShapeError):
        L.spectral_conv(v, r)
    v2 = T.Tensor(np.zeros((1, 4, 8, 2)))
    with pytest.raises(T.ShapeError):       # k1 = 6 > 8//2+1 real-axis bins
        L.spectral_conv(v2, T.Tensor(np.zeros((2, 2, 6, 2), dtype=complex)))
    with pytest.raises(ValueError):         # k2 = 5 > n1 = 4 full-axis bins
        L.spectral_conv(v2, T.Tensor(np.zeros((2, 2, 3, 5), dtype=complex)))


def test_spectral_param_count_formula():
    """Retained-mode weights hold exactly 2 * modes * width^2 reals."""
    for width, modes in [(4, 3), (8, 5), (32, 12)]:
        p = L.draw(L.FourierLayerParams, np.random.default_rng(0),
                   L.fourier_shapes(width, modes, 1))
        assert p.r.size * 2 == 2 * modes * width * width
    p2 = L.draw(L.FourierLayerParams, np.random.default_rng(0), L.fourier_shapes(8, (4, 3), 2))
    assert p2.r.size * 2 == 2 * (4 * 3) * 8 * 8


# ---------------------------------------------------------------------------
# pointwise ops, lift, project


def test_channel_affine_is_per_point_linear_map():
    rng = np.random.default_rng(4)
    v = cl(rng.normal(size=(2, 3, 5)))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    got = L.channel_affine(T.Tensor(v), T.Tensor(w), T.Tensor(b)).data
    want = np.einsum("bnc,cd->bnd", v, w) + b
    assert np.max(np.abs(got - want)) < 1e-12


def test_coordinate_channels_values():
    c = L.coordinate_channels(2, (4,))
    assert c.shape == (2, 1, 4)
    assert np.allclose(c[0, 0], [0.0, 0.25, 0.5, 0.75])
    c2 = L.coordinate_channels(1, (2, 4))
    assert c2.shape == (1, 2, 2, 4)
    assert np.allclose(c2[0, 0, :, 0], [0.0, 0.5])     # first axis varies
    assert np.allclose(c2[0, 1, 0, :], [0.0, 0.25, 0.5, 0.75])


def test_lift_appends_coords_then_maps():
    rng = np.random.default_rng(5)
    p = L.draw(L.LiftProjectParams, rng, L.lift_project_shapes(1 + 1, 1, 6), np.float64)
    f = rng.normal(size=(2, 1, 8))
    out = L.lift(T.Tensor(f), p, with_coords=True)
    assert out.shape == (2, 8, 6)
    coords = L.coordinate_channels(2, (8,), dtype=np.float64)
    stacked = np.concatenate([f, coords], axis=1)
    want = np.einsum("bcn,cd->bnd", stacked, p.p) + p.p_b
    assert np.max(np.abs(out.data - want)) < 1e-12


def test_lift_without_coords_needs_matching_width():
    rng = np.random.default_rng(6)
    p = L.draw(L.LiftProjectParams, rng, L.lift_project_shapes(2, 1, 4), np.float64)
    f = rng.normal(size=(1, 2, 8))
    assert L.lift(T.Tensor(f), p, with_coords=False).shape == (1, 8, 4)


def test_project_shapes_and_hidden_width():
    rng = np.random.default_rng(7)
    p = L.draw(L.LiftProjectParams, rng, L.lift_project_shapes(1, 3, 6), np.float64)
    assert p.q1.shape == (6, L.PROJECT_HIDDEN)
    assert p.q2.shape == (L.PROJECT_HIDDEN, 3)
    v = cl(rng.normal(size=(2, 6, 8)))
    assert L.project(T.Tensor(v), p).shape == (2, 3, 8)


def test_fourier_layer_zero_weights_gives_activation_of_zero():
    p = L.FourierLayerParams(
        r=np.zeros((3, 3, 2), dtype=complex),
        w=np.zeros((3, 3)),
        b=np.zeros(3))
    v = cl(np.random.default_rng(8).normal(size=(1, 3, 8)))
    out = L.fourier_layer(T.Tensor(v), p).data
    assert np.max(np.abs(out)) < 1e-15


def test_init_respects_dtype():
    p32 = L.draw(L.FourierLayerParams, np.random.default_rng(0), L.fourier_shapes(4, 3, 1),
                 np.float32)
    assert p32.r.dtype == np.complex64 and p32.w.dtype == np.float32
    p64 = L.draw(L.FourierLayerParams, np.random.default_rng(0), L.fourier_shapes(4, 3, 1),
                 np.float64)
    assert p64.r.dtype == np.complex128 and p64.w.dtype == np.float64
