"""Autodiff core: forward semantics, tape mechanics, and gradients.

The exhaustive per-op finite-difference sweep lives in the gradcheck
module; here we pin the op semantics, the error paths, and the complex
truncated-DFT gradient conventions that are easy to get silently
wrong (scaling, conjugation and Hermitian weights of the adjoints).
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compol import fft as K
from compol import tensor as T
from compol.layers import full_axis_mode_indices


def leafs(tape, *arrays):
    return [tape.leaf(np.asarray(a)) for a in arrays]


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_returns_gradients_for_all_leaves():
    tape = T.Tape()
    a, b = leafs(tape, np.ones(3), 2.0 * np.ones(3))
    loss = T.reduce_sum(a * b)
    grads = T.backward(tape, loss)
    assert np.allclose(grads[a], 2.0)
    assert np.allclose(grads[b], 1.0)


def test_unused_leaf_gets_zero_gradient():
    tape = T.Tape()
    a, b = leafs(tape, np.ones(2), np.ones(2))
    grads = T.backward(tape, T.reduce_sum(a))
    assert np.allclose(grads[b], 0.0)


def test_second_backward_on_a_tape_raises():
    tape = T.Tape()
    (a,) = leafs(tape, np.ones(3))
    loss = T.reduce_sum(a * a)
    T.backward(tape, loss)
    with pytest.raises(T.TapeError):
        T.backward(tape, loss)


def test_recording_on_a_swept_tape_raises():
    tape = T.Tape()
    (a,) = leafs(tape, np.ones(3))
    T.backward(tape, T.reduce_sum(a))
    with pytest.raises(T.TapeError):
        a * a
    with pytest.raises(T.TapeError):
        tape.leaf(np.ones(3))


def _spy(node, before):
    """Call ``before(g)`` ahead of a node's backward, holding the closure only here."""
    inner = node.backward
    node.backward = lambda g: before(g) or inner(g)


def test_sweep_frees_forward_values_as_it_goes():
    """A closure goes once it has run, and a cotangent once it has been
    passed on, so both are freed, by reference count alone, before the next
    node's backward runs; len() still counts the recorded nodes."""
    gc.disable()
    try:
        tape = T.Tape()
        (a,) = leafs(tape, np.linspace(-1.0, 1.0, 5))
        h = T.gelu(a)
        t = T.tanh(h)
        saved = weakref.ref(t.data)         # tanh's closure keeps its output
        loss = T.reduce_sum(t)
        tanh_node, gelu_node = tape._nodes[t.node_id], tape._nodes[h.node_id]
        del t
        received, freed = [], []
        _spy(tanh_node, lambda g: received.append(weakref.ref(g)))
        _spy(gelu_node, lambda g: freed.append((saved() is None, received[0]() is None)))
        recorded = len(tape)
        grads = T.backward(tape, loss)
        assert freed == [(True, True)]
        assert len(tape) == recorded == 4
        assert grads[a].shape == (5,)
    finally:
        gc.enable()


def test_gradient_map_refuses_intermediates():
    tape = T.Tape()
    a, b = leafs(tape, np.ones(3), np.ones(3))
    h = a * b
    unused = a + b
    grads = T.backward(tape, T.reduce_sum(h))
    for t in (h, unused):
        with pytest.raises(T.TapeError):
            grads[t]
    other = T.Tape().leaf(np.ones(3))
    with pytest.raises(T.TapeError):
        grads[other]
    assert np.allclose(grads[a], 1.0)


def test_mixing_tapes_rejected():
    t1, t2 = T.Tape(), T.Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(T.TapeError):
        a + b


def test_backward_requires_scalar():
    tape = T.Tape()
    (a,) = leafs(tape, np.ones(3))
    with pytest.raises(T.ShapeError):
        T.backward(tape, a + a)


def test_constants_join_tape_computations():
    tape = T.Tape()
    (a,) = leafs(tape, np.arange(3.0))
    c = T.Tensor(np.array([1.0, 10.0, 100.0]))
    grads = T.backward(tape, T.reduce_sum(a * c))
    assert np.allclose(grads[a], [1.0, 10.0, 100.0])


def test_reused_subexpression_accumulates():
    tape = T.Tape()
    (a,) = leafs(tape, np.array([3.0]))
    y = a * a
    loss = T.reduce_sum(y + y)
    grads = T.backward(tape, loss)
    assert np.allclose(grads[a], 12.0)  # d/da 2a^2 = 4a


# ---------------------------------------------------------------------------
# forward semantics


def test_arithmetic_matches_numpy():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    tx, ty = T.Tensor(x), T.Tensor(y)
    assert np.allclose((tx + ty).data, x + y)
    assert np.allclose((tx - ty).data, x - y)
    assert np.allclose((tx * ty).data, x * y)
    assert np.allclose(T.scale(tx, -2.5).data, -2.5 * x)


def test_broadcasting_add_and_unbroadcast_gradient():
    tape = T.Tape()
    a = tape.leaf(np.ones((3, 4)))
    b = tape.leaf(np.ones((1, 4)))
    grads = T.backward(tape, T.reduce_sum(a + b))
    assert grads[a].shape == (3, 4)
    assert grads[b].shape == (1, 4)
    assert np.allclose(grads[b], 3.0)


def test_activation_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(T.tanh(T.Tensor(x)).data, np.tanh(x))
    assert np.allclose(T.sigmoid(T.Tensor(x)).data, 1 / (1 + np.exp(-x)))
    # gelu: x * Phi(x) with the tanh approximation staying close to exact
    from math import erf
    exact = x * 0.5 * (1 + np.array([erf(v / np.sqrt(2)) for v in x]))
    assert np.max(np.abs(T.gelu(T.Tensor(x)).data - exact)) < 2e-3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_keeps_the_textbook_bits_and_derivative(dtype):
    """The blocked in-place forward rounds exactly as the textbook expression,
    over several blocks and a remainder; the backward is its analytic
    derivative, in the order written below, times the cotangent, whose
    wider dtype widens the gradient."""
    rng = np.random.default_rng(11)
    x = (rng.normal(size=(3, T._GELU_BLOCK - 7)) * 3).astype(dtype)
    c, k = float(np.sqrt(2.0 / np.pi)), 0.044715      # Python floats stay weak
    t = np.tanh(c * (x + k * x * x * x))
    want = 0.5 * x * (1.0 + t)
    assert np.array_equal(T.gelu(T.Tensor(x)).data, want)
    dg = (1.0 - t) * want * (x * x * (3.0 * k * c) + c) + (t * 0.5 + 0.5)
    x64 = x.astype(np.float64)
    t64 = np.tanh(c * (x64 + k * x64 ** 3))
    deriv = 0.5 * (1 + t64) + 0.5 * x64 * (1 - t64 * t64) * c * (1 + 3 * k * x64 ** 2)
    for g_dtype in (dtype, np.float64):
        tape = T.Tape()
        lx = tape.leaf(x)
        g = rng.normal(size=x.shape).astype(g_dtype)
        got = T.backward(tape, T.reduce_sum(T.gelu(lx) * T.Tensor(g)))[lx]
        assert got.dtype == g_dtype
        assert np.array_equal(got, dg * g)
        assert np.max(np.abs(got - g * deriv)) < 10 * np.finfo(dtype).eps * np.abs(g).max()


def test_taped_gelu_lets_go_of_its_input():
    """On a tape GELU keeps only its derivative: an input array that nothing
    else refers to is freed by reference count alone, and the gradient is the
    one taken while the input was held."""
    grads = []
    for keep in (True, False):
        gc.disable()
        try:
            tape = T.Tape()
            (a,) = leafs(tape, np.linspace(-2.0, 2.0, 7))
            x = T.scale(a, 3.0)             # scale's closure keeps only the factor
            probe = weakref.ref(x.data)
            h = T.gelu(x)
            if not keep:
                del x
                assert probe() is None
            grads.append(T.backward(tape, T.reduce_sum(h))[a])
        finally:
            gc.enable()
    assert np.array_equal(*grads)


def test_sigmoid_saturates_without_overflow():
    x = np.array([-1e4, 1e4])
    with np.errstate(over="raise"):
        out = T.sigmoid(T.Tensor(x)).data
    assert np.allclose(out, [0.0, 1.0])


def test_affine_is_one_node_over_the_last_axis():
    rng = np.random.default_rng(12)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    assert np.allclose(T.affine(x, w, b).data, x @ w + b, rtol=0, atol=1e-13)
    assert np.allclose(T.affine(x, w).data, x @ w, rtol=0, atol=1e-13)
    tape = T.Tape()
    T.affine(tape.leaf(x), w, b)
    assert [node.name for node in tape._nodes] == ["leaf", "affine"]
    for bad_w, bad_b in [(rng.normal(size=(3, 5)), None), (w, np.ones(4)),
                         (rng.normal(size=(4, 5, 1)), None)]:
        with pytest.raises(T.ShapeError):
            T.affine(x, bad_w, bad_b)
    with pytest.raises(T.DtypeError):
        T.affine(x, w + 0j)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_rank_one_backward_has_the_matmul_bits(dtype):
    """With one output column, the input's gradient is a broadcast product
    that equals ``g2 @ w.T`` bit for bit."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, 64, 128)).astype(dtype)
    w, b = rng.normal(size=(128, 1)).astype(dtype), rng.normal(size=1).astype(dtype)
    g = rng.normal(size=(4, 64, 1)).astype(dtype)
    tape = T.Tape()
    lx, lw, lb = leafs(tape, x, w, b)
    grads = T.backward(tape, T.reduce_sum(T.affine(lx, lw, lb) * T.Tensor(g)))
    want = (g.reshape(-1, 1) @ w.T).reshape(x.shape)
    assert grads[lx].dtype == dtype and np.array_equal(grads[lx], want)


def test_affine_adjoint_closed_form():
    """L = sum(affine(x, w, b) * g) is linear in each operand: the gradients
    are g w^T, x^T g over every row, and the column sums of g."""
    rng = np.random.default_rng(13)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    g = rng.normal(size=(2, 3, 5))
    tape = T.Tape()
    lx, lw, lb = leafs(tape, x, w, b)
    grads = T.backward(tape, T.reduce_sum(T.affine(lx, lw, lb) * T.Tensor(g)))
    assert np.max(np.abs(grads[lx] - g @ w.T)) < 1e-12
    assert np.max(np.abs(grads[lw] - np.einsum("bnc,bnd->cd", x, g))) < 1e-12
    assert np.max(np.abs(grads[lb] - g.sum(axis=(0, 1)))) < 1e-12


EINSUM_CASES = [                            # (spec, shape of a, shape of b)
    ("...c,m...c->m...", (2, 5, 3), (4, 2, 5, 3)),          # attention scores
    ("m...,m...c->...c", (4, 2, 5), (4, 2, 5, 3)),          # attention's weighted sum
    ("ij,jk->ik", (3, 4), (4, 5)),
    ("bij,bjk->bki", (2, 3, 4), (2, 4, 5)),
    ("i,j->ij", (3,), (4,)),
    ("ij,ij->i", (3, 4), (3, 4)),
]


@pytest.mark.parametrize("spec,sa,sb", EINSUM_CASES)
def test_einsum_matches_numpy_and_is_one_node(spec, sa, sb):
    rng = np.random.default_rng(14)
    for dtype in (np.float64, np.float32):
        a, b = rng.normal(size=sa).astype(dtype), rng.normal(size=sb).astype(dtype)
        out = T.einsum(spec, a, b).data
        assert out.dtype == dtype and np.array_equal(out, np.einsum(spec, a, b))
    tape = T.Tape()
    T.einsum(spec, tape.leaf(a), b)
    assert [node.name for node in tape._nodes] == ["leaf", "einsum"]


@pytest.mark.parametrize("spec,sa,sb", EINSUM_CASES)
def test_einsum_adjoint_closed_form(spec, sa, sb):
    """L = sum(einsum(a, b) * g) is bilinear: <g, A(a, b)> = <a, dL/da> =
    <b, dL/db>, and each gradient is the einsum of g with the other operand."""
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    g = rng.normal(size=np.einsum(spec, a, b).shape)
    tape = T.Tape()
    la, lb = leafs(tape, a, b)
    loss = T.reduce_sum(T.einsum(spec, la, lb) * T.Tensor(g))
    grads = T.backward(tape, loss)
    lhs, out = spec.split("->")
    ta, tb = lhs.split(",")
    assert np.max(np.abs(grads[la] - np.einsum(f"{out},{tb}->{ta}", g, b))) < 1e-12
    assert np.max(np.abs(grads[lb] - np.einsum(f"{ta},{out}->{tb}", a, g))) < 1e-12
    value = loss.item()
    assert abs(np.sum(a * grads[la]) - value) < 1e-10
    assert abs(np.sum(b * grads[lb]) - value) < 1e-10


def test_einsum_skips_the_gradient_of_an_operand_off_the_tape():
    rng = np.random.default_rng(16)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
    tape = T.Tape()
    la = tape.leaf(a)
    T.einsum("ij,jk->ik", la, b)
    ga, gb = tape._nodes[-1].backward(np.ones((3, 5)))
    assert gb is None and np.allclose(ga, np.ones((3, 5)) @ b.T)


@pytest.mark.parametrize("spec,sa,sb", [
    ("ij,jk->i", (3, 4), (4, 5)),               # k in one operand only
    ("ij,j->", (3, 4), (4,)),                   # i summed inside one operand
    ("ij,jk->ikl", (3, 4), (4, 5)),             # l in the output only
    ("ii,ij->ij", (3, 3), (3, 4)),              # repeated index
    ("ij,jk->ikk", (3, 4), (4, 5)),             # repeated output index
    ("...c,m...c->m...", (5, 3), (4, 2, 5, 3)),  # '...' over different extents
    ("...c,c->c", (2, 3), (3,)),                # '...' in one term only
    ("ij,jk", (3, 4), (4, 5)),                  # no explicit output
    ("ij->ij", (3, 4), (3, 4)),                 # one operand
    ("ij,jk,kl->il", (3, 4), (4, 5)),           # three operands
    ("i1,1k->ik", (3, 4), (4, 5)),              # not a letter
    ("ij,jk->ik", (3, 4), (3, 5)),              # j has two extents
    ("ijk,jk->ik", (3, 4), (4, 5)),             # rank differs from the subscripts
])
def test_einsum_rejects_specs_its_backward_cannot_invert(spec, sa, sb):
    with pytest.raises(T.ShapeError):
        T.einsum(spec, np.ones(sa), np.ones(sb))


def test_einsum_is_real_only():
    with pytest.raises(T.DtypeError):
        T.einsum("ij,jk->ik", np.ones((3, 4)) + 0j, np.ones((4, 5)))
    with pytest.raises(T.DtypeError):
        T.einsum("ij,jk->ik", np.ones((3, 4)), np.ones((4, 5)) + 0j)


def test_reductions():
    x = np.arange(12.0).reshape(3, 4)
    assert np.allclose(T.reduce_sum(T.Tensor(x)).data, x.sum())
    assert np.allclose(T.reduce_sum(T.Tensor(x), (0,)).data, x.sum(0))
    assert np.allclose(T.reduce_mean(T.Tensor(x), (1,)).data, x.mean(1))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 7)) * 10
    s = T.softmax(T.Tensor(x), -1).data
    assert np.allclose(s.sum(-1), 1.0, atol=1e-12)
    assert (s >= 0).all()


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]])
    a = T.softmax(T.Tensor(x), -1).data
    b = T.softmax(T.Tensor(x + 100.0), -1).data
    assert np.allclose(a, b, atol=1e-12)


def test_concat_moveaxis_reshape():
    x = np.arange(6.0).reshape(2, 3)
    t = T.Tensor(x)
    assert np.allclose(T.concat([t, t], 1).data, np.concatenate([x, x], 1))
    assert np.allclose(T.moveaxis(t, 0, 1).data, x.T)
    assert np.allclose(T.reshape(t, (6,)).data, x.reshape(6))


def test_real():
    z = np.array([1 + 2j, 3 - 4j])
    assert np.allclose(T.real(T.Tensor(z)).data, [1, 3])


# ---------------------------------------------------------------------------
# dtype / shape errors


def test_real_complex_mixing_rejected():
    a, b = T.Tensor(np.ones(2)), T.Tensor(np.ones(2, dtype=complex))
    with pytest.raises(T.DtypeError):
        a + b


def test_dft_ops_dtype_and_bin_errors():
    with pytest.raises(T.DtypeError):
        T.dft_synthesis(T.Tensor(np.ones(5)), np.arange(5), 8, real=True)
    with pytest.raises(T.DtypeError):
        T.dft_synthesis(T.Tensor(np.ones(5)), np.arange(5), 8)
    with pytest.raises(T.ShapeError):
        T.dft_analysis(T.Tensor(np.ones(8)), [0, 8])
    with pytest.raises(T.ShapeError):
        T.dft_synthesis(T.Tensor(np.ones(4, dtype=complex)), np.arange(5), 8)


def test_dft_ops_refuse_bins_and_lengths_that_are_not_integers():
    with pytest.raises(T.ShapeError):
        T.dft_analysis(T.Tensor(np.ones(8)), [0, 1.7])
    with pytest.raises(T.ShapeError):
        T.dft_analysis(T.Tensor(np.ones(8)), np.array([0.0, 1.0]))
    with pytest.raises(T.ShapeError):
        T.dft_analysis(T.Tensor(np.ones(8)), [])
    with pytest.raises(T.ShapeError):
        T.dft_synthesis(T.Tensor(np.ones(2, dtype=complex)), [0, 1], 8.5)
    with pytest.raises(T.ShapeError):
        T.dft_synthesis(T.Tensor(np.ones(2, dtype=complex)), [0, 1], 8.0)
    with pytest.raises(T.ShapeError):
        T.dft_synthesis(T.Tensor(np.ones(2, dtype=complex)), [0, 0.5], 8)
    # integer arrays of any width, and numpy integer lengths, still pass
    got = T.dft_synthesis(T.Tensor(np.ones(2, dtype=complex)), np.arange(2, dtype=np.uint8), np.int32(8))
    assert got.shape == (8,)
    assert T.dft_analysis(T.Tensor(np.ones(8)), full_axis_mode_indices(5, 8)).shape == (5,)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dft_ops_take_exact_quarter_turns(dtype):
    """exp(-+i pi/2) is exactly -+1j in the tape's matrices, as in compol.fft."""
    n = 64
    impulse = np.zeros(n, dtype=dtype)
    impulse[n // 4] = 1
    for x in (impulse, impulse.astype(np.result_type(dtype, np.complex64))):
        got = T.dft_analysis(T.Tensor(x), [1]).data
        assert got[0] == -1j and got[0].real == 0
    unit = np.ones(1, dtype=np.result_type(dtype, np.complex64))
    got = T.dft_synthesis(T.Tensor(unit), [1], n).data
    assert got[n // 4] == 1j / n and got[n // 4].real == 0


def test_integer_input_promoted_to_float():
    t = T.Tensor(np.ones(3, dtype=np.int64))
    assert t.data.dtype == np.float64


def test_non_numeric_dtype_rejected():
    with pytest.raises(T.DtypeError):
        T.Tensor(np.array(["a", "b"]))


# ---------------------------------------------------------------------------
# truncated DFTs: the matrices, and their gradient conventions
#
# The loss L(x) = sum(Re(op(x) * g)) is linear in x, so collecting the
# coefficient of each x entry gives the exact gradient in closed form.
# Because the op is linear, L = Re(sum(x * h)) for some h, and in the
# d/dRe + i*d/dIm convention the gradient is conj(h).  The DFT matrix
# is symmetric, so h is the forward transform of g embedded at the bins
# for analysis, and the inverse transform of g read at the bins for
# synthesis — no transposes to fudge.


def _embed(a, bins, n):
    full = np.zeros(a.shape[:-1] + (n,), dtype=complex)
    full[..., bins] = a
    return full


@pytest.mark.parametrize("n", [8, 64, 128])
def test_dft_ops_match_fft_and_direct_definition(n):
    """Up to 64 points the tape and ``compol.fft`` share one dense matrix;
    at 128 the tape's dense matrix meets fft's four-step and packed-real
    path, and the direct O(N^2) sums check both."""
    rng = np.random.default_rng(3)
    half = np.arange(n // 2 + 1)
    rows = np.array([0, 1, n - 1, 2, n - 2])
    t = np.arange(n)
    x = rng.normal(size=(3, n))
    z = x + 1j * rng.normal(size=(3, n))
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    h = rng.normal(size=(3, len(half))) + 1j * rng.normal(size=(3, len(half)))
    direct = np.exp(-2j * np.pi * np.outer(t, t) / n)         # O(N^2) definition

    got = T.dft_analysis(T.Tensor(x), half).data
    assert np.abs(got - K.rfft(x)).max() < 1e-12
    assert np.abs(got - x @ direct[:, half]).max() < 1e-12
    got = T.dft_analysis(T.Tensor(z), rows).data
    assert np.abs(got - K.fft(z)[:, rows]).max() < 1e-12
    assert np.abs(got - z @ direct[:, rows]).max() < 1e-12

    got = T.dft_synthesis(T.Tensor(a), rows, n).data
    assert np.abs(got - K.ifft(_embed(a, rows, n))).max() < 1e-12
    assert np.abs(got - a @ np.conj(direct[rows]) / n).max() < 1e-12
    got = T.dft_synthesis(T.Tensor(h), half, n, real=True).data
    assert got.dtype == np.float64
    assert np.abs(got - K.irfft(h, (-1,), n)).max() < 1e-12
    spectrum = _embed(h, half, n)
    spectrum[:, n // 2 + 1:] = np.conj(spectrum[:, n // 2 - 1:0:-1])
    spectrum[:, [0, n // 2]] = spectrum[:, [0, n // 2]].real   # irfft drops these
    assert np.abs(got - (spectrum @ np.conj(direct) / n).real).max() < 1e-12


def test_dft_ops_work_along_any_axis_and_keep_float32():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 8, 3)).astype(np.float32)
    got = T.dft_analysis(T.Tensor(x), [0, 1, 7], 1)
    assert got.dtype == np.complex64 and got.shape == (2, 3, 3)
    want = np.fft.fft(x.astype(np.float64), axis=1)[:, [0, 1, 7]]
    assert np.abs(got.data - want).max() < 1e-5
    back = T.dft_synthesis(got, [0, 1, 7], 8, 1)
    assert back.dtype == np.complex64 and back.shape == (2, 8, 3)
    want = np.fft.ifft(_embed(np.moveaxis(want, 1, -1), [0, 1, 7], 8), axis=-1)
    assert np.abs(back.data - np.moveaxis(want, -1, 1)).max() < 1e-5


@pytest.mark.parametrize("op,shape,complex_in", [
    (lambda x: T.dft_analysis(x, [0, 1, 2]), (2, 8), False),
    (lambda x: T.dft_analysis(x, [0, 1, 7], -2), (2, 8, 3), True),
    (lambda x: T.dft_synthesis(x, [0, 1, 2], 8, real=True), (2, 3), True),
    (lambda x: T.dft_synthesis(x, [0, 1, 7], 8, -2), (2, 3, 4), True),
], ids=["analysis-real", "analysis-complex", "synthesis-real", "synthesis-complex"])
def test_dft_backward_keeps_a_wider_cotangent(op, shape, complex_in):
    """A float64 cotangent reaching a float32 op (a float64 loss term does
    that) is transformed in float64, as the float64 op would."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_in else 0)
    x32 = x.astype(np.complex64 if complex_in else np.float32)
    grads = []
    for arr in (x32, x):
        tape = T.Tape()
        y = op(tape.leaf(arr))
        if not grads:
            g = rng.normal(size=y.shape) + (1j * rng.normal(size=y.shape) if y.is_complex else 0)
        grads.append(tape._nodes[y.node_id].backward(g)[0])
    assert grads[0].dtype == grads[1].dtype == x.dtype
    assert np.array_equal(grads[0], grads[1])


def _dft_adjoint(op, x0, g):
    """Gradient of sum(Re(op(x) * g)) w.r.t. x, from the tape."""
    tape = T.Tape()
    x = tape.leaf(x0)
    loss = T.reduce_sum(T.real(op(x) * T.Tensor(g)))
    return T.backward(tape, loss)[x]


def test_dft_analysis_adjoint_closed_form():
    rng = np.random.default_rng(4)
    bins = np.array([0, 1, 7, 2, 6])
    g = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    want = np.conj(np.fft.fft(_embed(g, bins, 8), axis=-1))
    got = _dft_adjoint(lambda x: T.dft_analysis(x, bins), np.zeros((2, 8), complex), g)
    assert np.max(np.abs(got - want)) < 1e-12
    # real input: the same gradient, real part taken
    got = _dft_adjoint(lambda x: T.dft_analysis(x, bins), np.zeros((2, 8)), g)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want.real)) < 1e-12


def test_dft_synthesis_adjoint_closed_form():
    rng = np.random.default_rng(5)
    bins = np.array([0, 1, 7, 2, 6])
    g = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    got = _dft_adjoint(lambda x: T.dft_synthesis(x, bins, 8), np.zeros((2, 5), complex), g)
    want = np.conj(np.fft.ifft(g, axis=-1)[:, bins])
    assert np.max(np.abs(got - want)) < 1e-12
    # real output: g @ G^H with the Hermitian weights 1 (DC, Nyquist) and 2
    half = np.arange(5)
    gr = g.real
    got = _dft_adjoint(lambda x: T.dft_synthesis(x, half, 8, real=True),
                       np.zeros((2, 5), complex), gr)
    want = np.fft.fft(gr, axis=-1)[:, half] * np.array([1, 2, 2, 2, 1]) / 8
    assert np.max(np.abs(got - want)) < 1e-12


def _mid(a):
    """[b, k] as [b, k, 3]: the axis of interest between two others."""
    return np.ascontiguousarray(np.repeat(a[:, :, None], 3, axis=2) * [1.0, -0.5, 2.0])


@pytest.mark.parametrize("n", [8, 64, 128])
def test_dft_ops_on_a_middle_axis_match_fft_and_direct_definition(n):
    """Axis 1 of [b, n, c], the channels-last grid axis: real input to
    complex bins and back, and complex both ways."""
    rng = np.random.default_rng(14)
    half = np.arange(n // 2 + 1)
    rows = np.array([0, 1, n - 1, 2, n - 2])
    t = np.arange(n)
    direct = np.exp(-2j * np.pi * np.outer(t, t) / n)
    x = rng.normal(size=(3, n, 4))
    z = x + 1j * rng.normal(size=(3, n, 4))
    a = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
    h = rng.normal(size=(3, len(half), 4)) + 1j * rng.normal(size=(3, len(half), 4))

    got = T.dft_analysis(T.Tensor(x), half, 1).data
    assert np.abs(got - K.rfft(x, (1,))).max() < 1e-12
    assert np.abs(got - np.einsum("btc,tk->bkc", x, direct[:, half])).max() < 1e-12
    got = T.dft_analysis(T.Tensor(z), rows, 1).data
    assert np.abs(got - K.fft(z, (1,))[:, rows]).max() < 1e-12
    assert np.abs(got - np.einsum("btc,tk->bkc", z, direct[:, rows])).max() < 1e-12

    got = T.dft_synthesis(T.Tensor(a), rows, n, 1).data
    full = np.moveaxis(_embed(np.moveaxis(a, 1, -1), rows, n), -1, 1)
    assert np.abs(got - K.ifft(full, (1,))).max() < 1e-12
    assert np.abs(got - np.einsum("bkc,kt->btc", a, np.conj(direct[rows])) / n).max() < 1e-12
    got = T.dft_synthesis(T.Tensor(h), half, n, 1, real=True).data
    assert got.dtype == np.float64 and got.shape == (3, n, 4)
    assert np.abs(got - K.irfft(h, (1,), n)).max() < 1e-12
    weights = np.where((half == 0) | (half == n // 2), 1.0, 2.0)[None, :, None]
    h_re = h.copy()
    h_re[:, [0, n // 2]] = h_re[:, [0, n // 2]].real          # irfft drops these
    want = (np.einsum("bkc,kt->btc", h_re * weights, np.conj(direct[half])) / n).real
    assert np.abs(got - want).max() < 1e-12


def test_dft_analysis_adjoint_on_a_middle_axis():
    rng = np.random.default_rng(15)
    bins = np.array([0, 1, 7, 2, 6])
    g = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    want = _mid(np.conj(np.fft.fft(_embed(g, bins, 8), axis=-1)))
    op = lambda x: T.dft_analysis(x, bins, 1)
    got = _dft_adjoint(op, np.zeros((2, 8, 3), complex), _mid(g))
    assert np.max(np.abs(got - want)) < 1e-12
    got = _dft_adjoint(op, np.zeros((2, 8, 3)), _mid(g))
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want.real)) < 1e-12


def test_dft_synthesis_adjoint_on_a_middle_axis():
    rng = np.random.default_rng(16)
    bins = np.array([0, 1, 7, 2, 6])
    g = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    got = _dft_adjoint(lambda x: T.dft_synthesis(x, bins, 8, 1),
                       np.zeros((2, 5, 3), complex), _mid(g))
    want = _mid(np.conj(np.fft.ifft(g, axis=-1)[:, bins]))
    assert np.max(np.abs(got - want)) < 1e-12
    half = np.arange(5)
    got = _dft_adjoint(lambda x: T.dft_synthesis(x, half, 8, 1, real=True),
                       np.zeros((2, 5, 3), complex), _mid(g.real))
    want = _mid(np.fft.fft(g.real, axis=-1)[:, half] * np.array([1, 2, 2, 2, 1]) / 8)
    assert np.max(np.abs(got - want)) < 1e-12


def test_dft_round_trip_gradient_is_identity():
    """Real synthesis of every real-axis bin inverts analysis exactly, so
    the chain's gradient must be the probe."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 16))
    probe = rng.normal(size=(2, 16))
    half = np.arange(9)
    tape = T.Tape()
    lx = tape.leaf(x)
    y = T.dft_synthesis(T.dft_analysis(lx, half), half, 16, real=True)
    assert np.max(np.abs(y.data - x)) < 1e-12
    grads = T.backward(tape, T.reduce_sum(y * T.Tensor(probe)))
    assert np.max(np.abs(grads[lx] - probe)) < 1e-12


def _modes_last(a):
    """[b, c, k..] as the [b, k.. reversed, c] block mode_mix takes."""
    return np.ascontiguousarray(a.transpose((0,) + tuple(range(a.ndim - 1, 0, -1))))


def test_mode_mix_matches_einsum():
    """Blocks are [b, k.., i] with the weights' mode axes reversed:
    [b, k1, i] against [i, o, k1], [b, k2, k1, i] against [i, o, k1, k2]."""
    rng = np.random.default_rng(7)
    v = _modes_last(rng.normal(size=(2, 3, 5)) + 1j * rng.normal(size=(2, 3, 5)))
    r = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
    out = T.mode_mix(T.Tensor(v), T.Tensor(r)).data
    want = np.einsum("bki,iok->bko", v, r)
    assert np.max(np.abs(out - want)) < 1e-12

    v2 = _modes_last(rng.normal(size=(2, 3, 4, 5)) + 1j * rng.normal(size=(2, 3, 4, 5)))
    r2 = rng.normal(size=(3, 6, 4, 5)) + 1j * rng.normal(size=(3, 6, 4, 5))
    out2 = T.mode_mix(T.Tensor(v2), T.Tensor(r2)).data
    want2 = np.einsum("blki,iokl->blko", v2, r2)
    assert np.max(np.abs(out2 - want2)) < 1e-12
    with pytest.raises(T.ShapeError):        # modes in the weights' order
        T.mode_mix(T.Tensor(np.moveaxis(v2, 1, 2)), T.Tensor(r2))


def test_mode_mix_gradients_match_einsum_adjoints():
    rng = np.random.default_rng(8)
    v = _modes_last(rng.normal(size=(2, 3, 5)) + 1j * rng.normal(size=(2, 3, 5)))
    r = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
    g = _modes_last(rng.normal(size=(2, 4, 5)) + 1j * rng.normal(size=(2, 4, 5)))
    tape = T.Tape()
    lv, lr = tape.leaf(v), tape.leaf(r)
    loss = T.reduce_sum(T.real(T.mode_mix(lv, lr) * T.Tensor(g)))
    grads = T.backward(tape, loss)
    # L = Re(sum(v_bki r_iok g_bko)); collect each operand's linear
    # coefficient and conjugate (d/dRe + i d/dIm convention, see above)
    want_gv = np.conj(np.einsum("iok,bko->bki", r, g))
    want_gr = np.conj(np.einsum("bki,bko->iok", v, g))
    assert np.max(np.abs(grads[lv] - want_gv)) < 1e-12
    assert np.max(np.abs(grads[lr] - want_gr)) < 1e-12


# ---------------------------------------------------------------------------
# spot finite-difference checks (the full sweep is compol.gradcheck)


def test_finite_diff_through_nonlinear_chain():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 8))
    probe = T.Tensor(rng.normal(size=(2, 8)))

    def f(a):
        h = T.gelu(a) * T.sigmoid(a)
        low = np.arange(3)
        return T.reduce_sum(T.dft_synthesis(T.dft_analysis(h, low), low, 8, real=True) * probe)

    err, _ = T.finite_diff_report(f, [x])
    assert err < 1e-6


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_mul_gradient_product_rule(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    x = rng.normal(size=(rows, cols))
    y = rng.normal(size=(rows, cols))
    tape = T.Tape()
    lx, ly = tape.leaf(x), tape.leaf(y)
    grads = T.backward(tape, T.reduce_sum(lx * ly))
    assert np.allclose(grads[lx], y)
    assert np.allclose(grads[ly], x)
