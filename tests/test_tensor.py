"""Autodiff core: forward semantics, tape mechanics, and gradients.

The exhaustive per-op finite-difference sweep lives in the gradcheck
module; here we pin the op semantics, the error paths, and the spectral
convolution's DFTs and complex gradient conventions that are easy to get
silently wrong (scaling, conjugation and Hermitian weights of the adjoints).
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compol import fft as K
from compol import gradcheck as G
from compol import tensor as T


def leafs(tape, *arrays):
    return [tape.leaf(np.asarray(a)) for a in arrays]


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_returns_gradients_for_all_leaves():
    tape = T.Tape()
    a, b = leafs(tape, np.ones(3), 2.0 * np.ones(3))
    loss = T.reduce_sum(T.mul(a, b))
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
    loss = T.reduce_sum(T.mul(a, a))
    T.backward(tape, loss)
    with pytest.raises(T.TapeError):
        T.backward(tape, loss)


def test_recording_on_a_swept_tape_raises():
    tape = T.Tape()
    (a,) = leafs(tape, np.ones(3))
    T.backward(tape, T.reduce_sum(a))
    with pytest.raises(T.TapeError):
        T.mul(a, a)
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
    h = T.mul(a, b)
    unused = T.add(a, b)
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
        T.add(a, b)


def test_backward_requires_scalar():
    tape = T.Tape()
    (a,) = leafs(tape, np.ones(3))
    with pytest.raises(T.ShapeError):
        T.backward(tape, T.add(a, a))


def test_constants_join_tape_computations():
    tape = T.Tape()
    (a,) = leafs(tape, np.arange(3.0))
    c = T.Tensor(np.array([1.0, 10.0, 100.0]))
    grads = T.backward(tape, T.reduce_sum(T.mul(a, c)))
    assert np.allclose(grads[a], [1.0, 10.0, 100.0])


def test_reused_subexpression_accumulates():
    tape = T.Tape()
    (a,) = leafs(tape, np.array([3.0]))
    y = T.mul(a, a)
    loss = T.reduce_sum(T.add(y, y))
    grads = T.backward(tape, loss)
    assert np.allclose(grads[a], 12.0)  # d/da 2a^2 = 4a


# ---------------------------------------------------------------------------
# forward semantics


def test_arithmetic_matches_numpy():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    tx, ty = T.Tensor(x), T.Tensor(y)
    assert np.allclose(T.add(tx, ty).data, x + y)
    assert np.allclose(T.sub(tx, ty).data, x - y)
    assert np.allclose(T.mul(tx, ty).data, x * y)
    assert np.allclose(T.scale(tx, -2.5).data, -2.5 * x)


def test_broadcasting_add_and_unbroadcast_gradient():
    tape = T.Tape()
    a = tape.leaf(np.ones((3, 4)))
    b = tape.leaf(np.ones((1, 4)))
    grads = T.backward(tape, T.reduce_sum(T.add(a, b)))
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
        got = T.backward(tape, T.reduce_sum(T.mul(T.gelu(lx), T.Tensor(g))))[lx]
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
    grads = T.backward(tape, T.reduce_sum(T.mul(T.affine(lx, lw, lb), T.Tensor(g))))
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
    grads = T.backward(tape, T.reduce_sum(T.mul(T.affine(lx, lw, lb), T.Tensor(g))))
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
    loss = T.reduce_sum(T.mul(T.einsum(spec, la, lb), T.Tensor(g)))
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


# ---------------------------------------------------------------------------
# dtype / shape errors


_X, _Z = np.ones((2, 3)), np.ones((2, 3)) + 1j
# every tape op but spectral_conv, each given one complex operand
_COMPLEX_OPERAND = {
    "add": lambda: T.add(_X, _Z),
    "sub": lambda: T.sub(_Z, _X),
    "mul": lambda: T.mul(_X, _Z),
    "scale": lambda: T.scale(_Z, 2.0),
    "tanh": lambda: T.tanh(_Z),
    "sigmoid": lambda: T.sigmoid(_Z),
    "gelu": lambda: T.gelu(_Z),
    "sqrt": lambda: T.sqrt(_Z),
    "affine": lambda: T.affine(_X, np.ones((3, 2)), np.ones(2) + 1j),
    "einsum": lambda: T.einsum("ij,jk->ik", _X, _Z.T),
    "reduce_sum": lambda: T.reduce_sum(_Z),
    "reduce_mean": lambda: T.reduce_mean(_Z, 1),
    "softmax": lambda: T.softmax(_Z, -1),
    "concat": lambda: T.concat([_X, _Z], 0),
    "moveaxis": lambda: T.moveaxis(_Z, 0, 1),
    "reshape": lambda: T.reshape(_Z, (6,)),
}


@pytest.mark.parametrize("op", sorted(_COMPLEX_OPERAND))
def test_tape_ops_refuse_complex_operands(op):
    """The spectral weights are the only complex tensors a tape holds, and
    spectral_conv the only op that takes one."""
    with pytest.raises(T.DtypeError):
        _COMPLEX_OPERAND[op]()


def test_complex_refusal_covers_every_tape_op():
    not_ops = {"Tensor", "Tape", "GradientMap", "ShapeError", "DtypeError", "TapeError",
               "backward", "finite_diff_report",
               "full_axis_mode_indices", "spectral_conv"}
    assert set(T.__all__) - not_ops == set(_COMPLEX_OPERAND)


# each op given a (2, 3) operand and a shape or axis that does not fit it
_SHAPE_FAULT = {
    "add": lambda x: T.add(x, np.ones((3, 2))),
    "sub": lambda x: T.sub(np.ones((3, 2)), x),
    "mul": lambda x: T.mul(x, np.ones((3, 2))),
    "concat": lambda x: T.concat([x, np.ones((3, 3))], 1),
    "reshape": lambda x: T.reshape(x, (4,)),
    "moveaxis": lambda x: T.moveaxis(x, 0, 5),
    "softmax": lambda x: T.softmax(x, 4),
}


@pytest.mark.parametrize("on_tape", [False, True], ids=["off-tape", "on-tape"])
@pytest.mark.parametrize("op", sorted(_SHAPE_FAULT))
def test_shape_faults_are_shape_errors_that_name_the_op(op, on_tape):
    """numpy's own shape or axis fault comes out as a ShapeError whose message
    starts with the op's name, before anything is recorded."""
    tape = T.Tape()
    x = tape.leaf(np.ones((2, 3))) if on_tape else T.Tensor(np.ones((2, 3)))
    recorded = len(tape)
    with pytest.raises(T.ShapeError) as fault:
        _SHAPE_FAULT[op](x)
    assert str(fault.value).startswith(op), fault.value
    assert len(tape) == recorded


def test_concat_of_no_tensors_is_a_shape_error():
    with pytest.raises(T.ShapeError, match="^concat"):
        T.concat([], 0)


def test_scale_refuses_a_complex_factor():
    with pytest.raises(T.DtypeError):
        T.scale(_X, 1j)
    with pytest.raises(T.DtypeError):
        T.mul(T.Tensor(_X), 1 + 0j)


def test_dft_ops_dtype_and_bin_errors():
    """spectral_conv refuses a complex v, a real r, ranks and widths that do
    not fit, and more modes than a grid axis holds."""
    v, r = np.ones((2, 8, 3)), np.ones((3, 3, 5), complex)
    for bad_v, bad_r, err in [
        (v + 0j, r, T.DtypeError),
        (v, r.real, T.DtypeError),
        (np.ones((2, 3)), np.ones((3, 3), complex), T.ShapeError),         # no grid axis
        (np.ones((2, 4, 4, 4, 3)), np.ones((3, 3, 2, 2, 2), complex), T.ShapeError),
        (v, np.ones((3, 3, 2, 2), complex), T.ShapeError),                # 2-D weights
        (v, np.ones((4, 3, 5), complex), T.ShapeError),                   # width 4, not 3
        (v, np.ones((3, 3, 6), complex), T.ShapeError),                   # 6 > 8 // 2 + 1
        (v, np.ones((3, 3, 0), complex), T.ShapeError),                   # no modes
        (np.ones((2, 4, 8, 3)), np.ones((3, 3, 5, 5), complex), T.ShapeError),  # k2 5 > 4
    ]:
        with pytest.raises(err):
            T.spectral_conv(T.Tensor(bad_v), T.Tensor(bad_r))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dft_ops_take_exact_quarter_turns(dtype):
    """exp(-+i pi/2) is exactly -+1j in spectral_conv's matrices, as in
    compol.fft.  Bin 1 of an impulse at n/4 is exactly -1j, so passing that
    bin alone gives exactly 0 at t = 0 and 2/n at t = n/4 (1-D), or 0 and
    1/n along the full axis (2-D, constant along the real axis)."""
    n = 64
    cdt = np.result_type(dtype, np.complex64)
    v = np.zeros((1, n, 1), dtype)
    v[0, n // 4] = 1
    r = np.zeros((1, 1, 2), cdt)
    r[..., 1] = 1
    out = T.spectral_conv(T.Tensor(v), T.Tensor(r)).data[0, :, 0]
    assert out[0] == 0 and out[n // 4] == 2 / n
    v2 = np.zeros((1, n, 4, 1), dtype)
    v2[0, n // 4] = 1
    r2 = np.zeros((1, 1, 1, 2), cdt)
    r2[..., 1] = 1                               # full-axis bin 1, real-axis bin 0
    out = T.spectral_conv(T.Tensor(v2), T.Tensor(r2)).data[0, :, :, 0]
    assert (out[0] == 0).all() and (out[n // 4] == 1 / n).all()


@pytest.mark.parametrize("axes", [(0, 0), (1, -1), 2, (-3,)],
                         ids=["repeated", "repeated-from-the-end", "past-the-end",
                              "before-the-start"])
@pytest.mark.parametrize("module", ["tensor", "fft"])
def test_bad_axes_raise_each_module_s_error(module, axes):
    """One axis check serves both modules: a tape reduction raises ShapeError,
    a compol.fft transform ValueError."""
    x = np.ones((2, 4))
    if module == "tensor":
        for op in (T.reduce_sum, T.reduce_mean):
            with pytest.raises(T.ShapeError, match="reduce axes"):
                op(T.Tensor(x), axes)
    else:
        for transform in (K.fft, K.ifft, K.rfft, K.irfft):
            with pytest.raises(ValueError, match="axis"):
                transform(x, axes)


def test_integer_input_promoted_to_float():
    t = T.Tensor(np.ones(3, dtype=np.int64))
    assert t.data.dtype == np.float64


def test_non_numeric_dtype_rejected():
    with pytest.raises(T.DtypeError):
        T.Tensor(np.array(["a", "b"]))


# ---------------------------------------------------------------------------
# spectral convolution: its truncated DFTs, its mix, and their gradients
#
# Gradients of the complex r follow the d/dRe + i*d/dIm convention.  A
# loss L linear in r is Re(sum(r * c)) for some c, and its gradient is
# conj(c); the closed forms below collect c with einsum and numpy's FFT.


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _conv(v, r):
    return T.spectral_conv(T.Tensor(v), T.Tensor(r)).data


def _direct(n):
    t = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(t, t) / n)


def _direct_conv(v, r):
    """The spectral convolution from the O(N^2) DFT sums."""
    n, k1 = v.shape[-2], r.shape[2]
    x = np.einsum("...tc,tk->...kc", v, _direct(n)[:, :k1])
    if v.ndim == 4:
        n1 = v.shape[1]
        rows = T.full_axis_mode_indices(r.shape[3], n1)
        x = np.einsum("btkc,tl->blkc", x, _direct(n1)[:, rows])
        y = np.einsum("blki,iokl->blko", x, r)
        y = np.einsum("blko,lt->btko", y, np.conj(_direct(n1)[rows])) / n1
    else:
        y = np.einsum("bki,iok->bko", x, r)
    # the real signal with half spectrum y: DC and Nyquist count once, real parts only
    bins = np.arange(k1)
    w = np.where((bins == 0) | (2 * bins == n), 1.0, 2.0)[:, None]
    return np.einsum("...kc,kt->...tc", y * w, np.conj(_direct(n)[:k1])).real / n


@pytest.mark.parametrize("n", [8, 64, 128])
def test_dft_ops_match_fft_and_direct_definition(n):
    """1-D, every real-axis bin kept: against ``compol.fft`` and the direct
    O(N^2) sums.  Up to 64 points the op and ``K.rfft`` share one dense
    matrix; at 128 it meets fft's real four-step split."""
    rng = np.random.default_rng(3)
    k = n // 2 + 1
    v, r = rng.normal(size=(3, n, 2)), _cplx(rng, 2, 3, k)
    got = _conv(v, r)
    mixed = np.einsum("bki,iok->bko", K.rfft(v, (1,)), r)
    assert np.abs(got - K.irfft(mixed, (1,), n)).max() < 1e-12
    assert np.abs(got - _direct_conv(v, r)).max() < 1e-12


@pytest.mark.parametrize("n", [8, 64, 128])
def test_dft_ops_on_a_middle_axis_match_fft_and_direct_definition(n):
    """2-D: the full axis is axis 1 of [b, n, 8, c], between the batch and the
    real axis, and takes the complex DFT on five bins (0, 1, -1, 2, -2);
    the real axis keeps all five of its bins."""
    rng = np.random.default_rng(14)
    v, r = rng.normal(size=(3, n, 8, 2)), _cplx(rng, 2, 3, 5, 5)
    got = _conv(v, r)
    rows = T.full_axis_mode_indices(5, n)
    full = np.zeros((3, n, 5, 3), complex)
    full[:, rows] = np.einsum("blki,iokl->blko", K.rfft(v, (1, 2))[:, rows], r)
    assert np.abs(got - K.irfft(full, (1, 2), 8)).max() < 1e-12
    assert np.abs(got - _direct_conv(v, r)).max() < 1e-12


def test_dft_ops_work_along_any_axis_and_keep_float32():
    """float32 in, float32 out, on the grid axis of 1-D and both of 2-D,
    within float32 rounding of the float64 op."""
    rng = np.random.default_rng(4)
    for vs, rs in [((2, 16, 3), (3, 4, 6)), ((2, 8, 16, 3), (3, 4, 6, 5))]:
        v, r = rng.normal(size=vs), _cplx(rng, *rs)
        want = _conv(v, r)
        got = _conv(v.astype(np.float32), r.astype(np.complex64))
        assert got.dtype == np.float32 and got.shape == want.shape == vs[:-1] + (4,)
        assert np.abs(got - want).max() < 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("rank,operand", [(1, 0), (2, 0), (1, 1), (2, 1)],
                         ids=["analysis-real", "analysis-complex", "synthesis-real",
                              "synthesis-complex"])
def test_dft_backward_keeps_a_wider_cotangent(rank, operand):
    """A float64 cotangent reaching a float32 op (a float64 loss term does
    that) is transformed in float64, as the float64 op would: v's gradient
    leaves through the analysis transposes (real axis, and in 2-D the
    complex full axis), r's enters through the synthesis ones.  A float32
    cotangent keeps float32 and complex64.  v is an impulse at the origin,
    whose modes are exact in float32."""
    rng = np.random.default_rng(8)
    vs, rs = ((2, 8, 3), (3, 2, 4)) if rank == 1 else ((2, 8, 4, 3), (3, 2, 3, 5))
    v = np.zeros(vs)
    v[(slice(None),) + (0,) * rank] = rng.normal(size=(2, 3)).astype(np.float32)
    r = _cplx(rng, *rs).astype(np.complex64)
    g = rng.normal(size=vs[:-1] + (2,))

    def grad(v_, r_, g_):
        tape = T.Tape()
        y = T.spectral_conv(tape.leaf(v_), tape.leaf(r_))
        return tape._nodes[y.node_id].backward(g_)[operand]

    wide = grad(v.astype(np.float32), r, g)
    assert wide.dtype == (np.float64, np.complex128)[operand]
    assert np.array_equal(wide, grad(v, r.astype(np.complex128), g))
    narrow = grad(v.astype(np.float32), r, g.astype(np.float32))
    assert narrow.dtype == (np.float32, np.complex64)[operand]


@pytest.mark.parametrize("rank", [1, 2], ids=["1d", "2d"])
def test_spectral_conv_adjoint(rank):
    """The op is linear in v and, over the reals, in r, so the gradients of
    sum(g * out) are its adjoints: <grad, d> = <g, out(d)> in any direction
    d, with <a, b> = Re(vdot(a, b)) on complex r."""
    rng = np.random.default_rng(16)
    vs, rs = ((2, 16, 3), (3, 4, 9)) if rank == 1 else ((2, 8, 16, 3), (3, 4, 9, 5))
    v, r = rng.normal(size=vs), _cplx(rng, *rs)
    g = rng.normal(size=vs[:-1] + (4,))
    tape = T.Tape()
    lv, lr = tape.leaf(v), tape.leaf(r)
    grads = T.backward(tape, T.reduce_sum(T.mul(T.spectral_conv(lv, lr), T.Tensor(g))))
    dv, dr = rng.normal(size=vs), _cplx(rng, *rs)
    for got, want in [(np.sum(grads[lv] * dv), np.sum(g * _conv(dv, r))),
                      (np.real(np.vdot(grads[lr], dr)), np.sum(g * _conv(v, dr)))]:
        assert abs(got - want) < 1e-10 * abs(want)


def _conv_grads(v, r, g):
    """The v and r gradients of sum(g * spectral_conv(v, r))."""
    tape = T.Tape()
    lv, lr = tape.leaf(v), tape.leaf(r)
    grads = T.backward(tape, T.reduce_sum(T.mul(T.spectral_conv(lv, lr), T.Tensor(g))))
    return grads[lv], grads[lr]


def _impulse(grid, c):
    """[1, *grid, c], 1 at the origin: every mode of it is exactly 1."""
    x = np.zeros((1,) + grid + (c,))
    x[(0,) * (len(grid) + 1)] = 1
    return x


def _hermitian(k, n):
    """The weights of a real signal's half spectrum: 1 at DC and Nyquist, 2 elsewhere."""
    return np.where((np.arange(k) == 0) | (2 * np.arange(k) == n), 1.0, 2.0)


# The synthesis adjoint alone is the r gradient when v is an impulse at the
# origin (its modes are 1).  The analysis adjoint alone is the v gradient
# when g is an impulse at the origin (the synthesis adjoint takes it to
# w / N on every mode) and r = N conj(c) / w, so the modes' cotangent is c.
# A cotangent c on modes x is the loss Re(sum(x * conj(c))).


def test_dft_analysis_adjoint_closed_form():
    """Real input to bins 0..k-1: the gradient is Re(sum_k c_k exp(2 pi i k t / n)),
    the real part of the unnormalized inverse DFT of c."""
    rng = np.random.default_rng(4)
    n = 8
    for k in (5, 3):                                   # with and without Nyquist
        c = _cplx(rng, 3, k)                           # [i, k]
        r = (n * np.conj(c) / _hermitian(k, n))[:, None, :]
        gv, _ = _conv_grads(rng.normal(size=(1, n, 3)), r, _impulse((n,), 1))
        assert gv.dtype == np.float64
        full = np.zeros((3, n), complex)
        full[:, :k] = c
        want = (n * np.fft.ifft(full, axis=-1)).real
        assert np.max(np.abs(gv[0] - want.T)) < 1e-12


def test_dft_synthesis_adjoint_closed_form():
    """Bins 0..k-1 to the real output: the gradient is fft(g) on those bins
    with the Hermitian weights 1 (DC, Nyquist) and 2, over n."""
    rng = np.random.default_rng(5)
    n = 8
    for k in (5, 3):
        g = rng.normal(size=(1, n, 2))
        _, gr = _conv_grads(_impulse((n,), 1), _cplx(rng, 1, 2, k), g)
        assert gr.dtype == np.complex128
        want = np.fft.fft(g[0], axis=0)[:k] * _hermitian(k, n)[:, None] / n
        assert np.max(np.abs(gr[0] - want.T)) < 1e-12


def test_dft_analysis_adjoint_on_a_middle_axis():
    """2-D: the full grid axis, axis 1 of [b, n1, n2, c], takes the complex
    DFT on bins (0, 1, -1, 2, -2) and the last axis the real one on bins
    0..k1-1; the gradient is the real part of the unnormalized inverse 2-D
    DFT of c placed on those bins."""
    rng = np.random.default_rng(15)
    n1, n2, k1, k2 = 8, 8, 5, 5
    rows = T.full_axis_mode_indices(k2, n1)
    c = _cplx(rng, 3, k1, k2)                          # [i, k1, k2]
    r = (n1 * n2 * np.conj(c) / _hermitian(k1, n2)[:, None])[:, None]
    gv, _ = _conv_grads(rng.normal(size=(1, n1, n2, 3)), r, _impulse((n1, n2), 1))
    assert gv.dtype == np.float64
    full = np.zeros((3, n1, n2), complex)
    full[:, rows, :k1] = c.swapaxes(1, 2)
    want = (n1 * n2 * np.fft.ifft2(full, axes=(1, 2))).real
    assert np.max(np.abs(gv[0] - np.moveaxis(want, 0, -1))) < 1e-12


def test_dft_synthesis_adjoint_on_a_middle_axis():
    """2-D: the gradient is fft2(g) on the retained bins, with the Hermitian
    weights of the last axis, over n1 n2; the full axis's bins are
    (0, 1, -1, 2, -2), that is 0, 1, 7, 2, 6 of 8."""
    rng = np.random.default_rng(16)
    n1, n2, k1, k2 = 8, 8, 5, 5
    rows = T.full_axis_mode_indices(k2, n1)
    assert rows.tolist() == [0, 1, 7, 2, 6]
    g = rng.normal(size=(1, n1, n2, 2))
    _, gr = _conv_grads(_impulse((n1, n2), 1), _cplx(rng, 1, 2, k1, k2), g)
    assert gr.dtype == np.complex128
    spec = np.fft.fft2(g[0], axes=(0, 1))[rows, :k1]            # [k2, k1, o]
    want = spec * _hermitian(k1, n2)[None, :, None] / (n1 * n2)
    assert np.max(np.abs(gr[0] - np.moveaxis(want, -1, 0).swapaxes(1, 2))) < 1e-12


def test_complex_leaf_gradient_has_its_shape_and_dtype():
    rng = np.random.default_rng(17)
    for vs, rs in [((2, 8, 3), (3, 3, 4)), ((2, 8, 8, 3), (3, 3, 4, 5))]:
        for dtype in (np.complex64, np.complex128):
            v, r = rng.normal(size=vs).astype(np.finfo(dtype).dtype), _cplx(rng, *rs).astype(dtype)
            tape = T.Tape()
            lr = tape.leaf(r)
            grads = T.backward(tape, T.reduce_sum(T.spectral_conv(tape.leaf(v), lr)))
            assert grads[lr].shape == r.shape and grads[lr].dtype == dtype


def test_dft_round_trip_gradient_is_identity():
    """Identity weights on every bin make the op the identity, in 1-D and
    2-D: analysis and synthesis invert each other, and the gradient must
    be the probe."""
    rng = np.random.default_rng(6)
    for shape, modes in [((2, 16, 3), (9,)), ((2, 8, 16, 3), (9, 8))]:
        x, probe = rng.normal(size=shape), rng.normal(size=shape)
        r = np.eye(3).reshape((3, 3) + (1,) * len(modes)) * np.ones(modes) + 0j
        tape = T.Tape()
        lx = tape.leaf(x)
        y = T.spectral_conv(lx, T.Tensor(r))
        assert np.max(np.abs(y.data - x)) < 1e-12
        grads = T.backward(tape, T.reduce_sum(T.mul(y, T.Tensor(probe))))
        assert np.max(np.abs(grads[lx] - probe)) < 1e-12


def test_mode_mix_matches_einsum():
    """rfft, the per-mode einsum over the retained bins, irfft: mode axes
    [b, k1, i] against [i, o, k1], and [b, k2, k1, i] against [i, o, k1, k2]."""
    rng = np.random.default_rng(7)
    v, r = rng.normal(size=(2, 16, 3)), _cplx(rng, 3, 4, 5)
    mixed = np.zeros((2, 9, 4), complex)
    mixed[:, :5] = np.einsum("bki,iok->bko", np.fft.rfft(v, axis=1)[:, :5], r)
    assert np.max(np.abs(_conv(v, r) - np.fft.irfft(mixed, 16, axis=1))) < 1e-12

    v2, r2 = rng.normal(size=(2, 8, 8, 3)), _cplx(rng, 3, 6, 4, 5)
    rows = T.full_axis_mode_indices(5, 8)
    mixed2 = np.zeros((2, 8, 5, 6), complex)
    v2_hat = np.fft.rfft2(v2, axes=(1, 2))[:, rows, :4]
    mixed2[:, rows, :4] = np.einsum("blki,iokl->blko", v2_hat, r2)
    want2 = np.fft.irfft2(mixed2, s=(8, 8), axes=(1, 2))
    assert np.max(np.abs(_conv(v2, r2) - want2)) < 1e-12


def test_mode_mix_gradients_match_einsum_adjoints():
    """1-D, every bin kept.  L = sum(g * out) = Re(sum(Y h)) over the modes
    Y = X r, with h = w conj(rfft(g)) / n and the Hermitian weights w (1 at
    DC and Nyquist, 2 elsewhere).  Collect each operand's linear coefficient
    and conjugate it (see above); v's is real, so its gradient is the real
    part of the forward DFT of that coefficient."""
    rng = np.random.default_rng(8)
    n, k = 16, 9
    v, r, g = rng.normal(size=(2, n, 3)), _cplx(rng, 3, 4, k), rng.normal(size=(2, n, 4))
    tape = T.Tape()
    lv, lr = tape.leaf(v), tape.leaf(r)
    grads = T.backward(tape, T.reduce_sum(T.mul(T.spectral_conv(lv, lr), T.Tensor(g))))
    w = np.where((np.arange(k) == 0) | (np.arange(k) == n // 2), 1.0, 2.0)[:, None]
    h = w * np.conj(np.fft.rfft(g, axis=1)) / n
    x = np.fft.rfft(v, axis=1)
    want_gr = np.conj(np.einsum("bki,bko->iok", x, h))
    q = np.zeros((2, n, 3), complex)
    q[:, :k] = np.einsum("iok,bko->bki", r, h)
    want_gv = np.fft.fft(q, axis=1).real
    assert np.max(np.abs(grads[lr] - want_gr)) < 1e-12
    assert np.max(np.abs(grads[lv] - want_gv)) < 1e-12


# ---------------------------------------------------------------------------
# spot finite-difference checks (the full sweep is compol.gradcheck)


def test_finite_diff_through_nonlinear_chain():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 8, 2))
    probe = T.Tensor(rng.normal(size=(2, 8, 2)))

    r = T.Tensor(_cplx(rng, 2, 2, 3))

    def f(a):
        h = T.mul(T.gelu(a), T.sigmoid(a))
        return T.reduce_sum(T.mul(T.spectral_conv(h, r), probe))

    err, _ = T.finite_diff_report(f, [x])
    assert err < 1e-6


def _bumped_target(rng):
    """A nonlinear chain of a real and a complex input, and a constant probe."""
    probe = T.Tensor(rng.normal(size=(2, 8, 2)))

    def f(a, r, c):
        h = T.tanh(T.affine(T.gelu(a), c))
        return T.reduce_sum(T.mul(T.spectral_conv(h, r), probe))

    return f, rng.normal(size=(2, 8, 3)), _cplx(rng, 2, 2, 3), rng.normal(size=(3, 2))


def test_finite_diff_report_leaves_its_inputs_bit_identical():
    """Elements are bumped in place on private copies: the caller's float64,
    complex128 and read-only arrays keep their bits, and none raises."""
    f, x, r, c = _bumped_target(np.random.default_rng(23))
    c.flags.writeable = False
    before = [a.tobytes() for a in (x, r, c)]
    T.finite_diff_report(f, [x, r, c])
    assert [a.tobytes() for a in (x, r, c)] == before
    assert not c.flags.writeable


def test_finite_diff_report_bumps_integer_inputs_as_floats():
    """An integer input is swept as the float64 tensor the tape sees, so a
    bump of eps is not truncated away."""
    x = np.arange(1, 4)
    err, _ = T.finite_diff_report(lambda a: T.reduce_sum(T.mul(a, a)), [x])
    assert err < 1e-6
    assert x.dtype.kind == "i" and x.tolist() == [1, 2, 3]


def test_finite_diff_report_keeps_its_result():
    """Bumping in place and restoring each element's exact value gives the
    bits of copying every input for each bump: the value is pinned from the
    version that did."""
    f, x, r, c = _bumped_target(np.random.default_rng(23))
    assert T.finite_diff_report(f, [x, r, c]) == (4.049122248146391e-08, (0, 38, "re"))


def test_a_gradcheck_check_gives_the_same_bits_alone_and_in_any_order():
    """Each check draws its inputs and probe from its own stream, keyed by
    suite and name: gelu declared alone here gives the result it gives in
    the tensor suite, and the layer checks run in reverse order give theirs."""
    tensor, _ = G.run("tensor", verbose=False)
    layers, _ = G.run("layers", verbose=False)
    suite = {r.name: (r.max_rel_err, r.location) for r in tensor + layers}
    alone = G._check("tensor", "gelu", T.gelu, (3, 5))
    assert (alone.max_rel_err, alone.location) == suite["gelu"]
    for check in reversed(G.SUITES["layers"]):
        r = G._check("layers", *check)
        assert (r.max_rel_err, r.location) == suite[r.name], r.name


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_mul_gradient_product_rule(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    x = rng.normal(size=(rows, cols))
    y = rng.normal(size=(rows, cols))
    tape = T.Tape()
    lx, ly = tape.leaf(x), tape.leaf(y)
    grads = T.backward(tape, T.reduce_sum(T.mul(lx, ly)))
    assert np.allclose(grads[lx], y)
    assert np.allclose(grads[ly], x)
