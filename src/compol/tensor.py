"""Dense tensors on a reverse-mode differentiation tape.

Values are contiguous row-major numpy arrays: float32 or float64, and
complex64 or complex128 for spectral weights.  Operations on raw tensors just
compute; as soon as an operand carries a tape node, the result is
recorded so :func:`backward` can sweep the chain once in reverse,
accumulating cotangents at fan-out points.

A tape is used once.  The sweep frees each node's closure, and with it the
forward values the closure saved, as soon as the node has run, and drops
each intermediate cotangent once it has been passed on; it returns the
gradients of the leaves only.  A swept tape records nothing more and cannot
be swept again (:class:`TapeError`), so a training step leaves no reference
cycle between its tensors and its tape.

Every op but one takes real operands only.  :func:`spectral_conv` takes the
complex mode weights ``r`` of a Fourier layer, and those are the only
complex tensors on a tape.  Their gradients follow the ``d/dRe + i*d/dIm``
convention: the complex number whose real and imaginary parts are the
derivatives by the real and imaginary parts of ``r``.  Inside the op the
truncated DFTs are real matrices on (re, im) pairs, and the mix is a complex
matmul, so its backward is the transposes (conjugate transposes for the mix).

A shape or axis that does not fit raises :class:`ShapeError`, and a complex
operand to a real-only op :class:`DtypeError`, both before any node is
recorded.  Tensors are treated as immutable once created, save the private
raw tensors that :func:`finite_diff_report` bumps in place; a tape must only
be used from the thread that recorded it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple

from .fft import _frozen, _real_block, dft_matrix

__all__ = [
    "Tensor", "Tape", "GradientMap", "ShapeError", "DtypeError", "TapeError",
    "add", "sub", "mul", "scale", "tanh", "sigmoid", "gelu", "sqrt",
    "affine", "einsum", "reduce_sum", "reduce_mean", "softmax",
    "spectral_conv", "full_axis_mode_indices", "concat", "moveaxis", "reshape",
    "backward", "finite_diff_report",
]

_SUPPORTED = frozenset(map(np.dtype, ("float32", "float64", "complex64", "complex128")))


class ShapeError(ValueError):
    """Shape or broadcast mismatch between operands."""


class DtypeError(TypeError):
    """Unsupported dtype, or a complex operand to an op that takes real ones."""


class TapeError(RuntimeError):
    """Tensors on different (or no) tapes, or a tape already swept by backward."""


class Tensor:
    """A numpy array plus an optional node id on one tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        if type(data) is np.ndarray and data.dtype in _SUPPORTED and data.flags.c_contiguous:
            self.data = data
        else:
            arr = np.asarray(data)
            if arr.dtype.kind in "iub":
                arr = arr.astype(np.float64)
            if arr.dtype not in _SUPPORTED:
                raise DtypeError(f"unsupported dtype {arr.dtype}")
            self.data = np.ascontiguousarray(arr)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        tag = f" node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("name", "parents", "backward")

    def __init__(self, name, parents, backward):
        self.name = name
        self.parents = parents
        self.backward = backward


class Tape:
    """Append-only record of operations, replayed once in reverse by backward.

    After :func:`backward` the tape is swept: its closures are gone, a new
    operation on one of its tensors raises :class:`TapeError`, and
    ``len(tape)`` still counts the nodes it recorded.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._swept = False

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, data) -> Tensor:
        """Register an input/parameter tensor on this tape."""
        t = Tensor(data)
        t.tape = self
        t.node_id = self._add(_Node("leaf", (), None))
        return t

    def _add(self, node: _Node) -> int:
        if self._swept:
            raise TapeError("tape already swept by backward; record on a new tape")
        self._nodes.append(node)
        return len(self._nodes) - 1


def _record(name: str, out_data: np.ndarray, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise TapeError("operands recorded on different tapes")
    if tape is None:
        return Tensor(out_data)
    parents = tuple([t.node_id for t in inputs])
    return Tensor(out_data, tape, tape._add(_Node(name, parents, backward_fn)))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes produced by trailing-rule broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _real_operands(op: str, *xs) -> list[Tensor]:
    """The operands as tensors; a complex one raises :class:`DtypeError`."""
    ts, real = [], True
    for x in xs:
        t = x if isinstance(x, Tensor) else Tensor(x)
        real = real and t.data.dtype.kind != "c"
        ts.append(t)
    if not real:
        raise DtypeError(f"{op}: complex input not supported")
    return ts


def _shaped(op: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with numpy's shape or axis fault raised as a
    :class:`ShapeError` that names ``op``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:     # numpy's AxisError is a ValueError too
        raise ShapeError(f"{op}: {e}") from e


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _real_operands("add", a, b)
    out = _shaped("add", np.add, a.data, b.data)
    sa, sb = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record("add", out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _real_operands("sub", a, b)
    out = _shaped("sub", np.subtract, a.data, b.data)
    sa, sb = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record("sub", out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _real_operands("mul", a, b)
    ad, bd = a.data, b.data
    out = _shaped("mul", np.multiply, ad, bd)

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record("mul", out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    a, _ = _real_operands("scale", a, c)
    out = a.data * c

    def bwd(g):
        return (g * c,)     # a Python scalar stays weak, so g keeps its dtype

    return _record("scale", out, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    a, = _real_operands("tanh", a)
    t = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - t * t),)

    return _record("tanh", t, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    a, = _real_operands("sigmoid", a)
    # Clipping at |x| = 60 avoids exp overflow; the result is already
    # saturated to within 1e-26 there, far below float64 resolution of 1.
    x = np.clip(a.data, -60.0, 60.0)
    s = 1.0 / (1.0 + np.exp(-x))

    def bwd(g):
        return (g * (s * (1.0 - s)),)

    return _record("sigmoid", s, (a,), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715
_GELU_BLOCK = 1 << 16       # elements per block: its scratch stays in L2


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation GELU with its exact analytic derivative.

    The flattened input is walked in blocks of ``_GELU_BLOCK`` elements,
    with block-sized scratch updated in place in the order of the textbook
    expression, so the output has its bits and no full-size temporary is
    made.  On a tape the same pass also writes the derivative, and the
    closure keeps that one array: not the input, the tanh or the output.
    """
    a, = _real_operands("gelu", a)
    x = a.data.reshape(-1)
    out = np.empty_like(a.data)
    o = out.reshape(-1)
    dg = np.empty_like(a.data) if a.tape is not None else None
    t = np.empty(min(x.size, _GELU_BLOCK), x.dtype)
    if dg is not None:
        d, dgf = np.empty_like(t), dg.reshape(-1)
    for lo in range(0, x.size, _GELU_BLOCK):
        xb, ob = x[lo:lo + _GELU_BLOCK], o[lo:lo + _GELU_BLOCK]
        tb = t[:xb.size]
        np.multiply(xb, _GELU_K, out=tb)    # t = tanh(C (x + K x^3))
        tb *= xb
        tb *= xb
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=ob)             # 0.5 x (1 + t); halving is exact
        ob *= xb
        ob *= 0.5
        if dg is None:
            continue
        # 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 K x^2), where 0.5 x (1 - t^2) = out (1 - t)
        db, gb = d[:xb.size], dgf[lo:lo + _GELU_BLOCK]
        np.multiply(xb, xb, out=db)
        db *= 3.0 * _GELU_K * _GELU_C
        db += _GELU_C
        np.subtract(1.0, tb, out=gb)
        gb *= ob
        gb *= db
        np.multiply(tb, 0.5, out=db)
        db += 0.5
        gb += db

    def bwd(g):
        if dg.dtype != np.result_type(dg, g):   # a wider cotangent widens the gradient
            return (dg * g,)
        return (np.multiply(dg, g, out=dg),)    # the one-shot sweep reads dg once

    return _record("gelu", out, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    a, = _real_operands("sqrt", a)
    r = np.sqrt(a.data)

    def bwd(g):
        return (g * (0.5 / r),)

    return _record("sqrt", r, (a,), bwd)


# ---------------------------------------------------------------------------
# affine maps and reductions


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, as one node.

    The product runs on the ``[rows, c]`` view of ``x``, so a latent of any
    rank is one matmul forward and two backward, with no copies around them.
    """
    x, w = _wrap(x), _wrap(w)
    ins = (x, w) if b is None else (x, w, _wrap(b))
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: {x.shape} @ {w.shape} over the last axis")
    if b is not None and ins[2].shape != (w.shape[1],):
        raise ShapeError(f"affine: bias {ins[2].shape} for {w.shape[1]} outputs")
    for t in ins:       # after the shape checks: a bad shape is a ShapeError
        if t.data.dtype.kind == "c":
            raise DtypeError("affine: complex input not supported")
    rows = x.data.reshape(-1, w.shape[0])
    wd = w.data
    out = rows @ wd
    if b is not None:
        bd = ins[2].data
        if out.dtype == np.result_type(out, bd):
            out += bd
        else:
            out = out + bd
    shape = x.shape

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.tape is None:
            gx = None
        elif wd.shape[1] == 1:
            # the same single products as a k=1 matmul, about 4x faster
            gx = (g2 * wd.T).reshape(shape)
        else:
            gx = (g2 @ wd.T).reshape(shape)
        gw = rows.T @ g2
        if b is None:
            return gx, gw
        # column sums as one matvec: numpy's axis-0 reduction is ~10x slower here
        return gx, gw, np.ones(g2.shape[0], g2.dtype) @ g2

    return _record("affine", out.reshape(shape[:-1] + (wd.shape[1],)), ins, bwd)


@lru_cache(maxsize=64)
def _einsum_plan(spec: str):
    """The forward, ``out,b->a`` and ``a,out->b`` einsums of ``spec``, and each
    ``...`` as (input, index, term length); None if the backward cannot invert it."""
    terms = spec.replace(" ", "").replace("->", ",").split(",")
    keys = [t.replace("...", ".") for t in terms]
    if (spec.count("->") != 1 or len(terms) != 3
            or any(k.count(c) > 1 or sum(c in t for t in keys) < 2
                   or not (c == "." or c.isalpha()) for k in keys for c in k)):
        return None
    sa, sb, so = terms
    dots = tuple((i, k.find("."), len(k)) for i, k in enumerate(keys[:2]) if "." in k)
    return f"{sa},{sb}->{so}", f"{so},{sb}->{sa}", f"{sa},{so}->{sb}", dots


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand real ``np.einsum`` with an explicit ``->``, as one node.

    The backward is two einsums, ``out,b->a`` and ``a,out->b``, so a spec they could
    not invert raises :class:`ShapeError`: an index (``...`` counts as one) in one
    term only or twice in a term, or ``...`` over different extents in the inputs.
    """
    a, b = _real_operands("einsum", a, b)
    plan = _einsum_plan(spec)
    shapes = (a.data.shape, b.data.shape)
    if plan is None or len({shapes[i][p:len(shapes[i]) + p + 1 - n] for i, p, n in plan[3]}) > 1:
        raise ShapeError(f"einsum: the backward cannot invert {spec!r} on {a.shape}, {b.shape}")
    fwd, to_a, to_b, _ = plan
    out = _shaped("einsum", np.einsum, fwd, a.data, b.data)
    # the closure holds arrays, not tensors: holding tensors raised train-lv64's peak RSS
    ad, bd, a_on, b_on = a.data, b.data, a.tape is not None, b.tape is not None

    def bwd(g):
        ga = np.einsum(to_a, g, bd) if a_on else None
        gb = np.einsum(to_b, ad, g) if b_on else None
        return ga, gb

    return _record("einsum", out, (a, b), bwd)


def _normalize_axes(t: Tensor, axes) -> tuple[int, ...]:
    """Sorted non-negative reduce axes; None means all of them."""
    try:
        return tuple(sorted(normalize_axis_tuple(range(t.ndim) if axes is None else axes,
                                                 t.ndim)))
    except ValueError as e:     # numpy's AxisError, or a repeated axis
        raise ShapeError(f"reduce axes {axes} for shape {t.shape}: {e}") from None


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    kept = list(shape)
    for ax in axes:
        kept[ax] = 1
    return np.broadcast_to(g.reshape(kept), shape)


def reduce_sum(a: Tensor, axes=None) -> Tensor:
    a, = _real_operands("reduce_sum", a)
    ax = _normalize_axes(a, axes)
    out = a.data.sum(axis=ax)
    shape = a.shape

    def bwd(g):
        return (_expand_reduced(g, shape, ax),)

    return _record("reduce_sum", out, (a,), bwd)


def reduce_mean(a: Tensor, axes=None) -> Tensor:
    a, = _real_operands("reduce_mean", a)
    ax = _normalize_axes(a, axes)
    out = a.data.mean(axis=ax) if ax else a.data.copy()
    shape = a.shape
    count = 1
    for i in ax:
        count *= shape[i]

    def bwd(g):
        return (_expand_reduced(g / count, shape, ax),)

    return _record("reduce_mean", out, (a,), bwd)


# ---------------------------------------------------------------------------
# spectral convolution


def full_axis_mode_indices(k: int, n: int) -> np.ndarray:
    """Bins of the k lowest-|frequency| modes on a full FFT axis of extent n.

    Frequencies are taken in the order 0, +1, -1, +2, -2, ... so k=5 on
    n=8 selects bins [0, 1, 7, 2, 6].
    """
    if k > n:
        raise ShapeError(f"cannot retain {k} modes on an axis of extent {n}")
    freqs = [0] + [s * f for f in range(1, k) for s in (1, -1)]
    return np.asarray(freqs[:k], dtype=np.intp) % n


@lru_cache(maxsize=64)
def _conv_matrices(grid: tuple[int, ...], modes: tuple[int, ...], dtype: str):
    """``(analysis, synthesis)`` of one spectral convolution, then their adjoints.

    Each is a tuple of real matrices applied from the left in turn, on (re,
    im) pairs.  Analysis takes the last grid axis to its ``k1`` bins and, in
    2-D, the first grid axis to its ``k2`` bins; synthesis goes back in the
    reverse order.  An adjoint is the transposes in reverse order, for the
    backward.  All come from :func:`compol.fft.dft_matrix`: the full axis's
    complex DFTs as real blocks whose pair sits next to that axis, so in 2-D
    the last axis lists its real parts before its imaginary ones.
    """
    n, k1 = grid[-1], modes[0]
    a = dft_matrix(n, k1, False, True, dtype)                 # [n, 2 k1]
    s = dft_matrix(n, k1, True, True, dtype)                  # [2 k1, n]
    if len(grid) == 1:
        return (a.T,), (s.T,), (a,), (s,)
    a = _frozen(a.reshape(n, k1, 2).swapaxes(1, 2).reshape(n, 2 * k1), dtype)
    s = _frozen(s.reshape(k1, 2, n).swapaxes(0, 1).reshape(2 * k1, n), dtype)
    bins = tuple(full_axis_mode_indices(modes[1], grid[0]).tolist())
    cdt = np.result_type(dtype, np.complex64).str
    fa = _frozen(_real_block(dft_matrix(grid[0], bins, False, False, cdt)), dtype)
    fs = _frozen(_real_block(dft_matrix(grid[0], bins, True, False, cdt)), dtype)
    return (a.T, fa.T), (fs.T, s.T), (fa, a), (s, fs)


def _to_modes(x: np.ndarray, mats: tuple[np.ndarray, ...], modes: tuple[int, ...]) -> np.ndarray:
    """Real [b, *grid, c] to the complex mode-major [(k2,) k1, b, c].

    The one copy is the move to mode-major order, on the retained bins.  It
    writes the real and the imaginary plane each in one strided assignment.
    """
    b, n, c = x.shape[0], x.shape[-2], x.shape[-1]
    p = np.matmul(mats[0], x.reshape(x.size // (n * c), n, c))    # [b n1.., 2 k1, c]
    if len(mats) == 2:
        p = np.matmul(mats[1], p.reshape(b, mats[1].shape[1], modes[0] * c))  # [b, 2 k2, k1 c]
    p = p.reshape((b, modes[-1], 2) + modes[:-1] + (c,))              # [b, k_outer, 2, .., c]
    p = p.transpose((1, *range(3, p.ndim - 1), 0, p.ndim - 1, 2))     # [k.., b, c, 2], a view
    out = np.empty(p.shape[:-1], np.result_type(p.dtype, np.complex64))
    out.real, out.imag = p[..., 0], p[..., 1]
    return out


def _to_grid(m: np.ndarray, mats: tuple[np.ndarray, ...], grid: tuple[int, ...]) -> np.ndarray:
    """Complex mode-major [(k2,) k1, b, c] back to real [b, *grid, c]."""
    b, c, k1, d = m.shape[-2], m.shape[-1], m.shape[-3], m.ndim
    p = m.view(m.real.dtype).reshape(m.shape + (2,))      # [k.., b, c, 2] to [b, k_outer, 2, .., c]
    p = np.ascontiguousarray(p.transpose((d - 2, 0, d, *range(1, d - 2), d - 1)))
    if len(mats) == 2:
        p = np.matmul(mats[0], p.reshape(b, mats[0].shape[1], k1 * c))  # [b, 2 n1, k1 c]
    p = np.matmul(mats[-1], p.reshape(p.size // (2 * k1 * c), 2 * k1, c))
    return p.reshape((b,) + grid + (c,))


def spectral_conv(v: Tensor, r: Tensor) -> Tensor:
    """The Fourier-layer convolution ``irfft(r * rfft(v))`` on the retained modes, as one node.

    ``v`` is real channels-last [b, n, i] or [b, n1, n2, i]; ``r`` is the
    complex [i, o, k1] or [i, o, k1, k2] block of per-mode channel maps.
    ``k1`` are bins 0..k1-1 of the last grid axis, of its ``n // 2 + 1``
    real-transform bins; ``k2`` are the :func:`full_axis_mode_indices` of the
    first grid axis in 2-D.  Every other mode is zero, and the output is
    the real [b, *grid, o].  Only the retained bins are computed: real
    matrices on (re, im) pairs take ``v`` to its modes, one complex matmul
    per mode mixes the channels, and real matrices take the modes back.
    """
    v, r = _wrap(v), _wrap(r)
    if v.data.dtype.kind == "c" or r.data.dtype.kind != "c":
        raise DtypeError("spectral_conv: v must be real and r complex")
    grid, modes = v.shape[1:-1], r.shape[2:]
    if len(grid) not in (1, 2) or r.ndim != v.ndim or r.shape[0] != v.shape[-1]:
        raise ShapeError(f"spectral_conv: weights {r.shape} do not fit input {v.shape} "
                         "with 1 or 2 grid axes")
    if min(modes) < 1 or modes[0] > grid[-1] // 2 + 1:
        raise ShapeError(f"k1={modes[0]} must be within 1..{grid[-1] // 2 + 1} real-axis bins")
    analysis = _conv_matrices(grid, modes, v.dtype.str)[0]    # refuses k2 past the full axis
    vk = _to_modes(v.data, analysis, modes)                   # [k.., b, i]
    perm = tuple(range(r.ndim - 1, 1, -1)) + (0, 1)
    rk = np.ascontiguousarray(r.data.transpose(perm))         # [k.., i, o]
    m = vk @ rk
    out = _to_grid(m, _conv_matrices(grid, modes, m.real.dtype.str)[1], grid)
    # the closure keeps only what the gradients of operands on the tape need
    vk = vk if r.tape is not None else None
    rk = rk if v.tape is not None else None

    def bwd(g):
        # the transposes, in the cotangent's precision, which may exceed the input's
        gm = _to_modes(g, _conv_matrices(grid, modes, g.dtype.str)[3], modes)
        gr = None
        if vk is not None:
            gr = np.conj(vk).swapaxes(-1, -2) @ gm                        # [k.., i, o]
            gr = np.ascontiguousarray(gr.transpose(np.argsort(perm)))
        if rk is None:
            return None, gr
        gk = gm @ np.conj(rk).swapaxes(-1, -2)
        return _to_grid(gk, _conv_matrices(grid, modes, gk.real.dtype.str)[2], grid), gr

    return _record("spectral_conv", out, (v, r), bwd)


# ---------------------------------------------------------------------------
# shape surgery


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = _real_operands("concat", *tensors)
    out = _shaped("concat", np.concatenate, [t.data for t in ts], axis=axis)
    ends = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def bwd(g):
        return np.split(g, ends, axis=axis)

    return _record("concat", out, ts, bwd)


def moveaxis(a: Tensor, src: int, dst: int) -> Tensor:
    a, = _real_operands("moveaxis", a)
    out = _shaped("moveaxis", np.moveaxis, a.data, src, dst)

    def bwd(g):
        return (np.moveaxis(g, dst, src),)

    return _record("moveaxis", out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a, = _real_operands("reshape", a)
    out = _shaped("reshape", a.data.reshape, shape)
    old = a.data.shape

    def bwd(g):
        return (np.reshape(g, old),)

    return _record("reshape", out, (a,), bwd)


def softmax(a: Tensor, axis: int) -> Tensor:
    a, = _real_operands("softmax", a)
    shifted = a.data - _shaped("softmax", a.data.max, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _record("softmax", s, (a,), bwd)


# ---------------------------------------------------------------------------
# reverse sweep and finite differences


class GradientMap:
    """Gradients of the leaves of one swept tape.

    A leaf the loss never reached reads as zero.  Intermediate gradients are
    not kept, so asking for a non-leaf tensor raises :class:`TapeError`.
    """

    def __init__(self, tape: Tape, table: dict[int, np.ndarray]):
        self._tape = tape
        self._table = table

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.tape is not self._tape or t.node_id is None:
            raise TapeError("tensor is not on the swept tape")
        g = self._table.get(t.node_id)
        if g is not None:
            return g
        if self._tape._nodes[t.node_id].name != "leaf":
            raise TapeError("only leaf gradients are kept; this tensor is an intermediate")
        return np.zeros_like(t.data)


def backward(tape: Tape, loss: Tensor) -> GradientMap:
    """One reverse sweep from a real scalar loss; it uses the tape up.

    Each node's closure is cleared once it has run, and every closure the
    loss never reached once the sweep ends, so the forward values are freed
    as the sweep goes.  A cotangent is dropped once it has been passed to
    the node's parents.  The tape is then swept: a second call raises
    :class:`TapeError`.  Returns the leaf gradients.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise TapeError("loss is not recorded on this tape")
    if tape._swept:
        raise TapeError("tape already swept by backward")
    if loss.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    if loss.data.dtype.kind == "c":
        raise DtypeError("loss must be real")
    tape._swept = True
    nodes = tape._nodes
    pending: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    leaves: dict[int, np.ndarray] = {}
    try:
        for nid in range(loss.node_id, -1, -1):
            node = nodes[nid]
            fn, node.backward = node.backward, None
            g = pending.pop(nid, None)
            if g is None:
                continue
            if fn is None:
                leaves[nid] = g
                continue
            parts = fn(g)
            for pid, pg in zip(node.parents, parts):
                if pid is None or pg is None:
                    continue
                acc = pending.get(pid)
                pending[pid] = pg if acc is None else acc + pg
    finally:   # the closures the loop left: past the loss, or below one that raised
        for node in nodes:
            node.backward = None
    return GradientMap(tape, leaves)


def finite_diff_report(f, xs):
    """Compare tape gradients of ``f`` against central differences of step 1e-5.

    ``f`` maps one or more tensors to a real scalar tensor and must be
    deterministic.  Returns ``(max_rel_err, (leaf, flat_index, part))``
    where part is 're' or 'im'.  Relative error uses
    ``max(|analytic|, |numeric|, 1e-12)`` as denominator.  Every evaluation
    without a tape gets the same raw tensors on private copies of the
    inputs, each element bumped in place and then restored.
    """
    single = isinstance(xs, (Tensor, np.ndarray))
    raws = [Tensor(np.array(x.data if isinstance(x, Tensor) else x, order="C"))
            for x in ([xs] if single else xs)]
    tape = Tape()
    leaves = [tape.leaf(t.data) for t in raws]
    loss = f(*leaves)
    grads = backward(tape, loss)
    analytic = [grads[leaf] for leaf in leaves]

    worst = 0.0
    where = (0, 0, "re")
    for li, t in enumerate(raws):
        flat = t.data.reshape(-1)
        a_flat = analytic[li].reshape(-1)
        parts = ("re", "im") if flat.dtype.kind == "c" else ("re",)
        for j in range(flat.size):
            x0 = flat[j]
            for part in parts:
                delta = 1e-5 if part == "re" else 1e-5j
                flat[j] = x0 + delta
                hi = f(*raws).item()     # backward has checked that f gives a real scalar
                flat[j] = x0 - delta
                lo = f(*raws).item()
                flat[j] = x0
                numeric = (hi - lo) / 2e-5
                a_val = a_flat[j].real if part == "re" else a_flat[j].imag
                err = abs(a_val - numeric) / max(abs(a_val), abs(numeric), 1e-12)
                if err > worst:
                    worst = err
                    where = (li, j, part)
    return worst, where
