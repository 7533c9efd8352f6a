"""Dense tensors on a reverse-mode differentiation tape.

Values are contiguous row-major numpy arrays in one of four dtypes
(float32/float64/complex64/complex128).  Operations on raw tensors just
compute; as soon as an operand carries a tape node, the result is
recorded so :func:`backward` can sweep the chain once in reverse,
accumulating cotangents at fan-out points.

A tape is used once.  The sweep frees each node's closure, and with it the
forward values the closure saved, as soon as the node has run, and drops
each intermediate cotangent once it has been passed on; it returns the
gradients of the leaves only.  A swept tape records nothing more and cannot
be swept again (:class:`TapeError`), so a training step leaves no reference
cycle between its tensors and its tape.

Complex cotangents use the ``d/dRe + i*d/dIm`` convention.  Under it a
truncated DFT ``y = x @ M``, with ``M`` the cached [n, k] analysis or
[k, n] synthesis matrix of :func:`compol.fft.dft_matrix`, applied by
:func:`compol.fft.apply_dft`, has the backward ``g @ M^H``; a real input
takes its real part, and a real output is the real part of the weighted
synthesis.  That keeps real-in/real-out spectral pipelines exactly
consistent with finite differences.

Tensors are treated as immutable once created, and a tape must only be
used from the thread that recorded it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .fft import apply_dft, dft_matrix

__all__ = [
    "Tensor", "Tape", "GradientMap", "ShapeError", "DtypeError", "TapeError",
    "add", "sub", "mul", "scale", "tanh", "sigmoid", "gelu", "sqrt",
    "affine", "einsum", "reduce_sum", "reduce_mean",
    "dft_analysis", "dft_synthesis", "mode_mix", "softmax",
    "concat", "moveaxis", "reshape", "real",
    "backward", "finite_diff_check", "finite_diff_report",
]

_REAL = (np.dtype(np.float32), np.dtype(np.float64))
_COMPLEX = (np.dtype(np.complex64), np.dtype(np.complex128))
_SUPPORTED = _REAL + _COMPLEX
_SUPPORTED_SET = frozenset(_SUPPORTED)


class ShapeError(ValueError):
    """Shape or broadcast mismatch between operands."""


class DtypeError(TypeError):
    """Unsupported dtype or real/complex mixing."""


class TapeError(RuntimeError):
    """Tensors on different (or no) tapes, or a tape already swept by backward."""


class Tensor:
    """A numpy array plus an optional node id on one tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        if type(data) is np.ndarray and data.dtype in _SUPPORTED_SET and data.flags.c_contiguous:
            self.data = data
        else:
            arr = np.asarray(data)
            if arr.dtype.kind in "iub":
                arr = arr.astype(np.float64)
            if arr.dtype not in _SUPPORTED_SET:
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

    @property
    def is_complex(self) -> bool:
        return self.data.dtype in _COMPLEX

    def item(self) -> float:
        return self.data.item()

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            return scale(self, other)
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

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


def _result_tape(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise TapeError("operands recorded on different tapes")
    return tape


def _record(name: str, out_data: np.ndarray, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    tape = _result_tape(inputs)
    out = Tensor(out_data)
    if tape is None:
        return out
    parent_ids = tuple(t.node_id if t.tape is not None else None for t in inputs)
    out.tape = tape
    out.node_id = tape._add(_Node(name, parent_ids, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes produced by trailing-rule broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _require_same_kind(a: Tensor, b: Tensor, op: str) -> None:
    if a.is_complex != b.is_complex:
        raise DtypeError(f"{op}: cannot mix real and complex operands")


def _require_real(t: Tensor, op: str) -> None:
    if t.is_complex:
        raise DtypeError(f"{op}: complex input not supported")


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from e


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _require_same_kind(a, b, "add")
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _require_same_kind(a, b, "sub")
    _check_broadcast(a, b, "sub")
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _require_same_kind(a, b, "mul")
    _check_broadcast(a, b, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * np.conj(bd), a.shape), _unbroadcast(g * np.conj(ad), b.shape)

    return _record("mul", out, (a, b), bwd)


def scale(a: Tensor, c: float | complex) -> Tensor:
    a = _wrap(a)
    if isinstance(c, complex) and not a.is_complex:
        raise DtypeError("scale: complex factor on a real tensor")
    out = a.data * c

    def bwd(g):
        # a Python scalar's conjugate stays a weak scalar, so g keeps its dtype
        return (g * c.conjugate(),)

    return _record("scale", out, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    _require_real(a, "tanh")
    t = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - t * t),)

    return _record("tanh", t, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    _require_real(a, "sigmoid")
    # Clipping at |x| = 60 avoids exp overflow; the result is already
    # saturated to within 1e-26 there, far below float64 resolution of 1.
    x = np.clip(a.data, -60.0, 60.0)
    s = 1.0 / (1.0 + np.exp(-x))
    if s.dtype != a.data.dtype:
        s = s.astype(a.data.dtype)

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
    a = _wrap(a)
    _require_real(a, "gelu")
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
    a = _wrap(a)
    _require_real(a, "sqrt")
    r = np.sqrt(a.data)

    def bwd(g):
        return (g * (0.5 / r),)

    return _record("sqrt", r, (a,), bwd)


# ---------------------------------------------------------------------------
# affine maps and reductions


def _conj_t(x: np.ndarray) -> np.ndarray:
    if x.dtype.kind != "c":
        return x.swapaxes(-1, -2)
    return np.conj(x).swapaxes(-1, -2)


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
    for t in ins[1:]:
        _require_same_kind(x, t, "affine")
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
        elif wd.shape[1] == 1 and wd.dtype.kind == "f":
            # the same single products as a k=1 matmul, about 4x faster; complex
            # products would round differently from BLAS
            gx = (g2 * wd.T).reshape(shape)
        else:
            gx = (g2 @ _conj_t(wd)).reshape(shape)
        gw = _conj_t(rows) @ g2
        if b is None:
            return gx, gw
        # column sums as one matvec: numpy's axis-0 reduction is ~10x slower here
        return gx, gw, np.ones(g2.shape[0], g2.dtype) @ g2

    return _record("affine", out.reshape(shape[:-1] + (wd.shape[1],)), ins, bwd)


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand real ``np.einsum`` with an explicit ``->``, as one node.

    The backward is two einsums, ``out,b->a`` and ``a,out->b``, so a spec they could
    not invert raises :class:`ShapeError`: an index (``...`` counts as one) in one
    term only or twice in a term, or ``...`` over different extents in the inputs.
    """
    a, b = _wrap(a), _wrap(b)
    _require_real(a, "einsum")
    _require_real(b, "einsum")
    terms = spec.replace(" ", "").replace("->", ",").split(",")
    keys = [t.replace("...", ".") for t in terms]
    dots = {x.shape[k.find("."):x.ndim + k.find(".") + 1 - len(k)]
            for k, x in zip(keys, (a, b)) if "." in k}
    if (spec.count("->") != 1 or len(terms) != 3 or len(dots) > 1
            or any(k.count(c) > 1 or sum(c in t for t in keys) < 2
                   or not (c == "." or c.isalpha()) for k in keys for c in k)):
        raise ShapeError(f"einsum: the backward cannot invert {spec!r} on {a.shape}, {b.shape}")
    sa, sb, so = terms
    try:
        out = np.einsum(f"{sa},{sb}->{so}", a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"einsum: {spec!r} on {a.shape}, {b.shape}: {e}") from e
    # the closure holds arrays, not tensors: holding tensors raised train-lv64's peak RSS
    ad, bd, a_on, b_on = a.data, b.data, a.tape is not None, b.tape is not None

    def bwd(g):
        ga = np.einsum(f"{so},{sb}->{sa}", g, bd) if a_on else None
        gb = np.einsum(f"{sa},{so}->{sb}", ad, g) if b_on else None
        return ga, gb

    return _record("einsum", out, (a, b), bwd)


def _normalize_axes(t: Tensor, axes) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(t.ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = []
    for ax in axes:
        ax = int(ax)
        if ax < 0:
            ax += t.ndim
        if not 0 <= ax < t.ndim:
            raise ShapeError(f"reduce axis out of range for shape {t.shape}")
        out.append(ax)
    if len(set(out)) != len(out):
        raise ShapeError("duplicate reduce axes")
    return tuple(sorted(out))


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    kept = list(shape)
    for ax in axes:
        kept[ax] = 1
    return np.broadcast_to(g.reshape(kept), shape)


def reduce_sum(a: Tensor, axes=None) -> Tensor:
    a = _wrap(a)
    ax = _normalize_axes(a, axes)
    out = a.data.sum(axis=ax)
    shape = a.shape

    def bwd(g):
        return (_expand_reduced(g, shape, ax),)

    return _record("reduce_sum", out, (a,), bwd)


def reduce_mean(a: Tensor, axes=None) -> Tensor:
    a = _wrap(a)
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
# truncated discrete Fourier transforms


def _dft(name: str, a: Tensor, bins, n: int, axis: int, synthesis: bool, real: bool) -> Tensor:
    b = np.asarray(bins).reshape(-1)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ShapeError(f"{name}: n must be an integer, got {n!r}")
    if b.dtype.kind not in "iu" or not b.size or b.min() < 0 or b.max() >= n:
        raise ShapeError(f"{name}: bins must be non-empty integers within [0, {n}), got {b.tolist()}")
    key, n = tuple(b.tolist()), int(n)
    if synthesis and a.shape[axis] != len(key):
        raise ShapeError(f"{name}: {a.shape[axis]} entries on axis {axis} but {len(key)} bins")

    def matrix(dtype):
        dtype = np.finfo(dtype).dtype if real else np.result_type(dtype, np.complex64)
        return dft_matrix(n, key, synthesis, real, dtype.str)

    def bwd(g):
        # g @ M^H, in the cotangent's precision, which may exceed the input's
        return (apply_dft(g, axis, _conj_t(matrix(g.dtype))),)

    return _record(name, apply_dft(a.data, axis, matrix(a.dtype)), (a,), bwd)


def dft_analysis(a: Tensor, bins, axis: int = -1) -> Tensor:
    """Selected bins ``X_j = sum_t a_t exp(-2 pi i t bins_j / n)`` along ``axis``.

    Real or complex ``[..., n, ...]`` becomes complex ``[..., k, ...]``; a
    real input's gradient is the real part of ``g @ F^H``.
    """
    a = _wrap(a)
    return _dft("dft_analysis", a, bins, a.shape[axis], axis, False, not a.is_complex)


def dft_synthesis(a: Tensor, bins, n: int, axis: int = -1, real: bool = False) -> Tensor:
    """Rebuild ``n`` points from the complex ``bins`` along ``axis``.

    ``real=False`` gives ``y_t = sum_j a_j exp(2 pi i bins_j t / n) / n``,
    the inverse DFT of a spectrum that is zero off ``bins``.  ``real=True``
    gives the real signal whose half spectrum is ``a`` on ``bins``, as
    ``irfft`` does: every bin but DC and Nyquist counts twice, and their
    imaginary parts are ignored.
    """
    a = _wrap(a)
    if not a.is_complex:
        raise DtypeError("dft_synthesis expects a complex tensor")
    return _dft("dft_synthesis", a, bins, n, axis, True, bool(real))


def mode_mix(v: Tensor, r: Tensor) -> Tensor:
    """Per-mode channel mixing ``out[b,k..,o] = sum_i v[b,k..,i] r[i,o,k..]``.

    ``r`` lists its mode axes in reverse order: ``[i, o, k1]`` against
    ``[b, k1, i]``, and ``[i, o, k1, k2]`` against ``[b, k2, k1, i]``, the
    block a spectral convolution of ``[b, n1, n2, c]`` holds.
    """
    v, r = _wrap(v), _wrap(r)
    if not (v.is_complex and r.is_complex):
        raise DtypeError("mode_mix expects complex tensors")
    rank = v.ndim - 2
    if rank not in (1, 2):
        raise ShapeError(f"mode_mix supports 1 or 2 mode axes, got rank {rank}")
    if r.ndim != rank + 2 or v.shape[-1] != r.shape[0] or v.shape[1:-1] != r.shape[:1:-1]:
        raise ShapeError(f"mode_mix shapes incompatible: {v.shape} with {r.shape}")
    # Stacked matmul over the mode axes hits BLAS; einsum on complex does not.
    perm = tuple(range(r.ndim - 1, 1, -1)) + (0, 1)
    vb = np.ascontiguousarray(np.moveaxis(v.data, 0, -2))       # [k.., b, i]
    rb = np.ascontiguousarray(r.data.transpose(perm))           # [k.., i, o]
    out = np.ascontiguousarray(np.moveaxis(vb @ rb, -2, 0))

    def bwd(g):
        gb = np.ascontiguousarray(np.moveaxis(g, 0, -2))         # [k.., b, o]
        gv = np.ascontiguousarray(np.moveaxis(gb @ _conj_t(rb), -2, 0))
        return gv, np.ascontiguousarray((_conj_t(vb) @ gb).transpose(np.argsort(perm)))

    return _record("mode_mix", out, (v, r), bwd)


# ---------------------------------------------------------------------------
# shape surgery


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty list")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def bwd(g):
        pieces = []
        start = 0
        for s in sizes:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + s)
            pieces.append(g[tuple(sl)])
            start += s
        return pieces

    return _record("concat", out, ts, bwd)


def moveaxis(a: Tensor, src: int, dst: int) -> Tensor:
    a = _wrap(a)
    out = np.moveaxis(a.data, src, dst)

    def bwd(g):
        return (np.moveaxis(g, dst, src),)

    return _record("moveaxis", out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)
    old = a.shape

    def bwd(g):
        return (np.reshape(g, old),)

    return _record("reshape", out, (a,), bwd)


def real(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = a.data.real.copy()
    was_complex = a.is_complex
    cdtype = a.data.dtype

    def bwd(g):
        return (g.astype(cdtype) if was_complex else g,)

    return _record("real", out, (a,), bwd)


def softmax(a: Tensor, axis: int) -> Tensor:
    a = _wrap(a)
    _require_real(a, "softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
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
    if loss.is_complex:
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


def _eval_raw(f, arrays: list[np.ndarray]) -> float:
    out = f(*[Tensor(a) for a in arrays])
    val = out.data if isinstance(out, Tensor) else np.asarray(out)
    if val.size != 1:
        raise ShapeError("finite-difference target must return a scalar")
    return float(val.real.reshape(()))


def finite_diff_report(f, xs, eps: float = 1e-5):
    """Compare tape gradients of ``f`` against central differences.

    ``f`` maps one or more tensors to a real scalar tensor and must be
    deterministic.  Returns ``(max_rel_err, (leaf, flat_index, part))``
    where part is 're' or 'im'.  Relative error uses
    ``max(|analytic|, |numeric|, 1e-12)`` as denominator.
    """
    single = isinstance(xs, (Tensor, np.ndarray))
    xs_list = [xs] if single else list(xs)
    arrays = [np.asarray(x.data if isinstance(x, Tensor) else x, dtype=None) for x in xs_list]
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    loss = f(*leaves)
    grads = backward(tape, loss)
    analytic = [grads[leaf] for leaf in leaves]

    worst = 0.0
    where = (0, 0, "re")
    for li, base in enumerate(arrays):
        flat = base.reshape(-1)
        a_flat = analytic[li].reshape(-1)
        parts = ("re", "im") if np.iscomplexobj(base) else ("re",)
        for j in range(flat.size):
            for part in parts:
                delta = eps if part == "re" else 1j * eps
                bumped = [a.copy() for a in arrays]
                bumped[li].reshape(-1)[j] = flat[j] + delta
                hi = _eval_raw(f, bumped)
                bumped[li].reshape(-1)[j] = flat[j] - delta
                lo = _eval_raw(f, bumped)
                numeric = (hi - lo) / (2.0 * eps)
                a_val = a_flat[j].real if part == "re" else a_flat[j].imag
                err = abs(a_val - numeric) / max(abs(a_val), abs(numeric), 1e-12)
                if err > worst:
                    worst = err
                    where = (li, j, part)
    return worst, where


def finite_diff_check(f, xs, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences."""
    err, _ = finite_diff_report(f, xs, eps)
    return err
