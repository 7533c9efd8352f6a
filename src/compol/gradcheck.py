"""Finite-difference verification of every differentiable building block.

Each check compares tape gradients against central differences on small
fixed random probes (float64).  Probes are generic — drawn once from
seeded streams, never structured — because special inputs such as
all-ones have zero gradient through most spectral coefficients and can
mask real bugs.

Run via ``compol gradcheck`` or :func:`run`, which returns a list of
:class:`CheckResult` and an overall pass flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import aggregation as agg
from . import layers as L
from . import model as M
from . import params as P
from . import tensor as T

__all__ = ["CheckResult", "run", "SUITES", "TOLERANCE"]

TOLERANCE = 1e-4
_EPS = 1e-5


@dataclass
class CheckResult:
    suite: str
    name: str
    max_rel_err: float
    location: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (f"[{status}] {self.suite}/{self.name}: "
                f"max rel err {self.max_rel_err:.3e} at {self.location} "
                f"({self.seconds:.2f}s)")


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([20259, tag]))


def _leaves(tree):
    """A parameter tree's arrays, and a function rebuilding it around given leaves."""
    named = P.named_arrays(tree)
    names = [k for k, _ in named]
    return [a for _, a in named], lambda leaves: P.with_leaves(tree, dict(zip(names, leaves)))


def _real(rng, *shape):
    return rng.normal(size=shape)


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _check(suite, name, f, xs, results):
    t0 = time.perf_counter()
    err, where = T.finite_diff_report(f, xs, _EPS)
    results.append(CheckResult(suite, name, err, where, time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# tensor ops


def _suite_tensor(results):
    rng = _rng(1)
    x = _real(rng, 3, 5)
    y = _real(rng, 3, 5)
    pr = _real(rng, 3, 5)          # fixed probe for non-scalar outputs
    prT = T.Tensor(pr)

    _check("tensor", "add", lambda a, b: T.reduce_sum((a + b) * prT), [x, y], results)
    _check("tensor", "sub", lambda a, b: T.reduce_sum((a - b) * prT), [x, y], results)
    _check("tensor", "mul", lambda a, b: T.reduce_sum((a * b) * prT), [x, y], results)
    _check("tensor", "scale", lambda a: T.reduce_sum(T.scale(a, -1.7) * prT), [x], results)
    _check("tensor", "tanh", lambda a: T.reduce_sum(T.tanh(a) * prT), [x], results)
    _check("tensor", "sigmoid", lambda a: T.reduce_sum(T.sigmoid(a) * prT), [x], results)
    _check("tensor", "gelu", lambda a: T.reduce_sum(T.gelu(a) * prT), [x], results)
    xp = np.abs(x) + 0.5
    _check("tensor", "sqrt", lambda a: T.reduce_sum(T.sqrt(a) * prT), [xp], results)

    _real(rng, 235)                 # unused draws: the probes after them stay as they were
    ra = _rng(11)                   # its own stream, so the draws after it keep theirs
    pr235 = T.Tensor(_real(ra, 2, 3, 5))
    _check("tensor", "affine",
           lambda a, w_, b_: T.reduce_sum(T.affine(a, w_, b_) * pr235),
           [_real(ra, 2, 3, 4), _real(ra, 4, 5), _real(ra, 5)], results)
    rs = _rng(12)
    pr243 = T.Tensor(_real(rs, 2, 4, 3))
    _check("tensor", "einsum",
           lambda a, b: T.reduce_sum(T.einsum("...c,m...c->m...", a, b) * pr243),
           [_real(rs, 4, 3, 5), _real(rs, 2, 4, 3, 5)], results)

    pr3 = T.Tensor(_real(rng, 3))
    _check("tensor", "reduce_sum_axis",
           lambda a: T.reduce_sum(T.reduce_sum(a, (1,)) * pr3), [x], results)
    _check("tensor", "reduce_mean",
           lambda a: T.reduce_sum(T.reduce_mean(a, (1,)) * pr3), [x], results)

    _real(rng, 636)                 # unused draws: the probes after them stay as they were
    rc = _rng(13)
    # every real-axis bin, Nyquist included, and in 2-D every full-axis bin
    for name, grid, modes in (("spectral_conv_all_bins", (8,), (5,)),
                              ("spectral_conv_2d_all_bins", (8, 4), (3, 8))):
        pr_sc = T.Tensor(_real(rc, 2, *grid, 2))
        _check("tensor", name,
               lambda v_, r_, _pr=pr_sc: T.reduce_sum(T.spectral_conv(v_, r_) * _pr),
               [_real(rc, 2, *grid, 3), _cplx(rc, 3, 2, *modes)], results)

    _check("tensor", "softmax",
           lambda a: T.reduce_sum(T.softmax(a, -1) * prT), [x], results)
    _real(rng, 3, 5)                # unused draws: the probes after them stay as they were
    pr27 = T.Tensor(_real(rng, 2, 7))
    _check("tensor", "concat",
           lambda a, b: T.reduce_sum(T.concat([a, b], 1) * pr27),
           [_real(rng, 2, 3), _real(rng, 2, 4)], results)
    pr_mv = T.Tensor(_real(rng, 5, 3))
    _check("tensor", "moveaxis",
           lambda a: T.reduce_sum(T.moveaxis(a, 0, 1) * pr_mv), [x], results)
    pr_rs = T.Tensor(_real(rng, 15))
    _check("tensor", "reshape",
           lambda a: T.reduce_sum(T.reshape(a, (15,)) * pr_rs), [x], results)


# ---------------------------------------------------------------------------
# layers


def _suite_layers(results):
    """Latents are channels-last, [batch, *grid, width]."""
    rng = _rng(2)
    b, w, n, m = 2, 4, 8, 3

    vw = _real(rng, b, n, w)
    ww = _real(rng, w, w)
    bw = _real(rng, w)
    pr = T.Tensor(_real(rng, b, n, w))
    _check("layers", "channel_affine",
           lambda v_, w_, b_: T.reduce_sum(L.channel_affine(v_, w_, b_) * pr),
           [vw, ww, bw], results)

    r = _cplx(rng, w, w, m)
    _check("layers", "spectral_conv",
           lambda v_, r_: T.reduce_sum(L.spectral_conv(v_, r_) * pr),
           [vw, r], results)

    arrs_fl, fl_tree = _leaves(L.init_fourier_layer(_rng(21), w, m, 1, dtype=np.float64))
    _check("layers", "fourier_layer",
           lambda *ls: T.reduce_sum(L.fourier_layer(T.Tensor(vw), fl_tree(ls)) * pr),
           arrs_fl, results)

    r2 = _cplx(rng, w, w, 2, 3)
    v2 = _real(rng, b, 8, 8, w)
    pr2 = T.Tensor(_real(rng, b, 8, 8, w))
    _check("layers", "spectral_conv_2d",
           lambda v_, r_: T.reduce_sum(L.spectral_conv(v_, r_) * pr2),
           [v2, r2], results)

    arrs_h, h_tree = _leaves(
        L.init_lift_project(_rng(22), d_in=2, d_out=1, width=w, dtype=np.float64))
    fin = _real(rng, b, 1, n)
    prl = T.Tensor(_real(rng, b, n, w))
    _check("layers", "lift",
           lambda *ls: T.reduce_sum(L.lift(T.Tensor(fin), h_tree(ls)) * prl),
           arrs_h, results)

    prq = T.Tensor(_real(rng, b, 1, n))
    _check("layers", "project",
           lambda *ls: T.reduce_sum(L.project(T.Tensor(vw), h_tree(ls)) * prq),
           arrs_h, results)


# ---------------------------------------------------------------------------
# aggregation


def _suite_aggregation(results):
    rng = _rng(3)
    b, w, n = 2, 4, 8
    fields = [_real(rng, b, n, w) for _ in range(3)]
    pr = T.Tensor(_real(rng, b, n, w))

    arrs, mix_tree = _leaves(agg.init_mix(_rng(31), 3, w, w, dtype=np.float64))
    _check("aggregation", "mix_linear",
           lambda f0, f1, f2, *ls: T.reduce_sum(
               agg.mix_processes([f0, f1, f2], "linear", mix_tree(ls)) * pr),
           fields + arrs, results)
    _check("aggregation", "mix_add",
           lambda f0, f1, f2: T.reduce_sum(
               agg.mix_processes([f0, f1, f2], "add") * pr),
           fields, results)

    arrs_g, gru_tree = _leaves(agg.init_gru(_rng(32), w, w, dtype=np.float64))
    mixed = _real(rng, b, n, w)
    zprev = _real(rng, b, n, w)
    _check("aggregation", "gru_step",
           lambda m_, z_, *ls: T.reduce_sum(agg.gru_step(m_, z_, gru_tree(ls)) * pr),
           [mixed, zprev] + arrs_g, results)

    for name, seed, heads in (("attention", 33, 1), ("attention_2head", 34, 2)):
        arrs_a, attn_tree = _leaves(
            agg.init_attention(_rng(seed), w, w, heads=heads, dtype=np.float64))
        _check("aggregation", name,
               lambda f0, f1, f2, *ls, _tree=attn_tree: T.reduce_sum(
                   agg.attention_aggregate([f0, f1, f2], _tree(ls)) * pr),
               fields + arrs_a, results)

    arrs_s, skip_tree = _leaves(agg.init_skip(_rng(35), w, w, dtype=np.float64))
    _check("aggregation", "skip",
           lambda m_, z_, *ls: T.reduce_sum(agg.skip_aggregate(m_, z_, skip_tree(ls)) * pr),
           [mixed, zprev] + arrs_s, results)

    arrs_i, inject_tree = _leaves(agg.init_inject(_rng(36), w, dtype=np.float64))
    _check("aggregation", "inject_add",
           lambda v_, z_: T.reduce_sum(agg.inject(v_, z_, "add") * pr),
           [mixed, zprev], results)
    _check("aggregation", "inject_concat_reduce",
           lambda v_, z_, *ls: T.reduce_sum(
               agg.inject(v_, z_, "concat_reduce", inject_tree(ls)) * pr),
           [mixed, zprev] + arrs_i, results)


# ---------------------------------------------------------------------------
# full model


def _model_config(aggregation: str) -> M.CompolConfig:
    return M.CompolConfig(
        processes=2, channels=[1, 1], layers=2, width=8, modes=4,
        spatial_dims=1, aggregation=aggregation, mix="add",
        dtype="real64", seed=5)


def _suite_model(results, grid: int = 32):
    rng = _rng(4)
    for kind in ("gru", "attention"):
        arrs, model_tree = _leaves(M.init_params(_model_config(kind)))
        xs = [_real(rng, 2, 1, grid) for _ in range(2)]
        probes = [T.Tensor(_real(rng, 2, 1, grid)) for _ in range(2)]

        def full(*leaves, _tree=model_tree, _xs=xs, _probes=probes):
            outs = M.forward(_tree(leaves), _xs, None)
            total = T.reduce_sum(outs[0] * _probes[0])
            return total + T.reduce_sum(outs[1] * _probes[1])

        _check("model", f"compol_{kind}", full, arrs, results)


SUITES = {
    "tensor": _suite_tensor,
    "layers": _suite_layers,
    "aggregation": _suite_aggregation,
    "model": _suite_model,
}


def run(module: str = "all", verbose: bool = True) -> tuple[list[CheckResult], bool]:
    """Run one named suite or all of them; returns (results, all_passed)."""
    if module != "all" and module not in SUITES:
        raise ValueError(f"unknown gradcheck module {module!r}; "
                         f"choose from {('all',) + tuple(SUITES)}")
    selected = SUITES if module == "all" else {module: SUITES[module]}
    results: list[CheckResult] = []
    for fn in selected.values():
        fn(results)
    for res in results:
        if verbose:
            print(res.line())
    ok = all(r.passed for r in results)
    if verbose:
        worst = max(results, key=lambda r: r.max_rel_err)
        print(f"{'PASS' if ok else 'FAIL'}: {len(results)} checks, "
              f"worst {worst.max_rel_err:.3e} ({worst.suite}/{worst.name}), "
              f"tolerance {TOLERANCE:.0e}")
    return results, ok
