"""Finite-difference verification of every differentiable building block.

Each check names an op and its inputs; the harness draws the rest.  An
input is one of:

- a shape tuple: real normals, swept;
- ``_cplx(*shape)``: complex normals, swept in both parts;
- ``_fixed(*shape)``: real normals passed as a constant tensor, not swept;
- a function of a generator returning an array (swept), or a parameter
  tree whose arrays all become swept inputs; the op receives the tree.

The inputs, in order, and then a probe of the op's output shape (one per
output when the op returns a list) are drawn from one stream keyed by the
check's suite and name, so adding or retiring a check never shifts another
check's values.  The loss is the probe's dot product with the output, and
its tape gradient is compared against central differences on every element
(float64).  Probes are generic random draws, never structured, because
special inputs such as all-ones have zero gradient through most spectral
coefficients and can mask real bugs.

Run via ``compol gradcheck`` or :func:`run`, which returns a list of
:class:`CheckResult` and an overall pass flag.
"""

from __future__ import annotations

import functools
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


def _cplx(*shape):
    return lambda rng: rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _fixed(*shape):
    return lambda rng: T.Tensor(rng.normal(size=shape))


def _check(suite: str, name: str, op, *inputs) -> CheckResult:
    """Draw ``op``'s inputs and probe from the check's own stream and sweep its inputs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([20259, *f"{suite}/{name}".encode()]))
    trees = [rng.normal(size=spec) if isinstance(spec, tuple) else spec(rng) for spec in inputs]
    named = [P.named_arrays(tree) for tree in trees]
    probes = []
    args = {}   # the op's arguments by their leaves: every raw evaluation passes the same tensors

    def loss(*leaves):
        if leaves not in args:
            it = iter(leaves)
            args[leaves] = [P.with_leaves(tree, {k: next(it) for k, _ in arrs}) if arrs else tree
                            for tree, arrs in zip(trees, named)]
        out = op(*args[leaves])
        outs = out if isinstance(out, list) else [out]
        if not probes:
            probes.extend(T.Tensor(rng.normal(size=o.shape)) for o in outs)
        return functools.reduce(T.add, [T.reduce_sum(T.mul(o, p)) for o, p in zip(outs, probes)])

    err, where = T.finite_diff_report(loss, [a for arrs in named for _, a in arrs])
    return CheckResult(suite, name, err, where, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# tensor ops

_X = (3, 5)

_TENSOR = (
    ("add", T.add, _X, _X),
    ("sub", T.sub, _X, _X),
    ("mul", T.mul, _X, _X),
    ("scale", lambda a: T.scale(a, -1.7), _X),
    ("tanh", T.tanh, _X),
    ("sigmoid", T.sigmoid, _X),
    ("gelu", T.gelu, _X),
    ("sqrt", T.sqrt, lambda rng: np.abs(rng.normal(size=_X)) + 0.5),
    ("affine", T.affine, (2, 3, 4), (4, 5), (5,)),
    ("einsum", lambda a, b: T.einsum("...c,m...c->m...", a, b), (4, 3, 5), (2, 4, 3, 5)),
    ("reduce_sum_axis", lambda a: T.reduce_sum(a, (1,)), _X),
    ("reduce_mean", lambda a: T.reduce_mean(a, (1,)), _X),
    # every real-axis bin, Nyquist included, and in 2-D every full-axis bin
    ("spectral_conv_all_bins", T.spectral_conv, (2, 8, 3), _cplx(3, 2, 5)),
    ("spectral_conv_2d_all_bins", T.spectral_conv, (2, 8, 4, 3), _cplx(3, 2, 3, 8)),
    ("softmax", lambda a: T.softmax(a, -1), _X),
    ("concat", lambda a, b: T.concat([a, b], 1), (2, 3), (2, 4)),
    ("moveaxis", lambda a: T.moveaxis(a, 0, 1), _X),
    ("reshape", lambda a: T.reshape(a, (15,)), _X),
)


# ---------------------------------------------------------------------------
# layers: latents are channels-last, [batch, *grid, width]

_B, _W, _N, _M = 2, 4, 8, 3
_V = (_B, _N, _W)


def _draw(cls, shapes):     # a block drawn as the model draws one, in float64
    return lambda rng: L.draw(cls, rng, shapes, np.float64)


_head = _draw(L.LiftProjectParams, L.lift_project_shapes(2, 1, _W))


_LAYERS = (
    ("channel_affine", L.channel_affine, _V, (_W, _W), (_W,)),
    ("spectral_conv", L.spectral_conv, _V, _cplx(_W, _W, _M)),
    ("fourier_layer", L.fourier_layer, _fixed(*_V),
     _draw(L.FourierLayerParams, L.fourier_shapes(_W, _M, 1))),
    ("spectral_conv_2d", L.spectral_conv, (_B, 8, 8, _W), _cplx(_W, _W, 2, 3)),
    ("lift", L.lift, _fixed(_B, 1, _N), _head),
    ("project", L.project, _fixed(*_V), _head),
)


# ---------------------------------------------------------------------------
# aggregation


_AGGREGATION = (
    ("mix_linear", lambda f0, f1, f2, p: agg.mix_processes([f0, f1, f2], p),
     _V, _V, _V, _draw(agg.MixParams, agg.mix_shapes(3, _W))),
    ("gru_step", agg.gru_step, _V, _V, _draw(agg.GruParams, agg.gru_shapes(_W))),
    ("attention", lambda f0, f1, f2, p: agg.attention_aggregate([f0, f1, f2], p),
     _V, _V, _V, _draw(agg.AttentionParams, agg.attention_shapes(_W))),
    ("skip", agg.skip_aggregate, _V, _V, _draw(agg.SkipParams, agg.skip_shapes(_W))),
    ("inject_add", agg.inject, _V, _V),
)


# ---------------------------------------------------------------------------
# full model: two coupled processes on a 32-point grid


def _model(aggregation: str):
    config = M.CompolConfig(
        processes=2, channels=[1, 1], layers=2, width=8, modes=4,
        spatial_dims=1, aggregation=aggregation, dtype="real64")
    return lambda rng: M.init_params(config, seed=int(rng.integers(1 << 31)))


_MODEL = tuple(
    (f"compol_{kind}", lambda x0, x1, model: M.forward(model, [x0, x1]),
     _fixed(2, 1, 32), _fixed(2, 1, 32), _model(kind))
    for kind in ("gru", "attention"))


SUITES = {
    "tensor": _TENSOR,
    "layers": _LAYERS,
    "aggregation": _AGGREGATION,
    "model": _MODEL,
}


def run(module: str = "all", verbose: bool = True) -> tuple[list[CheckResult], bool]:
    """Run one named suite or all of them; returns (results, all_passed)."""
    if module != "all" and module not in SUITES:
        raise ValueError(f"unknown gradcheck module {module!r}; "
                         f"choose from {('all',) + tuple(SUITES)}")
    selected = SUITES if module == "all" else [module]
    results = [_check(suite, *check) for suite in selected for check in SUITES[suite]]
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
