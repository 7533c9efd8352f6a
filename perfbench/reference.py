"""Reference computations made apart from the program.

Everything here uses numpy (``numpy.fft``, ``matmul``) and the formats
and formulas the program documents, never the program's own kernels:

* readers for the ``.cmpd`` dataset and ``CMPLCKPT`` checkpoint files;
* a forward pass of a checkpoint: lift with coordinate channels, 1-D and
  2-D spectral layers with the mode order 0, +1, -1, ..., gru /
  attention / skip aggregation with additive injection, and the GELU
  projection head, scored by per-sample relative L2;
* the bz data recipe: a spectral Gaussian-random-field draw seeded by
  ``SeedSequence([seed, index])``, an ETDRK4 solve on the fine grid and
  spectral subsampling to the stored grid;
* a real64 probe of the tape gradient along one random direction.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# ---------------------------------------------------------------------------
# file formats


def _framed(path: str, magic: bytes):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    version, hlen = np.frombuffer(raw[8:16], "<u4")
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    header = json.loads(raw[16:16 + int(hlen)].decode("utf-8"))
    return header, memoryview(raw)[16 + int(hlen):]


def read_cmpd(directory: str):
    """Dataset directory to (manifest, inputs[m], outputs[m]) as float32 arrays."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    header, body = _framed(os.path.join(directory, manifest["files"][0]["name"]),
                           b"CMPLDATA")
    n, groups, shapes = header["samples"], header["groups"], header["shapes"]
    # payload order: sample, process, group; one row-major float32 field each
    sizes = [[int(np.prod(s[g])) for g in groups] for s in shapes]
    per_sample = sum(sum(row) for row in sizes)
    flat = np.frombuffer(body, "<f4")
    if flat.size != n * per_sample:
        raise ValueError("payload size does not match the header")
    flat = flat.reshape(n, per_sample)
    out = {g: [] for g in groups}
    off = 0
    for m, s in enumerate(shapes):
        for gi, g in enumerate(groups):
            size = sizes[m][gi]
            out[g].append(flat[:, off:off + size].reshape((n,) + tuple(s[g])))
            off += size
    return manifest, out["input"], out["output"]


def read_checkpoint(path: str):
    """Checkpoint file to (config dict, extra dict, {name: array})."""
    header, body = _framed(path, b"CMPLCKPT")
    params = {}
    for e in header["params"]:
        dt = np.dtype(e["dtype"])
        count = int(np.prod(e["shape"])) if e["shape"] else 1
        start = e["offset"]
        params[e["name"]] = np.frombuffer(body[start:start + count * dt.itemsize],
                                          dt).reshape(e["shape"])
    return header["config"], header.get("extra", {}), params


# ---------------------------------------------------------------------------
# forward pass


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def affine(v, w, b=None):
    """Pointwise channel map on axis 1 of [batch, channels, *grid]."""
    out = np.moveaxis(np.moveaxis(v, 1, -1) @ w, -1, 1)
    return out if b is None else out + b.reshape((1, -1) + (1,) * (v.ndim - 2))


def mode_order(k: int, n: int) -> np.ndarray:
    """Bins of frequencies 0, +1, -1, +2, -2, ... on a full axis of extent n."""
    freqs = [0]
    f = 1
    while len(freqs) < k:
        freqs += [f, -f]
        f += 1
    return np.asarray(freqs[:k]) % n


def spectral(v, r):
    """Keep the low modes of ``v``, multiply them by ``r``, zero the rest."""
    if v.ndim == 3:
        n, k = v.shape[-1], r.shape[-1]
        vh = np.fft.rfft(v, axis=-1)[..., :k]
        out = np.zeros(v.shape[:2] + (n // 2 + 1,), dtype=vh.dtype)
        out[..., :k] = np.einsum("bik,iok->bok", vh, r)
        return np.fft.irfft(out, n=n, axis=-1)
    n1, n2 = v.shape[-2:]
    k1, k2 = r.shape[-2:]  # k1 bins of the real (last) axis, k2 of the full axis
    rows = mode_order(k2, n1)
    vh = np.fft.rfft2(v, axes=(-2, -1))[..., rows, :k1]  # [b, i, k2, k1]
    out = np.zeros(v.shape[:2] + (n1, n2 // 2 + 1), dtype=vh.dtype)
    out[..., rows, :k1] = np.einsum("biac,ioca->boac", vh, r)
    return np.fft.irfft2(out, s=(n1, n2), axes=(-2, -1))


def coords(batch, grid):
    axes = [np.arange(n) / n for n in grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.broadcast_to(np.stack(mesh)[None], (batch, len(grid)) + tuple(grid))


def _check_supported(cfg: dict) -> None:
    want = {"mix": "linear", "inject": "add", "activation": "gelu", "coords": True,
            "heads": 1, "attend_history": False, "d_mix": None, "key_width": None}
    for key, value in want.items():
        if cfg.get(key, value) != value:
            raise NotImplementedError(f"reference forward needs {key}={value!r}")


def forward(cfg: dict, p: dict, xs):
    """Forward pass on standardized inputs ``xs[m]`` ([b, c_m, *grid]).

    Computes in the checkpoint's precision (real32 or real64).
    """
    _check_supported(cfg)
    real = np.float32 if cfg.get("dtype", "real32") == "real32" else np.float64
    cplx = np.result_type(real, np.complex64)
    P = {k: np.asarray(v, dtype=cplx if np.iscomplexobj(v) else real) for k, v in p.items()}
    procs, layers, kind = cfg["processes"], cfg["layers"], cfg["aggregation"]
    b, grid = xs[0].shape[0], xs[0].shape[2:]
    v = []
    for m in range(procs):
        x = np.concatenate([np.asarray(xs[m], real), coords(b, grid).astype(real)], axis=1)
        v.append(affine(x, P[f"processes.{m}.head.p"], P[f"processes.{m}.head.p_b"]))
    z = np.zeros_like(v[0])
    for l in range(layers):
        a = f"aggregation.{l}"
        if kind in ("gru", "skip"):
            mixed = affine(np.concatenate(v, axis=1), P[f"{a}.mix.w"], P[f"{a}.mix.b"])
        if kind == "gru":
            g = lambda s: affine(mixed, P[f"{a}.gru.w{s}"], P[f"{a}.gru.b{s}"])
            q = sigmoid(g("q") + affine(z, P[f"{a}.gru.uq"]))
            r = sigmoid(g("r") + affine(z, P[f"{a}.gru.ur"]))
            cand = np.tanh(g("z") + affine(r * z, P[f"{a}.gru.uz"]))
            z = q * z + (1.0 - q) * cand
        elif kind == "skip":
            z = z + affine(mixed, P[f"{a}.skip.w"], P[f"{a}.skip.b"])
        elif kind == "attention":
            query = affine(sum(v) / len(v), P[f"{a}.attn.wq"], P[f"{a}.attn.bq"])
            scale = 1.0 / math.sqrt(query.shape[1])
            scores = np.stack([(query * affine(t, P[f"{a}.attn.wk"])).sum(1) * scale
                               for t in v])                      # [m, b, *grid]
            alpha = np.exp(scores - scores.max(0))
            alpha /= alpha.sum(0)
            z = sum(alpha[j][:, None] * affine(t, P[f"{a}.attn.wa"], P[f"{a}.attn.ba"])
                    for j, t in enumerate(v))
        elif kind != "none":
            raise NotImplementedError(f"aggregation {kind!r}")
        if kind != "none":
            v = [t + z for t in v]
        v = [gelu(affine(t, P[f"processes.{m}.layers.{l}.w"], P[f"processes.{m}.layers.{l}.b"])
                  + spectral(t, P[f"processes.{m}.layers.{l}.r"]))
             for m, t in enumerate(v)]
    return [affine(gelu(affine(t, P[f"processes.{m}.head.q1"], P[f"processes.{m}.head.q1_b"])),
                   P[f"processes.{m}.head.q2"], P[f"processes.{m}.head.q2_b"])
            for m, t in enumerate(v)]


def _stat(entry, ndim):
    shape = (1, -1) + (1,) * (ndim - 2)
    return (np.asarray(entry["mean"], np.float64).reshape(shape),
            np.asarray(entry["std"], np.float64).reshape(shape))


def errors(cfg: dict, params: dict, manifest: dict, inputs, outputs, idx,
           batch: int = 16):
    """Per-process mean relative L2 of the model over samples ``idx``.

    Inputs are standardized and outputs de-standardized with the
    manifest's per-channel statistics.  A single-branch model over more
    channels than one process has (fno-c) sees every process's channels
    stacked, and its prediction is split back per process.
    """
    stats = manifest["stats"]
    procs = len(inputs)
    stacked = cfg["processes"] == 1 and procs > 1
    per_sample = [[] for _ in range(procs)]
    for b0 in range(0, len(idx), batch):
        sel = np.asarray(idx[b0:b0 + batch])
        xs = []
        for m in range(procs):
            mean, std = _stat(stats["input"][m], inputs[m].ndim)
            xs.append((inputs[m][sel].astype(np.float64) - mean) / std)
        if stacked:
            xs = [np.concatenate(xs, axis=1)]
        outs = forward(cfg, params, xs)
        if stacked:
            bounds = np.cumsum([o.shape[1] for o in outputs])[:-1]
            outs = np.split(outs[0], bounds, axis=1)
        for m in range(procs):
            mean, std = _stat(stats["output"][m], outputs[m].ndim)
            pred = outs[m] * std + mean
            y = outputs[m][sel].astype(np.float64)
            axes = tuple(range(1, y.ndim))
            num = np.sqrt(((pred - y) ** 2).sum(axis=axes))
            den = np.sqrt((y ** 2).sum(axis=axes))
            per_sample[m].append(num / np.where(den > 0, den, 1.0))
    return [float(np.concatenate(e).mean()) for e in per_sample]


# ---------------------------------------------------------------------------
# bz data recipe


def grf(rng, count, n, length_scale, sigma):
    """Periodic squared-exponential field by spectral sampling."""
    j = np.arange(n)
    d = np.minimum(j, n - j) / n
    lam = np.maximum(np.fft.fft(sigma ** 2 * np.exp(-d ** 2 / (2 * length_scale ** 2))).real,
                     0.0)
    shape = (count, n)
    xi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    return math.sqrt(2.0) * np.fft.ifft(np.sqrt(n * lam) * xi).real


def phis(z):
    """phi_0..phi_3 of real z <= 0: Taylor series near 0, closed form elsewhere."""
    z = np.asarray(z, np.float64)
    out = [np.exp(z)]
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    zb = np.where(small, -1.0, z)
    closed = [(np.exp(zb) - 1) / zb,
              (np.exp(zb) - 1 - zb) / zb ** 2,
              (np.exp(zb) - 1 - zb - zb ** 2 / 2) / zb ** 3]
    for k in (1, 2, 3):
        series = sum(zs ** i / math.factorial(i + k) for i in range(25))
        out.append(np.where(small, series, closed[k - 1]))
    return out


def bz_reaction(u):
    x, y, w = u[:, 0], u[:, 1], u[:, 2]
    return np.stack([x + y - x * y - x * x, w - y - x * y, x - w], axis=1)


def etdrk4(u0, diffusivities, reaction, horizon, dt, domain=1.0):
    """Cox-Matthews ETDRK4 in rfft space: diffusion exact, reaction pseudo-spectral."""
    n = u0.shape[-1]
    steps = max(1, int(round(horizon / dt)))
    h = horizon / steps
    k = 2 * np.pi / domain * np.arange(n // 2 + 1)
    L = -np.asarray(diffusivities)[:, None] * k ** 2
    e, p1, p2, p3 = phis(h * L)
    e2, q1, _, _ = phis(h * L / 2)
    q = h / 2 * q1
    f1 = h * (p1 - 3 * p2 + 4 * p3)
    f2 = h * (p2 - 2 * p3)
    f3 = h * (4 * p3 - p2)

    def N(vh):
        return np.fft.rfft(reaction(np.fft.irfft(vh, n=n)))

    v = np.fft.rfft(u0)
    for _ in range(steps):
        nv = N(v)
        a = e2 * v + q * nv
        na = N(a)
        b = e2 * v + q * na
        nb = N(b)
        c = e2 * a + q * (2 * nb - nv)
        v = e * v + f1 * nv + 2 * f2 * (na + nb) + f3 * N(c)
    return np.fft.irfft(v, n=n)


def subsample(u, target):
    n = u.shape[-1]
    return np.fft.irfft(np.fft.rfft(u)[..., :target // 2 + 1] * (target / n), n=target)


def bz_sample(system: dict, seed: int, index: int):
    """(input, output) [3, resolution] of one bz sample, per the recipe."""
    p = system["params"]
    fine = system["resolution"] * system["fine_factor"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    u0 = np.maximum(grf(rng, 3, fine, system["grf_length_scale"], system["grf_sigma"]), 0.0)
    u1 = etdrk4(u0[None], [p["eps1"], p["eps2"], p["eps3"]], bz_reaction,
                system["horizon"], system["dt"], system["domain_size"])[0]
    return subsample(u0, system["resolution"]), subsample(u1, system["resolution"])


# ---------------------------------------------------------------------------
# checks


def close(got, want, rtol: float, atol: float = 0.0) -> tuple[bool, float]:
    """(ok, worst error as a share of the tolerance) for arrays or scalars."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False, math.inf
    tol = atol + rtol * np.abs(want)
    worst = float(np.max(np.abs(got - want) / tol)) if got.size else 0.0
    return worst <= 1.0, worst


def gradient_probe(kind: str, base_cfg, xs, seed: int, rtol: float = 1e-6,
                   grad_scale: float = 1.0) -> tuple[bool, float]:
    """Tape directional derivative against a central difference, in real64.

    The loss is a fixed random weighting of every output.  ``grad_scale``
    multiplies the tape gradient; the self-test uses it to show the probe
    fails on a wrong gradient.
    """
    import dataclasses

    from compol import model as M
    from compol import params as P
    from compol import tensor as T

    cfg = dataclasses.replace(M.config_for_kind(kind, base_cfg), dtype="real64", seed=seed)
    model = M.init_params(cfg)
    if cfg.processes == 1:
        xs = [np.concatenate(xs, axis=1)]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    weights = [rng.standard_normal(x.shape) for x in xs]
    named = model.named_parameters()
    direction = {}
    for name, arr in named:
        s = max(float(np.abs(arr).std()), 1e-3)
        d = rng.standard_normal(arr.shape) * s
        if np.iscomplexobj(arr):
            d = d + 1j * rng.standard_normal(arr.shape) * s
        direction[name] = d

    def loss_value(mdl):
        outs = M.forward(mdl, xs, None)
        return sum(float((o.data * w).sum()) for o, w in zip(outs, weights))

    tape = T.Tape()
    bound = dataclasses.replace(model, processes=P.bind(model.processes, tape),
                                aggregation=P.bind(model.aggregation, tape))
    outs = M.forward(bound, xs, tape)
    loss = None
    for o, w in zip(outs, weights):
        term = T.reduce_sum(T.mul(o, T.Tensor(w)))
        loss = term if loss is None else T.add(loss, term)
    grads = T.backward(tape, loss)
    leaves = dict(P.named_tensors(bound.processes, "processes")
                  + P.named_tensors(bound.aggregation, "aggregation"))
    tape_dd = grad_scale * sum(float(np.real(np.vdot(grads[leaves[n]], direction[n])))
                               for n, _ in named)

    eps = 1e-5
    originals = {n: a.copy() for n, a in named}
    values = []
    for sign in (1.0, -1.0):
        for n, a in named:
            a[...] = originals[n] + sign * eps * direction[n]
        values.append(loss_value(model))
    for n, a in named:
        a[...] = originals[n]
    fd_dd = (values[0] - values[1]) / (2 * eps)
    return close(tape_dd, fd_dd, rtol, atol=1e-9)
