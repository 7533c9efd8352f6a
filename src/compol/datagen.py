"""Seeded coupled-PDE data generation.

Initial conditions are stationary Gaussian random fields sampled
spectrally on the periodic unit domain.  Time integration is ETDRK4
with the diffusion part handled exactly per Fourier mode and the
reaction terms evaluated pseudo-spectrally in physical space, all in
float64.  1-D systems are solved on a 4x finer grid and spectrally
subsampled to the stored resolution; the 2-D system is solved directly
at the stored resolution.

The solver holds its state field-major, [M, B, *grid], so each reaction
works on contiguous fields, and hands it to ``compol.fft`` as [M B, *grid]:
one (field, sample) plane per first-axis slice, whose bits do not depend
on the batch.
"""

from __future__ import annotations

import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dataio
from . import fft as K

__all__ = [
    "GrfSpec", "SystemSpec", "BlowUpError",
    "sample_grf", "phi_coefficients", "etdrk4_solve",
    "spectral_subsample", "initial_conditions", "generate_dataset",
    "system_spec", "SYSTEM_NAMES", "env_workers", "MAX_STEPS",
]


class BlowUpError(RuntimeError):
    """Integration produced non-finite values.

    ``step`` is the 1-based step index; ``samples`` lists the offending
    batch indices (global sample ids once re-raised by the generator).
    """

    def __init__(self, message: str, step: int, samples: "list[int]"):
        super().__init__(message)
        self.step = step
        self.samples = samples

    def __reduce__(self):       # so that a worker process can send it back
        return type(self), (str(self), self.step, self.samples)


# ---------------------------------------------------------------------------
# Gaussian random fields


@dataclass(frozen=True)
class GrfSpec:
    """Squared-exponential stationary field on the periodic unit domain."""

    dim: int
    resolution: int
    length_scale: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        K._check_pow2(self.resolution, "resolution")
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")


def _covariance_eigenvalues(spec: GrfSpec) -> np.ndarray:
    """Eigenvalues of the circulant covariance = FFT of one kernel row."""
    n = spec.resolution
    j = np.arange(n)
    d = np.minimum(j, n - j) / n
    if spec.dim == 1:
        row = spec.amplitude ** 2 * np.exp(-d ** 2 / (2.0 * spec.length_scale ** 2))
    else:
        d2 = d[:, None] ** 2 + d[None, :] ** 2
        row = spec.amplitude ** 2 * np.exp(-d2 / (2.0 * spec.length_scale ** 2))
    lam = K.fft(row.astype(np.complex128), tuple(range(-spec.dim, 0))).real
    # The periodic SE kernel is positive definite up to roundoff; tiny
    # negative eigenvalues are clipped so sqrt stays real.
    return np.maximum(lam, 0.0)


def sample_grf(spec: GrfSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` independent fields [count, N(, N)], mean 0, variance sigma^2.

    Each Fourier mode gets an independent complex Gaussian scaled by the
    square root of the kernel's spectral density; the real part of the
    inverse transform is kept, with a sqrt(2) factor restoring variance.
    """
    lam = _covariance_eigenvalues(spec)
    n_tot = lam.size
    shape = (count,) + lam.shape
    xi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    coef = np.sqrt(n_tot * lam) * xi
    axes = tuple(range(-spec.dim, 0))
    out = np.sqrt(2.0) * K.ifft(coef, axes).real
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# phi functions

_PHI_CHUNK = 1024       # entries of z per pass: 32 contour points make 512 KiB temporaries


def phi_coefficients(z):
    """phi_0..phi_3 evaluated per entry of ``z`` by contour averaging.

    phi_0 = e^z directly; phi_1..phi_3 are means of the analytic
    expressions over 32 points of a radius-1 circle around each z, which
    sidesteps the removable singularity at 0.  Real input yields real output.
    The ring is applied to ``_PHI_CHUNK`` entries of ``z`` at a time, so
    the ``[..., 32]`` temporaries stay bounded.
    """
    z = np.asarray(z)
    was_real = not np.iscomplexobj(z)
    theta = 2.0 * np.pi * (np.arange(32) + 0.5) / 32
    ring = np.exp(1j * theta)
    flat = z.reshape(-1)
    means = np.empty((3, flat.size), np.complex128)
    for lo in range(0, flat.size, _PHI_CHUNK):
        zz = flat[lo:lo + _PHI_CHUNK, None].astype(np.complex128) + ring
        ez = np.exp(zz)
        means[0, lo:lo + _PHI_CHUNK] = ((ez - 1.0) / zz).mean(-1)
        means[1, lo:lo + _PHI_CHUNK] = ((ez - 1.0 - zz) / zz ** 2).mean(-1)
        means[2, lo:lo + _PHI_CHUNK] = ((ez - 1.0 - zz - 0.5 * zz ** 2) / zz ** 3).mean(-1)
    phi0 = np.exp(z)
    out = (phi0,) + tuple(m.reshape(z.shape) for m in means)
    if was_real:
        out = tuple(np.ascontiguousarray(p.real) for p in out)
    return out


# ---------------------------------------------------------------------------
# system definitions


@dataclass
class SystemSpec:
    """One coupled reaction-diffusion (or Burgers) system, fully pinned.

    ``params`` carries every reaction coefficient plus any initial-
    condition shaping constants so overrides land in the manifest.
    ``horizon / dt`` must be a finite step count of at most
    :data:`MAX_STEPS`; anything else is a ValueError, and ``gen-data``
    exits 2 before it starts a solve.
    """

    system: str
    params: dict = field(default_factory=dict)
    horizon: float = 1.0
    dt: float = 1e-2
    resolution: int = 256
    grf_length_scale: float = 0.1
    grf_sigma: float = 1.0
    fine_factor: int = 4
    domain_size: float = 1.0

    def __post_init__(self):
        if self.system not in SYSTEM_NAMES:
            raise ValueError(f"unknown system {self.system!r}")
        _step_count(self.horizon, self.dt)
        if not self.domain_size > 0:
            raise ValueError("domain_size must be positive")
        if not self.grf_length_scale > 0:
            raise ValueError(f"grf_length_scale must be positive, got {self.grf_length_scale!r}")
        if not self.grf_sigma >= 0:
            raise ValueError(f"grf_sigma must be >= 0, got {self.grf_sigma!r}")
        K._check_pow2(self.resolution, "resolution")
        for name, value in self.diffusivities().items():
            if value < 0:
                raise ValueError(f"diffusivity {name} must be >= 0, got {value}")

    @property
    def dim(self) -> int:
        return 2 if self.system == "gs" else 1

    @property
    def processes(self) -> int:
        return len(_SYSTEMS[self.system][0])

    @property
    def channel_names(self) -> "list[str]":
        return list(_SYSTEMS[self.system][0])

    @property
    def solve_resolution(self) -> int:
        return self.resolution * (self.fine_factor if self.dim == 1 else 1)

    def diffusivities(self) -> "dict[str, float]":
        return {k: self.params[k] for k in _SYSTEMS[self.system][1]}

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            **{k: (int if kind == "int" else float)(getattr(self, k))
               for k, (kind, _) in _SCALAR_FIELDS.items()},
            "dim": self.dim,
            "processes": self.processes,
            "channel_names": self.channel_names,
            "init_recipe": _SYSTEMS[self.system][2],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SystemSpec":
        keys = ("system", "params", *_SCALAR_FIELDS)
        return cls(**{k: d[k] for k in keys if k in d})


# each system's channel names (one per process), diffusivity keys and initial-condition recipe
_SYSTEMS = {
    "lv": (("u", "v"), ("du", "dv"), "per-process GRF, shifted by init_shift and clamped at 0"),
    "bz": (("u", "v", "w"), ("eps1", "eps2", "eps3"), "per-process GRF clamped at 0"),
    "gs": (("u", "v"), ("du", "dv"),
           "one shared GRF g: u = 1 - init_scale*max(g,0), v = init_scale*max(g,0)"),
    "burgers": (("u",), ("nu",), "raw GRF"),
}
SYSTEM_NAMES = tuple(_SYSTEMS)

# the most ETDRK4 steps one solve may take: 250x burgers' default of 4,000
MAX_STEPS = 10 ** 6


def _step_count(horizon: float, dt: float) -> int:
    """ETDRK4 steps to ``horizon`` at ``dt``: ``round(horizon / dt)``, at least 1.

    A step that is not positive, or a count that is not finite or exceeds
    :data:`MAX_STEPS`, is a ValueError.
    """
    if not dt > 0 or not horizon > 0:
        raise ValueError("horizon and dt must be positive")
    if not math.isfinite(horizon / dt):
        raise ValueError(f"horizon / dt must be a finite step count, got {horizon!r} / {dt!r}")
    if round(horizon / dt) > MAX_STEPS:
        raise ValueError(f"horizon / dt is {horizon / dt:.6g} ETDRK4 steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    return max(1, round(horizon / dt))


_DEFAULTS = {
    "lv": dict(
        params={"a": 0.01, "b": 0.01, "c": 0.01, "d": 0.01,
                "du": 0.01, "dv": 0.01, "init_shift": 2.0},
        horizon=20.0, dt=1e-2, resolution=256,
        grf_length_scale=0.1, grf_sigma=1.0, fine_factor=4),
    "bz": dict(
        params={"eps1": 1e-2, "eps2": 1e-2, "eps3": 5e-3},
        horizon=0.5, dt=1e-3, resolution=256,
        grf_length_scale=0.03, grf_sigma=1.0, fine_factor=4),
    # Unit grid spacing (domain 64 at the default 64x64 mesh): with these
    # diffusivities a unit domain would damp every non-mean mode by e^-95
    # over the horizon and no patterns could form.
    "gs": dict(
        params={"du": 0.12, "dv": 0.06, "f": 0.054, "k": 0.063,
                "init_scale": 0.5},
        horizon=20.0, dt=2e-2, resolution=64,
        grf_length_scale=0.1, grf_sigma=1.0, fine_factor=1,
        domain_size=64.0),
    "burgers": dict(
        params={"nu": 0.01},
        horizon=1.0, dt=2.5e-4, resolution=256,
        grf_length_scale=0.1, grf_sigma=1.0, fine_factor=4),
}

# the SystemSpec fields an override may set; any other key names a parameter
_SCALAR_FIELDS = {"horizon": ("number", None), "dt": ("number", None),
                  "resolution": ("int", None), "grf_length_scale": ("number", None),
                  "grf_sigma": ("number", None), "fine_factor": ("int", 1),
                  "domain_size": ("number", None)}


def system_spec(name: str, resolution: int | None = None,
                overrides: "dict | None" = None) -> SystemSpec:
    """Build a SystemSpec from the defaults table plus overrides.

    Override keys may name either a reaction/init parameter or one of
    the scalar fields (horizon, dt, resolution, grf_*, fine_factor), and
    values must be finite numbers (not bools), ints for resolution and
    fine_factor; an override of ``resolution`` wins over the argument.
    """
    if not isinstance(name, str) or name not in _DEFAULTS:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    base = _DEFAULTS[name]
    params = dict(base["params"])
    scalars = {k: base[k] for k in _SCALAR_FIELDS if k in base}
    table = {**dict.fromkeys(params, ("number", None)), **_SCALAR_FIELDS}
    given = ({} if resolution is None else {"resolution": resolution}) | dict(overrides or {})
    dataio.check_fields(given, table, f"{name}.", closed=True)
    for key, value in given.items():
        (scalars if key in _SCALAR_FIELDS else params)[key] = (
            value if table[key][0] == "int" else float(value))
    # constructed last so __post_init__ validates the overridden values too
    return SystemSpec(system=name, params=params, **scalars)


def _nonlinearity(spec: SystemSpec, n: int):
    """Reaction terms (everything except diffusion) on the field-major [M, B, *grid].

    Each call writes its fields into one new array through contiguous
    per-field views.  Every product and sum keeps the operand order of the
    expression beside it, so the bits are those of the expressions.
    """
    p = spec.params
    if spec.system == "lv":
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]

        def f(u):       # a x - b x y,  c x y - d y
            x, y = u
            out = np.empty_like(u)
            bxy = b * x
            bxy *= y
            np.multiply(a, x, out=out[0])
            out[0] -= bxy
            np.multiply(c, x, out=out[1])
            out[1] *= y
            out[1] -= np.multiply(d, y, out=bxy)
            return out
    elif spec.system == "bz":

        def f(u):       # x + y - x y - x x,  w - y - x y,  x - w
            x, y, w = u
            out = np.empty_like(u)
            xy = x * y
            np.multiply(x, x, out=out[2])
            np.add(x, y, out=out[0])
            out[0] -= xy
            out[0] -= out[2]
            np.subtract(w, y, out=out[1])
            out[1] -= xy
            np.subtract(x, w, out=out[2])
            return out
    elif spec.system == "gs":
        fr, kr = p["f"], p["k"]

        def f(u):       # -x y y + f (1 - x),  x y y - (f + k) y
            x, y = u
            out = np.empty_like(u)
            xyy = x * y
            xyy *= y
            np.subtract(1.0, x, out=out[0])
            out[0] *= fr
            np.add(np.negative(xyy, out=out[1]), out[0], out=out[0])
            np.multiply(fr + kr, y, out=out[1])
            np.subtract(xyy, out[1], out=out[1])
            return out
    else:  # burgers: -u u_x with the derivative taken spectrally
        ik = (2j * np.pi / spec.domain_size) * K.split_freqs(n).astype(np.float64)

        def f(u):
            x = u[0]
            ux = K.irfft_split(K.rfft_split(x, (-1,)) * ik, n, (-1,))
            out = np.empty_like(u)
            np.multiply(np.negative(x, out=out[0]), ux, out=out[0])
            return out
    return f


def _linear_symbol(spec: SystemSpec, n: int) -> np.ndarray:
    """Diffusion eigenvalues -D_m |2 pi k / L|^2 on the rfft_split grid, [M, *kshape]."""
    diff = np.asarray(list(spec.diffusivities().values()), dtype=np.float64)
    w = 2.0 * np.pi / spec.domain_size
    if spec.dim == 1:
        k = K.split_freqs(n).astype(np.float64)
        lap = -((w * k) ** 2)
        return diff[:, None] * lap
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    k2 = K.split_freqs(n).astype(np.float64)
    lap = -((w * k1[:, None]) ** 2 + (w * k2[None, :]) ** 2)
    return diff[:, None, None] * lap


def etdrk4_solve(spec: SystemSpec, u0: np.ndarray, dt: float | None = None,
                 zero_nonlinearity: bool = False) -> np.ndarray:
    """Integrate to the horizon and return the final state, shaped like ``u0``.

    ``u0`` is [M, *grid] or [B, M, *grid]; the grid fixes the solve
    resolution (power of two).  ``dt`` overrides the spec's step, which is
    then shortened to divide the horizon evenly; its step count is checked
    as the spec's is, before any coefficient is built.  ``zero_nonlinearity``
    switches the reaction terms off (test hook).

    The solve is field-major: one copy makes the state [M, B, *grid], its
    spectra are [M, B, *kshape], and one copy turns the result back.  Every
    transform sees the state as [M B, *grid], one (field, sample) plane per
    first-axis slice, so by ``compol.fft``'s first-axis contract a sample's
    bits do not depend on the batch it is solved in.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    batched = u0.ndim == spec.dim + 2
    if not batched and u0.ndim != spec.dim + 1:
        raise ValueError(f"u0 must be [M, *grid] or [B, M, *grid], got {u0.shape}")
    u = u0 if batched else u0[None]
    if u.shape[1] != spec.processes:
        raise ValueError(f"expected {spec.processes} processes, got {u.shape[1]}")
    n = u.shape[-1]
    K._check_pow2(n, "grid resolution")

    n_steps = _step_count(spec.horizon, spec.dt if dt is None else float(dt))
    h = spec.horizon / n_steps

    axes = tuple(range(-spec.dim, 0))
    # a diffusion symbol too large for float64 gives non-finite coefficients,
    # which would blow up at step 1: refuse the spec once, without warnings
    with np.errstate(all="ignore"):
        hL = h * _linear_symbol(spec, n)[:, None]
        e_full, p1f, p2f, p3f = phi_coefficients(hL)
        e_half, p1h, _, _ = phi_coefficients(0.5 * hL)
        q = 0.5 * h * p1h
        f1 = h * (p1f - 3.0 * p2f + 4.0 * p3f)
        f2 = h * (p2f - 2.0 * p3f)
        f3 = h * (4.0 * p3f - p2f)
    if not all(np.isfinite(c).all() for c in (e_full, e_half, q, f1, f2, f3)):
        raise ValueError(
            f"{spec.system}: ETDRK4 coefficients are not finite at dt {h:.6g} "
            f"(diffusivities {spec.diffusivities()}, domain_size {spec.domain_size:.6g})")

    react = None if zero_nonlinearity else _nonlinearity(spec, n)
    fields = (spec.processes, u.shape[0])

    # The transforms take [M, B, ...] as the free view [M B, ...]: one plane
    # per first-axis slice.  The spectra stay in rfft_split's slot order,
    # which the coefficients share.
    def spectrum(x):
        vh = K.rfft_split(x.reshape(-1, *x.shape[2:]), axes)
        return vh.reshape(*fields, *vh.shape[1:])

    def state(vh):
        x = K.irfft_split(vh.reshape(-1, *vh.shape[2:]), n, axes)
        return x.reshape(*fields, *x.shape[1:])

    def nl(vh):
        if react is None:
            return np.zeros_like(vh)
        return spectrum(react(state(vh)))

    # A step is a = e_half v + q nv, b = e_half v + q na, c = e_half a + q (2 nb - nv)
    # and v = e_full v + f1 nv + 2 f2 (na + nb) + f3 nc, summed left to right; in
    # place, each sum adds the same two terms and each product keeps its operand
    # order, so the bits are those of the expressions.  Every step checks its
    # state, so an overflow is reported once, as a BlowUpError.
    f2x2 = 2.0 * f2
    with np.errstate(over="ignore", invalid="ignore"):
        v = spectrum(np.ascontiguousarray(u.swapaxes(0, 1)))
        for step in range(1, n_steps + 1):
            nv = nl(v)
            ev = e_half * v
            a = q * nv
            a += ev
            na = nl(a)
            b = q * na
            b += ev
            nb = nl(b)
            c = 2.0 * nb
            c -= nv
            np.multiply(q, c, out=c)
            c += np.multiply(e_half, a, out=ev)
            nc = nl(c)
            np.multiply(e_full, v, out=v)
            v += np.multiply(f1, nv, out=nv)
            na += nb
            v += np.multiply(f2x2, na, out=na)
            v += np.multiply(f3, nc, out=nc)
            ok = np.isfinite(v).all(axis=(0, *range(2, v.ndim)))
            if not ok.all():
                bad = [int(i) for i in np.flatnonzero(~ok)]
                raise BlowUpError(
                    f"non-finite state at step {step} of {n_steps} "
                    f"(t={step * h:.6g}) for sample(s) {bad}", step, bad)
    out = np.ascontiguousarray(state(v).swapaxes(0, 1))
    return out if batched else out[0]


def spectral_subsample(u: np.ndarray, target: int) -> np.ndarray:
    """Band-limit the last axis to ``target`` points (1-D fields only).

    Equals pointwise decimation for fields already band-limited to the
    target Nyquist frequency.
    """
    n = u.shape[-1]
    K._check_pow2(target, "target resolution")
    if target > n or n % target:
        raise ValueError(f"target {target} must divide the source extent {n}")
    if target == n:
        return np.asarray(u, dtype=np.float64).copy()
    vh = K.rfft(np.asarray(u, dtype=np.float64), (-1,))
    vc = vh[..., : target // 2 + 1] * (target / n)
    return K.irfft(np.ascontiguousarray(vc), (-1,), n=target)


# ---------------------------------------------------------------------------
# dataset assembly


def initial_conditions(spec: SystemSpec, rng: np.random.Generator,
                       n: int) -> np.ndarray:
    """Draw one sample's initial fields [M, *grid] at resolution ``n``."""
    g = GrfSpec(spec.dim, n, spec.grf_length_scale, spec.grf_sigma)
    if spec.system == "lv":
        raw = sample_grf(g, rng, 2)
        return np.maximum(raw + spec.params["init_shift"], 0.0)
    if spec.system == "bz":
        # Concentrations: the positive orthant is forward-invariant for the
        # reaction (u'=v>=0 at u=0, etc.) but negative wells of u feed the
        # -u^2 term and diverge in finite time, so clamp the draw at zero.
        return np.maximum(sample_grf(g, rng, 3), 0.0)
    if spec.system == "gs":
        pos = np.maximum(sample_grf(g, rng, 1)[0], 0.0)
        s = spec.params["init_scale"]
        return np.stack([1.0 - s * pos, s * pos])
    return sample_grf(g, rng, 1)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _generate_chunk(spec_dict: dict, seed: int, start: int,
                    stop: int) -> "tuple[np.ndarray, np.ndarray]":
    """Solve samples [start, stop); returns float32 (inputs, outputs).

    Both are [b, M, *grid] at the stored resolution.  Each sample's
    randomness comes only from (seed, index), so any chunking or worker
    schedule reproduces identical bits.
    """
    spec = SystemSpec.from_dict(spec_dict)
    fine = spec.solve_resolution
    ics = np.stack([initial_conditions(spec, _sample_rng(seed, i), fine)
                    for i in range(start, stop)])
    try:
        finals = etdrk4_solve(spec, ics)
    except BlowUpError as e:
        raise BlowUpError(
            f"sample(s) {[start + j for j in e.samples]}: {e}", e.step,
            [start + j for j in e.samples]) from e
    if spec.dim == 1 and fine != spec.resolution:
        ics = spectral_subsample(ics, spec.resolution)
        finals = spectral_subsample(finals, spec.resolution)
    return ics.astype(np.float32), finals.astype(np.float32)


_POOL_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _leave_signals_to_parent() -> None:
    """Pool worker set-up: glibc's thresholds, then Ctrl-C ignored and SIGTERM's default.

    The parent handles the interrupt and shuts the pool down; a forked
    worker would otherwise inherit the parent's SIGTERM handler.  The
    worker starts with both signals blocked (see :func:`generate_dataset`)
    and unblocks them only once its own handlers are in place.  Its solves
    reuse the blocks each step frees (:func:`compol.dataio._keep_freed_blocks`).
    """
    dataio._keep_freed_blocks()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _POOL_SIGNALS)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def env_workers() -> "int | None":
    """``COMPOL_THREADS`` as a worker count, or None when it is unset or empty.

    The count is at least 1 and at most the number of CPUs this process
    may run on.  A value that is not an integer raises ``ValueError``.
    """
    env = os.environ.get("COMPOL_THREADS")
    if not env:
        return None
    try:
        count = int(env)
    except ValueError:
        raise ValueError(f"COMPOL_THREADS must be an integer, got {env!r}") from None
    return max(1, min(count, _usable_cpus()))


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    return env_workers() or _usable_cpus()


# Elements of one solve's state, samples x M x grid points at the solve
# resolution.  Each ETDRK4 step makes about 170 calls into C whatever the
# batch, so a solve of several chunks shares that cost: a chunk call of lv at
# c07's recipe (256 points, 200 steps) takes about 10 ms per sample solved 8
# at a time and 7 ms at 48 (1 BLAS thread, 2-CPU VM), with the same bits.  A
# bz chunk of 8 at 1,024 points (about 110 ms per sample) already holds 24,576
# elements, where the calls are a small share, so 2**15 leaves bz and gs at
# one chunk a call.
SOLVE_BUDGET = 2 ** 15


def _solve_groups(spec: SystemSpec, n_samples: int, chunk_size: int,
                  workers: int) -> "list[tuple[int, int]]":
    """Sample ranges [start, stop) of the ``_generate_chunk`` calls.

    Each range is a run of whole chunks of ``chunk_size`` samples, as many
    as keep the solve within ``SOLVE_BUDGET`` elements (one chunk when a
    single chunk exceeds it).  The chunks are split evenly into a number of
    ranges rounded up to a multiple of ``workers``, so that every worker
    gets as many solves, unless that would need more ranges than chunks.
    """
    chunks = -(-n_samples // chunk_size)
    per_chunk = chunk_size * spec.processes * spec.solve_resolution ** spec.dim
    groups = -(-chunks // max(1, SOLVE_BUDGET // per_chunk))
    groups = min(chunks, -(-groups // workers) * workers)
    edges = [g * chunks // groups * chunk_size for g in range(groups)] + [n_samples]
    return list(zip(edges[:-1], edges[1:]))


def generate_dataset(spec: SystemSpec, n_samples: int, seed: int, out_dir: str,
                     chunk_size: int = 8, workers: int | None = None) -> dict:
    """Generate, solve, and write a dataset; returns the manifest.

    Samples are grouped in chunks of ``chunk_size`` regardless of worker
    count, and each ``_generate_chunk`` call solves a run of whole chunks
    sized by ``_solve_groups`` to ``SOLVE_BUDGET`` (2**15 elements: small
    lv and burgers chunks share a call, a bz or gs chunk fills one alone).
    Every sample is seeded by (seed, index) alone and every solver operation
    acts per sample, so serial and parallel runs, and any grouping, write
    bit-identical files.
    A blow-up in a solve of several chunks is reported as its first chunk
    alone would report it.  A count whose stored arrays would not fit in
    physical memory raises ``MemoryError`` before any work.  On an error or
    interrupt the solves not yet started are cancelled and the pool's
    workers are joined before the exception leaves.  Each pool worker, or
    this process on the serial path, first sets glibc's malloc thresholds
    (:func:`compol.dataio._keep_freed_blocks`), which stay set after it returns.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    # float32 inputs and outputs, one field per process each
    stored = 2 * 4 * n_samples * spec.processes * spec.resolution ** spec.dim
    dataio.require_memory(stored, f"{n_samples} samples")
    spec_dict = spec.to_dict()
    workers_n = _resolve_workers(workers)
    bounds = _solve_groups(spec, n_samples, chunk_size, workers_n)
    workers_n = min(workers_n, max(1, len(bounds)))
    parts = []
    try:
        if workers_n > 1 and len(bounds) > 1:
            pool = ProcessPoolExecutor(max_workers=workers_n,
                                       initializer=_leave_signals_to_parent)
            try:
                # The workers and the pool's management thread start while SIGINT and
                # SIGTERM are blocked, so none of them runs the parent's handlers; a
                # signal sent meanwhile reaches the parent once its mask is restored.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, _POOL_SIGNALS)
                try:
                    results = pool.map(_generate_chunk, [spec_dict] * len(bounds),
                                       [seed] * len(bounds),
                                       [b[0] for b in bounds], [b[1] for b in bounds])
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                for part in results:
                    parts.append(part)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        else:
            dataio._keep_freed_blocks()
            for a, b in bounds:
                parts.append(_generate_chunk(spec_dict, seed, a, b))
    except BlowUpError:
        # A solve stops at the first step where any of its samples diverges.
        # Its chunks, solved alone and in order, name the step and samples
        # that chunk-by-chunk generation names: the first to fail raises.
        start, stop = bounds[len(parts)]
        if stop - start > chunk_size:
            for a in range(start, stop, chunk_size):
                _generate_chunk(spec_dict, seed, a, min(a + chunk_size, stop))
        raise

    grid = (spec.resolution,) * spec.dim
    if parts:
        all_in = np.concatenate([p[0] for p in parts])
        all_out = np.concatenate([p[1] for p in parts])
    else:
        all_in = np.zeros((0, spec.processes) + grid, dtype=np.float32)
        all_out = np.zeros_like(all_in)
    # one stored channel per process
    inputs = [all_in[:, m:m + 1] for m in range(spec.processes)]
    outputs = [all_out[:, m:m + 1] for m in range(spec.processes)]

    meta = {
        "system": spec_dict,
        "seed": int(seed),
        "chunk_size": int(chunk_size),
        "channel_names": [[c] for c in spec.channel_names],
    }
    return dataio.write_dataset(out_dir, inputs, outputs, meta)
