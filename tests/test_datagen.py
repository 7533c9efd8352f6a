"""Random fields, exponential-integrator solver, and dataset generation.

The solver has three independent oracles: with the reaction switched off
it must reproduce the exact spectral heat decay; with spatially constant
fields the PDE collapses to a small ODE system checked against a plain
RK4 integrator written here; and with everything on, Richardson
extrapolation over halved steps must show fourth-order convergence.
"""

import ctypes
import multiprocessing
import os
import pickle
import signal
import time
import types
import warnings

import numpy as np
import pytest

from compol import dataio as D
from compol import datagen as G


# ---------------------------------------------------------------------------
# phi functions


def test_phi_values_at_zero():
    p0, p1, p2, p3 = G.phi_coefficients(np.array([0.0]))
    assert p0[0] == 1.0
    assert abs(p1[0] - 1.0) < 1e-13
    assert abs(p2[0] - 0.5) < 1e-13
    assert abs(p3[0] - 1.0 / 6.0) < 1e-13


def test_phi_matches_direct_formula_away_from_zero():
    z = np.array([2.0 + 1.0j, -3.0, 0.5j, 4.0])
    p0, p1, p2, p3 = G.phi_coefficients(z)
    ez = np.exp(z)
    np.testing.assert_allclose(p0, ez, rtol=1e-13)
    np.testing.assert_allclose(p1, (ez - 1) / z, rtol=5e-13)
    np.testing.assert_allclose(p2, (ez - 1 - z) / z**2, rtol=5e-12)
    np.testing.assert_allclose(p3, (ez - 1 - z - z**2 / 2) / z**3, rtol=5e-11)


def test_phi_stable_for_strong_decay():
    # stiff diffusion limit: phi_1(-200) ~ 1/200, no cancellation blowup
    _, p1, p2, _ = G.phi_coefficients(np.array([-200.0]))
    assert abs(p1[0] - (np.exp(-200.0) - 1) / (-200.0)) < 1e-14
    assert 0 < p2[0] < p1[0] < 1


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_phi_chunks_keep_the_one_shot_bits(kind):
    """Over several chunks and a remainder, the phi values have the bits of
    the ring broadcast over every entry of z at once."""
    rng = np.random.default_rng(17)
    z = -np.abs(rng.normal(size=(3, G._PHI_CHUNK - 5))) * 50
    if kind == "complex":
        z = z + 30j * rng.normal(size=z.shape)
    ring = np.exp(1j * 2.0 * np.pi * (np.arange(32) + 0.5) / 32)
    zz = z[..., None].astype(np.complex128) + ring
    ez = np.exp(zz)
    want = (np.exp(z), ((ez - 1.0) / zz).mean(-1), ((ez - 1.0 - zz) / zz ** 2).mean(-1),
            ((ez - 1.0 - zz - 0.5 * zz ** 2) / zz ** 3).mean(-1))
    if kind == "real":
        want = tuple(w.real for w in want)
    for got, w in zip(G.phi_coefficients(z), want):
        assert got.dtype == w.dtype and np.array_equal(got, w)


# ---------------------------------------------------------------------------
# random fields


def test_grf_moments_match_kernel():
    spec = G.GrfSpec(dim=1, resolution=64, length_scale=0.1)
    u = G.sample_grf(spec, np.random.default_rng(123), count=4096)
    assert u.shape == (4096, 64)
    assert abs(u.mean()) < 0.05
    # covariance at lag j is exp(-d^2 / (2 l^2)), d = wrapped distance
    for lag in (0, 1, 5, 32):
        d = min(lag, 64 - lag) / 64
        want = np.exp(-(d**2) / (2 * 0.1**2))
        got = (u[:, 0] * u[:, lag]).mean()
        assert abs(got - want) < 0.05, (lag, got, want)


def test_grf_amplitude_scaling_and_zero():
    spec = G.GrfSpec(dim=1, resolution=32, length_scale=0.2, amplitude=2.0)
    u = G.sample_grf(spec, np.random.default_rng(9), count=2048)
    assert abs((u**2).mean() - 4.0) < 0.3
    silent = G.GrfSpec(dim=1, resolution=32, length_scale=0.2, amplitude=0.0)
    assert np.all(G.sample_grf(silent, np.random.default_rng(9), count=3) == 0.0)


def test_grf_2d_shape_and_variance():
    spec = G.GrfSpec(dim=2, resolution=32, length_scale=0.15)
    u = G.sample_grf(spec, np.random.default_rng(4), count=64)
    assert u.shape == (64, 32, 32)
    assert abs((u**2).mean() - 1.0) < 0.1


def test_grf_deterministic():
    spec = G.GrfSpec(dim=1, resolution=32, length_scale=0.1)
    assert np.array_equal(G.sample_grf(spec, np.random.default_rng(7), 2),
                          G.sample_grf(spec, np.random.default_rng(7), 2))


def test_grf_spec_validation():
    with pytest.raises(ValueError):
        G.GrfSpec(dim=3, resolution=32, length_scale=0.1)
    with pytest.raises(ValueError):
        G.GrfSpec(dim=1, resolution=33, length_scale=0.1)
    with pytest.raises(ValueError):
        G.GrfSpec(dim=1, resolution=32, length_scale=0.0)


# ---------------------------------------------------------------------------
# solver oracles


def test_pure_diffusion_matches_exact_decay_1d():
    spec = G.system_spec("lv", resolution=64,
                         overrides={"fine_factor": 1, "horizon": 0.3, "dt": 0.01})
    u0 = G.initial_conditions(spec, np.random.default_rng(5), 64)
    out = G.etdrk4_solve(spec, u0, zero_nonlinearity=True)
    k = np.arange(33)
    for m, dname in enumerate(("du", "dv")):
        decay = np.exp(-spec.params[dname] * (2 * np.pi * k) ** 2 * spec.horizon)
        exact = np.fft.irfft(np.fft.rfft(u0[m]) * decay, 64)
        err = np.linalg.norm(out[m] - exact) / np.linalg.norm(exact)
        assert err < 1e-12, (dname, err)


def test_pure_diffusion_matches_exact_decay_2d():
    spec = G.system_spec("gs", resolution=32, overrides={"horizon": 2.0, "dt": 0.05})
    u0 = G.initial_conditions(spec, np.random.default_rng(6), 32)
    out = G.etdrk4_solve(spec, u0, zero_nonlinearity=True)
    k1 = np.fft.fftfreq(32, d=1 / 32)
    k2 = np.arange(17)
    lap = (2 * np.pi / spec.domain_size) ** 2 * (k1[:, None] ** 2 + k2[None, :] ** 2)
    for m, dname in enumerate(("du", "dv")):
        exact = np.fft.irfft2(np.fft.rfft2(u0[m])
                              * np.exp(-spec.params[dname] * lap * spec.horizon),
                              s=(32, 32))
        err = np.linalg.norm(out[m] - exact) / np.linalg.norm(exact)
        assert err < 1e-12, (dname, err)


def _rk4_ode(rhs, state, horizon, steps):
    h = horizon / steps
    s = np.asarray(state, dtype=np.float64)
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs(s + h / 2 * k1)
        k3 = rhs(s + h / 2 * k2)
        k4 = rhs(s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def test_constant_fields_follow_the_reaction_ode():
    # spatially uniform states feel no diffusion, so each system reduces
    # to its reaction ODE; integrate that independently and compare.
    spec = G.system_spec("lv", resolution=32,
                         overrides={"fine_factor": 1, "horizon": 2.0, "dt": 0.01})
    p = spec.params
    u0 = np.stack([np.full((32,), 1.3), np.full((32,), 0.7)])
    out = G.etdrk4_solve(spec, u0)
    assert np.ptp(out, axis=-1).max() == 0.0  # stays uniform

    def rhs(s):
        x, y = s
        return np.array([p["a"] * x - p["b"] * x * y,
                         p["c"] * x * y - p["d"] * y])

    want = _rk4_ode(rhs, [1.3, 0.7], 2.0, 20000)
    assert np.abs(out[:, 0] - want).max() < 1e-10


def test_constant_fields_follow_the_reaction_ode_bz():
    spec = G.system_spec("bz", resolution=32,
                         overrides={"fine_factor": 1, "horizon": 0.5, "dt": 0.002})
    u0 = np.stack([np.full((32,), v) for v in (0.3, 0.4, 0.2)])
    out = G.etdrk4_solve(spec, u0)

    def rhs(s):
        x, y, w = s
        return np.array([x + y - x * y - x * x, w - y - x * y, x - w])

    want = _rk4_ode(rhs, [0.3, 0.4, 0.2], 0.5, 5000)
    assert np.abs(out[:, 0] - want).max() < 1e-10


def _richardson_order(spec, u0, dt0):
    sols = [G.etdrk4_solve(spec, u0, dt=dt0 / f) for f in (1, 2, 4)]
    e1 = np.linalg.norm(sols[0] - sols[1])
    e2 = np.linalg.norm(sols[1] - sols[2])
    return np.log2(e1 / e2)


@pytest.mark.parametrize("name,overrides,n,dt0", [
    ("lv", {"fine_factor": 1, "horizon": 2.0}, 64, 0.1),
    ("bz", {"fine_factor": 1, "horizon": 0.5}, 64, 0.005),
    ("gs", {"horizon": 0.4}, 32, 0.1),
    ("burgers", {"fine_factor": 1, "horizon": 0.25}, 64, 1e-3),
])
def test_time_stepping_is_fourth_order(name, overrides, n, dt0):
    spec = G.system_spec(name, resolution=n, overrides=overrides)
    u0 = G.initial_conditions(spec, np.random.default_rng(SEEDS[name]), n)
    order = _richardson_order(spec, u0, dt0)
    assert order > 3.5, order


SEEDS = {"lv": 1, "bz": 2, "gs": 3, "burgers": 4}


# one per system, at the solve grid: gs at 64 x 64; lv at 32 points, where every
# transform is one matmul by a DFT matrix (compol.fft.BLOCK); bz and burgers at
# 1,024, the real four-step split
BATCH_SPECS = {
    "gs": ("gs", 64, {"horizon": 0.2, "dt": 0.02}),
    "lv": ("lv", 32, {"fine_factor": 1, "horizon": 0.2, "dt": 0.02}),
    "bz": ("bz", 256, {"horizon": 0.01, "dt": 1e-3}),
    "burgers": ("burgers", 256, {"horizon": 0.005}),
}


@pytest.mark.parametrize("system", sorted(BATCH_SPECS))
def test_batched_solve_matches_per_sample(system):
    """A sample's final state has the same bits solved alone, in a batch of
    three and in a slice of two."""
    name, resolution, overrides = BATCH_SPECS[system]
    spec = G.system_spec(name, resolution=resolution, overrides=overrides)
    n = spec.solve_resolution
    ics = np.stack([G.initial_conditions(spec, np.random.default_rng(i), n)
                    for i in range(3)])
    batch = G.etdrk4_solve(spec, ics)
    assert batch.shape == ics.shape and batch.flags.c_contiguous
    for i in range(3):
        assert np.array_equal(batch[i], G.etdrk4_solve(spec, ics[i]))
    assert np.array_equal(batch[1:], G.etdrk4_solve(spec, ics[1:]))


def _plain_reaction(spec, u):
    """The reaction terms as plain expressions on the sample-major [B, M, *grid]."""
    p = spec.params
    if spec.system == "lv":
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        x, y = u[:, 0], u[:, 1]
        return np.stack([a * x - b * x * y, c * x * y - d * y], axis=1)
    if spec.system == "bz":
        x, y, w = u[:, 0], u[:, 1], u[:, 2]
        return np.stack([x + y - x * y - x * x, w - y - x * y, x - w], axis=1)
    if spec.system == "gs":
        fr, kr = p["f"], p["k"]
        x, y = u[:, 0], u[:, 1]
        xyy = x * y * y
        return np.stack([-xyy + fr * (1.0 - x), xyy - (fr + kr) * y], axis=1)
    n = u.shape[-1]
    ik = (2j * np.pi / spec.domain_size) * G.K.split_freqs(n).astype(np.float64)
    x = u[:, 0]
    ux = G.K.irfft_split(G.K.rfft_split(x, (-1,)) * ik, n, (-1,))
    return (-x * ux)[:, None]


@pytest.mark.parametrize("name", G.SYSTEM_NAMES)
def test_reactions_match_their_plain_expressions(name):
    """Each reaction, on a field-major state [M, B, *grid] with negative
    entries, has the bits of its plain expressions, in a new array, and
    leaves its input's bytes as they were.  lv's rates are not 1, so a
    change of operand order would show; gs is 2-D."""
    overrides = {"a": 0.7, "b": 1.3, "c": 0.9, "d": 1.1} if name == "lv" else {}
    spec = G.system_spec(name, overrides=overrides)
    grid = (16, 16) if spec.dim == 2 else (256,)
    u = np.random.default_rng(5).normal(size=(spec.processes, 3) + grid)
    before = u.tobytes()
    got = G._nonlinearity(spec, grid[-1])(u)
    want = np.moveaxis(_plain_reaction(spec, np.moveaxis(u, 0, 1)), 0, 1)
    assert got.shape == u.shape and not np.shares_memory(got, u)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert u.tobytes() == before


def test_solver_input_validation():
    spec = G.system_spec("lv", resolution=32)
    with pytest.raises(ValueError):
        G.etdrk4_solve(spec, np.zeros((32,)))  # missing process axis
    with pytest.raises(ValueError):
        G.etdrk4_solve(spec, np.zeros((3, 32)))  # lv has 2 processes


@pytest.mark.parametrize("dt, message", [
    (1e-12, "horizon / dt is 2e+13 ETDRK4 steps, more than MAX_STEPS"),
    (1e-320, "horizon / dt must be a finite step count"),
], ids=["2e13-steps", "past-float-range"])
def test_solver_dt_past_max_steps_is_refused(dt, message, monkeypatch):
    """A ``dt`` argument gets the spec's step-count check: 2x10^13 steps, or
    a count past float range, is refused at once, before any coefficient is
    built, with the ValueError the spec gives for the same horizon and dt."""
    def never(*args, **kwargs):
        raise AssertionError("coefficients built")

    spec = G.system_spec("lv", resolution=32)
    monkeypatch.setattr(G, "phi_coefficients", never)
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as solve:
        G.etdrk4_solve(spec, np.zeros((2, 32)), dt=dt)
    assert time.perf_counter() - t0 < 5
    assert str(solve.value).startswith(message), solve.value
    with pytest.raises(ValueError) as from_spec:
        G.system_spec("lv", resolution=32, overrides={"dt": dt})
    assert str(from_spec.value) == str(solve.value)


def test_unstable_reaction_raises_blow_up():
    # flipping the predation sign makes both populations feed each other,
    # which diverges in finite time
    spec = G.system_spec("lv", resolution=32,
                         overrides={"b": -1.0, "horizon": 5.0, "dt": 0.01,
                                    "fine_factor": 1})
    u0 = G.initial_conditions(spec, np.random.default_rng(0), 32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(G.BlowUpError) as info:
            G.etdrk4_solve(spec, u0)
    assert info.value.step > 0
    assert info.value.samples == [0]


def blow_up_spec():
    """lv with the predation sign flipped, 200 steps: of seed 0's samples 0-5
    only 2, 4 and 5 diverge in time (at steps 180, 155 and 175).  Sample 4
    diverges first, but in chunk order sample 2, at step 180, is named."""
    return G.system_spec("lv", resolution=16, overrides={"b": -1.0, "horizon": 2.0,
                                                         "dt": 0.01, "fine_factor": 1})


def test_blow_up_names_the_first_sample_to_diverge():
    """Solved as one batch, blow_up_spec's six samples stop at sample 4's
    step: the check reduces each sample over its fields and grid."""
    spec = blow_up_spec()
    ics = np.stack([G.initial_conditions(spec, G._sample_rng(0, i), 16) for i in range(6)])
    with pytest.raises(G.BlowUpError) as info:
        G.etdrk4_solve(spec, ics)
    assert (info.value.step, info.value.samples) == (155, [4])


def test_blow_up_error_pickles():
    err = G.BlowUpError("sample(s) [9]: non-finite state", 7, [9])
    back = pickle.loads(pickle.dumps(err))
    assert (type(back), str(back), back.step, back.samples) == (G.BlowUpError, str(err), 7, [9])


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_dataset_blow_up_names_global_samples(tmp_path, workers):
    """The chunk of samples 2 and 3 fails, in this process or in a worker.
    ``workers`` is passed explicitly: the COMPOL_THREADS cap would keep a
    1-CPU runner serial.  The overflow is reported once, as the error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(G.BlowUpError) as info:
            G.generate_dataset(blow_up_spec(), 6, seed=0, out_dir=tmp_path / "out",
                               chunk_size=2, workers=workers)
    assert (info.value.step, info.value.samples) == (180, [2])
    assert str(info.value).startswith("sample(s) [2]: non-finite state at step 180 of 200")
    assert not (tmp_path / "out").exists()


def test_lv_solutions_stay_positive():
    spec = G.system_spec("lv", resolution=64,
                         overrides={"fine_factor": 1, "horizon": 5.0})
    ics = np.stack([G.initial_conditions(spec, np.random.default_rng(i), 64)
                    for i in range(4)])
    outs = G.etdrk4_solve(spec, ics)
    assert ics.min() >= 0.0
    assert outs.min() > 0.0


def test_gs_forms_patterns_only_on_the_large_domain():
    # with unit spacing the reaction sustains spatial structure; on the
    # unit domain the same diffusivities flatten everything
    spec = G.system_spec("gs", resolution=32)
    u0 = G.initial_conditions(spec, np.random.default_rng(7), 32)
    out = G.etdrk4_solve(spec, u0)
    unit = G.system_spec("gs", resolution=32, overrides={"domain_size": 1.0})
    flat = G.etdrk4_solve(unit, u0)
    assert out[0].std() > 0.1
    assert out[1].max() > 0.1
    assert flat[0].std() < 1e-8
    assert out[0].std() > 10 * max(flat[0].std(), 1e-8)


# ---------------------------------------------------------------------------
# resolution handling


def test_spectral_subsample_equals_decimation_when_band_limited():
    rng = np.random.default_rng(11)
    coef = np.zeros(65, dtype=np.complex128)
    coef[:16] = rng.normal(size=16) + 1j * rng.normal(size=16)
    coef[0] = coef[0].real
    u = np.fft.irfft(coef, 128)
    down = G.spectral_subsample(u, 32)
    assert np.abs(down - u[::4]).max() < 1e-12


def test_spectral_subsample_preserves_mean_and_identity():
    rng = np.random.default_rng(12)
    u = rng.normal(size=(3, 64))
    down = G.spectral_subsample(u, 16)
    assert down.shape == (3, 16)
    np.testing.assert_allclose(down.mean(-1), u.mean(-1), atol=1e-12)
    same = G.spectral_subsample(u, 64)
    assert np.array_equal(same, u)
    assert same is not u


def test_spectral_subsample_validation():
    u = np.zeros((2, 64))
    with pytest.raises(ValueError):
        G.spectral_subsample(u, 128)  # upsampling not supported
    with pytest.raises(ValueError):
        G.spectral_subsample(u, 24)  # not a power of two


def test_fine_grid_protocol_stays_finite():
    # the stiff oscillator is solved on a 4x finer mesh, then band-limited
    spec = G.system_spec("bz", resolution=64)
    assert spec.solve_resolution == 256
    u0 = G.initial_conditions(spec, np.random.default_rng(13), 256)
    out = G.etdrk4_solve(spec, u0)
    down = G.spectral_subsample(out, 64)
    assert down.shape == (3, 64)
    assert np.all(np.isfinite(down))


def numpy_rfft_split(a, axes):
    """``rfft_split`` on ``numpy.fft``: the full FFT at each slot's frequency."""
    n = a.shape[axes[-1]]
    return np.take(np.fft.fftn(a, axes=axes), G.K.split_freqs(n) % n, axis=axes[-1])


def numpy_irfft_split(z, n, axes):
    """``irfft_split`` on ``numpy.fft``: bins 0..n/2 from the non-negative slots
    and the conjugates of the negative ones, then ``numpy.fft.irfft``."""
    if len(axes) > 1:
        z = np.fft.ifftn(z, axes=axes[:-1])
    f = G.K.split_freqs(n)
    z = np.moveaxis(z, axes[-1], -1)
    half = np.empty(z.shape[:-1] + (n // 2 + 1,), complex)
    half[..., -f[f < 0]] = np.conj(z[..., f < 0])
    half[..., f[f >= 0]] = z[..., f >= 0]
    return np.moveaxis(np.fft.irfft(half, n=n, axis=-1), -1, axes[-1])


@pytest.mark.parametrize("name, horizon", [("bz", 0.05), ("burgers", 0.0125), ("lv", 0.5),
                                           ("gs", 1.0)])
def test_nonlinear_solve_matches_numpy_fft(name, horizon, monkeypatch):
    """50 ETDRK4 steps of two samples agree with the same solve on
    ``numpy.fft``: every transform of the solve, in the split's slot order.
    bz and burgers solve at 1,024 points (32 x 32), lv at 256 (16 x 16),
    and gs at 128 x 128 splits its last axis and takes a full DFT on axis -2."""
    n = {"lv": 256, "gs": 128}.get(name, 1024)
    rates = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0} if name == "lv" else {}
    spec = G.system_spec(name, overrides={"horizon": horizon, **rates})
    u0 = np.stack([G.initial_conditions(spec, np.random.default_rng(s), n) for s in (3, 4)])
    got = G.etdrk4_solve(spec, u0)
    monkeypatch.setattr(G.K, "rfft_split", numpy_rfft_split)
    monkeypatch.setattr(G.K, "irfft_split", numpy_irfft_split)
    want = G.etdrk4_solve(spec, u0)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(want - u0)) > 0.1 * scale     # the reaction moved the state
    assert np.max(np.abs(got - want)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# initial conditions and system table


def test_lv_initial_conditions_clamped_shift():
    spec = G.system_spec("lv", resolution=64)
    grf = G.GrfSpec(1, 64, spec.grf_length_scale, spec.grf_sigma)
    raw = G.sample_grf(grf, np.random.default_rng(3), 2)
    ic = G.initial_conditions(spec, np.random.default_rng(3), 64)
    assert np.array_equal(ic, np.maximum(raw + spec.params["init_shift"], 0.0))
    assert ic.min() >= 0.0


def test_bz_initial_conditions_clamped():
    # concentrations start nonnegative; negative wells of u would feed the
    # -u^2 reaction term and blow up in finite time
    spec = G.system_spec("bz", resolution=64)
    grf = G.GrfSpec(1, 64, spec.grf_length_scale, spec.grf_sigma)
    raw = G.sample_grf(grf, np.random.default_rng(5), 3)
    ic = G.initial_conditions(spec, np.random.default_rng(5), 64)
    assert np.array_equal(ic, np.maximum(raw, 0.0))
    assert raw.min() < 0.0 and ic.min() == 0.0


def test_gs_initial_conditions_partition_unity():
    spec = G.system_spec("gs", resolution=32)
    ic = G.initial_conditions(spec, np.random.default_rng(4), 32)
    assert ic.shape == (2, 32, 32)
    np.testing.assert_allclose(ic[0] + ic[1], 1.0, atol=1e-12)
    assert ic[1].min() >= 0.0


def test_initial_condition_shapes():
    for name, m in (("lv", 2), ("bz", 3), ("burgers", 1)):
        spec = G.system_spec(name, resolution=32)
        ic = G.initial_conditions(spec, np.random.default_rng(0), 32)
        assert ic.shape == (m, 32)


def test_system_table():
    assert G.SYSTEM_NAMES == ("lv", "bz", "gs", "burgers")
    lv = G.system_spec("lv")
    assert (lv.processes, lv.dim, lv.channel_names) == (2, 1, ["u", "v"])
    bz = G.system_spec("bz")
    assert (bz.processes, bz.channel_names) == (3, ["u", "v", "w"])
    gs = G.system_spec("gs")
    assert (gs.dim, gs.domain_size, gs.fine_factor) == (2, 64.0, 1)
    assert G.system_spec("burgers").processes == 1


def test_system_spec_overrides():
    spec = G.system_spec("lv", resolution=128,
                         overrides={"a": 0.5, "dt": 0.02, "fine_factor": 2})
    assert spec.resolution == 128
    assert spec.params["a"] == 0.5
    assert spec.params["b"] == 0.01  # untouched
    assert (spec.dt, spec.fine_factor) == (0.02, 2)
    assert spec.solve_resolution == 256


def test_system_spec_rejections():
    with pytest.raises(ValueError):
        G.system_spec("heat")
    with pytest.raises(ValueError):
        G.system_spec("lv", overrides={"gamma": 1.0})
    with pytest.raises(ValueError):
        G.system_spec("lv", overrides={"du": -0.1})
    with pytest.raises(ValueError):
        G.system_spec("lv", resolution=50)
    with pytest.raises(ValueError):
        G.system_spec("lv", overrides={"dt": 0.0})


@pytest.mark.parametrize("field, value", [
    ("grf_sigma", -1.0), ("grf_length_scale", 0.0), ("grf_length_scale", -0.1)])
def test_system_spec_refuses_bad_grf_fields_by_name(field, value):
    """A negative GRF amplitude or a length scale that is not positive is
    refused when the spec is built, under the spec's own field name."""
    with pytest.raises(ValueError, match=field):
        G.system_spec("bz", overrides={field: value})
    assert G.system_spec("bz", overrides={"grf_sigma": 0.0}).grf_sigma == 0.0


def test_system_spec_dict_roundtrip():
    spec = G.system_spec("bz", resolution=64, overrides={"eps1": 0.02})
    back = G.SystemSpec.from_dict(spec.to_dict())
    assert back == spec


# ---------------------------------------------------------------------------
# dataset generation


def quick_lv(**kw):
    overrides = {"fine_factor": 2, "horizon": 1.0, "dt": 0.02}
    overrides.update(kw)
    return G.system_spec("lv", resolution=32, overrides=overrides)


def test_generate_dataset_roundtrip(tmp_path):
    manifest = G.generate_dataset(quick_lv(), 4, seed=21, out_dir=tmp_path)
    assert manifest["counts"] == {"samples": 4, "processes": 2, "channels": [1, 1]}
    assert manifest["channel_names"] == [["u"], ["v"]]
    assert manifest["system"]["system"] == "lv"
    ds = D.load_dataset(tmp_path)
    assert ds.inputs[0].shape == (4, 1, 32)
    assert ds.inputs[0].dtype == np.float32
    for arrs in (ds.inputs, ds.outputs):
        for a in arrs:
            assert np.all(np.isfinite(a))
    # inputs really are the sampled initial conditions, band-limited down
    ic = G.initial_conditions(quick_lv(), G._sample_rng(21, 2), 64)
    want = G.spectral_subsample(ic, 32).astype(np.float32)
    assert np.array_equal(ds.inputs[0][2, 0], want[0])
    assert np.array_equal(ds.inputs[1][2, 0], want[1])


def test_generate_dataset_parallel_matches_serial(tmp_path):
    spec = quick_lv()
    G.generate_dataset(spec, 5, seed=3, out_dir=tmp_path / "serial",
                       chunk_size=2, workers=1)
    G.generate_dataset(spec, 5, seed=3, out_dir=tmp_path / "par",
                       chunk_size=2, workers=3)
    for name in (D.DATA_FILENAME, D.MANIFEST_FILENAME):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "par" / name).read_bytes()
        assert a == b, name


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork" or not hasattr(signal, "alarm"),
                    reason="the pool workers must inherit the patched initializer")
def test_pool_starts_with_sigint_and_sigterm_blocked(tmp_path, monkeypatch):
    """A worker enters its initializer with both signals blocked, so no
    signal reaches it before its own handlers are set, and the parent's
    mask after the call is the one it had before (here with SIGUSR1
    blocked).  Two workers, at most 60 s, and none is left running."""
    real = G._leave_signals_to_parent

    def recording():
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [])
        (tmp_path / f"mask-{os.getpid()}").write_text(
            " ".join(str(int(s)) for s in sorted(blocked)))
        real()

    def too_slow(signum, frame):
        raise AssertionError("generate_dataset did not end within 60 s")

    monkeypatch.setattr(G, "_leave_signals_to_parent", recording)
    children = set(multiprocessing.active_children())
    previous = signal.signal(signal.SIGALRM, too_slow)
    before = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGUSR1})
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
        signal.alarm(60)
        G.generate_dataset(quick_lv(), 4, seed=3, out_dir=tmp_path / "out",
                           chunk_size=2, workers=2)
        after = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    finally:
        signal.alarm(0)
        signal.pthread_sigmask(signal.SIG_SETMASK, before)
        signal.signal(signal.SIGALRM, previous)
        left = set(multiprocessing.active_children()) - children
        for p in left:
            p.kill()
            p.join(10)
    assert after == mask
    masks = [p.read_text().split() for p in sorted(tmp_path.glob("mask-*"))]
    assert len(masks) == 2
    for blocked in masks:
        assert {str(int(signal.SIGINT)), str(int(signal.SIGTERM))} <= set(blocked), blocked
    assert left == set()


def test_solves_run_with_glibc_thresholds_set(tmp_path, monkeypatch):
    """A pool worker's initializer sets glibc's malloc thresholds before it
    unblocks SIGINT and SIGTERM, and the serial path sets them once before
    its first solve.  No signal disposition of this process changes."""
    events = []

    def loader(name):
        def mallopt(param, value):
            events.append(("mallopt", param, value))
            return 1
        return types.SimpleNamespace(mallopt=mallopt)

    fake = types.SimpleNamespace(
        **{k: getattr(signal, k) for k in ("SIGINT", "SIGTERM", "SIG_IGN", "SIG_DFL",
                                           "SIG_UNBLOCK")},
        signal=lambda signum, handler: events.append(("signal", signum, handler)),
        pthread_sigmask=lambda how, mask: events.append(("mask", how, set(mask))))
    thresholds = [("mallopt", -1, 256 << 20), ("mallopt", -3, 32 << 20)]
    monkeypatch.setattr(G, "signal", fake)
    monkeypatch.setattr(ctypes, "CDLL", loader)
    G._leave_signals_to_parent()
    assert events == thresholds + [
        ("signal", signal.SIGINT, signal.SIG_IGN), ("signal", signal.SIGTERM, signal.SIG_DFL),
        ("mask", signal.SIG_UNBLOCK, {signal.SIGINT, signal.SIGTERM})]

    events.clear()
    solve = G._generate_chunk
    monkeypatch.setattr(ctypes, "CDLL", lambda name: loader(name))   # a new loader: not cached
    monkeypatch.setattr(G, "_generate_chunk",
                        lambda *args: events.append(("solve", *args[2:])) or solve(*args))
    G.generate_dataset(quick_lv(), 4, seed=3, out_dir=tmp_path / "out", chunk_size=2,
                       workers=1)
    assert events == thresholds + [("solve", 0, 4)]


def test_env_workers_is_checked_and_capped(monkeypatch):
    """COMPOL_THREADS is read by one checked reader: no pool is started here."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    monkeypatch.setenv("COMPOL_THREADS", "100000")
    assert G.env_workers() == cpus
    assert G._resolve_workers(None) == cpus
    assert G._resolve_workers(5) == 5            # an explicit count stays as given
    monkeypatch.setenv("COMPOL_THREADS", "0")
    assert G.env_workers() == 1
    for bad in ("abc", "2.5"):
        monkeypatch.setenv("COMPOL_THREADS", bad)
        with pytest.raises(ValueError, match="COMPOL_THREADS must be an integer"):
            G.env_workers()
    monkeypatch.setenv("COMPOL_THREADS", "")
    assert G.env_workers() is None
    monkeypatch.delenv("COMPOL_THREADS")
    assert G.env_workers() is None
    assert G._resolve_workers(None) == cpus


# solve grids past compol.fft.BLOCK: lv and bz at 256 points take the real
# four-step split, gs at 128 x 128 that split and a complex one on a leading axis
TINY_SPECS = {
    "lv": ("lv", 64, {"horizon": 0.2, "dt": 0.02}),
    "bz": ("bz", 64, {"horizon": 0.02, "dt": 1e-3}),
    "gs": ("gs", 128, {"horizon": 0.1, "dt": 0.02}),
}


@pytest.mark.parametrize("system", sorted(TINY_SPECS))
def test_generate_dataset_chunking_invariant(tmp_path, monkeypatch, system):
    """A sample's bytes do not depend on how many samples share its solve:
    chunks of one sample, solved one per call, in runs of up to three, and
    all eight in one call."""
    name, resolution, overrides = TINY_SPECS[system]
    spec = G.system_spec(name, resolution=resolution, overrides=overrides)
    per_sample = spec.processes * spec.solve_resolution ** spec.dim
    digests, extents = {}, {}
    for run in (1, 3, 8):
        monkeypatch.setattr(G, "SOLVE_BUDGET", run * per_sample)
        extents[run] = [b - a for a, b in G._solve_groups(spec, 8, 1, 1)]
        digests[run] = G.generate_dataset(spec, 8, seed=3, out_dir=tmp_path / str(run),
                                          chunk_size=1, workers=1)["files"][0]["sha256"]
    assert extents == {1: [1] * 8, 3: [2, 3, 3], 8: [8]}
    assert len(set(digests.values())) == 1, digests


def _check_plan(spec, n, chunk_size, workers):
    groups = G._solve_groups(spec, n, chunk_size, workers)
    chunks = -(-n // chunk_size)
    per_chunk = chunk_size * spec.processes * spec.solve_resolution ** spec.dim
    # every sample once, in order, split only at chunk boundaries
    assert [i for a, b in groups for i in range(a, b)] == list(range(n))
    for a, b in groups:
        assert a % chunk_size == 0 and a < b
        runs = -(-(b - a) // chunk_size)
        assert runs == 1 or runs * per_chunk <= G.SOLVE_BUDGET, (a, b)
    # as many solves per worker, unless the groups are single chunks already
    if chunks >= workers:
        assert len(groups) % workers == 0 or len(groups) == chunks, groups
    else:
        assert len(groups) == chunks
    return groups


@pytest.mark.parametrize("name", G.SYSTEM_NAMES)
def test_solve_groups_cover_every_sample_within_the_budget(name):
    for resolution in (16, 64, 256):
        spec = G.system_spec(name, resolution=resolution)
        for n in (0, 1, 7, 8, 9, 50, 192):
            for chunk_size in (1, 3, 8):
                for workers in (1, 2, 3, 5):
                    _check_plan(spec, n, chunk_size, workers)


def test_solve_groups_at_the_shipped_recipes():
    """The c07 lv recipe solves 4 runs of 48 samples on 2 workers; bz and gs
    at their defaults keep one chunk per call; default lv pairs its chunks
    and burgers takes four."""
    def sizes(spec, n, workers=2):
        return [b - a for a, b in _check_plan(spec, n, 8, workers)]

    c07 = G.system_spec("lv", resolution=64, overrides={"horizon": 2.0})
    assert sizes(c07, 192) == [48] * 4
    assert sizes(G.system_spec("bz"), 16) == [8, 8]
    assert sizes(G.system_spec("bz"), 40, workers=3) == [8] * 5
    assert sizes(G.system_spec("gs"), 64) == [8] * 8
    assert sizes(G.system_spec("lv"), 64) == [16] * 4
    assert sizes(G.system_spec("burgers"), 64, workers=1) == [32, 32]
    assert G._solve_groups(c07, 0, 8, 2) == []


def test_blow_up_in_a_run_of_chunks_is_named_by_its_first_failing_chunk(
        tmp_path, monkeypatch):
    """A run of chunks that blows up is solved again chunk by chunk, in order,
    up to the first chunk that fails; a single chunk is never solved twice."""
    calls = []
    solve = G._generate_chunk

    def counted(spec_dict, seed, start, stop):
        calls.append((start, stop))
        return solve(spec_dict, seed, start, stop)

    monkeypatch.setattr(G, "_generate_chunk", counted)
    for budget, want in ((G.SOLVE_BUDGET, [(0, 6), (0, 2), (2, 4)]),
                         (1, [(0, 2), (2, 4)])):
        monkeypatch.setattr(G, "SOLVE_BUDGET", budget)
        calls.clear()
        with pytest.raises(G.BlowUpError) as info:
            G.generate_dataset(blow_up_spec(), 6, seed=0, out_dir=tmp_path / "out",
                               chunk_size=2, workers=1)
        assert (info.value.step, info.value.samples) == (180, [2])
        assert calls == want


def test_generate_dataset_empty(tmp_path):
    manifest = G.generate_dataset(quick_lv(), 0, seed=1, out_dir=tmp_path)
    assert manifest["counts"]["samples"] == 0
    assert D.load_dataset(tmp_path).n_samples == 0


def test_generate_dataset_rejects_negative_count(tmp_path):
    with pytest.raises(ValueError):
        G.generate_dataset(quick_lv(), -1, seed=1, out_dir=tmp_path)
    for chunk_size in (0, -1):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            G.generate_dataset(quick_lv(), 4, seed=1, out_dir=tmp_path / "out",
                               chunk_size=chunk_size)
    assert not (tmp_path / "out").exists()
