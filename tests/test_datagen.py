"""Random fields, exponential-integrator solver, and dataset generation.

The solver has three independent oracles: with the reaction switched off
it must reproduce the exact spectral heat decay; with spatially constant
fields the PDE collapses to a small ODE system checked against a plain
RK4 integrator written here; and with everything on, Richardson
extrapolation over halved steps must show fourth-order convergence.
"""

import os
import pickle
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


def test_phi_contour_resolution_invariant():
    z = np.linspace(-5, 1, 7)
    a = G.phi_coefficients(z, contour_points=32)
    b = G.phi_coefficients(z, contour_points=64)
    for pa, pb in zip(a, b):
        np.testing.assert_allclose(pa, pb, rtol=1e-12, atol=1e-14)


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


def test_phi_rejects_coarse_contour():
    with pytest.raises(ValueError):
        G.phi_coefficients(np.array([1.0]), contour_points=8)


# ---------------------------------------------------------------------------
# random fields


def test_grf_moments_match_kernel():
    spec = G.GrfSpec(dim=1, resolution=64, length_scale=0.1)
    u = G.sample_grf(spec, seed=123, count=4096)
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
    u = G.sample_grf(spec, seed=9, count=2048)
    assert abs((u**2).mean() - 4.0) < 0.3
    silent = G.GrfSpec(dim=1, resolution=32, length_scale=0.2, amplitude=0.0)
    assert np.all(G.sample_grf(silent, seed=9, count=3) == 0.0)


def test_grf_2d_shape_and_variance():
    spec = G.GrfSpec(dim=2, resolution=32, length_scale=0.15)
    u = G.sample_grf(spec, seed=4, count=64)
    assert u.shape == (64, 32, 32)
    assert abs((u**2).mean() - 1.0) < 0.1


def test_grf_deterministic():
    spec = G.GrfSpec(dim=1, resolution=32, length_scale=0.1)
    assert np.array_equal(G.sample_grf(spec, 7, 2), G.sample_grf(spec, 7, 2))


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


def test_trajectory_recording():
    spec = G.system_spec("lv", resolution=32,
                         overrides={"fine_factor": 1, "horizon": 0.1, "dt": 0.02})
    u0 = G.initial_conditions(spec, np.random.default_rng(8), 32)
    traj = G.etdrk4_solve(spec, u0, record="trajectory")
    assert traj.shape == (6, 2, 32)
    assert np.array_equal(traj[0], u0)
    final = G.etdrk4_solve(spec, u0, record="final")
    assert np.array_equal(traj[-1], final)


def test_batched_solve_matches_per_sample():
    spec = G.system_spec("lv", resolution=32,
                         overrides={"fine_factor": 1, "horizon": 0.2, "dt": 0.02})
    ics = np.stack([G.initial_conditions(spec, np.random.default_rng(i), 32)
                    for i in range(3)])
    batch = G.etdrk4_solve(spec, ics)
    for i in range(3):
        assert np.array_equal(batch[i], G.etdrk4_solve(spec, ics[i]))


def test_solver_input_validation():
    spec = G.system_spec("lv", resolution=32)
    with pytest.raises(ValueError):
        G.etdrk4_solve(spec, np.zeros((2, 32)), record="movie")
    with pytest.raises(ValueError):
        G.etdrk4_solve(spec, np.zeros((32,)))  # missing process axis
    with pytest.raises(ValueError):
        G.etdrk4_solve(spec, np.zeros((3, 32)))  # lv has 2 processes


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
    only 2, 4 and 5 diverge in time, sample 2 first, at step 180."""
    return G.system_spec("lv", resolution=16, overrides={"b": -1.0, "horizon": 2.0,
                                                         "dt": 0.01, "fine_factor": 1})


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


@pytest.mark.parametrize("name, horizon", [("bz", 0.05), ("burgers", 0.0125)])
def test_nonlinear_solve_matches_numpy_fft(name, horizon, monkeypatch):
    """50 ETDRK4 steps of two samples at 1,024 points, the solve length of
    bz and burgers, agree with the same solve on ``numpy.fft``: every
    nonlinear evaluation goes through the packed real transforms."""
    spec = G.system_spec(name, overrides={"horizon": horizon})
    u0 = np.stack([G.initial_conditions(spec, np.random.default_rng(s), 1024) for s in (3, 4)])
    got = G.etdrk4_solve(spec, u0)
    monkeypatch.setattr(G.K, "rfft", lambda a, axes: np.fft.rfft(a, axis=axes[-1]))
    monkeypatch.setattr(G.K, "irfft", lambda a, axes, n=None: np.fft.irfft(a, n=n, axis=axes[-1]))
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


# solve grids past compol.fft.BLOCK: lv and bz at 256 points take the packed
# real transform and a four-step split, gs at 128 x 128 splits a leading axis
TINY_SPECS = {
    "lv": ("lv", 64, {"horizon": 0.2, "dt": 0.02}),
    "bz": ("bz", 64, {"horizon": 0.02, "dt": 1e-3}),
    "gs": ("gs", 128, {"horizon": 0.1, "dt": 0.02}),
}


@pytest.mark.parametrize("system", sorted(TINY_SPECS))
def test_generate_dataset_chunking_invariant(tmp_path, system):
    """A sample's bytes do not depend on how many samples share its chunk."""
    name, resolution, overrides = TINY_SPECS[system]
    spec = G.system_spec(name, resolution=resolution, overrides=overrides)
    digests = {c: G.generate_dataset(spec, 8, seed=3, out_dir=tmp_path / str(c),
                                     chunk_size=c, workers=1)["files"][0]["sha256"]
               for c in (1, 3, 8)}
    assert len(set(digests.values())) == 1, digests


def test_generate_dataset_empty(tmp_path):
    manifest = G.generate_dataset(quick_lv(), 0, seed=1, out_dir=tmp_path)
    assert manifest["counts"]["samples"] == 0
    assert D.load_dataset(tmp_path).n_samples == 0


def test_generate_dataset_rejects_negative_count(tmp_path):
    with pytest.raises(ValueError):
        G.generate_dataset(quick_lv(), -1, seed=1, out_dir=tmp_path)
