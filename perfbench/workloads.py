"""The three workloads: set-up, timed rounds of CLI commands, checks, metrics.

Each workload is one process issuing the program's commands one after
another through ``cli.main`` (a closed loop with one client).  A round
is a fixed list of commands; rounds repeat until ``--seconds`` have
passed and the workload's minimum count of rounds has run, and every
rate is the median over the run's commands.  Checks run after the timed
rounds, against ``reference``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import time
import traceback

import numpy as np

import reference as R
import spans as S

KINDS = ("compol-rnn", "compol-atn", "compol-skip", "fno-c")
# set-up repeats per run: the first eval-gs64 set-up of a process was often
# the slowest, while lv set-ups (~7 s each) ran alike within a run
SETUP_REPEATS = {"train-lv64": 2, "gen-bz": 3, "eval-gs64": 3}
# The first heavy command of a process ran 10-30% slower than later ones
# on a 2-vCPU VM, so train rates are medians of at least three commands per
# kind, and gen-data times three commands after an untimed first one.  One
# eval call takes ~17 s, so its rate is the mean of two.
MIN_ROUNDS = {"train-lv64": 3, "gen-bz": 3, "eval-gs64": 2}

# train-lv64: the c07 data recipe and model shape, for a few epochs
LV_OVERRIDES = {"horizon": 2.0, "a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
LV_RESOLUTION, LV_TRAIN, LV_TEST = 64, 128, 64
TRAIN_EPOCHS, TRAIN_BATCH, TRAIN_LR = 3, 32, 1e-3
LV_MODEL = {"processes": 2, "channels": [1, 1], "layers": 4, "width": 32,
            "modes": 12, "aggregation": "gru"}
TRAINED_SHARE = 0.95  # trained error must be at most this share of the untrained one
COVERAGE = 0.9  # traced: the outermost step and evaluation spans cover this share of a train call

# gen-bz: system defaults; 16 samples are two chunks, one per worker
BZ_SAMPLES, BZ_RESOLUTION, BZ_CHECKED = 16, 256, (0, 15)

# eval-gs64: a short-horizon gs dataset and an untrained compol-atn checkpoint
GS_SAMPLES, GS_RESOLUTION, GS_HORIZON = 64, 64, 0.2
GS_MODEL = {"processes": 2, "channels": [1, 1], "layers": 4, "width": 32,
            "modes": [12, 12], "spatial_dims": 2, "aggregation": "attention"}


# per-layer times: metric -> span names whose outermost spans it totals
LAYER_SPANS = {
    "training.adam_step_ms": ("training.adam_step",),
    "training.evaluate_ms": ("training.evaluate",),
    "training.relative_l2_ms": ("training.relative_l2",),
    "model.forward_ms": ("model.forward",),
    "model.load_checkpoint_ms": ("model.load_checkpoint",),
    "tensor.backward_ms": ("tensor.backward",),
    "params.bind_ms": ("params.bind",),
    "layers.spectral_conv_ms": ("layers.spectral_conv",),
    "layers.channel_affine_ms": ("layers.channel_affine",),
    "aggregation_ms": S.AGGREGATION_SPANS,
    "fft.ms": S.FFT_SPANS,
    "datagen.initial_conditions_ms": ("datagen.initial_conditions",),
    "datagen.etdrk4_solve_ms": ("datagen.etdrk4_solve",),
    "datagen.spectral_subsample_ms": ("datagen.spectral_subsample",),
    "dataio.write_dataset_ms": ("dataio.write_dataset",),
    "dataio.load_dataset_ms": ("dataio.load_dataset",),
    "dataio.sha256_file_ms": ("dataio.sha256_file",),
}

# the names every run prints: untraced, and traced
END_TO_END = ("setup_s", "samples_per_s", "peak_rss_mb")
PER_LAYER = ("cli.main_ms", "step_ms", *LAYER_SPANS, "fft.calls", "fft.points",
             "layers.channel_affine_calls", "tensor.tape_nodes")


class Run:
    """State of one benchmark run: seed, work directory, commands, checks."""

    def __init__(self, workload: str, seed: int, seconds: int, work: str,
                 recorder: "S.Recorder | None"):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.rec = work, recorder
        self.ops: list[dict] = []
        self.checks: list[dict] = []
        self.setup_times: list[float] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layer_metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict = {}

    def set_totals(self, samples_per_s: float, rss_mb: float) -> None:
        self.metrics["samples_per_s"] = (samples_per_s, "samples/s")
        self.metrics["peak_rss_mb"] = (rss_mb, "MB")

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def cli(self, args: list[str]) -> tuple[bool, str, float]:
        """Run one ``compol`` command in-process; (ok, stdout, seconds)."""
        from compol import cli

        out = io.StringIO()
        span = self.rec.span("cli.main") if self.rec else contextlib.nullcontext()
        ok, err = False, ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), span:
                ok = cli.main(args) == 0
        except (Exception, SystemExit):  # a failed command is counted, not fatal
            err = traceback.format_exc()
        dt = time.perf_counter() - t0
        if self.rec:
            self.rec.collect_workers()
        self.ops.append({"command": args[0], "args": args[1:], "ok": ok,
                         "seconds": dt, **({"error": err} if err else {})})
        return ok, out.getvalue(), dt

    def check(self, name: str, ok: bool, **detail) -> None:
        self.checks.append({"name": name, "ok": bool(ok), **detail})

    def rounds(self, one_round, min_rounds: int) -> None:
        """Repeat whole rounds until ``seconds`` have passed and ``min_rounds`` ran."""
        t0 = time.perf_counter()
        done = 0
        while done < min_rounds or time.perf_counter() - t0 < self.seconds:
            one_round()
            done += 1

    def timed_setup(self, make) -> list:
        outs = []
        for rep in range(SETUP_REPEATS[self.workload]):
            t0 = time.perf_counter()
            outs.append(make(self.path(f"setup{rep}")))
            self.setup_times.append(time.perf_counter() - t0)
        return outs


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same(values) -> bool:
    return all(v == values[0] for v in values)


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# train-lv64


def _make_lv(run: Run, out: str) -> str:
    from compol import datagen as G

    spec = G.system_spec("lv", resolution=LV_RESOLUTION, overrides=LV_OVERRIDES)
    manifest = G.generate_dataset(spec, LV_TRAIN + LV_TEST, seed=run.seed,
                                  out_dir=os.path.join(out, "data"))
    doc = {"model": {**LV_MODEL, "seed": run.seed},
           "data": {"n_train": LV_TRAIN, "n_test": LV_TEST, "resolution": LV_RESOLUTION},
           "train": {"epochs": TRAIN_EPOCHS, "batch": TRAIN_BATCH, "lr": TRAIN_LR}}
    with open(os.path.join(out, "experiment.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return manifest["files"][0]["sha256"]


def train_lv64(run: Run) -> None:
    digests = run.timed_setup(lambda out: _make_lv(run, out))
    run.check("setup repeats write identical datasets", _same(digests))
    data, config = run.path("setup0", "data"), run.path("setup0", "experiment.json")
    if run.rec:
        run.rec.install()

    seen = {k: [] for k in KINDS}
    times = {k: [] for k in KINDS}

    def one_round():
        for kind in KINDS:
            out = run.path("runs", kind)
            ok, _, dt = run.cli(["train", "--config", config, "--data", data,
                                 "--out", out, "--model", kind])
            if ok:
                with open(os.path.join(out, "run.jsonl"), encoding="utf-8") as fh:
                    head = json.loads(fh.readline())
                seen[kind].append((head["best_err"], sha256(os.path.join(out, "checkpoint.ckpt"))))
                times[kind].append(dt)

    run.rounds(one_round, MIN_ROUNDS[run.workload])
    rss = peak_rss_mb()
    if run.rec:
        run.rec.uninstall()

    from compol import model as M

    manifest, inputs, outputs = R.read_cmpd(data)
    test_idx = np.arange(LV_TRAIN, LV_TRAIN + LV_TEST)
    base = M.CompolConfig(**{**LV_MODEL, "seed": run.seed})
    probe_xs = [x[:2].astype(np.float64) for x in inputs]
    for kind in KINDS:
        if not seen[kind]:
            continue
        best = seen[kind][0][0]
        run.check(f"{kind}: rounds give identical best error and checkpoint",
                  _same(seen[kind]))
        cfg, _, params = R.read_checkpoint(os.path.join(run.path("runs", kind),
                                                        "checkpoint.ckpt"))
        ref = float(np.mean(R.errors(cfg, params, manifest, inputs, outputs, test_idx)))
        ok, worst = R.close(best, ref, rtol=1e-4)
        run.check(f"{kind}: best test error matches the reference forward",
                  ok, reported=best, reference=ref, worst=worst)
        init = M.init_params(M.config_for_kind(kind, base))
        untrained = float(np.mean(R.errors(init.config.to_dict(),
                                           dict(init.named_parameters()),
                                           manifest, inputs, outputs, test_idx)))
        run.check(f"{kind}: trained error below {TRAINED_SHARE} x untrained",
                  best <= TRAINED_SHARE * untrained, trained=best, untrained=untrained)
        ok, worst = R.gradient_probe(kind, base, probe_xs, run.seed)
        run.check(f"{kind}: real64 gradient probe", ok, worst=worst)
        run.notes.setdefault("train_samples_per_s", {})[kind] = (
            LV_TRAIN * TRAIN_EPOCHS / _median(times[kind]))
        # deterministic per seed but spread widely across seeds: recorded, not a metric
        run.notes.setdefault("test_rel_l2", {})[kind] = best
    if all(times.values()):
        # a round of median commands: every kind's samples over their summed times
        run.set_totals(len(KINDS) * LV_TRAIN * TRAIN_EPOCHS
                       / sum(_median(t) for t in times.values()), rss)
    if run.rec:
        _train_layers(run)


def _train_layers(run: Run) -> None:
    """Per-step layer figures over all kinds, and each kind's step and coverage."""
    rec = run.rec
    calls = [i for i, n in enumerate(rec.names) if n == "cli.main"]
    coverage_names = ("model.forward", "tensor.backward", "training.adam_step",
                      "params.bind", "training.evaluate")
    windows = {c: S.step_windows(rec, c) for c in calls}
    steps = sum(len(w) for w in windows.values())
    run.layer_metrics.update(layer_metrics(rec, calls, steps))
    run.layer_metrics["step_ms"] = (
        sum(b - a for w in windows.values() for a, b in w) * 1e3 / steps, "ms")
    coverage, kind_step = {}, {}
    # commands run in round order, one per kind
    for k, kind in enumerate(KINDS):
        kcalls = calls[k::len(KINDS)]
        wall = covered = step = 0.0
        for c in kcalls:
            lo, hi = rec.starts[c], rec.ends[c]
            cover = S.outermost(rec, S.descendants(rec, c), coverage_names)
            wall += hi - lo
            covered += S.covered([(rec.starts[i], rec.ends[i]) for i in cover], lo, hi)
            step += sum(b - a for a, b in windows[c])
        coverage[kind] = covered / wall
        kind_step[kind] = step * 1e3 / sum(len(windows[c]) for c in kcalls)
        run.check(f"{kind}: traced spans cover >= {COVERAGE} of compol train",
                  coverage[kind] >= COVERAGE, coverage=coverage[kind])
    run.notes["coverage_of_train_call"] = coverage
    run.notes["step_ms_by_kind"] = kind_step


# ---------------------------------------------------------------------------
# gen-bz


def gen_bz(run: Run) -> None:
    run.timed_setup(lambda out: os.makedirs(out, exist_ok=True))
    out = run.path("bz")
    args = ["gen-data", "--system", "bz", "--n", str(BZ_SAMPLES),
            "--resolution", str(BZ_RESOLUTION), "--seed", str(run.seed), "--out", out]
    if run.rec:
        os.makedirs(run.rec.worker_dir, exist_ok=True)
        run.rec.install()
    rates, digests = [], []

    def one_round(timed=True):
        ok, _, dt = run.cli(args)
        if ok:
            digests.append(sha256(os.path.join(out, "data.cmpd")))
            if timed:
                rates.append(BZ_SAMPLES / dt)

    # The first gen-data of a process ran ~30% slower than the later ones,
    # often enough to decide a median of three: it is issued and checked,
    # but not timed.
    one_round(timed=False)
    run.rounds(one_round, MIN_ROUNDS[run.workload])
    rss = peak_rss_mb()
    if run.rec:
        run.rec.uninstall()
    if not rates:
        return
    run.check("rounds write identical datasets", _same(digests))
    manifest, inputs, outputs = R.read_cmpd(out)
    for i in BZ_CHECKED:
        ref_in, ref_out = R.bz_sample(manifest["system"], run.seed, i)
        for what, stored, ref in (("input", inputs, ref_in), ("output", outputs, ref_out)):
            got = np.stack([stored[m][i, 0] for m in range(3)])
            scale = float(np.abs(ref).max())
            ok, worst = R.close(got, ref, rtol=1e-6, atol=1e-6 * scale)
            run.check(f"sample {i} {what} matches the numpy reference solve", ok, worst=worst)
    run.set_totals(_median(rates), rss)
    if run.rec:
        _per_sample_layers(run, BZ_SAMPLES)


def layer_metrics(rec: "S.Recorder", calls: list[int], units: int) -> dict:
    """Every per-layer figure except ``step_ms``, per unit of the workload's work.

    A time totals the outermost spans of its names among the descendants
    of the workload's ``cli.main`` spans; a layer that the workload does
    not run reads 0.
    """
    sub = sorted(i for c in calls for i in S.descendants(rec, c))
    out = {"cli.main_ms": (S.duration_ms(rec, calls) / units, "ms")}
    for metric, names in LAYER_SPANS.items():
        out[metric] = (S.duration_ms(rec, S.outermost(rec, sub, names)) / units, "ms")
    ffts = [i for i in sub if rec.names[i] in S.FFT_SPANS]
    out["fft.calls"] = (len(ffts) / units, "count")
    out["fft.points"] = (sum(rec.values[i] for i in ffts) / units, "count")
    out["layers.channel_affine_calls"] = (
        sum(rec.names[i] == "layers.channel_affine" for i in sub) / units, "count")
    nodes = [rec.values[i] for i in sub if rec.names[i] == "tensor.backward"]
    out["tensor.tape_nodes"] = (_median(nodes) if nodes else 0.0, "count")
    return out


def _per_sample_layers(run: Run, samples_per_call: int) -> None:
    rec = run.rec
    calls = [i for i, n in enumerate(rec.names) if n == "cli.main"]
    run.layer_metrics.update(layer_metrics(rec, calls, samples_per_call * len(calls)))
    run.layer_metrics["step_ms"] = (0.0, "ms")  # no training step runs here


# ---------------------------------------------------------------------------
# eval-gs64


def _make_gs(run: Run, out: str) -> str:
    from compol import cli
    from compol import datagen as G
    from compol import model as M

    spec = G.system_spec("gs", resolution=GS_RESOLUTION, overrides={"horizon": GS_HORIZON})
    manifest = G.generate_dataset(spec, GS_SAMPLES, seed=run.seed,
                                  out_dir=os.path.join(out, "data"))
    model = M.init_params(M.CompolConfig(**GS_MODEL, seed=run.seed))
    M.save_checkpoint(os.path.join(out, "model.ckpt"), model, extra={
        "data_signature": cli.data_signature(manifest), "model_kind": "compol-atn"})
    return manifest["files"][0]["sha256"] + sha256(os.path.join(out, "model.ckpt"))


def printed_errors(text: str) -> list[float]:
    rows = [line.split() for line in text.splitlines()
            if line.startswith(("process", "aggregate"))]
    return [float(r[-1]) for r in rows]


def eval_gs64(run: Run) -> None:
    digests = run.timed_setup(lambda out: _make_gs(run, out))
    run.check("setup repeats write identical dataset and checkpoint", _same(digests))
    data, ckpt = run.path("setup0", "data"), run.path("setup0", "model.ckpt")
    if run.rec:
        run.rec.install()
    rates, printed = [], []

    def one_round():
        ok, text, dt = run.cli(["eval", "--checkpoint", ckpt, "--data", data])
        if ok:
            rates.append(GS_SAMPLES / dt)
            printed.append(printed_errors(text))

    run.rounds(one_round, MIN_ROUNDS[run.workload])
    rss = peak_rss_mb()
    if run.rec:
        run.rec.uninstall()
    if not rates:
        return
    run.check("rounds print identical errors", _same(printed))
    manifest, inputs, outputs = R.read_cmpd(data)
    cfg, _, params = R.read_checkpoint(ckpt)
    ref = R.errors(cfg, params, manifest, inputs, outputs, np.arange(GS_SAMPLES))
    ref.append(float(np.mean(ref)))
    # printed with 6 decimals: allow half a unit in the last place
    ok, worst = R.close(printed[0], ref, rtol=1e-5, atol=1e-6)
    run.check("printed per-process errors match the reference forward", ok,
              printed=printed[0], reference=ref, worst=worst)
    run.set_totals(_median(rates), rss)
    if run.rec:
        _per_sample_layers(run, GS_SAMPLES)


WORKLOADS = {"train-lv64": train_lv64, "gen-bz": gen_bz, "eval-gs64": eval_gs64}
