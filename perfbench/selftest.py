"""Fast self-test of the benchmark's references and span analysis.

    python3 perfbench/selftest.py

At tiny sizes it runs each reference against compol and shows that each
check fails on a perturbed output: the checkpoint forward (1-D kinds and
the 2-D attention model, through ``compol eval``), the bz data recipe,
the real64 gradient probe, and the span bookkeeping (recursion counted
once, self time, step windows, spans collected from gen-data workers).
Exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "COMPOL_THREADS": "2"})

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402
from compol import cli, datagen as G, model as M  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, ok: bool, perturbed_ok: bool) -> None:
    """The check must pass on the program's output and fail on the perturbed one."""
    status = "ok" if ok and not perturbed_ok else "FAIL"
    if status == "FAIL":
        FAILURES.append(name)
    print(f"{status:4s} {name}: passes={ok} perturbed_passes={perturbed_ok}")


def tiny_base(**kw) -> M.CompolConfig:
    return M.CompolConfig(**{"processes": 2, "channels": [1, 1], "layers": 2,
                             "width": 8, "modes": 4, "aggregation": "gru", **kw})


def forward_cases() -> None:
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal((3, 1, 16)).astype(np.float32) for _ in range(2)]
    for kind in W.KINDS:
        model = M.init_params(M.config_for_kind(kind, tiny_base(seed=3)))
        inp = [np.concatenate(xs, axis=1)] if kind == "fno-c" else xs
        got = np.stack([o.data for o in M.forward(model, inp)])
        ref = np.stack(R.forward(model.config.to_dict(), dict(model.named_parameters()), inp))
        atol = 1e-5 * float(np.abs(ref).max())
        ok, _ = R.close(got, ref, rtol=1e-4, atol=atol)
        bad, _ = R.close(got * (1 + 1e-3), ref, rtol=1e-4, atol=atol)
        expect(f"reference forward, {kind} 1-D", ok, bad)


def eval_case(tmp: str) -> None:
    spec = G.system_spec("gs", resolution=8, overrides={"horizon": 0.1})
    data = os.path.join(tmp, "gs")
    manifest = G.generate_dataset(spec, 5, seed=4, out_dir=data, workers=1)
    model = M.init_params(M.CompolConfig(**{**W.GS_MODEL, "width": 8, "modes": [3, 3],
                                            "layers": 2, "seed": 4}))
    ckpt = os.path.join(tmp, "gs.ckpt")
    M.save_checkpoint(ckpt, model, extra={"data_signature": cli.data_signature(manifest)})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["eval", "--checkpoint", ckpt, "--data", data])
    printed = W.printed_errors(out.getvalue())
    _, inputs, outputs = R.read_cmpd(data)
    cfg, _, params = R.read_checkpoint(ckpt)
    ref = R.errors(cfg, params, manifest, inputs, outputs, np.arange(5))
    ref.append(float(np.mean(ref)))
    ok, _ = R.close(printed, ref, rtol=1e-5, atol=1e-6)
    bad, _ = R.close(np.add(printed, [0, 1e-4, 0]), ref, rtol=1e-5, atol=1e-6)
    expect("compol eval errors, compol-atn 2-D", ok and rc == 0, bad)


def bz_case(tmp: str) -> None:
    spec = G.system_spec("bz", resolution=16, overrides={"horizon": 0.01})
    data = os.path.join(tmp, "bz")
    manifest = G.generate_dataset(spec, 2, seed=9, out_dir=data, workers=1)
    _, inputs, outputs = R.read_cmpd(data)
    for i in range(2):
        ref_in, ref_out = R.bz_sample(manifest["system"], 9, i)
        for what, stored, ref in (("input", inputs, ref_in), ("output", outputs, ref_out)):
            got = np.stack([stored[m][i, 0] for m in range(3)])
            atol = 1e-6 * float(np.abs(ref).max())
            ok, _ = R.close(got, ref, rtol=1e-6, atol=atol)
            bad, _ = R.close(got * (1 + 1e-5), ref, rtol=1e-6, atol=atol)
            expect(f"bz reference solve, sample {i} {what}", ok, bad)


def gradient_cases() -> None:
    rng = np.random.default_rng(1)
    xs = [rng.standard_normal((2, 1, 16)) for _ in range(2)]
    for kind in W.KINDS:
        ok, _ = R.gradient_probe(kind, tiny_base(), xs, seed=5)
        bad, _ = R.gradient_probe(kind, tiny_base(), xs, seed=5, grad_scale=1.001)
        expect(f"gradient probe, {kind}", ok, bad)


def span_cases(tmp: str) -> None:
    rec = S.Recorder(os.path.join(tmp, "spans"))
    ns = {}

    def countdown(n):
        return n if n == 0 else ns["f"](n - 1)

    ns["f"] = rec.wrap("f", countdown, collapse_recursion=True)
    with rec.span("outer"):
        ns["f"](5)
    once = rec.names.count("f") == 1
    expect("recursive call recorded once", once, rec.names.count("f") > 1)

    # synthetic table: outer [0, 10] with children [1, 3] and [2, 6]
    syn = S.Recorder(tmp)
    syn.names, syn.starts, syn.ends = ["outer", "a", "b"], [0.0, 1.0, 2.0], [10.0, 3.0, 6.0]
    syn.parents, syn.values, syn.pids = [-1, 0, 0], [None] * 3, [0] * 3
    self_ms = S.self_time_table(syn)
    ok = abs(self_ms["outer"] - 5e3) < 1e-9 and abs(self_ms["a"] - 2e3) < 1e-9
    expect("self time is duration minus covered children", ok, self_ms["outer"] == 10e3)

    # two steps: bind -> adam, with an evaluation bind between them
    win = S.Recorder(tmp)
    win.names = ["cli.main", "params.bind", "training.adam_step", "training.evaluate",
                 "params.bind", "params.bind", "training.adam_step"]
    win.starts = [0.0, 1.0, 2.0, 4.0, 4.5, 6.0, 7.0]
    win.ends = [9.0, 1.5, 3.0, 5.0, 4.6, 6.5, 8.0]
    win.parents, win.values, win.pids = [-1, 0, 0, 0, 3, 0, 0], [None] * 7, [0] * 7
    windows = S.step_windows(win, 0)
    expect("step windows skip evaluation binds", windows == [(1.0, 3.0), (6.0, 8.0)],
           windows == [(1.0, 3.0), (4.5, 8.0)])

    os.makedirs(rec.worker_dir, exist_ok=True)
    rec.install()
    try:
        spec = G.system_spec("bz", resolution=16, overrides={"horizon": 0.01})
        with rec.span("cli.main"):
            G.generate_dataset(spec, 16, seed=1, out_dir=os.path.join(tmp, "bzw"), workers=2)
        uncollected = worker_solves(rec)
        rec.collect_workers()
    finally:
        rec.uninstall()
    top = [i for i, n in enumerate(rec.names) if n == "cli.main"][-1]
    under = {rec.names[i] for i in S.descendants(rec, top)}
    expect("worker spans collected under the command",
           worker_solves(rec) and "fft.rfft" in under, uncollected)


def manifest_case() -> None:
    """BENCHMARK.json names exactly the metrics that a run prints."""
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)

    def matches(e2e, layers) -> bool:
        return ([m["name"] for m in doc["end_to_end"]] == list(e2e)
                and [m["name"] for m in doc["per_layer"]] == list(layers))

    expect("BENCHMARK.json lists the printed metrics", matches(W.END_TO_END, W.PER_LAYER),
           matches(W.END_TO_END, W.PER_LAYER[:-1]))


def worker_solves(rec: S.Recorder) -> bool:
    """Solver spans came from two processes, neither of them this one."""
    pids = {p for n, p in zip(rec.names, rec.pids) if n == "datagen.etdrk4_solve"}
    return len(pids) == 2 and os.getpid() not in pids


def main() -> int:
    tmp = os.path.join(ROOT, "perfbench-out", f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    try:
        forward_cases()
        eval_case(tmp)
        bz_case(tmp)
        gradient_cases()
        span_cases(tmp)
        manifest_case()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test", "FAILED: " + ", ".join(FAILURES) if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
