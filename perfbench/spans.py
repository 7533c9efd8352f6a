"""Spans recorded from outside the program.

``Recorder.install`` replaces public functions on the module attribute
where their callers look them up (``model.bind``, ``training.adam_step``,
``compol.fft.rfft``, ...).  Each call records a span: name, start, end,
the index of the span that was open when it started, and an optional
number (tape length at ``backward``, points per FFT).  Spans stay in
memory and are written out once, at the end of the run.

``gen-data`` solves in forked worker processes.  The workers inherit the
wrappers; a wrapper around ``datagen._generate_chunk`` writes each
chunk's spans to a file, and the parent merges those files after the
command, so the ``datagen`` and ``fft`` figures of ``gen-bz`` are the
busy time summed over workers.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import glob
import json
import os
import time

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
AGGREGATION_FUNCS = ("mix_processes", "gru_step", "attention_aggregate",
                     "skip_aggregate", "inject")
FFT_SPANS = tuple(f"fft.{f}" for f in FFT_FUNCS)
AGGREGATION_SPANS = tuple(f"aggregation.{f}" for f in AGGREGATION_FUNCS)


def _fft_points(args, kwargs, out):
    """Real-space points of one transform: the larger of input and output."""
    return max(int(getattr(args[0], "size", 0)), int(getattr(out, "size", 0)))


def _tape_nodes(args, kwargs, out):
    return len(args[0])


class Recorder:
    """In-memory span table: parallel lists indexed by span id."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.values: list[float | None] = []
        self.pids: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._owner = os.getpid()  # spans recorded in other pids are workers'

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.values.append(None)
        self.pids.append(os.getpid())
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, *, collapse_recursion: bool = False,
             measure=None):
        """Return ``fn`` wrapped so that each call records one span.

        With ``collapse_recursion`` a call made while a span of the same
        name is innermost records nothing, so a recursive function counts
        once, at its outermost call.
        """
        names, stack = self.names, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if collapse_recursion and stack and names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.values[idx] = measure(args, kwargs, out)
            return out

        return wrapper

    def patch(self, attr: str, name: str, *modules, **kw) -> None:
        """Wrap ``attr`` once and put the wrapper on every module that looks it up."""
        wrapped = self.wrap(name, getattr(modules[0], attr), **kw)
        for mod in modules:
            self._restore.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap the public functions the workloads call, where they are looked up."""
        from compol import aggregation, cli, datagen, dataio, layers, model, params
        from compol import fft as kfft
        from compol import tensor, training

        # training calls P.bind, forward calls its own imported name
        self.patch("bind", "params.bind", params, model, collapse_recursion=True)
        self.patch("forward", "model.forward", model)
        self.patch("load_checkpoint", "model.load_checkpoint", model)
        self.patch("backward", "tensor.backward", tensor, measure=_tape_nodes)
        for fn in ("adam_step", "evaluate", "relative_l2", "train"):
            self.patch(fn, f"training.{fn}", training)
        self.patch("spectral_conv", "layers.spectral_conv", layers)
        self.patch("channel_affine", "layers.channel_affine", layers, aggregation)
        for fn in AGGREGATION_FUNCS:
            self.patch(fn, f"aggregation.{fn}", aggregation)
        for fn in FFT_FUNCS:
            self.patch(fn, f"fft.{fn}", kfft, measure=_fft_points)
        for fn in ("initial_conditions", "etdrk4_solve", "spectral_subsample",
                   "generate_dataset"):
            self.patch(fn, f"datagen.{fn}", datagen)
        self.patch("load_dataset", "dataio.load_dataset", dataio, cli)
        for fn in ("write_dataset", "sha256_file"):
            self.patch(fn, f"dataio.{fn}", dataio)
        self._patch_chunk(datagen)

    def _patch_chunk(self, datagen) -> None:
        """Record each worker chunk and write its spans to ``worker_dir``."""
        original = datagen._generate_chunk
        self._restore.append((datagen, "_generate_chunk", original))
        inner = self.wrap("datagen.chunk", original)

        @functools.wraps(original)
        def chunk(*args, **kwargs):
            mark = len(self.names)
            try:
                return inner(*args, **kwargs)
            finally:
                if os.getpid() != self._owner:
                    self._flush_worker(mark)

        # pickled by reference as compol.datagen._generate_chunk, so the
        # forked workers unpickle this wrapper
        datagen._generate_chunk = chunk

    def _flush_worker(self, mark: int) -> None:
        path = os.path.join(self.worker_dir,
                            f"spans-{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"mark": mark, "names": self.names[mark:],
                       "starts": self.starts[mark:], "ends": self.ends[mark:],
                       "parents": self.parents[mark:], "values": self.values[mark:],
                       "pids": self.pids[mark:]}, fh)
        for lst in (self.names, self.starts, self.ends, self.parents,
                    self.values, self.pids):
            del lst[mark:]

    def collect_workers(self) -> None:
        """Merge the span files the workers wrote, rebasing their indices."""
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                part = json.load(fh)
            os.remove(path)
            mark, base = part["mark"], len(self.names)
            self.names.extend(part["names"])
            self.starts.extend(part["starts"])
            self.ends.extend(part["ends"])
            self.values.extend(part["values"])
            self.pids.extend(part["pids"])
            # parents below the mark are spans the parent process had open
            # when it forked the worker; they keep their index
            self.parents.extend(p - mark + base if p >= mark else p
                                for p in part["parents"])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own call."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents, "values": self.values,
                       "pids": self.pids, "self_ms": self_time_table(self)}, fh)


# ---------------------------------------------------------------------------
# analysis


def children_table(rec: Recorder) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in rec.names]
    for i, p in enumerate(rec.parents):
        if p >= 0:
            kids[p].append(i)
    return kids


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time_table(rec: Recorder) -> dict[str, float]:
    """Milliseconds of self time per span name.

    Self time is a span's duration minus the part of it that its child
    spans cover; children from worker processes overlap, so their union
    is taken.
    """
    kids = children_table(rec)
    out: dict[str, float] = {}
    for i, name in enumerate(rec.names):
        lo, hi = rec.starts[i], rec.ends[i]
        busy = covered([(rec.starts[c], rec.ends[c]) for c in kids[i]], lo, hi)
        out[name] = out.get(name, 0.0) + (hi - lo - busy) * 1e3
    return out


def descendants(rec: Recorder, root: int) -> list[int]:
    kids = children_table(rec)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        for c in kids[i]:
            out.append(c)
            todo.append(c)
    return sorted(out)


def has_ancestor(rec: Recorder, i: int, names) -> bool:
    p = rec.parents[i]
    while p >= 0:
        if rec.names[p] in names:
            return True
        p = rec.parents[p]
    return False


def outermost(rec: Recorder, idx, names) -> list[int]:
    """Spans among ``idx`` named in ``names`` with no ancestor named in ``names``."""
    names = set(names)
    return [i for i in idx if rec.names[i] in names and not has_ancestor(rec, i, names)]


def duration_ms(rec: Recorder, idx) -> float:
    return sum(rec.ends[i] - rec.starts[i] for i in idx) * 1e3


def step_windows(rec: Recorder, call: int) -> list[tuple[float, float]]:
    """Training steps inside one ``compol train`` span.

    A step runs from the start of its first ``params.bind`` (one not made
    inside a forward or an evaluation) to the end of its ``adam_step``.
    """
    sub = descendants(rec, call)
    binds = [i for i in sub if rec.names[i] == "params.bind"
             and not has_ancestor(rec, i, ("model.forward", "training.evaluate"))]
    adams = [i for i in sub if rec.names[i] == "training.adam_step"]
    bind_starts = sorted(rec.starts[i] for i in binds)
    windows, prev_end = [], rec.starts[call]
    for a in sorted(adams, key=lambda i: rec.starts[i]):
        k = bisect.bisect_right(bind_starts, prev_end)
        if k >= len(bind_starts) or bind_starts[k] > rec.starts[a]:
            raise ValueError("adam_step without a preceding params.bind")
        windows.append((bind_starts[k], rec.ends[a]))
        prev_end = rec.ends[a]
    return windows
