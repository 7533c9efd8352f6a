"""Binary field containers, checkpoints, manifests, and config hashing.

Datasets (``.cmpd``) and checkpoints (``CMPLCKPT``) share one framing:
an 8-byte magic, a little-endian u32 format version, a u32
length-prefixed canonical-JSON header, then a raw payload whose exact
length the header determines.  Each file is read whole, its header is
checked against the format's schema, and the payload is taken with one
``np.frombuffer`` and sliced by an offset table.

Every file compol writes goes through :func:`write_file`, whole or not
at all: a crash mid-write leaves the previous file, if any, intact.

:func:`check_fields` is the one check of which JSON value a field may
hold.  Configs, system overrides, run records and dataset manifests each
declare a table ``{key: (kind, least)}`` and pass their objects through it.

A ``.cmpd`` payload holds float32 fields ordered sample-major,
process-major, group-major (group order comes from the header), each
field row-major.  A checkpoint payload holds named parameter arrays back
to back, each at the offset its header entry records.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import itertools
import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAGIC", "CKPT_MAGIC", "FORMAT_VERSION", "DataFormatError", "CheckpointError",
    "FieldTypeError", "check_fields", "canonical_json", "config_hash", "sha256_file",
    "write_file", "write_json", "write_fields", "read_fields", "write_checkpoint",
    "read_checkpoint", "read_manifest",
    "FieldDataset", "write_dataset", "load_dataset", "check_stats", "require_memory",
]

MAGIC = b"CMPLDATA"
CKPT_MAGIC = b"CMPLCKPT"
FORMAT_VERSION = 1  # of both formats
DATA_FILENAME = "data.cmpd"
MANIFEST_FILENAME = "manifest.json"

_PREFIX = struct.Struct("<II")  # version, header length; follows the magic
_PARAM_DTYPES = ("<f4", "<f8", "<c8", "<c16")


class DataFormatError(ValueError):
    """Corrupt, truncated, or incompatible data file."""


class CheckpointError(DataFormatError):
    """Malformed, mismatched, or truncated checkpoint file."""


class FieldTypeError(TypeError, ValueError):
    """A field of the wrong kind; a ValueError too, so input errors exit 2 alike."""


def require_memory(need: int, what: str) -> None:
    """Raise ``MemoryError`` when ``what`` needs more than the physical memory.

    Where the OS does not report its memory, nothing is refused.
    """
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):   # no sysconf, or not these names
        have = 0
    if 0 < have < need:
        raise MemoryError(f"{what} need {need} bytes, more than the {have} bytes "
                          "of physical memory")


# glibc mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _set_thresholds(loader):
    """Call ``mallopt`` once per C library loader; returns it, or None.

    The returned function pointer keeps its ``CDLL`` alive: a ``CDLL`` holds
    its function-pointer class in a reference cycle, so one built and
    dropped on every call would leave garbage for the cyclic collector.
    """
    try:
        mallopt = loader(None).mallopt
    except (OSError, AttributeError, TypeError):   # TypeError: Windows loads no None name
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    return mallopt


def _keep_freed_blocks() -> None:
    """Have glibc keep the blocks one step frees for the next step.

    With glibc's defaults the memory a tape, an evaluation batch or an
    ETDRK4 step frees goes back to the OS and is faulted in again by the
    next one, thousands of faults each time.  Keeping up to 256 MiB free on the heap, and
    taking blocks under 32 MiB from it, removes them; the trim threshold
    alone would pin the mmap threshold at 128 KiB.  The thresholds are set
    once per process.  A C library without ``mallopt`` is left as is.
    """
    _set_thresholds(ctypes.CDLL)


# ---------------------------------------------------------------------------
# field tables


def _finite(v) -> bool:
    """A number, not a bool, within float range: NaN, inf and huge ints fail the bound."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_KINDS = {  # kind: (a value of it, values of it, test)
    "int": ("an integer", "integers", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a finite number", "finite numbers", _finite),
    "positive": ("a positive number", "positive numbers", lambda v: _finite(v) and v > 0),
    "str": ("a string", "strings", lambda v: isinstance(v, str)),
    "bool": ("a bool", "bools", lambda v: isinstance(v, bool)),
    "object": ("an object", "objects", lambda v: isinstance(v, dict)),
}


def _is(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, (list, tuple)) and all(_is(v, kind[0]) for v in value)
    return value is None if kind is None else _KINDS[kind][2](value)


def _describe(kind, plural: bool = False) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_describe(k, plural) for k in kind)
    if isinstance(kind, list):
        return ("lists of " if plural else "a list of ") + _describe(kind[0], True)
    return "null" if kind is None else _KINDS[kind][plural]


def check_fields(obj: dict, table: dict, where: str = "", required=(),
                 closed: bool = False) -> None:
    """Check each field of ``obj`` that ``table`` names against its ``(kind, least)``.

    A kind is a name in ``_KINDS``, None for null, ``[kind]`` for a list of
    that kind, or a tuple of kinds the value may be any of.  ``least`` bounds
    the value, or each item of a list, from below; for a string it is the
    tuple of allowed values.  Absent fields pass, unless ``required`` names
    them; a ``closed`` table refuses keys it does not name.  ``where``
    prefixes the field names in the messages.  A value of the wrong kind
    raises :class:`FieldTypeError`, any other fault ValueError.
    """
    unknown = [where + str(k) for k in obj if k not in table] if closed else []
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(unknown)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where}{key} is missing")
    for key in [k for k in table if k in obj]:
        (kind, least), value = table[key], obj[key]
        if not _is(value, kind):
            raise FieldTypeError(f"{where}{key} must be {_describe(kind)}, got {value!r}")
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(least, tuple) and v not in least:
                raise ValueError(f"{where}{key} must be one of {least}, got {value!r}")
            if isinstance(least, int) and v is not None and v < least:
                raise ValueError(f"{where}{key} must be >= {least}, got {value!r}")


def canonical_json(obj) -> str:
    """Stable, whitespace-free JSON; rejects NaN so hashes stay portable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# writing and framing


def write_file(path, chunks) -> None:
    """Stream the bytes-like ``chunks`` to ``path``, whole or not at all.

    They go to a new temp sibling, which ``os.replace`` renames onto ``path``
    (atomic on POSIX).  Any exception, Ctrl-C included, removes it and is
    re-raised.  Its mode is what a new ``open(path, "wb")`` gives.  No fsync:
    the guard is against a crashed process, not a power loss.
    """
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):    # not made, or renamed already
            os.remove(tmp)
        raise


def write_json(path, doc) -> None:
    """Indented, key-sorted JSON and a newline: manifests and config copies."""
    write_file(path, [(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
                       + "\n").encode("utf-8")])


def _write_frame(path, magic: bytes, header: dict, arrays) -> None:
    """Write ``magic``, the version, ``header`` and the ``arrays``' raw bytes."""
    blob = canonical_json(header).encode("utf-8")
    write_file(path, itertools.chain(
        (magic, _PREFIX.pack(FORMAT_VERSION, len(blob)), blob),
        (np.ascontiguousarray(a).data for a in arrays)))


def _read_frame(path, magic: bytes, layout, error, sha256: "str | None" = None):
    """Read a framed file whole; return ``(header, payload, table)``.

    ``layout(header)`` checks the header against the format's schema,
    raising ValueError where it does not fit, and returns the exact
    payload length in bytes with the offset table that slices it.
    ``payload`` is the uint8 array after the header.  A ``sha256`` given
    must match the bytes read.  Every fault is raised as ``error``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise error(f"{path}: checksum mismatch against manifest")
    if raw[:len(magic)] != magic:
        raise error(f"{path}: bad magic {raw[:len(magic)]!r}")
    start = len(magic) + _PREFIX.size
    if len(raw) < start:
        raise error(f"{path}: truncated header")
    version, hlen = _PREFIX.unpack_from(raw, len(magic))
    if version != FORMAT_VERSION:
        raise error(f"{path}: unsupported version {version}")
    end = start + hlen
    if len(raw) < end:
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(raw[start:end].decode("utf-8"))
        _require(isinstance(header, dict), "header is not a JSON object")
        size, table = layout(header)
    except (ValueError, RecursionError) as e:
        raise error(f"{path}: bad header: {e}") from e
    if len(raw) - end < size:
        raise error(f"{path}: truncated payload")
    if len(raw) - end > size:
        raise error(f"{path}: trailing bytes after payload")
    return header, np.frombuffer(raw, np.uint8, offset=end), table


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# raw container


_CMPD_HEADER = {"samples": ("int", 0), "groups": (["str"], None), "shapes": (["object"], None)}


def _fields_layout(header: dict):
    """Payload size and, per process and group, (start, stop, shape) float columns."""
    check_fields(header, _CMPD_HEADER, required=tuple(_CMPD_HEADER))
    n, groups = header["samples"], header["groups"]
    columns, width = [], 0
    for m, proc in enumerate(header["shapes"]):
        check_fields(proc, dict.fromkeys(groups, (["int"], 0)), f"shapes[{m}].", groups)
        cols = []
        for g in groups:
            shape = tuple(proc[g])
            cols.append((width, width + math.prod(shape), shape))
            width += math.prod(shape)
        columns.append(cols)
    return 4 * n * width, (n, width, columns)


def write_fields(path: str, header: dict, fields: "list[list[np.ndarray]]") -> None:
    """Write ``fields[process][group]``, each [n, *shape], as float32 under ``header``.

    The header names the ``groups`` (one per innermost slot); the sample
    count and the per-process shapes are taken from the arrays.
    """
    groups = header["groups"]
    n = len(fields[0][0]) if fields and fields[0] else 0
    head = {"format": MAGIC.decode("ascii"), "version": FORMAT_VERSION, **header,
            "samples": n,
            "shapes": [{g: list(a.shape[1:]) for g, a in zip(groups, proc)}
                       for proc in fields]}
    _, (_, width, columns) = _fields_layout(head)
    rows = np.empty((n, width), dtype="<f4")
    for m, (proc, cols) in enumerate(zip(fields, columns)):
        for arr, (lo, hi, _) in zip(proc, cols):
            if len(arr) != n:
                raise DataFormatError(f"process {m}: {len(arr)} samples, expected {n}")
            rows[:, lo:hi] = arr.reshape(n, hi - lo)
    _write_frame(path, MAGIC, head, [rows])


def read_fields(path: str, sha256: "str | None" = None
                ) -> "tuple[dict, list[list[np.ndarray]]]":
    """Read a ``.cmpd`` file; returns the header and ``fields[process][group]``.

    With ``sha256``, the file's digest must match it.
    """
    header, payload, (n, width, columns) = _read_frame(
        path, MAGIC, _fields_layout, DataFormatError, sha256)
    try:
        rows = payload.view("<f4").reshape(n, width)
        return header, [[rows[:, lo:hi].reshape((n,) + shape).copy() for lo, hi, shape in cols]
                        for cols in columns]
    except ValueError as e:  # numpy refuses a dimension such as the 2**70 in [0, 2**70]
        raise DataFormatError(f"{path}: bad header: {e}") from e


# ---------------------------------------------------------------------------
# checkpoints


_CKPT_HEADER = {"config": ("object", None), "extra": ("object", None),
                "params": (["object"], None)}
_PARAM_ENTRY = {"name": ("str", None), "dtype": ("str", _PARAM_DTYPES),
                "shape": (["int"], 0), "offset": ("int", 0)}


def _params_layout(header: dict):
    """Payload size and (name, dtype, shape, start, stop) per parameter."""
    check_fields(header, _CKPT_HEADER, required=("config", "params"))
    table, size = [], 0
    for i, e in enumerate(header["params"]):
        check_fields(e, _PARAM_ENTRY, f"params[{i}].", required=tuple(_PARAM_ENTRY))
        name, code, shape = e["name"], e["dtype"], tuple(e["shape"])
        _require(e["offset"] == size,
                 f"{name}: offset {e['offset']} is not {size}, where the previous array ends")
        stop = size + np.dtype(code).itemsize * math.prod(shape)
        table.append((name, code, shape, size, stop))
        size = stop
    _require(len({t[0] for t in table}) == len(table), "parameter names repeat")
    return size, table


def write_checkpoint(path, header: dict, named: "list[tuple[str, np.ndarray]]") -> None:
    """Write ``header`` plus a ``params`` table and payload for the named arrays."""
    entries, offset = [], 0
    for name, arr in named:
        entries.append({"name": name, "dtype": arr.dtype.str,
                        "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    head = {**header, "params": entries}
    _params_layout(head)  # refuse what the reader would, such as an integer array
    _write_frame(path, CKPT_MAGIC, head, [a for _, a in named])


def read_checkpoint(path) -> "tuple[dict, dict[str, np.ndarray]]":
    """Read a checkpoint; returns the header and read-only arrays by name."""
    header, payload, table = _read_frame(path, CKPT_MAGIC, _params_layout, CheckpointError)
    try:
        return header, {name: payload[lo:hi].view(code).reshape(shape)
                        for name, code, shape, lo, hi in table}
    except ValueError as e:  # numpy refuses a dimension such as the 2**70 in [0, 2**70]
        raise CheckpointError(f"{path}: bad header: {e}") from e


# ---------------------------------------------------------------------------
# dataset = inputs + outputs + manifest


@dataclass
class FieldDataset:
    """In-memory dataset: one [n, channels, *grid] pair per process."""

    inputs: list[np.ndarray]
    outputs: list[np.ndarray]
    manifest: dict

    @property
    def n_samples(self) -> int:
        return int(self.inputs[0].shape[0]) if self.inputs else 0

    @property
    def processes(self) -> int:
        return len(self.inputs)

    @property
    def channels(self) -> tuple[int, ...]:
        return tuple(int(x.shape[1]) for x in self.inputs)

    def subset(self, indices) -> "FieldDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return FieldDataset(
            inputs=[x[idx] for x in self.inputs],
            outputs=[y[idx] for y in self.outputs],
            manifest=self.manifest,
        )


def _channel_stats(arrays: "list[np.ndarray]") -> "list[dict]":
    """Per-process, per-channel mean/std over all samples and grid points."""
    out = []
    for arr in arrays:
        if arr.shape[0] == 0:
            c = arr.shape[1]
            out.append({"mean": [0.0] * c, "std": [1.0] * c})
            continue
        axes = (0,) + tuple(range(2, arr.ndim))
        mean = arr.astype(np.float64).mean(axis=axes)
        std = arr.astype(np.float64).std(axis=axes)
        std = np.where(std > 0, std, 1.0)
        out.append({"mean": mean.tolist(), "std": std.tolist()})
    return out


def write_dataset(out_dir: str, inputs: "list[np.ndarray]", outputs: "list[np.ndarray]",
                  meta: dict) -> dict:
    """Write data file, then manifest (the commit marker); returns the manifest.

    ``inputs[m]``/``outputs[m]`` are [n, channels_m, *grid] float arrays.
    ``meta`` supplies system/seed/config fields recorded verbatim.
    """
    os.makedirs(out_dir, exist_ok=True)
    n = int(inputs[0].shape[0]) if inputs else 0
    for m, (x, y) in enumerate(zip(inputs, outputs)):
        if x.shape[0] != n or y.shape[0] != n:
            raise DataFormatError(f"process {m}: sample counts differ")
        if x.shape != y.shape:
            raise DataFormatError(f"process {m}: input/output shapes differ")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataFormatError(f"process {m}: non-finite field values")

    header = {
        "groups": ["input", "output"],
        "processes": len(inputs),
        "system": meta.get("system"),
        "seed": meta.get("seed"),
    }
    data_path = os.path.join(out_dir, DATA_FILENAME)
    write_fields(data_path, header, [[x, y] for x, y in zip(inputs, outputs)])

    stats = {"input": _channel_stats(inputs), "output": _channel_stats(outputs)}
    manifest = dict(meta)
    manifest.update({
        "format": MAGIC.decode("ascii"),
        "version": FORMAT_VERSION,
        "files": [{"name": DATA_FILENAME, "sha256": sha256_file(data_path), "samples": n}],
        "counts": {
            "samples": n,
            "processes": len(inputs),
            "channels": [int(x.shape[1]) for x in inputs],
        },
        "stats": stats,
        "stat_convention": "empty datasets record mean 0, std 1 per channel",
    })
    manifest["config_hash"] = config_hash(
        {k: manifest[k] for k in ("system", "seed", "counts") if k in manifest})
    write_json(os.path.join(out_dir, MANIFEST_FILENAME), manifest)
    return manifest


def read_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise DataFormatError(f"{path}: not valid JSON: {e}") from e


# the manifest fields the program reads, and those of each stats entry
_MANIFEST_FIELDS = {"system": ("object", None), "counts": ("object", None),
                    "stats": ("object", None), "channel_names": ([["str"]], None)}
_STATS_FIELDS = {"input": (["object"], None), "output": (["object"], None)}
_STAT_FIELDS = {"mean": (["number"], None), "std": (["positive"], None)}


def check_stats(stats, channels) -> None:
    """Check normalization ``stats`` against each process's channel count (ValueError)."""
    check_fields({"stats": stats}, {"stats": ("object", None)})
    check_fields(stats, _STATS_FIELDS, "stats.", required=tuple(_STATS_FIELDS))
    for group in _STATS_FIELDS:
        entries = stats[group]
        _require(len(entries) == len(channels),
                 f"stats.{group} has {len(entries)} entries for {len(channels)} processes")
        for m, (entry, c) in enumerate(zip(entries, channels)):
            where = f"stats.{group}[{m}]."
            check_fields(entry, _STAT_FIELDS, where, required=tuple(_STAT_FIELDS))
            _require(len(entry["mean"]) == len(entry["std"]) == c,
                     f"{where}mean and {where}std need {c} values each")


def load_dataset(directory: str) -> FieldDataset:
    """Read a dataset directory, checking its data's sha256; a fault raises DataFormatError."""
    path = os.path.join(directory, MANIFEST_FILENAME)
    manifest = read_manifest(path)
    try:
        name, digest = manifest["files"][0]["name"], manifest["files"][0]["sha256"]
    except (KeyError, IndexError, TypeError) as e:
        raise DataFormatError(
            f"{path}: manifest needs files[0].name and files[0].sha256") from e
    if not (isinstance(name, str) and isinstance(digest, str)):
        raise DataFormatError(f"{path}: manifest files[0].name and .sha256 must be strings")
    data_path = os.path.join(directory, name)
    header, fields = read_fields(data_path, digest)
    if header["groups"] != ["input", "output"]:
        raise DataFormatError(f"{data_path}: groups {header['groups']} are not input, output")
    try:
        check_fields(manifest, _MANIFEST_FIELDS)
        if manifest.get("stats"):   # training alone refuses a dataset without stats
            check_stats(manifest["stats"], [x.shape[1] for x, _ in fields])
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from e
    return FieldDataset(inputs=[x for x, _ in fields], outputs=[y for _, y in fields],
                        manifest=manifest)
