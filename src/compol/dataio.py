"""Binary field containers, checkpoints, manifests, and config hashing.

Datasets (``.cmpd``) and checkpoints (``CMPLCKPT``) share one framing:
an 8-byte magic, a little-endian u32 format version, a u32
length-prefixed canonical-JSON header, then a raw payload whose exact
length the header determines.  Each file is read whole, its header is
checked against the format's schema, and the payload is taken with one
``np.frombuffer`` and sliced by an offset table.

A ``.cmpd`` payload holds float32 fields ordered sample-major,
process-major, group-major (group order comes from the header), each
field row-major.  A checkpoint payload holds named parameter arrays back
to back, each at the offset its header entry records.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAGIC", "CKPT_MAGIC", "FORMAT_VERSION", "DataFormatError", "CheckpointError",
    "canonical_json", "config_hash", "sha256_file",
    "write_fields", "read_fields", "write_checkpoint", "read_checkpoint",
    "write_manifest", "read_manifest",
    "FieldDataset", "write_dataset", "load_dataset",
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
# framing


def _write_frame(path, magic: bytes, header: dict, chunks) -> None:
    """Write ``magic``, the version, ``header`` and the ``chunks`` arrays' raw bytes."""
    blob = canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(_PREFIX.pack(FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk).data)


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


def _count(value, what: str) -> int:
    """A JSON integer >= 0 (``true`` is not one)."""
    _require(type(value) is int and value >= 0,
             f"{what} must be a non-negative integer, got {value!r}")
    return value


def _shape(value, what: str) -> tuple:
    _require(isinstance(value, list), f"{what} must be a list, got {value!r}")
    return tuple(_count(d, what) for d in value)


# ---------------------------------------------------------------------------
# raw container


def _fields_layout(header: dict):
    """Payload size and, per process and group, (start, stop, shape) float columns."""
    groups, shapes = header.get("groups"), header.get("shapes")
    n = _count(header.get("samples"), "samples")
    _require(isinstance(groups, list) and all(isinstance(g, str) for g in groups),
             f"groups must be a list of names, got {groups!r}")
    _require(isinstance(shapes, list) and all(isinstance(s, dict) for s in shapes),
             f"shapes must be a list of objects, got {shapes!r}")
    columns, width = [], 0
    for m, proc in enumerate(shapes):
        cols = []
        for g in groups:
            shape = _shape(proc.get(g), f"shapes[{m}][{g!r}]")
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


def _params_layout(header: dict):
    """Payload size and (name, dtype, shape, start, stop) per parameter."""
    _require(isinstance(header.get("config"), dict), "config must be an object")
    _require(isinstance(header.get("extra", {}), dict), "extra must be an object")
    entries = header.get("params")
    _require(isinstance(entries, list) and all(isinstance(e, dict) for e in entries),
             f"params must be a list of objects, got {entries!r}")
    table, size = [], 0
    for e in entries:
        name, code = e.get("name"), e.get("dtype")
        _require(isinstance(name, str), f"parameter name {name!r} is not a string")
        _require(code in _PARAM_DTYPES, f"{name}: dtype {code!r} not in {_PARAM_DTYPES}")
        shape = _shape(e.get("shape"), f"{name} shape")
        _require(_count(e.get("offset"), f"{name} offset") == size,
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
    """Write data file plus manifest; returns the manifest dict.

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
    write_manifest(os.path.join(out_dir, MANIFEST_FILENAME), manifest)
    return manifest


def write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise DataFormatError(f"{path}: not valid JSON: {e}") from e


def load_dataset(directory: str, verify: bool = True) -> FieldDataset:
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
    header, fields = read_fields(data_path, digest if verify else None)
    if header["groups"] != ["input", "output"]:
        raise DataFormatError(f"{data_path}: groups {header['groups']} are not input, output")
    return FieldDataset(inputs=[x for x, _ in fields], outputs=[y for _, y in fields],
                        manifest=manifest)
