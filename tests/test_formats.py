"""Framed files: pinned bytes, schema faults, and fuzzing.

Datasets (``.cmpd``) and checkpoints (``CMPLCKPT``) share one reader.
A damaged file must either load or raise DataFormatError (for a
checkpoint, its subclass CheckpointError), and ``compol eval`` must turn
a rejected file into exit code 2 with a single ``error:`` line.
"""

import hashlib
import json
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compol import cli
from compol import dataio as D
from compol import model as M

TINY = dict(processes=2, channels=[1, 1], layers=1, width=2, modes=2,
            aggregation="gru", seed=11)
RETYPES = [None, True, -1, 2.5, "x", [], {}, [-1], [2 ** 40], [0, 2 ** 70]]


def split(raw: bytes):
    """Header dict and payload bytes of a framed file."""
    (hlen,) = struct.unpack_from("<I", raw, 12)
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def reframe(raw: bytes, header) -> bytes:
    """The same file with ``header`` in place of its own."""
    blob = json.dumps(header).encode("utf-8")
    return raw[:12] + struct.pack("<I", len(blob)) + blob + split(raw)[1]


def tiny_arrays(n=3, grid=8):
    rng = np.random.default_rng(0)
    inputs = [rng.normal(size=(n, 1, grid)).astype(np.float32) for _ in range(2)]
    return inputs, [2 * x + 1 for x in inputs]


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A dataset directory and a checkpoint that ``compol eval`` accepts."""
    root = tmp_path_factory.mktemp("good")
    manifest = D.write_dataset(root / "data", *tiny_arrays(), {"system": {"system": "demo"}})
    ckpt = root / "model.ckpt"
    M.save_checkpoint(ckpt, M.init_params(M.CompolConfig(**TINY)),
                      extra={"data_signature": cli.data_signature(manifest)})
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(root / "data")]) == 0
    return root


class Case:
    """Writes damaged copies of one format and loads them."""

    def __init__(self, good, tmp, kind):
        self.kind = kind
        self.data = tmp / "data"
        shutil.copytree(good / "data", self.data, dirs_exist_ok=True)
        self.ckpt = tmp / "model.ckpt"
        shutil.copyfile(good / "model.ckpt", self.ckpt)
        self.path = self.ckpt if kind == "checkpoint" else self.data / D.DATA_FILENAME
        self.raw = self.path.read_bytes()
        self.error = D.CheckpointError if kind == "checkpoint" else D.DataFormatError

    def write(self, raw: bytes) -> None:
        """Put ``raw`` in place; a dataset's manifest digest follows it, so
        the reader itself, not the checksum, judges the bytes."""
        self.path.write_bytes(raw)
        if self.kind == "dataset":
            mpath = self.data / D.MANIFEST_FILENAME
            manifest = json.loads(mpath.read_text())
            manifest["files"][0]["sha256"] = hashlib.sha256(raw).hexdigest()
            mpath.write_text(json.dumps(manifest))

    def load(self, raw: bytes) -> bool:
        """True if ``raw`` loads, False if it is rejected with the format's error."""
        self.write(raw)
        try:
            if self.kind == "checkpoint":
                M.load_checkpoint(self.ckpt)
            else:
                D.load_dataset(self.data)
        except self.error:
            return False
        return True

    def eval_exit(self, capsys) -> int:
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(self.ckpt), "--data", str(self.data)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return code


@pytest.fixture(params=["checkpoint", "dataset"])
def case(request, good, tmp_path):
    return Case(good, tmp_path, request.param)


# ---------------------------------------------------------------------------
# format pin: digests taken from the two writers the shared one replaced


def test_formats_are_pinned(tmp_path):
    inputs = [np.arange(48, dtype=np.float32).reshape(3, 2, 8),
              np.arange(24, dtype=np.float32).reshape(3, 1, 8) / 7]
    outputs = [x * 2 - 1 for x in inputs]
    D.write_dataset(tmp_path, inputs, outputs, {"system": {"system": "demo"}, "seed": 1})
    for name, aggregation in (("pin.ckpt", "gru"), ("pin-atn.ckpt", "attention")):
        cfg = M.CompolConfig(**{**TINY, "aggregation": aggregation})
        M.save_checkpoint(tmp_path / name, M.init_params(cfg), extra={"note": "pin"})

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert digest(D.DATA_FILENAME) == (
        "37759b0d3a9e59add286220351e4c3f5b50fcb2a5e39ecb9b7abb143d8f4d288")
    assert digest(D.MANIFEST_FILENAME) == (
        "6c8f8f96dab1a96755afcdf866b4147944c97db6172445d85f721c73cde95d97")
    # re-pinned when the config lost its attend_history field: only that
    # header key differs, and the payload bytes are the same
    assert digest("pin.ckpt") == (
        "c6843526ced553acabbad14ea7d7ef4f8c8f215e4b6d525263bd29bc84ea6cde")
    # the attention layout: taken before attention lost its head count
    assert digest("pin-atn.ckpt") == (
        "2485cfc533d5830c82eb5522ef84dcac9559d96cb166cc353932c982d5274c24")
    ds = D.load_dataset(tmp_path)
    assert all(np.array_equal(a, b) for a, b in zip(ds.inputs + ds.outputs, inputs + outputs))


# ---------------------------------------------------------------------------
# probes: each must raise the format's error and make eval exit 2


def _entry0(edit):
    def apply(h):
        edit(h["params"][0])
    return apply


def _append_empty(h):
    """Add a [0, 2**70] array after the last: no bytes, but more than numpy can index."""
    last = h["params"][-1]
    end = last["offset"] + np.dtype(last["dtype"]).itemsize * int(np.prod(last["shape"]))
    h["params"].append({"name": "empty", "dtype": "<f4", "shape": [0, 2 ** 70], "offset": end})


CHECKPOINT_PROBES = {
    "no-params": lambda h: h.pop("params"),
    "negative-shape": _entry0(lambda e: e.update(shape=[-1])),
    "fractional-shape": _entry0(lambda e: e.update(shape=[2.5])),
    "string-shape": _entry0(lambda e: e.update(shape="2")),
    "int-dtype": _entry0(lambda e: e.update(dtype="<i4")),
    "offset-outside": lambda h: h["params"][-1].update(offset=10 ** 6),
    "config-unknown-key": lambda h: h["config"].update(dropout=0.5),
    "config-missing-key": lambda h: h["config"].pop("processes"),
    "config-zero-heads": lambda h: h["config"].update(aggregation="attention", heads=0),
    "config-huge-modes": lambda h: h["config"].update(modes=[2 ** 40]),
    "config-huge-width": lambda h: h["config"].update(width=2 ** 40),
    "config-huge-layers": lambda h: h["config"].update(layers=2 ** 40),
    "config-infinite-modes": lambda h: h["config"].update(modes=[float("inf")]),
    "config-fractional-width": lambda h: h["config"].update(width=2.5),
    "config-fractional-channels": lambda h: h["config"].update(channels=[1.7, 1]),
    "config-bool-heads": lambda h: h["config"].update(heads=True),
    "huge-empty-array": _append_empty,
    "extra-not-object": lambda h: h.update(extra=[1]),
}

DATASET_PROBES = {
    "no-groups": lambda h: h.pop("groups"),
    "string-samples": lambda h: h.update(samples="3"),
    "fractional-samples": lambda h: h.update(samples=3.0),
    "negative-shape": lambda h: h["shapes"][0].update(input=[-1, 8]),
    "other-groups": lambda h: h.update(groups=["output", "input"]),
    "huge-empty-group": lambda h: (h["groups"].append("empty"),
                                   [s.update(empty=[0, 2 ** 70]) for s in h["shapes"]]),
}


@pytest.mark.parametrize("name", sorted(CHECKPOINT_PROBES))
def test_checkpoint_probe_exits_2(name, good, tmp_path, capsys):
    c = Case(good, tmp_path, "checkpoint")
    header, _ = split(c.raw)
    CHECKPOINT_PROBES[name](header)
    assert not c.load(reframe(c.raw, header))
    assert c.eval_exit(capsys) == 2


@pytest.mark.parametrize("name", sorted(DATASET_PROBES))
def test_dataset_probe_exits_2(name, good, tmp_path, capsys):
    c = Case(good, tmp_path, "dataset")
    header, _ = split(c.raw)
    DATASET_PROBES[name](header)
    assert not c.load(reframe(c.raw, header))
    assert c.eval_exit(capsys) == 2


def test_ten_byte_checkpoint_exits_2(good, tmp_path, capsys):
    c = Case(good, tmp_path, "checkpoint")
    assert not c.load(b"CMPLCKPT\x01\x00")
    assert c.eval_exit(capsys) == 2


def test_checkpoint_trailing_bytes_exit_2(good, tmp_path, capsys):
    c = Case(good, tmp_path, "checkpoint")
    assert not c.load(c.raw + b"\x00" * 4)
    assert c.eval_exit(capsys) == 2


@pytest.mark.parametrize("manifest", [
    [], "files", {}, {"files": []}, {"files": [{"name": D.DATA_FILENAME}]},
    {"files": [{"sha256": "0" * 64}]}, {"files": [{"name": 3, "sha256": "0" * 64}]},
], ids=["list", "string", "no-files", "empty-files", "no-sha256", "no-name", "int-name"])
def test_bad_manifest_exits_2(manifest, good, tmp_path, capsys):
    c = Case(good, tmp_path, "dataset")
    (c.data / D.MANIFEST_FILENAME).write_text(json.dumps(manifest))
    with pytest.raises(D.DataFormatError):
        D.load_dataset(c.data)
    assert c.eval_exit(capsys) == 2


def test_manifest_not_json_exits_2(good, tmp_path, capsys):
    c = Case(good, tmp_path, "dataset")
    (c.data / D.MANIFEST_FILENAME).write_bytes(b"{\xff")
    with pytest.raises(D.DataFormatError):
        D.load_dataset(c.data)
    assert c.eval_exit(capsys) == 2


# ---------------------------------------------------------------------------
# fuzz


def test_truncation_at_every_offset(case, capsys):
    for cut in range(len(case.raw)):
        assert not case.load(case.raw[:cut]), cut
        if cut % 97 == 0:
            assert case.eval_exit(capsys) == 2, cut


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_flipped_bytes_load_or_raise_format_error(good, tmp_path_factory, data):
    kind = data.draw(st.sampled_from(["checkpoint", "dataset"]))
    c = Case(good, tmp_path_factory.mktemp("flip"), kind)
    raw = bytearray(c.raw)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
    c.load(bytes(raw))


def _key_edits(header):
    """(label, edit) for dropping and retyping each key, nested ones too."""
    def paths(obj, path=()):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield path + (k,)
                yield from paths(v, path + (k,))
        elif isinstance(obj, list) and obj:
            yield from paths(obj[0], path + (0,))

    def at(h, path):
        for k in path[:-1]:
            h = h[k]
        return h

    for path in paths(header):
        yield f"drop {path}", lambda h, p=path: at(h, p).pop(p[-1])
        for value in RETYPES:
            yield (f"{path}={value!r}",
                   lambda h, p=path, v=value: at(h, p).__setitem__(p[-1], v))


def test_dropped_and_retyped_keys_load_or_raise_format_error(case, capsys):
    header, _ = split(case.raw)
    edits = list(_key_edits(header))
    assert len(edits) > 100
    for i, (label, edit) in enumerate(edits):
        h, _ = split(case.raw)
        edit(h)
        if not case.load(reframe(case.raw, h)) and i % 5 == 0:
            assert case.eval_exit(capsys) == 2, label
