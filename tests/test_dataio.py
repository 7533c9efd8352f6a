"""Binary field container, manifests, hashing, and dataset round trips."""

import builtins
import ctypes
import gc
import json
import os
import stat
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compol import dataio as D


def tiny_fields(n=3, procs=2, grid=8, seed=0):
    """``fields[process][group]``, each [n, 1, grid]."""
    rng = np.random.default_rng(seed)
    return [[rng.normal(size=(n, 1, grid)).astype(np.float32)] for _ in range(procs)]


def tiny_header():
    return {"groups": ["field"]}


# ---------------------------------------------------------------------------
# raw container


def test_fields_roundtrip(tmp_path):
    path = tmp_path / "x.cmpd"
    fields = tiny_fields()
    D.write_fields(path, tiny_header(), fields)
    header, back = D.read_fields(path)
    assert header["samples"] == 3
    assert header["shapes"] == [{"field": [1, 8]}] * 2
    for p in range(2):
        assert back[p][0].dtype == np.float32 and back[p][0].flags.c_contiguous
        assert np.array_equal(back[p][0], fields[p][0])


def test_fields_interleave_sample_major(tmp_path):
    # payload order is sample, process, group; each field row-major
    path = tmp_path / "x.cmpd"
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = -np.arange(4, dtype=np.float32).reshape(2, 2)
    D.write_fields(path, {"groups": ["a", "b"]}, [[a, b]])
    raw = path.read_bytes()
    payload = np.frombuffer(raw[-4 * 10:], "<f4")
    assert payload.tolist() == [0, 1, 2, 0, -1, 3, 4, 5, -2, -3]
    _, back = D.read_fields(path)
    assert np.array_equal(back[0][0], a) and np.array_equal(back[0][1], b)


def test_write_fields_rejects_uneven_sample_counts(tmp_path):
    fields = tiny_fields()
    fields[1][0] = fields[1][0][:1]
    with pytest.raises(D.DataFormatError):
        D.write_fields(tmp_path / "x.cmpd", tiny_header(), fields)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.cmpd"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(D.DataFormatError):
        D.read_fields(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "x.cmpd"
    D.write_fields(path, tiny_header(), tiny_fields())
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(D.DataFormatError):
        D.read_fields(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.cmpd"
    D.write_fields(path, tiny_header(), tiny_fields())
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x00\x00")
    with pytest.raises(D.DataFormatError):
        D.read_fields(path)


def test_version_gate(tmp_path):
    path = tmp_path / "x.cmpd"
    D.write_fields(path, tiny_header(), tiny_fields())
    raw = bytearray(path.read_bytes())
    raw[8] = 250
    path.write_bytes(bytes(raw))
    with pytest.raises(D.DataFormatError):
        D.read_fields(path)


# ---------------------------------------------------------------------------
# canonical json / hashing


def test_canonical_json_is_key_order_invariant():
    a = {"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}}
    b = {"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1}
    assert D.canonical_json(a) == D.canonical_json(b)
    assert " " not in D.canonical_json(a)
    assert D.config_hash(a) == D.config_hash(b)


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        D.canonical_json({"x": float("nan")})


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=6),
                       st.integers(min_value=-100, max_value=100),
                       max_size=5))
def test_config_hash_stable_under_shuffle(d):
    items = list(d.items())
    shuffled = dict(reversed(items))
    assert D.config_hash(d) == D.config_hash(shuffled)


def test_config_hash_sensitive_to_values():
    assert D.config_hash({"a": 1}) != D.config_hash({"a": 2})


# ---------------------------------------------------------------------------
# datasets


def make_dataset(n=4, grid=8, seed=0):
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=(n, 1, grid)).astype(np.float32) for _ in range(2)]
    outputs = [x * 2 + 1 for x in inputs]
    return inputs, outputs


def test_dataset_roundtrip(tmp_path):
    inputs, outputs = make_dataset()
    meta = {"system": {"system": "demo"}, "seed": 5}
    manifest = D.write_dataset(tmp_path, inputs, outputs, meta)
    assert manifest["counts"] == {"samples": 4, "processes": 2, "channels": [1, 1]}
    ds = D.load_dataset(tmp_path)
    assert ds.n_samples == 4 and ds.processes == 2 and ds.channels == (1, 1)
    for m in range(2):
        assert np.array_equal(ds.inputs[m], inputs[m])
        assert np.array_equal(ds.outputs[m], outputs[m])
    assert ds.manifest["seed"] == 5


def test_dataset_stats_match_numpy(tmp_path):
    inputs, outputs = make_dataset(seed=3)
    manifest = D.write_dataset(tmp_path, inputs, outputs, {})
    st0 = manifest["stats"]["input"][0]
    assert abs(st0["mean"][0] - float(inputs[0].mean())) < 1e-7
    assert abs(st0["std"][0] - float(inputs[0].std())) < 1e-7


def test_dataset_sha256_verification(tmp_path):
    inputs, outputs = make_dataset()
    D.write_dataset(tmp_path, inputs, outputs, {})
    data_path = tmp_path / D.DATA_FILENAME
    raw = bytearray(data_path.read_bytes())
    raw[-1] ^= 0xFF
    data_path.write_bytes(bytes(raw))
    with pytest.raises(D.DataFormatError, match="checksum mismatch"):
        D.load_dataset(tmp_path)


def test_load_dataset_reads_the_data_file_once(tmp_path, monkeypatch):
    """The checksum is taken over the bytes the reader already holds."""
    inputs, outputs = make_dataset()
    D.write_dataset(tmp_path, inputs, outputs, {})
    opened = []
    real_open = builtins.open

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(os.fspath(path)))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert D.load_dataset(tmp_path).n_samples == 4
    assert opened.count(D.DATA_FILENAME) == 1


def test_empty_dataset_valid(tmp_path):
    inputs = [np.zeros((0, 1, 8), dtype=np.float32)] * 2
    outputs = [np.zeros((0, 1, 8), dtype=np.float32)] * 2
    manifest = D.write_dataset(tmp_path, inputs, outputs, {})
    assert manifest["counts"]["samples"] == 0
    assert manifest["stats"]["input"][0] == {"mean": [0.0], "std": [1.0]}
    ds = D.load_dataset(tmp_path)
    assert ds.n_samples == 0


def test_non_finite_fields_rejected(tmp_path):
    inputs, outputs = make_dataset()
    outputs[1][2, 0, 3] = np.nan
    with pytest.raises(ValueError):
        D.write_dataset(tmp_path, inputs, outputs, {})


def test_sample_count_mismatch_rejected(tmp_path):
    inputs, outputs = make_dataset()
    with pytest.raises(ValueError):
        D.write_dataset(tmp_path, inputs, [o[:-1] for o in outputs], {})


def test_manifest_hash_covers_generation_identity(tmp_path):
    inputs, outputs = make_dataset()
    m1 = D.write_dataset(tmp_path / "a", inputs, outputs,
                         {"system": {"system": "demo"}, "seed": 1})
    m2 = D.write_dataset(tmp_path / "b", inputs, outputs,
                         {"system": {"system": "demo"}, "seed": 2})
    assert m1["config_hash"] != m2["config_hash"]


def test_manifest_json_is_deterministic(tmp_path):
    inputs, outputs = make_dataset()
    D.write_dataset(tmp_path / "a", inputs, outputs, {"seed": 1})
    D.write_dataset(tmp_path / "b", inputs, outputs, {"seed": 1})
    a = (tmp_path / "a" / D.MANIFEST_FILENAME).read_bytes()
    b = (tmp_path / "b" / D.MANIFEST_FILENAME).read_bytes()
    assert a == b
    assert b"\t" not in a  # plain indented json, no tabs or timestamps
    parsed = json.loads(a)
    assert "time" not in str(sorted(parsed)).lower()


def test_subset_views():
    inputs, outputs = make_dataset()
    ds = D.FieldDataset(inputs, outputs, {"stats": None})
    sub = ds.subset([2, 0])
    assert sub.n_samples == 2
    assert np.array_equal(sub.inputs[0][0], inputs[0][2])
    assert np.array_equal(sub.inputs[0][1], inputs[0][0])


# ---------------------------------------------------------------------------
# the one writer


def test_write_file_streams_to_a_temp_sibling_then_replaces(tmp_path):
    """While the chunks stream, the final name keeps its old bytes and one
    temp sibling grows; after the last chunk only the new file is left."""
    path = tmp_path / "f.bin"
    path.write_bytes(b"old")
    payload = np.arange(3, dtype="<f4")
    seen = []

    def chunks():
        yield b"new "
        seen.append((path.read_bytes(), sorted(os.listdir(tmp_path))))
        yield np.ascontiguousarray(payload).data

    D.write_file(path, chunks())
    [(during, names)] = seen
    assert during == b"old"
    assert len(names) == 2 and names[1] == "f.bin" and names[0].startswith(".f.bin.")
    assert path.read_bytes() == b"new " + payload.tobytes()
    assert os.listdir(tmp_path) == ["f.bin"]


@pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
def test_write_file_failure_keeps_the_old_file_and_leaves_no_temp(tmp_path, error):
    def chunks():
        yield b"partial"
        raise error

    path = tmp_path / "f.bin"
    path.write_bytes(b"old")
    with pytest.raises(error):
        D.write_file(path, chunks())
    assert path.read_bytes() == b"old"
    with pytest.raises(error):
        D.write_file(tmp_path / "new.bin", chunks())
    assert os.listdir(tmp_path) == ["f.bin"]


def test_write_file_gives_the_mode_of_a_plain_open(tmp_path):
    """0o666 less the umask, as ``open(path, "wb")`` makes a new file, not
    the 0o600 of ``tempfile.mkstemp``."""
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        D.write_file(tmp_path / "written", [b""])
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain", "written")}
    assert len(modes) == 1 and modes != {0o600}


# ---------------------------------------------------------------------------
# glibc malloc thresholds


def test_glibc_thresholds_are_set_once_per_loader_and_skipped_without_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    D._keep_freed_blocks()
    D._keep_freed_blocks()
    assert calls == [(-1, 256 << 20), (-3, 32 << 20)]    # M_TRIM_, M_MMAP_THRESHOLD
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert mallopt.restype is ctypes.c_int

    def refuse(name):
        raise OSError("no C library")

    # a C library without mallopt (as on macOS), or none that loads
    for cdll in (lambda name: types.SimpleNamespace(), refuse):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        D._keep_freed_blocks()


def test_glibc_thresholds_leave_no_garbage():
    """mallopt is looked up once per process: later calls build no CDLL,
    whose function-pointer class would be a reference cycle."""
    gc.collect()
    gc.disable()
    try:
        D._keep_freed_blocks()
        D._keep_freed_blocks()
        assert gc.collect() == 0
    finally:
        gc.enable()
