"""Assembled coupled models: forward contracts, branch independence,
parameter streams, counting, and checkpoints."""

import dataclasses
import gc
import os
import re
import weakref

import numpy as np
import pytest

from compol import aggregation as agg
from compol import cli
from compol import dataio as D
from compol import layers as L
from compol import model as M
from compol.dataio import config_hash
from compol import params as P
from compol import tensor as T


def small_cfg(**kw):
    base = dict(processes=2, channels=[1, 1], layers=2, width=8, modes=4,
                spatial_dims=1, aggregation="gru", dtype="real64",
                seed=3)
    base.update(kw)
    return M.CompolConfig(**base)


def rand_inputs(cfg, batch=2, grid=16, seed=0):
    rng = np.random.default_rng(seed)
    shape = (batch,) + (grid,) * cfg.spatial_dims
    return [rng.normal(size=(batch, c) + shape[1:]).astype(cfg.np_dtype)
            for c in cfg.channels]


# ---------------------------------------------------------------------------
# forward contracts


@pytest.mark.parametrize("aggregation", ["gru", "attention", "skip", "none"])
def test_forward_shapes_1d(aggregation):
    cfg = small_cfg(aggregation=aggregation)
    model = M.init_params(cfg)
    outs = M.forward(model, rand_inputs(cfg))
    assert len(outs) == 2
    for m, out in enumerate(outs):
        assert out.shape == (2, cfg.channels[m], 16)
        assert out.data.dtype == np.float64


def test_forward_shapes_2d():
    cfg = small_cfg(spatial_dims=2, modes=3, aggregation="attention")
    model = M.init_params(cfg)
    outs = M.forward(model, rand_inputs(cfg, grid=8))
    assert outs[0].shape == (2, 1, 8, 8)


def test_forward_multichannel_processes():
    cfg = small_cfg(channels=[2, 3])
    model = M.init_params(cfg)
    outs = M.forward(model, rand_inputs(cfg))
    assert outs[0].shape[1] == 2 and outs[1].shape[1] == 3


def test_forward_rejects_wrong_channel_count():
    cfg = small_cfg()
    model = M.init_params(cfg)
    bad = [np.zeros((2, 2, 16)), np.zeros((2, 1, 16))]
    with pytest.raises(T.ShapeError):
        M.forward(model, bad)


@pytest.mark.parametrize("aggregation", ["gru", "attention", "skip", "none"])
def test_forward_without_tape_lets_go_of_the_lift_output(monkeypatch, aggregation):
    """Without a tape, nothing keeps a layer's latents once the next layer
    has used them: by the time the head runs, the lift output is freed by
    reference count alone."""
    cfg = small_cfg(aggregation=aggregation)
    model = M.init_params(cfg)
    lifted, dead_at_project = [], []
    lift, project = M.L.lift, M.L.project

    def spy_lift(*args):
        out = lift(*args)
        lifted.append(weakref.ref(out.data))
        return out

    def spy_project(*args):
        dead_at_project.append([ref() is None for ref in lifted])
        return project(*args)

    monkeypatch.setattr(M.L, "lift", spy_lift)
    monkeypatch.setattr(M.L, "project", spy_project)
    gc.disable()
    try:
        M.forward(model, rand_inputs(cfg))
    finally:
        gc.enable()
    assert dead_at_project == [[True, True]] * 2


def test_forward_is_deterministic():
    cfg = small_cfg(aggregation="attention")
    model = M.init_params(cfg)
    xs = rand_inputs(cfg)
    a = M.forward(model, xs)
    b = M.forward(model, xs)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# branch independence and seed streams


def _branch(model, m):
    """Branch m's arrays, named as in a one-process model."""
    prefix = f"processes.{m}."
    return {"processes.0." + n[len(prefix):]: a for n, a in model.named_parameters()
            if n.startswith(prefix)}


def test_branch_arrays_do_not_depend_on_the_process_count():
    """Process m draws from its own stream, so adding a process leaves the
    arrays of the others bit-identical."""
    two = M.init_params(small_cfg(aggregation="none"))
    three = M.init_params(small_cfg(aggregation="none", processes=3, channels=[1, 1, 1]))
    for m in range(2):
        a, b = _branch(two, m), _branch(three, m)
        assert set(a) == set(b) and all(np.array_equal(a[n], b[n]) for n in a), m


def test_no_aggregation_equals_independent_single_branch_models():
    """With aggregation off, branch m of the coupled model must be
    bit-identical to a standalone single-process model that holds branch
    m's arrays."""
    cfg = small_cfg(aggregation="none")
    coupled = M.init_params(cfg)
    xs = rand_inputs(cfg)
    outs = M.forward(coupled, xs)
    for m in range(2):
        branch = _branch(coupled, m)
        solo = P.with_leaves(M.init_params(
            dataclasses.replace(cfg, processes=1, channels=[cfg.channels[m]])), branch)
        assert [n for n, _ in solo.named_parameters()] == list(branch)
        solo_out = M.forward(solo, [xs[m]])[0]
        assert np.array_equal(outs[m].data, solo_out.data), f"branch {m}"


def test_zeroed_gru_aggregation_matches_independent_branches():
    """Zero aggregation weights make z identically zero; with additive
    injection the branches then decouple exactly."""
    cfg = small_cfg(aggregation="gru")
    model = M.init_params(cfg)
    for name, arr in model.named_parameters():
        if name.startswith("aggregation."):
            arr[...] = 0.0
    # sigmoid(0) = 1/2 gates a zero candidate against a zero state: z = 0
    ref = M.init_params(small_cfg(aggregation="none"))
    xs = rand_inputs(cfg)
    outs = M.forward(model, xs)
    ref_outs = M.forward(ref, xs)
    for m in range(2):
        assert np.array_equal(outs[m].data, ref_outs[m].data), f"branch {m}"


def test_init_reproducible_and_seed_sensitive():
    cfg = small_cfg()
    a = dict(M.init_params(cfg).named_parameters())
    b = dict(M.init_params(cfg).named_parameters())
    assert all(np.array_equal(a[k], b[k]) for k in a)
    c = dict(M.init_params(cfg, seed=99).named_parameters())
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_aggregation_couples_branches():
    """Perturbing process 1's input must move process 0's output when
    aggregation is on, and must not when it is off."""
    for aggregation, coupled in [("gru", True), ("attention", True), ("none", False)]:
        cfg = small_cfg(aggregation=aggregation)
        model = M.init_params(cfg)
        xs = rand_inputs(cfg)
        base = M.forward(model, xs)[0].data
        bumped = [xs[0], xs[1] + 1.0]
        moved = M.forward(model, bumped)[0].data
        changed = not np.allclose(base, moved, atol=1e-12)
        assert changed == coupled, aggregation


# ---------------------------------------------------------------------------
# translation equivariance (the acceptance suite sweeps every shift)


def test_translation_equivariance_spot_float64():
    cfg = small_cfg(aggregation="attention", coords=False)
    model = M.init_params(cfg)
    xs = rand_inputs(cfg, grid=32)
    base = M.forward(model, xs)
    for s in (1, 7, 16):
        rolled = [np.roll(x, s, -1) for x in xs]
        outs = M.forward(model, rolled)
        for m in range(2):
            drift = np.max(np.abs(outs[m].data - np.roll(base[m].data, s, -1)))
            assert drift < 1e-10, (s, m, drift)


def test_coordinate_channels_break_equivariance():
    """With coords on, the model can see absolute position; rolling the
    input is then allowed to change more than a roll of the output."""
    cfg = small_cfg(aggregation="none", coords=True)
    model = M.init_params(cfg)
    xs = rand_inputs(cfg, grid=32)
    base = M.forward(model, xs)[0].data
    rolled = M.forward(model, [np.roll(x, 5, -1) for x in xs])[0].data
    assert not np.allclose(rolled, np.roll(base, 5, -1), atol=1e-10)


# ---------------------------------------------------------------------------
# parameter counting


def test_param_count_convention_counts_complex_twice():
    cfg = small_cfg(layers=1, aggregation="none", coords=False)
    model = M.init_params(cfg)
    counts = M.param_count(model)
    key = "processes.0.layers.0.r"
    assert counts[key] == 2 * 4 * 8 * 8        # 2 * modes * width^2


def test_total_params_matches_manual_sum():
    model = M.init_params(small_cfg())
    total = M.total_params(model)
    manual = sum(a.size * (2 if np.iscomplexobj(a) else 1)
                 for _, a in model.named_parameters())
    assert total == manual


def test_fno_concat_default_parameter_budget():
    """Default single-branch baseline: 4 layers, width 64, 16 modes."""
    cfg = M.config_for_kind("fno-c", M.CompolConfig(processes=2, channels=[1, 1]))
    total = M.total_params(M.init_params(cfg))
    assert abs(total - 583_200) / 583_200 < 0.10, total


def test_config_for_kind_mappings():
    base = small_cfg()
    assert M.config_for_kind("compol-rnn", base).aggregation == "gru"
    assert M.config_for_kind("compol-atn", base).aggregation == "attention"
    assert M.config_for_kind("compol-skip", base).aggregation == "skip"
    fno = M.config_for_kind("fno-c", base)
    assert (fno.processes, fno.channels, fno.aggregation) == (1, [2], "none")
    with pytest.raises(ValueError):
        M.config_for_kind("transformer-xxl", base)


@pytest.mark.parametrize("kw,grid,batches", [
    (dict(layers=4, width=32, modes=12), (64,), (32, 7, 1)),                  # c07
    (dict(layers=4, width=32, modes=[12, 12], spatial_dims=2), (64, 64), (16, 7, 1)),
], ids=["c07", "eval-gs64"])
def test_sample_output_does_not_depend_on_its_batch(kw, grid, batches):
    """A sample's output is the same in a batch of any size, to a stated
    tolerance: BLAS blocks float32 matmuls by the row count, so bitwise
    equality does not hold (about 3e-7 of the output scale is seen)."""
    cfg = M.CompolConfig(processes=2, channels=[1, 1], aggregation="attention",
                         seed=3, **kw)
    model = M.init_params(cfg)
    rng = np.random.default_rng(5)
    xs = [rng.standard_normal((batches[0], 1) + grid).astype(np.float32) for _ in range(2)]
    full = [o.data for o in M.forward(model, xs, None)]
    scale = max(float(np.abs(o).max()) for o in full)
    for b in batches[1:]:
        part = M.forward(model, [x[:b] for x in xs], None)
        for p, f in zip(part, full):
            assert np.abs(p.data - f[:b]).max() <= 1e-6 * scale, b


@pytest.mark.parametrize("kind,want", [
    ("compol-rnn", dict(add=32, affine=42, concat=4, gelu=10, moveaxis=2, mul=12,
                        sigmoid=8, spectral_conv=8, sub=4, tanh=4)),
    ("compol-atn", dict(add=20, affine=26, concat=4, einsum=8, gelu=10, moveaxis=2,
                        reshape=8, scale=8, softmax=4, spectral_conv=8)),
    ("compol-skip", dict(add=20, affine=22, concat=4, gelu=10, moveaxis=2,
                         spectral_conv=8)),
    ("fno-c", dict(add=4, affine=7, gelu=5, moveaxis=1, spectral_conv=4)),
])
def test_forward_tape_nodes_at_the_c07_shape(kind, want):
    """Nodes a training forward records at c07's architecture (2 processes,
    width 32, modes 12, 4 layers; the counts do not depend on batch or
    grid).  Every channel map is one affine node, and the projection's
    transpose is the only layout change on the tape: the lift transposes
    its input before any parameter touches it."""
    cfg = M.config_for_kind(kind, M.CompolConfig(processes=2, channels=[1, 1], layers=4,
                                                 width=32, modes=12, seed=0))
    tape = T.Tape()
    bound = P.bind(M.init_params(cfg), tape)
    start = len(tape)
    M.forward(bound, rand_inputs(cfg, grid=32), tape)
    names = [node.name for node in tape._nodes[start:]]
    assert {n: names.count(n) for n in set(names)} == want


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        M.CompolConfig(processes=2, channels=[1])      # count mismatch
    with pytest.raises(ValueError):
        small_cfg(aggregation="mean-field")
    with pytest.raises(ValueError):
        small_cfg(spatial_dims=3)


@pytest.mark.parametrize("field,value", [
    ("width", 2.5), ("layers", 1.5), ("modes", 4.5), ("modes", (4, 2.5)), ("seed", 1.5),
    ("channels", [1.7, 1]), ("channels", "11"), ("heads", True), ("spatial_dims", True),
    ("processes", 2.0), ("d_mix", 8.0), ("key_width", False), ("coords", 1),
    ("mix", 1), ("aggregation", ["gru"]), ("activation", None), ("dtype", 32),
    ("process_seed_offset", 0.0),
])
def test_config_rejects_wrong_types(field, value):
    """Every field is type-checked, in a config dict and, unless it is pinned,
    in the constructor; bools are not integers, and nothing is truncated to
    fit."""
    with pytest.raises(TypeError, match=field):
        M.CompolConfig.from_dict({**small_cfg().to_dict(), field: value})
    if field not in M._PINNED:
        with pytest.raises(TypeError, match=field):
            small_cfg(**{field: value})


def test_config_drops_attend_history_false_and_refuses_true():
    """Configs and checkpoint headers written before the field was removed
    carry ``attend_history: false``; it loads as the same config."""
    cfg = small_cfg(aggregation="attention")
    assert "attend_history" not in cfg.to_dict()
    legacy = {**cfg.to_dict(), "attend_history": False}
    assert M.CompolConfig.from_dict(legacy) == cfg
    assert legacy["attend_history"] is False          # the caller's dict is left as it was
    for value in (True, 0, "false"):
        with pytest.raises(ValueError, match="attend_history"):
            M.CompolConfig.from_dict({**cfg.to_dict(), "attend_history": value})


def test_config_round_trips_through_dict():
    cfg = small_cfg(modes=(4,), aggregation="attention")
    back = M.CompolConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError):
        M.CompolConfig.from_dict({**cfg.to_dict(), "dropout": 0.5})


def test_pinned_fields_keep_the_config_hash():
    """mix, d_mix, key_width, inject, activation, heads and
    process_seed_offset stay in every config dict, at "linear", null, null,
    "add", "gelu", 1 and 0, so a config holds the bytes and the hash it had
    while they could take other values.  Every checked field reaches the
    dict, so none can drop out of the hash."""
    cfg = small_cfg(aggregation="attention")
    d = cfg.to_dict()
    assert set(d) == set(M._FIELDS)
    assert ((d["mix"], d["d_mix"], d["key_width"], d["inject"], d["activation"], d["heads"],
             d["process_seed_offset"]) == ("linear", None, None, "add", "gelu", 1, 0))
    assert M.CompolConfig.from_dict(d) == cfg
    assert config_hash(d) == "7a3eaa4b7190fd67dda2309820f4ebe2452619af03400c5447908fac21fae7a4"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    model = M.init_params(small_cfg(aggregation="attention"))
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, model, extra={"note": "x", "epoch": 7})
    loaded, extra = M.load_checkpoint(path)
    assert extra == {"note": "x", "epoch": 7}
    want = dict(model.named_parameters())
    got = dict(loaded.named_parameters())
    assert set(want) == set(got)
    for k in want:
        assert np.array_equal(want[k], got[k]), k
    xs = rand_inputs(model.config)
    a = M.forward(model, xs)
    b = M.forward(loaded, xs)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


@pytest.mark.parametrize("kw", [
    dict(aggregation="gru", coords=False),
    dict(aggregation="attention"),
    dict(aggregation="skip", spatial_dims=2, modes=(2, 3)),
    dict(aggregation="none", channels=[1, 3]),
], ids=["gru", "attention", "skip-2d", "none"])
def test_param_elements_match_init_params(kw):
    # init_params checks the declared elements, at their itemsizes, against the machine
    cfg = small_cfg(**kw)
    assert M._param_bytes(cfg) == sum(a.nbytes for _, a in M.init_params(cfg).named_parameters())


def test_init_params_memory_guard_counts_complex_weights_at_their_size(monkeypatch):
    """At the c07 shape the arrays take 988,936 bytes, 393,216 more than
    their element count at the float32 itemsize: the complex spectral
    weights are 8 bytes each.  A machine reported between the two figures
    is refused; one of exactly the arrays' size is not."""
    cfg = M.CompolConfig(processes=2, channels=[1, 1], layers=4, width=32, modes=12,
                         aggregation="gru")
    need = sum(a.nbytes for _, a in M.init_params(cfg).named_parameters())
    assert need == 988_936
    for have, fits in ((800_000, False), (need, True)):
        monkeypatch.setattr(os, "sysconf",
                            lambda name, have=have: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}[name])
        if fits:
            M.init_params(cfg)
        else:
            with pytest.raises(MemoryError, match="the parameters need 988936 bytes"):
                M.init_params(cfg)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTAMAGC" + b"\x00" * 32)
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    model = M.init_params(small_cfg())
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, model)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(path)


def test_checkpoint_version_gate(tmp_path):
    model = M.init_params(small_cfg())
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(path)


# ---------------------------------------------------------------------------
# parameter tree helpers


def test_bind_passes_tensors_through_and_registers_arrays():
    model = M.init_params(small_cfg())
    tape = T.Tape()
    bound = P.bind(model.processes, tape)
    pairs = P.named_tensors(bound, "processes")
    names = [n for n, _ in pairs]
    assert names == [n for n, _ in P.named_arrays(model.processes, "processes")]
    # leaf data aliases the model arrays so optimizer updates flow back
    assert pairs[0][1].data is P.named_arrays(model.processes, "processes")[0][1]
    # binding an already-bound tree is a no-op
    again = P.bind(bound, tape)
    assert P.named_tensors(again, "p")[0][1] is pairs[0][1]


@pytest.mark.parametrize("aggregation", ["gru", "attention", "none"])
def test_forward_binds_array_trees_and_uses_bound_ones_as_they_are(aggregation, monkeypatch):
    """On a tape, a bound tree is used as it is.  Without a tape, a forward
    binds nothing and records nothing."""
    model = M.init_params(small_cfg(aggregation=aggregation))
    xs = rand_inputs(model.config)
    want = [o.data for o in M.forward(model, xs)]
    tape = T.Tape()
    bound = P.bind(model, tape)
    assert not P.is_bound(model.processes) and P.is_bound(bound.processes)
    assert P.is_bound(bound.aggregation) == (aggregation != "none")
    calls = []
    monkeypatch.setattr(M, "bind", lambda tree, t: calls.append(tree) or P.bind(tree, t))
    assert all(np.array_equal(o.data, w) for o, w in zip(M.forward(bound, xs, tape), want))
    assert calls == ([] if aggregation != "none" else [bound.aggregation])
    calls.clear()
    outs = M.forward(model, xs)
    assert calls == [] and all(o.tape is None and o.node_id is None for o in outs)
    assert all(np.array_equal(o.data, w) for o, w in zip(outs, want))


def test_with_leaves_replaces_every_array():
    model = M.init_params(small_cfg(aggregation="attention"))
    named = model.named_parameters()
    table = {name: T.Tensor(arr) for name, arr in named}
    bound = P.with_leaves(model, table)
    assert P.named_arrays(bound) == []
    assert [n for n, _ in P.named_tensors(bound)] == [n for n, _ in named]
    xs = rand_inputs(model.config)
    a = M.forward(model, xs)
    b = M.forward(bound, xs)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


@pytest.mark.parametrize("edit, match", [
    (lambda t: t.pop("processes.0.head.p"), r"parameter processes\.0\.head\.p is missing"),
    (lambda t: t.update(ghost=np.zeros(1)), r"unexpected parameters \['ghost'\]"),
    (lambda t: t.update({"processes.0.head.p": t["processes.0.head.p"][..., :1]}),
     r"processes\.0\.head\.p: shape"),
    (lambda t: t.update({"processes.0.head.p": t["processes.0.head.p"].astype(np.float32)}),
     r"processes\.0\.head\.p: dtype"),
], ids=["missing", "unexpected", "shape", "dtype"])
def test_load_checkpoint_rejects_mismatched_tables(edit, match, tmp_path, capsys):
    """A file whose arrays do not fit its config is refused under the name
    of the first misfit, and ``compol eval`` exits 2 with one error line."""
    model = M.init_params(small_cfg())
    table = dict(model.named_parameters())
    edit(table)
    path = tmp_path / "crafted.ckpt"
    D.write_checkpoint(path, {"config": model.config.to_dict(), "extra": {}}, list(table.items()))
    with pytest.raises(M.CheckpointError, match=match):
        M.load_checkpoint(path)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "none")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and re.search(match, err)


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    """A load builds the model from the file's arrays: no drawer runs and no
    generator is asked for a number."""
    model = M.init_params(small_cfg(aggregation="attention"))
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, model)

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"load_checkpoint called Generator.{name}")

    def no_draw(*args):
        raise AssertionError("load_checkpoint called layers.draw")

    monkeypatch.setattr(L, "draw", no_draw)
    monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
    loaded, _ = M.load_checkpoint(path)
    for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(a, b) and a.dtype == b.dtype and b.flags.writeable, name


@pytest.mark.parametrize("cls, shapes", [
    (L.FourierLayerParams, L.fourier_shapes(4, (3, 2), 2)),
    (L.LiftProjectParams, L.lift_project_shapes(3, 2, 4)),
    (agg.MixParams, agg.mix_shapes(3, 4)),
    (agg.GruParams, agg.gru_shapes(4)),
    (agg.AttentionParams, agg.attention_shapes(4)),
    (agg.SkipParams, agg.skip_shapes(4)),
], ids=["fourier", "lift-project", "mix", "gru", "attention", "skip"])
def test_shape_declarations_list_every_field_in_order(cls, shapes):
    """Each block's shape function names its dataclass's fields in field
    order, and ``draw`` gives each field that shape and the rank's dtype."""
    assert list(shapes) == [f.name for f in dataclasses.fields(cls)]
    block = L.draw(cls, np.random.default_rng(0), shapes, np.float32)
    for name, shape in shapes.items():
        arr = getattr(block, name)
        assert arr.shape == shape
        assert arr.dtype == (np.complex64 if len(shape) > 2 else np.float32)
        assert (len(shape) == 1) == (not arr.any()), name     # only biases start at zero
