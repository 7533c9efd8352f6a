"""One field checker for every JSON surface.

``dataio.check_fields`` decides which JSON value a field may hold.  The
first tests pin the checker itself.  The fuzz below is generated from the
field tables: every probe value that a table refuses, set on that table's
key, must make ``compol`` exit 2 with one ``error:`` line and no traceback.
A value the table accepts is never run, since some (``epochs`` 2**70) would
run for ever.
"""

import json
import math
import shutil
import struct

import pytest

from compol import cli
from compol import datagen as G
from compol import dataio as D
from compol import model as M
from compol import training as TR

PROBES = [True, 2.5, "x", [1], None, math.inf, math.nan, 2 ** 70, -1]


# ---------------------------------------------------------------------------
# the checker


def test_kinds_and_bounds():
    table = {"n": ("int", 1), "x": ("number", None), "lr": ("positive", None),
             "s": ("str", ("a", "b")), "flag": ("bool", None), "o": ("object", None),
             "xs": (["int"], 0), "opt": (("int", None), 1), "modes": (("int", ["int"]), 1),
             "names": ([["str"]], None)}
    good = {"n": 1, "x": -2.5, "lr": 1e-3, "s": "b", "flag": False, "o": {}, "xs": [0, 3],
            "opt": None, "modes": [1, 2], "names": [["u"], []]}
    D.check_fields(good, table)
    D.check_fields({}, table)                          # absent fields pass
    for key, value in [("n", True), ("n", 1.0), ("x", math.nan), ("x", -math.inf),
                       ("x", 10 ** 400), ("x", False), ("lr", 0), ("s", 1), ("flag", 0),
                       ("o", []), ("xs", [1, 2.0]), ("xs", (1, "2")), ("opt", 1.5),
                       ("modes", [1, None]), ("names", ["u"])]:
        with pytest.raises(TypeError) as info:
            D.check_fields({**good, key: value}, table)
        assert isinstance(info.value, ValueError)      # input errors exit 2 alike
        assert key in str(info.value) and repr(value) in str(info.value)
    for key, value in [("n", 0), ("s", "c"), ("xs", [1, -1]), ("opt", 0), ("modes", [2, 0])]:
        with pytest.raises(ValueError, match=key) as info:
            D.check_fields({**good, key: value}, table)
        assert not isinstance(info.value, TypeError)


def test_int_past_float_range_is_no_number():
    for value in (2 ** 1024, -(10 ** 400)):
        with pytest.raises(D.FieldTypeError, match="finite number"):
            D.check_fields({"x": value}, {"x": ("number", None)})
    D.check_fields({"x": 2 ** 70}, {"x": ("number", None)})


def test_required_closed_and_where():
    table = {"a": ("int", 0), "b": ("str", None)}
    with pytest.raises(ValueError, match=r"^sec\.a is missing$"):
        D.check_fields({"b": "x"}, table, "sec.", required=("a",))
    with pytest.raises(ValueError, match=r"^unknown keys: sec\.c$"):
        D.check_fields({"a": 1, "c": 2}, table, "sec.", closed=True)
    D.check_fields({"a": 1, "c": 2}, table, "sec.")
    with pytest.raises(D.FieldTypeError, match=r"^sec\.b must be a string, got 5$"):
        D.check_fields({"b": 5}, table, "sec.")


# ---------------------------------------------------------------------------
# the generated fuzz


def refused_probes(table, probes=PROBES):
    """(key, probe) for every probe that ``table`` refuses on its own key."""
    out = []
    for key, entry in table.items():
        for value in probes:
            try:
                D.check_fields({key: value}, {key: entry})
            except ValueError:
                out.append((key, value))
    return out


def override_fields(system):
    """The override table ``system_spec`` checks for one system."""
    return {**dict.fromkeys(G._DEFAULTS[system]["params"], ("number", None)),
            **G._SCALAR_FIELDS}


def test_every_table_refuses_some_probes():
    for table in (M._FIELDS, cli._TOP_FIELDS, *(t for t, _ in cli._SECTIONS.values()),
                  cli._GEN_DATA_FLAGS, override_fields("lv"), TR._HEAD_FIELDS,
                  TR._EPOCH_FIELDS, D._MANIFEST_FIELDS, D._STATS_FIELDS, D._STAT_FIELDS,
                  D._CMPD_HEADER, D._CKPT_HEADER, D._PARAM_ENTRY):
        assert {key for key, _ in refused_probes(table)} == set(table)


GEN = ["--system", "lv", "--resolution", "16", "--seed", "1", "--param", "fine_factor=1",
       "--param", "horizon=0.1", "--param", "dt=0.05"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small lv dataset, an experiment doc, and the run trained from it."""
    root = tmp_path_factory.mktemp("fields")
    assert cli.main(["gen-data", "--n", "3", "--out", str(root / "data")] + GEN) == 0
    doc = {"system": {"system": "lv", "fine_factor": 1, "horizon": 0.1, "dt": 0.05},
           "data": {"n_train": 2, "n_test": 1, "resolution": 16, "seed": 1},
           "model": {"processes": 2, "channels": [1, 1], "layers": 1, "width": 4, "modes": 2,
                     "aggregation": "gru"},
           "train": {"epochs": 1, "batch": 2, "lr": 1e-3, "schedule": "cosine"},
           "paths": {"data": str(root / "data"), "out": str(root / "run")}}
    (root / "exp.json").write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(root / "exp.json")]) == 0
    return root, doc


def exits_2(capsys, argv, out=None):
    """``compol argv`` exits 2 with one error line, and writes no ``out``."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, (argv, err)
    assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    assert out is None or not out.exists(), argv


def train_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    exits_2(capsys, ["train", "--config", str(path), "--out", str(tmp_path / "o")],
            tmp_path / "o")


def copy_doc(doc):
    return json.loads(json.dumps(doc))


def test_fuzz_model_section(run, tmp_path, capsys):
    _, doc = run
    for key, value in refused_probes(M._FIELDS):
        bad = copy_doc(doc)
        bad["model"][key] = value
        train_exits_2(capsys, tmp_path, bad)


def test_fuzz_config_sections(run, tmp_path, capsys):
    _, doc = run
    for key, value in refused_probes(cli._TOP_FIELDS):
        train_exits_2(capsys, tmp_path, {**copy_doc(doc), key: value})
    for name, (table, _) in cli._SECTIONS.items():
        for key, value in refused_probes(table):
            bad = copy_doc(doc)
            bad[name][key] = value
            train_exits_2(capsys, tmp_path, bad)


def test_fuzz_system_overrides(run, tmp_path, capsys):
    """Through ``gen-data --param`` and through the config's system section."""
    _, doc = run
    for key, value in refused_probes(override_fields("lv")):
        out = tmp_path / "gen"
        exits_2(capsys, ["gen-data", "--n", "1", "--out", str(out)] + GEN
                + ["--param", f"{key}={json.dumps(value)}"], out)
        bad = copy_doc(doc)
        bad["system"][key] = value
        train_exits_2(capsys, tmp_path, bad)


def test_fuzz_gen_data_flags(tmp_path, capsys):
    """Only integers get past argparse, so only they reach the table."""
    ints = [p for p in PROBES if type(p) is int]
    out = tmp_path / "gen"
    for key, value in refused_probes(cli._GEN_DATA_FLAGS, ints):
        flags = {"n": 1, "seed": 1, key: value}
        exits_2(capsys, ["gen-data", "--system", "lv", "--resolution", "16", "--out", str(out),
                         "--n", str(flags["n"]), "--seed", str(flags["seed"])], out)
    assert cli.main(["gen-data", "--system", "lv", "--n", "1", "--resolution", "16",
                     "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_fuzz_run_record(run, tmp_path, capsys):
    root, _ = run
    head, epoch = (root / "run" / cli.RECORD_FILENAME).read_text().splitlines()[:2]
    for line, table in ((0, TR._HEAD_FIELDS), (1, TR._EPOCH_FIELDS)):
        for key, value in refused_probes(table):
            recs = [json.loads(head), json.loads(epoch)]
            recs[line][key] = value
            (tmp_path / cli.RECORD_FILENAME).write_text(
                "".join(json.dumps(r) + "\n" for r in recs))
            exits_2(capsys, ["export-plot", "--run", str(tmp_path), "--format", "csv"])


def reframe(path, edit):
    """Rewrite the JSON header of a framed file in place with ``edit(header)``."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + hlen:])


def eval_exits_2(capsys, root, tmp_path, manifest=None, data=None, ckpt=None):
    """Eval on copies of the run's files, each edited by the function given for it."""
    shutil.copytree(root / "data", tmp_path / "d", dirs_exist_ok=True)
    shutil.copyfile(root / "run" / cli.CHECKPOINT_FILENAME, tmp_path / "m.ckpt")
    mpath = tmp_path / "d" / D.MANIFEST_FILENAME
    m = json.loads(mpath.read_text())
    if data:
        reframe(tmp_path / "d" / D.DATA_FILENAME, data)
        m["files"][0]["sha256"] = D.sha256_file(tmp_path / "d" / D.DATA_FILENAME)
    if manifest:
        manifest(m)
    mpath.write_text(json.dumps(m))
    if ckpt:
        reframe(tmp_path / "m.ckpt", ckpt)
    exits_2(capsys, ["eval", "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--data", str(tmp_path / "d")])


def setter(*path, value):
    """An edit that sets ``obj[path[0]]...[path[-1]] = value``."""
    def edit(obj):
        for step in path[:-1]:
            obj = obj[step]
        obj[path[-1]] = value
    return edit


def test_fuzz_manifest(run, tmp_path, capsys):
    root, _ = run
    for table, prefix in ((D._MANIFEST_FIELDS, ()), (D._STATS_FIELDS, ("stats",)),
                          (D._STAT_FIELDS, ("stats", "output", 1))):
        for key, value in refused_probes(table):
            eval_exits_2(capsys, root, tmp_path, manifest=setter(*prefix, key, value=value))


def test_fuzz_headers(run, tmp_path, capsys):
    root, _ = run
    for key, value in refused_probes(D._CMPD_HEADER):
        eval_exits_2(capsys, root, tmp_path, data=setter(key, value=value))
    for table, prefix in ((D._CKPT_HEADER, ()), (D._PARAM_ENTRY, ("params", 0)),
                          (M._FIELDS, ("config",))):
        for key, value in refused_probes(table):
            eval_exits_2(capsys, root, tmp_path, ckpt=setter(*prefix, key, value=value))
