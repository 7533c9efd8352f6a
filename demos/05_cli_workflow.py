"""
The command-line workflow
=========================

Everything in demos 02-04 is also reachable from the `compol` entry point,
driven by a JSON experiment config.  This demo shells through the whole
loop in a temp directory:

  gen-data -> train -> eval -> export-plot

The run directory keeps the resolved config (with hashes filled in), an
epoch-by-epoch record, and the best checkpoint, so a run can be audited or
re-plotted long after the fact.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

work = Path(tempfile.mkdtemp(prefix="compol_cli_"))
data, run = work / "data", work / "run"


def compol(*args):
    cmd = [sys.executable, "-m", "compol.cli", *map(str, args)]
    print("$ compol", " ".join(map(str, args)))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    out = (proc.stdout + proc.stderr).strip()
    if out:
        print("  " + "\n  ".join(out.splitlines()[:10]))
    if proc.returncode != 0:
        raise SystemExit(f"command failed with {proc.returncode}")
    return proc.stdout


# 1. simulate a small dataset (quick variant: coarser solve, short horizon)
compol("gen-data", "--system", "lv", "--n", "32", "--resolution", "32",
       "--seed", "5", "--out", data,
       "--param", "fine_factor=2", "--param", "horizon=1.0",
       "--param", "dt=0.02")

# 2. training wants one JSON document holding the whole experiment
config = {
    "system": {"system": "lv", "fine_factor": 2, "horizon": 1.0, "dt": 0.02},
    "data": {"n_train": 24, "n_test": 8, "resolution": 32, "seed": 5},
    "model": {"processes": 2, "channels": [1, 1], "layers": 3, "width": 16,
              "modes": 8, "aggregation": "gru", "seed": 0},
    "train": {"epochs": 12, "batch": 8, "lr": 2e-3, "schedule": "cosine"},
}
cfg_path = work / "experiment.json"
cfg_path.write_text(json.dumps(config, indent=2))
compol("train", "--config", cfg_path, "--data", data, "--out", run)

# the run directory is self-describing
print("run artifacts:", sorted(p.name for p in run.iterdir()))
resolved = json.loads((run / "config.json").read_text())
print("config hash:", resolved["config_hash"],
      "| kind:", resolved["model_kind"])

# 3. score the retained checkpoint on the same dataset
compol("eval", "--checkpoint", run / "checkpoint.ckpt", "--data", data)

# 4. export the learning curve as CSV (first lines shown)
csv = compol("export-plot", "--run", run, "--format", "csv")
print("  " + "\n  ".join(csv.splitlines()[:4]))
