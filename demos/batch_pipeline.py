"""Drive the bqc command line end to end from one script.

Writes a config for an 8-level box, synthesizes a transfer on its lowest 3
levels, verifies and simulates the control on the order-6 truncation of the
stored levels, and prints the reports (the order-6 fidelity is whatever the
coupling to levels 4-6 leaves).  Everything lands in ./pipeline_out.

Run:  python3 demos/batch_pipeline.py
"""

import json
import os

from bqcontrol.cli import dispatch

OUT = "pipeline_out"
os.makedirs(OUT, exist_ok=True)

config = {
    "system": {
        "model": "box3d",
        "l": [1.0, 1.3, 1.7],
        "alpha": [0.5, 0.7, 0.9],
        "levels": 8,
    },
    "synthesize": {
        "n": 3,
        "from": "e1",
        "to": "e3",
        "delta": 0.1,
        "tol": 1e-3,
        "seed": 1,
        "verify_order": 6,
    },
    "simulate": {
        "control": os.path.join("synth", "control.json"),
        "state": "e1",
        "target": "e3",
        "order": 6,
        "samples": 32,
    },
    "bound": {"from": "e1", "to": "e3", "eps": 0.05, "delta": 10.0},
}
cfg_path = os.path.join(OUT, "config.json")
with open(cfg_path, "w") as fh:
    json.dump(config, fh, indent=2)

for cmd, sub, flags in (("synthesize", "synth", ["--plot"]),
                        ("simulate", "sim", ["--plot"]),
                        ("bound", "bound", [])):
    out_dir = os.path.join(OUT, sub)
    code = dispatch([cmd, "--config", cfg_path, "--out", out_dir, *flags])
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    print(f"$ bqc {cmd}  -> exit {code}")
    print(json.dumps(report["result"], indent=2))
    print()

print(f"artifacts in {OUT}/: control.json, trajectory.csv, *.plot.dat")
