"""End-to-end tests for the batch front-end (dispatch called in-process)."""

import json
import math
import os
import re

import pytest

from bqcontrol.cli import dispatch
from bqcontrol.synthesis import PiecewiseConstantControl, dump_control

TWO_LEVEL = {"lambda": [0.0, 1.0], "W": [[0.0, 0.5], [0.5, 0.0]]}
THREE_LEVEL = {
    "lambda": [0.0, 1.0, 2.5],
    "W": [[0.0, 0.4, 0.1], [0.4, 0.0, 0.4], [0.1, 0.4, 0.0]],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    err = capsys.readouterr().err
    return code, err


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def diagnostic(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, f"expected one diagnostic line, got {lines!r}"
    doc = json.loads(lines[0])
    assert set(doc) == {"error", "detail"}
    return doc


# -- error handling -----------------------------------------------------------


def test_missing_subcommand(capsys):
    code, err = run(capsys)
    assert code == 4
    assert "subcommand" in diagnostic(err)["detail"]


def test_unknown_subcommand(capsys):
    code, err = run(capsys, "frobnicate", "--config", "x.json")
    assert code == 4
    assert diagnostic(err)["error"] == "config"


def test_missing_config_file(capsys, tmp_path):
    code, err = run(capsys, "certify", "--config", str(tmp_path / "nope.json"))
    assert code == 4
    assert "not found" in diagnostic(err)["detail"]


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, err = run(capsys, "certify", "--config", str(path))
    assert code == 4
    assert "malformed" in diagnostic(err)["detail"]


def test_missing_section(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {"system": TWO_LEVEL})
    code, err = run(capsys, "certify", "--config", cfg)
    assert code == 4
    assert "certify" in diagnostic(err)["detail"]


def test_negative_seed_rejected(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "synthesize": {"from": "e1", "to": "e2"},
    })
    code, err = run(capsys, "synthesize", "--config", cfg, "--seed", "-1")
    assert code == 4
    assert "seed" in diagnostic(err)["detail"]


def test_unnormalized_state_rejected(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "bound": {"from": [1.0, 1.0], "to": "e2"},
    })
    code, err = run(capsys, "bound", "--config", cfg, "--out", str(tmp_path))
    assert code == 4
    assert "normalized" in diagnostic(err)["detail"]


# -- model --------------------------------------------------------------------


def test_model_oscillator_entry(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"model": "oscillator", "a": -1.0, "b": 1.0, "c": -0.125,
                   "levels": 4},
    })
    code, err = run(capsys, "model", "--config", cfg, "--out", str(tmp_path))
    assert code == 0 and err == ""
    with open(tmp_path / "system.json") as fh:
        doc = json.load(fh)
    assert doc["levels"] == 4
    assert doc["W"][0][1] == pytest.approx(0.25, abs=1e-8)


def test_model_roundtrip_byte_identical(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"model": "box3d", "l": [1.0, 1.1, 1.3],
                   "alpha": [0.4, 0.2, 0.1], "levels": 5},
    })
    code, _ = run(capsys, "model", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    first = (tmp_path / "system.json").read_bytes()
    with open(tmp_path / "system.json") as fh:
        emitted = json.load(fh)
    cfg2 = write_json(tmp_path / "c2.json", {"system": emitted})
    out2 = tmp_path / "second"
    code, _ = run(capsys, "model", "--config", str(cfg2), "--out", str(out2))
    assert code == 0
    assert (out2 / "system.json").read_bytes() == first


def test_model_unsettled_quadrature_exit_four(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"model": "oscillator", "a": -50, "b": 0},
    })
    code, err = run(capsys, "model", "--config", cfg, "--out", str(tmp_path))
    assert code == 4
    doc = diagnostic(err)
    assert doc["error"] == "quadrature"
    assert "256 nodes" in doc["detail"]
    assert not (tmp_path / "system.json").exists()


# -- certify ------------------------------------------------------------------


def test_certify_certified_exit_zero(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"lambda": [0.0, 1.0, 1.0 + 2 ** 0.5],
                   "W": [[0.1, 0.5, 0.2], [0.5, -0.4, 0.5], [0.2, 0.5, 0.3]]},
        "certify": {"n": 3},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "certify", "--config", cfg, "--out", str(out))
    assert code == 0 and err == ""
    report = read_report(out)
    assert report["command"] == "certify"
    assert report["result"]["overall"] == "certified"
    assert re.match(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", report["timestamp"])


def test_certify_refuted_exit_two(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"lambda": [0.0, 1.0, 2.0],
                   "W": [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]]},
        "certify": {"n": 3},
    })
    out = tmp_path / "out"
    code, _ = run(capsys, "certify", "--config", cfg, "--out", str(out))
    assert code == 2
    report = read_report(out)
    assert report["result"]["overall"] == "refuted"
    assert report["result"]["nonresonant_gaps"]["relation"] == [1, -1]


# -- synthesize ---------------------------------------------------------------


def synth_cfg(tmp_path, **extra):
    sec = {"from": "e1", "to": "e2", "delta": 0.1, "tol": 1e-3,
           "budget": 20000, "seed": 7}
    sec.update(extra)
    return write_json(tmp_path / "c.json", {"system": TWO_LEVEL,
                                            "synthesize": sec})


def test_synthesize_converges_and_verifies(capsys, tmp_path):
    cfg = synth_cfg(tmp_path, verify_order=4)
    out = tmp_path / "out"
    code, err = run(capsys, "synthesize", "--config", cfg, "--out", str(out))
    assert code == 0 and err == ""
    report = read_report(out)
    result = report["result"]
    assert result["converged"] is True
    assert result["infidelity"] <= 1e-3
    # the padded levels are uncoupled, so verification cannot lose fidelity
    assert result["verify"]["order"] == 4
    assert result["verify"]["fidelity"] >= 1.0 - 2e-3
    assert result["verify"]["norm_drift"] <= 1e-10
    assert (out / "control.json").exists()


def test_synthesize_unconverged_exit_three(capsys, tmp_path):
    cfg = synth_cfg(tmp_path, budget=300, tol=1e-12)
    out = tmp_path / "out"
    code, _ = run(capsys, "synthesize", "--config", cfg, "--out", str(out))
    assert code == 3
    assert read_report(out)["result"]["converged"] is False


def test_synthesize_budget_too_small_exit_four(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": THREE_LEVEL,
        "synthesize": {"from": "e1", "to": "e2", "budget": 100},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "synthesize", "--config", cfg, "--out", str(out))
    assert code == 4
    assert "125" in diagnostic(err)["detail"]  # (24 starts + 1) * 5 counts
    assert not (out / "control.json").exists()


def test_synthesize_deterministic_modulo_timestamp(capsys, tmp_path):
    cfg = synth_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _ = run(capsys, "synthesize", "--config", cfg, "--out", str(out))
        assert code == 0
        outs.append(out)
    a, b = [read_report(o) for o in outs]
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b
    assert (outs[0] / "control.json").read_bytes() == \
        (outs[1] / "control.json").read_bytes()


def test_seed_flag_overrides_config(capsys, tmp_path):
    cfg = synth_cfg(tmp_path)
    out1, out2 = tmp_path / "s7", tmp_path / "s8"
    run(capsys, "synthesize", "--config", cfg, "--out", str(out1))
    run(capsys, "synthesize", "--config", cfg, "--out", str(out2), "--seed", "8")
    assert read_report(out1)["seed"] == 7
    assert read_report(out2)["seed"] == 8
    assert (out1 / "control.json").read_bytes() != \
        (out2 / "control.json").read_bytes()


def test_synthesize_plot_staircase(capsys, tmp_path):
    cfg = synth_cfg(tmp_path)
    out = tmp_path / "out"
    code, _ = run(capsys, "synthesize", "--config", cfg, "--out", str(out),
                  "--plot")
    assert code == 0
    lines = (out / "control.plot.dat").read_text().splitlines()
    assert lines[0] == "# t u"
    npieces = read_report(out)["result"]["pieces"]
    assert len(lines) == 1 + 2 * npieces


# -- simulate -----------------------------------------------------------------


def test_simulate_empty_control(capsys, tmp_path):
    dump_control(PiecewiseConstantControl("reparametrized", [], 0.1),
                 tmp_path / "empty.json")
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "simulate": {"control": "empty.json", "state": "e1"},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == 0 and err == ""
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus t = 0
    assert read_report(out)["result"]["samples"] == 1


def test_simulate_relative_control_path_and_target(capsys, tmp_path):
    control = PiecewiseConstantControl("reparametrized", [(0.8, 0.3)], 0.1)
    sub = tmp_path / "cfgdir"
    sub.mkdir()
    dump_control(control, sub / "u.json")
    cfg = write_json(sub / "c.json", {
        "system": TWO_LEVEL,
        "simulate": {"control": "u.json", "state": "e1", "target": "e2",
                     "samples": 4},
    })
    out = tmp_path / "out"
    code, _ = run(capsys, "simulate", "--config", cfg, "--out", str(out),
                  "--plot")
    assert code == 0
    result = read_report(out)["result"]
    assert 0.0 <= result["fidelity"] <= 1.0
    assert result["norm_distance"] >= 0.0
    assert result["samples"] == 5
    plot = (out / "trajectory.plot.dat").read_text().splitlines()
    assert plot[0] == "# t pop_0 pop_1"
    assert len(plot) == 6


def test_simulate_missing_control_file(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "simulate": {"control": "ghost.json", "state": "e1"},
    })
    code, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 4
    assert "control file not found" in diagnostic(err)["detail"]


@pytest.mark.parametrize("piece", [
    {"duration": 0.5, "value": math.inf},  # written as "value": Infinity
    {"duration": 1e308, "value": 1e308},  # u A and t w overflow
], ids=["infinity", "overflow"])
def test_simulate_nonfinite_control_fails_closed(capsys, tmp_path, piece):
    doc = {"frame": "reparametrized", "delta": 0.1, "pieces": [piece]}
    (tmp_path / "u.json").write_text(json.dumps(doc))
    cfg = write_json(tmp_path / "c.json", {
        "system": THREE_LEVEL,
        "simulate": {"control": "u.json", "state": "e1", "target": "e2"},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == 4
    diagnostic(err)
    for f in out.iterdir():
        text = f.read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_follow_umask(capsys, tmp_path, umask, mode):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "bound": {"from": "e1", "to": "e2"},
    })
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run(capsys, "bound", "--config", cfg, "--out", str(out))[0] == 0
        assert run(capsys, "model", "--config", cfg, "--out", str(out))[0] == 0
    finally:
        os.umask(old)
    for name in ("report.json", "system.json"):
        assert (out / name).stat().st_mode & 0o777 == mode
    assert sorted(os.listdir(out)) == ["report.json", "system.json"]


# -- bound --------------------------------------------------------------------


def test_bound_finite(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "bound": {"from": "e1", "to": "e2", "eps": 0.2, "delta": 1.0},
    })
    out = tmp_path / "out"
    code, _ = run(capsys, "bound", "--config", cfg, "--out", str(out))
    assert code == 0
    assert read_report(out)["result"]["bound"] == pytest.approx(1.6)


def test_bound_infinite_serialized_as_string(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"lambda": [0.0, 1.0, 2.5],
                   "W": [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        "bound": {"from": "e1", "to": "e3"},
    })
    out = tmp_path / "out"
    code, _ = run(capsys, "bound", "--config", cfg, "--out", str(out))
    assert code == 0
    assert read_report(out)["result"]["bound"] == "inf"
