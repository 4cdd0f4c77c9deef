"""End-to-end tests for the batch front-end (dispatch called in-process)."""

import inspect
import json
import math
import os
import re
import subprocess
import sys

from unittest import mock

import numpy as np
import pytest

import bqcontrol
from bqcontrol import cli, simulation
from bqcontrol.certification import certify
from bqcontrol.cli import dispatch
from bqcontrol.models import OSC_MAX_LEVELS, system_from_config, truncate
from bqcontrol.simulation import Trajectory, fidelity, propagate
from bqcontrol.synthesis import (PiecewiseConstantControl, dump_control,
                                 load_control, steer_state)

TWO_LEVEL = {"lambda": [0.0, 1.0], "W": [[0.0, 0.5], [0.5, 0.0]]}
THREE_LEVEL = {
    "lambda": [0.0, 1.0, 2.5],
    "W": [[0.0, 0.4, 0.1], [0.4, 0.0, 0.4], [0.1, 0.4, 0.0]],
}
FOUR_LEVEL = {  # TWO_LEVEL's pair coupled to two more stored levels
    "lambda": [0.0, 1.0, 2.5, 4.2],
    "W": [[0.0, 0.5, 0.1, 0.05], [0.5, 0.0, 0.4, 0.1], [0.1, 0.4, 0.0, 0.3],
          [0.05, 0.1, 0.3, 0.0]],
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


@pytest.mark.parametrize("command, text, named", [
    ("bound", '[1, 2]', "config root must be a JSON object"),
    ("model", '{"system": 3}', "config must contain a 'system' object"),
    ("certify", '{"system": %s, "certify": {"n": 1}}' % json.dumps(THREE_LEVEL),
     "certify.n: order must be >= 2, got 1"),
    ("certify", '{"system": %s, "certify": {"n": 5}}' % json.dumps(THREE_LEVEL),
     "certify.n=5 exceeds the 3 stored levels"),
    ("simulate", '{"system": %s, "simulate": {"control": 5}}'
     % json.dumps(THREE_LEVEL), "simulate.control must be a file path"),
    ("simulate", '{"system": %s, "simulate": {"control": "u.json", '
     '"state": "e1", "order": 1}}' % json.dumps(THREE_LEVEL),
     "order must be >= 2, got 1"),
    ("synthesize", '{"system": %s, "synthesize": {"from": "e1", "to": "e2", '
     '"n": 4}}' % json.dumps(THREE_LEVEL),
     "synthesize.n=4 exceeds the 3 stored levels"),
    ("synthesize", '{"system": %s, "synthesize": {"from": "e1", "to": "e2", '
     '"n": 2, "verify_order": 4}}' % json.dumps(THREE_LEVEL),
     "synthesize.verify_order=4 exceeds the 3 stored levels"),
    ("simulate", '{"system": %s, "simulate": {"control": "u.json", '
     '"state": "e1", "order": 4}}' % json.dumps(THREE_LEVEL),
     "simulate.order=4 exceeds the 3 stored levels"),
    ("certify", '{"system": %s, "certify": {"n": 3, "q": 30}}'
     % json.dumps(THREE_LEVEL), "unknown config key certify.q"),
    ("synthesize", '{"system": %s, "synthesize": {"from": "e1", "to": "e2", '
     '"n": 2, "verify-order": 3}}' % json.dumps(THREE_LEVEL),
     "unknown config key synthesize.verify-order"),
    ("simulate", '{"system": %s, "simulate": {"control": "u.json", '
     '"state": "e1", "sample": 4}}' % json.dumps(THREE_LEVEL),
     "unknown config key simulate.sample"),
    ("bound", '{"system": %s, "bound": {"from": "e1", "to": "e2", '
     '"epsilon": 0.1}}' % json.dumps(THREE_LEVEL),
     "unknown config key bound.epsilon"),
    ("certify", '{"system": {"model": "oscillator", "a": -0.5, "b": 0.3, '
     '"level": 3}, "certify": {"n": 3}}', "unknown key system.level"),
    ("certify", '{"system": %s, "certify": {"n": 3}}'
     % json.dumps({**THREE_LEVEL, "level": 2}), "unknown key system.level"),
], ids=["root-list", "system-number", "certify-n-1", "certify-n-above-levels",
        "control-number", "simulate-order-1", "synthesize-n-above-levels",
        "verify-order-above-levels", "simulate-order-above-levels",
        "certify-unknown-key", "synthesize-unknown-key",
        "simulate-unknown-key", "bound-unknown-key",
        "oscillator-unknown-system-key", "inline-unknown-system-key"])
def test_config_shape_fails_closed(capsys, tmp_path, command, text, named):
    (tmp_path / "u.json").write_text(json.dumps(CONTROL))
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    code, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 4
    doc = diagnostic(err)
    assert doc["error"] == "config" and named in doc["detail"]
    assert not out.exists() or not any(out.iterdir())


# the flags each subcommand takes besides --config and --out
FLAGS_READ = {"certify": (), "synthesize": ("--seed", "--plot"),
              "simulate": ("--plot",), "bound": (), "model": ()}
FLAG_ARGV = {"--seed": ["--seed", "5"], "--plot": ["--plot"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, read in FLAGS_READ.items()
    for flag in FLAG_ARGV if flag not in read])
def test_unread_flag_is_a_usage_error(capsys, tmp_path, command, flag):
    # the config is valid for every subcommand: only the flag is at fault
    (tmp_path / "u.json").write_text(json.dumps(CONTROL))
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "certify": {"n": 2},
        "synthesize": {"from": "e1", "to": "e2"},
        "simulate": {"control": "u.json", "state": "e1"},
        "bound": {"from": "e1", "to": "e2"},
    })
    out = tmp_path / "out"
    code, err = run(capsys, command, "--config", cfg, "--out", str(out),
                    *FLAG_ARGV[flag])
    assert code == 4
    doc = diagnostic(err)
    assert json.loads(err, parse_constant=pytest.fail) == doc  # strict JSON
    assert doc["error"] == "config" and flag in doc["detail"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["bound", "--conf", "c.json", "--o", "out"],
    ["synthesize", "--c", "c.json", "--s", "9", "--p"],
], ids=["bound-conf-o", "synthesize-c-s-p"])
def test_abbreviated_flag_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                           argv):
    # argparse would read a unique prefix as the full flag and run the job
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "synthesize": {"from": "e1", "to": "e2", "budget": 200},
        "bound": {"from": "e1", "to": "e2"},
    })
    code, err = run(capsys, *argv)
    assert code == 4
    doc = diagnostic(err)
    assert json.loads(err, parse_constant=pytest.fail) == doc  # strict JSON
    assert doc["error"] == "config"
    assert sorted(os.listdir(tmp_path)) == ["c.json"]  # nothing written


def test_out_naming_a_file_is_an_io_error(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "bound": {"from": "e1", "to": "e2"},
    })
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code, err = run(capsys, "bound", "--config", cfg, "--out", str(out))
    assert code == 4
    assert diagnostic(err)["error"] == "io"
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("bound, code", [({"from": "e1", "to": "e2"}, 0),
                                         ({"from": "e9", "to": "e2"}, 4)],
                         ids=["ok", "config-error"])
def test_module_entry_point_exit_code(tmp_path, bound, code):
    cfg = write_json(tmp_path / "c.json", {"system": TWO_LEVEL,
                                           "bound": bound})
    src = os.path.dirname(os.path.dirname(bqcontrol.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "bqcontrol.cli", "bound", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert (tmp_path / "out" / "report.json").exists() == (code == 0)
    if code:
        assert "bound.from" in diagnostic(proc.stderr)["detail"]
    else:
        assert proc.stderr == ""


def test_negative_seed_rejected(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "synthesize": {"from": "e1", "to": "e2"},
    })
    code, err = run(capsys, "synthesize", "--config", cfg, "--seed", "-1")
    assert code == 4
    assert "seed" in diagnostic(err)["detail"]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("spelling", ["synthesize.seed", "--seed"])
def test_seed_outside_uint64_fails_closed(capsys, tmp_path, spelling, seed):
    # one rule for both spellings: an integer in [0, 2^64), named as spelled
    sec = {"from": "e1", "to": "e2", "budget": 200}
    if spelling == "synthesize.seed":
        sec["seed"], flag = seed, []
    else:
        sec["seed"], flag = 5, ["--seed", str(seed)]
    cfg = write_json(tmp_path / "c.json", {"system": TWO_LEVEL,
                                           "synthesize": sec})
    out = tmp_path / "out"
    code, err = run(capsys, "synthesize", "--config", cfg, "--out", str(out),
                    *flag)
    assert code == 4
    assert diagnostic(err) == {
        "error": "config",
        "detail": f"{spelling}={seed} is not an integer in "
                  "[0, 18446744073709551615]"}
    assert not out.exists() or not any(out.iterdir())


def test_bad_config_seed_fails_under_seed_flag(capsys, tmp_path):
    # --seed replaces a valid synthesize.seed, not a mistyped one
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "synthesize": {"from": "e1", "to": "e2", "seed": "abc"},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "synthesize", "--config", cfg, "--out", str(out),
                    "--seed", "5")
    assert code == 4
    doc = diagnostic(err)
    assert doc["error"] == "config"
    assert "synthesize.seed" in doc["detail"]
    assert not out.exists() or not any(out.iterdir())


def test_unnormalized_state_rejected(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "bound": {"from": [1.0, 1.0], "to": "e2"},
    })
    code, err = run(capsys, "bound", "--config", cfg, "--out", str(tmp_path))
    assert code == 4
    assert "normalized" in diagnostic(err)["detail"]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("command, sec", [
    ("bound", '{"from": "e1", "to": "e2", "delta": %s}'),
    ("synthesize", '{"from": "e1", "to": "e2", "delta": %s}'),
    ("synthesize", '{"from": "e1", "to": [%s, 0, 0]}'),
    ("simulate", '{"control": "u.json", "state": [%s, 0, 0]}'),
], ids=["bound-delta", "synthesize-delta", "synthesize-to", "simulate-state"])
def test_nonfinite_config_number_fails_closed(capsys, tmp_path, literal,
                                              command, sec):
    (tmp_path / "u.json").write_text(json.dumps(CONTROL))
    cfg = tmp_path / "c.json"
    cfg.write_text('{"system": %s, "%s": %s}'
                   % (json.dumps(THREE_LEVEL), command, sec % literal))
    out = tmp_path / "out"
    code, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 4
    assert literal in diagnostic(err)["detail"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, delta", [
    ("synthesize", 1e308),  # delta * 1e3, the value ceiling, overflows
    ("bound", 1e-320),  # the bound's 1 / delta overflows
])
def test_overflowing_delta_names_the_field(capsys, tmp_path, command, delta):
    cfg = write_json(tmp_path / "c.json", {
        "system": THREE_LEVEL,
        command: {"from": "e1", "to": "e2", "delta": delta},
    })
    out = tmp_path / "out"
    code, err = run(capsys, command, "--config", cfg, "--out", str(out))
    assert code == 4
    assert "delta" in diagnostic(err)["detail"]  # one line, no warning
    assert not out.exists() or not any(out.iterdir())


def test_overflowing_state_norm_rejected(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": TWO_LEVEL,
        "bound": {"from": [1e200, 0.0], "to": "e2"},
    })
    code, err = run(capsys, "bound", "--config", cfg, "--out", str(tmp_path))
    assert code == 4
    assert "normalized" in diagnostic(err)["detail"]  # one line, no warning


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


def test_model_oscillator_at_a_minus_50_builds(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"model": "oscillator", "a": -50, "b": 0},
    })
    code, err = run(capsys, "model", "--config", cfg, "--out", str(tmp_path))
    assert code == 0 and err == ""
    with open(tmp_path / "system.json") as fh:
        doc = json.load(fh)
    assert doc["W"][0][0] == pytest.approx(1.0 / math.sqrt(51.0), rel=1e-15)
    assert "quad_nodes" not in doc["meta"]


def test_model_oscillator_past_the_level_bound_exit_four(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"model": "oscillator", "a": -0.5, "b": 0.3,
                   "levels": OSC_MAX_LEVELS + 1},
    })
    code, err = run(capsys, "model", "--config", cfg, "--out", str(tmp_path))
    assert code == 4
    doc = diagnostic(err)
    assert doc["error"] == "config"
    assert "levels=1025" in doc["detail"] and "1024" in doc["detail"]
    assert not (tmp_path / "system.json").exists()


def test_model_oscillator_overflow_is_one_config_line(tmp_path):
    # exp(c) overflows W[0][0]: one config line naming c and no numpy
    # warnings (run as a process: a warning would reach stderr)
    cfg = write_json(tmp_path / "c.json", {"system": {
        "model": "oscillator", "a": -0.5, "b": 0.3, "c": 1e300, "levels": 4}})
    src = os.path.dirname(os.path.dirname(bqcontrol.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "bqcontrol.cli", "model", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 4
    doc = diagnostic(proc.stderr)
    assert doc["error"] == "config"
    assert doc["detail"].startswith("invalid system spec:")
    assert "c=1e+300" in doc["detail"]
    assert not (tmp_path / "out" / "system.json").exists()


@pytest.mark.parametrize("edge", ["1e200", "1e150"])
def test_model_box_without_separable_spectrum_exit_four(capsys, tmp_path,
                                                        edge):
    # 1/l^2 underflows to 0 at 1e200; at 1e150 the levels tie in double
    cfg = tmp_path / "c.json"
    cfg.write_text('{"system": {"model": "box3d", "l": [%s, 1, 1], '
                   '"alpha": [0.5, 0.7, 0.9]}}' % edge)
    out = tmp_path / "out"
    code, err = run(capsys, "model", "--config", str(cfg), "--out", str(out))
    assert code == 4
    detail = diagnostic(err)["detail"]
    assert "l^2" in detail or "BOX_MAX_MODE" in detail
    assert not (out / "system.json").exists()


def test_model_box_alpha_below_the_least_square_takes_the_limit(capsys,
                                                                 tmp_path):
    # (alpha l)^2 underflows to 0 here; the diagonal used to divide by it
    cfg = write_json(tmp_path / "c.json", {"system": {
        "model": "box3d", "l": [1, 1, 1], "alpha": [0, 0, 1e-200],
        "levels": 3}})
    code, err = run(capsys, "model", "--config", cfg, "--out", str(tmp_path))
    assert code == 0 and err == ""
    with open(tmp_path / "system.json") as fh:
        W = json.load(fh)["W"]
    assert [W[i][i] for i in range(3)] == [1.0, 1.0, 1.0]


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


def test_certify_inconclusive_exit_zero(capsys, tmp_path):
    # 12 generic levels: at Q=30, tol=1e-9 a gap relation exists for any 11
    # gaps, so the search stops at its floor and the verdict is inconclusive
    rng = np.random.default_rng(1)
    W = rng.normal(0.0, 1.0, (12, 12))
    cfg = write_json(tmp_path / "c.json", {
        "system": {"lambda": np.sort(rng.uniform(0.0, 20.0, 12)).tolist(),
                   "W": (W + W.T).tolist()},
        "certify": {"n": 12},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "certify", "--config", cfg, "--out", str(out))
    assert code == 0 and err == ""
    result = read_report(out)["result"]
    assert result["overall"] == "inconclusive"
    gaps = result["nonresonant_gaps"]
    assert gaps["status"] == "inconclusive_precision"
    assert gaps["relation"] is None
    assert 0.0 < gaps["floor"] <= 1e-9 * np.linalg.norm(gaps["gaps"])


def test_certify_n_takes_an_integral_float(capsys, tmp_path):
    # certify.n is read like every other integer field, so 3.0 counts as 3
    results = []
    for n in (3, 3.0):
        cfg = write_json(tmp_path / "c.json", {"system": THREE_LEVEL,
                                               "certify": {"n": n}})
        out = tmp_path / f"out{n!r}"
        code, err = run(capsys, "certify", "--config", cfg, "--out", str(out))
        assert code in (0, 2) and err == ""
        results.append((code, read_report(out)["result"]))
    assert results[0] == results[1]


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


def test_certify_negative_tolerance_exit_four(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {"lambda": [0.0, 1.0, 3.0, 4.0],
                   "W": [[0.2, 0.5, 0.3, 0.1], [0.5, -0.4, 0.6, 0.2],
                         [0.3, 0.6, 0.1, 0.7], [0.1, 0.2, 0.7, 0.5]]},
        "certify": {"n": 4, "tol": -1},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "certify", "--config", cfg, "--out", str(out))
    assert code == 4
    doc = diagnostic(err)
    assert doc["error"] == "invalid-input" and "tol" in doc["detail"]
    assert not (out / "report.json").exists()


def test_certify_negative_max_depth_exit_four(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": THREE_LEVEL,
        "certify": {"n": 3, "max_depth": -5},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "certify", "--config", cfg, "--out", str(out))
    assert code == 4
    assert "max_depth" in diagnostic(err)["detail"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, sec, start", [
    ("certify", {"n": 3, "tol": -1}, "certify: tol=-1.0 "),
    ("synthesize", {"from": "e1", "to": "e2", "budget": 100},
     "synthesize: budget 100 leaves no room"),
    ("simulate", {"control": "u.json", "state": "e1"},
     "simulate: the propagator overflows"),
    ("bound", {"from": "e1", "to": "e2", "delta": 1e-320}, "bound: "),
], ids=["certify", "synthesize", "simulate", "bound"])
def test_invalid_input_names_its_section(capsys, tmp_path, command, sec,
                                         start):
    # a value the library refuses is reported under the section holding it
    (tmp_path / "u.json").write_text(json.dumps(
        {"frame": "reparametrized", "delta": 0.1,
         "pieces": [{"duration": 1e308, "value": 1e308}]}))
    cfg = write_json(tmp_path / "c.json", {"system": THREE_LEVEL,
                                           command: sec})
    code, err = run(capsys, command, "--config", cfg, "--out",
                    str(tmp_path / "out"))
    assert code == 4
    doc = diagnostic(err)
    assert doc["error"] == "invalid-input"
    assert doc["detail"].startswith(start)


def test_system_overflow_is_a_system_spec_error(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": {**BOX, "alpha": [1e300, 0.7, 0.9]}})
    code, err = run(capsys, "model", "--config", cfg, "--out", str(tmp_path))
    assert code == 4
    assert diagnostic(err) == {
        "error": "config",
        "detail": "invalid system spec: alpha=1e+300 overflows the coupling "
                  "at l=1.0"}


# -- synthesize ---------------------------------------------------------------


def synth_cfg(tmp_path, system=TWO_LEVEL, **extra):
    sec = {"from": "e1", "to": "e2", "delta": 0.1, "tol": 1e-3,
           "budget": 20000, "seed": 7}
    sec.update(extra)
    return write_json(tmp_path / "c.json", {"system": system,
                                            "synthesize": sec})


def test_synthesize_converges_and_verifies(capsys, tmp_path):
    cfg = synth_cfg(tmp_path, FOUR_LEVEL, n=2, verify_order=4)
    out = tmp_path / "out"
    code, err = run(capsys, "synthesize", "--config", cfg, "--out", str(out))
    assert code == 0 and err == ""
    report = read_report(out)
    result = report["result"]
    assert result["converged"] is True
    assert result["infidelity"] <= 1e-3
    # verification propagates the control on the stored order-4 truncation
    control = load_control(out / "control.json")
    g = truncate(system_from_config(FOUR_LEVEL), 4)
    e1, e2 = np.eye(4, dtype=complex)[:2]
    final = propagate(g, control, e1, samples_per_piece=1).final
    assert result["verify"]["order"] == 4
    assert result["verify"]["fidelity"] == fidelity(e2, final)
    assert result["verify"]["norm_drift"] <= 1e-10


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


def test_synthesize_verify_order_below_n_exit_four(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "system": THREE_LEVEL,
        "synthesize": {"from": "e1", "to": "e2", "n": 3, "verify_order": 2},
    })
    out = tmp_path / "out"
    code, err = run(capsys, "synthesize", "--config", cfg, "--out", str(out))
    assert code == 4
    detail = diagnostic(err)["detail"]
    assert "synthesize.verify_order" in detail and "synthesize.n" in detail
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


def _library_defaults(fn, *names):
    return {name: inspect.signature(fn).parameters[name].default
            for name in names}


@pytest.mark.parametrize("command, sec, spelled", [
    ("certify", {"n": 3}, _library_defaults(certify, "Q", "tol",
                                             "max_depth")),
    ("synthesize", {"from": "e1", "to": "e2"},
     _library_defaults(steer_state, "tol", "budget", "seed")),
    ("simulate", {"control": "u.json", "state": "e1"},
     {"samples": _library_defaults(propagate, "samples_per_piece")
      ["samples_per_piece"]}),
])
def test_omitted_keys_take_the_library_defaults(capsys, tmp_path, command,
                                                sec, spelled):
    # bqc states no default of its own where the library has one: leaving
    # the keys out writes what spelling out the library's defaults writes
    (tmp_path / "u.json").write_text(json.dumps(CONTROL))
    runs = []
    for name, section in (("omitted", sec), ("spelled", {**sec, **spelled})):
        cfg = write_json(tmp_path / f"{name}.json", {"system": THREE_LEVEL,
                                                     command: section})
        out = tmp_path / name
        code, err = run(capsys, command, "--config", cfg, "--out", str(out))
        assert err == ""
        report = read_report(out)
        del report["timestamp"], report["config"]
        files = {f.name: f.read_bytes() for f in out.iterdir()
                 if f.name != "report.json"}
        runs.append((code, report, files))
    assert runs[0] == runs[1]
    assert set(runs[0][2]) == {"certify": set(), "synthesize": {"control.json"},
                               "simulate": {"trajectory.csv"}}[command]


@pytest.mark.parametrize("command, sec, key, accepted", [
    ("certify", {"n": 3}, "max_depth", True),
    ("synthesize", {"from": "e1", "to": "e2", "n": 2}, "verify_order", True),
    ("certify", {"n": 3}, "Q", False),
    ("synthesize", {"from": "e1", "to": "e2"}, "budget", False),
    ("simulate", {"control": "u.json", "state": "e1"}, "samples", False),
])
def test_null_stands_for_the_default_only_where_documented(
        capsys, tmp_path, command, sec, key, accepted):
    (tmp_path / "u.json").write_text(json.dumps(CONTROL))
    results = []
    for name, section in (("omitted", sec), ("null", {**sec, key: None})):
        cfg = write_json(tmp_path / f"{name}.json", {"system": THREE_LEVEL,
                                                     command: section})
        out = tmp_path / name
        code, err = run(capsys, command, "--config", cfg, "--out", str(out))
        results.append((code, err, out))
    (code, err, out), (null_code, null_err, null_out) = results
    if accepted:
        assert null_code == code and null_err == err == ""
        assert read_report(null_out)["result"] == read_report(out)["result"]
    else:
        assert null_code == 4
        assert diagnostic(null_err) == {
            "error": "config",
            "detail": f"{command}.{key}=None is not an integer in [-inf, inf]"}
        assert not null_out.exists() or not any(null_out.iterdir())


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


def _reference_tables(traj):
    """trajectory.csv and trajectory.plot.dat of a state trajectory, built
    by printing every number on its own with "%.17g"."""
    n = traj.states.shape[1]
    csv = [",".join(["t"] + [f"{p}_{k}" for k in range(n) for p in ("re", "im")]
                    + [f"pop_{k}" for k in range(n)])]
    plot = ["# " + " ".join(["t"] + [f"pop_{k}" for k in range(n)])]
    for t, psi, pop in zip(traj.times, traj.states, traj.populations):
        amp = [x for z in psi for x in (z.real, z.imag)]
        csv.append(",".join("%.17g" % x for x in [t, *amp, *pop]))
        plot.append(" ".join("%.17g" % x for x in [t, *pop]))
    return ("".join(line + "\n" for line in csv).encode(),
            "".join(line + "\n" for line in plot).encode())


def _simulate_plot(capsys, tmp_path, system, control, samples, make=None):
    """Run `bqc simulate --plot`; (the trajectory it wrote, the out dir).
    make(trajectory) replaces the propagated trajectory when given."""
    dump_control(control, tmp_path / "u.json")
    order = len(system["lambda"])
    cfg = write_json(tmp_path / "c.json", {"system": system, "simulate": {
        "control": "u.json", "order": order, "state": "e1",
        "samples": samples}})
    seen = []

    def spy(*args, **kwargs):
        traj = propagate(*args, **kwargs)
        seen.append(make(traj) if make else traj)
        return seen[-1]

    out = tmp_path / "out"
    with mock.patch.object(cli, "propagate", spy):
        code, err = run(capsys, "simulate", "--config", cfg, "--out", str(out),
                        "--plot")
    assert code == 0 and err == "" and len(seen) == 1
    return seen[0], out


@pytest.mark.parametrize("order", [2, 40])
def test_simulate_plot_tables_match_per_number_reference(capsys, tmp_path,
                                                         order):
    rng = np.random.default_rng(order)
    W = rng.normal(0.0, 0.3, (order, order))
    system = {"lambda": np.cumsum(rng.uniform(0.5, 1.5, order)).tolist(),
              "W": ((W + W.T) / 2.0).tolist()}
    control = PiecewiseConstantControl(
        "reparametrized", [(0.7, 1.3), (0.4, 2.1), (0.9, 0.6)], 0.1)
    traj, out = _simulate_plot(capsys, tmp_path, system, control, 11)
    assert len(traj.times) == 34
    csv, plot = _reference_tables(traj)
    assert (out / "trajectory.csv").read_bytes() == csv
    assert (out / "trajectory.plot.dat").read_bytes() == plot


EXTREME = [-0.0, 5e-324, -2.2e-311, 1e300, -1e300, 0.1, 1.0]


@pytest.mark.parametrize("rows", [1, len(EXTREME)], ids=["one-row", "rows"])
def test_simulate_plot_tables_print_extreme_values(capsys, tmp_path, rows):
    # signed zeros, subnormals and 1e300 in every column, through the CLI
    def extreme(traj):
        x = np.array(EXTREME[:rows])
        states = np.stack([x + 1j * x[::-1], x[::-1] - 1j * x], axis=1)
        return Trajectory(x[::-1], states, np.stack([x, -x], axis=1), "state",
                          traj.norm_drift)

    control = PiecewiseConstantControl("reparametrized", [(0.8, 0.3)], 0.1)
    traj, out = _simulate_plot(capsys, tmp_path, TWO_LEVEL, control, 2,
                               extreme)
    csv, plot = _reference_tables(traj)
    assert (out / "trajectory.csv").read_bytes() == csv
    assert (out / "trajectory.plot.dat").read_bytes() == plot
    if rows > 1:
        assert all(v in csv for v in (
            b",-0,", b"4.9406564584124654e-324", b"-2.2000000000000822e-311",
            b"1.0000000000000001e+300", b"-1.0000000000000001e+300"))


def test_simulate_refuses_oversized_trajectory_before_allocating(capsys,
                                                                 tmp_path):
    # 1 + 2 pieces * 1e8 samples rows of 2 entries: refused up front
    dump_control(PiecewiseConstantControl("reparametrized",
                                          [(0.5, 0.3), (0.5, 0.7)], 0.1),
                 tmp_path / "u.json")
    cfg = write_json(tmp_path / "c.json", {"system": TWO_LEVEL, "simulate": {
        "control": "u.json", "state": "e1", "samples": 100000000}})
    out = tmp_path / "out"
    with mock.patch.object(simulation, "_piece_factors",
                           side_effect=AssertionError("allocated")):
        code, err = run(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == 4
    doc = diagnostic(err)
    assert doc["error"] == "invalid-input"
    assert doc["detail"].startswith("simulate: 200000001 samples")
    assert str(simulation.MAX_TRAJECTORY_ENTRIES) in doc["detail"]
    assert list(out.iterdir()) == []


def test_simulate_bad_target_fails_before_any_artifact(capsys, tmp_path):
    dump_control(PiecewiseConstantControl("reparametrized", [(0.8, 0.3)], 0.1),
                 tmp_path / "u.json")
    cfg = write_json(tmp_path / "c.json", {"system": TWO_LEVEL, "simulate": {
        "control": "u.json", "state": "e1", "target": "e9"}})
    out = tmp_path / "out"
    with mock.patch.object(cli, "propagate",
                           side_effect=AssertionError("propagated")):
        code, err = run(capsys, "simulate", "--config", cfg, "--out", str(out),
                        "--plot")
    assert code == 4
    assert "simulate.target" in diagnostic(err)["detail"]
    assert list(out.iterdir()) == []


CONTROL = {"frame": "reparametrized", "delta": 0.1,
           "pieces": [{"duration": 0.8, "value": 0.3}]}


OSCILLATOR = {"model": "oscillator", "a": -0.5, "b": 0.3, "levels": 5}
BOX = {"model": "box3d", "l": [1.0, 1.3, 1.7], "alpha": [0.5, 0.7, 0.9],
       "levels": 6}


@pytest.mark.parametrize("command, sec, control, named, system", [
    ("certify", {"n": 3, "tol": [1]}, None, "certify.tol", THREE_LEVEL),
    ("certify", {"n": 3, "Q": [30]}, None, "certify.Q", THREE_LEVEL),
    ("certify", {"n": 3, "max_depth": [2]}, None, "certify.max_depth",
     THREE_LEVEL),
    ("certify", {"n": 3, "Q": 2.9}, None, "certify.Q", THREE_LEVEL),
    ("synthesize", {"from": "e1", "to": "e2", "n": None}, None, "synthesize.n",
     THREE_LEVEL),
    ("synthesize", {"from": "e1", "to": "e2", "budget": [1]}, None,
     "synthesize.budget", THREE_LEVEL),
    ("bound", {"from": "e1", "to": "e2", "eps": {}}, None, "bound.eps",
     THREE_LEVEL),
    ("simulate", {"control": "u.json", "state": "e1", "order": [3]}, CONTROL,
     "simulate.order", THREE_LEVEL),
    ("simulate", {"control": "u.json", "state": "e1"},
     {**CONTROL, "pieces": [{"value": 0.3}]}, "pieces", THREE_LEVEL),
    ("simulate", {"control": "u.json", "state": "e1"},
     {**CONTROL, "pieces": None}, "pieces", THREE_LEVEL),
    ("certify", {"n": "3"}, None, "certify.n", THREE_LEVEL),
    ("certify", {"n": True}, None, "certify.n", THREE_LEVEL),
    ("certify", {"n": 4}, None, "a=", {**OSCILLATOR, "a": "-0.5"}),
    ("certify", {"n": 4}, None, "simple_spectrum",
     {**OSCILLATOR, "simple_spectrum": "x"}),
    ("certify", {"n": 4}, None, "simple_spectrum",
     {**BOX, "simple_spectrum": "true"}),
    ("certify", {"n": 3}, None, "lambda",
     {**THREE_LEVEL, "lambda": ["0", "1", "2.5"]}),
    ("certify", {"n": 3}, None, "levels", {**THREE_LEVEL, "levels": "3"}),
    ("simulate", {"control": "u.json", "state": "e1"},
     {**CONTROL, "pieces": [{"duration": "0.8", "value": 0.3}]}, "duration",
     THREE_LEVEL),
    ("bound", {"from": ["1", "0", "0"], "to": "e2"}, None, "bound.from",
     THREE_LEVEL),
    ("bound", {"from": [True, 0, 0], "to": "e2"}, None, "bound.from",
     THREE_LEVEL),
    ("simulate", {"control": "u.json", "state": [[1, "0"], 0, 0]}, CONTROL,
     "simulate.state", THREE_LEVEL),
    ("simulate", {"control": "u.json", "state": "e1"},
     {**CONTROL, "meta": {"x": math.nan}}, "NaN", THREE_LEVEL),
    *[("simulate", {"control": "u.json", "state": "e1"},
       {**CONTROL, "meta": meta}, "meta must be a JSON object", THREE_LEVEL)
      for meta in ([], False, "xy", [["k", 1]])],
    ("bound", {"from": "x2", "to": "e2"}, None, "bound.from", THREE_LEVEL),
    ("bound", {"from": "e", "to": "e2"}, None, "bound.from", THREE_LEVEL),
    ("bound", {"from": "e0", "to": "e2"}, None, "bound.from", THREE_LEVEL),
    ("simulate", {"control": "u.json", "state": "e4", "order": 3}, CONTROL,
     "simulate.state", THREE_LEVEL),
    ("synthesize", {"from": "e1", "to": [0, 1]}, None, "synthesize.to",
     THREE_LEVEL),
    ("bound", {"from": "e1", "to": 2}, None, "bound.to", THREE_LEVEL),
    ("bound", {"from": {"re": 1.0}, "to": "e2"}, None, "bound.from",
     THREE_LEVEL),
    ("bound", {"from": "e1", "to": "e2"}, None, "lambda",
     {**THREE_LEVEL, "lambda": [0.0, 1.0, True]}),
    ("bound", {"from": "e1", "to": "e2"}, None, "b=True",
     {**OSCILLATOR, "b": True}),
    ("simulate", {"control": "u.json", "state": "e1"},
     {**CONTROL, "pieces": [{"duration": True, "value": 0.3}]}, "duration",
     THREE_LEVEL),
    *[("bound", {"from": "e1", "to": spec}, None,
       "bound.to: unknown state spec", THREE_LEVEL)
      for spec in ("e1_0", "e\u0663", "e+1", "e 2", "e01")],
    ("bound", {"from": "e1", "to": "e" + "9" * 5000}, None,
     "bound.to: basis index", THREE_LEVEL),  # beyond int()'s digit limit
], ids=["tol-list", "Q-list", "max_depth-list", "Q-fraction", "n-null",
        "budget-list", "eps-object", "order-list", "piece-no-duration",
        "pieces-null", "certify-n-text", "certify-n-bool", "oscillator-a-text",
        "simple_spectrum-text", "box-simple_spectrum-text", "lambda-text",
        "levels-text", "duration-text", "state-text", "state-bool",
        "state-pair-text", "control-meta-nan",
        "control-meta-list", "control-meta-false", "control-meta-text",
        "control-meta-pairs", "state-x2", "state-e",
        "state-e0", "state-e4-order3", "state-wrong-length", "state-number",
        "state-object", "lambda-bool", "oscillator-b-bool", "duration-bool",
        "state-underscore", "state-arabic-indic-digit", "state-sign",
        "state-space", "state-leading-zero", "state-5000-digits"])
def test_mistyped_config_fails_closed(capsys, tmp_path, command, sec, control,
                                      named, system):
    if control is not None:
        (tmp_path / "u.json").write_text(json.dumps(control))
    cfg = write_json(tmp_path / "c.json", {"system": system, command: sec})
    out = tmp_path / "out"
    code, err = run(capsys, command, "--config", cfg, "--out", str(out))
    assert code == 4
    doc = diagnostic(err)
    # every mistake in a config field, the control file included, is "config"
    assert doc["error"] == "config" and named in doc["detail"]
    assert not (out / "report.json").exists()


def test_control_file_errors_name_the_field_and_path(capsys, tmp_path):
    (tmp_path / "u.json").write_text(
        json.dumps({**CONTROL, "meta": {"x": math.nan}}))
    cfg = write_json(tmp_path / "c.json", {
        "system": THREE_LEVEL,
        "simulate": {"control": "u.json", "state": "e1"},
    })
    code, err = run(capsys, "simulate", "--config", cfg, "--out",
                    str(tmp_path / "out"))
    assert code == 4
    assert diagnostic(err) == {
        "error": "config",
        "detail": f"simulate.control {tmp_path / 'u.json'}: number NaN is "
                  "not a finite double",
    }


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


@pytest.mark.parametrize("command, key", [("bound", "to"),
                                          ("simulate", "target")])
def test_vector_state_specs_match_basis_spec(capsys, tmp_path, command, key):
    # a real vector, [re, im] pairs and a vector 1e-9 off unit norm (taken
    # and normalized) all name e2; the reports and artifacts match "e2"'s
    (tmp_path / "u.json").write_text(json.dumps(CONTROL))
    base = {"from": "e1"} if command == "bound" else {
        "control": "u.json", "state": [1.0 + 1e-9, 0, 0], "samples": 3}
    specs = ["e2", [0, 1, 0], [[0, 0], [1, 0], [0, 0]], [0, 1.0 + 1e-9, 0]]
    reports = []
    for i, spec in enumerate(specs):
        cfg = write_json(tmp_path / f"c{i}.json", {
            "system": THREE_LEVEL, command: {**base, key: spec}})
        out = tmp_path / f"out{i}"
        code, err = run(capsys, command, "--config", cfg, "--out", str(out))
        assert code == 0 and err == ""
        files = {f.name: f.read_bytes() for f in out.iterdir()
                 if f.name != "report.json"}
        reports.append((read_report(out)["result"], files))
    assert all(r == reports[0] for r in reports[1:])
    if command == "simulate":
        # the state 1e-9 off unit norm starts the trajectory at e1 exactly
        rows = reports[0][1]["trajectory.csv"].decode().splitlines()
        assert reports[0][0]["norm_drift"] <= 1e-12 and len(rows) == 5
