"""Every raise and except branch of src/bqcontrol runs at least once.

Each test drives one failure path, named after the module and the guard, and
checks the error it ends in: the exception type and the text that names the
offending argument, or the fallback verdict a caught error leads to.
"""

import json
import math
import os

import mpmath
import numpy as np
import pytest

from bqcontrol import linalg, models
from bqcontrol.certification import (constructive_generators, nonresonance,
                                     pairwise_gap_distinct)
from bqcontrol.cli import dispatch
from bqcontrol.linalg import (EigendecompositionError, commutator, expm_skew,
                              skew_eigensystem)
from bqcontrol.models import (box3d_lambda_prime, box3d_system, custom_system,
                              dump_system, system_from_config,
                              system_from_json, truncate)
from bqcontrol.simulation import (Trajectory, as_state, fidelity,
                                  propagate_density, steering_time_lower_bound,
                                  write_trajectory_csv)
from bqcontrol.synthesis import (PiecewiseConstantControl, control_from_json,
                                 decoupling_error, final_state, lift_control,
                                 phase_correction, steer_state, steer_unitary)

SYS = custom_system([0.0, 1.0, 1.0 + math.sqrt(2)],
                    [[0.0, 0.4, 0.1], [0.4, 0.0, 0.4], [0.1, 0.4, 0.0]])
G = truncate(SYS, 3)
E0, E1 = np.eye(3, dtype=complex)[:2]
BOX_L, BOX_ALPHA = (1.0, 1.3, 1.7), (0.5, 0.7, 0.9)


def failing_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# -- linalg -------------------------------------------------------------------


@pytest.mark.parametrize("t", [None, [1.0], 10**400],
                         ids=["none", "list", "huge-int"])
def test_check_real_rejects_non_numbers(t):
    # float() raises TypeError or OverflowError on these; _check_real turns
    # each into a ValueError naming the argument
    with pytest.raises(ValueError, match=r"^t=.* is not a finite number"):
        expm_skew(G.B, t)


def test_failed_eigh_raises_eigendecomposition_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(EigendecompositionError) as info:
        skew_eigensystem(G.B)
    assert info.value.dim == 3
    assert info.value.norm == pytest.approx(0.4)
    assert "dimension 3" in str(info.value)


def test_failed_eigh_in_synthesize_exits_four(monkeypatch, capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "system": {"lambda": [0.0, 1.0], "W": [[0.0, 0.5], [0.5, 0.0]]},
        "synthesize": {"from": "e1", "to": "e2", "delta": 0.1}}))
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    code = dispatch(["synthesize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 4
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "eigendecomposition"


def test_piece_factors_rejects_unknown_frame():
    with pytest.raises(ValueError, match="unknown frame 'bogus'"):
        linalg._piece_factors(G.A, G.B, [1.0], [1.0], "bogus")


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        commutator(np.eye(2), np.eye(3))


# -- models -------------------------------------------------------------------


def test_labels_of_wrong_length():
    with pytest.raises(ValueError, match="labels must have length 2"):
        custom_system([0.0, 1.0], np.zeros((2, 2)), labels=["a"])


def test_box_arguments_of_wrong_length():
    with pytest.raises(ValueError, match="length 3"):
        box3d_system(BOX_L[:2], BOX_ALPHA)
    with pytest.raises(ValueError, match="length 3"):
        box3d_system(BOX_L, BOX_ALPHA + (1.0,))
    with pytest.raises(ValueError, match="length 3"):
        box3d_lambda_prime(BOX_L[:2], BOX_ALPHA, (1, 1, 1))
    with pytest.raises(ValueError, match="length 3"):
        box3d_lambda_prime(BOX_L, BOX_ALPHA[:2], (1, 1, 1))


def test_system_documents_must_be_complete_objects():
    with pytest.raises(ValueError, match="must be a JSON object"):
        system_from_json([0.0, 1.0])
    with pytest.raises(ValueError, match="missing required key 'W'"):
        system_from_json({"levels": 2, "lambda": [0.0, 1.0]})
    with pytest.raises(ValueError, match="must be a JSON object"):
        system_from_config("oscillator")


def test_numpy_scalars_are_written_as_plain_json(tmp_path):
    s = custom_system([0.0, 1.0], np.zeros((2, 2)),
                      meta={"x": np.float64(0.5), "k": np.int64(3)})
    path = tmp_path / "s.json"
    dump_system(s, path)
    assert json.loads(path.read_text())["meta"] == {"x": 0.5, "k": 3}


def test_failed_rename_leaves_no_temp_file(monkeypatch, tmp_path):
    path = tmp_path / "s.json"
    path.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(models.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        dump_system(SYS, path)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["s.json"]


# -- certification ------------------------------------------------------------


def test_certification_input_guards():
    with pytest.raises(ValueError, match="at least one gap"):
        nonresonance([])
    with pytest.raises(ValueError, match="at least two eigenvalues"):
        pairwise_gap_distinct([1.0])
    with pytest.raises(ValueError, match="distinct indices"):
        constructive_generators(G, 1, 1)


GAPS = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0),
                 math.sqrt(7.0), math.pi])  # (61)^6 candidates: PSLQ runs


@pytest.mark.parametrize("result", [
    ValueError("precision exhausted"),
    [0, 0, 0, 0, 0, 0],
    [31, 0, 0, 0, 0, -1],
    [1, 1, 0, 0, 0, 0],
], ids=["raises", "all-zero", "above-Q", "above-threshold"])
def test_pslq_guards_give_none_found(monkeypatch, result):
    calls = []

    def pslq(*args, **kwargs):
        calls.append(1)
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(mpmath, "pslq", pslq)
    verdict = nonresonance(GAPS)
    assert calls == [1]  # the support scan found nothing, so PSLQ decides
    assert verdict.method == "exhaustive(support<=2)+pslq"
    assert verdict.status == "none_found_within_bounds"
    assert verdict.relation is None


# -- simulation ---------------------------------------------------------------


def test_simulation_shape_guards():
    with pytest.raises(ValueError, match="dimension >= 2"):
        as_state([1.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity([1.0, 0.0], E0)
    c = PiecewiseConstantControl("reparametrized", [(0.5, 0.8)], 0.1)
    with pytest.raises(ValueError, match=r"density dimension \(2, 2\)"):
        propagate_density(G, c, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="equal dimension"):
        steering_time_lower_bound(SYS, E0, [1.0, 0.0], 0.01, 0.1)
    with pytest.raises(ValueError, match="exceeds stored levels"):
        steering_time_lower_bound(SYS, np.eye(4)[0], np.eye(4)[1], 0.01, 0.1)


def test_trajectory_of_unknown_kind(tmp_path):
    traj = Trajectory(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)),
                      "bogus", 0.0)
    with pytest.raises(ValueError, match="unknown trajectory kind 'bogus'"):
        write_trajectory_csv(traj, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


# -- synthesis ----------------------------------------------------------------


def test_control_repr():
    c = PiecewiseConstantControl("original", [(1.0, 0.05)], 0.1)
    assert repr(c) == ("PiecewiseConstantControl(frame='original', "
                       "npieces=1, delta=0.1)")


@pytest.mark.parametrize("pieces", [[], [(0.5, 0.05)]], ids=["empty", "one"])
def test_final_state_refuses_a_state_of_another_order(pieces):
    # without pieces the state used to come back unchanged
    c = PiecewiseConstantControl("original", pieces, 0.1)
    with pytest.raises(ValueError, match=r"state dimension 2 != order 3"):
        final_state(G, c, [1.0, 0.0])


def test_control_documents_fail_closed():
    doc = {"frame": "reparametrized", "delta": 0.1,
           "pieces": [{"duration": 1.0, "value": 0.5}]}
    with pytest.raises(ValueError, match="must be a JSON object"):
        control_from_json([doc])
    with pytest.raises(ValueError, match="missing required key 'pieces'"):
        control_from_json({"frame": "reparametrized", "delta": 0.1})
    with pytest.raises(ValueError, match=r"piece duration=\[1.0\]"):
        control_from_json({**doc, "pieces": [{"duration": [1.0],
                                               "value": 0.5}]})
    with pytest.raises(ValueError, match="malformed control document"):
        control_from_json({**doc, "meta": [1]})  # a meta that is no object


def test_steering_shape_guards():
    with pytest.raises(ValueError, match=r"states must have shape \(3,\)"):
        steer_state(G, [1.0, 0.0], E1, delta=0.1)
    with pytest.raises(ValueError, match=r"g0, g1 must have shape \(3, 3\)"):
        steer_unitary(G, np.eye(2), np.eye(2), delta=0.1)


def test_lift_and_decoupling_frame_guards():
    empty = PiecewiseConstantControl("reparametrized", [], 0.1)
    with pytest.raises(ValueError, match="no pieces"):
        lift_control(empty, SYS, 2, 3)
    original = PiecewiseConstantControl("original", [(1.0, 0.05)], 0.1)
    with pytest.raises(ValueError, match="reparametrized control"):
        decoupling_error(original, SYS, 2, 3)


def test_phase_correction_without_admissible_tau():
    # lambda = 0 takes the constant branch (no scan); the coupling bound caps
    # tau at 1e-300 / 2e300, which underflows to 0
    with pytest.raises(ValueError, match="no admissible tau"):
        phase_correction([0.0], 0.5, 0.1, 1e-300, 5.0, coupling_bound=1e300)
