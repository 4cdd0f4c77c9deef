"""Tests for spectral model construction and serialization."""

import json
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad

from bqcontrol.models import (
    OSC_MAX_LEVELS,
    box3d_lambda_prime,
    box3d_system,
    custom_system,
    dump_system,
    load_system,
    oscillator_system,
    system_from_config,
    system_from_json,
    system_to_json,
    truncate,
)
from bqcontrol.synthesis import control_from_json


# -- custom systems ---------------------------------------------------------


def test_custom_system_sorts_levels():
    s = custom_system([2.0, 0.0, 1.0],
                      [[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]],
                      labels=["c", "a", "b"])
    assert list(s.lam) == [0.0, 1.0, 2.0]
    assert s.labels == ("a", "b", "c")
    # coupling rows/columns permuted consistently: W[0,1] pairs levels (0,1)
    assert s.W[0, 1] == 0.3


def test_custom_system_symmetrizes_small_defects():
    W = np.array([[0.0, 0.5 + 3e-9], [0.5, 0.0]])
    s = custom_system([0.0, 1.0], W)
    assert np.allclose(s.W, s.W.T, atol=0, rtol=0)


def test_custom_system_keeps_couplings_past_half_the_largest_double():
    big = 0.75 * np.finfo(float).max  # big + big overflows
    s = custom_system([0.0, 1.0], [[big, -big], [-big, 0.0]])
    assert s.W.tolist() == [[big, -big], [-big, 0.0]]
    with pytest.raises(ValueError, match="asymmetry inf"):
        custom_system([0.0, 1.0], [[0.0, big], [-big, 0.0]])


def test_custom_system_rejects_asymmetric():
    with pytest.raises(ValueError):
        custom_system([0.0, 1.0], [[0.0, 1.0], [0.0, 0.0]])


def test_custom_system_rejects_bad_shapes():
    with pytest.raises(ValueError):
        custom_system([0.0], [[0.0]])  # fewer than 2 levels
    with pytest.raises(ValueError):
        custom_system([0.0, 1.0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        custom_system([0.0, np.nan], [[0.0, 1.0], [1.0, 0.0]])


def test_arrays_are_frozen():
    s = custom_system([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        s.lam[0] = 7.0
    with pytest.raises(ValueError):
        s.W[0, 0] = 7.0


def test_gaps():
    s = custom_system([0.0, 1.0, 2.5], np.zeros((3, 3)))
    assert np.allclose(s.gaps(), [1.0, 1.5])
    assert np.allclose(s.gaps(2), [1.0])


def test_truncate_shapes_and_content():
    s = custom_system([0.0, 1.0, 2.5], [[0.0, 0.4, 0.1],
                                        [0.4, 0.0, 0.4],
                                        [0.1, 0.4, 0.0]])
    g = truncate(s, 2)
    assert g.order == 2
    assert np.allclose(g.A, np.diag([0.0, 1j]))
    assert np.allclose(g.B, -1j * np.array([[0.0, 0.4], [0.4, 0.0]]))
    assert np.allclose(g.lam, [0.0, 1.0])
    with pytest.raises(ValueError):
        truncate(s, 1)
    with pytest.raises(ValueError):
        truncate(s, 4)


# -- oscillator -------------------------------------------------------------


def hermite_fn(k, x):
    c = np.zeros(k + 1)
    c[k] = 1.0
    norm = math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
    return hermval(x, c) / norm


def osc_entry_quad(j, k, a, b, c):
    f = lambda x: (hermite_fn(j, x) * hermite_fn(k, x)
                   * math.exp(-x * x) * math.exp(a * x * x + b * x + c))
    val, _ = quad(f, -12.0, 12.0, limit=200)
    return val


def test_oscillator_spectrum_and_golden_entry():
    s = oscillator_system(-1.0, 1.0, levels=4)
    assert np.allclose(s.lam, [1.0, 3.0, 5.0, 7.0])
    # normalized c means b^2 / (4 (a - 1)) = -1/8 here
    assert abs(s.W[0, 1] - 0.25) < 1e-10
    assert s.meta["c"] == pytest.approx(-0.125)


def test_oscillator_matches_quadrature_oracle():
    a, b = -0.7, 0.4
    s = oscillator_system(a, b, levels=5)
    c = s.meta["c"]
    for j, k in ((0, 0), (0, 1), (1, 2), (2, 4), (3, 3)):
        assert abs(s.W[j, k] - osc_entry_quad(j, k, a, b, c)) < 1e-9


def test_oscillator_explicit_c():
    s = oscillator_system(-1.0, 1.0, c_mode=-0.125, levels=3)
    assert abs(s.W[0, 1] - 0.25) < 1e-10


def test_oscillator_even_coupling_parity_zeros():
    # b = 0 makes W(x) even, so odd-parity entries vanish
    s = oscillator_system(-0.5, 0.0, levels=6)
    for j in range(6):
        for k in range(6):
            if (j + k) % 2 == 1:
                assert abs(s.W[j, k]) < 1e-14


def test_oscillator_rejects_nonnegative_a():
    with pytest.raises(ValueError):
        oscillator_system(0.0, 1.0)
    with pytest.raises(ValueError):
        oscillator_system(0.5, 1.0)


@pytest.mark.parametrize("a, b, c", [
    (-0.5, 0.3, 1e300),  # exp(c) overflows W[0][0]
    (-1e-6, 60.0, 0.0),  # W[0][0] = e^900 overflows
])
def test_oscillator_overflow_names_the_potential(a, b, c):
    # RuntimeWarning is an error in this suite, so no warning leaks either
    with pytest.raises(ValueError, match=r"overflows .*a=.*b=.*c="):
        oscillator_system(a, b, c_mode=c, levels=4)


def test_oscillator_overflow_past_the_first_entries_names_the_potential():
    # finite up to 60 levels (max |W| 4e266), past the doubles by 100
    oscillator_system(-1e-6, 40.0, c_mode=0.0, levels=60)
    with pytest.raises(ValueError, match=r"overflows .*a=.*b=.*c="):
        oscillator_system(-1e-6, 40.0, c_mode=0.0, levels=100)


def test_oscillator_levels_beyond_the_bound_are_refused():
    with pytest.raises(ValueError, match=r"levels=1025 .* \[2, 1024\]"):
        oscillator_system(-0.5, 0.3, levels=OSC_MAX_LEVELS + 1)


def test_oscillator_builds_200_levels():
    s = oscillator_system(-0.5, 0.3, levels=200)
    assert s.W.shape == (200, 200)
    assert np.all(np.isfinite(s.W))
    assert abs(s.W[0, 0] - 1.0 / math.sqrt(1.5)) <= 1e-15
    for j, k in ((0, 1), (3, 7), (9, 9)):
        assert abs(s.W[j, k] - osc_entry_quad(j, k, -0.5, 0.3, s.meta["c"])) < 1e-9


def test_oscillator_array_c_is_named():
    with pytest.raises(ValueError, match=r"^c=array"):
        oscillator_system(-0.5, 0.3, c_mode=np.array([1.0, 2.0]))


# -- 3D box -----------------------------------------------------------------


def box1d_quad(k, h, alpha, length):
    f = lambda x: ((2.0 / length) * math.sin(k * math.pi * x / length)
                   * math.sin(h * math.pi * x / length) * math.exp(alpha * x))
    val, _ = quad(f, 0.0, length, limit=200)
    return val


def test_box3d_spectrum_sorted_with_labels():
    s = box3d_system([1.0, 1.1, 1.3], [0.2, 0.1, 0.3], levels=6)
    assert np.all(np.diff(s.lam) >= 0)
    assert s.labels[0] == (1, 1, 1)
    pi2 = math.pi ** 2
    expected0 = pi2 * (1.0 + 1.0 / 1.1 ** 2 + 1.0 / 1.3 ** 2)
    assert abs(s.lam[0] - expected0) < 1e-12


def test_box3d_entries_match_quadrature():
    l = [1.0, 1.1, 1.3]
    alpha = [0.2, 0.1, 0.3]
    s = box3d_system(l, alpha, levels=5)
    for j in range(3):
        for k in range(j, 5):
            expected = 1.0
            for ax in range(3):
                expected *= box1d_quad(s.labels[j][ax], s.labels[k][ax],
                                       alpha[ax], l[ax])
            assert abs(s.W[j, k] - expected) < 1e-10


def test_box3d_alpha_zero_gives_identity():
    s = box3d_system([1.0, 1.1, 1.3], [0.0, 0.0, 0.0], levels=5)
    assert np.max(np.abs(s.W - np.eye(5))) < 1e-12


def test_box3d_simple_spectrum_rejects_cube():
    # the unit cube has degenerate triples such as (1,1,2)/(1,2,1)/(2,1,1)
    with pytest.raises(ValueError):
        box3d_system([1.0, 1.0, 1.0], [0.1, 0.2, 0.3], levels=4,
                     simple_spectrum=True)


def test_box3d_lambda_prime_equals_diagonal():
    l = [1.0, 1.1, 1.3]
    alpha = [0.2, 0.1, 0.3]
    s = box3d_system(l, alpha, levels=6)
    for idx, triple in enumerate(s.labels):
        lp = box3d_lambda_prime(l, alpha, triple)
        assert lp == s.W[idx, idx]  # same closed form, bit-identical


def test_box3d_lambda_prime_small_alpha_limit():
    lp = box3d_lambda_prime([1.0, 1.1, 1.3], [1e-5, 1e-5, 1e-5], (1, 1, 1))
    assert abs(lp - 1.0) < 1e-4
    # a zero alpha takes its factor's limit 1, as the builder's diagonal does
    for alpha in ([0.0, 0.1, 0.1], [0.0, 0.0, 1e-200], [0.0, 0.0, 0.0]):
        s = box3d_system([1.0, 1.1, 1.3], alpha, levels=6)
        for idx, triple in enumerate(s.labels):
            lp = box3d_lambda_prime([1.0, 1.1, 1.3], alpha, triple)
            assert lp == s.W[idx, idx]
    assert box3d_lambda_prime([1.0, 1.1, 1.3], [0.0, 0.0, 1e-200],
                              (1, 2, 3)) == 1.0


# -- serialization ----------------------------------------------------------


def test_json_round_trip(tmp_path):
    s = box3d_system([1.0, 1.1, 1.3], [0.2, 0.1, 0.3], levels=4)
    doc = system_to_json(s)
    s2 = system_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(s.lam, s2.lam)
    assert np.array_equal(s.W, s2.W)
    assert s.labels == s2.labels

    path = tmp_path / "system.json"
    dump_system(s, path)
    s3 = load_system(path)
    assert np.array_equal(s.lam, s3.lam)
    # a second dump of the reloaded system is byte-identical
    path2 = tmp_path / "system2.json"
    dump_system(s3, path2)
    assert path.read_text() == path2.read_text()


def test_system_from_json_validates_levels():
    with pytest.raises(ValueError):
        system_from_json({"levels": 3, "lambda": [0.0, 1.0],
                          "W": [[0.0, 0.1], [0.1, 0.0]]})


SYSTEM_DOC = {"levels": 2, "lambda": [0.0, 1.0], "W": [[0.0, 0.5], [0.5, 0.0]]}
CONTROL_DOC = {"frame": "original", "delta": 0.1,
               "pieces": [{"duration": 1.0, "value": 0.05}]}
NOT_OBJECTS = [[0.0, 1.0], "oscillator", None, 3]


def document_cases():
    """(loader, document, exact message): each loader given non-objects and
    its complete document with each required key missing in turn."""
    out = []
    for load, what, full in ((system_from_json, "system document", SYSTEM_DOC),
                             (control_from_json, "control document",
                              CONTROL_DOC),
                             (system_from_config, "system config", None)):
        out += [pytest.param(load, doc, f"{what} must be a JSON object",
                             id=f"{what}-{doc!r}") for doc in NOT_OBJECTS]
        for key in full or ():
            doc = {k: v for k, v in full.items() if k != key}
            out.append(pytest.param(
                load, doc, f"{what} missing required key '{key}'",
                id=f"{what}-no-{key}"))
    # an inline config reaches the system document check
    out.append(pytest.param(
        system_from_config, {"lambda": [0.0, 1.0]},
        "system document missing required key 'W'", id="system config-no-W"))
    return out


@pytest.mark.parametrize("load, doc, message", document_cases())
def test_documents_must_be_objects_with_required_keys(load, doc, message):
    with pytest.raises(ValueError) as e:
        load(doc)
    assert str(e.value) == message


def test_system_from_config_dispatch():
    osc = system_from_config({"model": "oscillator", "a": -1.0, "b": 1.0,
                              "c": "normalized", "levels": 4})
    assert np.allclose(osc.lam, [1.0, 3.0, 5.0, 7.0])
    box = system_from_config({"model": "box3d", "l": [1.0, 1.1, 1.3],
                              "alpha": [0.0, 0.0, 0.0], "levels": 3})
    assert box.levels == 3
    inline = system_from_config({"lambda": [0.0, 1.0],
                                 "W": [[0.0, 0.5], [0.5, 0.0]]})
    assert inline.levels == 2  # levels key optional inline
    with pytest.raises(ValueError):
        system_from_config({"model": "pendulum"})
