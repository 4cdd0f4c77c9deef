"""Report records serialize from their dataclass fields, documents load
strictly and rewrite to the same bytes, and the package imports without
scipy or a thread pool."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqcontrol
from bqcontrol.certification import certify
from bqcontrol.models import (Record, _write_json, custom_system, dump_system,
                              load_system, truncate)
from bqcontrol.simulation import modulus_drift_check
from bqcontrol.synthesis import (PiecewiseConstantControl, dump_control,
                                 load_control)


def records(r):
    """r and every Record nested in its fields, depth first."""
    yield r
    for f in dataclasses.fields(r):
        v = getattr(r, f.name)
        if isinstance(v, Record):
            yield from records(v)


@st.composite
def systems(draw):
    n = draw(st.integers(2, 5))
    lam = draw(st.one_of(
        st.just([float(k) for k in range(n)]),  # equal gaps: refuted
        st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n, unique=True),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
    return custom_system(lam, W + W.T), n


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(systems())
def test_to_json_keys_are_fields_and_round_trip(case):
    s, n = case
    c = PiecewiseConstantControl("reparametrized", [(0.4, 0.5), (0.3, 2.0)],
                                 0.1)
    psi0 = np.eye(n, dtype=complex)[0]
    drift = modulus_drift_check(truncate(s, n), c, psi0)
    for r in [*records(certify(s, n, Q=6)), drift]:
        doc = r.to_json()
        assert list(doc) == [f.name for f in dataclasses.fields(r)]
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc


@dataclasses.dataclass
class _Pair(Record):
    k: object
    x: object


def test_write_json_bytes_with_numpy_scalars(tmp_path):
    # numpy scalars inside plain lists, dicts, a tuple and a Record
    doc = {"n": np.int64(3),
           "xs": [np.float32(0.5), np.float32(0.1), np.float64(0.1),
                  np.bool_(True)],
           "rec": _Pair(np.int64(-2), (np.float32(1.25),
                                       {"ok": np.bool_(False)})),
           "t": (1, np.int64(7))}
    _write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == (
        b'{\n  "n": 3,\n  "xs": [\n    0.5,\n    0.10000000149011612,\n'
        b'    0.1,\n    true\n  ],\n  "rec": {\n    "k": -2,\n    "x": [\n'
        b'      1.25,\n      {\n        "ok": false\n      }\n    ]\n  },\n'
        b'  "t": [\n    1,\n    7\n  ]\n}\n')
    with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
        _write_json(tmp_path / "array.json", {"a": np.zeros(2)})
    assert not (tmp_path / "array.json").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("dump, load, obj", [
    (dump_system, load_system,
     custom_system([0.0, 1.0], [[0, 1], [1, 0]], meta={"x": 0.25})),
    (dump_control, load_control,
     PiecewiseConstantControl("original", [(0.5, 0.05)], 0.1, {"x": 0.25})),
], ids=["system", "control"])
def test_loaders_refuse_nonfinite_numbers(tmp_path, dump, load, obj, literal):
    path = tmp_path / "doc.json"
    dump(obj, str(path))
    path.write_text(path.read_text().replace("0.25", literal))
    with pytest.raises(ValueError, match=literal):
        load(str(path))


FINITE = {"allow_nan": False, "allow_infinity": False}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(**FINITE)
    | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8)
json_objects = st.dictionaries(st.text(), json_values, max_size=4)


@st.composite
def controls(draw):
    """Either frame, any finite delta and band values, a JSON meta."""
    frame = draw(st.sampled_from(["original", "reparametrized"]))
    delta = draw(st.floats(1e-300, 1e300))
    band = (st.floats(0.0, delta, exclude_min=True, exclude_max=True)
            if frame == "original"
            else st.floats(delta, exclude_min=True, **FINITE))
    pieces = draw(st.lists(st.tuples(
        st.floats(0.0, exclude_min=True, **FINITE), band), max_size=4))
    return PiecewiseConstantControl(frame, pieces, delta,
                                    meta=draw(json_objects))


@st.composite
def labelled_systems(draw):
    """Any finite levels and symmetric couplings, with or without labels."""
    n = draw(st.integers(2, 5))
    lam = draw(st.lists(st.floats(**FINITE), min_size=n, max_size=n))
    W = np.zeros((n, n))
    W[np.triu_indices(n)] = draw(st.lists(
        st.floats(**FINITE), min_size=n * (n + 1) // 2,
        max_size=n * (n + 1) // 2))
    labels = draw(st.none() | st.lists(json_values, min_size=n, max_size=n))
    return custom_system(lam, W + np.triu(W, 1).T, labels=labels,
                         meta=draw(json_objects))


def _rewrite_bytes(dump, load, obj):
    """Bytes of obj written, and of the strict reload of them written again."""
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.json"), os.path.join(d, "b.json")
        dump(obj, first)
        dump(load(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            return a.read(), b.read()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(controls())
def test_control_documents_rewrite_to_the_same_bytes(c):
    first, second = _rewrite_bytes(dump_control, load_control, c)
    assert first == second


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(labelled_systems())
def test_system_documents_rewrite_to_the_same_bytes(s):
    first, second = _rewrite_bytes(dump_system, load_system, s)
    assert first == second


def test_import_loads_no_scipy():
    # nor the unused thread pool behind bqcontrol._parallel
    src = os.path.dirname(os.path.dirname(os.path.abspath(bqcontrol.__file__)))
    code = ("import sys, bqcontrol, bqcontrol.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m in ('concurrent.futures', 'bqcontrol._parallel')))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
