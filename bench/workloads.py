"""Inputs and jobs of the three workloads: steer, certify and verify.

A round is a fixed list of jobs.  Each job calls into bqcontrol under a
tracer span and returns its result; its check compares that result with a
computation made apart from bqcontrol (see checks.py) and returns True when
the operation failed (a search that did not converge).  Round r of a run
draws its inputs from numpy.random.default_rng([seed, r]); inputs named
FIXED below do not depend on the seed.  `reduced` rounds run the same kinds
of jobs on smaller inputs for the self-check and for the layers a traced
workload does not exercise itself.
"""

import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

import bqcontrol as bq
from bqcontrol.cli import dispatch

import checks
from checks import require

WORKLOADS = ("steer", "certify", "verify")

# README quick-start system, 3 levels (FIXED)
QS_LAM = np.array([0.0, 1.0, 1.0 + math.sqrt(2.0)])
QS_W = np.array([[0.0, 0.4, 0.1], [0.4, 0.0, 0.4], [0.1, 0.4, 0.0]])
# 2-level system and forward target of demos/density_and_unitaries.py (FIXED)
DEMO_LAM = np.array([-0.5, 0.5])
DEMO_W = np.array([[0.0, 0.6], [0.6, 0.0]])
# reachable 3-level unitary target: reparametrized pieces (duration, value)
# on the quick-start system; the search fails to reach it (FIXED)
FIXED3_PIECES = ((0.7, 0.5), (1.3, 2.0), (0.4, 0.9))
# box model and the known 3-piece control whose end state is the target
BOX_L, BOX_ALPHA = (1.0, 1.3, 1.7), (0.5, 0.7, 0.9)
BOX_PIECES = ((0.1, 0.4), (0.15, 1.2), (0.12, 0.7))
# 5-level generic spectrum and 2-piece target for the oscillation lift (FIXED)
LIFT_LAM = np.array([0.0, 1.050147, 2.029601, 2.975209, 4.463352])
LIFT_W = np.array([
    [0.42872, -0.14066, -0.304776, -0.147566, -0.368375],
    [-0.14066, -0.620555, 0.136304, -0.32448, 0.243956],
    [-0.304776, 0.136304, -0.009973, -0.167784, -0.357791],
    [-0.147566, -0.32448, -0.167784, 0.066699, 0.261839],
    [-0.368375, 0.243956, -0.357791, 0.261839, -0.011169],
])
LIFT_TARGET = ((0.5, 0.8), (0.7, 1.5))
DELTA = 0.1
STEER_TOL = 1e-3
Q, GAP_TOL = 30, 1e-9


@dataclass
class Job:
    kind: str       # job class, e.g. "steer_state"; sums into job.<kind>_s
    label: str      # input family, e.g. "quickstart"
    run: Callable   # run(tracer, job_id) -> result
    check: Callable  # check(result) -> True when the operation failed
    api: Callable = None  # simulate jobs: the same work through the API


def basis(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


class Fixed:
    """Program-built systems shared by every round (built once, in set-up)."""

    def __init__(self):
        self.qs = bq.custom_system(QS_LAM, QS_W)
        self.demo = bq.custom_system(DEMO_LAM, DEMO_W)
        self.box = bq.box3d_system(BOX_L, BOX_ALPHA, levels=40)
        self.osc = bq.oscillator_system(-0.5, 0.3, levels=40)
        self.parity = bq.oscillator_system(-0.5, 0.0, levels=12)
        self.lift = bq.custom_system(LIFT_LAM, LIFT_W)
        self.lift_reference = {}  # (n, N) -> first lift output of the run
        A, B = checks.generators(QS_LAM, QS_W)
        self.fixed3_target = checks.propagator(A, B, FIXED3_PIECES)
        A, B = checks.generators(DEMO_LAM, DEMO_W)
        self.demo_target = scipy.linalg.expm(1.1 * (0.9 * A + B))
        self.box_targets = {}
        for n in (4, 5):
            A, B = checks.generators(self.box.lam[:n], self.box.W[:n, :n])
            self.box_targets[n] = checks.propagator(A, B, BOX_PIECES) @ basis(n, 0)


# ---------------------------------------------------------------------------
# steer
# ---------------------------------------------------------------------------


def _state_job(label, system, n, x1, seed, tol):
    lam, W = system.lam[:n], system.W[:n, :n]
    x0 = basis(n, 0)

    def run(tr, jid):
        g = bq.truncate(system, n)
        with tr.span(f"synthesis.steer_state:{label}", jid):
            return bq.steer_state(g, x0, x1, delta=DELTA, tol=tol, seed=seed)

    def check(res):
        checks.check_state_steer(lam, W, x0, x1, tol, DELTA, res)
        return not res.converged

    return Job("steer_state", label, run, check)


def _unitary_job(label, system, G1, seed, budget):
    n = system.levels
    G0 = np.eye(n, dtype=complex)

    def run(tr, jid):
        g = bq.truncate(system, n)
        with tr.span(f"synthesis.steer_unitary:{label}", jid):
            return bq.steer_unitary(g, G0, G1, delta=DELTA, tol=STEER_TOL,
                                    seed=seed, budget=budget)

    def check(res):
        checks.check_unitary_steer(system.lam, system.W, G0, G1, STEER_TOL, res)
        return not res.converged

    return Job("steer_unitary", label, run, check)


def steer_round(fx, rng, reduced, out_dir):
    """Search seeds are drawn from rng; targets are FIXED (see README)."""
    n_qs, n_demo = (1, 1) if reduced else (4, 56)
    qs_seeds = rng.integers(0, 2**31, n_qs)
    demo_seeds = rng.integers(0, 2**31, n_demo)
    jobs = [_state_job("quickstart", fx.qs, 3, basis(3, 2), int(s),
                       STEER_TOL) for s in qs_seeds]
    # a looser tolerance keeps the reduced box searches to a fraction of a second
    box_tol = 2e-2 if reduced else STEER_TOL
    jobs += [_state_job(f"box{n}", fx.box, n, fx.box_targets[n], 1, box_tol)
             for n in (4, 5)]
    jobs += [_unitary_job("demo2", fx.demo, fx.demo_target, int(s), 60000)
             for s in demo_seeds]
    # the default budget is what the search fails within; reduced rounds
    # keep the same failure at a twentieth of the cost
    jobs.append(_unitary_job("fixed3", fx.qs, fx.fixed3_target, 0,
                             3000 if reduced else 60000))
    return jobs


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def random_spectrum(rng, n):
    lam = np.sort(rng.uniform(0.0, 20.0, n))
    W = rng.normal(0.0, 1.0, (n, n))
    return lam, (W + W.T) / 2.0


def _certify_job(label, system, lam, W, n, must=None):
    def run(tr, jid):
        with tr.span("certification.certify", jid):
            rep = bq.certify(system, n, Q=Q, tol=GAP_TOL)
        return rep, (system, n)

    def check(out):
        doc = out[0].to_json()
        checks.check_certify(doc, lam, W, n, Q, GAP_TOL)
        if must is not None:
            require(must(doc), f"{label} n={n}: unexpected verdict {doc['overall']}")
        return False

    return Job("certify", label, run, check)


def _pairwise_job(lam):
    label = f"pairwise{len(lam)}"

    def run(tr, jid):
        with tr.span(f"certification.pairwise_gap_distinct:{label}", jid):
            return bq.pairwise_gap_distinct(lam, GAP_TOL)

    def check(res):
        mine = checks.colliding_pairs(lam, GAP_TOL)
        require(set(res.violations) == mine, f"{label}: gap collisions")
        require(res.ok == (not mine), f"{label}: ok flag")
        return False

    return Job("certify", label, run, check)


def _constructive_job(lam, W):
    n = len(lam)
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    system = bq.custom_system(lam, W)

    def run(tr, jid):
        g = bq.truncate(system, n)
        with tr.span("certification.constructive_generators", jid):
            return [bq.constructive_generators(g, j, k) for j, k in pairs]

    def check(gens):
        for (j, k), gen in zip(pairs, gens):
            checks.check_constructive(W, j, k, gen)
        return False

    return Job("certify", f"constructive{n}", run, check)


def _model_job(label, build, couplings, entries):
    def run(tr, jid):
        with tr.span(f"models.{label}", jid):
            return build()

    def check(system):
        for j, k in entries:
            ref = couplings(system, j, k)
            require(abs(system.W[j, k] - ref) <= 1e-9,
                    f"{label} W[{j}][{k}] = {system.W[j, k]:.12g}, quad {ref:.12g}")
        return False

    return Job("model", label, run, check)


def _refuted_by_relation(doc):
    return doc["overall"] == "refuted" and doc["nonresonant_gaps"]["relation"]


def _refuted_by_collisions(doc):
    return doc["overall"] == "refuted" and not doc["pairwise_gaps_distinct"]["ok"]


def _refuted_by_invariant_set(doc):
    return doc["overall"] == "refuted" and not doc["connected"]["connected"]


def certify_round(fx, rng, reduced, out_dir):
    small = (3, 4) if reduced else (3, 3, 4, 4, 5, 5)
    large = (8,) if reduced else (12, 16, 20)
    jobs = []
    for n in small + large:
        lam, W = random_spectrum(rng, n)
        jobs.append(_certify_job(f"random{n}", bq.custom_system(lam, W), lam, W, n))
    for n in ((6,) if reduced else (6, 10)):
        jobs.append(_certify_job("oscillator", fx.osc, fx.osc.lam, fx.osc.W, n,
                                 _refuted_by_relation))
    jobs.append(_certify_job("parity", fx.parity, fx.parity.lam, fx.parity.W, 6,
                             _refuted_by_invariant_set))
    for n in ((6,) if reduced else (6, 10, 14)):
        jobs.append(_certify_job("box", fx.box, fx.box.lam, fx.box.W, n,
                                 _refuted_by_collisions))
    jobs.append(_pairwise_job(np.sort(rng.uniform(0.0, 100.0, 20 if reduced else 80))))
    n = 4 if reduced else 6
    lam = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
    W = rng.normal(0.0, 0.5, (n, n))
    jobs.append(_constructive_job(lam, (W + W.T) / 2.0))

    levels = 12 if reduced else 40
    osc_entries = [tuple(sorted(rng.integers(0, 10, 2))) for _ in range(3)]
    box_entries = [tuple(sorted(rng.integers(0, levels, 2))) for _ in range(3)]
    jobs.append(_model_job(
        "oscillator_system",
        lambda: bq.oscillator_system(-0.5, 0.3, levels=levels),
        lambda s, j, k: checks.oscillator_coupling(-0.5, 0.3, s.meta["c"], j, k),
        osc_entries))
    jobs.append(_model_job(
        "box3d_system",
        lambda: bq.box3d_system(BOX_L, BOX_ALPHA, levels=levels),
        lambda s, j, k: checks.box_coupling(BOX_L, BOX_ALPHA, s.labels[j], s.labels[k]),
        box_entries))
    return jobs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _cli_job(kind, label, argv, out, check_report, api=None):
    def run(tr, jid):
        with tr.span(f"cli.dispatch:{argv[0]}", jid):
            code = dispatch(argv + ["--out", out])
        return code, _dir_bytes(out)

    def check(res):
        code, _ = res
        doc = checks.strict_json(os.path.join(out, "report.json"))
        check_report(code, doc)
        return False

    return Job(kind, label, run, check, api)


def _simulate_api(cfg, control_path, order, samples, csv_path):
    """The API calls behind `bqc simulate`, for the CLI overhead figure."""
    def api(tr):
        with tr.span("cli.api_equivalent"):
            system = bq.system_from_config(cfg["system"])
            control = bq.load_control(control_path)
            g = bq.truncate(system, order)
            with tr.span("simulation.propagate"):
                traj = bq.propagate(g, control, basis(order, 0),
                                    samples_per_piece=samples)
            with tr.span("simulation.write_trajectory_csv"):
                bq.write_trajectory_csv(traj, csv_path)
        size = os.path.getsize(csv_path)
        os.unlink(csv_path)
        return len(traj.times) - 1, size

    return api


def _density_job(system, control, n, samples, rng):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho0 = M @ M.conj().T
    rho0 /= np.trace(rho0).real
    rho0 = (rho0 + rho0.conj().T) / 2.0
    psi0 = basis(n, 0)
    lam, W = system.lam[:n], system.W[:n, :n]

    def run(tr, jid):
        g = bq.truncate(system, n)
        with tr.span("simulation.propagate_density", jid):
            traj = bq.propagate_density(g, control, rho0, samples_per_piece=samples)
        with tr.span("simulation.modulus_drift_check", jid):
            drift = bq.modulus_drift_check(g, control, psi0)
        return traj, drift

    def check(res):
        traj, drift = res
        A, B = checks.generators(lam, W)
        U = checks.propagator(A, B, control.pieces)
        require(len(traj.times) == 1 + control.npieces * samples, "density samples")
        err = float(np.max(np.abs(traj.final - U @ rho0 @ U.conj().T)))
        require(err <= 1e-10, f"density final state off by {err:.3e}")
        require(traj.norm_drift <= 1e-10, f"trace drift {traj.norm_drift:.3e}")
        require(traj.spectrum_drift <= 1e-10,
                f"spectrum drift {traj.spectrum_drift:.3e}")
        psiT = U @ psi0
        cols = np.linalg.norm(np.abs(W), axis=0)
        margins = control.total_duration * cols - np.abs(np.abs(psi0) - np.abs(psiT))
        require(abs(float(margins.min()) - drift.worst_margin) <= 1e-9,
                "modulus drift worst margin")
        require(drift.ok == (drift.worst_margin >= -1e-8), "modulus drift verdict")
        return False

    return Job("density", f"density{n}", run, check)


def _lift_job(system, n, N, reference):
    """FIXED inputs, so later rounds must reproduce the first round's output."""
    target = bq.PiecewiseConstantControl("reparametrized", LIFT_TARGET, DELTA)

    def run(tr, jid):
        with tr.span("synthesis.lift_control", jid):
            lc = bq.lift_control(target, system, n, N)
        with tr.span("synthesis.decoupling_error", jid):
            err = bq.decoupling_error(lc, system, n, N, grid=4096)
        return lc, err

    def check(res):
        lc, err = res
        key = (n, N)
        if key in reference:
            require(reference[key] == (lc.pieces, err), f"lift {n}->{N} not repeatable")
            return False
        checks.check_plateaus(LIFT_LAM, n, N, lc, 0.05)
        coarse = bq.decoupling_error(lc, system, n, N, grid=8)
        times = np.linspace(0.0, lc.total_duration, 9)[1:]
        quad = checks.offblock_sup(LIFT_LAM[:N], LIFT_W[:N, :N], lc, n, times)
        require(abs(coarse - quad) <= 1e-8,
                f"decoupling error {coarse:.12g}, quadrature {quad:.12g}")
        require(err >= coarse - 1e-12, "fine grid misses a coarse grid time")
        reference[key] = (lc.pieces, err)
        return False

    return Job("lift", f"lift{n}to{N}", run, check)


def verify_round(fx, rng, reduced, out_dir):
    levels = 12 if reduced else 60
    lam = np.cumsum(rng.uniform(0.5, 1.5, levels))
    W = rng.normal(0.0, 0.3, (levels, levels))
    W = (W + W.T) / 2.0
    system = bq.custom_system(lam, W)
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    orders = (6, 12) if reduced else (40, 60)
    samples = 20 if reduced else 200
    for order in orders:
        npieces = int(rng.integers(4, 7))
        pieces = [(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 3.0)))
                  for _ in range(npieces)]
        control = bq.PiecewiseConstantControl("reparametrized", pieces, DELTA)
        tag = os.path.join(out_dir, f"o{order}")
        os.makedirs(tag, exist_ok=True)
        with open(os.path.join(tag, "control.json"), "w") as fh:
            json.dump(bq.control_to_json(control), fh)
        cfg = {
            "system": {"lambda": lam.tolist(), "W": W.tolist()},
            "simulate": {"control": "control.json", "order": order,
                         "state": "e1", "samples": samples, "target": "e2"},
            "certify": {"n": 8},
            "bound": {"from": "e1", "to": "e2", "eps": 1e-3, "delta": DELTA},
        }
        cfg_path = os.path.join(tag, "job.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        rows = 1 + npieces * samples

        def simulate_report(code, doc, tag=tag, order=order, pieces=pieces,
                            rows=rows):
            require(code == 0, f"simulate exit code {code}")
            A, B = checks.generators(lam[:order], W[:order, :order])
            psi_ref = checks.propagator(A, B, pieces) @ basis(order, 0)
            res = doc["result"]
            require(res["samples"] == rows, "reported sample count")
            require(res["norm_drift"] <= 1e-10, f"norm drift {res['norm_drift']:.3e}")
            require(abs(res["fidelity"] - abs(psi_ref[1]) ** 2) <= 1e-10, "fidelity")
            checks.check_trajectory_csv(os.path.join(tag, "sim", "trajectory.csv"),
                                        rows, order, psi_ref)
            with open(os.path.join(tag, "sim", "trajectory.plot.dat")) as fh:
                require(sum(1 for _ in fh) == 1 + rows, "plot rows")

        def certify_report(code, doc):
            require(code == (2 if doc["result"]["overall"] == "refuted" else 0),
                    f"certify exit code {code}")
            checks.check_certify(doc["result"], lam, W, 8, Q, GAP_TOL)

        def bound_report(code, doc):
            require(code == 0, f"bound exit code {code}")
            ref = checks.steering_bound(W, basis(levels, 0), basis(levels, 1),
                                        1e-3, DELTA)
            require(abs(doc["result"]["bound"] - ref) <= 1e-12 * max(1.0, ref),
                    "steering-time bound")

        jobs.append(_cli_job(
            "simulate", f"simulate{order}",
            ["simulate", "--config", cfg_path, "--plot"],
            os.path.join(tag, "sim"), simulate_report,
            _simulate_api(cfg, os.path.join(tag, "control.json"), order, samples,
                          os.path.join(tag, "api.csv"))))
        if order == orders[-1]:
            jobs.append(_cli_job("cli", "certify", ["certify", "--config", cfg_path],
                                 os.path.join(tag, "cert"), certify_report))
            jobs.append(_cli_job("cli", "bound", ["bound", "--config", cfg_path],
                                 os.path.join(tag, "bound"), bound_report))
        jobs.append(_density_job(system, control, order, 8 if reduced else 32, rng))
    lifts = ((2, 3),) if reduced else ((3, 5), (2, 3))
    jobs += [_lift_job(fx.lift, n, N, fx.lift_reference) for n, N in lifts]
    return jobs


ROUNDS = {"steer": steer_round, "certify": certify_round, "verify": verify_round}


def build_round(workload, fx, seed, r, reduced, out_dir):
    rng = np.random.default_rng([seed, r, int(reduced)])
    return ROUNDS[workload](fx, rng, reduced, out_dir)


def clear(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
