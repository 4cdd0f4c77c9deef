"""bqcontrol benchmark: one workload per run, metrics on stdout.

Run from the repository root (nothing needs to be installed):

    python3 bench/run.py --workload steer --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-check

--trace 0 measures the end-to-end metrics; --trace 1 makes a traced run that
reports the per-layer metrics and the tracing overhead.  Every metric is
printed as `name value unit`; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Results, spans and
CLI artifacts go to .bench_out/ under the repository root.  See
bench/README.md for the workloads, the metrics and the reference figures.
"""

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUPS = 3  # set-ups per run; setup_s reports their median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("steer", "certify", "verify"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run every workload's checks on reduced inputs")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required unless --self-check is given")
    return args


if not os.path.isdir(os.path.join(SRC, "bqcontrol")):
    sys.exit(f"bench: no bqcontrol sources under {SRC}")
sys.path.insert(0, SRC)

_t0 = time.perf_counter()
import bqcontrol as bq  # noqa: E402
import bqcontrol.cli  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t0

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from bqcontrol._parallel import map_ordered, worker_count  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

OFF = Tracer(False)


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "bqc_worker_count": worker_count(),
        "bqc_threads_env": os.environ.get("BQC_THREADS"),
    }


def warm_up(fx, out_dir):
    """One call into each layer, so first-call costs land in set-up."""
    g3 = bq.truncate(fx.qs, 3)
    bq.expm_skew(g3.B)
    bq.oscillator_system(-0.5, 0.3, levels=6)
    bq.certify(fx.box, 6)
    map_ordered(abs, [1.0, -2.0])
    g2 = bq.truncate(fx.demo, 2)
    bq.steer_state(g2, wl.basis(2, 0), wl.basis(2, 1), delta=0.1, tol=1e-2, seed=0)
    c = bq.PiecewiseConstantControl("reparametrized", [(0.3, 0.5), (0.2, 1.5)], 0.1)
    bq.propagate(g3, c, wl.basis(3, 0), samples_per_piece=4)
    os.makedirs(out_dir, exist_ok=True)
    cfg = os.path.join(out_dir, "warm.json")
    with open(cfg, "w") as fh:
        json.dump({"system": {"lambda": list(wl.QS_LAM), "W": wl.QS_W.tolist()},
                   "bound": {"from": "e1", "to": "e3"}}, fh)
    bqcontrol.cli.dispatch(["bound", "--config", cfg, "--out", out_dir])


def set_up(workload, seed, out_root):
    """Fixed systems once, then SETUPS builds of round inputs and warm-ups.

    Returns (set-up seconds, fixed systems, the rounds built); the seconds
    are the fixed build plus the median of the repeated part.
    """
    t = time.perf_counter()
    fx = wl.Fixed()
    fixed_s = time.perf_counter() - t
    times, rounds = [], []
    for r in range(SETUPS):
        t = time.perf_counter()
        rounds.append(wl.build_round(workload, fx, seed, r, False,
                                     os.path.join(out_root, f"r{r}")))
        warm_up(fx, os.path.join(out_root, "warm"))
        times.append(time.perf_counter() - t)
    return fixed_s + statistics.median(times), fx, rounds


def run_round(jobs, tr, prefix):
    """Run the jobs one after another; returns (wall seconds, results)."""
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        jid = f"{prefix}/{job.label}#{i}"
        with tr.span(f"job.{job.kind}", jid):
            try:
                results.append(job.run(tr, jid))
            except Exception as e:  # a failed operation, reported and counted
                traceback.print_exc()
                results.append(e)
    return time.perf_counter() - t0, results


def check_round(jobs, results):
    """(correct, attempted, failed) for one round."""
    correct, failed = True, 0
    for job, res in zip(jobs, results):
        if isinstance(res, Exception):
            failed += 1
            continue
        try:
            if job.check(res):
                failed += 1
                print(f"# failed operation: {job.label}", file=sys.stderr)
        except checks.CheckError as e:
            correct = False
            print(f"# CHECK FAILED {job.label}: {e}", file=sys.stderr)
    return correct, len(jobs), failed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_call_us(fn, batches=5, batch_s=0.02):
    """Median time of one call, over batches sized to about batch_s each."""
    k = 1
    while True:
        t = time.perf_counter()
        for _ in range(k):
            fn()
        if time.perf_counter() - t >= batch_s or k >= 1 << 16:
            break
        k *= 2
    samples = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(k):
            fn()
        samples.append((time.perf_counter() - t) / k)
    return statistics.median(samples) * 1e6


def microbenchmarks(fx):
    rng = np.random.default_rng(12345)

    def skew(n):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (X - X.conj().T) / 2.0

    M3, M8, M60 = skew(3), skew(8), skew(60)
    X20, Y20 = skew(20), skew(20)
    g3 = bq.truncate(fx.qs, 3)
    e1 = wl.basis(3, 0)
    c4 = bq.PiecewiseConstantControl(
        "reparametrized", [(0.4, 0.3), (0.8, 1.7), (0.2, 0.5), (0.6, 2.5)], 0.1)
    c24 = [bq.PiecewiseConstantControl(
        "reparametrized",
        list(zip(rng.uniform(0.05, 10.0, 3), rng.uniform(0.11, 100.0, 3))), 0.1)
        for _ in range(24)]
    return {
        "linalg.expm_skew_us.n3": per_call_us(lambda: bq.expm_skew(M3, 0.7)),
        "linalg.expm_skew_us.n8": per_call_us(lambda: bq.expm_skew(M8, 0.7)),
        "linalg.skew_eigensystem_us.n60": per_call_us(lambda: bq.skew_eigensystem(M60)),
        "linalg.commutator_us.n20": per_call_us(lambda: bq.commutator(X20, Y20)),
        "synthesis.final_state_us.n3p4": per_call_us(lambda: bq.final_state(g3, c4, e1)),
        "parallel.map_ordered_us.c24": per_call_us(
            lambda: map_ordered(lambda c: bq.final_state(g3, c, e1), c24)),
        "models.truncate_us": per_call_us(lambda: bq.truncate(fx.box, 20)),
    }


def layer_pass(tr, ran):
    """Time each certification check on the arguments certify used, and
    every simulate job through the CLI and through the API."""
    steps = csv_bytes = 0
    with tr.span("layer_pass"):
        for job, res in ran:
            if job.kind == "certify" and isinstance(res, tuple):
                system, n = res[1]
                with tr.span("certification.connectedness"):
                    bq.connectedness(system.W[:n, :n])
                with tr.span("certification.pairwise_gap_distinct"):
                    bq.pairwise_gap_distinct(system.lam[:n])
                with tr.span("certification.nonresonance"):
                    bq.nonresonance(np.diff(system.lam[:n]))
                g = bq.truncate(system, n)
                with tr.span("certification.lie_rank"):
                    bq.lie_rank(g)
                with tr.span("certification.perturbation_certificate"):
                    bq.perturbation_certificate(system, n)
            if job.api is not None:
                # dispatch and its API equivalent back to back, so the
                # difference is not swamped by drift in machine speed
                with tr.span("cli.dispatch_paired"):
                    job.run(OFF, "layer_pass")
                s, b = job.api(tr)
                steps += s
                csv_bytes += b
    return steps, csv_bytes


def layer_metrics(tr, ran, micro, steps, csv_bytes, wall_ref, wall_tr):
    tab = tr.table()

    def tot(name):
        return tab.get(name, (0, 0.0, 0.0))[1]

    def tot_prefix(prefix):
        return sum(v[1] for k, v in tab.items() if k.startswith(prefix))

    evals = lift_pieces = lie_depth = lie_rank = pslq = cli_bytes = 0
    for job, res in ran:
        if isinstance(res, Exception):
            continue
        if job.kind in ("steer_state", "steer_unitary"):
            evals += res.evaluations
        elif job.kind == "lift":
            lift_pieces += res[0].npieces
        elif job.kind == "certify" and isinstance(res, tuple):
            rep = res[0]
            lie_depth += rep.lie_rank.depth_reached
            lie_rank += rep.lie_rank.rank
            pslq += ("pslq" in rep.nonresonant_gaps.method)
            pslq += ("pslq" in rep.perturbation.relation.method)
        elif job.kind in ("simulate", "cli"):
            cli_bytes += res[1]
    search_s = tot_prefix("synthesis.steer_")
    prop_s = tot("simulation.propagate")
    m = {}
    for kind in ("steer_state", "steer_unitary", "certify", "model", "simulate",
                 "density", "lift"):
        m[f"job.{kind}_s"] = (tot(f"job.{kind}"), "s")
    m.update({k: (v, "us") for k, v in micro.items()})
    m["synthesis.evals"] = (evals, "count")
    m["synthesis.us_per_eval"] = (search_s / max(evals, 1) * 1e6, "us")
    for label in ("quickstart", "box4", "box5"):
        m[f"synthesis.steer_state_s.{label}"] = (
            tot(f"synthesis.steer_state:{label}"), "s")
    for label in ("demo2", "fixed3"):
        m[f"synthesis.steer_unitary_s.{label}"] = (
            tot(f"synthesis.steer_unitary:{label}"), "s")
    m["synthesis.lift_control_s"] = (tot("synthesis.lift_control"), "s")
    m["synthesis.decoupling_error_s"] = (tot("synthesis.decoupling_error"), "s")
    m["synthesis.lift_pieces"] = (lift_pieces, "count")
    for name in ("nonresonance", "lie_rank", "pairwise_gap_distinct",
                 "connectedness", "perturbation_certificate"):
        m[f"certification.{name}_s"] = (tot(f"certification.{name}"), "s")
    m["certification.lie_depth"] = (lie_depth, "count")
    m["certification.lie_rank"] = (lie_rank, "count")
    m["certification.pslq_verdicts"] = (pslq, "count")
    m["models.oscillator_system_s"] = (tot("models.oscillator_system"), "s")
    m["models.box3d_system_s"] = (tot("models.box3d_system"), "s")
    m["simulation.propagate_s"] = (prop_s, "s")
    m["simulation.steps_per_s"] = (steps / prop_s if prop_s else 0.0, "1/s")
    m["simulation.write_trajectory_csv_s"] = (
        tot("simulation.write_trajectory_csv"), "s")
    m["simulation.csv_bytes"] = (csv_bytes, "bytes")
    m["simulation.propagate_density_s"] = (tot("simulation.propagate_density"), "s")
    dispatch_s = tot("cli.dispatch:simulate")
    m["cli.dispatch_s.simulate"] = (dispatch_s, "s")
    m["cli.overhead_s"] = (tot("cli.dispatch_paired") - tot("cli.api_equivalent"), "s")
    m["cli.bytes_written"] = (cli_bytes, "bytes")
    m["trace.wall_s"] = (wall_tr, "s")
    m["trace.overhead_s"] = (wall_tr - wall_ref, "s")
    m["trace.spans"] = (len(tr.spans), "count")
    return m


def untraced(workload, seed, seconds, out_root):
    setup_s, fx, pre = set_up(workload, seed, out_root)
    walls, correct, attempted, failed = [], True, 0, 0
    r = 0
    while True:
        out = os.path.join(out_root, f"r{r}")
        jobs = pre[r] if r < len(pre) else wl.build_round(workload, fx, seed, r,
                                                          False, out)
        wall, results = run_round(jobs, OFF, f"{workload}/r{r}")
        ok, a, f = check_round(jobs, results)
        wl.clear(out)
        walls.append(wall)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        r += 1
        if sum(walls) >= seconds:
            break
    metrics = {
        "setup_s": (IMPORT_S + setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"rounds": len(walls), "round_walls_s": walls, "import_s": IMPORT_S,
            "setup_after_import_s": setup_s}
    return correct, attempted, failed, metrics, info


def traced(workload, seed, out_root, spans_path):
    """One untraced and one traced round of the same inputs, then reduced
    traced rounds of the other workloads and the layer pass.  Prints the
    per-layer table and writes the spans to spans_path."""
    _, fx, pre = set_up(workload, seed, out_root)
    jobs = pre[0]
    wall_ref, res_ref = run_round(jobs, OFF, f"{workload}/r0")
    correct, attempted, failed = check_round(jobs, res_ref)
    tr = Tracer(True)
    wall_tr, res_tr = run_round(jobs, tr, f"{workload}/r0")
    ok, a, f = check_round(jobs, res_tr)
    correct, attempted, failed = correct and ok, attempted + a, failed + f
    ran = list(zip(jobs, res_tr))
    for other in wl.WORKLOADS:
        if other == workload:
            continue
        out = os.path.join(out_root, f"reduced-{other}")
        rjobs = wl.build_round(other, fx, seed, 0, True, out)
        _, rres = run_round(rjobs, tr, f"{other}-reduced/r0")
        correct = check_round(rjobs, rres)[0] and correct
        ran += list(zip(rjobs, rres))
    steps, csv_bytes = layer_pass(tr, ran)
    micro = microbenchmarks(fx)
    metrics = layer_metrics(tr, ran, micro, steps, csv_bytes, wall_ref, wall_tr)
    table = tr.table()
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"# span {name} calls={calls} total_s={total:.6f} self_s={own:.6f}")
    tr.write(spans_path)
    info = {"wall_untraced_s": wall_ref, "table": table}
    return correct, attempted, failed, metrics, info


def self_check():
    """Reduced rounds of every workload, then checks fed corrupted outputs."""
    t0 = time.perf_counter()
    out_root = os.path.join(ROOT, ".bench_out", f"self-check-{os.getpid()}")
    fx = wl.Fixed()
    problems, by_label, corrupted = [], {}, []
    for w in wl.WORKLOADS:
        jobs = wl.build_round(w, fx, 1, 0, True, os.path.join(out_root, w))
        _, results = run_round(jobs, OFF, f"{w}-reduced")
        correct, attempted, failed = check_round(jobs, results)
        expected = 1 if w == "steer" else 0  # the kept fixed3 failure
        if not correct or failed != expected:
            problems.append(f"{w}: correct={correct} failed={failed}/{attempted}")
        by_label.update({j.label: (j, r) for j, r in zip(jobs, results)})

    def must_reject(name, fn):
        corrupted.append(name)
        try:
            fn()
        except checks.CheckError:
            return
        problems.append(f"check accepted corrupted output: {name}")

    job, res = by_label["quickstart"]
    c = res.control
    bent = bq.PiecewiseConstantControl(
        c.frame, [(t * 1.01, u) for t, u in c.pieces], c.delta)
    must_reject("steer control", lambda: job.check(dataclasses.replace(res, control=bent)))
    job, res = by_label["fixed3"]
    must_reject("unitary distance", lambda: job.check(
        dataclasses.replace(res, distance=res.distance * 0.9)))
    doc = by_label["oscillator"][1][0].to_json()
    osc = fx.osc
    bad = json.loads(json.dumps(doc))
    bad["nonresonant_gaps"]["relation"][1] = -2
    must_reject("relation witness", lambda: checks.check_certify(
        bad, osc.lam, osc.W, 6, wl.Q, wl.GAP_TOL))
    doc = by_label["box"][1][0].to_json()
    bad = json.loads(json.dumps(doc))
    bad["pairwise_gaps_distinct"]["violations"].pop()
    must_reject("gap collisions", lambda: checks.check_certify(
        bad, fx.box.lam, fx.box.W, 6, wl.Q, wl.GAP_TOL))
    lam, W = wl.random_spectrum(np.random.default_rng(0), 4)
    doc = bq.certify(bq.custom_system(lam, W), 4).to_json()
    doc["lie_rank"]["rank"] -= 1
    must_reject("Lie rank", lambda: checks.check_certify(doc, lam, W, 4, wl.Q,
                                                         wl.GAP_TOL))
    path = os.path.join(out_root, "bad.json")
    with open(path, "w") as fh:
        fh.write('{"x": NaN}')
    must_reject("NaN in report", lambda: checks.strict_json(path))
    job, (lc, err) = by_label["lift2to3"]
    meta = json.loads(json.dumps(lc.meta))
    meta["plateaus"][0]["time"] += 0.3
    moved = bq.PiecewiseConstantControl(lc.frame, lc.pieces, lc.delta, meta=meta)
    fx.lift_reference.clear()
    must_reject("plateau residual", lambda: job.check((moved, err)))
    wl.clear(out_root)
    dt = time.perf_counter() - t0
    if problems:
        for p in problems:
            print(f"self-check: {p}", file=sys.stderr)
        return 1
    print(f"self-check: ok ({len(wl.WORKLOADS)} reduced workloads and "
          f"{len(corrupted)} corrupted outputs in {dt:.1f} s)")
    return 0


def main():
    args = parse_args(sys.argv[1:])
    if args.self_check:
        return self_check()
    out_base = os.path.join(ROOT, ".bench_out")
    out_root = os.path.join(out_base, f"{args.workload}-{args.seed}-{os.getpid()}")
    env = environment()
    print("# env " + json.dumps(env))
    if args.trace:
        spans = os.path.join(out_base, f"trace-{args.workload}-{args.seed}.jsonl")
        correct, attempted, failed, metrics, info = traced(
            args.workload, args.seed, out_root, spans)
    else:
        correct, attempted, failed, metrics, info = untraced(
            args.workload, args.seed, args.seconds, out_root)
    wl.clear(out_root)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_base, f"result-{args.workload}-{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "info": info, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
