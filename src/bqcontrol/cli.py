"""Batch front-end: JSON configs in, JSON reports and CSV trajectories out.

Subcommands: certify, synthesize, simulate, bound, model.  Exit codes are a
stable contract: 0 success, 2 refuted certification, 3 unconverged synthesis,
4 configuration error.  Every diagnostic is a single JSON line on stderr.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .certification import certify
from .linalg import EigendecompositionError
from .models import (
    QuadratureError,
    _write_json,
    _write_text,
    custom_system,
    dump_system,
    system_from_config,
    truncate,
)
from .simulation import (
    fidelity,
    propagate,
    steering_time_lower_bound,
    write_trajectory_csv,
)
from .synthesis import (
    dump_control,
    load_control,
    steer_state,
)

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_UNCONVERGED = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad usage; 2 is reserved for refutation
    def error(self, message):
        raise ConfigError(message)


def _diagnostic(kind, detail):
    sys.stderr.write(json.dumps({"error": kind, "detail": str(detail)}) + "\n")


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _write_report(out_dir, doc):
    doc = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **doc}
    _write_json(os.path.join(out_dir, "report.json"), _jsonable(doc))


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _section(cfg, name):
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"config must contain a {name!r} object")
    return sec


def _build_system(cfg):
    spec = cfg.get("system")
    if not isinstance(spec, dict):
        raise ConfigError("config must contain a 'system' object")
    try:
        return system_from_config(spec)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"invalid system spec: {e}")


def _parse_state(spec, dim):
    """Decode a state spec: 'e<k>' (1-based basis vector) or a vector.

    Vector entries are reals or [re, im] pairs; the result is checked to be
    normalized and must match the working dimension.
    """
    if isinstance(spec, str):
        if not spec.startswith("e"):
            raise ConfigError(f"unknown state spec {spec!r}")
        try:
            k = int(spec[1:])
        except ValueError:
            raise ConfigError(f"unknown state spec {spec!r}")
        if not 1 <= k <= dim:
            raise ConfigError(f"basis index {spec!r} outside 1..{dim}")
        v = np.zeros(dim, dtype=complex)
        v[k - 1] = 1.0
        return v
    if isinstance(spec, list):
        try:
            entries = [complex(x[0], x[1]) if isinstance(x, list) else complex(x)
                       for x in spec]
        except (TypeError, ValueError, IndexError):
            raise ConfigError("state vector entries must be reals or [re, im] pairs")
        v = np.array(entries, dtype=complex)
        if v.size != dim:
            raise ConfigError(f"state has dimension {v.size}, expected {dim}")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-8:
            raise ConfigError(f"state not normalized (norm = {nrm:.6g})")
        return v / nrm
    raise ConfigError(f"unknown state spec of type {type(spec).__name__}")


def _galerkin_at(system, order):
    """Truncation at `order`, zero-padding the coupling beyond stored levels.

    Padding extends the spectrum with strictly growing gaps and leaves the
    extra levels uncoupled, so trajectories started inside the stored block
    are unchanged; it exists to let verification run at a higher order.
    """
    order = int(order)
    if order < 2:
        raise ConfigError(f"order must be >= 2, got {order}")
    if order <= system.levels:
        return truncate(system, order)
    lam = list(system.lam)
    gap = (lam[-1] - lam[0]) / max(1, len(lam) - 1) + 1.0
    while len(lam) < order:
        lam.append(lam[-1] + gap)
        gap += 1.0
    W = np.zeros((order, order))
    W[: system.levels, : system.levels] = system.W
    return truncate(custom_system(lam, W), order)


def _cmd_model(cfg, out_dir, args):
    dump_system(_build_system(cfg), os.path.join(out_dir, "system.json"))
    return EXIT_OK


def _cmd_certify(cfg, out_dir, args):
    system = _build_system(cfg)
    sec = _section(cfg, "certify")
    n = sec.get("n")
    if not isinstance(n, int) or n < 2:
        raise ConfigError("certify.n must be an integer >= 2")
    report = certify(
        system,
        n,
        Q=int(sec.get("Q", 30)),
        tol=float(sec.get("tol", 1e-9)),
        max_depth=sec.get("max_depth"),
    )
    _write_report(out_dir, {
        "command": "certify",
        "config": cfg,
        "result": report.to_json(),
    })
    return EXIT_REFUTED if report.overall == "refuted" else EXIT_OK


def _cmd_synthesize(cfg, out_dir, args):
    system = _build_system(cfg)
    sec = _section(cfg, "synthesize")
    n = int(sec.get("n", system.levels))
    g = _galerkin_at(system, n)
    x0 = _parse_state(sec.get("from"), n)
    x1 = _parse_state(sec.get("to"), n)
    seed = args.seed if args.seed is not None else int(sec.get("seed", 0))
    tol = float(sec.get("tol", 1e-3))
    result = steer_state(
        g, x0, x1,
        delta=float(sec.get("delta", 0.1)),
        tol=tol,
        budget=int(sec.get("budget", 40000)),
        seed=seed,
    )
    dump_control(result.control, os.path.join(out_dir, "control.json"))

    verify = None
    order = sec.get("verify_order")
    if order is not None:
        gv = _galerkin_at(system, int(order))
        pad = np.zeros(gv.order, dtype=complex)
        pad[:n] = x0
        traj = propagate(gv, result.control, pad, samples_per_piece=1)
        target = np.zeros(gv.order, dtype=complex)
        target[:n] = x1
        verify = {
            "order": int(order),
            "fidelity": fidelity(target, traj.final),
            "norm_drift": traj.norm_drift,
        }

    _write_report(out_dir, {
        "command": "synthesize",
        "config": cfg,
        "seed": seed,
        "result": {
            "converged": result.converged,
            "infidelity": result.infidelity,
            "fidelity": 1.0 - result.infidelity,
            "evaluations": result.evaluations,
            "pieces": result.control.npieces,
            "total_duration": result.control.total_duration,
            "verify": verify,
        },
    })
    if args.plot:
        _plot_control(result.control, os.path.join(out_dir, "control.plot.dat"))
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def _cmd_simulate(cfg, out_dir, args):
    system = _build_system(cfg)
    sec = _section(cfg, "simulate")
    path = sec.get("control")
    if not isinstance(path, str):
        raise ConfigError("simulate.control must be a file path")
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(args.config)), path)
    if not os.path.exists(path):
        raise ConfigError(f"control file not found: {path}")
    control = load_control(path)
    order = int(sec.get("order", system.levels))
    g = _galerkin_at(system, order)
    psi0 = _parse_state(sec.get("state"), order)
    traj = propagate(g, control, psi0,
                     samples_per_piece=int(sec.get("samples", 16)))
    write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))

    result = {
        "order": order,
        "samples": len(traj.times),
        "total_duration": control.total_duration,
        "norm_drift": traj.norm_drift,
    }
    if sec.get("target") is not None:
        target = _parse_state(sec["target"], order)
        final = traj.final
        result["fidelity"] = fidelity(target, final)
        result["norm_distance"] = float(np.linalg.norm(final - target))
    _write_report(out_dir, {
        "command": "simulate",
        "config": cfg,
        "result": result,
    })
    if args.plot:
        _plot_trajectory(traj, os.path.join(out_dir, "trajectory.plot.dat"))
    return EXIT_OK


def _cmd_bound(cfg, out_dir, args):
    system = _build_system(cfg)
    sec = _section(cfg, "bound")
    dim = system.levels
    psi0 = _parse_state(sec.get("from"), dim)
    psi1 = _parse_state(sec.get("to"), dim)
    eps = float(sec.get("eps", 1e-3))
    delta = float(sec.get("delta", 0.1))
    value = steering_time_lower_bound(system, psi0, psi1, eps, delta)
    _write_report(out_dir, {
        "command": "bound",
        "config": cfg,
        "result": {
            "bound": "inf" if math.isinf(value) else value,
            "eps": eps,
            "delta": delta,
        },
    })
    return EXIT_OK


def _plot_control(control, path):
    # staircase samples, whitespace-separated for gnuplot
    lines = ["# t u"]
    t = 0.0
    for dur, val in control.pieces:
        lines.append(f"{t:.17g} {val:.17g}")
        t += dur
        lines.append(f"{t:.17g} {val:.17g}")
    _write_text(path, "\n".join(lines) + "\n")


def _plot_trajectory(traj, path):
    cols = " ".join(f"pop_{k}" for k in range(traj.populations.shape[1]))
    table = np.column_stack([traj.times, traj.populations])
    row = " ".join(["%.17g"] * table.shape[1]) + "\n"
    _write_text(path, f"# t {cols}\n"
                + "".join(row % tuple(r) for r in table.tolist()))


_COMMANDS = {
    "certify": _cmd_certify,
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "bound": _cmd_bound,
    "model": _cmd_model,
}


def _build_parser():
    parser = _Parser(prog="bqc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--plot", action="store_true")
    return parser


def dispatch(argv=None):
    """Run one subcommand; returns the exit code, artifacts land in --out."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing subcommand "
                              "(certify|synthesize|simulate|bound|model)")
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        cfg = _load_config(args.config)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args)
    except ConfigError as e:
        _diagnostic("config", e)
        return EXIT_CONFIG
    except EigendecompositionError as e:
        _diagnostic("eigendecomposition", e)
        return EXIT_CONFIG
    except QuadratureError as e:
        _diagnostic("quadrature", e)
        return EXIT_CONFIG
    except OSError as e:
        _diagnostic("io", e)
        return EXIT_CONFIG
    except ValueError as e:
        _diagnostic("invalid-input", e)
        return EXIT_CONFIG


def main(argv=None):
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
