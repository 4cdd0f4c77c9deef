"""Batch front-end: JSON configs in, JSON reports and CSV trajectories out.

Subcommands: certify, synthesize, simulate, bound, model.  Exit codes are a
stable contract: 0 success, 2 refuted certification, 3 unconverged synthesis,
4 configuration error.  Every diagnostic is a single JSON line on stderr.
"""

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from .certification import certify
from .linalg import EigendecompositionError, _check_array
from .models import (
    QuadratureError,
    _cells,
    _read_json,
    _write_json,
    _write_text,
    dump_system,
    system_from_config,
    truncate,
)
from .simulation import (
    _write_trajectory,
    fidelity,
    propagate,
    steering_time_lower_bound,
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


def _write_report(out_dir, doc):
    doc = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **doc}
    _write_json(os.path.join(out_dir, "report.json"), doc)


def _load_config(path):
    try:
        cfg = _read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as e:  # a JSONDecodeError or a non-finite number
        raise ConfigError(f"malformed JSON in {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _section(cfg, name):
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"config must contain a {name!r} object")
    return sec


def _number(sec, name, key, default, kind=float):
    """sec[key] (default when absent) as a float, or as an int when kind is
    int; a null is taken only where the default is null.  A bool, a
    non-number or a non-integral value for an int raises ConfigError."""
    v = sec.get(key, default)
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name}.{key} must be a number, got {v!r}")
    if kind is int:
        if isinstance(v, float) and not v.is_integer():
            raise ConfigError(f"{name}.{key} must be an integer, got {v!r}")
        return int(v)
    return float(v)


def _build_system(cfg):
    spec = _section(cfg, "system")
    try:
        return system_from_config(spec)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise ConfigError(f"invalid system spec: {e}")


def _parse_state(sec, name, key, dim):
    """The state spec sec[key] at dimension dim: 'e<k>' (1-based basis
    vector) or a normalized vector of JSON numbers (not text or booleans)
    and [re, im] pairs of them.  Errors name the field name.key."""
    spec, field = sec.get(key), f"{name}.{key}"
    if isinstance(spec, str):
        # ASCII digits only: no sign, space, underscore or leading zero
        if not re.fullmatch(r"e(0|[1-9][0-9]*)", spec):
            raise ConfigError(f"{field}: unknown state spec {spec!r}")
        k = spec[1:]  # more digits than dim is above dim; int() is spared them
        if len(k) > len(str(dim)) or not 1 <= int(k) <= dim:
            raise ConfigError(f"{field}: basis index {spec!r} outside 1..{dim}")
        v = np.zeros(dim, dtype=complex)
        v[int(k) - 1] = 1.0
        return v
    if isinstance(spec, list):
        pairs = [x if isinstance(x, list) else [x, 0.0] for x in spec]
        try:
            v = _check_array(pairs, field)
        except ValueError as e:  # text, a boolean, null or a ragged entry
            raise ConfigError(str(e)) from None
        if v.shape != (len(spec), 2):
            raise ConfigError(f"{field} entries must be numbers or [re, im] "
                              "pairs of them")
        v = v.view(complex).ravel()  # each row (re, im) is one entry
        if v.size != dim:
            raise ConfigError(f"{field} has dimension {v.size}, expected {dim}")
        with np.errstate(over="ignore"):  # an overflowing norm fails below
            nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= 1e-8:
            raise ConfigError(f"{field} not normalized (norm = {nrm:.6g})")
        return v / nrm
    raise ConfigError(f"{field}: no state spec of type {type(spec).__name__}")


def _galerkin_at(system, order, field):
    """truncate(system, order) for the order read from config field `field`,
    which must lie in [2, system.levels]: only stored levels are propagated."""
    if order < 2:
        raise ConfigError(f"{field}: order must be >= 2, got {order}")
    if order > system.levels:
        raise ConfigError(f"{field}={order} exceeds the {system.levels} "
                          "stored levels")
    return truncate(system, order)


def _cmd_certify(system, sec, out_dir, args):
    n = _number(sec, "certify", "n", None, int)
    if n is None:
        raise ConfigError("certify.n (the truncation order) must be given")
    _galerkin_at(system, n, "certify.n")  # certify truncates on its own
    report = certify(
        system,
        n,
        Q=_number(sec, "certify", "Q", 30, int),
        tol=_number(sec, "certify", "tol", 1e-9),
        max_depth=_number(sec, "certify", "max_depth", None, int),
    )
    code = EXIT_REFUTED if report.overall == "refuted" else EXIT_OK
    return {"result": report}, code


def _cmd_synthesize(system, sec, out_dir, args):
    n = _number(sec, "synthesize", "n", system.levels, int)
    order = _number(sec, "synthesize", "verify_order", None, int)
    if order is not None and order < n:
        raise ConfigError(f"synthesize.verify_order ({order}) must be >= "
                          f"synthesize.n ({n})")
    g = _galerkin_at(system, n, "synthesize.n")
    gv = (None if order is None
          else _galerkin_at(system, order, "synthesize.verify_order"))
    x0 = _parse_state(sec, "synthesize", "from", n)
    x1 = _parse_state(sec, "synthesize", "to", n)
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        raise ConfigError("--seed must fit in an unsigned 64-bit integer")
    seed = (args.seed if args.seed is not None
            else _number(sec, "synthesize", "seed", 0, int))
    result = steer_state(
        g, x0, x1,
        delta=_number(sec, "synthesize", "delta", 0.1),
        tol=_number(sec, "synthesize", "tol", 1e-3),
        budget=_number(sec, "synthesize", "budget", 40000, int),
        seed=seed,
    )
    dump_control(result.control, os.path.join(out_dir, "control.json"))

    verify = None
    if order is not None:
        pad = np.zeros(gv.order, dtype=complex)
        pad[:n] = x0
        traj = propagate(gv, result.control, pad, samples_per_piece=1)
        target = np.zeros(gv.order, dtype=complex)
        target[:n] = x1
        verify = {
            "order": order,
            "fidelity": fidelity(target, traj.final),
            "norm_drift": traj.norm_drift,
        }

    if args.plot:
        _plot_control(result.control, os.path.join(out_dir, "control.plot.dat"))
    return {"seed": seed, "result": {
        "converged": result.converged,
        "infidelity": result.infidelity,
        "fidelity": 1.0 - result.infidelity,
        "evaluations": result.evaluations,
        "pieces": result.control.npieces,
        "total_duration": result.control.total_duration,
        "verify": verify,
    }}, EXIT_OK if result.converged else EXIT_UNCONVERGED


def _cmd_simulate(system, sec, out_dir, args):
    path = sec.get("control")
    if not isinstance(path, str):
        raise ConfigError("simulate.control must be a file path")
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(args.config)), path)
    if not os.path.exists(path):
        raise ConfigError(f"control file not found: {path}")
    try:
        control = load_control(path)
    except ValueError as e:  # malformed JSON, a bad piece or a non-finite number
        raise ConfigError(f"simulate.control {path}: {e}") from None
    order = _number(sec, "simulate", "order", system.levels, int)
    g = _galerkin_at(system, order, "simulate.order")
    psi0 = _parse_state(sec, "simulate", "state", order)
    target = (None if sec.get("target") is None
              else _parse_state(sec, "simulate", "target", order))
    traj = propagate(g, control, psi0,
                     samples_per_piece=_number(sec, "simulate", "samples", 16,
                                               int))
    _write_trajectory(traj, os.path.join(out_dir, "trajectory.csv"),
                      os.path.join(out_dir, "trajectory.plot.dat")
                      if args.plot else None)

    result = {
        "order": order,
        "samples": len(traj.times),
        "total_duration": control.total_duration,
        "norm_drift": traj.norm_drift,
    }
    if target is not None:
        final = traj.final
        result["fidelity"] = fidelity(target, final)
        result["norm_distance"] = float(np.linalg.norm(final - target))
    return {"result": result}, EXIT_OK


def _cmd_bound(system, sec, out_dir, args):
    dim = system.levels
    psi0 = _parse_state(sec, "bound", "from", dim)
    psi1 = _parse_state(sec, "bound", "to", dim)
    eps = _number(sec, "bound", "eps", 1e-3)
    delta = _number(sec, "bound", "delta", 0.1)
    value = steering_time_lower_bound(system, psi0, psi1, eps, delta)
    return {"result": {
        "bound": "inf" if math.isinf(value) else value,
        "eps": eps,
        "delta": delta,
    }}, EXIT_OK


def _plot_control(control, path):
    # staircase samples, whitespace-separated for gnuplot
    rows = []
    t = 0.0
    for dur, val in control.pieces:
        rows.append((t, val))
        t += dur
        rows.append((t, val))
    _write_text(path, "# t u\n" + "".join(r + "\n" for r in _cells(rows, " ")))


# per subcommand: the function that writes its artifacts and returns (report
# fields, exit code), the flags it takes besides --config and --out, and the
# keys of its config section it reads; `model`, which reads `system` alone and
# writes system.json and no report, is handled in dispatch
_COMMANDS = {
    "certify": (_cmd_certify, (), ("n", "Q", "tol", "max_depth")),
    "synthesize": (_cmd_synthesize, ("--seed", "--plot"),
                   ("n", "verify_order", "from", "to", "seed", "delta", "tol",
                    "budget")),
    "simulate": (_cmd_simulate, ("--plot",),
                 ("control", "order", "state", "target", "samples")),
    "bound": (_cmd_bound, (), ("from", "to", "eps", "delta")),
    "model": (None, (), ()),
}


def _build_parser():
    # no prefix abbreviations: a flag is taken only as spelled out in full
    parser = _Parser(prog="bqc", description=__doc__.splitlines()[0],
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        if "--seed" in flags:
            p.add_argument("--seed", type=int, default=None)
        if "--plot" in flags:
            p.add_argument("--plot", action="store_true")
    return parser


def dispatch(argv=None):
    """Run one subcommand; returns the exit code, artifacts land in --out."""
    parser = _build_parser()
    where = ""  # the config section an invalid-input detail starts with
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing subcommand "
                              "(certify|synthesize|simulate|bound|model)")
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        system = _build_system(cfg)
        if args.command == "model":
            dump_system(system, os.path.join(args.out, "system.json"))
            return EXIT_OK
        sec = _section(cfg, args.command)
        run, _, keys = _COMMANDS[args.command]
        unknown = [f"{args.command}.{k}" for k in sec if k not in keys]
        if unknown:
            raise ConfigError(f"unknown config key {', '.join(unknown)} "
                              f"({args.command} reads {', '.join(keys)})")
        where = f"{args.command}: "
        fields, code = run(system, sec, args.out, args)
        _write_report(args.out, {"command": args.command, "config": cfg,
                                 **fields})
        return code
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
    except (ValueError, OverflowError) as e:  # a number too large for a double
        _diagnostic("invalid-input", f"{where}{e}")
        return EXIT_CONFIG


def main(argv=None):
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
