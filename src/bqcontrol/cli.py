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
from .linalg import (EigendecompositionError, _check_array, _check_int,
                     _check_real)
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


def _value(v, kind, field, levels):
    """v as its key's kind reads it: None (a state spec, a path) as given,
    int and float by _check_int and _check_real, "order" an int in [2,
    levels], "uint64" one in [0, 2^64); else ConfigError naming field."""
    if kind is None:
        return v
    try:
        if kind is float:
            return _check_real(v, field)
        n = _check_int(v, field, *((0, 2 ** 64 - 1) if kind == "uint64"
                                   else (-math.inf,)))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if kind == "order" and n < 2:
        raise ConfigError(f"{field}: order must be >= 2, got {n}")
    if kind == "order" and n > levels:
        raise ConfigError(f"{field}={n} exceeds the {levels} stored levels")
    return n


def _typed(sec, command, levels):
    """Config section `command` with each value read by the kind _COMMANDS
    gives its key; an unknown key raises ConfigError.  An absent key stays
    absent, as does a null in _NULL_OMITS."""
    kinds = _COMMANDS[command][2]
    unknown = [f"{command}.{k}" for k in sec if k not in kinds]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)} "
                          f"({command} reads {', '.join(kinds)})")
    opts = {}
    for key, v in sec.items():
        field = f"{command}.{key}"
        if v is not None or field not in _NULL_OMITS:
            opts[key] = _value(v, kinds[key], field, levels)
    return opts


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


def _cmd_certify(system, opts, out_dir, args):
    if "n" not in opts:
        raise ConfigError("certify.n (the truncation order) must be given")
    report = certify(system, **opts)  # n, and Q, tol, max_depth when given
    code = EXIT_REFUTED if report.overall == "refuted" else EXIT_OK
    return {"result": report}, code


def _cmd_synthesize(system, opts, out_dir, args):
    n = opts.get("n", system.levels)
    order = opts.get("verify_order")
    if order is not None and order < n:
        raise ConfigError(f"synthesize.verify_order ({order}) must be >= "
                          f"synthesize.n ({n})")
    x0 = _parse_state(opts, "synthesize", "from", n)
    x1 = _parse_state(opts, "synthesize", "to", n)
    result = steer_state(
        truncate(system, n), x0, x1, delta=opts.get("delta", 0.1),
        **{k: opts[k] for k in ("tol", "budget", "seed") if k in opts})
    dump_control(result.control, os.path.join(out_dir, "control.json"))

    verify = None
    if order is not None:
        pad = (0, order - n)  # the states, zero on the levels above n
        traj = propagate(truncate(system, order), result.control,
                         np.pad(x0, pad), samples_per_piece=1)
        verify = {
            "order": order,
            "fidelity": fidelity(np.pad(x1, pad), traj.final),
            "norm_drift": traj.norm_drift,
        }

    if args.plot:
        _plot_control(result.control, os.path.join(out_dir, "control.plot.dat"))
    return {"seed": result.control.meta["seed"], "result": {
        "converged": result.converged,
        "infidelity": result.infidelity,
        "fidelity": 1.0 - result.infidelity,
        "evaluations": result.evaluations,
        "pieces": result.control.npieces,
        "total_duration": result.control.total_duration,
        "verify": verify,
    }}, EXIT_OK if result.converged else EXIT_UNCONVERGED


def _cmd_simulate(system, opts, out_dir, args):
    path = opts.get("control")
    if not isinstance(path, str):
        raise ConfigError("simulate.control must be a file path")
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(args.config)), path)
    try:
        control = load_control(path)
    except FileNotFoundError:
        raise ConfigError(f"control file not found: {path}") from None
    except ValueError as e:  # malformed JSON, a bad piece or a non-finite number
        raise ConfigError(f"simulate.control {path}: {e}") from None
    order = opts.get("order", system.levels)
    psi0 = _parse_state(opts, "simulate", "state", order)
    target = (None if opts.get("target") is None
              else _parse_state(opts, "simulate", "target", order))
    samples = ({"samples_per_piece": opts["samples"]} if "samples" in opts
               else {})
    traj = propagate(truncate(system, order), control, psi0, **samples)
    write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"),
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


def _cmd_bound(system, opts, out_dir, args):
    psi0 = _parse_state(opts, "bound", "from", system.levels)
    psi1 = _parse_state(opts, "bound", "to", system.levels)
    eps, delta = opts.get("eps", 1e-3), opts.get("delta", 0.1)
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


# per subcommand: the function that writes its artifacts from the typed
# section and returns (report fields, exit code), the flags it takes besides
# --config and --out, and each key of its section with the kind _value reads
# it as (an omitted key takes the library's default, an omitted order
# system.levels); `model`, which writes system.json alone, is in dispatch
_COMMANDS = {
    "certify": (_cmd_certify, (),
                {"n": "order", "Q": int, "tol": float, "max_depth": int}),
    "synthesize": (_cmd_synthesize, ("--seed", "--plot"),
                   {"n": "order", "verify_order": "order", "from": None,
                    "to": None, "seed": "uint64", "delta": float,
                    "tol": float, "budget": int}),
    "simulate": (_cmd_simulate, ("--plot",),
                 {"control": None, "order": "order", "state": None,
                  "target": None, "samples": int}),
    "bound": (_cmd_bound, (),
              {"from": None, "to": None, "eps": float, "delta": float}),
    "model": (None, (), {}),
}

# keys whose null means the same as leaving them out
_NULL_OMITS = ("certify.max_depth", "synthesize.verify_order")


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
        opts = _typed(_section(cfg, args.command), args.command,
                      system.levels)
        if getattr(args, "seed", None) is not None:  # after synthesize.seed
            opts["seed"] = _value(args.seed, "uint64", "--seed", system.levels)
        where = f"{args.command}: "
        fields, code = _COMMANDS[args.command][0](system, opts, args.out, args)
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
