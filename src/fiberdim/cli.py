"""Batch command line: pressure, dimension, sample, verify.

Each command loads one JSON config (defaults deep-merged underneath), runs
its pipeline, and writes a self-describing record JSON plus plot-ready CSV
files.  Exit codes: 0 success, 1 numeric failure, 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import platform
import sys
from typing import NoReturn

import numpy as np

from .config import (build_potential, build_system, config_hash, load_config,
                     resolve_s_grid)
from .dimension import (branch_value, check_s_grid, global_dimension,
                        moran_root, summability_scan, variational_sweep)
from .empirics import box_dimension, exactness_report, local_dimension, \
    sample_measure
from .errors import ConfigError, FiberdimError, InsufficientScales, InvalidWord
from .systems import verify_system
from .thermo import ENTROPY_TOL, gibbs_markov, measure_stats, \
    pressure_cylinder_sum, pressure_derivative_check
from .words import induced_ifs_maps


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(value):
    """A record value with each infinite float (a missing bound) as None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and math.isinf(value) else value


def _write_csv(path: str, header: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# commands (each returns (results, warnings, files))

def cmd_pressure(config: dict, out_dir: str):
    system = build_system(config)
    tr = config["truncation"]
    rows, per_m = [], []
    for M in tr["m_schedule"]:
        potential = build_potential(config, system, M)
        est = pressure_cylinder_sum(potential, M, tr["depth"], tr["memory"])
        g = gibbs_markov(potential, M, tr["memory"])
        for n, p_n in enumerate(est.depth_values, start=1):
            rows.append((M, n, p_n, est.extrapolated))
        per_m.append({
            "max_digit": M,
            "depth_values": list(est.depth_values),
            "extrapolated": est.extrapolated,
            "error_est": est.error_est,
            "potential_error": est.potential_error,
            "transfer_log_pressure": g.log_pressure,
            "cross_method_diff": abs(g.log_pressure - est.extrapolated),
            "successive_differences": [
                b - a for a, b in zip(est.log_partition, est.log_partition[1:])],
            "chain": g.health(),
        })
    csv_path = os.path.join(out_dir, "pressure.csv")
    _write_csv(csv_path, "M,n,P_n,extrapolated", rows)
    return {"pressure": per_m}, [], [csv_path]


def cmd_dimension(config: dict, out_dir: str):
    system = build_system(config)
    tr = config["truncation"]
    M = tr["m_schedule"][-1]
    s_grid = resolve_s_grid(config)
    check_s_grid(s_grid)
    warnings = []
    scan = summability_scan(system, s_grid)
    divergent = [f"{s:g}" for s, verdict in zip(scan.s_grid, scan.verdicts)
                 if verdict != "summable"]
    if divergent:
        warnings.append(f"infinite-alphabet depth-1 sum diverges at "
                        f"s={', '.join(divergent)} (s <= theta={scan.threshold:g})")
    potential = build_potential(config, system, M)
    g = gibbs_markov(potential, M, tr["memory"])
    stats = measure_stats(g, system, tr["memory"] or system.family.memory)
    if stats.entropy_width > ENTROPY_TOL:
        warnings.append(f"marginal entropy bracket width {stats.entropy_width:g}"
                        f" at depth {stats.entropy_depth} exceeds ENTROPY_TOL="
                        f"{ENTROPY_TOL:g}; the sweep stopped at MARGINAL_SWEEP_CAP")
    sweep = variational_sweep(system, M, s_grid, tr["memory"],
                              config["dimension"]["bowen_tol"])
    if math.isfinite(system.distortion_bound) and sweep.delta_T < scan.threshold:
        warnings.append(
            f"Bowen root {sweep.delta_T:g} of the M={M} truncation lies below "
            f"the summability threshold theta={scan.threshold:g}; the infinite "
            "system has delta_T >= theta, further than the root shows")
    delta, branch = global_dimension(stats)
    values = {b: branch_value(stats, b) for b in "bc"}
    results = {
        "bowen_root": sweep.delta_T,
        "bowen": dataclasses.asdict(sweep.bowen),
        "sup_curve": sweep.sup_value,
        "argmax": sweep.argmax,
        "gap": sweep.gap,
        "max_second_difference": sweep.max_second_difference,
        "min_chi": sweep.min_chi,
        "summability": {
            "threshold": scan.threshold,
            "verdicts": list(scan.verdicts),
        },
        "stats": dataclasses.asdict(stats),
        "chain": g.health(),
        "global_dimension": delta,
        "branch": branch,
        "branch_values": values,
        "branch_agreement": abs(values["b"] - values["c"]),
    }
    moduli = system.family.moduli(system, M)
    if moduli is not None:
        oracle = moran_root(moduli)
        results["moran_root"] = oracle
        results["moran_diff"] = abs(oracle - sweep.delta_T)
    csv_path = os.path.join(out_dir, "dimension_curve.csv")
    _write_csv(csv_path, "s,delta", sweep.curve)
    return results, warnings, [csv_path]


def cmd_sample(config: dict, out_dir: str):
    system = build_system(config)
    tr = config["truncation"]
    M = tr["m_schedule"][-1]
    sm = config["sample"]
    potential = build_potential(config, system, M)
    g = gibbs_markov(potential, M, tr["memory"])
    cloud = sample_measure(g, system, sm["target"], sm["n_points"],
                           sm["depth"], config["seed"], sm["chart"])
    csv_path = os.path.join(out_dir, f"cloud_{sm['target']}.csv")
    cloud.to_csv(csv_path)
    warnings = []
    results = {
        "target": sm["target"],
        "n_points": cloud.n_points,
        "dim": cloud.dim,
        "chart": cloud.chart,
        "coding_error": cloud.coding_error,
        "diameter": cloud.diameter(),
        "chain": g.health(),
    }
    results["box_dimension"] = dataclasses.asdict(
        box_dimension(cloud, sm["box_scales"]))
    window = tuple(sm["window"]) if sm["window"] is not None else None
    try:
        loc = local_dimension(cloud, window, sm["n_centers"], config["seed"])
        results["local_dimension"] = dataclasses.asdict(loc)
        if sm["predicted"] is not None:
            results["exactness"] = {
                "predicted": sm["predicted"],
                **dataclasses.asdict(exactness_report(loc, sm["predicted"]))}
    except InsufficientScales as exc:
        warnings.append(f"local dimension skipped: {exc}")
        results["local_dimension"] = None
    return results, warnings, [csv_path]


def cmd_verify(config: dict, out_dir: str):
    system = build_system(config)
    tr = config["truncation"]
    M = tr["m_schedule"][-1]
    vf = config["verify"]
    report = verify_system(system, M, samples=vf["samples"],
                           seed=config["seed"])
    maps = induced_ifs_maps(M, vf["induced_k_max"], vf["subdivisions"])
    warnings = []
    if not report.osc_ok:
        warnings.append("depth-1 images overlap (open set condition fails)")
    if maps and not all(m.contraction_ok for m in maps):
        warnings.append("an induced composite is not certified contracting")
    fd, integral = pressure_derivative_check(
        system, vf["s"], vf["h_step"], max_digit=M, memory=tr["memory"])
    diff = abs(fd - integral)
    if diff > 1e-3:
        warnings.append(f"derivative check residual {diff:g} is large")
    results = {
        "system_report": dataclasses.asdict(report),
        "induced_maps": {
            "count": len(maps),
            "all_contracting": bool(all(m.contraction_ok for m in maps)),
            "max_derivative_sup": max((m.derivative_sup for m in maps),
                                      default=0.0),
        },
        "derivative_check": {
            "s": vf["s"], "h_step": vf["h_step"],
            "finite_difference": fd, "integral": integral,
            # the integral is exact; benchmarks/gates.py still reads the key
            "integral_se": 0.0, "diff": diff,
        },
    }
    return results, warnings, []


COMMANDS = {
    "pressure": cmd_pressure,
    "dimension": cmd_dimension,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberdim",
        description="Thermodynamic pressure, dimension, and sampling "
                    "experiments for skew product contraction families.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--threads", type=int,
                        help="threads key of the config, at least 1 (overrides "
                             "config); echoed in the record and its hash, "
                             "no stage is threaded")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        user = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        flags = {"seed": args.seed, "threads": args.threads}
        config = load_config(user, {key: value for key, value in flags.items()
                                    if value is not None})
        os.makedirs(args.out, exist_ok=True)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, ConfigError,
            InvalidWord) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    started = _now()
    try:
        results, warnings, files = COMMANDS[args.command](config, args.out)
    except (ConfigError, InvalidWord) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FiberdimError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except (MemoryError, FloatingPointError) as exc:
        print(f"numeric failure: {type(exc).__name__} in {args.command}: "
              f"{exc}", file=sys.stderr)
        return 1
    record = {
        "command": args.command,
        "config_hash": config_hash(config),
        "config": config,
        "started": started,
        "finished": _now(),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__},
        "results": _finite(results),
        "warnings": warnings,
        "files": [os.path.basename(f) for f in files],
    }
    record_path = os.path.join(args.out, f"{args.command}_record.json")
    _write_json(record_path, record)
    print(record_path)
    return 0


def main() -> NoReturn:
    """Console entry: run the command, flush, and end the process at once.

    The exit code is passed to `os._exit`, so CPython's exit-time cleanup
    (module teardown and the freeing of every object) is skipped; it costs
    tens of milliseconds a command and does nothing this package needs.  The
    early exit relies on an invariant: every file a command writes is closed
    by a `with` block before `run` returns, and the package registers no
    atexit hook and starts no thread or child process.  Argparse's
    SystemExit, an uncaught exception and a failing flush still leave
    through the normal interpreter exit.  Library callers and tests call
    `run`, which returns the exit code.
    """
    code = run(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
