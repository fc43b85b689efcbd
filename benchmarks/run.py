"""End-to-end benchmark of the ``fiberdim`` CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload dimension_sweep --seed 1 --seconds 36 --trace 0

The workload's configs are generated from the seed, written under
``.bench_out/`` and validated with ``fiberdim.config.load_config``.  Commands
then run as a closed loop with one client: each is a fresh interpreter that
imports ``src/`` of the checkout, as a CLI user pays imports on every run.
One pass runs every config once; passes repeat while another fits in
``--seconds``, and at least twice.  Every record is checked against the
acceptance tolerances, and every config's outputs are compared between runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` every second pass runs its commands under ``tracer.py`` and the
last line carries the per-layer metrics.  The process exits 1 when a command
failed a gate and 2 when the checkout holds no ``src/fiberdim``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gates
import workloads
from tracer import TARGETS, self_times

MIN_PASSES = 2
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
# one BLAS thread: two threads made the M=4 dimension command ~12% slower
# with a ~6x wider spread on a 2-CPU host
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

CLI_CODE = "import sys; from fiberdim.cli import main; sys.exit(main())"
SETUP_CODE = ("import json, sys; import fiberdim.cli; "
              "from fiberdim.config import load_config; "
              "load_config(json.load(open(sys.argv[1])))")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

KINDS = ("pressure", "dimension", "sample", "verify")

# per-layer metrics: self time of each span name, then computed counts
LAYER_SPANS = tuple(dict.fromkeys(t[2] for t in TARGETS)) + ("cli.import",
                                                           "cli.run")
# metric -> (span name, count key) summed over spans
SUMMED_COUNTS = {
    "words.certify_cells": ("words.certify", "cells"),
    "systems.fiber_point_levels": ("systems.fiber_points_bulk", "levels"),
    "thermo.gibbs_markov_builds": ("thermo.gibbs_markov", "builds"),
    "thermo.dense_state_cubes": ("thermo.gibbs_markov", "state_cubes"),
    "thermo.cylinder_words": ("thermo.pressure_cylinder_sum", "words"),
    "thermo.chain_gather_elems": ("thermo.sample_chain", "gather"),
    "empirics.cloud_points": ("empirics.sample_measure", "points"),
}


def run_child(argv: list[str], env: dict, log_path: str) -> tuple:
    """(wall seconds, exit code, peak RSS MB) of one child process.

    Peak RSS comes from ``wait4`` on this child alone, so one command's peak
    never leaks into another's.
    """
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                proc.kill()

    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        # wait without reaping, so the timer never signals a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            reaped = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def execute(env: dict, cmd: dict, out_dir: str, traced: bool,
            run_id: str) -> dict:
    """Run one config as one CLI command and check what it wrote."""
    os.makedirs(out_dir)
    cli_args = [cmd["command"], "--config", cmd["path"], "--out", out_dir,
                "--threads", "1"]
    spans_path = os.path.join(out_dir, "spans.json")
    if traced:
        argv = [sys.executable, TRACER, spans_path, run_id, "--"] + cli_args
    else:
        argv = [sys.executable, "-c", CLI_CODE] + cli_args
    wall, code, rss = run_child(argv, env, os.path.join(out_dir, "cli.log"))
    ex = {"name": cmd["name"], "command": cmd["command"], "wall_s": wall,
          "exit": code, "peak_rss_mb": rss, "traced": traced,
          "config_hash": None, "digest": None, "misses": []}
    record_path = os.path.join(out_dir, f"{cmd['command']}_record.json")
    if code != 0:
        ex["misses"].append(f"exit code {code}")
    elif not os.path.isfile(record_path):
        ex["misses"].append("no record written")
    else:
        try:
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            ex["config_hash"] = record["config_hash"]
            if record["config_hash"] != cmd["config_hash"]:
                ex["misses"].append("config_hash differs from the generated config")
            ex["misses"] += gates.gate_misses(record)
            ex["digest"] = gates.digest(record, out_dir)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            ex["misses"].append(f"malformed record: {exc!r}")
    if traced and os.path.isfile(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            ex["spans"] = json.load(fh)
    elif traced:
        ex["misses"].append("no spans written")
    if not ex["misses"]:
        shutil.rmtree(out_dir)  # clouds are large; failures stay for a look
    return ex


def run_pass(env, commands, out_dir, index, traced, run_tag) -> dict:
    start = time.perf_counter()
    execs = [execute(env, cmd, os.path.join(out_dir, f"p{index}", cmd["name"]),
                     traced, f"{run_tag}-p{index}-{cmd['name']}")
             for cmd in commands]
    return {"wall_s": time.perf_counter() - start, "traced": traced,
            "execs": execs}


def measure(env, commands, out_dir, seconds, trace, run_tag) -> list:
    """Closed loop of passes; with tracing, every second pass is traced."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(env, commands, out_dir, len(passes),
                               traced, run_tag))
        typical = statistics.median(p["wall_s"] for p in passes)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + typical > seconds):
            return passes


def mark_nondeterministic(passes):
    """Fail every run of a config whose runs wrote different outputs."""
    by_name = {}
    for p in passes:
        for ex in p["execs"]:
            by_name.setdefault(ex["name"], []).append(ex)
    for execs in by_name.values():
        if len({ex["digest"] for ex in execs if ex["digest"]}) > 1:
            for ex in execs:
                ex["misses"].append("outputs differ between runs of one config")


def measure_setup(env, config_path, out_dir) -> list:
    """Walls of fresh interpreters importing the CLI and validating a config.

    In a fresh checkout the first child also compiles the package's
    bytecode; that one slow child does not move the median of five.
    """
    argv = [sys.executable, "-c", SETUP_CODE, config_path]
    log = os.path.join(out_dir, "setup.log")
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = run_child(argv, env, log)
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}; see {log}")
        walls.append(wall)
    return walls


def command_medians(passes) -> list:
    """(command, median wall) of each config over the untraced passes."""
    walls = {}
    for p in passes:
        for ex in p["execs"]:
            if not ex["traced"]:
                walls.setdefault(ex["name"], (ex["command"], []))[1].append(
                    ex["wall_s"])
    return [(command, statistics.median(w)) for command, w in walls.values()]


def end_to_end_metrics(passes, setup_walls) -> dict:
    medians = command_medians(passes)
    wall = sum(m for _, m in medians)
    return {
        "wall_s": (wall, "s"),
        "cmd_s": (wall / len(medians), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (max(ex["peak_rss_mb"] for p in passes
                            for ex in p["execs"] if not ex["traced"]), "MB"),
    }


def kind_metrics(passes) -> dict:
    """Mean over configs of one kind of their median command wall."""
    medians = command_medians(passes)
    return {f"{kind}_cmd_s": (statistics.fmean(m for c, m in medians
                                               if c == kind), "s")
            for kind in KINDS if any(c == kind for c, _ in medians)}


def pass_layer_metrics(p) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    times = dict.fromkeys(LAYER_SPANS, 0.0)
    summed = dict.fromkeys(SUMMED_COUNTS, 0)
    cf_calls = gibbs_calls = gibbs_hits = max_states = bowen_evals = 0
    covered = 0.0
    for ex in p["execs"]:
        spans = ex.get("spans", [])
        for name, seconds in self_times(spans).items():
            times[name] += seconds
        for metric, (span_name, key) in SUMMED_COUNTS.items():
            summed[metric] += sum(s["counts"].get(key, 0) for s in spans
                                  if s["name"] == span_name)
        for s in spans:
            if s["name"] == "words.cf_value_float":
                cf_calls += 1
            elif s["name"] == "thermo.gibbs_markov":
                gibbs_calls += 1
                gibbs_hits += s["counts"]["hits"]
                max_states = max(max_states, s["counts"]["states"])
                parent = s["parent"]
                if parent is not None and spans[parent]["name"] == "dimension.bowen":
                    bowen_evals += 1
            elif s["name"] in ("cli.import", "cli.run"):
                covered += s["end"] - s["start"]
    metrics = {f"{name}_s": (seconds, "s") for name, seconds in times.items()}
    metrics.update({m: (v, "count") for m, v in summed.items()})
    metrics.update({
        "words.cf_value_float_calls": (cf_calls, "count"),
        "thermo.gibbs_markov_calls": (gibbs_calls, "count"),
        "thermo.chain_cache_hit_ratio": (
            gibbs_hits / gibbs_calls if gibbs_calls else 0.0, "ratio"),
        "thermo.max_states": (max_states, "count"),
        "dimension.bowen_pressure_evals": (bowen_evals, "count"),
        "trace.coverage": (covered / sum(ex["wall_s"] for ex in p["execs"]),
                           "ratio"),
    })
    return metrics


def layer_metrics(passes) -> dict:
    """Medians over traced passes, plus tracing overhead on the pass wall."""
    per_pass = [pass_layer_metrics(p) for p in passes if p["traced"]]
    out = {name: (statistics.median(m[name][0] for m in per_pass), unit)
           for name, (_, unit) in per_pass[0].items()}
    traced = statistics.median(p["wall_s"] for p in passes if p["traced"])
    plain = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    out["trace.overhead_s"] = (traced - plain, "s")
    return out


def environment(fiberdim_file: str) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "fiberdim": fiberdim_file,
            "pinned_env": PINNED_ENV, "cli_threads": 1}


def prepare(src, workload, seed, out_dir) -> tuple:
    """Write and validate the generated configs; return them and the env."""
    sys.path.insert(0, src)
    import fiberdim
    from fiberdim.config import config_hash, load_config
    if os.path.dirname(os.path.realpath(fiberdim.__file__)) != \
            os.path.join(src, "fiberdim"):
        raise RuntimeError(f"imported fiberdim from {fiberdim.__file__}, "
                           f"not from {src}")
    commands = workloads.generate(workload, seed)
    os.makedirs(os.path.join(out_dir, "configs"))
    for cmd in commands:
        cmd["path"] = os.path.join(out_dir, "configs", f"{cmd['name']}.json")
        with open(cmd["path"], "w", encoding="utf-8") as fh:
            json.dump(cmd["config"], fh, indent=2, sort_keys=True)
        effective = load_config(cmd["config"])
        effective["threads"] = 1  # as the CLI's --threads 1 sets it
        cmd["config_hash"] = config_hash(effective)
    return commands, environment(fiberdim.__file__)


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.realpath(os.getcwd())
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fiberdim", "cli.py")):
        print(f"error: no src/fiberdim under {root}; run from the root of a "
              "fiberdim checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    child_env = dict(os.environ, PYTHONPATH=src)
    run_tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir = os.path.join(root, ".bench_out", run_tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    commands, env = prepare(src, args.workload, args.seed, out_dir)
    setup_walls = measure_setup(child_env, commands[0]["path"], out_dir)
    passes = measure(child_env, commands, out_dir, args.seconds,
                     bool(args.trace), run_tag)
    mark_nondeterministic(passes)

    execs = [ex for p in passes for ex in p["execs"]]
    failed = sum(1 for ex in execs if ex["misses"])
    e2e = end_to_end_metrics(passes, setup_walls)
    metrics = layer_metrics(passes) if args.trace else e2e
    kinds = kind_metrics(passes)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(execs)} commands, {failed} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    print_table("end-to-end:", {**e2e, **kinds,
                                "fail_frac": (failed / len(execs), "ratio")})
    if args.trace:
        print_table("per-layer (traced passes):", metrics)
    for ex in execs:
        for miss in ex["misses"]:
            print(f"FAIL {ex['name']}: {miss}", file=sys.stderr)

    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "environment": env,
                   "setup_walls_s": setup_walls,
                   "passes": [{"wall_s": p["wall_s"], "traced": p["traced"],
                               "execs": [{k: v for k, v in ex.items()
                                          if k != "spans"}
                                         for ex in p["execs"]]}
                              for p in passes]}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(execs),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
