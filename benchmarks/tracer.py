"""Span tracer for one ``fiberdim`` CLI command, loaded from outside the package.

Run as a script it replaces the public layer functions in every ``fiberdim``
module namespace that holds a reference with span wrappers, runs
``fiberdim.cli.run(argv)`` and writes the spans as JSON when the command ends:

    python3 benchmarks/tracer.py SPANS_JSON RUN_ID -- dimension --config c.json

Spans nest on one stack, so the traced command must be single-threaded
(``--threads 1``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


class Tracer:
    """In-memory spans: name, start, end, parent index, run id and counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> dict:
    """Seconds per span name, each span minus the time its children cover."""
    out = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span, inner in zip(spans, child_time):
        out[span["name"]] = (out.get(span["name"], 0.0)
                             + span["end"] - span["start"] - inner)
    return out


# ---------------------------------------------------------------------------
# computed counts, read from arguments and results around each call

def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), {}


def _gibbs_markov(fn, args, kwargs):
    before = fn.cache_info()
    g = fn(*args, **kwargs)
    after = fn.cache_info()
    builds = after.misses - before.misses
    return g, {"builds": builds, "hits": after.hits - before.hits,
               "states": g.n_states, "state_cubes": builds * g.n_states ** 3}


def _pressure_cylinder_sum(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    A = a["max_digit"] ** 2
    L = a["memory"] or max(1, a["potential"].memory)
    words = sum(A ** (n + L - 1) for n in range(1, a["depth"] + 1))
    return fn(*args, **kwargs), {"words": words}


def _sample_two_sided(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    g = a["self"]
    steps = a["n_past"] + max(0, a["n_forward"] - g.memory)
    return fn(*args, **kwargs), {"gather": a["count"] * steps * g.n_states}


def _sample_forward(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    g = a["self"]
    steps = max(0, a["n_symbols"] - g.memory)
    return fn(*args, **kwargs), {"gather": a["count"] * steps * g.n_states}


def _fiber_points_bulk(fn, args, kwargs):
    past_m = _arguments(fn, args, kwargs)["past_m"]
    return fn(*args, **kwargs), {"levels": past_m.shape[0] * past_m.shape[1]}


def _induced_ifs_maps(fn, args, kwargs):
    maps = fn(*args, **kwargs)
    subdivisions = _arguments(fn, args, kwargs)["subdivisions"]
    return maps, {"cells": len(maps) * subdivisions}


def _sample_measure(fn, args, kwargs):
    cloud = fn(*args, **kwargs)
    return cloud, {"points": cloud.n_points}


# (module, attribute, span name, call): an attribute "Class.method" is
# replaced on the class; a function is replaced in every fiberdim module
# namespace that holds it.
TARGETS = (
    ("fiberdim.words", "induced_ifs_maps", "words.certify", _induced_ifs_maps),
    ("fiberdim.words", "cf_value_float", "words.cf_value_float", _plain),
    ("fiberdim.systems", "fiber_points_bulk", "systems.fiber_points_bulk",
     _fiber_points_bulk),
    ("fiberdim.systems", "pi_values_bulk", "systems.pi_values_bulk", _plain),
    ("fiberdim.systems", "verify_system", "systems.verify_system", _plain),
    ("fiberdim.thermo", "gibbs_markov", "thermo.gibbs_markov", _gibbs_markov),
    ("fiberdim.thermo", "pressure_cylinder_sum", "thermo.pressure_cylinder_sum",
     _pressure_cylinder_sum),
    ("fiberdim.thermo", "GibbsApprox.sample_two_sided", "thermo.sample_chain",
     _sample_two_sided),
    ("fiberdim.thermo", "GibbsApprox.sample_forward", "thermo.sample_chain",
     _sample_forward),
    ("fiberdim.thermo", "measure_stats", "thermo.measure_stats", _plain),
    ("fiberdim.thermo", "pressure_derivative_check",
     "thermo.pressure_derivative_check", _plain),
    ("fiberdim.dimension", "variational_sweep", "dimension.variational_sweep",
     _plain),
    ("fiberdim.dimension", "bowen_dimension", "dimension.bowen", _plain),
    ("fiberdim.dimension", "summability_scan", "dimension.summability_scan",
     _plain),
    ("fiberdim.empirics", "sample_measure", "empirics.sample_measure",
     _sample_measure),
    ("fiberdim.empirics", "box_dimension", "empirics.box_dimension", _plain),
    ("fiberdim.empirics", "local_dimension", "empirics.local_dimension",
     _plain),
    ("fiberdim.empirics", "PointCloud.to_csv", "empirics.to_csv", _plain),
    ("fiberdim.config", "load_config", "config.load_config", _plain),
)


def _wrap(tracer: Tracer, name: str, fn, call):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result, counts = call(fn, args, kwargs)
        finally:
            tracer.close(span)
        span["counts"] = counts
        return result
    return wrapper


def install(tracer: Tracer):
    """Replace every target with a span wrapper; the package is imported."""
    modules = [m for n, m in sys.modules.items()
               if n == "fiberdim" or n.startswith("fiberdim.")]
    for module_name, attr, name, call in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr), call))
            continue
        fn = getattr(owner, attr)
        wrapper = _wrap(tracer, name, fn, call)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    tracer = Tracer(run_id)
    span = tracer.open("cli.import")
    import fiberdim.cli
    tracer.close(span)
    install(tracer)
    span = tracer.open("cli.run")
    try:
        return fiberdim.cli.run(cli_argv)
    finally:
        tracer.close(span)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
