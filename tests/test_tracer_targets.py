"""The benchmark span tracer still resolves every target on each command.

``benchmarks/tracer.py`` replaces the layer functions it names by module and
attribute, and its count hooks bind argument names; a rename in ``src/``
would break the traced benchmark without failing any other test.  Each test
runs one tiny config through the tracer in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"

COMMON = {"cli.import", "cli.run", "config.load_config", "thermo.gibbs_markov"}

SAMPLE_SPANS = {"thermo.sample_chain", "systems.pi_values_bulk",
                "empirics.sample_measure", "empirics.box_dimension",
                "empirics.local_dimension", "empirics.to_csv"}

# case -> (command, config, layer spans the command must emit)
CASES = {
    "pressure": (
        "pressure",
        {"truncation": {"m_schedule": [2], "depth": 2}},
        {"thermo.pressure_cylinder_sum", "words.cf_value_float"}),
    "dimension": (
        "dimension",
        {"potential": {"kind": "constant", "value": 0.0},
         "truncation": {"m_schedule": [2]},
         "dimension": {"s_grid": [0.1, 0.6, 1.1]}},
        {"dimension.variational_sweep", "dimension.bowen",
         "dimension.summability_scan", "thermo.measure_stats"}),
    "sample": (
        "sample",
        {"truncation": {"m_schedule": [2]},
         "sample": {"n_points": 2000, "depth": 20, "n_centers": 20}},
        SAMPLE_SPANS | {"systems.fiber_points_bulk"}),
    # the one target that runs both pi_values_bulk and fiber_points_bulk
    "sample_global": (
        "sample",
        {"truncation": {"m_schedule": [2]},
         "sample": {"target": "global", "n_points": 2000, "depth": 20,
                    "n_centers": 20}},
        SAMPLE_SPANS | {"systems.fiber_points_bulk"}),
    # a cloud that draws no past still draws through the wrapped sampler
    "sample_z_marginal": (
        "sample",
        {"truncation": {"m_schedule": [2]},
         "sample": {"target": "z_marginal", "n_points": 2000, "depth": 20,
                    "n_centers": 20}},
        SAMPLE_SPANS),
    "verify": (
        "verify",
        {"truncation": {"m_schedule": [2]},
         "verify": {"samples": 100, "induced_k_max": 0, "subdivisions": 16}},
        {"systems.verify_system", "words.certify",
         "thermo.pressure_derivative_check"}),
}

# span name -> the count its hook computes from the call's arguments
COUNTS = {
    "words.certify": "cells",
    "systems.fiber_points_bulk": "levels",
    "thermo.gibbs_markov": "builds",
    "thermo.pressure_cylinder_sum": "words",
    "thermo.sample_chain": "gather",
    "empirics.sample_measure": "points",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_command_emits_layer_spans(tmp_path, case):
    command, config, expected = CASES[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    spans_path, out = tmp_path / "spans.json", tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), "r0", "--", command,
         "--config", str(cfg), "--out", str(out), "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert spans_path.is_file()
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    names = {span["name"] for span in spans}
    assert COMMON | expected <= names
    # the realized log|T'| table composes its own periodic points, so only
    # clouds run the bulk composition
    if command in ("pressure", "dimension"):
        assert "systems.fiber_points_bulk" not in names
    for span in spans:
        if span["name"] in COUNTS:
            assert COUNTS[span["name"]] in span["counts"], span["name"]
