"""The benchmark's configs and gates still fit the package.

``benchmarks/workloads.py`` writes the configs the benchmark runs and
``benchmarks/gates.py`` checks the records they produce.  A change in
``src/`` that drops a config key or a record field either of them reads
(``verify.samples``, say) would break the benchmark without failing any
other test.  Both files are loaded read-only from their paths, as
``tests/test_tracer_targets.py`` runs the tracer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from fiberdim.cli import run
from fiberdim.config import load_config

ROOT = Path(__file__).resolve().parents[1]


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _benchmark_module("workloads")
gates = _benchmark_module("gates")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_configs_load(workload):
    for cmd in workloads.generate(workload, 1):
        load_config(cmd["config"])


def _records_pass_gates(tmp_path, cmd):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(cmd["config"]), encoding="utf-8")
    assert run([cmd["command"], "--config", str(cfg), "--out", str(out),
                "--threads", "1"]) == 0
    record = json.loads((out / f"{cmd['command']}_record.json")
                        .read_text(encoding="utf-8"))
    assert gates.gate_misses(record) == []
    gates.digest(record, str(out))  # the harness digests every record


@pytest.mark.parametrize("cmd", workloads.generate("dimension_sweep", 1),
                         ids=lambda cmd: cmd["name"])
def test_dimension_sweep_records_pass_gates(tmp_path, cmd):
    _records_pass_gates(tmp_path, cmd)


@pytest.mark.parametrize("cmd", workloads.generate("pressure_scan", 1),
                         ids=lambda cmd: cmd["name"])
def test_pressure_scan_records_pass_gates(tmp_path, cmd):
    _records_pass_gates(tmp_path, cmd)


@pytest.mark.parametrize("cmd", workloads.generate("cloud_sample", 1),
                         ids=lambda cmd: cmd["name"])
def test_cloud_sample_records_pass_gates(tmp_path, cmd):
    _records_pass_gates(tmp_path, cmd)
