"""The benchmark's configs and gates still fit the package.

``benchmarks/workloads.py`` writes the configs the benchmark runs and
``benchmarks/gates.py`` checks the records they produce.  A change in
``src/`` that drops a config key or a record field either of them reads
(``verify.samples``, say) would break the benchmark without failing any
other test.  Every record a workload command builds must also hold only
plain JSON values, because the record writer has no adapter for numpy
types.  Both files are loaded read-only from their paths, as
``tests/test_tracer_targets.py`` runs the tracer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from fiberdim import cli
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


def _assert_plain(value):
    """Only JSON's own Python types, checked with ``type`` so that numpy
    scalars (``np.float64`` subclasses float) fail: the record writer has no
    adapter for them."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, key
            _assert_plain(item)
    elif type(value) in (list, tuple):
        for item in value:
            _assert_plain(item)
    else:
        assert value is None or type(value) in (str, int, float, bool), value


def _records_pass_gates(tmp_path, monkeypatch, cmd):
    written, write = [], cli._write_json

    def write_json(path, payload):  # the record as the command built it
        written.append(payload)
        write(path, payload)

    monkeypatch.setattr(cli, "_write_json", write_json)
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(cmd["config"]), encoding="utf-8")
    assert run([cmd["command"], "--config", str(cfg), "--out", str(out),
                "--threads", "1"]) == 0
    _assert_plain(written[0])
    json.dumps(written[0], allow_nan=False)
    record = json.loads((out / f"{cmd['command']}_record.json")
                        .read_text(encoding="utf-8"))
    assert gates.gate_misses(record) == []
    gates.digest(record, str(out))  # the harness digests every record


@pytest.mark.parametrize("cmd", workloads.generate("dimension_sweep", 1),
                         ids=lambda cmd: cmd["name"])
def test_dimension_sweep_records_pass_gates(tmp_path, monkeypatch, cmd):
    _records_pass_gates(tmp_path, monkeypatch, cmd)


@pytest.mark.parametrize("cmd", workloads.generate("pressure_scan", 1),
                         ids=lambda cmd: cmd["name"])
def test_pressure_scan_records_pass_gates(tmp_path, monkeypatch, cmd):
    _records_pass_gates(tmp_path, monkeypatch, cmd)


@pytest.mark.parametrize("cmd", workloads.generate("cloud_sample", 1),
                         ids=lambda cmd: cmd["name"])
def test_cloud_sample_records_pass_gates(tmp_path, monkeypatch, cmd):
    _records_pass_gates(tmp_path, monkeypatch, cmd)
