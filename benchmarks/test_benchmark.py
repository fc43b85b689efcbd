"""Tests of the benchmark's own logic: generator, gates, digests, self times.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import copy
import json

import pytest

import gates
import workloads
from run import pass_layer_metrics
from tracer import self_times


def _without_seeded(value):
    """Config with every seed-picked value blanked out."""
    if isinstance(value, dict):
        return {k: None if k in ("s", "seed", "s_grid") else _without_seeded(v)
                for k, v in value.items()}
    return value


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_repeats_for_one_seed(workload):
    first = workloads.generate(workload, 3)
    assert json.dumps(first) == json.dumps(workloads.generate(workload, 3))
    other = workloads.generate(workload, 4)
    assert json.dumps(first) != json.dumps(other)
    # the seed picks exponents, grid offsets and sampling seeds, never sizes
    assert ([_without_seeded(c) for c in first]
            == [_without_seeded(c) for c in other])


def test_stats_potential_lies_on_the_dimension_grid():
    for cmd in workloads.generate("dimension_sweep", 9):
        if cmd["command"] == "dimension":
            config = cmd["config"]
            assert config["potential"]["s"] in config["dimension"]["s_grid"]


GOOD = {
    "pressure": {"pressure": [{"max_digit": 2, "cross_method_diff": 1e-9},
                              {"max_digit": 3, "cross_method_diff": 3e-10}]},
    "dimension": {"gap": 1.4e-5, "moran_diff": 2.4e-10},
    "verify": {"derivative_check": {"diff": 3.6e-9, "integral_se": 0.0},
               "induced_maps": {"all_contracting": True},
               "system_report": {"osc_ok": True}},
    "sample": {"dim": 2, "box_dimension": {"value": 1.4},
               "local_dimension": {"mean": 1.3}},
}

BAD = [
    ("pressure", ["pressure", 1, "cross_method_diff"], 2e-3),
    ("dimension", ["gap"], 2e-3),
    ("dimension", ["moran_diff"], 2e-6),
    ("verify", ["derivative_check", "diff"], 2e-3),
    ("verify", ["induced_maps", "all_contracting"], False),
    ("verify", ["system_report", "osc_ok"], False),
    ("sample", ["box_dimension", "value"], float("nan")),
    ("sample", ["box_dimension", "value"], 2.5),
    ("sample", ["local_dimension"], None),
    ("sample", ["local_dimension", "mean"], -0.1),
]


@pytest.mark.parametrize("command", sorted(GOOD))
def test_gate_passes_a_good_record(command):
    assert gates.gate_misses({"command": command,
                              "results": GOOD[command]}) == []


@pytest.mark.parametrize("command, path, value", BAD)
def test_gate_fails_a_bad_record(command, path, value):
    results = copy.deepcopy(GOOD[command])
    node = results
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert gates.gate_misses({"command": command, "results": results})


def test_sample_gate_uses_the_prediction_when_given():
    results = {"dim": 2, "box_dimension": {"value": 0.52},
               "local_dimension": {"mean": 0.51},
               "exactness": {"bias": 0.016}}
    assert gates.gate_misses({"command": "sample", "results": results}) == []
    results["exactness"]["bias"] = -0.06
    assert gates.gate_misses({"command": "sample", "results": results})


def test_verify_gate_widens_to_twice_the_standard_error():
    results = copy.deepcopy(GOOD["verify"])
    results["derivative_check"] = {"diff": 4e-3, "integral_se": 2.5e-3}
    assert gates.gate_misses({"command": "verify", "results": results}) == []


def test_digest_ignores_timestamps_but_not_outputs(tmp_path):
    (tmp_path / "pressure.csv").write_text("M,n\n2,1\n")
    record = {"started": "a", "finished": "b", "files": ["pressure.csv"],
              "results": GOOD["pressure"]}
    first = gates.digest(record, str(tmp_path))
    later = dict(record, started="c", finished="d")
    assert gates.digest(later, str(tmp_path)) == first
    (tmp_path / "pressure.csv").write_text("M,n\n2,2\n")
    assert gates.digest(record, str(tmp_path)) != first


def _span(name, start, end, parent, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "counts": counts}


NESTED = [
    _span("cli.import", 0.0, 0.5, None),
    _span("cli.run", 0.5, 10.0, None),
    _span("dimension.variational_sweep", 1.0, 8.0, 1),
    _span("thermo.gibbs_markov", 1.0, 2.0, 2, builds=1, hits=0, states=4,
          state_cubes=64),
    _span("dimension.bowen", 2.5, 7.0, 2),
    _span("thermo.gibbs_markov", 3.0, 4.5, 4, builds=1, hits=0, states=4,
          state_cubes=64),
    _span("thermo.gibbs_markov", 5.0, 5.25, 4, builds=0, hits=1, states=4,
          state_cubes=0),
    _span("thermo.gibbs_markov", 9.0, 9.5, 1, builds=0, hits=1, states=9,
          state_cubes=0),
]


def test_self_time_subtracts_direct_children_only():
    times = self_times(NESTED)
    assert times["cli.import"] == pytest.approx(0.5)
    assert times["cli.run"] == pytest.approx(9.5 - 7.0 - 0.5)
    assert times["dimension.variational_sweep"] == pytest.approx(7.0 - 1.0 - 4.5)
    assert times["dimension.bowen"] == pytest.approx(4.5 - 1.5 - 0.25)
    assert times["thermo.gibbs_markov"] == pytest.approx(1.0 + 1.5 + 0.25 + 0.5)
    assert sum(times.values()) == pytest.approx(10.0)


def test_layer_counts_of_a_pass():
    metrics = pass_layer_metrics({"execs": [{"spans": NESTED, "wall_s": 11.0}]})
    assert metrics["thermo.gibbs_markov_calls"][0] == 4
    assert metrics["thermo.gibbs_markov_builds"][0] == 2
    assert metrics["thermo.chain_cache_hit_ratio"][0] == 0.5
    assert metrics["thermo.dense_state_cubes"][0] == 128
    assert metrics["thermo.max_states"][0] == 9
    assert metrics["dimension.bowen_pressure_evals"][0] == 2
    assert metrics["trace.coverage"][0] == pytest.approx(10.0 / 11.0)
