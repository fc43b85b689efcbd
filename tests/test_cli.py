"""End-to-end command runs against temp directories."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fiberdim import cli, thermo
from fiberdim.cli import run
from fiberdim.config import canonical_json, config_hash, load_config
from fiberdim.errors import ConfigError
from fiberdim.systems import make_system
from fiberdim.thermo import HEALTH_TOL, GibbsApprox

from oracles import constant_potential

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"record holds {name}, which is not JSON")


def read_record(out_dir, command):
    """The record, parsed strictly: NaN and Infinity fail the test."""
    with open(out_dir / f"{command}_record.json", "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


class TestPressureCommand:
    def test_constant_potential_log9(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [3], "depth": 4},
        })
        out = tmp_path / "out"
        assert run(["pressure", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "pressure")
        block = record["results"]["pressure"][0]
        for value in block["depth_values"]:
            assert value == pytest.approx(math.log(9.0), abs=1e-12)
        assert block["cross_method_diff"] <= 1e-9
        assert len(block["successive_differences"]) == 3  # n = 2..depth
        for value in block["successive_differences"]:
            assert value == pytest.approx(math.log(9.0), abs=1e-12)
        assert block["chain"]["n_states"] == 9
        assert max(block["chain"]["perron_residual"].values()) <= 1e-10

        lines = (out / "pressure.csv").read_text().splitlines()
        assert lines[0] == "M,n,P_n,extrapolated"
        assert len(lines) == 5  # header + one row per depth

    def test_similarity_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"variant": "similarity",
                       "schedule": {"kind": "equal", "ratio": 0.2,
                                    "grid_digit": 2, "inner_factor": 0.5}},
            "potential": {"kind": "geometric", "s": 1.0},
            "truncation": {"m_schedule": [2], "depth": 5, "memory": 1},
        })
        out = tmp_path / "out"
        assert run(["pressure", "--config", cfg, "--out", str(out)]) == 0
        block = read_record(out, "pressure")["results"]["pressure"][0]
        expected = 2 * math.log(2.0) + math.log(0.1)
        assert block["extrapolated"] == pytest.approx(expected, abs=1e-9)
        assert block["potential_error"] == 0.0

    @pytest.mark.parametrize("s, error", [(1.0, None), (0.0, 0.0)])
    def test_square_potential_error(self, tmp_path, s, error):
        # no distortion bound on the default square domain: the tail bound
        # is infinite, written null, except at s = 0, where psi is 0
        cfg = write_config(tmp_path, {
            "system": {"variant": "inverse_square"},
            "potential": {"kind": "geometric", "s": s},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        out = tmp_path / "out"
        assert run(["pressure", "--config", cfg, "--out", str(out)]) == 0
        block = read_record(out, "pressure")["results"]["pressure"][0]
        assert block["potential_error"] == error

    def test_record_echoes_merged_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        out = tmp_path / "out"
        assert run(["pressure", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "pressure")
        assert record["command"] == "pressure"
        assert len(record["config_hash"]) == 64
        # defaults the user file did not mention are echoed back merged
        assert record["config"]["system"]["variant"] == "inverse_conjugate"
        assert record["config"]["verify"]["samples"] == 4000
        assert record["config"]["truncation"]["depth"] == 3
        assert record["files"] == ["pressure.csv"]
        assert record["started"] <= record["finished"]
        # library versions sit beside the timestamps, outside the hash
        assert record["versions"] == {
            "python": sys.version.split()[0],
            "numpy": np.__version__}

    def test_config_hash_is_sha256_of_canonical_json(self):
        config = load_config({"seed": 7, "truncation": {"m_schedule": [2, 3]}})
        assert config_hash(config) == hashlib.sha256(
            canonical_json(config).encode()).hexdigest()

    def test_records_are_strict_json(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        out = tmp_path / "out"
        assert run(["pressure", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "pressure_record.json").read_text()
        json.dumps(json.loads(text), allow_nan=False)


def _table(rows):
    return json.dumps({"potential": {"kind": "table", "table": rows},
                       "truncation": {"m_schedule": [2], "depth": 3}})


# one document per kind of check; JSON text, so NaN and 1e400 stay as written
INVALID_DOCUMENTS = {
    "exclusive_minimum": '{"dimension": {"bowen_tol": 0}}',
    "inclusive_maximum": '{"system": {"schedule": {"inner_factor": 0.6}}}',
    "enum": '{"sample": {"chart": "polar"}}',
    "or_null": '{"sample": {"predicted": "high"}}',
    "too_few_items": '{"system": {"center": [0.5]}}',
    "too_many_items": '{"sample": {"window": [0.01, 0.1, 8, 9]}}',
    "float_scale_count": '{"sample": {"window": [0.01, 0.1, 8.7]}}',
    "nested_unknown_key": '{"dimension": {"s_range": {"step": 0.1}}}',
    "non_object_section": '{"verify": 5}',
    "true_as_number": '{"potential": {"value": true}}',
    "float_depth": '{"truncation": {"depth": 6.0}}',
    "float_seed": '{"seed": 1.0}',
    "nan": '{"dimension": {"bowen_tol": NaN}}',
    "infinity": '{"potential": {"value": Infinity}}',
    "overflow": '{"verify": {"s": 1e400}}',
    "table_row_without_word": _table([[5, 1.0]]),
    "table_value_not_number": _table([[[[1, 1]], "abc"]]),
    "table_float_digit": _table([[[[1.7, 1]], 0.0]]),
    "table_repeated_word": _table([[[[1, 1]], 1.0], [[[1, 1]], 5.0]]),
}


_GRID = [[1, 1, 0.25, -0.5, -0.5], [1, 2, 0.25, -0.5, 0.5],
         [2, 1, 0.25, 0.5, -0.5], [2, 2, 0.25, 0.5, 0.5]]
_FIVE = [[m, n, 0.1, -0.6 + 0.3 * (m - 1), -0.6 + 0.3 * (n - 1)]
         for m in range(1, 6) for n in range(1, 6)]

# case -> (command, similarity system keys, truncation, error text)
SCHEDULE_CASES = {
    "repeated_symbol": (
        "dimension",
        {"schedule": {"kind": "custom", "table": _GRID + [[1, 1, 0.05, 0, 0]]}},
        2, "each listed once, not [(1, 1), (1, 1), (1, 2),"),
    "fractional_digit": (
        "dimension",
        {"schedule": {"kind": "custom", "table": _GRID + [[2, 2.5, 0.1, 0, 0]]}},
        2, "2.5 is not an integer"),
    # only the (5, 5) image leaves the unit disk, past the digits <= 4
    "custom_escape_past_digit_4": (
        "sample",
        {"schedule": {"kind": "custom",
                      "table": _FIVE[:-1] + [[5, 5, 0.1, 1.5, 1.5]]}},
        5, "symbol (5, 5) escapes the domain"),
    "grid_escape_past_digit_4": (
        "sample",
        {"schedule": {"kind": "two_ratio", "ratio_a": 0.05, "ratio_b": 0.3,
                      "grid_digit": 6},
         "radius": 0.78},
        6, "symbol (6, 1) escapes the domain"),
    # every digit <= 4 stays inside, but the translations of larger digits
    # tend to (0.3, 0.3), 0.566 from the center
    "geometric_limit_escape": (
        "sample",
        {"schedule": {"kind": "geometric"}, "center": [-0.1, -0.1],
         "radius": 0.5},
        3, "with a digit above 4 may reach"),
}


class TestConfigErrors:
    def test_invalid_truncation_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"truncation": {"m_schedule": [0]}})
        assert run(["pressure", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"truncaton": {"depth": 4}})
        assert run(["pressure", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2

    def test_potential_scale_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"potential": {"scale": 1.0}})
        assert run(["pressure", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'scale'" in capsys.readouterr().err

    def test_singular_translate_domain_exits_2(self, tmp_path, capsys):
        # translate 3 + i puts the conjugate map's singularity at the center
        cfg = write_config(tmp_path, {
            "system": {"variant": "inverse_conjugate", "center": [-3.0, 1.0],
                       "radius": 0.5},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        assert run(["pressure", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "singular translate" in capsys.readouterr().err

    def test_escaping_domain_exits_2_before_work(self, tmp_path, monkeypatch,
                                                 capsys):
        # this disk certifies contraction 1.82, but the image of (1, 1)
        # reaches 0.036 past its radius
        def forbidden(*args, **kwargs):
            raise AssertionError("the domain must be rejected before any work")

        for name in ("summability_scan", "gibbs_markov"):
            monkeypatch.setattr(cli, name, forbidden)
        cfg = write_config(tmp_path, {
            "system": {"variant": "inverse_conjugate", "center": [0.5, 0.1],
                       "radius": 0.4},
            "truncation": {"m_schedule": [2]},
        })
        assert run(["dimension", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert ("image for symbol (1, 1) escapes the domain"
                in capsys.readouterr().err)

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        for content in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
            path.write_bytes(content)
            assert run(["pressure", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("text", list(INVALID_DOCUMENTS.values()),
                             ids=list(INVALID_DOCUMENTS))
    def test_invalid_document_exits_2_before_work(self, tmp_path, monkeypatch,
                                                  text):
        def forbidden(*args, **kwargs):
            raise AssertionError("the config must be rejected before any work")

        for name in ("summability_scan", "gibbs_markov", "pressure_cylinder_sum"):
            monkeypatch.setattr(cli, name, forbidden)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert run(["pressure", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("doc", ["x", [], 5, [{"seed": 1}]])
    def test_load_config_rejects_non_object(self, doc):
        with pytest.raises(ConfigError, match="config document must be a JSON object"):
            load_config(doc)

    @pytest.mark.parametrize("flags", [[], ["--seed", "3", "--threads", "2"]])
    def test_non_object_document_exits_2(self, tmp_path, capsys, flags):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert run(["pressure", "--config", str(path),
                    "--out", str(tmp_path / "out")] + flags) == 2
        assert "config document must be a JSON object" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(["pressure", "--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["dimension", "sample", "verify"])
    def test_similarity_truncation_past_grid_exits_2(self, tmp_path, command):
        # the equal schedule defines maps for digits <= 2 only
        cfg = write_config(tmp_path, {
            "system": {"variant": "similarity",
                       "schedule": {"kind": "equal", "grid_digit": 2}},
            "truncation": {"m_schedule": [3]},
        })
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
    def test_bad_similarity_schedule_exits_2(self, tmp_path, capsys, case):
        command, system, M, message = SCHEDULE_CASES[case]
        cfg = write_config(tmp_path, {
            "system": {"variant": "similarity", **system},
            "truncation": {"m_schedule": [M], "memory": 1}})
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pressure", "dimension", "sample"])
    def test_memory_below_table_exits_2_before_any_cap(self, tmp_path, capsys,
                                                       command):
        # 25^3 = 15625 states pass STATE_CAP: the memory check comes first
        cfg = write_config(tmp_path, {
            "potential": {"kind": "table",
                          "table": [[[[1, 1], [1, 1], [1, 1]], 0.0]]},
            "truncation": {"m_schedule": [5], "memory": 1},
        })
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert ("requested memory below the table's own memory"
                in capsys.readouterr().err)

    def test_composition_past_the_depth_cap_exits_2(self, tmp_path, capsys):
        # contraction 1.0016 needs 19609 levels to pin a periodic point
        cfg = write_config(tmp_path, {
            "system": {"variant": "inverse_conjugate", "radius": 0.802},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        assert run(["pressure", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "needs 19609 composition levels" in capsys.readouterr().err

    def test_reducible_table_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "table",
                          "table": [[[[1, 1], [1, 1]], 0.0],
                                    [[[2, 2], [2, 2]], 0.0]]},
            "truncation": {"m_schedule": [2], "depth": 4},
        })
        assert run(["pressure", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 1


class TestResourceFailures:
    @pytest.mark.parametrize("error", [MemoryError, FloatingPointError])
    def test_exits_1_naming_type_and_command(self, tmp_path, monkeypatch,
                                             capsys, error):
        def fail(*args, **kwargs):
            raise error("stage failed")

        monkeypatch.setattr(cli, "pressure_cylinder_sum", fail)
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        out = tmp_path / "out"
        assert run(["pressure", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"numeric failure: {error.__name__} in pressure: stage failed\n")
        assert not (out / "pressure_record.json").exists()


class TestDimensionCommand:
    def test_similarity_record_matches_moran(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"variant": "similarity",
                       "schedule": {"kind": "equal", "ratio": 0.2,
                                    "grid_digit": 2, "inner_factor": 0.5}},
            "truncation": {"m_schedule": [2], "memory": 1},
            "dimension": {"s_grid": [0.3, 0.45, 0.6, 0.75, 0.9],
                          "bowen_tol": 1e-9},
        })
        out = tmp_path / "out"
        assert run(["dimension", "--config", cfg, "--out", str(out)]) == 0
        results = read_record(out, "dimension")["results"]
        assert results["moran_diff"] <= 1e-6
        assert results["bowen_root"] == pytest.approx(
            math.log(4) / math.log(10), abs=1e-6)
        assert results["gap"] >= -1e-9
        assert set(results["branch_values"]) == {"b", "c"}
        assert results["branch_agreement"] == pytest.approx(
            abs(results["branch_values"]["b"] - results["branch_values"]["c"]))
        assert results["global_dimension"] == results["branch_values"][
            results["branch"]]
        chain = results["chain"]
        assert chain["n_states"] == 4
        assert chain["perron_iterations"] >= 1
        assert max(chain["perron_residual"].values()) <= 1e-10
        assert chain["stationarity_residual"] <= 1e-10
        bowen = results["bowen"]
        assert bowen["root"] == results["bowen_root"]
        assert abs(bowen["residual"]) <= 1e-12
        assert 0 < bowen["iterations"] <= 6
        assert bowen["bracket"][0] <= bowen["root"] <= bowen["bracket"][1]

        lines = (out / "dimension_curve.csv").read_text().splitlines()
        assert lines[0] == "s,delta"
        assert len(lines) == 6

    def test_one_live_code_records_positive_zero(self, tmp_path):
        # a chain on one symbol has entropy 0, and the record writes +0.0
        cfg = write_config(tmp_path, {
            "potential": {"kind": "table", "table": [[[[1, 1]], 0.0]]},
            "truncation": {"m_schedule": [2]},
            "dimension": {"s_grid": [0.5, 0.7, 0.9]},
        })
        out = tmp_path / "out"
        assert run(["dimension", "--config", cfg, "--out", str(out)]) == 0
        results = read_record(out, "dimension")["results"]
        assert results["chain"]["n_states"] == 1
        zeros = [results["stats"]["h_mu"], results["global_dimension"],
                 *results["branch_values"].values()]
        assert all(math.copysign(1.0, z) == 1.0 and z == 0.0 for z in zeros)

    def test_constant_potential_uses_exact_fiber_exponent(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "memory": 1},
            "dimension": {"s_grid": [0.6, 0.9, 1.2]},
        })
        out = tmp_path / "out"
        assert run(["dimension", "--config", cfg, "--out", str(out)]) == 0
        stats = read_record(out, "dimension")["results"]["stats"]
        assert stats["h_mu"] == pytest.approx(math.log(4), abs=1e-12)
        # the log|T'| table is realized at memory 1, the configured memory
        g = thermo.gibbs_markov(constant_potential(0.0, 2), 2, 1)
        assert stats["chi_T"] == thermo.lyapunov_fiber_exact(
            g, make_system("inverse_conjugate"), 1)

    def test_constant_potential_record_ignores_the_seed(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"variant": "inverse_square"},
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2]},
            "dimension": {"s_grid": [0.6, 0.9, 1.2]},
        })
        results = []
        for seed in ("0", "7"):
            out = tmp_path / f"out{seed}"
            assert run(["dimension", "--config", cfg, "--out", str(out),
                        "--seed", seed]) == 0
            results.append(json.dumps(
                read_record(out, "dimension")["results"], sort_keys=True))
        assert results[0] == results[1]

    def test_stats_section_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"stats": {"n_samples": 4000}})
        assert run(["dimension", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'stats'" in capsys.readouterr().err

    def test_duplicate_grid_points_exit_2(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the grid must be rejected before any work")

        monkeypatch.setattr(cli, "summability_scan", forbidden)
        monkeypatch.setattr(cli, "gibbs_markov", forbidden)
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "dimension": {"s_grid": [0.5, 0.5, 0.7, 0.9]},
        })
        assert run(["dimension", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2

    def test_marginal_sweep_cap_stop_warns(self, tmp_path, monkeypatch):
        # M = 3, L = 2: the sweep arrays hold 3^n * 9^2 entries, 2187 at n = 3
        monkeypatch.setattr(thermo, "MARGINAL_SWEEP_CAP", 3 * 2187 - 1)
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [3]},
            "dimension": {"s_grid": [0.5, 0.7, 0.9]},
        })
        out = tmp_path / "out"
        assert run(["dimension", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "dimension")
        stats = record["results"]["stats"]
        assert stats["entropy_depth"] == 3
        assert stats["entropy_width"] > thermo.ENTROPY_TOL
        assert (f"marginal entropy bracket width {stats['entropy_width']:g} "
                "at depth 3 exceeds ENTROPY_TOL=1e-09") in "\n".join(
                    record["warnings"])

    def test_summability_warnings_for_small_s(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "dimension": {"s_grid": [0.6, 0.9, 1.2], "bowen_tol": 1e-6},
        })
        out = tmp_path / "out"
        assert run(["dimension", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "dimension")
        # one warning lists every grid point at or below theta
        assert [w for w in record["warnings"] if "depth-1 sum" in w] == [
            "infinite-alphabet depth-1 sum diverges at s=0.6, 0.9 "
            "(s <= theta=1)"]
        summ = record["results"]["summability"]
        assert summ == {"threshold": 1.0,
                        "verdicts": ["divergent", "divergent", "summable"]}

    def test_bowen_root_below_threshold_warns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "dimension": {"s_grid": [0.6, 0.9, 1.2]},
        })
        out = tmp_path / "out"
        assert run(["dimension", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "dimension")
        root = record["results"]["bowen_root"]
        assert root < 1.0
        assert (f"Bowen root {root:g} of the M=2 truncation lies below the "
                "summability threshold theta=1;") in "\n".join(record["warnings"])

    def test_square_root_below_threshold_claims_nothing(self, tmp_path):
        # the default square domain reaches w = 0, so the system has no
        # distortion bound and no claim delta_T >= theta rests on one
        cfg = write_config(tmp_path, {
            "system": {"variant": "inverse_square"},
            "truncation": {"m_schedule": [2], "memory": 1},
            "dimension": {"s_grid": [0.6, 0.9, 1.2]},
        })
        out = tmp_path / "out"
        assert run(["dimension", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "dimension")
        assert record["results"]["bowen_root"] < 1.0
        assert record["warnings"] == [
            "infinite-alphabet depth-1 sum diverges at s=0.6, 0.9 "
            "(s <= theta=1)"]

    def test_finite_similarity_has_no_threshold_warnings(self, tmp_path):
        out = tmp_path / "out"
        assert run(["dimension", "--config",
                    str(ROOT / "run_configs" / "dimension_similarity.json"),
                    "--out", str(out)]) == 0
        record = read_record(out, "dimension")
        assert record["results"]["summability"]["threshold"] is None
        assert record["warnings"] == []


class TestSampleCommand:
    def test_reproducible_across_directories(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "sample": {"target": "z_marginal", "n_points": 2000, "depth": 25,
                       "n_centers": 50},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["sample", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["sample", "--config", cfg, "--out", str(out_b)]) == 0
        rec_a = read_record(out_a, "sample")
        rec_b = read_record(out_b, "sample")
        assert rec_a["config_hash"] == rec_b["config_hash"]
        assert ((out_a / "cloud_z_marginal.csv").read_bytes()
                == (out_b / "cloud_z_marginal.csv").read_bytes())

    def test_seed_flag_changes_hash_and_points(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "sample": {"target": "z_marginal", "n_points": 2000, "depth": 25,
                       "n_centers": 50},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["sample", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["sample", "--config", cfg, "--out", str(out_b),
                    "--seed", "9"]) == 0
        rec_a = read_record(out_a, "sample")
        rec_b = read_record(out_b, "sample")
        assert rec_a["config_hash"] != rec_b["config_hash"]
        assert rec_b["config"]["seed"] == 9
        assert ((out_a / "cloud_z_marginal.csv").read_bytes()
                != (out_b / "cloud_z_marginal.csv").read_bytes())

    def test_chain_health_block(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "sample": {"target": "z_marginal", "n_points": 2000, "depth": 25,
                       "n_centers": 50},
        })
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        chain = read_record(out, "sample")["results"]["chain"]
        assert chain["n_states"] == 4
        assert max(chain["perron_residual"].values()) <= HEALTH_TOL
        assert chain["stationarity_residual"] <= HEALTH_TOL

    def test_degenerate_single_digit_cloud(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [1], "memory": 1},
            "sample": {"target": "z_marginal", "n_points": 2000, "depth": 30,
                       "n_centers": 50},
        })
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        results = read_record(out, "sample")["results"]
        assert results["diameter"] == 0.0
        assert results["local_dimension"]["mean"] == 0.0
        assert results["local_dimension"]["stddev"] == 0.0
        assert results["box_dimension"]["value"] == 0.0

    def test_exactness_block_present_when_predicted(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "sample": {"target": "z_marginal", "n_points": 5000, "depth": 25,
                       "n_centers": 50, "predicted": 1.0},
        })
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        results = read_record(out, "sample")["results"]
        assert results["exactness"]["predicted"] == 1.0
        assert results["exactness"]["bias"] == pytest.approx(
            results["local_dimension"]["mean"] - 1.0)

    def test_sample_element_cap_exits_2_before_any_draw(self, tmp_path,
                                                        monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sample must be rejected before any draw")

        monkeypatch.setattr(GibbsApprox, "sample_two_sided", forbidden)
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2]},
            "sample": {"n_points": 2_000_000_000, "depth": 30}})
        assert run(["sample", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "sample elements exceed the cap" in capsys.readouterr().err

    def test_window_below_every_count_skips_local_dimension(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "sample": {"target": "z_marginal", "n_points": 1000, "depth": 30,
                       "window": [0.001, 0.002, 4]},
        })
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "sample")
        assert record["results"]["local_dimension"] is None
        assert any(w.startswith("local dimension skipped")
                   for w in record["warnings"])


# sha256 of cloud CSVs that these configs wrote before the guide-table draws
# and blocked composition (commit 237e712), and, for the z-marginal cloud,
# since it draws no past; a change that moves one changes the clouds
# themselves.  The two conjugate clouds moved once since, when the realized
# log|T'| table their chain reads became exact: two box counts fell by one.
CLOUD_DIGESTS = {
    "z_marginal_conjugate_2000":
        "4b534c110afc770de74263fdf326b01248f4beb31e47efe0237bb8d5eb64afcb",
    "sample_fiber_2000":
        "9c8091bf37ec3bab5fe37c6f82abc5b25f3c44fff22856b4f4fb0326dfa6dcac",
    "global_conjugate_2000":
        "f6a18a559e0436d4852603f3a3dbacdf2034530bb26f338ddfbc90d1b2b19242",
}


def _guard_config(name):
    if name == "sample_fiber_2000":
        doc = json.loads((ROOT / "run_configs" / "sample_fiber.json").read_text())
        doc["sample"]["n_points"] = 2000
        return doc
    target = name.split("_conjugate")[0]
    return {"system": {"variant": "inverse_conjugate"},
            "truncation": {"m_schedule": [3]},
            "sample": {"target": target, "n_points": 2000, "depth": 30},
            "seed": 1}


# sha256 of the sorted-key results JSON followed by the CSV bytes of the
# same configs; sample_fiber_2000 sets a window and a prediction, so its
# record also carries the exactness block
SAMPLE_RECORD_DIGESTS = {
    "z_marginal_conjugate_2000":
        "50dd8ec772d69a4becfc667ef8f05cd1fbcffea2502e21599a83d5670f1ea7ff",
    "sample_fiber_2000":
        "b7062cea5e8eab7e02e736d86a3b156bfd22ce747b4a3986da734841c4e52d17",
    "global_conjugate_2000":
        "95d506b5843092a3147e69bc9d65b164ee71129c4f1d6faf5c190b151acc96c3",
}


def _results_and_csv_digest(out, command) -> str:
    """sha256 of a record's sorted-key results JSON, then its files' bytes."""
    record = read_record(out, command)
    digest = hashlib.sha256(
        json.dumps(record["results"], sort_keys=True).encode())
    for csv in record["files"]:
        digest.update((out / csv).read_bytes())
    return digest.hexdigest()


class TestCloudBytes:
    """Same seed, same bytes: clouds and sample records match digests
    recorded earlier."""

    @pytest.mark.parametrize("name", sorted(CLOUD_DIGESTS))
    def test_cloud_csv_digest(self, tmp_path, name):
        doc = _guard_config(name)
        out = tmp_path / "out"
        assert run(["sample", "--config", write_config(tmp_path, doc),
                    "--out", str(out)]) == 0
        csv = out / f"cloud_{doc['sample']['target']}.csv"
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == CLOUD_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(SAMPLE_RECORD_DIGESTS))
    def test_results_and_csv_digest(self, tmp_path, name):
        out = tmp_path / "out"
        assert run(["sample", "--config",
                    write_config(tmp_path, _guard_config(name)),
                    "--out", str(out)]) == 0
        assert (_results_and_csv_digest(out, "sample")
                == SAMPLE_RECORD_DIGESTS[name])


# every system_report carries the certified contraction and distortion_bound
# in place of lambda_hat and distortion_alpha (the distortion_certified flag
# is gone, and square_3's distortion_bound, a 25.99 grid value before, is
# null: its domain reaches w = 0); the reciprocal reports also read their image disks and derivatives at the
# float translate value (tail 0.5) in place of the exact-cylinder midpoint:
# min_image_gap moved by at most 1.1e-8, derivative_band by 5e-10 and
# distortion_H_hat by 2e-6.  The reciprocal derivative checks read the
# exact periodic table: their integrals moved by 4.7e-7 and 2.8e-6 and
# their diffs by at most 2.4e-13
VERIFY_DIGESTS = {
    "verify_conjugate":
        "21ec2cc7bc666a7d641ec04d401d84476124e5f9aa5b922c54c3a531f9e49c99",
    "square_3":
        "ac0dcdd209c271e46f458ce05a5f2a7d8739f4a43200398c1b13a9359a7e85aa",
    "similarity_3":
        "805453a6fe792a08fc9b3cb9c9d496542750e54e253da02a3714fb6e9571f98f",
    "similarity_two_ratio_3":
        "8e86656440f571ecf3fff23579ba5314b0f15e2d88c0cd227168f88478407e33",
    "similarity_custom_3":
        "160d0c183c1fc6facd12fbdcabf80a21463edbc8710eda4a3abae3901d32d215",
}

# finite similarity schedules of three digits: two ratios on the grid, and a
# custom table whose ratios grow with m + n
_SCHEDULES_3 = {
    "two_ratio": {"kind": "two_ratio", "grid_digit": 3},
    "custom": {"kind": "custom", "table": [
        [m, n, 0.04 * (m + n), -0.5 + 0.5 * (m - 1), -0.5 + 0.5 * (n - 1)]
        for m in range(1, 4) for n in range(1, 4)]},
}


def _verify_config(name):
    if name == "verify_conjugate":
        return json.loads((ROOT / "run_configs" / "verify_conjugate.json")
                          .read_text())
    small = {"verify": {"samples": 500, "induced_k_max": 1,
                        "subdivisions": 32},
             "seed": 2}
    if name == "square_3":
        return {"system": {"variant": "inverse_square"},
                "truncation": {"m_schedule": [3]}, **small}
    system = {"variant": "similarity"}
    if name != "similarity_3":  # the default geometric schedule
        system["schedule"] = _SCHEDULES_3[name[len("similarity_"):-len("_3")]]
    return {"system": system,
            "truncation": {"m_schedule": [3], "memory": 1}, **small}


class TestVerifyBytes:
    """Same seed, same bytes: verify results match digests recorded earlier."""

    @pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
    def test_results_digest(self, tmp_path, name):
        out = tmp_path / "out"
        assert run(["verify", "--config",
                    write_config(tmp_path, _verify_config(name)),
                    "--out", str(out)]) == 0
        canonical = json.dumps(read_record(out, "verify")["results"],
                               sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == VERIFY_DIGESTS[name]


# (command, sha256 of the sorted-key results JSON followed by the CSV bytes);
# the reciprocal records moved when the realized table became exact:
# pressures by at most 9.9e-7, Bowen roots by at most 2.1e-7
RECORD_DIGESTS = {
    "pressure_geometric": (
        "pressure",
        "4a16b5e92304b64dd4143619322c742a633aeee1e5b29cd4a9e1728440996330"),
    "dimension_similarity": (
        "dimension",
        "8f0d2c150b91d555b4bdeb4d63f71d098c58a944d4af60265348ad7d7b04b644"),
    "dimension_conjugate_small": (
        "dimension",
        "c303a6da4eb80a8274254e13682ec8da453cd353a01cb68b58ae6f574c281822"),
    # chi_T exact from the realized table: 4.567489758 (300 Monte Carlo
    # draws) -> 4.538337562, global_dimension and both branch values
    # 1.333432767 -> 1.335382398
    "dimension_constant_small": (
        "dimension",
        "070465645c891f84108e81aa82ac804d20283ce29cddcab8a914d35a975dd119"),
    "dimension_two_ratio": (
        "dimension",
        "54f2f8eb64161a9cfdcaade7d2bc9c3d4f44cefa6d3b3b7bebca98ca57d151a5"),
    "dimension_custom": (
        "dimension",
        "9e2b60fac3f8ec2fbf9a0bc6a2b8d2853c4e387270d2ed2ff1601f10c0c681f2"),
    # the geometric schedule at memory 1, as the pressure_scan benchmark
    # workload runs it (there at depth 7)
    "pressure_similarity_geometric": (
        "pressure",
        "a2caf93ea862086495c93ee24d13e8acbc455cf4e6001dc9bd4a610f89fca75f"),
}


def _record_config(name):
    path = ROOT / "run_configs" / f"{name}.json"
    if path.exists():
        return json.loads(path.read_text())
    small = {"truncation": {"m_schedule": [2], "memory": 2},
             "dimension": {"s_grid": [0.6, 0.9, 1.2]},
             "seed": 3}
    if name == "pressure_similarity_geometric":
        return {"system": {"variant": "similarity",
                           "schedule": {"kind": "geometric"}},
                "potential": {"kind": "geometric", "s": 1.0},
                "truncation": {"m_schedule": [2, 3], "memory": 1, "depth": 5}}
    if name in ("dimension_two_ratio", "dimension_custom"):
        return {"system": {"variant": "similarity",
                           "schedule": _SCHEDULES_3[name[len("dimension_"):]]},
                "truncation": {"m_schedule": [3], "memory": 1},
                "dimension": {"s_grid": [0.4, 0.7, 1.0]}, "seed": 3}
    if name == "dimension_conjugate_small":
        # realizes log|T'|: exact exponents, no draw
        return {"system": {"variant": "inverse_conjugate"}, **small}
    # chi_T reads the log|T'| table realized at memory 2 with the constant
    # chain's masses pushed to 2-words
    return {"system": {"variant": "inverse_square"},
            "potential": {"kind": "constant", "value": 0.0}, **small}


class TestRecordBytes:
    """Same seed, same bytes: pressure and dimension results and CSVs match
    digests recorded earlier."""

    @pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
    def test_results_and_csv_digest(self, tmp_path, name):
        command, expected = RECORD_DIGESTS[name]
        out = tmp_path / "out"
        assert run([command, "--config",
                    write_config(tmp_path, _record_config(name)),
                    "--out", str(out)]) == 0
        assert _results_and_csv_digest(out, command) == expected


class TestVerifyCommand:
    def test_conjugate_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [5], "memory": 1},
            "verify": {"samples": 2000, "induced_k_max": 2,
                       "subdivisions": 128},
        })
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "verify")
        report = record["results"]["system_report"]
        assert report["osc_ok"] is True
        assert report["max_digit"] == 5
        assert 0.0 < report["derivative_band"][0] < report["derivative_band"][1] < 1.0
        maps = record["results"]["induced_maps"]
        assert maps["count"] > 0
        assert maps["all_contracting"] is True
        assert 0.0 < maps["max_derivative_sup"] < 1.0
        check = record["results"]["derivative_check"]
        assert check["diff"] <= 1e-3
        assert record["warnings"] == []

    def test_overlapping_images_warn(self, tmp_path):
        # every translation 0: the four depth-1 images are one disk
        cfg = write_config(tmp_path, {
            "system": {"variant": "similarity",
                       "schedule": {"kind": "custom", "table": [
                           [m, n, 0.2, 0.0, 0.0] for m in (1, 2) for n in (1, 2)]}},
            "truncation": {"m_schedule": [2], "memory": 1},
        })
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "verify")
        assert record["results"]["system_report"]["osc_ok"] is False
        assert record["warnings"] == [
            "depth-1 images overlap (open set condition fails)"]

    def test_large_derivative_residual_warns(self, tmp_path):
        # a step of 1.9 leaves the finite difference 3.3e-3 off the integral
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2]},
            "verify": {"s": 2.0, "h_step": 1.9},
        })
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        record = read_record(out, "verify")
        diff = record["results"]["derivative_check"]["diff"]
        assert diff == pytest.approx(3.3e-3, abs=1e-4)
        assert record["warnings"] == [
            f"derivative check residual {diff:g} is large"]

    def test_one_symbol_min_image_gap_is_null(self, tmp_path):
        # M = 1 has one depth-1 image and no pair to separate
        cfg = write_config(tmp_path, {"truncation": {"m_schedule": [1]}})
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = read_record(out, "verify")["results"]["system_report"]
        assert report["min_image_gap"] is None
        assert report["osc_ok"] is True


def test_record_values_infinite_as_null_nan_kept():
    # the one rule for a missing bound; a NaN is a fault, left to show
    got = cli._finite({"a": (1.0, -math.inf), "b": [{"c": math.inf}],
                       "d": np.float64(np.inf), "e": math.nan, "f": 3})
    assert got["a"] == [1.0, None] and got["b"] == [{"c": None}]
    assert got["d"] is None and math.isnan(got["e"]) and got["f"] == 3


class TestThreads:
    def test_flag_beats_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "depth": 3},
            "threads": 3,
        })
        out = tmp_path / "out"
        assert run(["pressure", "--config", cfg, "--out", str(out),
                    "--threads", "2"]) == 0
        assert read_record(out, "pressure")["config"]["threads"] == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_flag_below_one_exits_2(self, tmp_path, threads):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        assert run(["pressure", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--threads", threads]) == 2


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # a fresh interpreter, run from the directory that holds the package
        src = Path(cli.__file__).parents[1]
        # nor OpenSSL (config_hash uses the built-in SHA-256) nor decimal
        # (fractions loads only for exact certificates)
        probe = ("import sys, fiberdim.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('scipy', 'jsonschema', '_hashlib', "
                 "'fractions', 'decimal')))")
        proc = subprocess.run([sys.executable, "-c", probe], cwd=src,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_sample_command_loads_no_scipy(self, tmp_path):
        # a fresh interpreter runs a sample command through cli.run, local
        # dimension included, and then lists the scipy modules it holds
        src = Path(cli.__file__).parents[1]
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "sample": {"target": "z_marginal", "n_points": 2000, "depth": 25,
                       "n_centers": 50},
        })
        out = tmp_path / "out"
        probe = ("import sys; from fiberdim.cli import run; "
                 f"code = run(['sample', '--config', {cfg!r}, "
                 f"'--out', {str(out)!r}]); "
                 "print(code, sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], cwd=src,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip().splitlines()[-1] == "0 []"
        record = read_record(out, "sample")
        assert record["results"]["local_dimension"] is not None

    @pytest.mark.parametrize("potential, draws", [
        ({"kind": "geometric", "s": 1.0}, False),
        ({"kind": "constant", "value": 0.0}, False)])
    def test_dimension_samples_only_for_chi_T(self, tmp_path, potential,
                                              draws):
        # a fresh interpreter runs a dimension command: every exponent is
        # exact, so whatever the potential it never loads numpy.random
        src = Path(cli.__file__).parents[1]
        cfg = write_config(tmp_path, {
            "potential": potential,
            "truncation": {"m_schedule": [2], "memory": 1},
            "dimension": {"s_grid": [0.6, 0.9, 1.2]},
        })
        out = tmp_path / "out"
        probe = ("import sys; from fiberdim.cli import run; "
                 f"code = run(['dimension', '--config', {cfg!r}, "
                 f"'--out', {str(out)!r}]); "
                 "print(code, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], cwd=src,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip().splitlines()[-1] == f"0 {draws}"


class TestModuleEntryPoint:
    def test_smoke(self, tmp_path):
        # a fresh interpreter, run from the directory that holds the package
        src = Path(cli.__file__).parents[1]
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        out = tmp_path / "out"
        command = [sys.executable, "-m", "fiberdim.cli", "pressure",
                   "--config", cfg, "--out", str(out)]
        proc = subprocess.run(command, cwd=src, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == str(out / "pressure_record.json")
        assert (out / "pressure_record.json").exists()

        bad = write_config(tmp_path, {"truncation": {"depth": 1}}, "bad.json")
        command[command.index(cfg)] = bad
        proc = subprocess.run(command, cwd=src, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_early_exit_loses_no_output(self, tmp_path):
        # the entry ends the process with os._exit: the piped record path,
        # the record and the cloud CSV must all be complete by then
        src = Path(cli.__file__).parents[1]
        cfg = write_config(tmp_path, {
            "truncation": {"m_schedule": [2], "memory": 1},
            "sample": {"target": "fiber", "n_points": 3000, "depth": 25,
                       "n_centers": 50},
        })
        piped, direct = tmp_path / "piped", tmp_path / "direct"
        # a block-buffered stdout, whatever the calling environment sets
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-m", "fiberdim.cli", "sample", "--config", cfg,
             "--out", str(piped)], cwd=src, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{piped / 'sample_record.json'}\n".encode()
        assert run(["sample", "--config", cfg, "--out", str(direct)]) == 0
        record = read_record(piped, "sample")
        assert record["results"] == read_record(direct, "sample")["results"]
        assert record["files"] == ["cloud_fiber.csv"]
        assert ((piped / "cloud_fiber.csv").read_bytes()
                == (direct / "cloud_fiber.csv").read_bytes())

    def test_numeric_failure_exits_1_with_its_message(self, tmp_path):
        # the config of TestConfigErrors.test_reducible_table_exits_1
        src = Path(cli.__file__).parents[1]
        cfg = write_config(tmp_path, {
            "potential": {"kind": "table",
                          "table": [[[[1, 1], [1, 1]], 0.0],
                                    [[[2, 2], [2, 2]], 0.0]]},
            "truncation": {"m_schedule": [2], "depth": 4},
        })
        proc = subprocess.run(
            [sys.executable, "-m", "fiberdim.cli", "pressure", "--config", cfg,
             "--out", str(tmp_path / "out")],
            cwd=src, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "numeric failure: NonPrimitive" in proc.stderr


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("fiberdim") is None,
                        reason="console script not installed")
    def test_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {
            "potential": {"kind": "constant", "value": 0.0},
            "truncation": {"m_schedule": [2], "depth": 3},
        })
        out = tmp_path / "out"
        proc = subprocess.run(
            ["fiberdim", "pressure", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("pressure_record.json")
        assert (out / "pressure_record.json").exists()
