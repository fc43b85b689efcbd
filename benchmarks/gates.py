"""Correctness gates and output digests for CLI run records.

Tolerances are those of the acceptance battery in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

CROSS_METHOD_TOL = 1e-3
GAP_TOL = 1e-3
MORAN_TOL = 1e-6
DERIVATIVE_TOL = 1e-3
BIAS_TOL = 0.05


def _pressure(results):
    return [f"M={row['max_digit']}: cross_method_diff {row['cross_method_diff']:g}"
            for row in results["pressure"]
            if not row["cross_method_diff"] <= CROSS_METHOD_TOL]


def _dimension(results):
    misses = []
    if not results["gap"] <= GAP_TOL:
        misses.append(f"gap {results['gap']:g}")
    if "moran_diff" in results and not results["moran_diff"] <= MORAN_TOL:
        misses.append(f"moran_diff {results['moran_diff']:g}")
    return misses


def _verify(results):
    misses = []
    check = results["derivative_check"]
    if not check["diff"] <= max(DERIVATIVE_TOL, 2.0 * check["integral_se"]):
        misses.append(f"derivative_check.diff {check['diff']:g}")
    if results["induced_maps"]["all_contracting"] is not True:
        misses.append("induced maps not all contracting")
    if results["system_report"]["osc_ok"] is not True:
        misses.append("open set condition fails")
    return misses


def _in_range(value, dim) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= dim


def _sample(results):
    exact = results.get("exactness")
    if exact is not None:
        if not abs(exact["bias"]) <= BIAS_TOL:
            return [f"exactness.bias {exact['bias']:g}"]
        return []
    misses = []
    dim = results["dim"]
    if not _in_range(results["box_dimension"]["value"], dim):
        misses.append(f"box dimension {results['box_dimension']['value']} "
                      f"outside [0, {dim}]")
    local = results["local_dimension"]
    if local is None or not _in_range(local["mean"], dim):
        misses.append(f"local dimension {local and local['mean']} "
                      f"outside [0, {dim}]")
    return misses


_GATES = {"pressure": _pressure, "dimension": _dimension,
          "verify": _verify, "sample": _sample}


def gate_misses(record: dict) -> list[str]:
    """Why a record fails its command's gate; empty when it passes."""
    return _GATES[record["command"]](record["results"])


def digest(record: dict, out_dir: str) -> str:
    """sha256 of a record's results and the files it wrote.

    Timestamps live outside ``results`` and are left out, so two runs of one
    config give one digest exactly when their outputs agree byte for byte.
    """
    h = hashlib.sha256(json.dumps(record["results"], sort_keys=True,
                                  separators=(",", ":")).encode("utf-8"))
    for name in sorted(record["files"]):
        h.update(name.encode("utf-8"))
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
