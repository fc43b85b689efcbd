"""Run configuration: schema, defaults, canonical hashing, builders.

One JSON document drives every command.  User files are deep-merged over the
embedded defaults, validated against the schema, and the merged result is
echoed into each output record so a record is reproducible on its own.
"""

from __future__ import annotations

import copy
import hashlib
import json

import jsonschema

from .errors import ConfigError
from .systems import FAMILIES, SimilaritySchedule, SmaleSystem, make_system
from .thermo import ConstantPotential, GeometricPotential, TablePotential

DEFAULTS = {
    "system": {
        "variant": "inverse_conjugate",
        "schedule": {
            "kind": "geometric",
            "base": 2.0,
            "ratio": 0.125,
            "ratio_a": 0.125,
            "ratio_b": 0.0625,
            "grid_digit": 2,
            "inner_factor": 0.5,
            "table": [],
        },
        "center": None,
        "radius": None,
    },
    "potential": {
        "kind": "geometric",
        "s": 1.0,
        "value": 0.0,
        "table": [],
        "scale": 1.0,
    },
    "truncation": {
        "m_schedule": [2, 3],
        "memory": None,
        "depth": 6,
    },
    "dimension": {
        "s_grid": None,
        "s_range": {"start": 0.1, "stop": 2.0, "count": 20},
        "bowen_tol": 1e-6,
    },
    "stats": {
        "depth": 8,
        "n_samples": 4000,
        "orbit_len": 100,
        "past_depth": 40,
    },
    "sample": {
        "target": "fiber",
        "n_points": None,
        "depth": 30,
        "chart": "unit_square",
        "n_centers": 400,
        "window": None,
        "predicted": None,
        "box_scales": 8,
    },
    "verify": {
        "samples": 4000,
        "s": 1.0,
        "h_step": 1e-3,
        "induced_k_max": 3,
        "subdivisions": 256,
    },
    "seed": 0,
    "threads": None,
}

_NUM = {"type": "number"}
_POS_INT = {"type": "integer", "minimum": 1}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": list(FAMILIES)},
                "schedule": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["geometric", "equal", "two_ratio",
                                          "custom"]},
                        "base": {"type": "number", "exclusiveMinimum": 1},
                        "ratio": {"type": "number", "exclusiveMinimum": 0,
                                  "exclusiveMaximum": 1},
                        "ratio_a": {"type": "number", "exclusiveMinimum": 0,
                                    "exclusiveMaximum": 1},
                        "ratio_b": {"type": "number", "exclusiveMinimum": 0,
                                    "exclusiveMaximum": 1},
                        "grid_digit": _POS_INT,
                        "inner_factor": {"type": "number",
                                         "exclusiveMinimum": 0,
                                         "maximum": 0.5},
                        "table": {"type": "array", "items": {
                            "type": "array", "minItems": 5, "maxItems": 5,
                            "items": {"type": "number"}}},
                    },
                },
                "center": {"anyOf": [{"type": "null"}, {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": _NUM}]},
                "radius": {"anyOf": [{"type": "null"},
                                     {"type": "number",
                                      "exclusiveMinimum": 0}]},
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["geometric", "constant", "table"]},
                "s": {"type": "number", "minimum": 0},
                "value": _NUM,
                "table": {"type": "array", "items": {
                    "type": "array", "minItems": 2, "maxItems": 2}},
                "scale": _NUM,
            },
        },
        "truncation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "m_schedule": {"type": "array", "minItems": 1,
                               "items": _POS_INT},
                "memory": {"anyOf": [{"type": "null"}, _POS_INT]},
                "depth": {"type": "integer", "minimum": 2},
            },
        },
        "dimension": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_grid": {"anyOf": [{"type": "null"}, {
                    "type": "array", "minItems": 3,
                    "items": {"type": "number", "minimum": 0}}]},
                "s_range": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "start": {"type": "number", "minimum": 0},
                        "stop": {"type": "number", "exclusiveMinimum": 0},
                        "count": {"type": "integer", "minimum": 3},
                    },
                },
                "bowen_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "stats": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "depth": {"type": "integer", "minimum": 2},
                "n_samples": {"type": "integer", "minimum": 100},
                "orbit_len": {"type": "integer", "minimum": 50},
                "past_depth": {"type": "integer", "minimum": 10},
            },
        },
        "sample": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "target": {"enum": ["fiber", "z_marginal", "global"]},
                "n_points": {"anyOf": [{"type": "null"},
                                       {"type": "integer", "minimum": 1000}]},
                "depth": {"type": "integer", "minimum": 20},
                "chart": {"enum": ["unit_square", "raw"]},
                "n_centers": {"type": "integer", "minimum": 10},
                "window": {"anyOf": [{"type": "null"}, {
                    "type": "array", "minItems": 3, "maxItems": 3,
                    "items": _NUM}]},
                "predicted": {"anyOf": [{"type": "null"}, _NUM]},
                "box_scales": {"type": "integer", "minimum": 5},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "samples": {"type": "integer", "minimum": 100},
                "s": {"type": "number", "minimum": 0},
                "h_step": {"type": "number", "exclusiveMinimum": 0},
                "induced_k_max": {"type": "integer", "minimum": 0},
                "subdivisions": {"type": "integer", "minimum": 16},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"anyOf": [{"type": "null"}, _POS_INT]},
    },
}


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(user: dict = None) -> dict:
    """Merge a user document over the defaults and validate the result."""
    merged = deep_merge(DEFAULTS, user or {})
    try:
        jsonschema.validate(merged, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    return merged


def canonical_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(config: dict) -> str:
    """sha256 over the canonicalized effective config."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# builders

def build_system(config: dict) -> SmaleSystem:
    sec = config["system"]
    center = None if sec["center"] is None else complex(*sec["center"])
    schedule = None
    if FAMILIES[sec["variant"]].uses_schedule:
        table = tuple(tuple(row) for row in sec["schedule"]["table"])
        schedule = SimilaritySchedule(**{**sec["schedule"], "table": table})
    return make_system(sec["variant"], schedule=schedule, center=center,
                       radius=sec["radius"])


def build_potential(config: dict, system: SmaleSystem, max_digit: int = None):
    """Build the configured potential; table kinds bind to one truncation."""
    sec = config["potential"]
    if max_digit is None:
        max_digit = max(config["truncation"]["m_schedule"])
    if sec["kind"] == "constant":
        return ConstantPotential(float(sec["value"]))
    if sec["kind"] == "geometric":
        return GeometricPotential(system, float(sec["s"]))
    mapping = {}
    for word, value in sec["table"]:
        key = tuple(tuple(int(d) for d in sym) for sym in word)
        for sym in key:
            if not (1 <= min(sym) and max(sym) <= max_digit):
                raise ConfigError(
                    f"table word {key} has digits outside 1..{max_digit}")
        mapping[key] = float(value)
    if not mapping:
        raise ConfigError("table potential needs at least one entry")
    return TablePotential.from_dict(max_digit, mapping, scale=float(sec["scale"]))


def resolve_s_grid(config: dict) -> list:
    sec = config["dimension"]
    if sec["s_grid"] is not None:
        return [float(s) for s in sec["s_grid"]]
    rng = sec["s_range"]
    count = rng["count"]
    start, stop = rng["start"], rng["stop"]
    if stop <= start:
        raise ConfigError("s_range stop must exceed start")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]
