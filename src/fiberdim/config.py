"""Run configuration: one field table, defaults, canonical hashing, builders.

One JSON document drives every command.  User files are deep-merged over the
embedded defaults, every leaf of the result is checked against `FIELDS`, and
the merged result is echoed into each output record so a record is
reproducible on its own.
"""

from __future__ import annotations

import copy
import json
import math
import operator

try:  # the interpreter's built-in SHA-256, as `random` imports it: no OpenSSL
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython < 3.12
    except ImportError:
        from hashlib import sha256

from .empirics import CHARTS, TARGETS
from .errors import ConfigError
from .systems import FAMILIES, SimilaritySchedule, SmaleSystem, make_system
from .thermo import GeometricPotential, TablePotential
from .words import pair_alphabet


def _fail(path: str, message: str):
    raise ConfigError(f"config invalid at {path or '<root>'}: {message}")


def number(integer: bool = False, gt=None, ge=None, lt=None, le=None):
    """A finite JSON number (a JSON integer if `integer`) within the given
    bounds; NaN and infinities are rejected because no record can hold them."""
    kind = "an integer" if integer else "a number"
    tests = [(bound, sym, op) for bound, sym, op in (
        (gt, ">", operator.gt), (ge, ">=", operator.ge),
        (lt, "<", operator.lt), (le, "<=", operator.le)) if bound is not None]

    def check(value, path):
        if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)):
            _fail(path, f"{value!r} is not {kind}")
        if isinstance(value, float) and not math.isfinite(value):
            _fail(path, f"{value!r} is not finite")
        for bound, sym, op in tests:
            if not op(value, bound):
                _fail(path, f"{value!r} is not {sym} {bound}")
    return check


def one_of(*names):
    """One of the given strings."""
    def check(value, path):
        if value not in names:
            _fail(path, f"{value!r} is not one of {list(names)}")
    return check


def array(item, min_items: int = 0, max_items: int = None):
    """A JSON array of min_items..max_items entries that each pass `item`;
    a tuple of checks instead checks the entries position by position."""
    def check(value, path):
        if not isinstance(value, list):
            _fail(path, f"{value!r} is not an array")
        if len(value) < min_items:
            _fail(path, f"has {len(value)} items, fewer than {min_items}")
        if max_items is not None and len(value) > max_items:
            _fail(path, f"has {len(value)} items, more than {max_items}")
        checks = item if isinstance(item, tuple) else (item,) * len(value)
        for i, (entry, entry_check) in enumerate(zip(value, checks)):
            entry_check(entry, f"{path}/{i}")
    return check


def or_null(inner):
    """null, or a value that passes `inner`."""
    def check(value, path):
        if value is not None:
            inner(value, path)
    return check


# every config key once: sections are dicts, leaves are (default, check)
FIELDS = {
    "system": {
        "variant": ("inverse_conjugate", one_of(*FAMILIES)),
        "schedule": {
            "kind": ("geometric", one_of(*SimilaritySchedule.KINDS)),
            "base": (2.0, number(gt=1)),
            "ratio": (0.125, number(gt=0, lt=1)),
            "ratio_a": (0.125, number(gt=0, lt=1)),
            "ratio_b": (0.0625, number(gt=0, lt=1)),
            "grid_digit": (2, number(integer=True, ge=1)),
            "inner_factor": (0.5, number(gt=0, le=0.5)),
            "table": ([], array(array((  # rows [m, n, ratio, re, im]
                number(integer=True, ge=1), number(integer=True, ge=1),
                number(), number(), number()), 5, 5))),
        },
        "center": (None, or_null(array(number(), 2, 2))),
        "radius": (None, or_null(number(gt=0))),
    },
    "potential": {
        "kind": ("geometric", one_of("geometric", "constant", "table")),
        "s": (1.0, number(ge=0)),
        "value": (0.0, number()),
        "table": ([], array(array((  # rows [word, value]
            array(array(number(integer=True, ge=1), 2, 2), 1),  # [m, n] pairs
            number()), 2, 2))),
    },
    "truncation": {
        "m_schedule": ([2, 3], array(number(integer=True, ge=1), 1)),
        "memory": (None, or_null(number(integer=True, ge=1))),
        "depth": (6, number(integer=True, ge=2)),
    },
    "dimension": {
        "s_grid": (None, or_null(array(number(ge=0), 3))),
        "s_range": {
            "start": (0.1, number(ge=0)),
            "stop": (2.0, number(gt=0)),
            "count": (20, number(integer=True, ge=3)),
        },
        "bowen_tol": (1e-6, number(gt=0)),
    },
    "sample": {
        "target": ("fiber", one_of(*TARGETS)),
        "n_points": (None, or_null(number(integer=True, ge=1000))),
        "depth": (30, number(integer=True, ge=20)),
        "chart": ("unit_square", one_of(*CHARTS)),
        "n_centers": (400, number(integer=True, ge=10)),
        "window": (None, or_null(array((  # r_min, r_max, n_scales
            number(gt=0), number(gt=0), number(integer=True, ge=4)), 3, 3))),
        "predicted": (None, or_null(number())),
        "box_scales": (8, number(integer=True, ge=5)),
    },
    "verify": {
        "samples": (4000, number(integer=True, ge=100)),
        "s": (1.0, number(ge=0)),
        "h_step": (1e-3, number(gt=0)),
        "induced_k_max": (3, number(integer=True, ge=0)),
        "subdivisions": (256, number(integer=True, ge=16)),
    },
    "seed": (0, number(integer=True, ge=0)),
    "threads": (None, or_null(number(integer=True, ge=1))),
}


def _defaults(fields: dict) -> dict:
    return {key: _defaults(spec) if isinstance(spec, dict) else spec[0]
            for key, spec in fields.items()}


DEFAULTS = _defaults(FIELDS)


def _check(doc, fields: dict, path: str = ""):
    """ConfigError at the first unknown key, non-object section or bad leaf."""
    if not isinstance(doc, dict):
        _fail(path, f"{doc!r} is not an object")
    for key, value in doc.items():
        spec = fields.get(key)
        if spec is None:
            _fail(path, f"unknown key {key!r}")
        where = f"{path}/{key}" if path else key
        if isinstance(spec, dict):
            _check(value, spec, where)
        else:
            spec[1](value, where)


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(user: dict = None, overrides: dict = None) -> dict:
    """Merge a user document, then top-level overrides, over the defaults and
    check the result against FIELDS."""
    user = {} if user is None else user
    if not isinstance(user, dict):
        raise ConfigError("config document must be a JSON object")
    merged = deep_merge(DEFAULTS, {**user, **(overrides or {})})
    _check(merged, FIELDS)
    return merged


def canonical_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(config: dict) -> str:
    """sha256 over the canonicalized effective config."""
    return sha256(canonical_json(config).encode("utf-8")).hexdigest()


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


def build_potential(config: dict, system: SmaleSystem, max_digit: int):
    """Build the configured potential; table kinds bind to one truncation."""
    sec = config["potential"]
    if sec["kind"] == "constant":
        return TablePotential.from_dict(
            max_digit, dict.fromkeys(pair_alphabet(max_digit), sec["value"]))
    if sec["kind"] == "geometric":
        return GeometricPotential(system, float(sec["s"]))
    mapping = {}
    for word, value in sec["table"]:
        key = tuple(tuple(sym) for sym in word)
        if key in mapping:
            raise ConfigError(f"table word {key} is repeated")
        mapping[key] = value
    return TablePotential.from_dict(max_digit, mapping)


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
