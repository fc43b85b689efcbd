"""Seeded config generator for the benchmark workloads.

The seed picks only geometric exponents ``s``, the offset of the dimension
``s`` grid and the sampling seeds.  Every size is a constant below, so the
cost of a workload does not depend on the seed.
"""

from __future__ import annotations

import random

# pressure_scan: depth 6 at memory 2 and M=3 enumerates 9^7 words, just under
# the package's ENUMERATION_CAP; the similarity run reaches depth 7 at memory 1.
PRESSURE_M = [2, 3]
PRESSURE_DEPTH = 6
PRESSURE_SIMILARITY_DEPTH = 7

# dimension_sweep: M=4 at memory 2 gives 256-state chains; the 13-point grid
# of step 0.1 keeps both reciprocal Bowen roots (0.51 and 0.98) inside it and
# the grid-resolution gap below 2e-4.
DIMENSION_M = 4
GRID_COUNT = 13
GRID_STEP = 0.1
GRID_START = 0.2
SIMILARITY_SCHEDULE = {"kind": "equal", "ratio": 0.2, "inner_factor": 0.5}
VERIFY_M = 5

# cloud_sample: the similarity fiber cloud of run_configs/sample_fiber.json
# and two reciprocal clouds of 100k points on 81-state chains.
SAMPLE_FIBER_SCHEDULE = {"kind": "equal", "ratio": 0.125, "inner_factor": 0.5}
CLOUD_M = 3

WORKLOADS = ("pressure_scan", "dimension_sweep", "cloud_sample")


def _exponent(rng: random.Random) -> float:
    # a narrow range: the exponent shapes the clouds, and with them the cost
    # of neighbour and box counting
    return round(rng.uniform(0.8, 1.2), 6)


def _sampling_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _pressure_scan(rng):
    cmds = []
    for variant in ("inverse_conjugate", "inverse_square"):
        cmds.append(("pressure", variant, {
            "system": {"variant": variant},
            "potential": {"kind": "geometric", "s": _exponent(rng)},
            "truncation": {"m_schedule": PRESSURE_M, "memory": 2,
                           "depth": PRESSURE_DEPTH},
        }))
    cmds.append(("pressure", "similarity", {
        "system": {"variant": "similarity",
                   "schedule": {"kind": "geometric"}},
        "potential": {"kind": "geometric", "s": _exponent(rng)},
        "truncation": {"m_schedule": PRESSURE_M, "memory": 1,
                       "depth": PRESSURE_SIMILARITY_DEPTH},
    }))
    return cmds


def _grid(rng):
    # unrounded offset: no grid point lands on a Bowen bisection point, so
    # the only chain-cache hit is the stats potential below
    start = GRID_START + rng.random() * GRID_STEP
    return [start + GRID_STEP * i for i in range(GRID_COUNT)]


def _on_grid(rng, grid):
    """Geometric potential at one grid point: its chain is a cache hit."""
    return {"kind": "geometric", "s": grid[rng.randrange(len(grid))]}


def _dimension_sweep(rng):
    cmds = []
    for variant in ("inverse_conjugate", "inverse_square"):
        grid = _grid(rng)
        cmds.append(("dimension", variant, {
            "system": {"variant": variant},
            "potential": _on_grid(rng, grid),
            "truncation": {"m_schedule": [DIMENSION_M], "memory": 2},
            "dimension": {"s_grid": grid},
            "seed": _sampling_seed(rng),
        }))
    grid = _grid(rng)
    cmds.append(("dimension", "similarity", {
        "system": {"variant": "similarity", "schedule": SIMILARITY_SCHEDULE},
        "potential": _on_grid(rng, grid),
        "truncation": {"m_schedule": [2]},
        "dimension": {"s_grid": grid, "bowen_tol": 1e-9},
        "seed": _sampling_seed(rng),
    }))
    cmds.append(("verify", "inverse_conjugate", {
        "system": {"variant": "inverse_conjugate"},
        "truncation": {"m_schedule": [VERIFY_M]},
        "verify": {"samples": 2000, "s": _exponent(rng),
                   "h_step": 1e-3, "induced_k_max": 2, "subdivisions": 128},
        "seed": _sampling_seed(rng),
    }))
    return cmds


def _cloud_sample(rng):
    return [
        ("sample", "similarity", {
            "system": {"variant": "similarity",
                       "schedule": SAMPLE_FIBER_SCHEDULE},
            "potential": {"kind": "geometric", "s": _exponent(rng)},
            "truncation": {"m_schedule": [2]},
            "sample": {"target": "fiber", "n_points": 100_000, "depth": 30,
                       "chart": "raw", "n_centers": 400,
                       "window": [9.2e-05, 0.377, 13], "predicted": 0.5},
            "seed": _sampling_seed(rng),
        }),
        ("sample", "inverse_conjugate", {
            "system": {"variant": "inverse_conjugate"},
            "potential": {"kind": "geometric", "s": _exponent(rng)},
            "truncation": {"m_schedule": [CLOUD_M]},
            "sample": {"target": "global", "n_points": 100_000, "depth": 30},
            "seed": _sampling_seed(rng),
        }),
        ("sample", "inverse_square", {
            "system": {"variant": "inverse_square"},
            "potential": {"kind": "geometric", "s": _exponent(rng)},
            "truncation": {"m_schedule": [CLOUD_M]},
            "sample": {"target": "fiber", "n_points": 100_000, "depth": 30},
            "seed": _sampling_seed(rng),
        }),
    ]


_GENERATORS = {
    "pressure_scan": _pressure_scan,
    "dimension_sweep": _dimension_sweep,
    "cloud_sample": _cloud_sample,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's commands, in run order, as name/command/config dicts."""
    rng = random.Random(f"{workload}:{seed}")
    return [{"name": f"{command}_{variant}", "command": command,
             "config": config}
            for command, variant, config in _GENERATORS[workload](rng)]
