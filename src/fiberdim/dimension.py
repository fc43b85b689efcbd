"""Dimension formulas: fiber h/chi, Bowen root, global branch forms, sweeps.

All exact quantities run through the realized finite-memory Gibbs chain, so
the chain identities hold to eigensolver precision: pressure differentiates
to minus the fiber exponent, the fiber dimension curve s -> h/chi peaks
exactly at the Bowen root, and the variational gap closes by construction
rather than by tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, ConfigError, DegenerateExponent
from .systems import SmaleSystem
from .thermo import (
    GeometricPotential,
    entropy,
    gibbs_markov,
    lyapunov_fiber_exact,
)
from .words import check_max_digit

#: Newton step cap for the Bowen and Moran roots.
BOWEN_MAX_ITER = 50


# ---------------------------------------------------------------------------
# summability of the one-step derivative sum

@dataclass(frozen=True)
class SummabilityReport:
    """Convergence verdict per s of the infinite-alphabet depth-1 sum."""

    s_grid: tuple
    verdicts: tuple   # 'summable' | 'divergent'
    threshold: float  # theta of ``FiberFamily.summability_threshold``


def summability_scan(system: SmaleSystem, s_grid) -> SummabilityReport:
    """Verdict per s on convergence of sum(sup-derivative^s) over all symbols.

    The sum converges exactly when s exceeds the family's threshold theta,
    so the verdict is 'summable' for s > theta and 'divergent' otherwise.
    """
    s_grid = tuple(float(s) for s in s_grid)
    if not s_grid:
        raise ConfigError("empty s grid")
    theta = system.family.summability_threshold(system)
    return SummabilityReport(
        s_grid=s_grid,
        verdicts=tuple("summable" if s > theta else "divergent" for s in s_grid),
        threshold=theta,
    )


# ---------------------------------------------------------------------------
# fiber dimension and the Bowen root

def _fiber_dimension(system: SmaleSystem, s: float, max_digit: int,
                     memory: int = None) -> tuple:
    """(h/chi, chi, log pressure) of the geometric Gibbs state at s."""
    g = gibbs_markov(GeometricPotential(system, float(s)), max_digit, memory)
    chi = lyapunov_fiber_exact(g)
    if chi <= 0:
        raise DegenerateExponent(f"fiber exponent {chi} not positive")
    return entropy(g) / chi, chi, g.log_pressure


@dataclass(frozen=True)
class BowenResult:
    """Last Newton iterate, its pressure, the chain builds, and (root, h/chi)."""

    root: float
    residual: float
    iterations: int
    bracket: tuple


def bowen_dimension(system: SmaleSystem, max_digit: int, tol: float = 1e-4,
                    memory: int = None) -> BowenResult:
    """Root of s -> pressure(s geometric) by Newton iteration from s = 0.

    The realized pressure P(s) = h - s chi is convex with P' = -chi, so the
    Newton step s + P/chi is the fiber dimension h/chi at s, and the
    iterates increase to the root.  The iteration stops once the step is at
    most ``tol``, or once it stops shrinking: in exact arithmetic a step
    shrinks unless chi more than halves, so otherwise it has reached float
    resolution.
    """
    M = check_max_digit(max_digit)
    s = 0.0
    delta, chi, pressure = _fiber_dimension(system, s, M, memory)
    if pressure <= 0:
        raise BracketFailure(f"pressure at s=0 is {pressure}, expected positive")
    step, builds = delta, 1
    while step > tol:
        if builds == BOWEN_MAX_ITER:
            raise BracketFailure(
                f"no Bowen root within {BOWEN_MAX_ITER} chain builds "
                f"(last step {step:g})")
        s, last_step, last_chi = delta, step, chi
        delta, chi, pressure = _fiber_dimension(system, s, M, memory)
        builds += 1
        step = abs(delta - s)
        if step >= last_step and 2.0 * chi > last_chi:
            break
    return BowenResult(root=s, residual=pressure, iterations=builds,
                       bracket=tuple(sorted((s, delta))))


def moran_root(moduli, tol: float = 1e-14) -> float:
    """Independent scalar solve of sum(moduli^s) = 1 by Newton from s = 0.

    log sum r^s is convex with slope m1 < 0, the tilted mean of log r, so
    the step -log(sum r^s)/m1 moves up to the root; it stops by the rule of
    ``bowen_dimension`` with -m1 in place of chi.
    """
    mods = np.array([float(r) for r in moduli])
    if not mods.size or not np.all((mods > 0) & (mods < 1)):
        raise ConfigError("moduli must lie in (0, 1)")
    g = np.log(mods)
    s, step, chi = 0.0, math.inf, math.inf
    for _ in range(BOWEN_MAX_ITER):
        w = np.exp(s * g)
        Z = w.sum()
        log_z, m1 = math.log(Z), float(w / Z @ g)
        last_step, last_chi = step, chi
        step, chi = abs(log_z / m1), -m1
        s -= log_z / m1
        if step <= tol or (step >= last_step and 2.0 * chi > last_chi):
            return s
    raise BracketFailure(f"no Moran root within {BOWEN_MAX_ITER} Newton steps")


# ---------------------------------------------------------------------------
# global dimension branch formulas

def branch_value(stats, branch: str) -> float:
    """Evaluate one closed-form branch of the global dimension."""
    if branch == "b":
        z_part = (stats.h_mu - stats.h_mu1 * (1.0 - stats.chi2 / stats.chi1)) / stats.chi2
    elif branch == "c":
        z_part = (stats.h_mu - stats.h_mu2 * (1.0 - stats.chi1 / stats.chi2)) / stats.chi1
    else:
        raise ConfigError(f"unknown branch {branch!r}")
    return z_part + stats.h_mu / stats.chi_T


def global_dimension(stats) -> tuple:
    """(value, branch): branch b exactly when lambda1 < lambda2."""
    branch = "b" if stats.lambda1 < stats.lambda2 else "c"
    return branch_value(stats, branch), branch


# ---------------------------------------------------------------------------
# variational sweep

@dataclass(frozen=True)
class SweepResult:
    """Fiber-dimension curve over an s grid with self-consistency gauges.

    Besides the curve, its sup and the Bowen root delta_T, the fields carry
    the smoothness proxy, the measured exponent floor, and the Bowen solve
    whose root is delta_T.
    """

    curve: tuple  # rows (s, delta)
    sup_value: float
    argmax: float
    delta_T: float
    gap: float
    second_differences: tuple
    max_second_difference: float
    min_chi: float
    bowen: BowenResult


def _second_differences(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Three-point second-derivative estimates on a possibly uneven grid."""
    h1, h2 = s[1:-1] - s[:-2], s[2:] - s[1:-1]
    out = np.full(len(s), np.nan)
    out[1:-1] = 2.0 * (d[:-2] / (h1 * (h1 + h2)) - d[1:-1] / (h1 * h2)
                       + d[2:] / (h2 * (h1 + h2)))
    return out


def check_s_grid(s_grid) -> np.ndarray:
    """The sorted grid; ConfigError unless it has 3 or more distinct points."""
    s_vals = np.array(sorted(float(s) for s in s_grid))
    if s_vals.size < 3:
        raise ConfigError("need at least 3 grid points")
    if not np.all(np.diff(s_vals) > 0):
        raise ConfigError("grid points must be distinct")
    return s_vals


def variational_sweep(system: SmaleSystem, max_digit: int, s_grid,
                      memory: int = None, bowen_tol: float = 1e-6) -> SweepResult:
    """Evaluate the fiber dimension curve and compare its peak to the root."""
    s_vals = check_s_grid(s_grid)
    deltas, chis, _ = np.array([_fiber_dimension(system, s, max_digit, memory)
                                for s in s_vals]).T
    bowen = bowen_dimension(system, max_digit, tol=bowen_tol, memory=memory)
    sup_value = float(deltas.max())
    d2 = _second_differences(s_vals, deltas)
    return SweepResult(
        curve=tuple((float(s), float(d)) for s, d in zip(s_vals, deltas)),
        sup_value=sup_value, argmax=float(s_vals[int(deltas.argmax())]),
        delta_T=bowen.root, gap=abs(sup_value - bowen.root),
        second_differences=tuple(float(x) for x in d2),
        max_second_difference=float(np.nanmax(np.abs(d2))),
        min_chi=float(chis.min()), bowen=bowen,
    )
