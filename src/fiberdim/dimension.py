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
from scipy.optimize import brentq

from .errors import BracketFailure, ConfigError, DegenerateExponent, SummabilityFailure
from .systems import SmaleSystem
from .thermo import (
    GeometricPotential,
    GibbsApprox,
    MeasureStats,
    entropy,
    gibbs_markov,
    lyapunov_fiber_exact,
)
from .words import check_max_digit

#: Bisection bracket ceiling for the Bowen root.
S_MAX = 10.0

#: Tail-exponent margin separating summable/divergent verdicts from
#: inconclusive ones.
VERDICT_MARGIN = 0.15


# ---------------------------------------------------------------------------
# summability of the one-step derivative sum

@dataclass(frozen=True)
class SummabilityReport:
    """Tail behaviour of the depth-1 derivative sums as the truncation grows."""

    s_grid: tuple
    m_schedule: tuple
    depth1_sums: tuple  # rows per s, columns per M
    tail_slopes: tuple  # fitted log shell-sum vs log M slope per s
    verdicts: tuple     # 'summable' | 'divergent' | 'inconclusive'
    boundary_estimate: float


def _symbol_sups(system: SmaleSystem, m_max: int):
    """(per-symbol sup, shell index) over the truncation to max digit m_max."""
    grid = np.arange(1, m_max + 1)
    mm, nn = np.meshgrid(grid, grid, indexing="ij")
    sup = system.family.symbol_sup(system, mm, nn)
    shell = np.maximum(mm, nn)
    return sup.ravel(), shell.ravel()


def summability_scan(system: SmaleSystem, s_grid, m_schedule=(4, 8, 16, 32, 64)
                     ) -> SummabilityReport:
    """Verdict per s on convergence of the infinite-alphabet depth-1 sum.

    Shell increments of sum(sup-derivative^s) are fitted against log M; a
    tail slope clearly below -1 means the full sum converges, clearly above
    means it diverges, and the strip in between is reported inconclusive
    because partial sums alone cannot separate the two.  The boundary
    estimate interpolates the slope fit to the critical exponent -1.
    """
    s_grid = tuple(float(s) for s in s_grid)
    if not s_grid:
        raise ConfigError("empty s grid")
    m_schedule = tuple(sorted(int(m) for m in m_schedule))
    if system.family.digit_limit(system) < m_schedule[-1]:
        # grid-limited alphabet: the full sum is a finite sum
        return SummabilityReport(
            s_grid=s_grid, m_schedule=m_schedule,
            depth1_sums=tuple(() for _ in s_grid),
            tail_slopes=tuple(-math.inf for _ in s_grid),
            verdicts=tuple("summable" for _ in s_grid),
            boundary_estimate=0.0,
        )
    sup_flat, shell_flat = _symbol_sups(system, m_schedule[-1])
    sums, slopes, verdicts = [], [], []
    for s in s_grid:
        shells = np.zeros(m_schedule[-1])
        np.add.at(shells, shell_flat - 1, sup_flat ** s)
        partial = np.cumsum(shells)
        sums.append(tuple(float(partial[m - 1]) for m in m_schedule))
        half = [m for m in m_schedule if m >= m_schedule[-1] // 4]
        logm = np.array([math.log(m) for m in half])
        with np.errstate(divide="ignore"):
            logd = np.log([shells[m - 1] for m in half])
        fit_ok = np.isfinite(logd)
        if fit_ok.sum() >= 2:
            slope = float(np.polyfit(logm[fit_ok], logd[fit_ok], 1)[0])
        else:
            slope = -math.inf  # tail underflowed to zero: certainly summable
        slopes.append(slope)
        if slope <= -1.0 - VERDICT_MARGIN:
            verdicts.append("summable")
        elif slope >= -1.0 + VERDICT_MARGIN:
            verdicts.append("divergent")
        else:
            verdicts.append("inconclusive")
    order = np.argsort(s_grid)
    s_arr = np.array(s_grid)[order]
    sl_arr = np.array(slopes)[order]
    finite = np.isfinite(sl_arr)
    if finite.sum() >= 2 and (sl_arr[finite] + 1.0).min() < 0 < (sl_arr[finite] + 1.0).max():
        boundary = float(np.interp(-1.0, sl_arr[finite][np.argsort(sl_arr[finite])],
                                   s_arr[finite][np.argsort(sl_arr[finite])]))
    elif np.all(sl_arr[finite] < -1.0):
        boundary = 0.0
    else:
        boundary = math.nan
    return SummabilityReport(
        s_grid=s_grid, m_schedule=m_schedule, depth1_sums=tuple(sums),
        tail_slopes=tuple(slopes), verdicts=tuple(verdicts),
        boundary_estimate=boundary,
    )


# ---------------------------------------------------------------------------
# fiber dimension and the Bowen root

def fiber_gibbs(system: SmaleSystem, s: float, max_digit: int,
                memory: int = None) -> GibbsApprox:
    return gibbs_markov(GeometricPotential(system, float(s)), max_digit, memory)


def fiber_measure_dimension(system: SmaleSystem, s: float, max_digit: int,
                            memory: int = None) -> float:
    """h/chi of the geometric Gibbs state on the truncation.

    chi is the exact chain expectation of the realized log-derivative table;
    using the same expectation on both axes keeps the curve's maximum pinned
    to the Bowen root instead of floating on Monte Carlo noise.
    """
    g = fiber_gibbs(system, s, max_digit, memory)
    chi = lyapunov_fiber_exact(g)
    if chi <= 0:
        raise DegenerateExponent(f"fiber exponent {chi} not positive")
    return entropy(g) / chi


@dataclass(frozen=True)
class BowenResult:
    root: float
    residual: float
    iterations: int
    bracket: tuple


def bowen_dimension(system: SmaleSystem, max_digit: int, tol: float = 1e-4,
                    memory: int = None, details: bool = False):
    """Root of s -> pressure(s geometric) by bisection on [0, S_MAX].

    Pressure is strictly decreasing in s for uniformly contracting systems,
    so a sign change brackets the unique root.
    """
    M = check_max_digit(max_digit)

    def P(s: float) -> float:
        return fiber_gibbs(system, s, M, memory).log_pressure

    lo, p_lo = 0.0, P(0.0)
    if p_lo <= 0:
        raise BracketFailure(f"pressure at s=0 is {p_lo}, expected positive")
    hi = None
    for cand in (1.0, 2.0, 4.0, 8.0, S_MAX):
        if P(cand) <= 0:
            hi = cand
            break
        lo = cand
    if hi is None:
        raise BracketFailure(f"no pressure sign change up to s={S_MAX}")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if P(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    result = BowenResult(root=root, residual=P(root), iterations=iterations,
                         bracket=(lo, hi))
    return result if details else result.root


def moran_root(moduli, tol: float = 1e-14) -> float:
    """Independent scalar solve of sum(moduli^s) = 1."""
    mods = [float(r) for r in moduli]
    if not mods or any(not (0 < r < 1) for r in mods):
        raise ConfigError("moduli must lie in (0, 1)")

    def f(s):
        return sum(r ** s for r in mods) - 1.0

    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e4:
            raise BracketFailure("no Moran root below s = 1e4")
    return float(brentq(f, 0.0, hi, xtol=tol))


# ---------------------------------------------------------------------------
# global dimension branch formulas

def _check_stats(stats):
    if not (stats.chi1 > 0 and stats.chi2 > 0 and stats.chi_T > 0):
        raise DegenerateExponent("branch formulas need positive exponents")


def branch_value(stats, branch: str) -> float:
    """Evaluate one closed-form branch of the global dimension."""
    _check_stats(stats)
    if branch == "b":
        z_part = (stats.h_mu - stats.h_mu1 * (1.0 - stats.chi2 / stats.chi1)) / stats.chi2
    elif branch == "c":
        z_part = (stats.h_mu - stats.h_mu2 * (1.0 - stats.chi1 / stats.chi2)) / stats.chi1
    else:
        raise ConfigError(f"unknown branch {branch!r}")
    return z_part + stats.h_mu / stats.chi_T


def z_marginal_dimension(stats, branch: str = None) -> float:
    """The z-marginal part of the selected branch formula."""
    _check_stats(stats)
    if branch is None:
        branch = "b" if stats.lambda1 < stats.lambda2 else "c"
    return branch_value(stats, branch) - stats.h_mu / stats.chi_T


def global_dimension(stats) -> tuple:
    """(value, branch): branch b exactly when lambda1 < lambda2."""
    _check_stats(stats)
    branch = "b" if stats.lambda1 < stats.lambda2 else "c"
    return branch_value(stats, branch), branch


# ---------------------------------------------------------------------------
# variational sweep

@dataclass(frozen=True)
class SweepResult:
    """Fiber-dimension curve over an s grid with self-consistency gauges.

    Iterating yields (curve, sup_value, argmax, delta_T, gap); the extra
    fields carry the smoothness proxy and the measured exponent floor.
    """

    curve: tuple  # rows (s, delta, flag)
    sup_value: float
    argmax: float
    delta_T: float
    gap: float
    second_differences: tuple
    max_second_difference: float
    min_chi: float

    def __iter__(self):
        return iter((self.curve, self.sup_value, self.argmax,
                     self.delta_T, self.gap))


def _second_differences(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Three-point second-derivative estimates on a possibly uneven grid."""
    out = np.full(len(s), np.nan)
    for i in range(1, len(s) - 1):
        h1, h2 = s[i] - s[i - 1], s[i + 1] - s[i]
        out[i] = 2.0 * (d[i - 1] / (h1 * (h1 + h2))
                        - d[i] / (h1 * h2)
                        + d[i + 1] / (h2 * (h1 + h2)))
    return out


def variational_sweep(system: SmaleSystem, max_digit: int, s_grid,
                      memory: int = None, bowen_tol: float = 1e-6) -> SweepResult:
    """Evaluate the fiber dimension curve and compare its peak to the root."""
    s_vals = np.array(sorted(float(s) for s in s_grid))
    if s_vals.size < 3:
        raise ConfigError("need at least 3 grid points")
    deltas = np.full(s_vals.size, np.nan)
    chis = np.full(s_vals.size, np.nan)
    flags = []
    for i, s in enumerate(s_vals):
        try:
            g = fiber_gibbs(system, s, max_digit, memory)
            chis[i] = lyapunov_fiber_exact(g)
            deltas[i] = entropy(g) / chis[i]
            flags.append("ok")
        except SummabilityFailure as exc:
            flags.append(f"skipped: {exc}")
    delta_T = bowen_dimension(system, max_digit, tol=bowen_tol, memory=memory)
    ok = np.isfinite(deltas)
    if not ok.any():
        raise SummabilityFailure("every grid point was skipped")
    sup_value = float(np.nanmax(deltas))
    argmax = float(s_vals[int(np.nanargmax(deltas))])
    d2 = _second_differences(s_vals[ok], deltas[ok])
    return SweepResult(
        curve=tuple((float(s), float(d), f)
                    for s, d, f in zip(s_vals, deltas, flags)),
        sup_value=sup_value, argmax=argmax, delta_T=float(delta_T),
        gap=abs(sup_value - delta_T),
        second_differences=tuple(float(x) for x in d2),
        max_second_difference=float(np.nanmax(np.abs(d2))) if np.isfinite(d2).any() else math.nan,
        min_chi=float(np.nanmin(chis)),
    )


# ---------------------------------------------------------------------------
# closed forms for similarity systems

def _similarity_moments(system: SmaleSystem, max_digit: int, s: float):
    moduli = system.family.moduli(system, max_digit)
    if moduli is None:
        raise ConfigError("closed forms exist for similarity systems only")
    g = np.log(moduli)
    w = np.exp(s * g)
    Z = w.sum()
    p = w / Z
    m1 = float(p @ g)
    m2c = float(p @ (g - m1) ** 2)
    m3c = float(p @ (g - m1) ** 3)
    return math.log(Z), m1, m2c, m3c


def analytic_similarity_dimension(system: SmaleSystem, max_digit: int,
                                  s: float, order: int = 0) -> float:
    """Closed-form delta(s), delta'(s), or delta''(s) for similarity systems.

    With P = log sum exp(s g) and chi = -P', the curve is
    delta = s + P/chi; the derivatives follow from the central moments of g
    under the tilted weights.
    """
    P, m1, m2c, m3c = _similarity_moments(system, max_digit, s)
    if order == 0:
        return s - P / m1
    if order == 1:
        return P * m2c / m1 ** 2
    if order == 2:
        return m2c / m1 + P * (m3c * m1 - 2.0 * m2c ** 2) / m1 ** 3
    raise ConfigError("order must be 0, 1, or 2")


# ---------------------------------------------------------------------------
# assembled report

@dataclass(frozen=True)
class DimensionReport:
    bowen_root: float
    curve: tuple
    global_delta: float
    branch: str
    components: tuple  # (h_mu, h_mu1, h_mu2, chi1, chi2, chi_T)
    sweep: SweepResult
    branch_values: dict


def dimension_report(system: SmaleSystem, max_digit: int, s_grid,
                     stats: MeasureStats, memory: int = None,
                     bowen_tol: float = 1e-6) -> DimensionReport:
    sweep = variational_sweep(system, max_digit, s_grid, memory, bowen_tol)
    value, branch = global_dimension(stats)
    return DimensionReport(
        bowen_root=sweep.delta_T, curve=sweep.curve, global_delta=value,
        branch=branch,
        components=(stats.h_mu, stats.h_mu1, stats.h_mu2,
                    stats.chi1, stats.chi2, stats.chi_T),
        sweep=sweep,
        branch_values={"b": branch_value(stats, "b"),
                       "c": branch_value(stats, "c")},
    )
