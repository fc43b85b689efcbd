"""Acceptance suite: ten end-to-end checks at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with -s) and then asserts,
so the suite doubles as a checklist.  Runtime-bounded checks assert their
wall-clock budgets too.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fiberdim.dimension import (
    bowen_dimension,
    branch_value,
    moran_root,
    variational_sweep,
)
from fiberdim.empirics import local_dimension, sample_measure
from fiberdim.systems import SimilaritySchedule, make_system
from fiberdim.thermo import (
    ConstantPotential,
    GeometricPotential,
    MeasureStats,
    gibbs_markov,
    measure_stats,
    pressure_cylinder_sum,
    pressure_derivative_check,
)
from fiberdim.words import induced_ifs_maps, rho0_value

from oracles import (analytic_similarity_dimension, cf_map_derivative_mod,
                     gibbs_constant_hat, rho0_digits,
                     whole_draw_lyapunov_fiber_table_mc, word_log_mass,
                     z_marginal_dimension)


def report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def newton_sqrt(n: int, iterations: int = 8) -> Fraction:
    x = Fraction(n, 1)
    for _ in range(iterations):
        x = (x + n / x) / 2
    return x


@pytest.fixture(scope="module")
def conj():
    return make_system("inverse_conjugate")


def test_criterion_01_gibbs_sandwich(conj):
    """Memory-1 geometric chain at s=1.5, M=3: sandwich over words to depth 6,
    constant stable within 20% between depths 5 and 6, under one minute."""
    t0 = time.perf_counter()
    g = gibbs_markov(GeometricPotential(conj, 1.5), 3, memory=1)
    c5 = gibbs_constant_hat(g, 5)
    c6 = gibbs_constant_hat(g, 6)
    drift = abs(c6 - c5) / c5

    # independent spot check: chain cylinder masses against the realized
    # Birkhoff sums computed by hand over cyclic windows
    rng = np.random.default_rng(0)
    codes = g.sample_forward(6, 60, rng)
    A, L, M = g.alphabet_size, g.memory, g.max_digit
    worst = 1.0
    for row in codes:
        word = tuple((int(c) // M + 1, int(c) % M + 1) for c in row)
        ext = row.tolist() + row.tolist()
        s = sum(g.gram[int(sum(ext[i + j] * A ** (L - 1 - j)
                               for j in range(L)))]
                for i in range(6))
        ratio = math.exp(word_log_mass(g, word) - (s - 6 * g.log_pressure))
        worst = max(worst, ratio, 1.0 / ratio)
    elapsed = time.perf_counter() - t0

    ok = (c6 >= 1.0 and drift <= 0.2 and worst <= c6 * (1 + 1e-9)
          and elapsed < 60.0)
    report("01 gibbs-sandwich", ok,
           f"C5={c5:.12g} C6={c6:.12g} drift={drift:.2e} "
           f"worst-ratio={worst:.12g} {elapsed:.1f}s")


def test_criterion_02_pressure_cross_method(conj):
    """Transfer log-pressure vs cylinder extrapolation within 1e-3 for
    constant and geometric potentials, M <= 3, depth <= 6."""
    worst = 0.0
    cases = []
    for M in (2, 3):
        for pot, memory in ((ConstantPotential(0.4), 1),
                            (GeometricPotential(conj, 1.0), 1),
                            (GeometricPotential(conj, 1.0), 2)):
            est = pressure_cylinder_sum(pot, M, 6, memory=memory)
            g = gibbs_markov(pot, M, memory=memory)
            diff = abs(est.extrapolated - g.log_pressure)
            worst = max(worst, diff)
            cases.append(diff)
    report("02 pressure-cross-method", worst <= 1e-3,
           f"worst |transfer - cylinder| = {worst:.2e} over {len(cases)} cases")


def test_criterion_03_bowen_vs_moran():
    """Bowen root against the scalar Moran root for equal and two-ratio
    similarity schedules, within 1e-6, under ten seconds."""
    t0 = time.perf_counter()
    equal = make_system("similarity", schedule=SimilaritySchedule(
        kind="equal", ratio=0.2, grid_digit=2, inner_factor=0.5))
    diff_eq = abs(bowen_dimension(equal, 2, tol=1e-9).root
                  - moran_root([0.1] * 4))
    two = make_system("similarity", schedule=SimilaritySchedule(
        kind="two_ratio", ratio_a=0.125, ratio_b=0.0625, grid_digit=2,
        inner_factor=0.5))
    diff_two = abs(bowen_dimension(two, 2, tol=1e-9).root
                   - moran_root([0.0625, 0.0625, 0.03125, 0.03125]))
    elapsed = time.perf_counter() - t0
    ok = diff_eq <= 1e-6 and diff_two <= 1e-6 and elapsed < 10.0
    report("03 bowen-vs-moran", ok,
           f"equal={diff_eq:.2e} two-ratio={diff_two:.2e} {elapsed:.1f}s")


def test_criterion_04_variational_peak(conj):
    """21-point sweep around the M=3 root: argmax within one grid step of the
    root, sup within 1e-2 of it, the whole curve below root + 1e-2."""
    root = bowen_dimension(conj, 3, tol=1e-8).root
    grid = tuple(np.linspace(root - 0.5, root + 0.5, 21))
    sweep = variational_sweep(conj, 3, grid)
    step = grid[1] - grid[0]
    curve_max = max(d for (_, d) in sweep.curve)
    ok = (abs(sweep.argmax - sweep.delta_T) <= step + 1e-12
          and abs(sweep.sup_value - sweep.delta_T) <= 1e-2
          and curve_max <= sweep.delta_T + 1e-2)
    report("04 variational-peak", ok,
           f"argmax={sweep.argmax:.6f} root={sweep.delta_T:.6f} "
           f"sup-gap={abs(sweep.sup_value - sweep.delta_T):.2e}")


def test_criterion_05_pressure_derivative(conj):
    """Centered pressure difference in s against the Monte Carlo exponent
    integral, within max(1e-3, two standard errors)."""
    fd, _ = pressure_derivative_check(conj, 1.0, max_digit=3)
    g = gibbs_markov(GeometricPotential(conj, 1.0), 3)
    mc = whole_draw_lyapunov_fiber_table_mc(g, conj, 4000, 80, 0)
    diff = abs(fd + mc.value)  # mc estimates chi_T, minus the integral
    tol = max(1e-3, 2.0 * mc.se)
    report("05 pressure-derivative", diff <= tol,
           f"|fd - integral| = {diff:.2e} tol={tol:.2e} se={mc.se:.2e}")


def test_criterion_06_moran_cloud():
    """Self-similar cloud (4 maps of ratio 1/16), 1e5 points at depth 30:
    mean local dimension within 0.05 of log4/log16, dispersion <= 0.1."""
    sched = SimilaritySchedule(kind="equal", ratio=0.125, grid_digit=2,
                               inner_factor=0.5)
    system = make_system("similarity", schedule=sched)
    g = gibbs_markov(GeometricPotential(system, 1.0), 2)
    cloud = sample_measure(g, system, "fiber", n_points=100_000, depth=30,
                           seed=7)
    # window spans three log-periods of the lacunary attractor
    r_max = cloud.diameter() / 4.0
    est = local_dimension(cloud, window=(r_max / 4096, r_max, 13),
                          n_centers=400, seed=1)
    predicted = math.log(4) / math.log(16)
    bias = abs(est.mean - predicted)
    ok = bias <= 0.05 and est.stddev <= 0.1
    report("06 moran-cloud", ok,
           f"mean={est.mean:.4f} predicted={predicted:.4f} "
           f"bias={bias:.4f} stddev={est.stddev:.4f}")


def test_criterion_07_marginal_and_global_clouds():
    """Symmetric geometric similarity at M=2: measured z-marginal cloud
    dimension within 0.1 of the branch z-part, measured 4-D cloud within
    0.15 of z-part plus h/chi_T, 2e5 points, under ten minutes."""
    t0 = time.perf_counter()
    system = make_system("similarity")
    g = gibbs_markov(GeometricPotential(system, 1.0), 2)
    stats = measure_stats(g, system)
    z_pred = z_marginal_dimension(stats)
    global_pred = z_pred + stats.h_mu / stats.chi_T

    z_cloud = sample_measure(g, system, "z_marginal", n_points=200_000,
                             depth=30, seed=7)
    z_est = local_dimension(z_cloud, n_centers=400, seed=1)
    g_cloud = sample_measure(g, system, "global", n_points=200_000,
                             depth=30, seed=7)
    g_est = local_dimension(g_cloud, n_centers=400, seed=1)
    elapsed = time.perf_counter() - t0

    z_diff = abs(z_est.mean - z_pred)
    g_diff = abs(g_est.mean - global_pred)
    ok = z_diff <= 0.1 and g_diff <= 0.15 and elapsed < 600.0
    report("07 marginal-global-clouds", ok,
           f"z: {z_est.mean:.4f} vs {z_pred:.4f} (diff {z_diff:.4f}); "
           f"global: {g_est.mean:.4f} vs {global_pred:.4f} "
           f"(diff {g_diff:.4f}); {elapsed:.1f}s")


def test_criterion_08_branch_agreement():
    """The two closed-form branches agree to 1e-9 whenever the digit
    exponents coincide, over 100 random statistics."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        h = rng.uniform(0.2, 2.5)
        h1 = rng.uniform(0.05, h)
        h2 = rng.uniform(0.05, h)
        chi = rng.uniform(0.3, 4.0)
        chi_T = rng.uniform(0.3, 4.0)
        stats = MeasureStats(h_mu=h, h_mu1=h1, h_mu2=h2, chi1=chi, chi2=chi,
                             chi_T=chi_T, lambda1=math.exp(-chi),
                             lambda2=math.exp(-chi))
        worst = max(worst, abs(branch_value(stats, "b")
                               - branch_value(stats, "c")))
    report("08 branch-agreement", worst <= 1e-9,
           f"worst |b - c| = {worst:.2e} over 100 draws")


def test_criterion_09_coding_round_trips():
    """Golden and silver round trips at depth 30 to 1e-12, unit derivative
    of the parabolic branch at 0, and certified induced contractions."""
    golden = (newton_sqrt(5) - 1) / 2
    silver = newton_sqrt(2) - 1
    ok = True
    details = []
    for name, value, digit in (("golden", golden, 1), ("silver", silver, 2)):
        digits = rho0_digits(value, 30)
        iv = rho0_value(digits)
        width = float(iv.hi - iv.lo)
        contained = iv.lo <= value <= iv.hi
        ok = ok and digits == (digit,) * 30 and contained and width <= 1e-12
        details.append(f"{name}: width={width:.1e} contained={contained}")

    unit = cf_map_derivative_mod(1, 0.0)
    ok = ok and unit == 1.0

    maps = induced_ifs_maps(5, 3)
    sup = max(float(m.derivative_sup) for m in maps)
    certified = all(m.contraction_ok for m in maps)
    ok = ok and certified and sup < 1.0
    report("09 coding-round-trips", ok,
           "; ".join(details) + f"; |phi_1'(0)|={unit}; "
           f"{len(maps)} induced maps certified, sup={sup}")


def test_criterion_10_curvature_cross_check(conj):
    """Sweep second differences against the closed-form second derivative
    (similarity, within 1e-3) and spike-free curvature for the reciprocal
    family (no second difference above 10x the median)."""
    sim = make_system("similarity")
    grid = tuple(np.linspace(0.2, 1.4, 25))
    sweep_sim = variational_sweep(sim, 3, grid)
    worst = max(abs(sweep_sim.second_differences[i]
                    - analytic_similarity_dimension(sim, 3, float(grid[i]),
                                                    order=2))
                for i in range(1, len(grid) - 1))

    sweep_conj = variational_sweep(conj, 3, grid)
    d2 = np.abs(sweep_conj.second_differences)
    d2 = d2[np.isfinite(d2)]
    spike_ratio = float(d2.max() / np.median(d2))

    ok = worst <= 1e-3 and spike_ratio <= 10.0
    report("10 curvature-cross-check", ok,
           f"similarity worst |d2 - analytic| = {worst:.2e}; "
           f"reciprocal spike ratio = {spike_ratio:.2f}")
