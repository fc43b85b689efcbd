"""Dimension formulas: summability, Bowen roots, branches, sweeps."""

import math

import numpy as np
import pytest

from fiberdim.dimension import (
    bowen_dimension,
    branch_value,
    global_dimension,
    moran_root,
    summability_scan,
    variational_sweep,
)
from fiberdim.errors import ConfigError, DegenerateExponent
from fiberdim.systems import SimilaritySchedule, make_system
from fiberdim.thermo import MeasureStats

from oracles import (analytic_similarity_dimension, fiber_measure_dimension,
                     fitted_threshold, shell_tail_slopes,
                     z_marginal_dimension)


@pytest.fixture(scope="module")
def conj():
    return make_system("inverse_conjugate")


@pytest.fixture(scope="module")
def sim_equal():
    sched = SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=2,
                               inner_factor=0.5)
    return make_system("similarity", schedule=sched)


def stats_of(h, h1, h2, chi1, chi2, chi_T):
    return MeasureStats(h_mu=h, h_mu1=h1, h_mu2=h2, chi1=chi1, chi2=chi2,
                        chi_T=chi_T, lambda1=math.exp(-chi1),
                        lambda2=math.exp(-chi2))


class TestSummability:
    """Exact verdicts: the depth-1 sum converges exactly when s > theta."""

    GRID = (0.6, 0.8, 0.95, 1.0, 1.05, 1.2, 1.4)

    def test_conjugate_verdicts_monotone(self, conj):
        report = summability_scan(conj, s_grid=self.GRID)
        assert report.threshold == 1.0
        assert report.verdicts == ("divergent",) * 4 + ("summable",) * 3

    def test_square_threshold_is_one(self):
        report = summability_scan(make_system("inverse_square"),
                                  s_grid=(0.95, 1.0, 1.05))
        assert report.threshold == 1.0
        assert report.verdicts == ("divergent", "divergent", "summable")

    def test_conjugate_boundary_near_one(self, conj):
        # the shell-sum fit is the oracle for theta, to its old tolerance
        grid = (0.6, 0.8, 1.0, 1.2, 1.4)
        theta = conj.summability_threshold()
        assert abs(fitted_threshold("inverse_conjugate", grid) - theta) <= 0.05

    def test_square_boundary_near_one(self):
        square = make_system("inverse_square")
        grid = (0.6, 0.8, 1.0, 1.2, 1.4)
        theta = square.summability_threshold()
        assert abs(fitted_threshold("inverse_square", grid) - theta) <= 0.05

    def test_tail_slopes_decrease_with_s(self):
        slopes = shell_tail_slopes("inverse_conjugate", (0.6, 1.0, 1.4))
        assert slopes[0] > slopes[1] > slopes[2]

    def test_geometric_similarity_always_summable(self):
        sim = make_system("similarity")
        report = summability_scan(sim, s_grid=(0.5, 1.0))
        assert report.threshold == 0.0
        assert set(report.verdicts) == {"summable"}

    def test_geometric_similarity_divergent_at_zero(self):
        # s = 0 counts every symbol once: infinitely many terms of size 1
        report = summability_scan(make_system("similarity"), s_grid=(0.0,))
        assert report.verdicts == ("divergent",)

    def test_finite_alphabet_trivially_summable(self, sim_equal):
        report = summability_scan(sim_equal, s_grid=(-1.0, 0.0, 0.5, 1.0))
        assert report.threshold == -math.inf
        assert set(report.verdicts) == {"summable"}

    def test_empty_grid_rejected(self, conj):
        with pytest.raises(ConfigError):
            summability_scan(conj, s_grid=())


class TestMoranRoots:
    def test_equal_moduli_closed_form(self):
        # K maps of ratio r: root is log K / -log r
        assert moran_root([0.1] * 4) == pytest.approx(math.log(4) / math.log(10),
                                                      abs=1e-12)

    def test_bowen_matches_moran_equal(self, sim_equal):
        got = bowen_dimension(sim_equal, 2, tol=1e-9).root
        want = moran_root([0.1] * 4)
        assert abs(got - want) <= 1e-6

    def test_bowen_matches_moran_two_ratio(self):
        sched = SimilaritySchedule(kind="two_ratio", ratio_a=0.125,
                                   ratio_b=0.0625, grid_digit=2,
                                   inner_factor=0.5)
        system = make_system("similarity", schedule=sched)
        got = bowen_dimension(system, 2, tol=1e-9).root
        want = moran_root([0.0625, 0.0625, 0.03125, 0.03125])
        assert abs(got - want) <= 1e-6

    def test_moran_far_root(self):
        # near-isometric moduli: the root is about 6.9e6, past any fixed ceiling
        got = moran_root([0.999999] * 1000)
        assert got == pytest.approx(math.log(1000) / -math.log(0.999999),
                                    rel=1e-12)

    def test_moran_guards(self):
        with pytest.raises(ConfigError):
            moran_root([])
        with pytest.raises(ConfigError):
            moran_root([1.2])

    def test_bowen_details(self, conj):
        for M in (2, 3, 4):
            res = bowen_dimension(conj, M, tol=1e-8)
            assert res.bracket[0] <= res.root <= res.bracket[1]
            assert abs(res.residual) <= 1e-6
            assert 0 < res.iterations <= 6

    def test_tiny_tol_stops_at_float_resolution(self, conj):
        res = bowen_dimension(conj, 2, tol=1e-20)
        assert res.iterations <= 6
        assert res.root == pytest.approx(
            bowen_dimension(conj, 2, tol=1e-10).root, abs=1e-14)

    def test_single_map_root_is_zero(self):
        # one symbol: P(s) = -s chi, so the pressure at s = 0 is 0 and so is
        # the root, which the Moran solve agrees with
        sched = SimilaritySchedule(kind="custom", table=((1, 1, 0.05, 0.0, 0.0),))
        system = make_system("similarity", schedule=sched)
        res = bowen_dimension(system, 1, tol=1e-9)
        assert res.root == 0.0 == moran_root(system.moduli(1))
        assert res.bracket == (0.0, 0.0)


class TestBranchFormulas:
    def test_branch_b_worked_example(self):
        st = stats_of(math.log(4), math.log(2), math.log(2), 1.0, 2.0, 1.0)
        assert branch_value(st, "b") == pytest.approx(3.5 * math.log(2))

    def test_global_picks_slower_coordinate(self):
        st = stats_of(math.log(4), math.log(2), math.log(2), 1.0, 2.0, 1.0)
        _, branch = global_dimension(st)
        assert branch == "c"  # lambda1 > lambda2
        st_swapped = stats_of(math.log(4), math.log(2), math.log(2), 2.0, 1.0, 1.0)
        _, branch = global_dimension(st_swapped)
        assert branch == "b"

    def test_branches_agree_when_exponents_match(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.uniform(0.5, 2.0)
            h1 = rng.uniform(0.1, h)
            chi = rng.uniform(0.5, 3.0)
            st = stats_of(h, h1, h1, chi, chi, rng.uniform(0.5, 3.0))
            assert abs(branch_value(st, "b") - branch_value(st, "c")) <= 1e-12

    def test_z_marginal_complements_fiber_part(self):
        st = stats_of(math.log(4), math.log(2), math.log(2), 1.0, 2.0, 1.5)
        for branch in ("b", "c"):
            assert (z_marginal_dimension(st, branch) + st.h_mu / st.chi_T
                    == pytest.approx(branch_value(st, branch)))

    def test_unknown_branch(self):
        st = stats_of(1.0, 0.5, 0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            branch_value(st, "d")

    def test_degenerate_exponents_rejected(self):
        with pytest.raises(DegenerateExponent):
            stats_of(1.0, 0.5, 0.5, 0.0, 1.0, 1.0)


class TestVariationalSweep:
    def test_peak_sits_at_bowen_root(self, conj):
        root = bowen_dimension(conj, 3, tol=1e-8).root
        grid = tuple(np.linspace(root - 0.5, root + 0.5, 21))
        sweep = variational_sweep(conj, 3, grid)
        step = grid[1] - grid[0]
        assert abs(sweep.argmax - root) <= step + 1e-12
        assert sweep.sup_value <= sweep.delta_T + 1e-2
        assert abs(sweep.sup_value - root) <= 1e-2
        assert sweep.min_chi > 0.0

    def test_value_at_root_is_root(self, conj):
        root = bowen_dimension(conj, 3, tol=1e-8).root
        assert fiber_measure_dimension(conj, root, 3) == pytest.approx(root,
                                                                       abs=1e-6)

    def test_grid_size_guard(self, conj):
        for grid in ((0.5, 1.0), (0.5, 0.5, 0.7, 0.9)):
            with pytest.raises(ConfigError):
                variational_sweep(conj, 2, grid)


class TestAnalyticSimilarity:
    def test_root_is_fixed_point_with_flat_derivative(self):
        sim = make_system("similarity")
        root = bowen_dimension(sim, 3, tol=1e-10).root
        assert analytic_similarity_dimension(sim, 3, root, order=0) == (
            pytest.approx(root, abs=1e-8))
        assert abs(analytic_similarity_dimension(sim, 3, root, order=1)) <= 1e-8
        assert analytic_similarity_dimension(sim, 3, root, order=2) < 0.0

    def test_second_differences_match_analytic(self):
        sim = make_system("similarity")
        grid = np.linspace(0.3, 1.3, 21)
        sweep = variational_sweep(sim, 3, tuple(grid))
        for i in range(1, len(grid) - 1):
            analytic = analytic_similarity_dimension(sim, 3, float(grid[i]),
                                                     order=2)
            assert abs(sweep.second_differences[i] - analytic) <= 1e-3

    def test_needs_similarity_variant(self, conj):
        with pytest.raises(ConfigError):
            analytic_similarity_dimension(conj, 3, 1.0)
