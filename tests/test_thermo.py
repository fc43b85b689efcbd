"""Transfer-operator states, pressure, entropies, exponents."""

import math

import numpy as np
import pytest

from fiberdim.errors import (
    ConfigError,
    EnumerationCapExceeded,
    InvalidWord,
    NonPrimitive,
)
from fiberdim import thermo
from fiberdim.systems import SimilaritySchedule, make_system
from fiberdim.thermo import (
    ConstantPotential,
    GeometricPotential,
    TablePotential,
    entropy,
    gibbs_markov,
    lyapunov_fiber,
    lyapunov_fiber_exact,
    lyapunov_marginal,
    marginal_entropy,
    marginal_entropy_details,
    measure_stats,
    potential_approx_error,
    potential_mean,
    pressure_cylinder_sum,
    pressure_derivative_check,
    realized_table,
    variational_gap,
)

LOG2 = math.log(2.0)


@pytest.fixture(scope="module")
def conj():
    return make_system("inverse_conjugate")


@pytest.fixture(scope="module")
def bernoulli():
    """Three admissible symbols with masses 1/2, 1/4, 1/4; (2,2) forbidden."""
    table = TablePotential.from_dict(2, {(1, 1): math.log(0.5),
                                         (1, 2): math.log(0.25),
                                         (2, 1): math.log(0.25)})
    return gibbs_markov(table, 2)


class TestPotentials:
    def test_geometric_requires_nonnegative_s(self, conj):
        with pytest.raises(ConfigError):
            GeometricPotential(conj, -0.5)

    def test_default_memories(self, conj):
        assert ConstantPotential(1.0).memory == 0
        assert GeometricPotential(conj, 1.0).memory == 2
        sim = make_system("similarity")
        assert GeometricPotential(sim, 1.0).memory == 1

    def test_table_validation(self):
        with pytest.raises(ConfigError):
            TablePotential(max_digit=2, memory=1, entries=())
        with pytest.raises(InvalidWord):
            TablePotential(max_digit=2, memory=2, entries=((((1, 1),), 0.0),))
        with pytest.raises(InvalidWord):
            TablePotential(max_digit=2, memory=1, entries=((((3, 1),), 0.0),))
        with pytest.raises(ConfigError):
            TablePotential(max_digit=2, memory=1,
                           entries=((((1, 1),), math.inf),))

    def test_table_value_and_forbidden(self):
        table = TablePotential.from_dict(2, {(1, 1): 1.5}, scale=2.0)
        assert table.value(((1, 1), (2, 2))) == pytest.approx(3.0)
        assert table.value(((2, 2),)) == -math.inf

    def test_similarity_realization_is_exact(self):
        sched = SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=2,
                                   inner_factor=0.5)
        sim = make_system("similarity", schedule=sched)
        table = realized_table(sim, 2, 1)
        assert all(v == pytest.approx(math.log(0.1)) for v in table)
        assert not table.flags.writeable
        assert potential_approx_error(sim, 1) == 0.0

    def test_realization_error_decays_with_memory(self, conj):
        errs = [potential_approx_error(conj, k) for k in (1, 2, 3)]
        assert errs[0] > errs[1] > errs[2] > 0.0


class TestGibbsChain:
    def test_constant_pressure_closed_form(self):
        for M in (2, 3):
            g = gibbs_markov(ConstantPotential(0.7), M)
            assert g.log_pressure == pytest.approx(0.7 + 2 * math.log(M), abs=1e-12)

    def test_similarity_equal_pressure_closed_form(self):
        sched = SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=2,
                                   inner_factor=0.5)
        sim = make_system("similarity", schedule=sched)
        for s in (0.5, 1.0, 1.3):
            g = gibbs_markov(GeometricPotential(sim, s), 2)
            assert g.log_pressure == pytest.approx(2 * LOG2 + s * math.log(0.1),
                                                   abs=1e-12)

    def test_bernoulli_pressure_and_entropy(self, bernoulli):
        assert bernoulli.log_pressure == pytest.approx(0.0, abs=1e-12)
        assert entropy(bernoulli) == pytest.approx(1.5 * LOG2, abs=1e-12)
        assert math.exp(bernoulli.word_log_mass(((1, 1),))) == pytest.approx(0.5)
        assert bernoulli.word_log_mass(((2, 2),)) == -math.inf
        assert bernoulli.word_log_mass(((1, 1), (2, 2))) == -math.inf

    def test_word_mass_additivity(self, bernoulli):
        from fiberdim.words import pair_alphabet
        for word in (((1, 1),), ((1, 2), (2, 1))):
            total = sum(math.exp(bernoulli.word_log_mass(word + (sym,)))
                        for sym in pair_alphabet(2)
                        if math.isfinite(bernoulli.word_log_mass(word + (sym,))))
            assert total == pytest.approx(math.exp(bernoulli.word_log_mass(word)),
                                          abs=1e-12)

    def test_symbol_marginal_sums_to_one(self, bernoulli):
        marg = bernoulli.symbol_marginal()
        assert marg.sum() == pytest.approx(1.0)
        assert marg[3] == 0.0  # (2,2) forbidden

    def test_variational_identity(self, conj, bernoulli):
        for g in (gibbs_markov(ConstantPotential(0.7), 3),
                  gibbs_markov(GeometricPotential(conj, 1.0), 2),
                  bernoulli):
            assert variational_gap(g) <= 1e-12
            assert entropy(g) + potential_mean(g) == pytest.approx(g.log_pressure)

    def test_pressure_monotonicity(self, conj):
        p2 = gibbs_markov(GeometricPotential(conj, 1.0), 2).log_pressure
        p3 = gibbs_markov(GeometricPotential(conj, 1.0), 3).log_pressure
        p2_steep = gibbs_markov(GeometricPotential(conj, 1.5), 2).log_pressure
        assert p2 < p3
        assert p2_steep < p2

    def test_dead_end_support_rejected(self):
        table = TablePotential.from_dict(2, {((1, 1), (1, 2)): 0.0,
                                             ((2, 1), (2, 2)): 0.0})
        with pytest.raises(NonPrimitive):
            gibbs_markov(table, 2)

    def test_reducible_support_rejected(self):
        table = TablePotential.from_dict(2, {((1, 1), (1, 1)): 0.0,
                                             ((2, 2), (2, 2)): 0.0})
        with pytest.raises(NonPrimitive):
            gibbs_markov(table, 2)

    def test_state_cap(self, conj):
        with pytest.raises(EnumerationCapExceeded):
            gibbs_markov(GeometricPotential(conj, 1.0), 3, memory=4)

    def test_caps_checked_before_realization(self, conj):
        square = make_system("inverse_square")
        misses = realized_table.cache_info().misses
        with pytest.raises(EnumerationCapExceeded):
            gibbs_markov(GeometricPotential(conj, 1.0), 8, 3)
        with pytest.raises(EnumerationCapExceeded):
            pressure_cylinder_sum(GeometricPotential(square, 0.7), 3,
                                  depth=6, memory=3)
        assert realized_table.cache_info().misses == misses

    def test_largest_chain_closes_variational_gap(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 8, 2)
        assert g.n_states == thermo.STATE_CAP
        assert g.transition.shape == (g.n_states, g.alphabet_size)
        assert variational_gap(g) <= 1e-12

    def test_health_recorded(self, conj, bernoulli):
        for g in (bernoulli, gibbs_markov(GeometricPotential(conj, 1.0), 4)):
            health = g.health()
            assert health["n_states"] == g.n_states
            assert 1 <= health["perron_iterations"] < thermo.PERRON_MAX_ITER
            assert max(g.perron_residual) <= thermo.HEALTH_TOL
            assert g.stationarity_residual <= thermo.HEALTH_TOL
            # slot a of code i leads to (i mod A^(L-1)) * A + a
            A, L = g.alphabet_size, g.memory
            succ = ((np.arange(A ** L) % A ** (L - 1))[:, None] * A
                    + np.arange(A))
            pi_P = np.zeros(A ** L)
            np.add.at(pi_P, succ.ravel(),
                      (g.stationary[:, None] * g.transition).ravel())
            assert np.abs(pi_P - g.stationary).sum() <= 1e-12

    def test_health_gate_names_the_quantity(self, conj, monkeypatch):
        build = gibbs_markov.__wrapped__
        pot = GeometricPotential(conj, 1.0)
        monkeypatch.setattr(thermo, "HEALTH_TOL", 0.0)
        with pytest.raises(NonPrimitive, match="residual"):
            build(pot, 4)
        monkeypatch.undo()
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 2)
        with pytest.raises(NonPrimitive, match="2 iterations with residuals"):
            build(pot, 4)


class TestGibbsProperty:
    def test_sandwich_constant_is_depth_stable(self, conj, bernoulli):
        for g in (gibbs_markov(GeometricPotential(conj, 1.5), 2, memory=2),
                  bernoulli):
            c5 = g.gibbs_constant_hat(5)
            c6 = g.gibbs_constant_hat(6)
            assert c5 >= 1.0
            assert c6 == pytest.approx(c5, rel=1e-9)

    def test_sampled_ratios_inside_sandwich(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.5), 2, memory=2)
        C = g.gibbs_constant_hat(6)
        rng = np.random.default_rng(0)
        codes = g.sample_forward(6, 40, rng)
        M, A = g.max_digit, g.alphabet_size
        for row in codes:
            word = tuple((int(c) // M + 1, int(c) % M + 1) for c in row)
            # realized Birkhoff sum over the cyclic word windows
            ext = row.tolist() + row.tolist()
            s = sum(g.gram[int(sum(ext[i + j] * A ** (g.memory - 1 - j)
                                   for j in range(g.memory)))]
                    for i in range(6))
            ratio = math.exp(g.word_log_mass(word) - (s - 6 * g.log_pressure))
            assert 1.0 / (C * (1 + 1e-9)) <= ratio <= C * (1 + 1e-9)

    def test_depth_below_memory_rejected(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        with pytest.raises(InvalidWord):
            g.gibbs_constant_hat(1)

    def test_hat_enumeration_cap(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 3)
        with pytest.raises(EnumerationCapExceeded):
            g.gibbs_constant_hat(9)


class TestCylinderPressure:
    def test_matches_transfer_operator(self, conj):
        pot = GeometricPotential(conj, 1.0)
        est = pressure_cylinder_sum(pot, 2, depth=6)
        g = gibbs_markov(pot, 2)
        assert abs(est.extrapolated - g.log_pressure) <= 1e-9

    def test_estimate_fields(self, conj):
        est = pressure_cylinder_sum(GeometricPotential(conj, 1.0), 2, depth=6)
        assert est.truncation == 2
        assert len(est.depth_values) == 6
        assert len(est.log_partition) == 6
        assert est.error_est == pytest.approx(
            abs(est.depth_values[-1] - est.extrapolated))
        assert est.potential_error > 0.0

    def test_depth_guard(self, conj):
        with pytest.raises(InvalidWord):
            pressure_cylinder_sum(GeometricPotential(conj, 1.0), 2, depth=1)

    def test_enumeration_cap(self, conj):
        with pytest.raises(EnumerationCapExceeded):
            pressure_cylinder_sum(GeometricPotential(conj, 1.0), 3,
                                  depth=8, memory=2)

    def test_constant_depth_values_exact(self):
        est = pressure_cylinder_sum(ConstantPotential(0.3), 2, depth=4)
        for value in est.depth_values:
            assert value == pytest.approx(0.3 + 2 * LOG2, abs=1e-12)


class TestMarginalEntropy:
    def test_bernoulli_digit_marginal_is_iid(self, bernoulli):
        # digit-1 law is (3/4, 1/4) independently at every time
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert marginal_entropy(bernoulli, 1, 6) == pytest.approx(expected,
                                                                  abs=1e-12)
        det = marginal_entropy_details(bernoulli, 1, 6)
        assert det.gap <= 1e-12

    def test_rates_stabilize_for_geometric_chain(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=1)
        det = marginal_entropy_details(g, 1, 8)
        assert det.gap <= 1e-12
        assert det.value <= entropy(g) + 1e-12

    def test_coordinate_validation(self, bernoulli):
        with pytest.raises(InvalidWord):
            marginal_entropy(bernoulli, 3, 6)
        with pytest.raises(InvalidWord):
            marginal_entropy(bernoulli, 1, 1)


class TestLyapunov:
    def test_golden_dirac_marginal(self):
        g = gibbs_markov(ConstantPotential(0.0), 1)
        mc = lyapunov_marginal(g, 1, n_samples=50, orbit_len=60, rng_seed=0)
        phi = (1 + math.sqrt(5)) / 2
        assert mc.value == pytest.approx(2 * math.log(phi), abs=1e-4)
        assert mc.se == 0.0

    def test_silver_dirac_marginal(self):
        table = TablePotential.from_dict(2, {(2, 2): 0.0})
        g = gibbs_markov(table, 2)
        mc = lyapunov_marginal(g, 2, n_samples=50, orbit_len=60, rng_seed=0)
        assert mc.value == pytest.approx(2 * math.log(1 + math.sqrt(2)), abs=1e-8)

    def test_fiber_mc_agrees_with_exact(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        exact = lyapunov_fiber_exact(g)
        mc = lyapunov_fiber(g, conj, n_samples=4000, past_depth=40, rng_seed=1)
        assert abs(mc.value - exact) <= 3 * mc.se + 2e-3

    def test_exact_requires_geometric(self, bernoulli):
        with pytest.raises(ConfigError):
            lyapunov_fiber_exact(bernoulli)

    def test_mc_estimate_float(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        mc = lyapunov_marginal(g, 1, n_samples=100, orbit_len=60, rng_seed=0)
        assert float(mc) == mc.value


class TestDerivativeIdentity:
    def test_exact_chain_identity(self, conj):
        fd, integral = pressure_derivative_check(conj, 1.0, max_digit=2)
        assert abs(fd - integral) <= 1e-8
        assert integral == pytest.approx(
            -lyapunov_fiber_exact(gibbs_markov(GeometricPotential(conj, 1.0), 2)))

    def test_step_guard(self, conj):
        with pytest.raises(ConfigError):
            pressure_derivative_check(conj, 0.0, h_step=1e-3, max_digit=2)


class TestSampling:
    def test_two_sided_shapes_and_range(self, bernoulli):
        pm, pn, fm, fn = bernoulli.sample_two_sided(7, 5, 11,
                                                    np.random.default_rng(3))
        assert pm.shape == pn.shape == (11, 7)
        assert fm.shape == fn.shape == (11, 5)
        for arr in (pm, pn, fm, fn):
            assert arr.min() >= 1 and arr.max() <= 2

    def test_two_sided_determinism(self, bernoulli):
        a = bernoulli.sample_two_sided(7, 5, 11, np.random.default_rng(3))
        b = bernoulli.sample_two_sided(7, 5, 11, np.random.default_rng(3))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_forbidden_symbol_never_sampled(self, bernoulli):
        _, _, fm, fn = bernoulli.sample_two_sided(6, 6, 200,
                                                  np.random.default_rng(0))
        assert not np.any((fm == 2) & (fn == 2))

    @pytest.mark.parametrize("u", [0.0, float(np.nextafter(1.0, 0.0))])
    def test_extreme_draws_follow_allowed_edges(self, u):
        # two forbidden 2-words leave zero-probability first and last slots
        table = TablePotential.from_dict(2, {
            (sym1, sym2): 0.0
            for sym1 in ((1, 1), (1, 2), (2, 1), (2, 2))
            for sym2 in ((1, 1), (1, 2), (2, 1), (2, 2))
            if (sym1, sym2) not in (((2, 1), (1, 1)), ((1, 2), (2, 2)))})
        g = gibbs_markov(table, 2)
        assert (g.transition == 0).any()

        class Fixed:
            def random(self, n):
                return np.full(n, u)

        A, R = g.alphabet_size, g.alphabet_size ** (g.memory - 1)
        fwd, bwd = g._cums()
        src = np.flatnonzero(g.stationary > 0)
        slot = g._step(fwd, src, Fixed())
        assert (g.transition[src, slot] > 0).all()
        # backward slot a leads to the predecessor a * A^(L-1) + src // A
        prv = g._step(bwd, src, Fixed()) * R + src // A
        assert (g.stationary[prv] > 0).all()
        assert (g.transition[prv, src % A] > 0).all()

    def test_forward_length_guard(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        with pytest.raises(InvalidWord):
            g.sample_forward(1, 5, np.random.default_rng(0))


class TestMeasureStats:
    def test_summary_consistency(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        stats = measure_stats(g, conj, depth=6, n_samples=500, orbit_len=60,
                              rng_seed=0)
        assert stats.h_mu == pytest.approx(entropy(g))
        assert stats.h_mu1 <= stats.h_mu and stats.h_mu2 <= stats.h_mu
        assert stats.chi_T == pytest.approx(lyapunov_fiber_exact(g))
        assert stats.lambda1 == pytest.approx(math.exp(-stats.chi1))
        assert stats.lambda2 == pytest.approx(math.exp(-stats.chi2))
