"""Transfer-operator states, pressure, entropies, exponents."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fiberdim.errors import (
    ConfigError,
    DomainEscape,
    EnumerationCapExceeded,
    ExponentNotConverged,
    InvalidWord,
    NonPrimitive,
    PerronNotConverged,
)
from fiberdim import moments, systems, thermo
from fiberdim.config import build_potential
from fiberdim.moments import lyapunov_marginal_exact
from fiberdim.systems import FAMILIES, Disk, SimilaritySchedule, make_system
from fiberdim.words import pair_alphabet
from fiberdim.thermo import (
    GeometricPotential,
    GibbsApprox,
    TablePotential,
    entropy,
    gibbs_markov,
    lyapunov_fiber_exact,
    marginal_entropy,
    measure_stats,
    potential_approx_error,
    pressure_cylinder_sum,
    pressure_derivative_check,
    realized_table,
)

from oracles import (constant_potential, exact_periodic_table,
                     gibbs_constant_hat, lyapunov_marginal, potential_mean,
                     symbol_marginal, variational_gap,
                     whole_draw_lyapunov_fiber, word_log_mass)

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

    def test_from_dict_reads_numpy_symbols(self):
        # a bare symbol of numpy integers is one symbol, as one of ints is
        want = TablePotential.from_dict(2, {(1, 2): 0.5, (2, 1): 0.25})
        got = TablePotential.from_dict(
            2, {(np.int64(1), np.int64(2)): 0.5, (np.int8(2), np.int8(1)): 0.25})
        assert got == want

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


class TestConstantKind:
    """The config's constant kind is the memory-1 table with one value."""

    @pytest.mark.parametrize("memory", [None, 1, 2, 3])
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_realizes_to_value_at_every_code(self, M, memory):
        value = -0.35
        potential = build_potential(
            {"potential": {"kind": "constant", "value": value}}, None, M)
        L = potential.word_length(memory)
        gram, err = potential.realize(M, L)
        assert gram.shape == ((M * M) ** L,) and err == 0.0
        assert (gram == value).all()
        g = gibbs_markov(potential, M, memory)
        assert g.log_pressure == pytest.approx(math.log(M * M) + value,
                                               abs=1e-14)


class TestGibbsChain:
    def test_constant_pressure_closed_form(self):
        for M in (2, 3):
            g = gibbs_markov(constant_potential(0.7, M), M)
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
        assert math.exp(word_log_mass(bernoulli, ((1, 1),))) == pytest.approx(0.5)
        assert word_log_mass(bernoulli, ((2, 2),)) == -math.inf
        assert word_log_mass(bernoulli, ((1, 1), (2, 2))) == -math.inf

    def test_word_mass_additivity(self, bernoulli):
        from fiberdim.words import pair_alphabet
        for word in (((1, 1),), ((1, 2), (2, 1))):
            total = sum(math.exp(word_log_mass(bernoulli, word + (sym,)))
                        for sym in pair_alphabet(2)
                        if math.isfinite(word_log_mass(bernoulli, word + (sym,))))
            assert total == pytest.approx(math.exp(word_log_mass(bernoulli, word)),
                                          abs=1e-12)

    def test_word_shorter_than_memory_is_symbol_marginal(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        marg = symbol_marginal(g)
        for code, sym in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
            assert word_log_mass(g, (sym,)) == pytest.approx(
                math.log(marg[code]), abs=1e-12)

    def test_symbol_marginal_sums_to_one(self, bernoulli):
        marg = symbol_marginal(bernoulli)
        assert marg.sum() == pytest.approx(1.0)
        assert marg[3] == 0.0  # (2,2) forbidden

    def test_variational_identity(self, conj, bernoulli):
        for g in (gibbs_markov(constant_potential(0.7, 3), 3),
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

    def test_periodic_support_rejected(self):
        table = TablePotential.from_dict(2, {((1, 1), (2, 2)): 0.0,
                                             ((2, 2), (1, 1)): 0.0})
        with pytest.raises(NonPrimitive, match="period 2"):
            gibbs_markov(table, 2)

    def test_primitivity_check_memory_is_linear_in_states(self):
        # 4096 one-symbol states: an (A, A^(L-1), A) array of edge level gaps
        # would hold 1.7e7 int64 entries, 134 MB
        potential = constant_potential(0.0, 64)
        tracemalloc.start()
        try:
            gibbs_markov.__wrapped__(potential, 64, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

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
                                  depth=20_000, memory=3)
        assert realized_table.cache_info().misses == misses

    def test_largest_chain_closes_variational_gap(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 8, 2)
        assert g.n_states == thermo.STATE_CAP
        A, L = g.alphabet_size, g.memory
        assert g.transition.shape == g.reverse.shape == (A ** (L - 1), A)
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
            codes = np.arange(A ** L)
            succ = (codes % A ** (L - 1))[:, None] * A + np.arange(A)
            pi_P = np.zeros(A ** L)
            np.add.at(pi_P, succ.ravel(),
                      (g.stationary[:, None]
                       * g.transition[codes % A ** (L - 1)]).ravel())
            assert np.abs(pi_P - g.stationary).sum() <= 1e-12

    def test_health_gate_names_the_quantity(self, conj, monkeypatch):
        build = gibbs_markov.__wrapped__
        pot = GeometricPotential(conj, 1.0)
        monkeypatch.setattr(thermo, "HEALTH_TOL", 0.0)
        with pytest.raises(NonPrimitive, match="residual"):
            build(pot, 4)
        monkeypatch.undo()
        monkeypatch.setattr(thermo, "PERRON_MAX_ITER", 2)
        with pytest.raises(PerronNotConverged,
                           match="2 iterations with residuals"):
            build(pot, 4)


class TestGibbsProperty:
    def test_sandwich_constant_is_depth_stable(self, conj, bernoulli):
        for g in (gibbs_markov(GeometricPotential(conj, 1.5), 2, memory=2),
                  bernoulli):
            c5 = gibbs_constant_hat(g, 5)
            c6 = gibbs_constant_hat(g, 6)
            assert c5 >= 1.0
            assert c6 == pytest.approx(c5, rel=1e-9)

    def test_sampled_ratios_inside_sandwich(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.5), 2, memory=2)
        C = gibbs_constant_hat(g, 6)
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
            ratio = math.exp(word_log_mass(g, word) - (s - 6 * g.log_pressure))
            assert 1.0 / (C * (1 + 1e-9)) <= ratio <= C * (1 + 1e-9)

    def test_depth_below_memory_rejected(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        with pytest.raises(InvalidWord):
            gibbs_constant_hat(g, 1)

    @pytest.mark.parametrize("depth", [5.7, 6.0, True, "6"])
    def test_non_integer_depth_rejected(self, conj, depth):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        with pytest.raises(InvalidWord, match="integer"):
            gibbs_constant_hat(g, depth)

    def test_hat_enumeration_cap(self, conj):
        # memory 2 at M = 3: 1999 depths x 9^4 pairs > ENUMERATION_CAP
        g = gibbs_markov(GeometricPotential(conj, 1.0), 3)
        with pytest.raises(EnumerationCapExceeded):
            gibbs_constant_hat(g, 2000)

    def test_default_depth_runs_at_m4(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.5), 4, memory=2)
        C = gibbs_constant_hat(g)
        assert math.isfinite(C) and C >= 1.0


class TestCylinderPressure:
    def test_matches_transfer_operator(self, conj):
        pot = GeometricPotential(conj, 1.0)
        est = pressure_cylinder_sum(pot, 2, depth=6)
        g = gibbs_markov(pot, 2)
        assert abs(est.extrapolated - g.log_pressure) <= 1e-9

    def test_estimate_fields(self, conj):
        est = pressure_cylinder_sum(GeometricPotential(conj, 1.0), 2, depth=6)
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
                                  depth=200_000, memory=2)

    def test_constant_depth_values_exact(self):
        est = pressure_cylinder_sum(constant_potential(0.3, 2), 2, depth=4)
        for value in est.depth_values:
            assert value == pytest.approx(0.3 + 2 * LOG2, abs=1e-12)


class TestMarginalEntropy:
    def test_bernoulli_digit_marginal_is_iid(self, bernoulli):
        # digit-1 law is (3/4, 1/4) independently at every time
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        est = marginal_entropy(bernoulli, 1)
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert est.lower == pytest.approx(expected, abs=1e-12)
        assert est.depth == 2

    def test_rates_stabilize_for_geometric_chain(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=1)
        est = marginal_entropy(g, 1)
        assert abs(est.value - est.lower) <= 1e-12
        assert est.value <= entropy(g) + 1e-12

    def test_bracket_stops_at_the_tolerance(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 4, 2)
        est = marginal_entropy(g, 1)
        assert 0 <= est.value - est.lower <= thermo.ENTROPY_TOL

    def test_cap_stops_the_sweep(self, conj, monkeypatch):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 4, 2)
        # the sweep arrays hold 4^n * 16^2 entries: 16384 at n = 3, 65536 at 4
        monkeypatch.setattr(thermo, "MARGINAL_SWEEP_CAP", 65535)
        est = marginal_entropy(g, 1)
        assert est.depth == 3
        assert est.value - est.lower > thermo.ENTROPY_TOL
        monkeypatch.setattr(thermo, "MARGINAL_SWEEP_CAP", 65536)
        assert marginal_entropy(g, 1).depth == 4

    def test_coordinate_validation(self, bernoulli):
        with pytest.raises(InvalidWord):
            marginal_entropy(bernoulli, 3)


class TestLyapunov:
    def test_golden_dirac_marginal(self):
        # M = 1: every digit is 1, so x = 1/phi and chi = 2 log phi
        g = gibbs_markov(constant_potential(0.0, 1), 1)
        phi = (1 + math.sqrt(5)) / 2
        for which in (1, 2):
            assert lyapunov_marginal_exact(g, which).value == pytest.approx(
                2 * math.log(phi), abs=1e-14)

    def test_silver_dirac_marginal(self):
        # pruned codes: only (2, 2) lives, so x = sqrt(2) - 1
        table = TablePotential.from_dict(2, {(2, 2): 0.0})
        g = gibbs_markov(table, 2)
        assert (g.stationary == 0).sum() == 3
        chi = lyapunov_marginal_exact(g, 2).value
        assert chi == pytest.approx(2 * math.log(1 + math.sqrt(2)), abs=1e-14)

    def test_fiber_mc_agrees_with_exact(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        exact = lyapunov_fiber_exact(g, conj)
        mc = whole_draw_lyapunov_fiber(g, conj, 4000, 40, 1)
        assert abs(mc.value - exact) <= 3 * mc.se + 2e-3


#: chains of memory 1 whose potential is not log|T'|
NON_GEOMETRIC = {
    "constant": constant_potential(0.0, 2),
    "table": TablePotential.from_dict(2, {(1, 1): 0.0, (1, 2): 0.3,
                                          (2, 1): -0.2, (2, 2): 0.5}),
}


class TestExactFiberExponent:
    """chi_T of any chain from the realized log|T'| table."""

    @pytest.mark.parametrize("potential", sorted(NON_GEOMETRIC))
    @pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square"])
    def test_memory_ladder_converges_to_fiber_points(self, variant, potential):
        system = make_system(variant)
        g = gibbs_markov(NON_GEOMETRIC[potential], 2)
        chi = [lyapunov_fiber_exact(g, system, L) for L in (2, 3, 4)]
        assert abs(chi[2] - chi[1]) < abs(chi[1] - chi[0])
        mc = whole_draw_lyapunov_fiber(g, system, 10 ** 5, 40, 11)
        assert abs(chi[2] - mc.value) <= 3 * mc.se + 1e-3

    @pytest.mark.parametrize("variant, M, L", [("inverse_conjugate", 2, 2),
                                               ("inverse_square", 3, 1),
                                               ("similarity", 2, 1)])
    def test_geometric_chain_reads_its_own_table(self, variant, M, L):
        system = make_system(variant)
        g = gibbs_markov(GeometricPotential(system, 0.8), M, L)
        expected = -(g.stationary @ realized_table(system, M, g.memory))
        assert measure_stats(g, system).chi_T == expected
        assert measure_stats(g, system, g.memory).chi_T == expected

    @pytest.mark.parametrize("potential, memory", [
        (NON_GEOMETRIC["table"], None),
        (GeometricPotential(make_system("inverse_conjugate"), 1.0), 2)])
    def test_pushed_masses_are_word_masses(self, conj, potential, memory):
        g = gibbs_markov(potential, 2, memory)
        L = g.memory + 2
        # word codes count the symbols in this order, first most significant
        mass = np.exp([word_log_mass(g, word) for word in
                       itertools.product(pair_alphabet(2), repeat=L)])
        assert lyapunov_fiber_exact(g, conj, L) == pytest.approx(
            -(mass @ realized_table(conj, 2, L)), rel=1e-13)

    def test_table_cap_checked_before_realizing(self, conj, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the table must be rejected before any work")

        monkeypatch.setattr(thermo, "realized_table", forbidden)
        g = gibbs_markov(constant_potential(0.0, 9), 9)  # 81 states, 6561 2-words
        with pytest.raises(EnumerationCapExceeded, match="6561 words"):
            lyapunov_fiber_exact(g, conj, 2)

    def test_memory_below_the_chain_is_the_chain(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, 3)
        assert lyapunov_fiber_exact(g, conj, 1) == lyapunov_fiber_exact(g, conj)


# sha256 of ``realized_table(...).tobytes()`` per (system, M, L): every
# pressure, chain, Bowen root and fiber exponent of a geometric potential
# reads these tables.  The reciprocal tables read each coefficient to its
# periodic limit; at a 12-symbol window they sat up to 2.9e-6 (conjugate)
# and 6.0e-6 (square) off it.
REALIZED_DIGESTS = {
    ("inverse_conjugate", 1, 1): "9936e20831adcd9ea5257d48e73a8a35874354fea8057290bc6bf59a2ae1376e",
    ("inverse_conjugate", 2, 1): "110da132873129e25b79b68771b408464aee14b245025413d94ebee38568af87",
    ("inverse_conjugate", 2, 2): "1431050219b9e2dc1f12efc97f2931e821f9d0268b16f8cbad0858eaad37d96c",
    ("inverse_conjugate", 3, 2): "0b8f6e12ac3c107320ef1cce13056329f98754ca2fc68aae27a3add73e085a4a",
    ("inverse_conjugate", 2, 3): "79ff7fb8eb52c29866d9be44a7d1e51bedc9444acd1769405b925b44a70bd2c7",
    ("inverse_conjugate", 4, 2): "5f6c29ac39b9e6d00a853daf5138e304bddf9be033805bdf314d93cf54143735",
    ("inverse_square", 1, 1): "f78e0d92caba91a65286524be939384666184a03290e572de398a07993c5b965",
    ("inverse_square", 2, 1): "6d7ada18b3cca826ed281719b624cc3d577a5ed46ea38fb10b3f98e71c298bdb",
    ("inverse_square", 2, 2): "6ed5f189454d8761279fa6dea5636040934a8aef6bb9180642e4d746c55cae36",
    ("inverse_square", 3, 2): "8d543633535e9eb21bbd350e514a13fa5007ef2b8fbce21538d0fafd2b8d09b5",
    ("inverse_square", 2, 3): "fd94bae344c37913645f75cb1149470ee217e0e20a589d0c1e0c96c20569063a",
    ("inverse_square", 4, 2): "0d00ecc73fc53e2603b6286fc08b04f05de315595ae8638602a325efabcda6c4",
    ("similarity", 1, 1): "c8057214110acd84944f6932de2604c99422c36f79cffd2c0408e58a9c199f6b",
    ("similarity", 2, 1): "954b75b1c34b2eaaa403e1a7309bbfd430c9658fbf9fa0109163fa73be2aeb73",
    ("similarity", 2, 2): "f2a0a25967f912e9cdac274ebff6595128a21d62a38da55d37adc808bee8c79b",
    ("similarity", 3, 2): "8ba56aafe2521cb314b32dff0e2f88eb26c07e0a7b70122c5b8fd5fec47c1f3b",
    ("similarity", 2, 3): "c31e109c9de07a11702d000e8a5b264fe5b516b050c1ccf20e78cd94aa33badc",
    ("similarity", 4, 2): "28818031ad1ee492b2c692f057e84fc7f17ab82dd58d157c020a6d6a64f6a6ca",
    ("similarity_equal", 1, 1): "f44be2dfec995b17bd9453a027e136bc25bfcb4ccb7008f4c1c68d5633f8e481",
    ("similarity_equal", 2, 1): "ff7cefa641b7482b8cd66ab3c3f443fb9a030d242143f235ea613c6ba22665dd",
    ("similarity_equal", 2, 2): "ade78f2bd260afed84e9335b3222511a3dc9fd910f3da4656e9a566aaedfe786",
    ("similarity_equal", 2, 3): "808b96c14607dc51078250b7a6d4ece0edd13726446bbec85aceaa6bfb6299c3",
}

REALIZED_SYSTEMS = {
    "inverse_conjugate": lambda: make_system("inverse_conjugate"),
    "inverse_square": lambda: make_system("inverse_square"),
    "similarity": lambda: make_system("similarity"),
    "similarity_equal": lambda: make_system(
        "similarity", SimilaritySchedule(kind="equal", ratio=0.2)),
}


class TestRealizedTableBytes:
    """The realized log|T'| tables behind every geometric record, pinned."""

    @pytest.mark.parametrize("name, M, L", sorted(REALIZED_DIGESTS))
    def test_table_digest(self, name, M, L):
        table = realized_table(REALIZED_SYSTEMS[name](), M, L)
        assert table.shape == ((M * M) ** L,)
        assert hashlib.sha256(table.tobytes()).hexdigest() == REALIZED_DIGESTS[
            (name, M, L)]

    def test_off_center_disk_escapes(self):
        # the images of (1, 1), (1, 2) and (2, 2) leave this disk, and so
        # do the periodic fiber points of their words; make_system rejects
        # the disk, so the system is built directly
        system = FAMILIES["inverse_conjugate"](Disk(0.5 + 0.1j, 0.4))
        with pytest.raises(DomainEscape, match="left the domain"):
            realized_table(system, 2, 2)


# (M, L) pairs of the closed-form check, up to 4096 codes
EXACT_CASES = [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (8, 2),
               (4, 3)]


class TestExactPeriodicRealization:
    """The reciprocal tables against the quadratic-irrational closed form."""

    @pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square"])
    @pytest.mark.parametrize("M, L", EXACT_CASES)
    def test_matches_closed_form(self, variant, M, L):
        system = make_system(variant)
        table = realized_table(system, M, L)
        assert np.abs(table - exact_periodic_table(system, M, L)).max() <= 1e-14

    @pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square"])
    def test_independent_of_the_cloud_context(self, variant, monkeypatch):
        # the clouds' forward context does not reach the periodic table
        system = make_system(variant)

        def tables():
            return [realized_table.__wrapped__(system, M, L).tobytes()
                    for M, L in [(2, 1), (2, 2), (3, 2), (2, 3)]]

        before = tables()
        monkeypatch.setattr(systems, "CONTEXT_DEPTH", 8)
        monkeypatch.setattr(thermo, "CONTEXT_DEPTH", 8, raising=False)
        assert tables() == before

    def test_depth_past_the_cap_refused_before_any_map(self, monkeypatch):
        system = make_system("inverse_conjugate", radius=0.802)

        def forbidden(*args):
            raise AssertionError("no map may run for a refused system")

        monkeypatch.setattr(type(system), "map", forbidden)
        with pytest.raises(ConfigError, match=r"1\.00155 needs 19609 composition"):
            realized_table.__wrapped__(system, 2, 2)

    def test_depth_under_the_cap_kept(self):
        system = make_system("inverse_conjugate", radius=0.79)
        assert thermo._composition_depth(system) == 1197
        table = realized_table.__wrapped__(system, 2, 2)
        assert table.shape == (16,) and np.isfinite(table).all()


class TestExactMarginalExponent:
    """chi_1 and chi_2 from the Chebyshev moment fixed point."""

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square",
                                         "similarity"])
    def test_agrees_with_monte_carlo(self, variant, L):
        system = make_system(variant)
        g = gibbs_markov(GeometricPotential(system, 1.0), 3, L)
        for which in (1, 2):
            exact = lyapunov_marginal_exact(g, which).value
            mc = lyapunov_marginal(g, which, 4000, 100, 10 * L + which)
            assert abs(exact - mc.value) <= 4 * mc.se

    def test_pruned_codes_agree_with_monte_carlo(self):
        # two forbidden 2-words leave codes of stationary mass zero
        table = TablePotential.from_dict(2, {
            (sym1, sym2): 0.1 * (sym1[0] + 2 * sym2[1])
            for sym1 in ((1, 1), (1, 2), (2, 1), (2, 2))
            for sym2 in ((1, 1), (1, 2), (2, 1), (2, 2))
            if (sym1, sym2) not in (((2, 1), (1, 1)), ((1, 2), (2, 2)))})
        g = gibbs_markov(table, 2)
        assert (g.transition == 0).any()
        for which in (1, 2):
            exact = lyapunov_marginal_exact(g, which).value
            mc = lyapunov_marginal(g, which, 4000, 100, which)
            assert abs(exact - mc.value) <= 4 * mc.se

    @pytest.mark.parametrize("variant, M, L", [("inverse_conjugate", 4, 2),
                                               ("inverse_square", 4, 2),
                                               ("similarity", 2, 1)])
    def test_moment_count_converged(self, monkeypatch, variant, M, L):
        g = gibbs_markov(GeometricPotential(make_system(variant), 1.0), M, L)
        full = [lyapunov_marginal_exact(g, which).value for which in (1, 2)]
        monkeypatch.setattr(moments, "MOMENT_COUNT", 16)
        short = [lyapunov_marginal_exact(g, which).value for which in (1, 2)]
        assert short == pytest.approx(full, abs=1e-12)

    def test_sweep_cap_raises(self, conj, monkeypatch):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        sweeps = lyapunov_marginal_exact(g, 1).sweeps
        monkeypatch.setattr(moments, "MOMENT_SWEEP_CAP", sweeps - 1)
        with pytest.raises(ExponentNotConverged, match=f"{sweeps - 1} sweeps"):
            lyapunov_marginal_exact(g, 1)
        monkeypatch.setattr(moments, "MOMENT_SWEEP_CAP", sweeps)
        assert lyapunov_marginal_exact(g, 1).sweeps == sweeps

    def test_coordinate_validation(self, bernoulli):
        with pytest.raises(InvalidWord):
            lyapunov_marginal_exact(bernoulli, 3)


class TestDerivativeIdentity:
    def test_exact_chain_identity(self, conj):
        fd, integral = pressure_derivative_check(conj, 1.0, max_digit=2)
        assert abs(fd - integral) <= 1e-8
        assert integral == -lyapunov_fiber_exact(
            gibbs_markov(GeometricPotential(conj, 1.0), 2), conj)

    def test_step_guard(self, conj):
        with pytest.raises(ConfigError):
            pressure_derivative_check(conj, 0.0, h_step=1e-3, max_digit=2)

    @pytest.mark.parametrize("h_step", [0.0, -1e-3, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, conj, h_step):
        with pytest.raises(ConfigError, match="h_step must be finite and > 0"):
            pressure_derivative_check(conj, 1.0, h_step=h_step, max_digit=2)


class TestSampling:
    def test_two_sided_shapes_and_range(self, bernoulli):
        past, fwd = bernoulli.sample_two_sided(7, 5, 11,
                                               np.random.default_rng(3))
        pm, pn = bernoulli.digits(past)
        fm, fn = bernoulli.digits(fwd)
        assert pm.shape == pn.shape == (11, 7)
        assert fm.shape == fn.shape == (11, 5)
        for arr in (pm, pn, fm, fn):
            assert arr.min() >= 1 and arr.max() <= 2

    def test_two_sided_determinism(self, bernoulli):
        a = bernoulli.sample_two_sided(7, 5, 11, np.random.default_rng(3))
        b = bernoulli.sample_two_sided(7, 5, 11, np.random.default_rng(3))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_forbidden_symbol_never_sampled(self, bernoulli):
        _, fwd = bernoulli.sample_two_sided(6, 6, 200,
                                            np.random.default_rng(0))
        fm, fn = bernoulli.digits(fwd)
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

        A, R = g.alphabet_size, g.alphabet_size ** (g.memory - 1)
        fwd, bwd = g._cums()
        src = np.flatnonzero(g.stationary > 0)
        draws = np.full(len(src), u)
        slot = g._step(fwd, src % R, draws)
        assert (g.transition[src % R, slot] > 0).all()
        # backward slot a leads to the predecessor a * A^(L-1) + src // A
        prv = g._step(bwd, src // A, draws) * R + src // A
        assert (g.stationary[prv] > 0).all()
        assert (g.transition[prv % R, src % A] > 0).all()

    def test_forward_length_guard(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        with pytest.raises(InvalidWord):
            g.sample_forward(1, 5, np.random.default_rng(0))

    def test_two_sided_forward_length_guard(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        with pytest.raises(InvalidWord, match="need at least 2 symbols per draw"):
            g.sample_two_sided(5, 1, 10, 0)

    def test_two_sided_without_past_draws_the_forward_words(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, memory=2)
        codes = g.sample_forward(9, 15, np.random.default_rng(4))
        _, fwd = g.sample_two_sided(0, 9, 15, np.random.default_rng(4))
        fm, fn = g.digits(fwd)
        assert np.array_equal(fm, codes // 2 + 1)
        assert np.array_equal(fn, codes % 2 + 1)


class TestMeasureStats:
    def test_summary_consistency(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        stats = measure_stats(g, conj)
        assert stats.h_mu == pytest.approx(entropy(g))
        assert stats.h_mu1 <= stats.h_mu and stats.h_mu2 <= stats.h_mu
        assert stats.chi_T == lyapunov_fiber_exact(g, conj)
        assert stats.lambda1 == pytest.approx(math.exp(-stats.chi1))
        assert stats.lambda2 == pytest.approx(math.exp(-stats.chi2))
        brackets = [marginal_entropy(g, which) for which in (1, 2)]
        assert stats.entropy_width == max(b.value - b.lower for b in brackets)
        assert stats.entropy_width <= thermo.ENTROPY_TOL
        assert stats.entropy_depth == max(b.depth for b in brackets)
        exponents = [lyapunov_marginal_exact(g, which) for which in (1, 2)]
        assert (stats.chi1, stats.chi2) == tuple(e.value for e in exponents)
        assert stats.moment_sweeps == max(e.sweeps for e in exponents)

    def test_geometric_summary_draws_nothing(self, conj, monkeypatch):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, 2)
        first = measure_stats(g, conj)

        def forbidden(*args, **kwargs):
            raise AssertionError("a geometric summary must not draw")

        monkeypatch.setattr(GibbsApprox, "sample_two_sided", forbidden)
        assert measure_stats(g, conj) == first
