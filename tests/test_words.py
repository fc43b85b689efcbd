"""Symbolic coding layer: exact enclosures, digit extraction, induced maps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fiberdim.errors import EnumerationCapExceeded, InvalidWord
from fiberdim.words import (Interval, cf_value_float,
                            certify_derivative_sup, check_digit,
                            check_max_digit, induced_ifs_maps, is_integer,
                            pair_alphabet, rho0_value)

from oracles import (RationalTermination, cf_map_derivative_mod,
                     enumerate_pair_words, fraction_derivative_sup,
                     fraction_rho0_value, pi_tilde, rho0_digits)


def newton_sqrt(n: int, iterations: int = 8) -> Fraction:
    """Rational sqrt(n) via Newton, accurate far beyond double precision."""
    r = Fraction(math.sqrt(n))
    for _ in range(iterations):
        r = (r + n / r) / 2
    return r


GOLDEN = (newton_sqrt(5) - 1) / 2  # (sqrt5 - 1)/2, error < 1e-30
SILVER = newton_sqrt(2) - 1


def derivative_product(word, x0: float) -> float:
    """Chain-rule product of branch derivative moduli, word applied inside out."""
    prod, y = 1.0, x0
    for d in reversed(word):
        prod *= cf_map_derivative_mod(d, y)
        y = 1.0 / (y + d)
    return prod


class TestIntegerChecks:
    def test_is_integer(self):
        assert is_integer(3) and is_integer(np.int64(3)) and is_integer(np.int32(3))
        assert not any(is_integer(x) for x in (True, np.bool_(True), 3.0, "3"))

    @pytest.mark.parametrize("digit", [True, 2.0, 0, "2"])
    def test_check_digit_rejects(self, digit):
        with pytest.raises(InvalidWord):
            check_digit(digit)

    @pytest.mark.parametrize("max_digit", [True, False, 3.0, 0])
    def test_check_max_digit_rejects(self, max_digit):
        with pytest.raises(InvalidWord):
            check_max_digit(max_digit)


class TestCfDerivative:
    def test_parabolic_exact(self):
        assert cf_map_derivative_mod(1, 0.0) == 1.0

    def test_digit_two_at_zero(self):
        assert cf_map_derivative_mod(2, 0.0) == 0.25

    def test_golden_square(self):
        g = (math.sqrt(5) - 1) / 2
        assert cf_map_derivative_mod(1, g) == pytest.approx(g * g, abs=1e-12)


class TestRho0Value:
    def test_single_digit(self):
        iv = rho0_value((1,))
        assert iv.lo == Fraction(1, 2) and iv.hi == Fraction(1)

    def test_silver_enclosure_width(self):
        iv = rho0_value((2,) * 30)
        assert iv.lo < SILVER < iv.hi
        assert iv.hi - iv.lo <= Fraction(1, 10**22)

    def test_golden_enclosure(self):
        iv = rho0_value((1,) * 30)
        assert iv.lo < GOLDEN < iv.hi

    def test_empty_word_unit_interval(self):
        iv = rho0_value(())
        assert (iv.lo, iv.hi) == (0, 1)

    def test_convergents_match_fraction_division(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            depth = int(rng.integers(0, 31))
            word = tuple(int(d) for d in rng.integers(1, 10, size=depth))
            iv = rho0_value(word)
            assert (iv.lo, iv.hi) == fraction_rho0_value(word)


class TestRho0Digits:
    def test_golden_all_ones(self):
        assert rho0_digits(GOLDEN, 10) == (1,) * 10

    def test_silver_all_twos(self):
        assert rho0_digits(SILVER, 5) == (2,) * 5

    def test_rational_termination(self):
        with pytest.raises(RationalTermination) as err:
            rho0_digits(Fraction(1, 2), 3)
        assert err.value.digits == (2,)

    def test_round_trip_random_words(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            word = tuple(int(d) for d in rng.integers(1, 5, size=20))
            iv = rho0_value(word)
            mid = (iv.lo + iv.hi) / 2
            assert rho0_digits(mid, 20) == word


class TestMonotoneAndDisjoint:
    def test_refinement_nesting(self):
        for depth in range(1, 6):
            for code in range(4 ** depth):
                word = tuple(code // 4 ** i % 4 + 1 for i in range(depth))
                outer = rho0_value(word)
                inner = rho0_value(word + (1,))
                assert outer.lo <= inner.lo and inner.hi <= outer.hi

    def test_fixed_depth_disjoint_interiors(self):
        depth = 3
        ivs = []
        for code in range(4 ** depth):
            word = tuple(code // 4 ** i % 4 + 1 for i in range(depth))
            ivs.append(rho0_value(word))
        ivs.sort(key=lambda iv: iv.lo)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo

    def test_width_tracks_derivative_product(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            depth = int(rng.integers(1, 7))
            word = tuple(int(d) for d in rng.integers(1, 5, size=depth))
            iv = rho0_value(word)
            width = float(iv.hi - iv.lo)
            # interior base point: branch images of 0 can hit the right
            # endpoint 1, which the half-open domain of the next map rejects
            prod = derivative_product(word, 0.5)
            assert width <= 4.0 * prod and prod <= 4.0 * width


class TestPiTilde:
    def test_single_symbol_box(self):
        box = pi_tilde(((1, 2),))
        assert (box.re.lo, box.re.hi) == (1, 2)
        assert (box.im.lo, box.im.hi) == (2, 3)

    def test_periodic_12_encloses_quadratic_pair(self):
        box = pi_tilde(((1, 2),) * 30)
        x_star = (1 + newton_sqrt(5)) / 2   # x = 1 + 1/x
        y_star = 1 + newton_sqrt(2)          # y = 2 + 1/y
        assert box.re.lo < x_star < box.re.hi
        assert box.im.lo < y_star < box.im.hi

    def test_unit_width_bound(self):
        for sym in pair_alphabet(3):
            box = pi_tilde((sym,))
            assert box.re.width <= 1
            assert box.im.width <= 1


class TestInducedMaps:
    def test_k0_branch2_sup(self):
        maps = [m for m in induced_ifs_maps(2, 0) if m.branch == 2]
        assert maps and all(m.derivative_sup == pytest.approx(0.25, abs=1e-9)
                            for m in maps)

    def test_count_and_contraction_m3(self):
        maps = induced_ifs_maps(3, 2)
        assert len(maps) == 2 * 3 * 2
        assert all(m.contraction_ok and m.derivative_sup < 1 for m in maps)

    def test_integer_sup_matches_fraction_cells(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            depth = int(rng.integers(1, 7))
            word = tuple(int(d) for d in rng.integers(1, 6, size=depth))
            subdivisions = int(rng.integers(1, 80))
            sup = certify_derivative_sup(word, subdivisions)
            assert isinstance(sup, Fraction)
            assert sup == fraction_derivative_sup(word, subdivisions)

    def test_phi1_phi2_composite_contracts(self):
        sup = float(certify_derivative_sup((1, 2)))
        assert 0 < sup < 1
        prod = derivative_product((1, 2), 0.3)
        assert prod <= sup + 1e-12


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_pair_words(1, 3))) == 1
        assert len(list(enumerate_pair_words(2, 2))) == 16
        assert len(list(enumerate_pair_words(3, 4))) == 6561

    def test_lexicographic_no_duplicates(self):
        words = list(enumerate_pair_words(2, 3))
        assert words == sorted(words)
        assert len(set(words)) == len(words)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_pair_words(10, 8))


class TestCfValueFloat:
    def test_matches_exact_midpoint(self):
        word = (1, 2, 1, 3)
        iv = rho0_value(word)
        val = cf_value_float(np.array(word))
        assert float(iv.lo) <= float(val) <= float(iv.hi)

    def test_vectorized_shapes(self):
        digits = np.ones((5, 7), dtype=int)
        out = cf_value_float(digits)
        assert out.shape == (5,)
        g = (math.sqrt(5) - 1) / 2
        assert np.allclose(out, g, atol=1e-2)
