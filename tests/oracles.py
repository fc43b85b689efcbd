"""Test-only oracles: chain masses, digit-marginal block entropies, digit
extraction, dimension parts and the shell-sum fit of the summability
threshold.

Each is a short formula over the package's public data that no program
path needs; the tests that check the package against them import them
from here.
"""

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

from fiberdim.dimension import branch_value, global_dimension
from fiberdim.errors import DomainError, InvalidWord
from fiberdim.thermo import (GeometricPotential, entropy, gibbs_markov,
                             lyapunov_fiber_exact)
from fiberdim.words import check_pair_word, enumerate_pair_words

#: Gauss iterates below this are treated as exactly rational.
RATIONAL_EPS = Fraction(1, 10**12)

#: Truncations whose depth-1 shell sums ``shell_tail_slopes`` fits.
SHELL_SCHEDULE = (4, 8, 16, 32, 64)


class RationalTermination(Exception):
    """Digit extraction hit a (numerically) rational point.

    Carries the digits recovered before termination in ``digits``.
    """

    def __init__(self, digits, message="continued fraction terminated"):
        self.digits = tuple(digits)
        super().__init__(f"{message} after {len(self.digits)} digit(s)")


def symbol_code(sym, max_digit: int) -> int:
    return (sym[0] - 1) * max_digit + (sym[1] - 1)


def word_log_mass(g, word) -> float:
    """log mu of the cylinder of a word (any length >= 1) under chain g."""
    w = check_pair_word(word)
    L, A, M = g.memory, g.alphabet_size, g.max_digit
    code = 0
    for sym in w[:L]:
        code = code * A + symbol_code(sym, M)
    if len(w) < L:
        reps = A ** (L - len(w))
        mass = float(g.stationary[code * reps:(code + 1) * reps].sum())
        return math.log(mass) if mass > 0 else -math.inf
    if g.stationary[code] <= 0:
        return -math.inf
    out = math.log(g.stationary[code])
    for sym in w[L:]:
        a = symbol_code(sym, M)
        prob = g.transition[code % A ** (L - 1), a]
        if prob <= 0:
            return -math.inf
        out += math.log(prob)
        code = (code % A ** (L - 1)) * A + a
    return out


def digit_block_entropies(g, which: int, n: int) -> tuple:
    """(H(Y^n), H(Y^n, X_1)) of chain g, from the mass of every pair n-word.

    Y is the digit process of coordinate ``which`` and X_1 the other digits
    of the first L-word, as ``thermo.marginal_entropy`` brackets them.
    """
    marginal, joint = defaultdict(float), defaultdict(float)
    for word in enumerate_pair_words(g.max_digit, n):
        mass = math.exp(word_log_mass(g, word))
        digits = tuple(sym[which - 1] for sym in word)
        marginal[digits] += mass
        joint[digits, tuple(sym[2 - which] for sym in word[:g.memory])] += mass
    return tuple(-sum(p * math.log(p) for p in masses.values() if p > 0)
                 for masses in (marginal, joint))


def symbol_marginal(g) -> np.ndarray:
    """Stationary law of the symbol at one position (full alphabet)."""
    return g.stationary.reshape(g.alphabet_size, -1).sum(axis=1)


def potential_mean(g) -> float:
    """Integral of the potential against the Gibbs state."""
    # a pruned code may hold -inf, and its zero mass times -inf is NaN
    return float(g.stationary @ np.where(g.stationary > 0, g.gram, 0.0))


def variational_gap(g) -> float:
    """|h + int psi - P|; zero up to eigensolver precision for Gibbs states."""
    return abs(entropy(g) + potential_mean(g) - g.log_pressure)


def rho0_digits(x, depth: int) -> tuple:
    """First ``depth`` digits of the continued-fraction expansion of x.

    Runs exact rational Gauss steps on the input (floats are taken at their
    exact binary value).  Raises RationalTermination, carrying the digits
    found so far, when an iterate drops below RATIONAL_EPS.
    """
    if depth < 1:
        raise InvalidWord("depth must be >= 1")
    r = Fraction(x)
    if not (0 < r < 1):
        raise DomainError(f"argument {float(r)} outside (0, 1)")
    digits = []
    for _ in range(depth):
        inv = 1 / r
        d = inv.numerator // inv.denominator
        digits.append(int(d))
        r = inv - d
        if r < RATIONAL_EPS:
            raise RationalTermination(digits)
    return tuple(digits)


def fiber_measure_dimension(system, s: float, max_digit: int,
                            memory: int = None) -> float:
    """h/chi of the geometric Gibbs state on the truncation, chi exact."""
    g = gibbs_markov(GeometricPotential(system, float(s)), max_digit, memory)
    return entropy(g) / lyapunov_fiber_exact(g)


def z_marginal_dimension(stats, branch: str = None) -> float:
    """The z-marginal part of the selected branch formula."""
    if branch is None:
        branch = global_dimension(stats)[1]
    return branch_value(stats, branch) - stats.h_mu / stats.chi_T


# ---------------------------------------------------------------------------
# shell-sum fit of the summability threshold

def default_symbol_sup(variant: str, m, n):
    """sup|T'| over the default domain (center 1/2, radius 1/2) at the
    translate p = m + ni, in closed form for the two reciprocal families.

    The conjugate map inverts the disk of center 1/2 + p and radius 1/2;
    the square map inverts a disk of center 1/4 + 2p and radius 3/4 that
    holds z^2 + 2p, with |z| at most zmax = 1.
    """
    m, n = np.asarray(m, dtype=float), np.asarray(n, dtype=float)
    if variant == "inverse_conjugate":
        return 1.0 / (np.hypot(m + 0.5, n) - 0.5) ** 2
    if variant == "inverse_square":
        return 2.0 / (np.hypot(2 * m + 0.25, 2 * n) - 0.75) ** 2
    raise ValueError(f"no closed-form symbol sup for {variant!r}")


def shell_tail_slopes(variant: str, s_grid) -> tuple:
    """Slope of log shell sum against log M per s, over the largest
    truncations of ``SHELL_SCHEDULE``.

    The shell of M holds the symbols whose larger digit is M.  A slope below
    -1 means the shells sum to a finite total, a slope above -1 that they do
    not.
    """
    m_max = SHELL_SCHEDULE[-1]
    grid = np.arange(1, m_max + 1)
    mm, nn = np.meshgrid(grid, grid, indexing="ij")
    sup = default_symbol_sup(variant, mm, nn).ravel()
    shell = np.maximum(mm, nn).ravel() - 1
    fitted = np.array([m for m in SHELL_SCHEDULE if m >= m_max // 4])
    slopes = []
    for s in s_grid:
        shells = np.bincount(shell, weights=sup ** s, minlength=m_max)
        slopes.append(float(np.polyfit(np.log(fitted),
                                       np.log(shells[fitted - 1]), 1)[0]))
    return tuple(slopes)


def fitted_threshold(variant: str, s_grid) -> float:
    """The s at which the fitted tail slope crosses -1, interpolated."""
    slopes = np.array(shell_tail_slopes(variant, s_grid))
    order = np.argsort(slopes)
    return float(np.interp(-1.0, slopes[order], np.asarray(s_grid)[order]))
