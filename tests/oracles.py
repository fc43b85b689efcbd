"""Test-only oracles: chain masses, digit-marginal block entropies, digit
extraction, dimension parts, the shell-sum fit of the summability
threshold, Fraction-arithmetic copies of the rational certificates, the
Gibbs sandwich constant, closed-form similarity dimensions, fiber limit
sets, the Monte Carlo digit-marginal and fiber exponents, and whole-draw
copies of the blocked chain-draw consumers.

Each is a short formula over the package's public data that no program
path needs; the tests that check the package against them import them
from here.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fiberdim.dimension import branch_value, global_dimension
from fiberdim.errors import (ConfigError, DomainError, EnumerationCapExceeded,
                             InvalidWord)
from fiberdim.systems import (CONTEXT_DEPTH, fiber_log_derivatives,
                              fiber_points_bulk, pi_values_bulk)
from fiberdim.thermo import (ConstantPotential, GeometricPotential, entropy,
                             gibbs_markov, lyapunov_fiber_exact,
                             realized_table)
from fiberdim.words import (ENUMERATION_CAP, cf_value_float, check_digit,
                            check_pair_word, enumerate_pair_words, is_integer)

#: Gauss iterates below this are treated as exactly rational.
RATIONAL_EPS = Fraction(1, 10**12)

#: Truncations whose depth-1 shell sums ``shell_tail_slopes`` fits.
SHELL_SCHEDULE = (4, 8, 16, 32, 64)


@dataclass
class McEstimate:
    """Monte Carlo scalar with its normal-approximation standard error."""

    value: float
    se: float

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "McEstimate":
        """Mean of independent per-sample values with se = std / sqrt(n)."""
        return cls(float(values.mean()),
                   float(values.std(ddof=1) / math.sqrt(len(values))))


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


def cf_map_derivative_mod(digit: int, x) -> float:
    """Modulus of the branch derivative, 1/(x + digit)^2."""
    d = check_digit(digit)
    xf = float(x)
    if not (0.0 <= xf < 1.0):
        raise DomainError(f"argument {xf} outside [0, 1)")
    return 1.0 / (xf + d) ** 2


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
    return entropy(g) / lyapunov_fiber_exact(g, system)


def analytic_similarity_dimension(system, max_digit: int, s: float,
                                  order: int = 0) -> float:
    """Closed-form delta(s), delta'(s), or delta''(s) for similarity systems.

    With P = log sum exp(s g) and chi = -P', the curve is
    delta = s + P/chi; the derivatives follow from the central moments of g
    under the tilted weights.
    """
    moduli = system.family.moduli(system, max_digit)
    if moduli is None:
        raise ConfigError("closed forms exist for similarity systems only")
    g = np.log(moduli)
    w = np.exp(s * g)
    Z = w.sum()
    p = w / Z
    P = math.log(Z)
    m1 = float(p @ g)
    m2c = float(p @ (g - m1) ** 2)
    m3c = float(p @ (g - m1) ** 3)
    if order == 0:
        return s - P / m1
    if order == 1:
        return P * m2c / m1 ** 2
    if order == 2:
        return m2c / m1 + P * (m3c * m1 - 2.0 * m2c ** 2) / m1 ** 3
    raise ConfigError("order must be 0, 1, or 2")


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


# ---------------------------------------------------------------------------
# rational certificates through Fraction arithmetic

def fraction_rho0_value(word) -> tuple:
    """(lo, hi) of ``words.rho0_value`` by Fraction division, innermost
    digit first."""
    lo, hi = Fraction(0), Fraction(1)
    for d in reversed(word):
        lo, hi = 1 / (hi + d), 1 / (lo + d)
    return lo, hi


def fraction_derivative_sup(word, subdivisions: int) -> Fraction:
    """``words.certify_derivative_sup`` with every cell in Fractions."""
    best = Fraction(0)
    for i in range(subdivisions):
        lo, hi = Fraction(i, subdivisions), Fraction(i + 1, subdivisions)
        bound = Fraction(1)
        for d in reversed(word):
            bound /= (lo + d) ** 2
            lo, hi = 1 / (hi + d), 1 / (lo + d)
        best = max(best, bound)
    return best


# ---------------------------------------------------------------------------
# Gibbs sandwich constant

def _signed(x: np.ndarray, sign: float) -> np.ndarray:
    """sign * x where finite and -inf elsewhere, so a dead word never wins."""
    return np.where(np.isfinite(x), sign * x, -np.inf)


def gibbs_constant_hat(g, depth: int = None) -> float:
    """Max Gibbs ratio deviation of chain g over all words of depth L ..
    depth (L + 4).

    The ratio compares chain cylinder masses against exp(S_n psi - n P)
    for the realized memory-k potential, whose cyclic Birkhoff sums are
    cylinder-constant; ``potential_error`` bounds the realization apart,
    since folding its drift into the ratio would grow the constant
    exponentially in depth and certify nothing.  Along the L-word codes
    c_0 .. c_k of a word, the log ratio is log pi[c_0], plus log P(c_t ->
    c_(t+1)) - psi[c_t] + P per step, plus L P - psi[c_k] less psi on the
    L - 1 windows wrapping from c_k into c_0.  Max-plus sweeps over
    (first, last) code pairs, one for the ratio and one for its negative,
    give its extremes at every depth in O(depth * A^(2L)).
    """
    L, A = g.memory, g.alphabet_size
    depth = L + 4 if depth is None else depth
    if not is_integer(depth):
        raise InvalidWord(f"depth must be an integer, got {depth!r}")
    if depth < L:
        raise InvalidWord("depth below the chain memory")
    N = A ** L
    if (depth - L + 1) * N * N > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{(depth - L + 1) * N * N} (first, last) sweep cells exceed the cap")
    P, psi = g.log_pressure, g.gram
    first, last = np.arange(N)[:, None], np.arange(N)[None, :]
    end = L * P - psi[last] - sum(psi[(last % A ** (L - j)) * A ** j
                                      + first // A ** (L - j)] for j in range(1, L))
    with np.errstate(divide="ignore"):
        log_pi, log_step = np.log(g.stationary), np.log(g.transition)
    worst = 0.0
    for sign in (1.0, -1.0):
        stay, move, tail = (_signed(x, sign) for x in (P - psi, log_step, end))
        V = np.where(np.eye(N, dtype=bool), _signed(log_pi, sign), -np.inf)
        for n in range(L, depth + 1):
            worst = max(worst, float((V + tail).max()))
            if n < depth:
                # the max-plus twin of the predecessor sum, then one slot step
                best = (V + stay).reshape(N, A, -1).max(axis=1)
                V = (best[:, :, None] + move).reshape(N, N)
    return math.exp(worst)


# ---------------------------------------------------------------------------
# chain-draw consumers over whole draws

def sample_fiber_limit_set(system, forward, max_digit: int, depth: int,
                           count: int, seed: int) -> np.ndarray:
    """Points of the fiber limit set over a forward word, one per random past.

    Pasts come from the zero-potential chain on the symbols with digits <=
    max_digit, uniform and independent; each returned point is within
    contraction^-depth * diam of the limit set.
    """
    fwd = check_pair_word(forward)
    if not fwd:
        raise InvalidWord("forward word must be nonempty")
    chain = gibbs_markov(ConstantPotential(0.0), max_digit, 1)
    past, _ = chain.sample_two_sided(depth, 1, count, seed)
    # one read-only row repeated count times, not count copies of it
    fwd_m, fwd_n = np.broadcast_to(np.array(fwd).T[:, None],
                                   (2, count, len(fwd)))
    return fiber_points_bulk(system, *chain.digits(past), fwd_m, fwd_n)


def whole_draw_points(g, system, target: str, n_points: int, depth: int,
                      seed: int, chart: str = "unit_square") -> np.ndarray:
    """The points of ``sample_measure``, every stage on the whole draw."""
    forward = (max(g.memory, CONTEXT_DEPTH - 1) if target == "fiber"
               else depth)
    past, fwd = g.sample_two_sided(depth, forward, n_points, seed)
    (past_m, past_n), (fwd_m, fwd_n) = g.digits(past), g.digits(fwd)
    points = np.empty((n_points, 4 if target == "global" else 2))
    if target in ("z_marginal", "global"):
        z = pi_values_bulk(fwd_m, fwd_n)
        if chart == "unit_square":
            np.divide(1.0, z.real, out=points[:, 0])
            np.divide(1.0, z.imag, out=points[:, 1])
        else:
            points[:, 0], points[:, 1] = z.real, z.imag
    if target in ("fiber", "global"):
        w = fiber_points_bulk(system, past_m, past_n, fwd_m, fwd_n)
        points[:, -2], points[:, -1] = w.real, w.imag
    return points


def lyapunov_marginal(g, which: int, n_samples: int, orbit_len: int,
                      rng_seed) -> McEstimate:
    """Monte Carlo of ``thermo.lyapunov_marginal_exact``: per orbit the
    average of 2 log(x_(t+1) + d_t) over ``orbit_len`` steps, x the
    continued-fraction value of the digit suffix over a CONTEXT_DEPTH
    window."""
    codes = g.sample_forward(orbit_len + CONTEXT_DEPTH, n_samples, rng_seed)
    d = g.digits(codes)[which - 1]
    x = cf_value_float(
        sliding_window_view(d[:, 1:], CONTEXT_DEPTH, axis=1)[:, :orbit_len])
    return McEstimate.from_samples(
        (2.0 * np.log(x + d[:, :orbit_len])).mean(axis=1))


def whole_draw_lyapunov_fiber(g, system, n_samples: int, past_depth: int,
                              rng_seed) -> McEstimate:
    """Monte Carlo -int log|T'| d mu at fiber points: ``past_depth`` past
    symbols drawn from the reversed chain pin each point, and log|T'| reads
    CONTEXT_DEPTH forward symbols, all on the whole draw."""
    past, fwd = g.sample_two_sided(past_depth, max(CONTEXT_DEPTH, g.memory),
                                   n_samples, rng_seed)
    return McEstimate.from_samples(-fiber_log_derivatives(
        system, *g.digits(past), *g.digits(fwd), CONTEXT_DEPTH))


def whole_draw_lyapunov_fiber_table_mc(g, system, n_samples: int,
                                       orbit_len: int,
                                       rng_seed) -> McEstimate:
    """Monte Carlo of ``thermo.lyapunov_fiber_exact`` at the chain's memory:
    per orbit the average of minus the realized log|T'| table over
    ``orbit_len`` L-words of a forward chain orbit, on the whole draw."""
    table = realized_table(system, g.max_digit, g.memory)
    codes = g.sample_forward(orbit_len + g.memory - 1, n_samples, rng_seed)
    word = np.zeros((n_samples, orbit_len), dtype=np.int64)
    for i in range(g.memory):
        word = word * g.alphabet_size + codes[:, i : i + orbit_len]
    return McEstimate.from_samples((-table[word]).mean(axis=1))
