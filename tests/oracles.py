"""Test-only oracles: chain masses, digit-marginal block entropies, digit
extraction, dimension parts, the shell-sum fit of the summability
threshold, Fraction-arithmetic copies of the rational certificates, the
Gibbs sandwich constant, closed-form similarity dimensions, fiber limit
sets, the Monte Carlo digit-marginal and fiber exponents, whole-draw
copies of the blocked chain-draw consumers, the pair-word enumeration, the
checked one-step fiber derivative, and the scalar fiber-map layer over
plain pair-word tuples (the exact pair-cylinder box ``pi_tilde``,
``exact_coefficient``, ``fiber_map``, ``pi2_hat``) that the bulk
composition is checked against, and the closed-form periodic log|T'| table
(``periodic_tail``, ``exact_periodic_table``) that the realization is
checked against, and the point-grid maximum the square family's closed-form
distortion bound is checked against (``grid_square_distortion``).

Each is a short formula over the package's public data that no program
path needs; the tests that check the package against them import them
from here.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fiberdim.dimension import branch_value, global_dimension
from fiberdim.errors import (ConfigError, DomainEscape, EnumerationCapExceeded,
                             FiberdimError, InvalidWord)
from fiberdim.systems import (CONTEXT_DEPTH, ESCAPE_TOL, fiber_points_bulk,
                              pi_values_bulk)
from fiberdim.thermo import (GeometricPotential, TablePotential, entropy,
                             gibbs_markov, lyapunov_fiber_exact,
                             realized_table)
from fiberdim.words import (ENUMERATION_CAP, Interval, cf_value_float,
                            check_digit, check_digit_word, check_max_digit,
                            check_pair_symbol, check_pair_word, is_integer,
                            pair_alphabet, rho0_value)

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


class DomainError(FiberdimError, ValueError):
    """Argument of a base map lies outside [0, 1)."""


class RationalTermination(Exception):
    """Digit extraction hit a (numerically) rational point.

    Carries the digits recovered before termination in ``digits``.
    """

    def __init__(self, digits, message="continued fraction terminated"):
        self.digits = tuple(digits)
        super().__init__(f"{message} after {len(self.digits)} digit(s)")


def pair_word_count(max_digit: int, depth: int) -> int:
    return (check_max_digit(max_digit) ** 2) ** depth


def enumerate_pair_words(max_digit: int, depth: int, cap: int = ENUMERATION_CAP):
    """Iterate all pair words of the given depth in lexicographic order.

    Raises EnumerationCapExceeded before yielding anything if the total count
    (max_digit^2)^depth exceeds ``cap``.
    """
    if depth < 0:
        raise InvalidWord("depth must be >= 0")
    total = pair_word_count(max_digit, depth)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} pair words at depth {depth} exceed cap {cap}")
    return itertools.product(pair_alphabet(max_digit), repeat=depth)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in the plane, exact rational edges."""

    re: Interval
    im: Interval

    @property
    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)


def pi_tilde(word) -> Box:
    """Enclosure of the paired continued-fraction point over a pair cylinder.

    The first coordinate is m0 + 1/(m1 + 1/(...)) with the unknown tail
    ranging over [0, 1]; same for the second coordinate.  A length-1 word
    therefore gives the unit box anchored at its digits.
    """
    w = check_pair_word(word)
    if not w:
        raise InvalidWord("pair word must be nonempty")
    m_digits, n_digits = zip(*w)
    tail_m = rho0_value(m_digits[1:])
    tail_n = rho0_value(n_digits[1:])
    return Box(
        Interval(m_digits[0] + tail_m.lo, m_digits[0] + tail_m.hi),
        Interval(n_digits[0] + tail_n.lo, n_digits[0] + tail_n.hi),
    )


def exact_coefficient(system, word, depth: int = CONTEXT_DEPTH):
    """Coefficient of one context word, a plain tuple of pair symbols,
    computed apart from ``family.coefficients``: the exact translate value
    of its first ``depth`` symbols, the midpoint of their cylinder, for the
    reciprocal families; the first symbol's (modulus, translation) for
    similarities."""
    if not word:
        raise InvalidWord("pair word must be nonempty")
    if system.family.uses_schedule:
        mod, tr = system.schedule.maps(*check_pair_symbol(word[0]))
        return float(mod), complex(tr)
    return pi_tilde(word[:depth]).mid


def fiber_map(system, word, w: complex, depth: int = CONTEXT_DEPTH) -> complex:
    """Apply the time-zero fiber map of a context word to a domain point."""
    if not system.domain.contains(w, tol=ESCAPE_TOL):
        raise DomainEscape(f"argument {w} outside the fiber domain")
    family = system.family
    img = family.map(w, exact_coefficient(system, word, depth))
    if not system.domain.contains(img, tol=ESCAPE_TOL):
        raise DomainEscape(f"image {img} escaped the fiber domain")
    return img


def pi2_hat(system, past, forward, depth: int = CONTEXT_DEPTH):
    """Fiber point selected by a finite past, with its contraction error bound.

    ``past[j - 1]`` is the symbol at time -j.  The map at time -level reads
    the context ``past[level-1::-1] + forward``, the two-sided word from
    that time on, at ``depth`` symbols.  The maps compose from the deepest
    level inward, starting at the domain center.  The result lies within
    contraction^-len(past) * diam(domain) of the true limit point; that
    bound is returned alongside the point.
    """
    past, forward = check_pair_word(past), check_pair_word(forward)
    if not forward:
        raise InvalidWord("a forward word is required to build contexts")
    if depth < 1:
        raise InvalidWord("context depth must be >= 1")
    w = system.domain.center
    for level in range(len(past), 0, -1):
        w = fiber_map(system, past[level - 1::-1] + forward, w, depth)
    err = system.contraction ** (-len(past)) * system.domain.diameter
    return w, err


def fiber_derivative_mod(system, word, w: complex,
                         depth: int = CONTEXT_DEPTH) -> float:
    """One-step derivative modulus of a context word's map at a domain point."""
    if not system.domain.contains(w, tol=ESCAPE_TOL):
        raise DomainEscape(f"argument {w} outside the fiber domain")
    return system.family.derivative_mod(w, exact_coefficient(system, word, depth))


def periodic_tail(digits) -> float:
    """The purely periodic continued fraction [0; d_1, ..., d_L, d_1, ...].

    Over one period x -> 1/(x + d) composes to x -> (p + x p') / (q + x q')
    with the convergents of ``rho0_value``, so the tail y is the positive
    root of q' y^2 + (q - p') y - p = 0, written 2p / (b + sqrt(b^2 +
    4 q' p)) with b = q - p' so that nothing cancels.
    """
    p, p_prev, q, q_prev = 0, 1, 1, 0
    for d in check_digit_word(digits):
        p, p_prev, q, q_prev = d * p + p_prev, p, d * q + q_prev, q
    b = q - p_prev
    return 2 * p / (b + math.sqrt(b * b + 4 * q_prev * p))


def exact_periodic_table(system, max_digit: int, memory: int,
                         levels: int = 400) -> np.ndarray:
    """log|T'| at the periodic limit point of every reciprocal-family
    memory-word, in code order, from closed-form coefficients: phase t reads
    m_t + y(m_(t+1) ... m_(t+L)) + i(n_t + y(n_(t+1) ... n_(t+L))) with y the
    ``periodic_tail``.  The point composes ``levels`` periodic maps from the
    domain center, the map at time -j reading phase -j mod L."""
    words = list(enumerate_pair_words(max_digit, memory))
    coeff = np.empty((memory, len(words)), dtype=complex)
    for k, word in enumerate(words):
        for t in range(memory):
            m, n = zip(*(word[t:] + word[:t]))
            coeff[t, k] = complex(m[0] + periodic_tail(m[1:] + m[:1]),
                                  n[0] + periodic_tail(n[1:] + n[:1]))
    family = system.family
    w = np.full(len(words), system.domain.center)
    for j in range(levels, 0, -1):
        w = family.map(w, coeff[-j % memory])
    return np.log(family.derivative_mod(w, coeff[0]))


def grid_square_distortion(domain, n: int = 900) -> float:
    """Largest 1/|w| + 4|w| / (2 sqrt(2) - |w|^2), the square family's
    log|T'| gradient bound, over a sqrt(n) x sqrt(n) point grid of the
    domain disk and 64 points of its boundary, leaving out |w| <= 1e-3.
    A sample, so the closed form ``distortion`` lies at or above it."""
    side = int(math.sqrt(n))
    xs = np.linspace(-1.0, 1.0, side)
    gx, gy = np.meshgrid(xs, xs)
    pts = gx.ravel() + 1j * gy.ravel()
    ring = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 64, endpoint=False))
    pts = np.concatenate([pts[np.abs(pts) <= 1.0], ring])
    x = np.abs(domain.center + domain.radius * pts)
    x = x[x > 1e-3]
    return float(np.max(1.0 / x + 4.0 * x / (2.0 * abs(1 + 1j) - x ** 2)))


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

def constant_potential(value: float, max_digit: int) -> TablePotential:
    """psi identically ``value`` on the M-truncation: the memory-1 table
    with one value on every symbol, as the config's ``constant`` kind."""
    return TablePotential.from_dict(
        max_digit, dict.fromkeys(pair_alphabet(max_digit), value))


def sample_fiber_limit_set(system, forward, max_digit: int, depth: int,
                           count: int, seed: int) -> np.ndarray:
    """Points of the fiber limit set over a forward word, one per random past.

    Pasts come from the zero-potential chain on the symbols with digits <=
    max_digit, uniform and independent; each returned point is within
    contraction^-depth * diam of the limit set.  A forward word shorter than
    the CONTEXT_DEPTH - 1 symbols a fiber point reads is padded with its
    periodic extension (``padded_forward``).
    """
    fwd = padded_forward(forward)
    chain = gibbs_markov(constant_potential(0.0, max_digit), max_digit, 1)
    past, _ = chain.sample_two_sided(depth, 1, count, seed)
    # one read-only row repeated count times, not count copies of it
    fwd_m, fwd_n = np.broadcast_to(np.array(fwd).T[:, None],
                                   (2, count, len(fwd)))
    return fiber_points_bulk(system, *chain.digits(past), fwd_m, fwd_n)


def padded_forward(forward) -> tuple:
    """A nonempty forward word, repeated periodically to at least the
    CONTEXT_DEPTH - 1 symbols a fiber point reads."""
    fwd = check_pair_word(forward)
    if not fwd:
        raise InvalidWord("forward word must be nonempty")
    return tuple(fwd[i % len(fwd)]
                 for i in range(max(len(fwd), CONTEXT_DEPTH - 1)))


def whole_draw_points(g, system, target: str, n_points: int, depth: int,
                      seed: int, chart: str = "unit_square") -> np.ndarray:
    """The points of ``sample_measure``, every stage on the whole draw."""
    forward = (max(g.memory, CONTEXT_DEPTH - 1) if target == "fiber"
               else depth)
    past, fwd = g.sample_two_sided(0 if target == "z_marginal" else depth,
                                   forward, n_points, seed)
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
    (past_m, past_n), (fwd_m, fwd_n) = g.digits(past), g.digits(fwd)
    pts = fiber_points_bulk(system, past_m, past_n, fwd_m, fwd_n)
    family = system.family
    c = family.coefficients(system, fwd_m[:, :CONTEXT_DEPTH], fwd_n[:, :CONTEXT_DEPTH])
    return McEstimate.from_samples(-np.log(family.derivative_mod(pts, c)))


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
