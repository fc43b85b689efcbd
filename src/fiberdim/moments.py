"""Exact digit-marginal Lyapunov exponents of a Gibbs chain.

The exponent of one digit coordinate is the chain expectation of
2 log(d_0 + x_1), x_1 the continued fraction of the later digits.  Its law
given the chain state is the fixed point of a transfer identity over the
digit maps f_d(y) = 1/(d + y); holding each conditional law as Chebyshev
moments on [0, 1] turns that identity into a linear sweep, iterated here to
its fixed point, so the exponent needs no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExponentNotConverged, InvalidWord

#: Chebyshev moments per conditional law in the exact marginal exponents;
#: 16 moments agree with 24 to 5e-15 on the reciprocal families.
MOMENT_COUNT = 24

#: Largest moment change at which the exact marginal exponent solve stops.
MOMENT_TOL = 1e-15

#: Sweep cap of that solve.  Digit 1 alone, the slowest contraction, stops
#: after 40 sweeps, the reciprocal families at M = 2-64 after 14-31.
MOMENT_SWEEP_CAP = 200


@dataclass(frozen=True)
class MarginalExponent:
    """Exact digit-marginal Lyapunov exponent and the sweeps its solve took."""

    value: float
    sweeps: int


def _chebyshev_fit(fn, n: int) -> np.ndarray:
    """Coefficients c_k, k < n, of T_k(2x - 1) in the degree n - 1
    interpolant of ``fn`` at the n Chebyshev points of [0, 1]; ``fn`` maps
    the points to an array whose last axis runs over them."""
    theta = np.pi * (np.arange(n) + 0.5) / n
    points = (np.cos(theta) + 1.0) / 2.0
    coef = fn(points) @ np.cos(np.outer(theta, np.arange(n))) * (2.0 / n)
    coef[..., 0] /= 2.0
    return coef


def _pushforward_matrices(max_digit: int, n: int) -> np.ndarray:
    """(M, n, n) re-expansion matrices of the digit maps f_d(y) = 1/(d + y).

    Row j of matrix d - 1 holds the coefficients of T_j(2 f_d(y) - 1) in
    T_k(2y - 1), so it takes the first n Chebyshev moments of a law sigma on
    [0, 1] to those of (f_d)_* sigma.  The rows come from the three-term
    recurrence at the interpolation points, where |2 f_d - 1| <= 1.
    """
    def basis(y):
        u = 2.0 / (np.arange(1, max_digit + 1)[:, None] + y) - 1.0
        T = np.empty((max_digit, n, len(y)))
        T[:, 0] = 1.0
        T[:, 1] = u
        for j in range(2, n):
            T[:, j] = 2.0 * u * T[:, j - 1] - T[:, j - 2]
        return T
    return _chebyshev_fit(basis, n)


def lyapunov_marginal_exact(g, which: int) -> MarginalExponent:
    """Chain expectation of 2 log(d_0 + x_1) for one digit coordinate.

    With d_t the digits of the coordinate and x_t = [0; d_t, d_(t+1), ...],
    this is the Birkhoff average of -log of the digit-map derivative
    modulus.  Let sigma_r be the law of the continued fraction of the digits
    after a chain suffix r of L - 1 symbols.  Slot a follows r with
    probability ``transition[r, a]`` and leaves the suffix r' = (r A + a)
    mod A^(L-1), so sigma_r = sum_a transition[r, a] (f_d(a))_* sigma_r'.
    Each sigma_r is held as MOMENT_COUNT Chebyshev moments on [0, 1],
    starting from the arcsine law (moments 1, 0, 0, ...), and one sweep
    applies that identity through ``_pushforward_matrices``; the mass moment
    stays pinned at 1, so rounding in the row sums cannot drift it.  The
    sweeps stop once no moment moves by more than MOMENT_TOL and raise
    ``ExponentNotConverged`` at MOMENT_SWEEP_CAP.  By stationarity the
    exponent is then sum_c pi_c int 2 log(d + x) d sigma_(c mod A^(L-1)),
    with d the digit of the last symbol of the L-word c.  This is moment
    collocation for transfer operators (Falk-Nussbaum, J. Fractal Geom.
    2018; Jenkinson-Pollicott, Adv. Math. 325, 2018) on the chain's
    conditional laws.
    """
    if which not in (1, 2):
        raise InvalidWord("marginal coordinate must be 1 or 2")
    M, L, A = g.max_digit, g.memory, g.alphabet_size
    R = A ** (L - 1)
    slots = np.arange(A)
    digit = slots // M if which == 1 else slots % M  # digit - 1 of each slot
    successor = (np.arange(R)[:, None] * A + slots) % R
    push = _pushforward_matrices(M, MOMENT_COUNT)
    moments = np.zeros((R, MOMENT_COUNT))
    moments[:, 0] = 1.0
    for sweeps in range(1, MOMENT_SWEEP_CAP + 1):
        pushed = np.einsum("djk,rk->drj", push, moments)
        new = np.einsum("ra,raj->rj", g.transition,
                        pushed[digit[None, :], successor])
        new[:, 0] = 1.0
        change = float(np.abs(new - moments).max())
        moments = new
        if change <= MOMENT_TOL:
            break
    else:
        raise ExponentNotConverged(
            f"digit {which} exponent moments still moved by {change:.3g} "
            f"after {MOMENT_SWEEP_CAP} sweeps")
    log_term = _chebyshev_fit(
        lambda x: 2.0 * np.log(np.arange(1, M + 1)[:, None] + x),
        MOMENT_COUNT)
    codes = np.arange(A ** L)
    per_code = np.einsum("cj,cj->c", log_term[digit[codes % A]],
                         moments[codes % R])
    return MarginalExponent(float(g.stationary @ per_code), sweeps)
