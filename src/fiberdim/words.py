"""Symbolic words over positive-digit alphabets and the base coordinate maps.

Points of the coding spaces are handled through finite prefixes: a digit word
is a tuple of integers >= 1 and a pair word is a tuple of (m, n) digit pairs,
ordered lexicographically by m then n.  The base dynamics is the family of
decreasing contractions x -> 1/(x + d) on [0, 1]; composing a digit word
inside out yields the cylinder image of [0, 1].

Cylinder enclosures are computed with exact rational endpoints (stdlib
fractions, built from integer numerators and denominators), because depth-30
cylinders are far narrower than one double spacing and float endpoints would
collapse them.  Float fast paths for bulk numerics live in
:func:`cf_value_float`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidWord

if TYPE_CHECKING:  # imported where used: `fractions` loads `decimal`
    from fractions import Fraction

#: Hard cap on realized periodic words and on cylinder-sum sweep cells.
ENUMERATION_CAP = 10_000_000


# ---------------------------------------------------------------------------
# word validation and alphabets

def is_integer(x) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_digit(d) -> int:
    if not is_integer(d) or d < 1:
        raise InvalidWord(f"digit must be an integer >= 1, got {d!r}")
    return int(d)


def check_digit_word(word) -> tuple[int, ...]:
    return tuple(check_digit(d) for d in word)


def check_pair_symbol(sym) -> tuple[int, int]:
    try:
        m, n = sym
    except (TypeError, ValueError):
        raise InvalidWord(f"pair symbol must be a (m, n) pair, got {sym!r}")
    return (check_digit(m), check_digit(n))


def check_pair_word(word) -> tuple[tuple[int, int], ...]:
    return tuple(check_pair_symbol(s) for s in word)


def check_max_digit(max_digit) -> int:
    if not is_integer(max_digit) or max_digit < 1:
        raise InvalidWord(f"digit truncation must be an integer >= 1, got {max_digit!r}")
    return int(max_digit)


def pair_alphabet(max_digit: int) -> tuple[tuple[int, int], ...]:
    """All (m, n) pairs with digits <= max_digit, lexicographic by m then n."""
    M = check_max_digit(max_digit)
    return tuple((m, n) for m in range(1, M + 1) for n in range(1, M + 1))


# ---------------------------------------------------------------------------
# exact interval enclosures

@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        from fractions import Fraction
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return float((self.lo + self.hi) / 2)


# ---------------------------------------------------------------------------
# base contraction family

def rho0_value(word) -> Interval:
    """Exact image of [0, 1] under the digit word's branch composition.

    The empty word returns [0, 1].  The composition of x -> 1/(x + d) over
    d_1 .. d_k sends x to (p_k + x p_(k-1)) / (q_k + x q_(k-1)), with the
    convergent recurrences p_k = d_k p_(k-1) + p_(k-2) and q_k = d_k q_(k-1)
    + q_(k-2) from p_(-1) = q_0 = 1, p_0 = q_(-1) = 0, so the endpoints are
    p_k / q_k and (p_k + p_(k-1)) / (q_k + q_(k-1)) in integer arithmetic.
    The enclosure width is bounded by the product of per-step derivative
    sups.
    """
    from fractions import Fraction
    w = check_digit_word(word)
    p, p_prev, q, q_prev = 0, 1, 1, 0
    for d in w:
        p, p_prev, q, q_prev = d * p + p_prev, p, d * q + q_prev, q
    ends = Fraction(p, q), Fraction(p + p_prev, q + q_prev)
    # an even composition is increasing, an odd one decreasing
    return Interval(*(ends if len(w) % 2 == 0 else ends[::-1]))


def cf_value_float(digits: np.ndarray) -> np.ndarray:
    """Vectorised float evaluation of continued fractions with tail 0.5.

    ``digits[..., i]`` is the i-th digit; the returned value lies inside the
    cylinder of the digit word, as any tail in [0, 1] would.
    """
    digits = np.asarray(digits)
    if digits.ndim == 0:
        raise InvalidWord("digits must have a word axis")
    x = np.full(digits.shape[:-1], 0.5)
    for i in range(digits.shape[-1] - 1, -1, -1):
        np.add(digits[..., i], x, out=x)
        np.divide(1.0, x, out=x)
    return x[()]  # a scalar for a single word


# ---------------------------------------------------------------------------
# induced uniformly-contracting composites

@dataclass(frozen=True)
class ComposedMap:
    """A branch composition with a certified derivative supremum on [0, 1].

    ``kind`` records how the composite was formed: ``outer_power`` is the
    unit branch applied k times after branch j, ``inner_power`` applies the
    unit branch k times first.
    """

    digits: tuple[int, ...]
    kind: str
    power: int
    branch: int
    derivative_sup: float
    contraction_ok: bool


def certify_derivative_sup(word, subdivisions: int = 256) -> Fraction:
    """Exact upper bound for the composite derivative modulus on [0, 1].

    Splits [0, 1] into equal cells and propagates interval images through the
    branches; each branch derivative 1/(x+d)^2 is decreasing, so its cell
    supremum sits at the left endpoint.  Each cell's endpoints and its bound
    are held as Python-int numerators and denominators and the cells are
    compared by cross-multiplying, so the bound is rigorous and no fraction
    is normalised before the last.
    """
    from fractions import Fraction
    w = check_digit_word(word)
    if not w:
        raise InvalidWord("word must be nonempty")
    n = int(subdivisions)
    best_num, best_den = 0, 1
    for i in range(n):
        # lo = lo_num / lo_den, hi = hi_num / hi_den, bound = num / den
        lo_num, lo_den, hi_num, hi_den = i, n, i + 1, n
        num, den = 1, 1
        for d in reversed(w):
            shifted = lo_num + d * lo_den  # (lo + d) * lo_den
            num *= lo_den * lo_den
            den *= shifted * shifted
            lo_num, lo_den, hi_num, hi_den = (
                hi_den, hi_num + d * hi_den, lo_den, shifted)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def induced_ifs_maps(max_digit: int, k_max: int,
                     subdivisions: int = 256) -> list[ComposedMap]:
    """Unit-branch/other-branch composites with certified uniform contraction.

    Returns 2 * (k_max + 1) * (max_digit - 1) composites: for every power
    k in 0..k_max and branch j in 2..max_digit, both orderings of "k unit
    branches and one branch j".  The k = 0 entries of the two families
    coincide as maps but are listed separately.
    """
    M = check_max_digit(max_digit)
    if k_max < 0:
        raise InvalidWord("k_max must be >= 0")
    maps = []
    for k in range(k_max + 1):
        for j in range(2, M + 1):
            for kind, digits in (
                ("outer_power", (1,) * k + (j,)),
                ("inner_power", (j,) + (1,) * k),
            ):
                sup = certify_derivative_sup(digits, subdivisions)
                maps.append(ComposedMap(
                    digits=digits, kind=kind, power=k, branch=j,
                    derivative_sup=float(sup), contraction_ok=sup < 1))
    return maps
