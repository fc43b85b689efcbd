"""Fiber contraction families driven by two-sided pair-digit words.

Each system contracts a closed disk in the plane, with the map at time zero
selected by the forward word: the two reciprocal families read the paired
continued-fraction value of the forward word, the similarity family only its
first symbol.  Composing maps along the past of a two-sided word pins the
fiber point; ``pi2_hat`` performs that composition with an explicit error
bound from the certified contraction factor.

Word contexts are plain tuples of pair symbols.  The scalar reference layer
(``FiberFamily.coeff_at`` and the ``fiber_map``, ``pi2_hat``, ``image_disk``
and ``verify_system`` that call it) reads the translate value of a context
at the midpoint of the exact cylinder of its first ``CONTEXT_DEPTH``
symbols.  The bulk path (``pi_values_bulk``, ``fiber_points_bulk``) reads
float continued fractions of the same symbols with tail 0.5, a point of the
same cylinder, and ``fiber_log_derivatives`` is the one log|T'| at them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainEscape, InvalidWord
from .words import (cf_value_float, check_max_digit, check_pair_symbol,
                    check_pair_word, pair_alphabet, pi_tilde)

#: Tolerance for the image-containment check of fiber maps.
ESCAPE_TOL = 1e-10

#: Default number of forward symbols a word-dependent quantity reads.
CONTEXT_DEPTH = 12

#: Digit elements, rows times the symbols per row, that one row block of a
#: bulk evaluation holds at once (``row_blocks``).  Its consumers are
#: ``fiber_points_bulk`` (depth + forward symbols), the periodic pasts of
#: ``thermo.periodic_log_derivatives``, and the chain draw's consumer
#: ``empirics.sample_measure``, which turns one block of codes at a time into
#: digits and points.
COMPOSITION_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# geometry helpers

@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius + tol

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


def invert_disk(disk: Disk) -> Disk:
    """Image of a disk not containing 0 under z -> 1/z (again a disk)."""
    c, r = disk.center, disk.radius
    d = abs(c) ** 2 - r ** 2
    if d <= 0:
        raise ValueError("disk contains the origin, inversion image unbounded")
    return Disk(c.conjugate() / d, r / d)


# ---------------------------------------------------------------------------
# similarity ratio/translation schedules

@dataclass(frozen=True)
class SimilaritySchedule:
    """Per-symbol contraction ratios and translations for similarity systems.

    Kinds:
      * ``geometric``: ratio base^-(m+n) with a dyadic packing of the
        translations that stays disjoint for every digit pair.
      * ``equal``: one ratio for all pairs with digits <= grid_digit, centers
        on a uniform grid.
      * ``two_ratio``: ratio_a for m == 1, ratio_b otherwise, same grid.
      * ``custom``: explicit (symbol, ratio, translation) table whose rows
        are the K x K symbols with digits <= K, each listed once.

    Ratios must stay in (0, 1/3).
    """

    KINDS = ("geometric", "equal", "two_ratio", "custom")

    kind: str = "geometric"
    base: float = 2.0
    ratio: float = 0.125
    ratio_a: float = 0.125
    ratio_b: float = 0.0625
    grid_digit: int = 2
    inner_factor: float = 0.5
    table: tuple = ()  # custom: ((m, n, ratio, re, im), ...)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown similarity schedule kind {self.kind!r}")
        if self.kind == "custom":
            symbols = sorted(tuple(row[:2]) for row in self.table)
            if not symbols or symbols != list(pair_alphabet(self.digit_limit)):
                raise ConfigError(
                    "custom schedule rows must be the K x K symbols with digits "
                    f"<= K, each listed once, not {symbols}")
        if not (0.0 < self.inner_factor <= 0.5):
            raise ConfigError("inner factor must lie in (0, 1/2]")
        for r in map(self.ratio_of, self.ratio_symbols()):
            if not (0.0 < r < 1.0 / 3.0):
                raise ConfigError(f"ratio {r} outside (0, 1/3)")

    def ratio_symbols(self):
        """Symbols that carry every ratio the schedule uses."""
        return pair_alphabet(self.digit_limit if self.kind == "custom" else 2)

    def _custom_row(self, symbol):
        for row in self.table:
            if (row[0], row[1]) == symbol:
                return row
        raise InvalidWord(f"symbol {symbol} not in custom schedule")

    def ratio_of(self, symbol) -> float:
        m, n = symbol
        if self.kind == "geometric":
            return float(self.base) ** -(m + n)
        if self.kind == "equal":
            return self.ratio
        if self.kind == "two_ratio":
            return self.ratio_a if m == 1 else self.ratio_b
        return float(self._custom_row(symbol)[2])

    def translation_of(self, symbol) -> complex:
        m, n = symbol
        if self.kind == "geometric":
            # dyadic packing: gaps shrink like 2^-m while image radii shrink
            # like 2^-(m+n)-1, so neighbouring images never touch
            u = 1.0 - 2.0 ** (1 - m)
            v = 1.0 - 2.0 ** (1 - n)
            return complex(0.6 * u - 0.3, 0.6 * v - 0.3)
        if self.kind in ("equal", "two_ratio"):
            G = self.grid_digit
            if not (1 <= m <= G and 1 <= n <= G):
                raise InvalidWord(f"symbol {symbol} outside grid truncation {G}")
            if G == 1:
                return 0j
            step = 1.0 / (G - 1)
            return complex(-0.5 + (m - 1) * step, -0.5 + (n - 1) * step)
        row = self._custom_row(symbol)
        return complex(row[3], row[4])

    def modulus_of(self, symbol) -> float:
        """Derivative modulus of the symbol's map: its ratio times the inner factor."""
        return self.ratio_of(symbol) * self.inner_factor

    @property
    def digit_limit(self) -> float:
        """Largest digit the schedule defines maps for."""
        if self.kind == "geometric":
            return math.inf
        if self.kind == "custom":
            return math.isqrt(len(self.table))
        return self.grid_digit


# ---------------------------------------------------------------------------
# fiber families: one formula table per variant

class FiberFamily:
    """Formula table of one fiber family; every layer evaluates its maps here.

    The time-zero map reads a coefficient off the forward word: the complex
    translate value for the reciprocal families (the defaults here), the
    first symbol's (modulus, translation) pair for the similarity family.
    ``map`` and ``derivative_mod`` broadcast over points and coefficients, so
    the scalar layer, the bulk sampler and the potential realization share
    one formula.
    """

    center, radius = 0.5 + 0j, 0.5  # default domain
    memory = 2  # default realization memory of log|T'|
    uses_schedule = False  # the family takes a SimilaritySchedule

    def coefficients(self, system, m_rows, n_rows):
        """Coefficients of digit rows; ``[..., i]`` is context symbol i."""
        return pi_values_bulk(m_rows, n_rows)

    def coeff_at(self, system, word, depth=CONTEXT_DEPTH):
        """Coefficient of one context word: the exact translate value of its
        first ``depth`` symbols, the midpoint of their cylinder."""
        return pi_tilde(word[:depth]).mid

    def digit_limit(self, system) -> float:
        return math.inf

    def alphabet(self, system, max_digit) -> tuple:
        """Symbols of the M-truncation; InvalidWord when M passes the digit limit."""
        M = check_max_digit(max_digit)
        limit = self.digit_limit(system)
        if M > limit:
            raise InvalidWord(
                f"truncation {M} exceeds the schedule's digit limit {limit}")
        return pair_alphabet(M)

    def moduli(self, system, max_digit):
        """Derivative modulus per symbol of the M-alphabet; None if it varies."""
        return None

    def image_disk(self, system, symbol, tail) -> Disk:
        word = (symbol,) + (tuple(tail) if tail
                            else (symbol,) * (CONTEXT_DEPTH - 1))
        p = self.coeff_at(system, word)
        return invert_disk(self._image_preimage(system.domain, p))

    def summability_threshold(self, system) -> float:
        """Exponent theta past which the depth-1 sum of sup|T'|^s converges.

        The maps of symbol (m, n) read translate values c in the unit square
        above p = m + ni.  The margin of ``one_step_sup`` bounds their
        denominators away from 0 on the domain, uniformly in the symbol, and
        the denominators grow like |c|.  So sup|T'| over the symbol lies
        between two constant multiples of |p|^-2: at c = p it is
        1 / (|p + conj(center)| - r)^2 for the conjugate family and
        2 zmax / (|center^2 + 2p| - r2)^2 for the square family.  The depth-1
        sum therefore converges exactly when sum |p|^(-2s) over m, n >= 1
        does, that is for s > 1; at s = 1 the symbols with |p| near k number
        about k and weigh about k^-2 each, and the sum diverges like the
        harmonic series.
        """
        return 1.0

    def validate(self, system):
        """Hard requirements on a constructed system (none by default)."""


class _InverseConjugate(FiberFamily):
    """T(w) = 1 / (conj(w) + c)."""

    def map(self, w, c):
        return 1.0 / (np.conj(w) + c)

    def derivative_mod(self, w, c):
        return 1.0 / abs(np.conj(w) + c) ** 2

    def _min_modulus(self, domain: Disk) -> float:
        # minimum of |conj(z) + c| over the domain and every translate value
        # c in [1, inf)^2: the distance from -conj(center) to that quadrant,
        # less the radius
        c = domain.center
        gap = math.hypot(max(0.0, 1.0 + c.real), max(0.0, 1.0 - c.imag))
        return gap - domain.radius

    def one_step_sup(self, domain, schedule):
        """1 / (least |conj(z) + c|)^2 over the domain and translate values.

        A positive margin ``_min_modulus`` bounds |conj(center) + c| - r, the
        preimage gap of every symbol's translate value c, from below, so no
        symbol's map meets its singularity on the domain.
        """
        m = self._min_modulus(domain)
        if m <= 0:
            raise ConfigError("domain touches the singular translate")
        return 1.0 / m ** 2

    def distortion(self, domain):
        return 2.0 / self._min_modulus(domain), 1.0

    def _image_preimage(self, domain, p):
        return Disk(domain.center.conjugate() + p, domain.radius)


class _InverseSquare(FiberFamily):
    """T(w) = 1 / (w^2 + 2c)."""

    def map(self, w, c):
        return 1.0 / (w * w + 2.0 * c)

    def derivative_mod(self, w, c):
        return 2.0 * abs(w) / abs(w * w + 2.0 * c) ** 2

    def _zmax(self, domain: Disk) -> float:
        return abs(domain.center) + domain.radius

    def one_step_sup(self, domain, schedule):
        """2 zmax / (2 sqrt(2) - zmax^2)^2 with zmax = |center| + r.

        Every translate value c has |c| >= sqrt(2), so the margin
        2 sqrt(2) - zmax^2 bounds |z^2 + 2c| from below on the domain: a
        positive margin keeps every symbol's preimage gap positive.
        """
        zmax = self._zmax(domain)
        m = 2.0 * abs(1 + 1j) - zmax ** 2
        if m <= 0:
            raise ConfigError("domain too large for the square family")
        return 2.0 * zmax / m ** 2

    def distortion(self, domain):
        # log-derivative gradient blows up near z = 0; record a grid-measured
        # bound over the domain instead of an analytic constant
        pts = _grid_points(domain, 900)
        pts = pts[np.abs(pts) > 1e-3]
        g = 1.0 / np.abs(pts) + 4.0 * np.abs(pts) / (2.0 * abs(1 + 1j) - np.abs(pts) ** 2)
        return float(np.max(g)), 1.0

    def _image_preimage(self, domain, p):
        # z^2 over the domain sits inside a disk around center^2
        r2 = 2.0 * abs(domain.center) * domain.radius + domain.radius ** 2
        return Disk(domain.center ** 2 + 2.0 * p, r2)


class _Similarity(FiberFamily):
    """T(w) = modulus * w + translation, both set by the first symbol."""

    center, radius = 0j, 1.0
    memory = 1
    uses_schedule = True

    def map(self, w, c):
        return c[0] * w + c[1]

    def derivative_mod(self, w, c):
        return c[0]

    def _tables(self, system, max_digit):
        """(modulus, translation) lookup arrays indexed [m, n] over the M-alphabet."""
        symbols = self.alphabet(system, max_digit)
        mod = np.zeros((max_digit + 1, max_digit + 1))
        tr = np.zeros_like(mod, dtype=complex)
        for sym in symbols:
            mod[sym], tr[sym] = self.coeff_at(system, (sym,))
        return mod, tr

    def coefficients(self, system, m_rows, n_rows):
        m, n = m_rows[..., 0], n_rows[..., 0]
        mod, tr = self._tables(system, int(max(m.max(), n.max())))
        return mod[m, n], tr[m, n]

    def coeff_at(self, system, word, depth=CONTEXT_DEPTH):
        """(modulus, translation) of the word's first symbol."""
        if not word:
            raise InvalidWord("pair word must be nonempty")
        symbol = check_pair_symbol(word[0])
        return system.schedule.modulus_of(symbol), system.schedule.translation_of(symbol)

    def digit_limit(self, system):
        return system.schedule.digit_limit

    def moduli(self, system, max_digit):
        return self._tables(system, max_digit)[0][1:, 1:].ravel()

    def one_step_sup(self, domain, schedule):
        return max(map(schedule.modulus_of, schedule.ratio_symbols()))

    def distortion(self, domain):
        return 0.0, 1.0

    def summability_threshold(self, system) -> float:
        """0 for the infinite geometric schedule, -inf for a finite one.

        The geometric sum of (inner * base^-(m+n))^s over m, n >= 1 is
        inner^s * (base^-s / (1 - base^-s))^2, finite exactly when s > 0; a
        finite schedule's sum has finitely many terms and converges at every s.
        """
        return 0.0 if system.schedule.digit_limit == math.inf else -math.inf

    def image_disk(self, system, symbol, tail) -> Disk:
        rc, t = self.coeff_at(system, (symbol,))
        return Disk(t + rc * system.domain.center, rc * system.domain.radius)

    def validate(self, system, probe_digit: int = 4):
        """Images of the domain must stay inside it, on every symbol.

        A finite schedule is checked symbol by symbol.  The infinite
        geometric kind is checked on the digits <= ``probe_digit``, and on
        every symbol with a larger digit through one bound: its translation
        lies in the square [-0.3, 0.3]^2 of ``translation_of`` and its
        modulus is at most base^-(probe_digit + 2) * inner_factor, so its
        image lies within the farthest corner of that square from the center
        c plus that modulus times |c| + r.
        """
        schedule = system.schedule
        limit = schedule.digit_limit
        mod, tr = self._tables(system, probe_digit if limit == math.inf else limit)
        c, r = system.domain.center, system.domain.radius
        escape = np.abs(tr + mod * c - c) + mod * r > r + 1e-12
        escape[0, :] = escape[:, 0] = False  # no symbol has digit 0
        if escape.any():
            sym = tuple(int(d) for d in np.argwhere(escape)[0])
            raise ConfigError(f"similarity image for symbol {sym} escapes the domain")
        if limit == math.inf:
            corner = max(abs(complex(x, y) - c)
                         for x in (-0.3, 0.3) for y in (-0.3, 0.3))
            reach = corner + (schedule.base ** -(probe_digit + 2)
                              * schedule.inner_factor * (abs(c) + r))
            if reach > r + 1e-12:
                raise ConfigError(
                    f"similarity images of symbols with a digit above {probe_digit} "
                    f"may reach {reach:.6g} from the center, past the radius {r:g}")


#: Variant name -> formula table.  A new family is one entry here.
FAMILIES = {
    "inverse_conjugate": _InverseConjugate(),
    "inverse_square": _InverseSquare(),
    "similarity": _Similarity(),
}


# ---------------------------------------------------------------------------
# system descriptor

@dataclass(frozen=True)
class SmaleSystem:
    """One fiber contraction family with certified constants.

    ``contraction`` is the certified uniform expansion factor of the inverse
    branches (> 1); ``distortion_bound``/``distortion_alpha`` parameterise the
    measured Hoelder bound for log-derivative oscillation.  Both are recorded
    diagnostics, not assumptions baked into formulas.
    """

    variant: str
    domain: Disk
    schedule: SimilaritySchedule | None
    contraction: float
    distortion_alpha: float
    distortion_bound: float

    def __post_init__(self):
        if self.variant not in FAMILIES:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.contraction <= 1.0:
            raise ConfigError("certified contraction factor must exceed 1")

    @property
    def family(self) -> FiberFamily:
        return FAMILIES[self.variant]


def _grid_points(disk: Disk, n: int) -> np.ndarray:
    """Deterministic point grid covering a disk (boundary included)."""
    side = int(math.sqrt(n))
    xs = np.linspace(-1.0, 1.0, side)
    gx, gy = np.meshgrid(xs, xs)
    pts = gx.ravel() + 1j * gy.ravel()
    pts = pts[np.abs(pts) <= 1.0]
    ring = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 64, endpoint=False))
    pts = np.concatenate([pts, ring])
    return disk.center + disk.radius * pts


def make_system(variant: str,
                schedule: SimilaritySchedule | None = None,
                center: complex | None = None,
                radius: float | None = None) -> SmaleSystem:
    """Construct a system with certified contraction and distortion bounds."""
    if variant not in FAMILIES:
        raise ConfigError(f"unknown variant {variant!r}")
    family = FAMILIES[variant]
    if family.uses_schedule:
        schedule = schedule or SimilaritySchedule()
    elif schedule is not None:
        raise ConfigError("ratio schedules only apply to similarity systems")
    domain = Disk(complex(center) if center is not None else family.center,
                  float(radius) if radius is not None else family.radius)
    sup = family.one_step_sup(domain, schedule)
    if sup >= 1.0:
        raise ConfigError(f"one-step derivative sup {sup} is not a contraction")
    H, alpha = family.distortion(domain)
    sys_ = SmaleSystem(variant=variant, domain=domain, schedule=schedule,
                       contraction=1.0 / sup, distortion_alpha=alpha,
                       distortion_bound=H)
    family.validate(sys_)
    return sys_


# ---------------------------------------------------------------------------
# fiber maps

def fiber_map(system: SmaleSystem, word, w: complex,
              depth: int = CONTEXT_DEPTH) -> complex:
    """Apply the time-zero fiber map of a context word to a domain point."""
    if not system.domain.contains(w, tol=ESCAPE_TOL):
        raise DomainEscape(f"argument {w} outside the fiber domain")
    family = system.family
    img = family.map(w, family.coeff_at(system, word, depth))
    if not system.domain.contains(img, tol=ESCAPE_TOL):
        raise DomainEscape(f"image {img} escaped the fiber domain")
    return img


def fiber_derivative_mod(system: SmaleSystem, word, w: complex,
                         depth: int = CONTEXT_DEPTH) -> float:
    """One-step derivative modulus of a context word's map at a domain point."""
    if not system.domain.contains(w, tol=ESCAPE_TOL):
        raise DomainEscape(f"argument {w} outside the fiber domain")
    family = system.family
    return family.derivative_mod(w, family.coeff_at(system, word, depth))


def pi2_hat(system: SmaleSystem, past, forward, depth: int = CONTEXT_DEPTH):
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


def image_disk(system: SmaleSystem, symbol, tail=None) -> Disk:
    """Disk enclosure of the depth-1 image for a first symbol and fixed tail.

    Exact for the reciprocal-of-conjugate and similarity families, a superset
    for the square family.  ``tail`` is the forward continuation used for the
    translate value (defaults to repeating the symbol).
    """
    return system.family.image_disk(system, check_pair_word([symbol])[0], tail)


# ---------------------------------------------------------------------------
# bulk evaluation (float fast path shared with the sampling layer)

def pi_values_bulk(m_digits: np.ndarray, n_digits: np.ndarray) -> np.ndarray:
    """Translate values for rows of pair digits, float continued fractions."""
    out = np.empty(m_digits.shape[:-1], dtype=complex)
    out.real = m_digits[..., 0] + cf_value_float(m_digits[..., 1:])
    out.imag = n_digits[..., 0] + cf_value_float(n_digits[..., 1:])
    return out


def row_blocks(count: int, steps: int):
    """Slices of ``count`` rows, each of at most ``COMPOSITION_BLOCK`` digit
    elements (rows times ``steps`` symbols per row) and at least one row."""
    rows = max(1, COMPOSITION_BLOCK // steps)
    return [slice(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def fiber_points_bulk(system: SmaleSystem,
                      past_m: np.ndarray, past_n: np.ndarray,
                      fwd_m: np.ndarray, fwd_n: np.ndarray,
                      ctx_depth: int = CONTEXT_DEPTH) -> np.ndarray:
    """Vectorised fiber points for batches of past/forward digit rows.

    This is the one bulk composition of fiber maps: point clouds and
    ``fiber_log_derivatives`` call it.
    ``past_m[:, j]`` is the first digit coordinate at time -(j+1).  Uses the
    float continued-fraction path: each level reads its translate value off
    ``ctx_depth`` symbols with a fixed tail, where ``pi2_hat`` takes the
    midpoint of the exact cylinder of the same symbols.  Both lie in that
    cylinder, whose sides are at most the coding error 2**(1 - ctx_depth);
    for maps 1-Lipschitz in the translate value the points therefore agree
    with ``pi2_hat`` to within
    sqrt(2) * 2**(1 - ctx_depth) * contraction / (contraction - 1).

    Rows run in ``row_blocks`` of depth plus the forward symbols a context
    reads, so deep pasts take fewer rows per block.  A block is one
    time-major two-sided digit array, the past reversed and then the forward
    symbols; one ``family.coefficients`` call on its ``ctx_depth``-wide
    sliding windows gives every level whose context is a whole window.  A
    level nearer time 0 than a short forward word allows reads a shorter
    context, as a slice would.
    """
    family = system.family
    count, depth = past_m.shape
    ahead = min(fwd_m.shape[1], ctx_depth - 1)  # forward symbols level 1 reads
    w = np.full(count, system.domain.center, dtype=complex)
    if depth == 0:
        return w
    for rows in row_blocks(count, depth + ahead):
        two_m, two_n = (np.concatenate([p[rows, ::-1].T, f[rows, :ahead].T])
                        for p, f in ((past_m, fwd_m), (past_n, fwd_n)))
        whole = max(0, len(two_m) - ctx_depth + 1)  # levels on whole windows
        if whole:
            coeff = family.coefficients(
                system, sliding_window_view(two_m, ctx_depth, axis=0),
                sliding_window_view(two_n, ctx_depth, axis=0))
        point = w[rows]
        for t in range(depth):  # the level depth - t acts at time t - depth
            c = (_level(coeff, t) if t < whole else
                 family.coefficients(system, two_m[t:].T, two_n[t:].T))
            point = family.map(point, c)
        w[rows] = point
    return w


def _level(coeff, t):
    """Entry t of a coefficient array, or of each array of a tuple."""
    return tuple(c[t] for c in coeff) if isinstance(coeff, tuple) else coeff[t]


def fiber_log_derivatives(system: SmaleSystem, past_m: np.ndarray,
                          past_n: np.ndarray, fwd_m: np.ndarray,
                          fwd_n: np.ndarray, ctx_depth: int) -> np.ndarray:
    """log|T'| of the time-zero map, reading the first ``ctx_depth`` forward
    symbols, at the ``fiber_points_bulk`` point of each row; DomainEscape
    for a point more than 1e-6 off the domain."""
    pts = fiber_points_bulk(system, past_m, past_n, fwd_m, fwd_n, ctx_depth)
    if (np.abs(pts - system.domain.center) > system.domain.radius + 1e-6).any():
        raise DomainEscape("fiber points left the domain")
    family = system.family
    return np.log(family.derivative_mod(pts, family.coefficients(
        system, fwd_m[:, :ctx_depth], fwd_n[:, :ctx_depth])))


# ---------------------------------------------------------------------------
# verification report

@dataclass(frozen=True)
class SystemReport:
    """Measured separation/contraction/distortion diagnostics."""

    variant: str
    max_digit: int
    osc_ok: bool
    min_image_gap: float
    lambda_hat: float
    derivative_band: tuple[float, float]
    distortion_H_hat: float
    distortion_alpha: float


def _osc_min_gap(system: SmaleSystem, symbols, tails) -> float:
    """Smallest pairwise separation of depth-1 images sharing a tail.

    Signed: zero means touching, negative means overlap.  Images over
    distinct first symbols with the same continuation are integer translates
    for the reciprocal families, so sharing the tail is the honest check.
    """
    worst = math.inf
    for tail in tails:
        disks = [image_disk(system, s, tail) for s in symbols]
        for i in range(len(disks)):
            for j in range(i + 1, len(disks)):
                gap = (abs(disks[i].center - disks[j].center)
                       - disks[i].radius - disks[j].radius)
                worst = min(worst, gap)
    return worst


def verify_system(system: SmaleSystem, max_digit: int,
                  samples: int = 4000, seed: int = 0) -> SystemReport:
    """Measure separation, contraction, and distortion on the truncation.

    Failures are reported in the flags, not raised: ``osc_ok`` admits
    touching boundaries (open images stay disjoint), ``lambda_hat`` is the
    reciprocal of the largest sampled one-step derivative, and the distortion
    constant is the steepest sampled Hoelder quotient of log-derivatives.
    A truncation past the family's digit limit raises ``InvalidWord``.
    """
    M = check_max_digit(max_digit)
    rng = np.random.default_rng(seed)
    family = system.family
    alphabet = family.alphabet(system, M)
    tail_len = CONTEXT_DEPTH - 1
    tails = [((1, 1),) * tail_len, ((M, M),) * tail_len,
             tuple(map(tuple, rng.integers(1, M + 1, size=(tail_len, 2))))]
    min_gap = _osc_min_gap(system, alphabet, tails)
    osc_ok = bool(min_gap >= -ESCAPE_TOL)

    # one-step derivative band over random symbols, tails, and domain points
    u = rng.random(samples) + 1j * rng.random(samples)
    pts = system.domain.center + system.domain.radius * (2 * u - (1 + 1j))
    pts = pts[np.abs(pts - system.domain.center) <= system.domain.radius]
    derivs = []
    for _ in range(6):
        sym = alphabet[rng.integers(len(alphabet))]
        tail = tuple(map(tuple, rng.integers(1, M + 1, size=(tail_len, 2))))
        c = family.coeff_at(system, (sym,) + tail)
        for w in pts[rng.integers(len(pts), size=24)]:
            derivs.append(family.derivative_mod(w, c))
    derivs = np.asarray(derivs)
    band = (float(derivs.min()), float(derivs.max()))
    lambda_hat = 1.0 / band[1]

    # measured Hoelder constant for log-derivative oscillation in the point
    alpha = system.distortion_alpha
    c = family.coeff_at(system, (alphabet[0],) + ((1, 1),) * tail_len)
    sel = pts[rng.integers(len(pts), size=min(200, len(pts)))]
    ld = np.array([math.log(family.derivative_mod(w, c)) for w in sel])
    d = np.abs(sel[None, :] - sel[:, None])
    far = d > 1e-9
    H_hat = np.max(np.abs(ld[None, :] - ld[:, None])[far] / d[far] ** alpha, initial=0.0)
    return SystemReport(variant=system.variant, max_digit=M, osc_ok=osc_ok,
                        min_image_gap=float(min_gap), lambda_hat=float(lambda_hat),
                        derivative_band=band, distortion_H_hat=float(H_hat),
                        distortion_alpha=alpha)
