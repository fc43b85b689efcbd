"""Fiber contraction families driven by two-sided pair-digit words.

Each system is one family acting on one closed disk, its domain: a
``SmaleSystem`` subclass per family, whose map at time zero is selected by
the forward word.  The two reciprocal families read the paired
continued-fraction value of the forward word, the similarity family only its
first symbol.  Composing maps along the past of a two-sided word pins the
fiber point.

Every coefficient comes from ``SmaleSystem.coefficients`` of digit rows,
float continued fractions with tail 0.5.  The cloud composition
``fiber_points_bulk``, the image disks and ``verify_system`` read
``CONTEXT_DEPTH`` symbols, ``thermo.realized_table`` its periodic words to
their limit; the scalar reference composition is in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InvalidWord
from .words import (cf_value_float, check_max_digit, check_pair_word,
                    pair_alphabet)

#: Overlap that ``verify_system`` still reads as touching images (``osc_ok``).
ESCAPE_TOL = 1e-10

#: Symbols of the context a fiber map reads its coefficient off, so a fiber
#: point reads CONTEXT_DEPTH - 1 forward symbols (the context at time -1).
CONTEXT_DEPTH = 12

#: Digit elements, rows times the symbols per row, that one row block of a
#: bulk evaluation holds at once (``row_blocks``): the clouds' composer
#: ``fiber_points_bulk`` and its caller ``empirics.sample_measure`` (depth +
#: forward symbols), and the phase windows of ``thermo.realized_table``.
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
    """Image under z -> 1/z of disks not containing 0, broadcast over arrays."""
    c, r = disk.center, disk.radius
    d = abs(c) ** 2 - r ** 2
    if np.any(d <= 0):
        raise ValueError("disk contains the origin, inversion image unbounded")
    return Disk(np.conj(c) / d, r / d)


# ---------------------------------------------------------------------------
# similarity ratio/translation schedules

#: Digits <= this of an infinite alphabet are checked one by one (``_probe``);
#: ``Similarity.validate`` bounds every larger geometric digit at once.
PROBE_DIGIT = 4

#: How far past the domain's radius ``SmaleSystem.validate`` lets an image reach.
FIT_TOL = 1e-12


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
        # the geometric ratios fall with m + n, so its probe holds the largest
        for r in self.maps(*_probe(self.digit_limit).T)[0] / self.inner_factor:
            if not (0.0 < r < 1.0 / 3.0):
                raise ConfigError(f"ratio {r:g} outside (0, 1/3)")

    @property
    def digit_limit(self) -> float:
        """Largest digit the schedule defines maps for."""
        if self.kind == "geometric":
            return math.inf
        if self.kind == "custom":
            return math.isqrt(len(self.table))
        return self.grid_digit

    def maps(self, m, n):
        """(modulus, translation) of the symbols (m, n), broadcast over digit
        arrays; the modulus is the ratio times ``inner_factor``.  Per-digit
        vectors up to the largest digit d asked for (a custom table: K x K)
        make one symbol cost O(d).  InvalidWord when d passes ``digit_limit``."""
        m, n = np.broadcast_arrays(m, n)
        d = int(max(m.max(), n.max()))
        if d > self.digit_limit:
            raise InvalidWord(f"truncation {d} exceeds the schedule's digit "
                              f"limit {self.digit_limit}")
        if self.kind == "custom":
            K = self.digit_limit
            ratio = np.zeros((K + 1, K + 1))
            tr = np.zeros_like(ratio, dtype=complex)
            for i, j, r, re, im in self.table:  # a digit may be a float: 2.0
                ratio[int(i), int(j)], tr[int(i), int(j)] = r, complex(re, im)
            return (ratio * self.inner_factor)[m, n], tr[m, n]
        k, f = np.arange(d + 1), self.inner_factor
        if self.kind == "geometric":
            powers = np.array([float(self.base) ** -j for j in range(2 * d + 1)])
            mod = np.take(powers * f, np.add(m, n, dtype=np.intp))
            # dyadic packing: gaps shrink like 2^-m while image radii shrink
            # like 2^-(m+n)-1, so neighbouring images never touch
            axis = 0.6 * (1.0 - np.ldexp(1.0, 1 - k)) - 0.3
        else:  # equal or two_ratio: the ratio set by m, centers on the grid
            by_m = (np.full(d + 1, self.ratio) if self.kind == "equal" else
                    np.where(k == 1, self.ratio_a, self.ratio_b))
            mod = np.take(by_m * f, m)
            G = self.grid_digit
            axis = (k - 1) * (1.0 / (G - 1)) - 0.5 if G > 1 else np.zeros(d + 1)
        tr = np.take(1j * axis, n)  # axis[m] + i axis[n]
        tr += np.take(axis, m)
        return mod, tr


def _probe(limit: float) -> np.ndarray:
    """(k, 2) array of every symbol up to a finite digit limit, else of the
    digits <= ``PROBE_DIGIT`` (an infinite alphabet)."""
    return np.array(pair_alphabet(PROBE_DIGIT if limit == math.inf else limit))


# ---------------------------------------------------------------------------
# systems: one fiber family acting on one domain

@dataclass(frozen=True)
class SmaleSystem:
    """One fiber family T, a subclass named in ``FAMILIES``, on one disk.

    The time-zero map reads a coefficient off the forward word: the complex
    translate value for the reciprocal families (the defaults here), the
    first symbol's (modulus, translation) for the similarity family.
    ``coefficients`` is the one place a coefficient is computed; ``map``,
    ``derivative_mod`` and ``image`` broadcast over points and coefficients.
    The certified constants are read off the domain, never passed in:
    ``contraction`` = 1 / ``one_step_sup`` (a domain where it is not above 1
    raises ConfigError) and ``distortion_bound`` = ``distortion``, the
    Lipschitz constant of log|T'| in the fiber point, inf if it has none.
    ``__eq__`` compares classes, which keeps cache keys of families apart.
    """

    domain: Disk
    contraction: float = field(init=False)
    distortion_bound: float = field(init=False)

    center, radius = 0.5 + 0j, 0.5  # default domain
    memory = 2  # default realization memory of log|T'|
    uses_schedule = False  # the family takes a SimilaritySchedule
    digit_limit = math.inf  # largest digit the maps are defined for

    def __post_init__(self):
        sup = self.one_step_sup()
        if sup >= 1.0:
            raise ConfigError(f"one-step derivative sup {sup} is not a contraction:"
                              " the certified contraction factor must exceed 1")
        object.__setattr__(self, "contraction", 1.0 / sup)
        object.__setattr__(self, "distortion_bound", self.distortion())

    def coefficients(self, m_rows, n_rows):
        """Coefficients of digit rows; ``[..., i]`` is context symbol i."""
        return pi_values_bulk(m_rows, n_rows)

    def moduli(self, max_digit):
        """Derivative modulus per symbol of the M-alphabet; None if it varies."""
        return None

    def image(self, c) -> Disk:
        """Image disk of the domain under the maps of coefficients c."""
        return invert_disk(self._image_preimage(c))

    def summability_threshold(self) -> float:
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

    def validate(self):
        """Images of the ``_probe`` symbols, each read with its repeated-symbol
        tail as ``image_disk`` reads it, must stay inside the domain.

        A probe, not a certificate: other symbols and tails go unchecked, so
        ``thermo.realized_table`` keeps its ``DomainEscape`` check; and the
        square family's ``image`` is an enclosure, so, as ``one_step_sup``
        can, the check can reject a domain whose images do fit.
        """
        symbols = _probe(self.digit_limit)
        disk = _images(self, symbols,
                       np.repeat(symbols[:, None], CONTEXT_DEPTH - 1, axis=1))
        c, r = self.domain.center, self.domain.radius
        escape = np.abs(disk.center - c) + disk.radius > r + FIT_TOL
        if escape.any():
            m, n = map(int, symbols[np.argmax(escape)])
            raise ConfigError(f"image for symbol ({m}, {n}) escapes the domain")


class InverseConjugate(SmaleSystem):
    """T(w) = 1 / (conj(w) + c)."""

    variant = "inverse_conjugate"

    def map(self, w, c):
        return 1.0 / (np.conj(w) + c)

    def derivative_mod(self, w, c):
        return 1.0 / abs(np.conj(w) + c) ** 2

    def _min_modulus(self) -> float:
        # minimum of |conj(z) + c| over the domain and every translate value
        # c in [1, inf)^2: the distance from -conj(center) to that quadrant,
        # less the radius
        c = self.domain.center
        gap = math.hypot(max(0.0, 1.0 + c.real), max(0.0, 1.0 - c.imag))
        return gap - self.domain.radius

    def one_step_sup(self):
        """1 / (least |conj(z) + c|)^2 over the domain and translate values.

        A positive margin ``_min_modulus`` bounds |conj(center) + c| - r, the
        preimage gap of every symbol's translate value c, from below, so no
        symbol's map meets its singularity on the domain.
        """
        m = self._min_modulus()
        if m <= 0:
            raise ConfigError("domain touches the singular translate")
        return 1.0 / m ** 2

    def distortion(self):
        return 2.0 / self._min_modulus()

    def _image_preimage(self, p):
        return Disk(self.domain.center.conjugate() + p, self.domain.radius)


class InverseSquare(SmaleSystem):
    """T(w) = 1 / (w^2 + 2c)."""

    variant = "inverse_square"

    def map(self, w, c):
        return 1.0 / (w * w + 2.0 * c)

    def derivative_mod(self, w, c):
        return 2.0 * abs(w) / abs(w * w + 2.0 * c) ** 2

    def one_step_sup(self):
        """2 zmax / (2 sqrt(2) - zmax^2)^2 with zmax = |center| + r.

        Every translate value c has |c| >= sqrt(2), so the margin
        2 sqrt(2) - zmax^2 bounds |z^2 + 2c| from below on the domain: a
        positive margin keeps every symbol's preimage gap positive.
        """
        zmax = abs(self.domain.center) + self.domain.radius
        m = 2.0 * abs(1 + 1j) - zmax ** 2
        if m <= 0:
            raise ConfigError("domain too large for the square family")
        return 2.0 * zmax / m ** 2

    def distortion(self):
        # |grad log|T'|| = |1/w - 4w / (w^2 + 2c)| <= g(|w|) = 1/|w| + 4|w| /
        # (2 sqrt(2) - |w|^2), as in ``one_step_sup``; g is convex, so its max
        # over [|center| - r, zmax] sits at an end; none if the domain holds 0
        c, r = abs(self.domain.center), self.domain.radius
        return math.inf if c <= r else max(
            1.0 / x + 4.0 * x / (2.0 * abs(1 + 1j) - x * x) for x in (c - r, c + r))

    def _image_preimage(self, p):
        # z^2 over the domain sits inside a disk around center^2
        c, r = self.domain.center, self.domain.radius
        return Disk(c ** 2 + 2.0 * p, 2.0 * abs(c) * r + r ** 2)


@dataclass(frozen=True)
class Similarity(SmaleSystem):
    """T(w) = modulus * w + translation, both set by the first symbol."""

    schedule: SimilaritySchedule

    variant = "similarity"
    center, radius = 0j, 1.0
    memory = 1
    uses_schedule = True

    @property
    def digit_limit(self) -> float:
        return self.schedule.digit_limit

    def map(self, w, c):
        return c[0] * w + c[1]

    def derivative_mod(self, w, c):
        return np.broadcast_to(c[0], np.broadcast(w, c[0]).shape)

    def coefficients(self, m_rows, n_rows):
        return self.schedule.maps(m_rows[..., 0], n_rows[..., 0])

    def moduli(self, max_digit):
        return self.schedule.maps(*np.array(pair_alphabet(max_digit)).T)[0]

    def image(self, c):
        return Disk(c[1] + c[0] * self.domain.center, c[0] * self.domain.radius)

    def one_step_sup(self):
        return float(self.schedule.maps(*_probe(self.digit_limit).T)[0].max())

    def distortion(self):
        return 0.0

    def summability_threshold(self) -> float:
        """0 for the infinite geometric schedule, -inf for a finite one.

        The geometric sum of (inner * base^-(m+n))^s over m, n >= 1 is
        inner^s * (base^-s / (1 - base^-s))^2, finite exactly when s > 0; a
        finite schedule's sum has finitely many terms and converges at every s.
        """
        return 0.0 if self.digit_limit == math.inf else -math.inf

    def validate(self):
        """The base probe, and one bound for the geometric kind's symbols
        with a digit above ``PROBE_DIGIT``: each translation lies in the
        square [-0.3, 0.3]^2 of the dyadic packing and each modulus is at most
        that of (1, PROBE_DIGIT + 1), so each image lies within the farthest
        corner of that square from the center c plus that modulus times
        |c| + r."""
        super().validate()
        if self.digit_limit == math.inf:
            c, r = self.domain.center, self.domain.radius
            corner = max(abs(complex(x, y) - c)
                         for x in (-0.3, 0.3) for y in (-0.3, 0.3))
            bound = self.schedule.maps(1, PROBE_DIGIT + 1)[0]
            reach = corner + bound * (abs(c) + r)
            if reach > r + FIT_TOL:
                raise ConfigError(
                    f"similarity images of symbols with a digit above {PROBE_DIGIT} "
                    f"may reach {reach:.6g} from the center, past the radius {r:g}")


#: Variant name -> system class.  A new family is one subclass here.
FAMILIES = {cls.variant: cls for cls in (InverseConjugate, InverseSquare, Similarity)}


def make_system(variant: str,
                schedule: SimilaritySchedule | None = None,
                center: complex | None = None,
                radius: float | None = None) -> SmaleSystem:
    """The named family on its default domain, or on the given center and
    radius, with its images probed (``validate``)."""
    if variant not in FAMILIES:
        raise ConfigError(f"unknown variant {variant!r}")
    cls = FAMILIES[variant]
    if schedule is not None and not cls.uses_schedule:
        raise ConfigError("ratio schedules only apply to similarity systems")
    domain = Disk(complex(center) if center is not None else cls.center,
                  float(radius) if radius is not None else cls.radius)
    system = (cls(domain, schedule or SimilaritySchedule()) if cls.uses_schedule
              else cls(domain))
    system.validate()
    return system


# ---------------------------------------------------------------------------
# image disks

def image_disk(system: SmaleSystem, symbol, tail=None) -> Disk:
    """Disk enclosure of the depth-1 image for a first symbol and fixed tail.

    Exact for the reciprocal-of-conjugate and similarity families, a superset
    for the square family.  ``tail`` is the forward continuation used for the
    translate value (None repeats the symbol, an empty tail reads the
    symbol alone); the map reads the coefficient of the first
    ``CONTEXT_DEPTH`` symbols of symbol + tail.
    """
    tail = [symbol] * (CONTEXT_DEPTH - 1) if tail is None else tail
    word = np.array(check_pair_word([symbol, *tail]), dtype=np.int64)
    disk = _images(system, word[0], word[1:])
    return Disk(complex(disk.center), float(disk.radius))


def _images(system: SmaleSystem, symbols, tails) -> Disk:
    """Image disks of the domain under the maps of first symbols (..., 2),
    each reading the coefficient of the first ``CONTEXT_DEPTH`` symbols of
    symbol + tail, with one tail (t, 2) shared or one per symbol (..., t, 2).
    """
    symbols = np.asarray(symbols, dtype=np.int64)[..., None, :]
    tails = np.broadcast_to(tails, symbols.shape[:-2] + np.shape(tails)[-2:])
    words = np.concatenate([symbols, tails], axis=-2)[..., :CONTEXT_DEPTH, :]
    return system.image(system.coefficients(words[..., 0], words[..., 1]))


# ---------------------------------------------------------------------------
# bulk evaluation (float fast path shared with the sampling layer)

def pi_values_bulk(m_digits: np.ndarray, n_digits: np.ndarray) -> np.ndarray:
    """Translate values of pair-digit rows: continued fractions, tail 0.5."""
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
                      fwd_m: np.ndarray, fwd_n: np.ndarray) -> np.ndarray:
    """Vectorised fiber points for batches of past/forward digit rows.

    It composes the points of clouds, whose forward words are random.
    ``past_m[:, j]`` is the first digit coordinate at time -(j+1).  Uses the
    float continued-fraction path: each level reads its translate value off
    ``CONTEXT_DEPTH`` symbols with a fixed tail, where the scalar reference
    composition of ``tests/oracles.py`` takes the midpoint of the exact
    cylinder of the same symbols.  Both lie in that cylinder, whose sides
    are at most the coding error e = 2**(1 - CONTEXT_DEPTH); for maps
    1-Lipschitz in the translate value the points therefore agree with the
    reference to within sqrt(2) * e * contraction / (contraction - 1).
    Rows of fewer than CONTEXT_DEPTH - 1 forward symbols raise InvalidWord.

    Rows run in ``row_blocks`` of depth plus the forward symbols a context
    reads, so deep pasts take fewer rows per block.  A block is one
    time-major two-sided digit array, the past reversed and then the forward
    symbols; one ``coefficients`` call on its ``CONTEXT_DEPTH``-wide
    sliding windows gives every level.
    """
    ahead = CONTEXT_DEPTH - 1  # forward symbols level 1 reads
    if fwd_m.shape[1] < ahead:
        raise InvalidWord(f"a fiber point reads {ahead} forward symbols, "
                          f"got {fwd_m.shape[1]}")
    count, depth = past_m.shape
    w = np.full(count, system.domain.center, dtype=complex)
    if depth == 0:
        return w
    for rows in row_blocks(count, depth + ahead):
        two_m, two_n = (np.concatenate([p[rows, ::-1].T, f[rows, :ahead].T])
                        for p, f in ((past_m, fwd_m), (past_n, fwd_n)))
        coeff = system.coefficients(
            sliding_window_view(two_m, CONTEXT_DEPTH, axis=0),
            sliding_window_view(two_n, CONTEXT_DEPTH, axis=0))
        point = w[rows]
        for t in range(depth):  # the level depth - t acts at time t - depth
            point = system.map(point, _level(coeff, t))
        w[rows] = point
    return w


def _level(coeff, t):
    """Entry t of a coefficient array, or of each array of a tuple."""
    return tuple(c[t] for c in coeff) if isinstance(coeff, tuple) else coeff[t]


# ---------------------------------------------------------------------------
# verification report

@dataclass(frozen=True)
class SystemReport:
    """Separation and sampled derivative diagnostics, with certified constants."""

    variant: str
    max_digit: int
    osc_ok: bool
    min_image_gap: float
    derivative_band: tuple[float, float]
    distortion_H_hat: float
    contraction: float
    distortion_bound: float


def _osc_min_gap(system: SmaleSystem, symbols, tails) -> float:
    """Smallest pairwise separation of depth-1 images sharing a tail.

    Signed: zero means touching, negative means overlap.  Images over
    distinct first symbols with the same continuation are integer translates
    for the reciprocal families, so sharing the tail is the honest check.
    One ``image`` call per tail gives every symbol's disk; comparing one
    symbol with the later ones at a time keeps memory linear in the alphabet.
    """
    worst = math.inf
    for tail in tails:
        disk = _images(system, symbols, tail)
        c, r = disk.center, disk.radius
        for i in range(len(symbols) - 1):
            worst = min(worst, (np.abs(c[i] - c[i + 1:]) - r[i] - r[i + 1:]).min())
    return worst


def verify_system(system: SmaleSystem, max_digit: int,
                  samples: int = 4000, seed: int = 0) -> SystemReport:
    """Measure separation and the one-step derivative on the truncation.

    Failures are reported in the flags, not raised: ``osc_ok`` admits
    touching boundaries (open images stay disjoint), ``derivative_band`` is
    the range of sampled one-step derivatives, and ``distortion_H_hat`` the
    steepest sampled Lipschitz quotient of log-derivatives.  Every map reads
    its coefficient off the system's ``coefficients``.  A truncation past
    its ``digit_limit`` raises ``InvalidWord``.
    """
    M = check_max_digit(max_digit)
    rng = np.random.default_rng(seed)
    alphabet = np.array(pair_alphabet(M))
    tail_len = CONTEXT_DEPTH - 1
    tails = [np.ones((tail_len, 2), dtype=np.int64),
             np.full((tail_len, 2), M), rng.integers(1, M + 1, size=(tail_len, 2))]
    min_gap = _osc_min_gap(system, alphabet, tails)
    osc_ok = bool(min_gap >= -ESCAPE_TOL)

    # one-step derivative band over random symbols, tails, and domain points
    u = rng.random(samples) + 1j * rng.random(samples)
    pts = system.domain.center + system.domain.radius * (2 * u - (1 + 1j))
    pts = pts[np.abs(pts - system.domain.center) <= system.domain.radius]
    words = np.empty((6, CONTEXT_DEPTH, 2), dtype=np.int64)
    ws = np.empty((24, 6), dtype=complex)  # column k: the points of draw k
    for k in range(6):
        words[k, 0] = alphabet[rng.integers(len(alphabet))]
        words[k, 1:] = rng.integers(1, M + 1, size=(tail_len, 2))
        ws[:, k] = pts[rng.integers(len(pts), size=24)]
    derivs = system.derivative_mod(
        ws, system.coefficients(words[..., 0], words[..., 1]))
    band = (float(derivs.min()), float(derivs.max()))

    # measured Lipschitz constant of log-derivatives in the point
    ones = np.ones(CONTEXT_DEPTH, dtype=np.int64)  # the context of (1, 1) repeated
    c = system.coefficients(ones, ones)
    sel = pts[rng.integers(len(pts), size=min(200, len(pts)))]
    ld = np.log(system.derivative_mod(sel, c))
    d = np.abs(sel[None, :] - sel[:, None])
    far = d > 1e-9
    H_hat = np.max(np.abs(ld[None, :] - ld[:, None])[far] / d[far], initial=0.0)
    return SystemReport(variant=system.variant, max_digit=M, osc_ok=osc_ok,
                        min_image_gap=float(min_gap), derivative_band=band,
                        distortion_H_hat=float(H_hat),
                        contraction=system.contraction,
                        distortion_bound=system.distortion_bound)
