"""Fiber contraction families driven by two-sided pair-digit words.

Each system contracts a closed disk in the plane, with the map at time zero
selected by the forward word: the two reciprocal families read the paired
continued-fraction value of the forward word, the similarity family only its
first symbol.  Composing maps along the past of a two-sided word pins the
fiber point; ``pi2_hat`` performs that composition with an explicit error
bound from the certified contraction factor.

Word-dependent quantities are always evaluated at the midpoint of the exact
cylinder enclosure truncated at the context depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainEscape, InvalidWord
from .words import Box, cf_value_float, check_max_digit, check_pair_word, pair_alphabet, pi_tilde

#: Tolerance for the image-containment check of fiber maps.
ESCAPE_TOL = 1e-10

#: Default number of forward symbols a word-dependent quantity reads.
CONTEXT_DEPTH = 12


# ---------------------------------------------------------------------------
# geometry helpers

@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius + tol

    def contains_disk(self, other: "Disk", tol: float = 0.0) -> bool:
        return abs(other.center - self.center) + other.radius <= self.radius + tol

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
      * ``custom``: explicit (symbol, ratio, translation) table.

    Ratios must stay in (0, 1/3).
    """

    kind: str = "geometric"
    base: float = 2.0
    ratio: float = 0.125
    ratio_a: float = 0.125
    ratio_b: float = 0.0625
    grid_digit: int = 2
    inner_factor: float = 0.5
    table: tuple = ()  # custom: ((m, n, ratio, re, im), ...)

    def __post_init__(self):
        if self.kind not in ("geometric", "equal", "two_ratio", "custom"):
            raise ConfigError(f"unknown similarity schedule kind {self.kind!r}")
        if not (0.0 < self.inner_factor <= 0.5):
            raise ConfigError("inner factor must lie in (0, 1/2]")
        for r in map(self.ratio_of, self.ratio_symbols()):
            if not (0.0 < r < 1.0 / 3.0):
                raise ConfigError(f"ratio {r} outside (0, 1/3)")

    def ratio_symbols(self):
        """Symbols that carry every ratio the schedule uses."""
        if self.kind == "custom":
            return [row[:2] for row in self.table]
        return pair_alphabet(2)

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
            return max((row[0] for row in self.table), default=1)
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
    reads_tail = True  # the coefficient reads past the first symbol
    uses_schedule = False  # the family takes a SimilaritySchedule

    def coefficients(self, system, m_rows, n_rows):
        """Coefficients of digit rows; ``[..., i]`` is context symbol i."""
        return pi_values_bulk(m_rows, n_rows)

    def coeff_at(self, system, pi_value, symbol):
        """Coefficient of one context given its translate value and first symbol."""
        return pi_value

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
        p = FiberWordContext(word).pi_value
        return invert_disk(self._image_preimage(system.domain, p))

    def _preimage_gap(self, system, m, n):
        """Least modulus |c| - r of the map's denominator over the domain, per symbol.

        The map of symbol (m, n) inverts the preimage disk of translate
        m + ni; the per-symbol derivative sup follows from this distance.
        """
        disk = self._image_preimage(system.domain, m + 1j * n)
        gap = np.hypot(disk.center.real, disk.center.imag) - disk.radius
        if np.any(gap <= 0):
            raise ConfigError("a symbol's preimage disk reaches the singularity")
        return gap

    def validate(self, system):
        """Hard requirements on a constructed system (none by default)."""


class _InverseConjugate(FiberFamily):
    """T(w) = 1 / (conj(w) + c)."""

    def map(self, w, c):
        return 1.0 / (np.conj(w) + c)

    def derivative_mod(self, w, c):
        return 1.0 / abs(np.conj(w) + c) ** 2

    def _min_modulus(self, domain: Disk) -> float:
        # minimum of |conj(z) + p| over the domain and p in [1, inf)^2, which
        # sits at p = 1 + 1i
        return abs(domain.center.conjugate() + (1 + 1j)) - domain.radius

    def one_step_sup(self, domain, schedule):
        m = self._min_modulus(domain)
        if m <= 0:
            raise ConfigError("domain touches the singular translate")
        return 1.0 / m ** 2

    def distortion(self, domain):
        return 2.0 / self._min_modulus(domain), 1.0

    def symbol_sup(self, system, m, n):
        return 1.0 / self._preimage_gap(system, m, n) ** 2

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

    def symbol_sup(self, system, m, n):
        return 2.0 * self._zmax(system.domain) / self._preimage_gap(system, m, n) ** 2

    def _image_preimage(self, domain, p):
        # z^2 over the domain sits inside a disk around center^2
        r2 = 2.0 * abs(domain.center) * domain.radius + domain.radius ** 2
        return Disk(domain.center ** 2 + 2.0 * p, r2)


class _Similarity(FiberFamily):
    """T(w) = modulus * w + translation, both set by the first symbol."""

    center, radius = 0j, 1.0
    memory = 1
    reads_tail = False
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
            mod[sym], tr[sym] = self.coeff_at(system, None, sym)
        return mod, tr

    def coefficients(self, system, m_rows, n_rows):
        m, n = m_rows[..., 0], n_rows[..., 0]
        mod, tr = self._tables(system, int(max(m.max(), n.max())))
        return mod[m, n], tr[m, n]

    def coeff_at(self, system, pi_value, symbol):
        return system.schedule.modulus_of(symbol), system.schedule.translation_of(symbol)

    def digit_limit(self, system):
        return system.schedule.digit_limit

    def moduli(self, system, max_digit):
        return self._tables(system, max_digit)[0][1:, 1:].ravel()

    def one_step_sup(self, domain, schedule):
        return max(map(schedule.modulus_of, schedule.ratio_symbols()))

    def distortion(self, domain):
        return 0.0, 1.0

    def symbol_sup(self, system, m, n):
        return self._tables(system, int(max(m.max(), n.max())))[0][m, n]

    def image_disk(self, system, symbol, tail) -> Disk:
        rc, t = self.coeff_at(system, None, symbol)
        return Disk(t + rc * system.domain.center, rc * system.domain.radius)

    def validate(self, system, probe_digit: int = 4):
        """Images of the domain must stay inside the domain."""
        for sym in pair_alphabet(min(probe_digit, system.schedule.digit_limit)):
            if not system.domain.contains_disk(self.image_disk(system, sym, None),
                                               tol=1e-12):
                raise ConfigError(f"similarity image for symbol {sym} escapes the domain")


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
# word contexts

@dataclass(frozen=True)
class FiberWordContext:
    """Forward word plus the depth at which its enclosure is evaluated."""

    forward_word: tuple
    enclosure_depth: int = CONTEXT_DEPTH

    def __post_init__(self):
        word = check_pair_word(self.forward_word)
        if not word:
            raise InvalidWord("forward word must be nonempty")
        object.__setattr__(self, "forward_word", word)
        depth = min(int(self.enclosure_depth), len(word))
        if depth < 1:
            raise InvalidWord("enclosure depth must be >= 1")
        object.__setattr__(self, "enclosure_depth", depth)

    @property
    def first_symbol(self):
        return self.forward_word[0]

    def enclosure(self) -> Box:
        return _pi_tilde_cached(self.forward_word[: self.enclosure_depth])

    @property
    def pi_value(self) -> complex:
        return self.enclosure().mid


@lru_cache(maxsize=200_000)
def _pi_tilde_cached(word) -> Box:
    return pi_tilde(word)


@dataclass(frozen=True)
class PastWord:
    """Finite past of a two-sided word, most recent symbol first.

    ``symbols[j - 1]`` is the symbol at time -j.  The forward word supplies
    the continuation every level's context needs; contexts are rebuilt by
    slicing the concatenated two-sided word.
    """

    symbols: tuple
    forward: tuple
    enclosure_depth: int = CONTEXT_DEPTH

    def __post_init__(self):
        object.__setattr__(self, "symbols", check_pair_word(self.symbols))
        object.__setattr__(self, "forward", check_pair_word(self.forward))
        if not self.forward:
            raise InvalidWord("a forward word is required to build contexts")

    def __len__(self):
        return len(self.symbols)

    @classmethod
    def constant(cls, symbol, depth: int,
                 enclosure_depth: int = CONTEXT_DEPTH) -> "PastWord":
        sym = check_pair_word([symbol])[0]
        return cls(symbols=(sym,) * depth,
                   forward=(sym,) * max(enclosure_depth, 1),
                   enclosure_depth=enclosure_depth)

    def context(self, level: int) -> FiberWordContext:
        """Context of the map applied at time -level (1 <= level <= len)."""
        if not (1 <= level <= len(self.symbols)):
            raise InvalidWord(f"level {level} outside 1..{len(self.symbols)}")
        word = tuple(self.symbols[level - 1 :: -1][: level]) + self.forward
        return FiberWordContext(word, self.enclosure_depth)


# ---------------------------------------------------------------------------
# fiber maps

def fiber_map_at(system: SmaleSystem, pi_value: complex, w: complex,
                 symbol=None) -> complex:
    """Formula layer: apply the time-zero map given the translate value.

    Similarity systems ignore ``pi_value`` and need ``symbol`` instead.
    """
    family = system.family
    return family.map(w, family.coeff_at(system, pi_value, symbol))


def fiber_derivative_mod_at(system: SmaleSystem, pi_value: complex, w: complex,
                            symbol=None) -> float:
    """Formula layer: one-step derivative modulus of the time-zero map."""
    family = system.family
    return family.derivative_mod(w, family.coeff_at(system, pi_value, symbol))


def fiber_map(system: SmaleSystem, ctx: FiberWordContext, w: complex) -> complex:
    """Apply the time-zero fiber map of the word in ``ctx`` to a domain point."""
    if not system.domain.contains(w, tol=ESCAPE_TOL):
        raise DomainEscape(f"argument {w} outside the fiber domain")
    img = fiber_map_at(system, ctx.pi_value, w, ctx.first_symbol)
    if not system.domain.contains(img, tol=ESCAPE_TOL):
        raise DomainEscape(f"image {img} escaped the fiber domain")
    return img


def fiber_derivative_mod(system: SmaleSystem, ctx: FiberWordContext,
                         w: complex) -> float:
    """One-step derivative modulus at a domain point."""
    if not system.domain.contains(w, tol=ESCAPE_TOL):
        raise DomainEscape(f"argument {w} outside the fiber domain")
    return fiber_derivative_mod_at(system, ctx.pi_value, w, ctx.first_symbol)


def pi2_hat(system: SmaleSystem, past: PastWord):
    """Fiber point selected by a finite past, with its contraction error bound.

    Composes the maps indexed by the past from the deepest level inward,
    starting at the domain center.  The result lies within
    contraction^-depth * diam(domain) of the true limit point; that bound is
    returned alongside the point.
    """
    w = system.domain.center
    n = len(past)
    for level in range(n, 0, -1):
        w = fiber_map(system, past.context(level), w)
    err = system.contraction ** (-n) * system.domain.diameter
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
    re = m_digits[..., 0] + cf_value_float(m_digits[..., 1:])
    im = n_digits[..., 0] + cf_value_float(n_digits[..., 1:])
    return re + 1j * im


def fiber_points_bulk(system: SmaleSystem,
                      past_m: np.ndarray, past_n: np.ndarray,
                      fwd_m: np.ndarray, fwd_n: np.ndarray,
                      ctx_depth: int = CONTEXT_DEPTH) -> np.ndarray:
    """Vectorised fiber points for batches of past/forward digit rows.

    ``past_m[:, j]`` is the first digit coordinate at time -(j+1).  Uses the
    float continued-fraction path: each level reads its translate value off
    ``ctx_depth`` symbols with a fixed tail, where ``pi2_hat`` takes the
    midpoint of the exact cylinder of the same symbols.  Both lie in that
    cylinder, whose sides are at most the coding error 2**(1 - ctx_depth);
    for maps 1-Lipschitz in the translate value the points therefore agree
    with ``pi2_hat`` to within
    sqrt(2) * 2**(1 - ctx_depth) * contraction / (contraction - 1).
    """
    family = system.family
    width = ctx_depth if family.reads_tail else 1
    w = np.full(past_m.shape[0], system.domain.center, dtype=complex)
    for level in range(past_m.shape[1], 0, -1):
        coeff = family.coefficients(system,
                                    _context_rows(past_m, fwd_m, level, width),
                                    _context_rows(past_n, fwd_n, level, width))
        w = family.map(w, coeff)
    return w


def _context_rows(past: np.ndarray, fwd: np.ndarray, level: int,
                  width: int) -> np.ndarray:
    """``width`` digits of each two-sided row from time -level on; a view
    into ``past`` unless the window reaches time 0."""
    rows = past[:, level - 1::-1][:, :width]
    if rows.shape[1] < width:
        rows = np.concatenate([rows, fwd[:, :width - rows.shape[1]]], axis=1)
    return rows


def sample_fiber_limit_set(system: SmaleSystem, forward, max_digit: int,
                           depth: int, count: int, seed: int) -> np.ndarray:
    """Points of the fiber limit set over a forward word, one per random past.

    Pasts are drawn uniformly over symbols with digits <= max_digit; each
    returned point is within contraction^-depth * diam of the limit set.
    """
    fwd = check_pair_word(forward)
    if not fwd:
        raise InvalidWord("forward word must be nonempty")
    M = check_max_digit(max_digit)
    rng = np.random.default_rng(seed)
    past_m = rng.integers(1, M + 1, size=(count, depth))
    past_n = rng.integers(1, M + 1, size=(count, depth))
    fwd_m = np.tile([s[0] for s in fwd], (count, 1))
    fwd_n = np.tile([s[1] for s in fwd], (count, 1))
    return fiber_points_bulk(system, past_m, past_n, fwd_m, fwd_n)


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
    for tail in tails if system.family.reads_tail else tails[:1]:
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
    alphabet = system.family.alphabet(system, M)
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
        ctx = FiberWordContext((sym,) + tail)
        for w in pts[rng.integers(len(pts), size=24)]:
            derivs.append(fiber_derivative_mod(system, ctx, w))
    derivs = np.asarray(derivs)
    band = (float(derivs.min()), float(derivs.max()))
    lambda_hat = 1.0 / band[1]

    # measured Hoelder constant for log-derivative oscillation in the point
    alpha = system.distortion_alpha
    ctx = FiberWordContext((alphabet[0],) + ((1, 1),) * tail_len)
    sel = pts[rng.integers(len(pts), size=min(200, len(pts)))]
    ld = np.array([math.log(fiber_derivative_mod(system, ctx, w)) for w in sel])
    d = np.abs(sel[None, :] - sel[:, None])
    far = d > 1e-9
    H_hat = np.max(np.abs(ld[None, :] - ld[:, None])[far] / d[far] ** alpha, initial=0.0)
    return SystemReport(variant=system.variant, max_digit=M, osc_ok=osc_ok,
                        min_image_gap=float(min_gap), lambda_hat=float(lambda_hat),
                        derivative_band=band, distortion_H_hat=float(H_hat),
                        distortion_alpha=alpha)
