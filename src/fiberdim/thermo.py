"""Gibbs states, pressure, entropies, and Lyapunov exponents on truncations.

Potentials depend on finitely many forward symbols (memory k).  The Gibbs
state of such a potential on the M-truncated shift is the stationary Markov
chain built from Perron eigendata of the weighted transition operator over
k-word states; its pressure is the log Perron root.  That operator is a de
Bruijn graph: each k-word has at most A = M^2 successors and every edge
weight depends on the source only, so the Perron vectors come from power
iteration at O(A^k) per step.  The forward step law of a k-word then
depends only on its last k-1 symbols and the reversed law only on its first
k-1, so the chain is (h, nu, rho) stored as two (A^(k-1), A) slot tables,
never as an n x n matrix.
An independent pressure route sums exp(sup S_n psi) over depth-n cylinders,
with the sup computed exactly for finite-memory potentials.  Because that
sup reads only each cylinder's last L-1 symbols, one dynamic-programming
sweep over L-word codes (max-plus for the boundary, log-sum-exp forward)
gives every depth at O(depth * A^L) cost without enumerating words; it uses
finite path sums of the table only, no eigenvector and no Perron iterate.

Each potential realizes itself as log-weights on L-word codes (its
``word_length`` and ``realize``).  A table, a constant one included, is
exact.  Geometric potentials (s * log of the fiber derivative modulus) have
unbounded memory through the fiber point; they are realized as memory-k
tables by evaluating the derivative at the limit point of the periodic
extension of each k-word.  The Lipschitz tail bound for that truncation is
reported as ``potential_error``, never silently absorbed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DegenerateExponent,
    DomainEscape,
    EnumerationCapExceeded,
    InvalidWord,
    NonPrimitive,
    PerronNotConverged,
    SummabilityFailure,
)

from .moments import lyapunov_marginal_exact
from .systems import SmaleSystem, row_blocks
from .words import (ENUMERATION_CAP, check_max_digit, check_pair_word,
                    is_integer)

#: Cap on the number of k-word states of the transfer matrix.
STATE_CAP = 4096

#: Relative contraction target for limit-point composition depths.
POINT_TOL = 1e-13

#: Symbols of the periodic word a ``realized_table`` phase coefficient reads:
#: n digits with tail 0.5 lie within 1/q_n^2 <= 5 phi^(-2n) of the limit
#: (q_n >= phi^n / sqrt(5), all 1s being slowest), under 2^-52, one double
#: spacing of a value >= 1, for n > (log 5 + 52 log 2) / (2 log phi) = 39.1.
PERIODIC_WINDOW = 40

#: Draws per chunk of one chain step: its intp rows and slots and float64
#: uniforms, 64 KB each (the uint8 codes it stores take 8 KB), stay in cache
#: and under the allocator's mmap threshold, so a step allocates no fresh pages.
#: The draw's consumers read its codes in ``systems.row_blocks`` of at most
#: ``COMPOSITION_BLOCK`` digit elements.
DRAW_CHUNK = 1 << 13

#: Most entries of a digit-marginal sweep array, an 8-byte float each.
MARGINAL_SWEEP_CAP = 5 * 10 ** 7

#: Bracket width at which the digit-marginal entropy sweep stops.
ENTROPY_TOL = 1e-9


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


# ---------------------------------------------------------------------------
# potentials

@dataclass(frozen=True)
class GeometricPotential:
    """s * log of the one-step fiber derivative modulus, s >= 0."""

    system: SmaleSystem
    s: float

    def __post_init__(self):
        if not (self.s >= 0.0):
            raise ConfigError("geometric potentials require s >= 0")

    @property
    def memory(self) -> int:
        """Default realization memory: exact for similarity families."""
        return self.system.family.memory

    def word_length(self, memory) -> int:
        """Word length L of the realized table: ``memory`` if given."""
        return self.memory if memory is None else memory

    def realize(self, M: int, L: int):
        """(s * log|T'| on L-word codes, s times the Lipschitz tail bound:
        0.0 at s = 0, inf without bounded distortion)."""
        err = self.s * potential_approx_error(self.system, L) if self.s else 0.0
        return self.s * realized_table(self.system, M, L), err


@dataclass(frozen=True)
class TablePotential:
    """psi depending on the first ``memory`` symbols through a finite table.

    ``entries`` maps memory-words to finite values; words absent from the
    table are forbidden (transfer weight zero), which is how restricted
    subshifts enter.  A constant potential is the memory-1 table that gives
    every symbol of ``pair_alphabet(max_digit)`` one value.
    """

    max_digit: int
    memory: int
    entries: tuple

    def __post_init__(self):
        check_max_digit(self.max_digit)
        if self.memory < 1:
            raise ConfigError("table memory must be >= 1")
        if not self.entries:
            raise ConfigError("table has no admissible words")
        for word, value in self.entries:
            w = check_pair_word(word)
            if len(w) != self.memory:
                raise InvalidWord(f"table word {word} is not a {self.memory}-word")
            if any(max(sym) > self.max_digit for sym in w):
                raise InvalidWord(f"table word {word} exceeds digit {self.max_digit}")
            if not math.isfinite(value):
                raise ConfigError("table values must be finite")

    @classmethod
    def from_dict(cls, max_digit: int, mapping: dict) -> "TablePotential":
        entries = []
        for word, value in mapping.items():
            if word and is_integer(word[0]):
                word = (tuple(word),)  # single symbol given bare
            entries.append((check_pair_word(word), float(value)))
        entries.sort()
        return cls(max_digit=max_digit, memory=len(entries[0][0]) if entries else 1,
                   entries=tuple(entries))

    def word_length(self, memory) -> int:
        """Word length L of the realized table, checked before any cap reads it."""
        if memory is not None and memory < self.memory:
            raise ConfigError("requested memory below the table's own memory")
        return self.memory if memory is None else memory

    def realize(self, M: int, L: int):
        """(log-weights on L-word codes, -inf where forbidden; 0.0).  A code
        reads symbol (m, n) as the base-M^2 digit (m - 1) M + (n - 1), first
        symbol most significant."""
        if self.max_digit != M:
            raise ConfigError(
                f"table truncation {self.max_digit} does not match M={M}")
        A = M * M
        gram = np.full(A ** self.memory, -np.inf)
        words = np.array([word for word, _ in self.entries], dtype=np.int64) - 1
        codes = (words[..., 0] * M + words[..., 1]) @ A ** np.arange(
            self.memory - 1, -1, -1)
        gram[codes] = [value for _, value in self.entries]
        return np.repeat(gram, A ** (L - self.memory)), 0.0


# ---------------------------------------------------------------------------
# geometric realization

def _composition_depth(system: SmaleSystem) -> int:
    lam = system.contraction
    need = math.ceil(math.log(system.domain.diameter / POINT_TOL) / math.log(lam))
    if need > 4000:
        raise ConfigError(f"contraction {lam:.6g} needs {need} composition "
                          f"levels to reach POINT_TOL, past the cap of 4000")
    return max(4, need)


def _word_symbols(codes: np.ndarray, n: int, A: int) -> np.ndarray:
    """(len(codes), n) symbols of base-A n-word codes, first symbol first."""
    return codes[:, None] // A ** np.arange(n - 1, -1, -1) % A


@lru_cache(maxsize=64)
def realized_table(system: SmaleSystem, max_digit: int, memory: int) -> np.ndarray:
    """log|T'| (scale 1) at the periodic limit point of each memory-word
    code, read-only.

    Entry ``code`` is log|T'| of the time-zero map of the word's two-sided
    periodic extension (time t reads symbol t mod memory).  Phase t's map
    reads ``PERIODIC_WINDOW`` symbols of the word from symbol t on; the
    point composes the maps from the domain center (time -j reads phase -j
    mod memory) over ``_composition_depth`` levels.  So an entry is within
    ``distortion_bound`` times POINT_TOL of the exact log|T'|, no bound where
    that constant is inf (a square domain that reaches w = 0).
    EnumerationCapExceeded past ENUMERATION_CAP words, DomainEscape for a
    point more than 1e-6 off the domain, ConfigError for a memory below 1, a
    system that needs more than 4000 levels or a value that is not finite.
    """
    M = check_max_digit(max_digit)
    if memory < 1:
        raise ConfigError("realization memory must be >= 1")
    A = M * M
    count = A ** memory
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"{count} periodic words exceed the cap")
    family, domain = system.family, system.domain
    depth = _composition_depth(system)
    phases = (np.arange(memory)[:, None] + np.arange(PERIODIC_WINDOW)) % memory
    vals = np.empty(count)
    for rows in row_blocks(count, memory * PERIODIC_WINDOW):
        sym = _word_symbols(np.arange(rows.start, rows.stop), memory, A)
        m_dig, n_dig = sym // M + 1, sym % M + 1
        coeff = [family.coefficients(system, m_dig[:, p], n_dig[:, p])
                 for p in phases]
        pts = np.full(len(sym), domain.center, dtype=complex)
        for j in range(depth, 0, -1):
            pts = family.map(pts, coeff[-j % memory])
        if (np.abs(pts - domain.center) > domain.radius + 1e-6).any():
            raise DomainEscape("fiber points left the domain")
        vals[rows] = np.log(family.derivative_mod(pts, coeff[0]))
    if not np.isfinite(vals).all():
        raise ConfigError("table values must be finite")
    vals.flags.writeable = False
    return vals


def potential_approx_error(system: SmaleSystem, memory: int) -> float:
    """Lipschitz tail bound for the memory-k realization of log|T'|; inf
    where the system's ``distortion_bound`` is."""
    gap = system.domain.diameter * system.contraction ** (-memory)
    return system.distortion_bound * gap


# ---------------------------------------------------------------------------
# transfer-matrix Gibbs construction

@dataclass(eq=False)
class GibbsApprox:
    """Stationary Markov Gibbs state on k-word states of the truncation.

    ``stationary`` and ``gram`` are indexed by the full-alphabet word code;
    pruned codes have stationary mass zero, and ``n_states`` counts the live
    codes.  From code i, forward slot a of the A = M^2 symbols moves to
    (i mod A^(k-1)) * A + a with probability ``transition[i mod A^(k-1), a]``
    and reversed slot a to a * A^(k-1) + i // A with probability
    ``reverse[i // A, a]``.  ``log_pressure`` is the log Perron root of the
    weight operator.  The health fields record the Perron solve: its
    iteration count, the relative right and left eigen-residuals, and the l1
    stationarity residual |pi P - pi|.
    """

    max_digit: int
    memory: int
    log_pressure: float
    n_states: int
    transition: np.ndarray = field(repr=False)
    reverse: np.ndarray = field(repr=False)
    stationary: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    perron_iterations: int = 0
    perron_residual: tuple = (0.0, 0.0)
    stationarity_residual: float = 0.0

    @property
    def alphabet_size(self) -> int:
        return self.max_digit * self.max_digit

    def health(self) -> dict:
        """Numerical health of the chain, as recorded in run records."""
        right, left = self.perron_residual
        return {"n_states": self.n_states,
                "perron_iterations": self.perron_iterations,
                "perron_residual": {"right": right, "left": left},
                "stationarity_residual": self.stationarity_residual}

    # -- sampling ----------------------------------------------------------

    def _cums(self):
        """(cumulative table, guide table) of the forward and reversed chains."""
        return tuple((cum, _guide_table(cum)) for cum in (
            _cum_table(self.transition), _cum_table(self.reverse)))

    @staticmethod
    def _step(law, row, u):
        """Slot drawn for each table row from its cumulative slot law.

        ``law`` is a ``(cum, guide)`` pair from ``_cums`` and ``u`` holds one
        uniform per row.  The slot is the count of entries of ``cum[row]`` at
        most u, exactly as summing ``cum[row] <= u`` gives.  The guide table
        starts each draw at or below that count and the walk steps forward
        while ``cum <= u``, so a step gathers O(count) entries, not count * A.
        """
        cum, guide = law
        A, G = cum.shape[1], guide.shape[1]
        flat = guide.ravel()[row * G + (u * G).astype(np.intp)]
        cum = cum.ravel()
        walk = np.flatnonzero(cum[flat] <= u)
        while walk.size:
            flat[walk] += 1
            walk = walk[cum[flat[walk]] <= u[walk]]
        return flat - row * A

    def _run(self, law, row, out, rng, backward: bool):
        """Fill each ``(count,)`` slot row ``out`` yields with one chain step.

        ``row`` holds each draw's table row, the (L-1)-symbol suffix of its
        last L-word for the forward chain and the prefix of its first for the
        reversed chain.  The forward chain appends the slot drawn from that
        row, the reversed chain prepends it, and the row moves along with
        them.  Each step makes one ``rng.random(count)`` call and then works
        through ``DRAW_CHUNK`` draws at a time, so its arrays stay cache-sized.
        ``out`` is a time-major buffer.
        """
        A = self.alphabet_size
        R = A ** (self.memory - 1)
        row = row.copy()
        for slots in out:
            u = rng.random(len(row))
            for lo in range(0, len(row), DRAW_CHUNK):
                part = slice(lo, lo + DRAW_CHUNK)
                slot = self._step(law, row[part], u[part])
                slots[part] = slot
                # the L-word of the new slot and the old row, less its last
                # (reversed) or first (forward) symbol
                row[part] = ((slot * R + row[part]) // A if backward
                             else (row[part] * A + slot) % R)

    def sample_two_sided(self, n_past: int, n_forward: int, count: int, rng):
        """Coupled past and forward symbol codes through the time-zero state.

        One ``rng.choice`` of the time-zero L-words, then one
        ``rng.random(count)`` per step: the reversed chain of the stationary
        Markov measure, the computable form of the conditional measures on
        fibers, fills the past, most recent first, and the forward chain the
        forward word after its first L symbols.  The ``(count, n)`` codes
        returned are transposed views of time-major buffers, in the least
        unsigned dtype that holds A - 1 (uint8 up to M = 16).
        """
        rng = _rng(rng)
        L, A = self.memory, self.alphabet_size
        if n_forward < L:
            raise InvalidWord(f"need at least {L} symbols per draw")
        ahead, back = self._cums()
        code = rng.choice(len(self.stationary), size=count, p=self.stationary)
        dtype = np.min_scalar_type(A - 1)
        past = np.empty((n_past, count), dtype=dtype)
        self._run(back, code // A, past, rng, backward=True)
        fwd = np.empty((n_forward, count), dtype=dtype)
        fwd[:L] = _word_symbols(code, L, A).T
        self._run(ahead, code % A ** (L - 1), fwd[L:], rng, backward=False)
        return past.T, fwd.T

    def sample_forward(self, n_symbols: int, count: int, rng) -> np.ndarray:
        """The forward codes of ``sample_two_sided`` with no past."""
        return self.sample_two_sided(0, n_symbols, count, rng)[1]

    def digits(self, codes):
        """(first, second) digit arrays of symbol codes, in their dtype."""
        return codes // self.max_digit + 1, codes % self.max_digit + 1


def _slot_law(weights: np.ndarray) -> np.ndarray:
    """Rows of a slot table normalised to sum 1; all-zero rows stay zero."""
    total = weights.sum(axis=1, keepdims=True)
    return np.divide(weights, total, out=np.zeros_like(weights),
                     where=total > 0)


def _cum_table(P: np.ndarray) -> np.ndarray:
    """Row cumsums of a slot law, pinned to 1 from the last allowed slot on.

    With the draw counting entries <= u for u in [0, 1), a zero-probability
    slot is never chosen, so every step follows an allowed transition.  Every
    entry below 1 precedes every entry at or above 1 (a cumsum rounding past
    1 included), so ``cum <= u`` holds on a prefix of each row, all-zero rows
    of pruned codes too.
    """
    cum = np.cumsum(P, axis=1)
    last = P.shape[1] - 1 - np.argmax(P[:, ::-1] > 0, axis=1)
    cum[np.arange(P.shape[1])[None, :] >= last[:, None]] = 1.0
    return cum


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """Flat start index of the draw per (row, bucket) of a cumulative table.

    G is the least power of two >= 2A.  Bucket g of row r holds r * A plus
    the count of slots with cum[r, a] <= g / G; that count is at most the
    slot of any u in [g / G, (g + 1) / G), since ``cum <= u`` holds on a row
    prefix.  Scaling by G is exact, so u * G picks that bucket without
    rounding and cum * G, rounded up, is the first bucket each slot counts in.
    """
    n_rows, A = cum.shape
    G = 1 << (2 * A - 1).bit_length()
    first = np.minimum(np.ceil(cum * G), G).astype(np.intp)
    counts = np.zeros((n_rows, G + 1), dtype=np.intp)
    np.add.at(counts, (np.arange(n_rows)[:, None], first), 1)
    return np.cumsum(counts[:, :G], axis=1) + A * np.arange(n_rows)[:, None]


# -- de Bruijn weight operator ------------------------------------------------
#
# Over full L-word codes i, the allowed successors of i are
# (i mod A^(L-1)) * A + a, its predecessors a * A^(L-1) + i // A, and every
# edge leaving i carries the weight w[i].  So W h and W^T nu are a multiply
# and one of the two reshape-sums below, each O(A^L); no n x n array forms.

#: Relative Perron residual at which the power iteration stops.
PERRON_TOL = 1e-13

#: Power-iteration cap; reaching it means the spectral gap is too small.
PERRON_MAX_ITER = 10_000

#: Largest Perron or stationarity residual a built chain may carry.
HEALTH_TOL = 1e-10


def _successor_sum(x: np.ndarray, A: int) -> np.ndarray:
    """Per code i, the sum of x over the successors (i mod A^(L-1)) * A + a."""
    return np.tile(x.reshape(-1, A).sum(axis=1), A)


def _predecessor_sum(x: np.ndarray, A: int) -> np.ndarray:
    """Per code i, the sum of x over the predecessors a * A^(L-1) + i // A."""
    return np.repeat(x.reshape(A, -1).sum(axis=0), A)


def _prune_support(finite: np.ndarray, A: int) -> np.ndarray:
    """Codes on a bi-infinite allowed path: some live successor and predecessor."""
    alive = finite.copy()
    while True:
        new = (alive & (_successor_sum(alive, A) > 0)
               & (_predecessor_sum(alive, A) > 0))
        if np.array_equal(new, alive):
            return alive
        alive = new


def _bfs_levels(alive: np.ndarray, start: int, reach, A: int) -> np.ndarray:
    """BFS levels of live codes from ``start`` (-1: unreached) by ``reach``."""
    level = np.full(len(alive), -1)
    frontier, depth = np.arange(len(alive)) == start, 0
    while frontier.any():
        level[frontier] = depth
        depth += 1
        frontier = alive & (level < 0) & (reach(frontier, A) > 0)
    return level


def _check_primitive(alive: np.ndarray, A: int):
    """Live codes form one strong component of period 1.

    A forward and a backward breadth-first search from the first live code
    must each reach every live code; the period is the gcd of the level
    gaps |level[i] + 1 - level[j]| over the live edges i -> j.
    """
    start = int(np.argmax(alive))
    # a predecessor in the frontier makes a code reachable in one more step
    level = _bfs_levels(alive, start, _predecessor_sum, A)
    back = _bfs_levels(alive, start, _successor_sum, A)
    if (level[alive] < 0).any() or (back[alive] < 0).any():
        raise NonPrimitive("transition support is reducible (some live code "
                           f"and code {start} do not reach each other)")
    # the live edges through a middle r join each live source a * R + r to each
    # live target r * A + a', so with y0 the level of the first live target,
    # source level + 1 - y0 and target level - y0 generate the period
    R = len(alive) // A
    y, live_y = level.reshape(R, A).T, alive.reshape(R, A).T
    y0 = y[np.argmax(live_y, axis=0), np.arange(R)]
    period = int(np.gcd.reduce(np.concatenate([
        np.where(alive.reshape(A, R), level.reshape(A, R) + 1 - y0, 0).ravel(),
        np.where(live_y, y - y0, 0).ravel()])))
    if period > 1:
        raise NonPrimitive(f"transition support has period {period}")


def _perron(w: np.ndarray, alive: np.ndarray, A: int):
    """Right and left Perron vectors, root and residuals by power iteration.

    Both iterates are l1-normalised each step; they stop together once the
    relative residuals |W h - rho h|_1 / rho and |W^T nu - rho nu|_1 / rho
    fall below PERRON_TOL.  The root is the Rayleigh quotient nu W h / nu h.
    """
    h = alive / alive.sum()
    nu = h.copy()
    for iterations in range(1, PERRON_MAX_ITER + 1):
        Wh = w * _successor_sum(h, A)
        Wnu = _predecessor_sum(nu * w, A) * alive
        rho_r, rho_l = Wh.sum(), Wnu.sum()
        res = (np.abs(Wh - rho_r * h).sum() / rho_r,
               np.abs(Wnu - rho_l * nu).sum() / rho_l)
        h, nu = Wh / rho_r, Wnu / rho_l
        if max(res) <= PERRON_TOL:
            break
    else:
        raise PerronNotConverged(
            f"Perron power iteration hit {PERRON_MAX_ITER} iterations with "
            f"residuals right {res[0]:.3g}, left {res[1]:.3g}")
    Wh = w * _successor_sum(h, A)
    Wnu = _predecessor_sum(nu * w, A) * alive
    rho = float(nu @ Wh / (nu @ h))
    res = (float(np.abs(Wh - rho * h).sum() / rho),
           float(np.abs(Wnu - rho * nu).sum() / rho))
    return h, nu, rho, iterations, res


@lru_cache(maxsize=256)
def gibbs_markov(potential, max_digit: int, memory: int = None) -> GibbsApprox:
    """Gibbs state of a finite-memory potential on the M-truncation.

    States are k-words; the weight of an allowed transition is exp of the
    potential on the source window.  Forbidden words prune the support; the
    remainder must be primitive.  The Perron data come from power iteration
    on the de Bruijn weight operator, O(A^L) per step.
    """
    M = check_max_digit(max_digit)
    A = M * M
    L = potential.word_length(memory)
    if A ** L > STATE_CAP:
        raise EnumerationCapExceeded(
            f"{A**L} states exceed the cap {STATE_CAP}; lower the memory")
    gram = potential.realize(M, L)[0]
    alive = _prune_support(np.isfinite(gram), A)
    if not alive.any():
        raise NonPrimitive("no admissible bi-infinite words")
    _check_primitive(alive, A)

    m0 = gram[alive].max()
    w = np.zeros(A ** L)
    w[alive] = np.exp(gram[alive] - m0)
    h, nu, rho, iterations, res = _perron(w, alive, A)
    if (h[alive] <= 0).any() or (nu[alive] <= 0).any():
        raise NonPrimitive("Perron eigenvectors not strictly positive")
    # w[i] cancels from row i, leaving h over the suffix's successors; the
    # reversed step to predecessor i has weight nu[i] w[i] over the prefix's
    P = _slot_law(h.reshape(-1, A))
    Q = _slot_law((nu * w).reshape(A, -1).T)
    pi = nu * h
    pi /= pi.sum()
    # pi P: the flow of edge (i, a) lands on (i mod A^(L-1)) A + a
    flow = (pi.reshape(A, -1).sum(axis=0)[:, None] * P).ravel()
    stat_res = float(np.abs(flow - pi).sum())
    for name, value in (("right Perron residual", res[0]),
                        ("left Perron residual", res[1]),
                        ("stationarity residual", stat_res)):
        if not value <= HEALTH_TOL:
            raise NonPrimitive(f"{name} {value:.3g} exceeds {HEALTH_TOL:g}")

    return GibbsApprox(
        max_digit=M, memory=L,
        log_pressure=float(np.log(rho) + m0), n_states=int(alive.sum()),
        transition=P, reverse=Q, stationary=pi, gram=gram,
        perron_iterations=iterations, perron_residual=res,
        stationarity_residual=stat_res,
    )


# ---------------------------------------------------------------------------
# pressure by direct cylinder sums

@dataclass(frozen=True)
class PressureEstimate:
    """Cylinder-sum pressure: naive levels plus the bias-free difference."""

    depth_values: tuple
    extrapolated: float
    error_est: float
    log_partition: tuple
    potential_error: float


def _logsumexp(x: np.ndarray, axis=None):
    """Max-shifted log sum exp; an all -inf slice gives -inf without warnings."""
    m = np.max(x, axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def _cylinder_sweep(gram: np.ndarray, L: int, A: int, depth: int) -> np.ndarray:
    """log Z_1 .. log Z_depth; Z_n sums exp(sup S_n psi) over depth-n cylinders.

    With K = L - 1, the sup over the K free extension symbols touches only the
    last K windows, which read only the cylinder's last K symbols.  A max-plus
    sweep from the right gives beta_j(y), the sup of j windows started at the
    K-word y; beta_K is the boundary term of every depth n >= K.  A forward
    log-sum-exp sweep alpha_n(v) over cylinders ending in the K-word v then
    gives log Z_n = logsumexp_v(alpha_n(v) + beta_K(v)).  A depth n < K
    cylinder is the first n symbols of a K-word y, so its sup is the max of
    beta_n over the rest of y.  Each step costs O(A^L).
    """
    K = L - 1
    step = gram.reshape(-1, A)  # row: the first K symbols, column: the last
    beta = [np.zeros(A ** K)]
    for _ in range(K):
        tail = np.tile(beta[-1].reshape(-1, A), (A, 1))
        beta.append((step + tail).max(axis=1))
    # log Z_0 = 0 heads the list: the empty cylinder has the single value 0
    logZ = [_logsumexp(b.reshape(A ** n, -1).max(axis=1))
            for n, b in enumerate(beta[:min(depth + 1, K)])]
    alpha = np.zeros(A ** K)
    for n in range(K, depth + 1):
        logZ.append(_logsumexp(alpha + beta[K]))
        alpha = _logsumexp((np.repeat(alpha, A) + gram).reshape(A, -1), axis=0)
    return np.array(logZ[1:])


def pressure_cylinder_sum(potential, max_digit: int, depth: int,
                          memory: int = None) -> PressureEstimate:
    """Pressure from cylinder sums P_n = (1/n) log sum exp(sup S_n psi).

    The sup over each cylinder is exact for the realized finite-memory
    potential (max over the boundary extensions); the memory-realization
    error of geometric potentials is reported, not bounded here.  All depths
    come from one dynamic-programming sweep over L-word codes, a max-plus
    pass for the boundary sup and a log-sum-exp pass for the cylinders, at
    O(depth * A^L) cost.  It reads only the realized table through finite
    path sums, so it shares nothing with the Perron solve of
    ``gibbs_markov``.  The extrapolated value is the successive difference
    log Z_n - log Z_{n-1}, which removes the O(1/n) bias of the naive
    quotient.
    """
    if depth < 2:
        raise InvalidWord("need depth >= 2 to extrapolate")
    M = check_max_digit(max_digit)
    A = M * M
    L = potential.word_length(memory)
    if depth * A ** L > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"depth {depth} x (M^2)^{L} = {depth * A**L} sweep cells "
            "exceed the cap")
    gram, err = potential.realize(M, L)
    logZ = _cylinder_sweep(gram, L, A, depth).tolist()
    if np.isneginf(logZ).any():
        raise SummabilityFailure("all depth cylinders forbidden")
    if not math.isfinite(logZ[0]):
        raise SummabilityFailure("depth-1 cylinder sum is not finite")
    depth_values = tuple(z / j for j, z in enumerate(logZ, start=1))
    extrapolated = logZ[-1] - logZ[-2]
    return PressureEstimate(
        depth_values=depth_values, extrapolated=extrapolated,
        error_est=abs(depth_values[-1] - extrapolated),
        log_partition=tuple(logZ), potential_error=err,
    )


# ---------------------------------------------------------------------------
# entropies

def entropy(g: GibbsApprox) -> float:
    """Entropy rate of the stationary chain (pi summed per suffix row)."""
    P = g.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    suffix_mass = g.stationary.reshape(g.alphabet_size, -1).sum(axis=0)
    return float(0.0 - suffix_mass @ plogp.sum(axis=1))


@dataclass(frozen=True)
class MarginalEntropy:
    """Bracket lower <= h <= value of an entropy rate, stopped at ``depth``."""

    value: float
    lower: float
    depth: int


def marginal_entropy(g: GibbsApprox, which: int) -> MarginalEntropy:
    """Entropy rate of one digit-coordinate marginal, bracketed.

    With Y the digit process and X_1 the other digits of the first L-word,
    H(Y_n | Y^(n-1), X_1) <= h <= H(Y_n | Y^(n-1)) (Cover-Thomas, Thm 4.5.1).
    The hidden-Markov sweep holds the exact masses of (X_1, Y^n): one row per
    X_1 and (n - L)-digit prefix over the A^L codes of the last L symbols.  A
    step sums the other digit out of the dropped first symbol, whose kept
    digit joins the prefix, and multiplies by the suffix slot table.  It stops
    at the first n >= L + 1 whose width is at most ENTROPY_TOL, or before the
    next array would pass MARGINAL_SWEEP_CAP; the first, M^(L+1) A^L entries,
    stays below the cap under STATE_CAP.
    """
    if which not in (1, 2):
        raise InvalidWord("marginal coordinate must be 1 or 2")
    M, L, A = g.max_digit, g.memory, g.alphabet_size
    sym = _word_symbols(np.arange(A ** L), L, A)
    hidden = (sym % M if which == 1 else sym // M) @ M ** np.arange(L - 1, -1, -1)
    beta = np.zeros((M ** L, A ** L))
    beta[hidden, np.arange(A ** L)] = g.stationary
    # past the X_1 and prefix axes a code's digits are (m_1, n_1, ..., m_L,
    # n_L); sum the other coordinate
    other = tuple(range(3 if which == 1 else 2, 2 * L + 2, 2))
    H = []
    for n in itertools.count(L):
        joint = beta.reshape((M ** L, -1) + (M,) * (2 * L)).sum(axis=other)
        H.append([float(-(p * np.log(p)).sum())
                  for p in (q[q > 0] for q in (joint.sum(axis=0), joint))])
        if n > L:
            value, lower = (b - a for a, b in zip(*H[-2:]))
            if value - lower <= ENTROPY_TOL or beta.size * M > MARGINAL_SWEEP_CAP:
                return MarginalEntropy(value=value, lower=lower, depth=n)
        kept = beta.reshape(-1, M, M, A ** (L - 1)).sum(axis=3 - which)
        beta = (kept[..., None] * g.transition).reshape(-1, A ** L)


# ---------------------------------------------------------------------------
# Lyapunov exponents

def lyapunov_fiber_exact(g: GibbsApprox, system: SmaleSystem,
                         memory: int = None) -> float:
    """Exact chain expectation -int log|T'| d mu of the realized table.

    The log|T'| table is realized at memory L = max(g.memory, memory), and
    the chain's L-word masses come from pushing its stationary law through
    the forward slot table L - g.memory times.  A Hoelder two-sided
    potential is cohomologous to a one-sided one (Bowen, LNM 470, Lemma
    1.6), so these finite-memory expectations converge to int log|T'| d mu
    as L grows, whatever potential built the chain.  For a geometric chain
    at its own memory the table is the chain's own, so pressure, entropy
    and this exponent obey the exact chain identities.  The table may hold
    no more words than a chain holds states, ``STATE_CAP``, checked first.
    """
    L = max(g.memory, memory or g.memory)
    if g.alphabet_size ** L > STATE_CAP:
        raise EnumerationCapExceeded(
            f"{g.alphabet_size ** L} words of the log|T'| table exceed the cap "
            f"{STATE_CAP}; lower the memory")
    rows = g.alphabet_size ** (g.memory - 1)
    mass = g.stationary
    for _ in range(L - g.memory):
        # a word's next symbol reads the slot row of its last memory - 1
        mass = (mass.reshape(-1, rows)[:, :, None] * g.transition).ravel()
    return float(-(mass @ realized_table(system, g.max_digit, L)))


# ---------------------------------------------------------------------------
# derivative identity and measure summaries

def pressure_derivative_check(system: SmaleSystem, s: float,
                              h_step: float = 1e-3, max_digit: int = 3,
                              memory: int = None):
    """(fd, integral): centered pressure difference vs int log|T'| d mu.

    ``fd`` differentiates the realized pressure in s, and ``integral`` is
    the exact chain expectation of the realized log-derivative, so both
    sides refer to the same realized potential.
    """
    if not (math.isfinite(h_step) and h_step > 0):
        raise ConfigError(f"h_step must be finite and > 0, got {h_step!r}")
    if s - h_step < 0:
        raise ConfigError("s - h_step must stay nonnegative")
    p_hi = gibbs_markov(GeometricPotential(system, s + h_step), max_digit, memory)
    p_lo = gibbs_markov(GeometricPotential(system, s - h_step), max_digit, memory)
    fd = (p_hi.log_pressure - p_lo.log_pressure) / (2.0 * h_step)
    g = gibbs_markov(GeometricPotential(system, s), max_digit, memory)
    return fd, -lyapunov_fiber_exact(g, system)


@dataclass(frozen=True)
class MeasureStats:
    """Entropies and exponents of one Gibbs state, marginals included;
    ``entropy_width`` and ``entropy_depth`` are the larger width and the
    deeper stopping depth of the two marginal entropy brackets, and
    ``moment_sweeps`` the larger sweep count of the two exact marginal
    exponents."""

    h_mu: float
    h_mu1: float
    h_mu2: float
    chi1: float
    chi2: float
    chi_T: float
    lambda1: float
    lambda2: float
    entropy_width: float = 0.0
    entropy_depth: int = 0
    moment_sweeps: int = 0

    def __post_init__(self):
        if not (self.chi1 > 0 and self.chi2 > 0 and self.chi_T > 0):
            raise DegenerateExponent("all Lyapunov exponents must be positive")


def measure_stats(g: GibbsApprox, system: SmaleSystem,
                  memory: int = None) -> MeasureStats:
    """Assemble the entropy/exponent summary of one Gibbs state.

    Every entry is an exact chain quantity, so a summary draws nothing and
    does not depend on a seed.  chi_T is ``lyapunov_fiber_exact`` with the
    log|T'| table realized at ``memory`` (at least the chain's own).
    """
    h = entropy(g)
    h1, h2 = marginal_entropy(g, 1), marginal_entropy(g, 2)
    chi1, chi2 = lyapunov_marginal_exact(g, 1), lyapunov_marginal_exact(g, 2)
    chi_T = lyapunov_fiber_exact(g, system, memory)
    return MeasureStats(h_mu=h, h_mu1=min(h1.value, h), h_mu2=min(h2.value, h),
                        chi1=chi1.value, chi2=chi2.value, chi_T=chi_T,
                        lambda1=math.exp(-chi1.value),
                        lambda2=math.exp(-chi2.value),
                        entropy_width=max(e.value - e.lower for e in (h1, h2)),
                        entropy_depth=max(h1.depth, h2.depth),
                        moment_sweeps=max(chi1.sweeps, chi2.sweeps))
