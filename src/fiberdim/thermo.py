"""Gibbs states, pressure, entropies, and Lyapunov exponents on truncations.

Potentials depend on finitely many forward symbols (memory k).  The Gibbs
state of such a potential on the M-truncated shift is the stationary Markov
chain built from Perron eigendata of the weighted transition operator over
k-word states; its pressure is the log Perron root.  That operator is a de
Bruijn graph: each k-word has at most A = M^2 successors and every edge
weight depends on the source only, so the Perron vectors come from power
iteration at O(A^k) per step and the chain is stored as an (A^k, A)
slot-probability table over all k-word codes, never as an n x n matrix.
An independent pressure route sums exp(sup S_n psi) over depth-n cylinders
directly, with the sup computed exactly for finite-memory potentials.

Geometric potentials (s * log of the fiber derivative modulus) have
unbounded memory through the fiber point; they are realized as memory-k
tables by evaluating the derivative at the limit point of the periodic
extension of each k-word.  The Hoelder tail bound for that truncation is
reported as ``potential_error``, never silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.special import logsumexp

from .errors import (
    ConfigError,
    DegenerateExponent,
    DomainEscape,
    EnumerationCapExceeded,
    InvalidWord,
    NonPrimitive,
    SummabilityFailure,
)
from numpy.lib.stride_tricks import sliding_window_view

from .systems import CONTEXT_DEPTH, SmaleSystem, fiber_points_bulk
from .words import (ENUMERATION_CAP, cf_value_float, check_max_digit,
                    check_pair_word)

#: Cap on the number of k-word states of the transfer matrix.
STATE_CAP = 4096

#: Relative contraction target for limit-point composition depths.
POINT_TOL = 1e-13


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


# ---------------------------------------------------------------------------
# potentials

@dataclass(frozen=True)
class ConstantPotential:
    """psi identically equal to ``value``."""

    value: float

    @property
    def memory(self) -> int:
        return 0


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


@dataclass(frozen=True)
class TablePotential:
    """psi depending on the first ``memory`` symbols through a finite table.

    ``entries`` maps memory-words to finite values; words absent from the
    table are forbidden (transfer weight zero), which is how restricted
    subshifts enter.  ``scale`` multiplies every value, so one base table
    serves a whole parameter family.
    """

    max_digit: int
    memory: int
    entries: tuple
    scale: float = 1.0

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
    def from_dict(cls, max_digit: int, mapping: dict, scale: float = 1.0) -> "TablePotential":
        entries = []
        for word, value in mapping.items():
            if word and isinstance(word[0], int):
                word = (tuple(word),)  # single symbol given bare
            entries.append((check_pair_word(word), float(value)))
        entries.sort()
        return cls(max_digit=max_digit, memory=len(entries[0][0]) if entries else 1,
                   entries=tuple(entries), scale=scale)

    def value(self, word) -> float:
        """Scaled value on a memory-word; -inf when forbidden."""
        w = check_pair_word(word)[: self.memory]
        for entry_word, value in self.entries:
            if entry_word == w:
                return self.scale * value
        return -math.inf


def _word_code(word, max_digit: int) -> int:
    A = max_digit * max_digit
    code = 0
    for (m, n) in word:
        code = code * A + (m - 1) * max_digit + (n - 1)
    return code


def _base_flat(table: TablePotential, L: int) -> np.ndarray:
    """Unscaled values on L-words (first ``memory`` symbols decide)."""
    M = table.max_digit
    A = M * M
    base = np.full(A ** table.memory, -np.inf)
    for word, value in table.entries:
        base[_word_code(word, M)] = value
    reps = A ** (L - table.memory)
    return np.repeat(base, reps)


def _scaled(base: np.ndarray, scale: float) -> np.ndarray:
    out = np.where(np.isneginf(base), -np.inf, scale * base)
    return out


# ---------------------------------------------------------------------------
# geometric realization

def _composition_depth(system: SmaleSystem) -> int:
    lam = system.contraction
    need = math.log(system.domain.diameter / POINT_TOL) / math.log(lam)
    return max(4, min(4000, math.ceil(need)))


def _digit_planes(codes: np.ndarray, n: int, max_digit: int):
    """Digit arrays (values 1..M) of shape (len(codes), n) for base-A word codes."""
    A = max_digit * max_digit
    sym = (codes[:, None] // A ** np.arange(n - 1, -1, -1)) % A
    return sym // max_digit + 1, sym % max_digit + 1


def periodic_log_derivatives(system: SmaleSystem, max_digit: int, n: int,
                             window: int = CONTEXT_DEPTH) -> np.ndarray:
    """log derivative modulus at the periodic limit point of every n-word.

    Entry ``code`` is log|T'| of the time-zero map of the two-sided periodic
    extension of the word, evaluated at the fiber point pinned by its past.
    The composition depth makes the point accurate to the POINT_TOL scale.
    Translate values are read off ``window`` symbols as in
    ``fiber_points_bulk``, so against the exact-cylinder evaluation of
    ``pi2_hat`` an entry is off by at most ``distortion_bound`` times the sum
    of the point bound stated there and the translate coding error
    sqrt(2) * 2**(1 - window).
    """
    M = check_max_digit(max_digit)
    count = (M * M) ** n
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"{count} periodic words exceed the cap")
    m_dig, n_dig = _digit_planes(np.arange(count, dtype=np.int64), n, M)
    family = system.family
    # context windows of the n rotations, read off the periodic continuation
    cols = np.arange(n + window - 1) % n
    m_win = sliding_window_view(m_dig[:, cols], window, axis=1)
    n_win = sliding_window_view(n_dig[:, cols], window, axis=1)
    coeffs = [family.coefficients(system, m_win[:, r], n_win[:, r])
              for r in range(n)]
    w = np.full(count, system.domain.center, dtype=complex)
    for lev in range(_composition_depth(system), 0, -1):
        w = family.map(w, coeffs[(-lev) % n])
    return np.log(family.derivative_mod(w, coeffs[0]))


@lru_cache(maxsize=64)
def realized_table(system: SmaleSystem, max_digit: int, memory: int) -> np.ndarray:
    """Base log-derivative values (scale 1) by memory-word code, read-only."""
    M = check_max_digit(max_digit)
    if memory < 1:
        raise ConfigError("realization memory must be >= 1")
    vals = periodic_log_derivatives(system, M, memory)
    if not np.isfinite(vals).all():
        raise ConfigError("table values must be finite")
    vals.flags.writeable = False
    return vals


def potential_approx_error(system: SmaleSystem, memory: int) -> float:
    """Hoelder tail bound for the memory-k realization of log|T'|."""
    gap = system.domain.diameter * system.contraction ** (-memory)
    return system.distortion_bound * gap ** system.distortion_alpha


def _realize(potential, M: int, memory, L: int):
    """(base values on L-word codes, scale, approx_error, base_is_log_derivative).

    ``L`` is ``_table_memory(potential, memory)``; a geometric base is the
    cached realization itself, never a copy.
    """
    if isinstance(potential, ConstantPotential):
        if not math.isfinite(potential.value):
            raise ConfigError("table values must be finite")
        return np.full((M * M) ** L, float(potential.value)), 1.0, 0.0, False
    if isinstance(potential, TablePotential):
        if potential.max_digit != M:
            raise ConfigError(
                f"table truncation {potential.max_digit} does not match M={M}")
        if memory is not None and memory < potential.memory:
            raise ConfigError("requested memory below the table's own memory")
        return _base_flat(potential, L), potential.scale, 0.0, False
    if isinstance(potential, GeometricPotential):
        err = potential.s * potential_approx_error(potential.system, L)
        return realized_table(potential.system, M, L), potential.s, err, True
    raise ConfigError(f"unknown potential kind {type(potential).__name__}")


# ---------------------------------------------------------------------------
# transfer-matrix Gibbs construction

@dataclass
class McEstimate:
    """Monte Carlo scalar with its normal-approximation standard error."""

    value: float
    se: float
    n: int

    def __float__(self):
        return float(self.value)


@dataclass(eq=False)
class GibbsApprox:
    """Stationary Markov Gibbs state on k-word states of the truncation.

    Arrays are indexed by the full-alphabet word code of the state.  Row i
    of ``transition`` holds the probabilities of the A = M^2 successor slots
    of code i: slot a moves to (i mod A^(k-1)) * A + a and appends symbol a.
    Codes removed by support pruning have stationary mass zero and an
    all-zero row; ``n_states`` counts the live codes.  ``stationary`` is the
    invariant law and ``log_pressure`` the log Perron root of the weight
    operator.  The health fields record the Perron solve: its iteration
    count, the relative right and left eigen-residuals, and the l1
    stationarity residual |pi P - pi|.
    """

    max_digit: int
    memory: int
    log_pressure: float
    n_states: int
    transition: np.ndarray = field(repr=False)
    stationary: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    gram_base: np.ndarray = field(repr=False)
    potential_error: float = 0.0
    is_geometric: bool = False
    perron_iterations: int = 0
    perron_residual: tuple = (0.0, 0.0)
    stationarity_residual: float = 0.0
    _kernels: tuple = field(default=None, repr=False)
    _hat_cache: dict = field(default_factory=dict, repr=False)

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

    # -- masses ------------------------------------------------------------

    def word_log_mass(self, word) -> float:
        """log mu of the cylinder of a word (any length >= 1)."""
        w = check_pair_word(word)
        L, A = self.memory, self.alphabet_size
        if len(w) < L:
            code = _word_code(w, self.max_digit)
            reps = A ** (L - len(w))
            mass = float(self.stationary[code * reps:(code + 1) * reps].sum())
            return math.log(mass) if mass > 0 else -math.inf
        cur = _word_code(w[:L], self.max_digit)
        if self.stationary[cur] <= 0:
            return -math.inf
        out = math.log(self.stationary[cur])
        for sym in w[L:]:
            a = (sym[0] - 1) * self.max_digit + (sym[1] - 1)
            if self.transition[cur, a] <= 0:
                return -math.inf
            out += math.log(self.transition[cur, a])
            cur = (cur % A ** (L - 1)) * A + a
        return out

    def symbol_marginal(self) -> np.ndarray:
        """Stationary law of the symbol at one position (full alphabet)."""
        return self.stationary.reshape(self.alphabet_size, -1).sum(axis=1)

    # -- sampling ----------------------------------------------------------

    def _cums(self):
        """Cumulative slot laws of the forward and reversed chains.

        Slot a of the reversed chain steps from code j to its predecessor
        a * A^(L-1) + j // A, with probability pi_i P(i, j) / pi_j.
        """
        if self._kernels is None:
            A, L = self.alphabet_size, self.memory
            codes = np.arange(A ** L)
            pred = np.arange(A)[None, :] * A ** (L - 1) + (codes // A)[:, None]
            rev = _row_law(self.stationary[pred]
                           * self.transition[pred, (codes % A)[:, None]],
                           self.stationary)
            self._kernels = (_cum_table(self.transition), _cum_table(rev))
        return self._kernels

    @staticmethod
    def _step(cum, code, rng):
        """Slot drawn for each code from its cumulative slot law."""
        u = rng.random(len(code))
        return (cum[code] <= u[:, None]).sum(axis=1)

    def sample_forward(self, n_symbols: int, count: int, rng) -> np.ndarray:
        """Symbol codes of forward words drawn from the stationary chain."""
        rng = _rng(rng)
        L = self.memory
        if n_symbols < L:
            raise InvalidWord(f"need at least {L} symbols per draw")
        ahead, _ = self._cums()
        code = rng.choice(len(self.stationary), size=count, p=self.stationary)
        return self._emit_forward(code, n_symbols, ahead, rng)

    def _emit_forward(self, code, n_symbols, ahead, rng):
        L, A = self.memory, self.alphabet_size
        out = np.empty((len(code), n_symbols), dtype=np.int64)
        for i in range(L):
            out[:, i] = (code // A ** (L - 1 - i)) % A
        for t in range(L, n_symbols):
            out[:, t] = self._step(ahead, code, rng)
            code = (code % A ** (L - 1)) * A + out[:, t]
        return out

    def sample_two_sided(self, n_past: int, n_forward: int, count: int, rng):
        """Coupled past and forward words through the time-zero state.

        Past rows are most recent first; the reversed chain of the stationary
        Markov measure generates the past, which is the computable form of
        the conditional measures on fibers.
        """
        rng = _rng(rng)
        ahead, back = self._cums()
        A, L = self.alphabet_size, self.memory
        code0 = rng.choice(len(self.stationary), size=count, p=self.stationary)
        past = np.empty((count, n_past), dtype=np.int64)
        code = code0
        for j in range(n_past):
            past[:, j] = self._step(back, code, rng)
            code = past[:, j] * A ** (L - 1) + code // A
        fwd = self._emit_forward(code0, n_forward, ahead, rng)
        M = self.max_digit
        return (past // M + 1, past % M + 1, fwd // M + 1, fwd % M + 1)

    def sample_forward_digits(self, n_symbols: int, count: int, rng):
        codes = self.sample_forward(n_symbols, count, rng)
        M = self.max_digit
        return codes // M + 1, codes % M + 1

    # -- Gibbs constant ------------------------------------------------------

    def gibbs_constant_hat(self, depth: int = None) -> float:
        """Max Gibbs ratio deviation over all words of depth <= k+4.

        The ratio compares chain cylinder masses against exp(S_n psi - n P)
        for the realized memory-k potential, whose Birkhoff sums are
        cylinder-constant.  The separate ``potential_error`` field bounds how
        far that realization can sit from the un-truncated potential; folding
        the realization drift into the ratio itself would grow the constant
        exponentially in depth and certify nothing.
        """
        depth = self.memory + 4 if depth is None else int(depth)
        if depth < self.memory:
            raise InvalidWord("depth below the chain memory")
        if depth not in self._hat_cache:
            self._hat_cache[depth] = self._hat_compute(depth)
        return self._hat_cache[depth]

    def _rep_values(self, n: int) -> np.ndarray:
        """S_n psi of the realized potential on every depth-n word."""
        A = self.alphabet_size
        codes = np.arange(A ** n, dtype=np.int64)
        S = np.zeros(A ** n)
        rot = codes
        for _ in range(n):
            S = S + self.gram[rot // A ** (n - self.memory)]
            rot = (rot % A ** (n - 1)) * A + rot // A ** (n - 1)
        return S

    def _hat_compute(self, depth: int) -> float:
        A, L = self.alphabet_size, self.memory
        if A ** depth > ENUMERATION_CAP:
            raise EnumerationCapExceeded(f"{A**depth} words exceed the cap")
        with np.errstate(divide="ignore"):
            logm, step = np.log(self.stationary), np.log(self.transition)
        worst = 1.0
        codes = np.arange(A ** L, dtype=np.int64)
        for n in range(L, depth + 1):
            S = self._rep_values(n)
            # a forbidden word has logm = S = -inf; its NaN ratio is dropped
            with np.errstate(invalid="ignore"):
                ratio = logm - (S - n * self.log_pressure)
            finite = np.isfinite(ratio)
            if finite.any():
                worst = max(worst, float(np.exp(np.abs(ratio[finite]).max())))
            if n < depth:
                end_code = codes % (A ** L)
                logm = (logm[:, None] + step[end_code]).ravel()
                codes = (codes[:, None] * A + np.arange(A)[None, :]).ravel()
        return worst


def _row_law(flow: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Rows flow / mass normalised to sum 1; rows of zero mass stay zero."""
    live = (mass > 0)[:, None]
    law = np.divide(flow, mass[:, None], out=np.zeros_like(flow), where=live)
    return np.divide(law, law.sum(axis=1, keepdims=True), out=law, where=live)


def _cum_table(P: np.ndarray) -> np.ndarray:
    """Row cumsums of a slot law, pinned to 1 from the last allowed slot on.

    With the draw counting entries <= u for u in [0, 1), a zero-probability
    slot is never chosen, so every step follows an allowed transition.
    """
    cum = np.cumsum(P, axis=1)
    last = P.shape[1] - 1 - np.argmax(P[:, ::-1] > 0, axis=1)
    cum[np.arange(P.shape[1])[None, :] >= last[:, None]] = 1.0
    return cum


# -- de Bruijn weight operator ------------------------------------------------
#
# Over full L-word codes i, the allowed successors of i are
# (i mod A^(L-1)) * A + a, and every edge leaving i carries the weight w[i].
# So W h and W^T nu are a multiply and a reshape-sum over (A^(L-1), A), each
# O(A^L); no n x n array is formed.

#: Relative Perron residual at which the power iteration stops.
PERRON_TOL = 1e-13

#: Power-iteration cap; reaching it means the spectral gap is too small.
PERRON_MAX_ITER = 10_000

#: Largest Perron or stationarity residual a built chain may carry.
HEALTH_TOL = 1e-10


def _apply(w: np.ndarray, h: np.ndarray, A: int) -> np.ndarray:
    """W h: weight of each source times the sum of h over its successors."""
    return w * np.tile(h.reshape(-1, A).sum(axis=1), A)


def _apply_transpose(w: np.ndarray, nu: np.ndarray, A: int) -> np.ndarray:
    """W^T nu: sum of nu * w over the A predecessors of each target."""
    return np.repeat((nu * w).reshape(A, -1).sum(axis=0), A)


def _prune_support(finite: np.ndarray, A: int) -> np.ndarray:
    """Codes on a bi-infinite allowed path: some live successor and predecessor."""
    alive = finite.copy()
    while True:
        new = (alive & np.tile(alive.reshape(-1, A).any(axis=1), A)
               & np.repeat(alive.reshape(A, -1).any(axis=0), A))
        if np.array_equal(new, alive):
            return alive
        alive = new


def _successors(A: int, L: int) -> np.ndarray:
    """(A^L, A) table of the code each slot leads to."""
    return (np.arange(A ** L) % A ** (L - 1))[:, None] * A + np.arange(A)


def _check_primitive(alive: np.ndarray, succ: np.ndarray):
    """Live codes form one strong component of period 1 (BFS-level gcd)."""
    n = len(alive)
    src, slot = np.nonzero(alive[:, None] & alive[succ])
    dst = succ[src, slot]
    graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="strong")
    n_comp = len(np.unique(labels[alive]))
    if n_comp > 1:
        raise NonPrimitive(
            f"transition support is reducible ({n_comp} strong components)")
    # pruned codes are isolated: their level is inf, but no live edge reads it
    level = shortest_path(graph, unweighted=True, indices=int(np.argmax(alive)))
    gaps = np.abs(level[src] + 1 - level[dst]).astype(np.int64)
    period = int(np.gcd.reduce(gaps))
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
        Wh = _apply(w, h, A)
        Wnu = _apply_transpose(w, nu, A) * alive
        rho_r, rho_l = Wh.sum(), Wnu.sum()
        res = (np.abs(Wh - rho_r * h).sum() / rho_r,
               np.abs(Wnu - rho_l * nu).sum() / rho_l)
        h, nu = Wh / rho_r, Wnu / rho_l
        if max(res) <= PERRON_TOL:
            break
    else:
        raise NonPrimitive(
            f"Perron power iteration hit {PERRON_MAX_ITER} iterations with "
            f"residuals right {res[0]:.3g}, left {res[1]:.3g}")
    Wh = _apply(w, h, A)
    Wnu = _apply_transpose(w, nu, A) * alive
    rho = float(nu @ Wh / (nu @ h))
    res = (float(np.abs(Wh - rho * h).sum() / rho),
           float(np.abs(Wnu - rho * nu).sum() / rho))
    return h, nu, rho, iterations, res


def _table_memory(potential, memory) -> int:
    """Word length L of the realized table, known before realizing it."""
    if isinstance(potential, GeometricPotential) and memory is not None:
        return memory
    return max(memory or 1, getattr(potential, "memory", 1))


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
    L = _table_memory(potential, memory)
    if A ** L > STATE_CAP:
        raise EnumerationCapExceeded(
            f"{A**L} states exceed the cap {STATE_CAP}; lower the memory")
    base, scale, err, geo = _realize(potential, M, memory, L)
    gram = _scaled(base, scale)
    alive = _prune_support(np.isfinite(gram), A)
    if not alive.any():
        raise NonPrimitive("no admissible bi-infinite words")
    succ = _successors(A, L)
    _check_primitive(alive, succ)

    m0 = gram[alive].max()
    w = np.zeros(A ** L)
    w[alive] = np.exp(gram[alive] - m0)
    h, nu, rho, iterations, res = _perron(w, alive, A)
    if (h[alive] <= 0).any() or (nu[alive] <= 0).any():
        raise NonPrimitive("Perron eigenvectors not strictly positive")
    P = _row_law(w[:, None] * h[succ], rho * h)
    pi = nu * h
    pi /= pi.sum()
    # pi P: the flow of edge (i, a) lands on (i mod A^(L-1)) A + a
    flow = (pi[:, None] * P).reshape(A, -1, A).sum(axis=0).ravel()
    stat_res = float(np.abs(flow - pi).sum())
    for name, value in (("right Perron residual", res[0]),
                        ("left Perron residual", res[1]),
                        ("stationarity residual", stat_res)):
        if not value <= HEALTH_TOL:
            raise NonPrimitive(f"{name} {value:.3g} exceeds {HEALTH_TOL:g}")

    return GibbsApprox(
        max_digit=M, memory=L,
        log_pressure=float(np.log(rho) + m0), n_states=int(alive.sum()),
        transition=P, stationary=pi, gram=gram, gram_base=base,
        potential_error=err, is_geometric=geo,
        perron_iterations=iterations, perron_residual=res,
        stationarity_residual=stat_res,
    )


# ---------------------------------------------------------------------------
# pressure by direct cylinder sums

@dataclass(frozen=True)
class PressureEstimate:
    """Cylinder-sum pressure: naive levels plus the bias-free difference."""

    truncation: int
    depth_values: tuple
    extrapolated: float
    error_est: float
    log_partition: tuple
    potential_error: float


def _log_partition(gram: np.ndarray, L: int, A: int, depth: int) -> float:
    """log sum over depth-n cylinders of exp(exact sup of S_n psi)."""
    N = depth + L - 1
    if A ** N > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"(M^2)^{N} = {A**N} cylinder extensions exceed the cap")
    codes = np.arange(A ** N, dtype=np.int64)
    S = np.zeros(A ** N)
    for i in range(depth):
        win = (codes // A ** (N - i - L)) % A ** L
        S = S + gram[win]
    sup = S.reshape(A ** depth, A ** (N - depth)).max(axis=1)
    finite = sup[np.isfinite(sup)]
    if finite.size == 0:
        raise SummabilityFailure("all depth cylinders forbidden")
    return float(logsumexp(finite))


def pressure_cylinder_sum(potential, max_digit: int, depth: int,
                          memory: int = None) -> PressureEstimate:
    """Pressure from cylinder sums P_n = (1/n) log sum exp(sup S_n psi).

    The sup over each cylinder is exact for the realized finite-memory
    potential (max over the boundary extensions); the memory-realization
    error of geometric potentials is reported, not bounded here.  The
    extrapolated value is the successive difference log Z_n - log Z_{n-1},
    which removes the O(1/n) bias of the naive quotient.
    """
    if depth < 2:
        raise InvalidWord("need depth >= 2 to extrapolate")
    M = check_max_digit(max_digit)
    A = M * M
    L = _table_memory(potential, memory)
    if A ** (depth + L - 1) > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"(M^2)^{depth + L - 1} = {A**(depth + L - 1)} cylinder extensions "
            "exceed the cap")
    base, scale, err, _ = _realize(potential, M, memory, L)
    gram = _scaled(base, scale)
    logZ = [_log_partition(gram, L, A, j) for j in range(1, depth + 1)]
    if not math.isfinite(logZ[0]):
        raise SummabilityFailure("depth-1 cylinder sum is not finite")
    depth_values = tuple(z / j for j, z in enumerate(logZ, start=1))
    extrapolated = logZ[-1] - logZ[-2]
    return PressureEstimate(
        truncation=M, depth_values=depth_values, extrapolated=extrapolated,
        error_est=abs(depth_values[-1] - extrapolated),
        log_partition=tuple(logZ), potential_error=err,
    )


# ---------------------------------------------------------------------------
# entropies

def entropy(g: GibbsApprox) -> float:
    """Entropy rate of the stationary chain."""
    P = g.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    return float(-(g.stationary @ plogp.sum(axis=1)))


def potential_mean(g: GibbsApprox) -> float:
    """Integral of the potential against the Gibbs state."""
    # a pruned code may hold -inf, and its zero mass times -inf is NaN
    return float(g.stationary @ np.where(g.stationary > 0, g.gram, 0.0))


def variational_gap(g: GibbsApprox) -> float:
    """|h + int psi - P|; zero up to eigensolver precision for Gibbs states."""
    return abs(entropy(g) + potential_mean(g) - g.log_pressure)


@dataclass(frozen=True)
class MarginalEntropyDetails:
    which: int
    depth: int
    block_entropies: tuple
    rates: tuple
    value: float
    gap: float


def marginal_entropy_details(g: GibbsApprox, which: int, depth: int
                             ) -> MarginalEntropyDetails:
    """Digit-marginal block entropies by the forward (hidden-Markov) sweep.

    Exact cylinder masses of the digit factor are accumulated per digit word
    while summing over the hidden pair-symbol states.  A digit word of length
    n ends in the projected digits of the chain's last L symbols, so the
    sweep keeps one row per (n - L)-digit prefix over the A^L word codes.
    One step sums the prefix's new digit out of the dropped first symbol and
    appends a successor slot: an einsum over (A, A^(L-1), A).
    """
    if which not in (1, 2):
        raise InvalidWord("marginal coordinate must be 1 or 2")
    M, L, A = g.max_digit, g.memory, g.alphabet_size
    if depth < L + 1:
        raise InvalidWord(f"need depth >= {L + 1}")
    if max(M ** depth * g.n_states, M ** (depth - L) * A ** L) > 5 * 10 ** 7:
        raise EnumerationCapExceeded("digit-word sweep exceeds the cap")
    R = A ** (L - 1)
    P = g.transition.reshape(M, M, R, A)
    beta = g.stationary.reshape(1, A ** L)
    # a code's pair digits are (m_1, n_1, ..., m_L, n_L); sum the other coordinate
    other = tuple(range(2 if which == 1 else 1, 2 * L + 1, 2))
    sweep = "pebr,ebra->pera" if which == 1 else "pber,bera->pera"
    H = []
    for n in range(L, depth + 1):
        nu = beta.reshape((-1,) + (M,) * (2 * L)).sum(axis=other)
        nz = nu[nu > 0]
        H.append(float(-(nz * np.log(nz)).sum()))
        if n < depth:
            beta = np.einsum(sweep, beta.reshape(-1, M, M, R), P).reshape(-1, A ** L)
    rates = tuple(b - a for a, b in zip(H, H[1:]))
    gap = abs(rates[-1] - rates[-2]) if len(rates) >= 2 else math.inf
    return MarginalEntropyDetails(which=which, depth=depth,
                                  block_entropies=tuple(H), rates=rates,
                                  value=rates[-1], gap=gap)


def marginal_entropy(g: GibbsApprox, which: int, depth: int = 8) -> float:
    """Entropy rate H_n - H_{n-1} of one digit-coordinate marginal."""
    return marginal_entropy_details(g, which, depth).value


# ---------------------------------------------------------------------------
# Lyapunov exponents

def lyapunov_marginal(g: GibbsApprox, which: int, n_samples: int = 2000,
                      orbit_len: int = 100, rng_seed=0,
                      window: int = CONTEXT_DEPTH) -> McEstimate:
    """Birkhoff average of -log of the digit-map derivative modulus.

    Each orbit contributes the average of 2 log(x_{t+1} + d_t) with x the
    continued-fraction value of the digit suffix over a sliding window.
    """
    if which not in (1, 2):
        raise InvalidWord("marginal coordinate must be 1 or 2")
    if orbit_len < 50:
        raise InvalidWord("orbit_len must be >= 50")
    rng = _rng(rng_seed)
    m_d, n_d = g.sample_forward_digits(orbit_len + window, n_samples, rng)
    d = m_d if which == 1 else n_d
    x = cf_value_float(sliding_window_view(d[:, 1:], window, axis=1)[:, :orbit_len])
    per_orbit = (2.0 * np.log(x + d[:, :orbit_len])).mean(axis=1)
    return McEstimate(value=float(per_orbit.mean()),
                      se=float(per_orbit.std(ddof=1) / math.sqrt(n_samples)),
                      n=n_samples)


def lyapunov_fiber(g: GibbsApprox, system: SmaleSystem, n_samples: int = 4000,
                   past_depth: int = 40, rng_seed=0,
                   window: int = CONTEXT_DEPTH) -> McEstimate:
    """Monte Carlo -int log|T'| at fiber points from backward sampling."""
    if past_depth < 10:
        raise InvalidWord("past_depth must be >= 10")
    rng = _rng(rng_seed)
    past_m, past_n, fwd_m, fwd_n = g.sample_two_sided(
        past_depth, max(window, g.memory), n_samples, rng)
    pts = fiber_points_bulk(system, past_m, past_n, fwd_m, fwd_n,
                            ctx_depth=window)
    if (np.abs(pts - system.domain.center) > system.domain.radius + 1e-6).any():
        raise DomainEscape("sampled fiber points left the domain")
    family = system.family
    coeff = family.coefficients(system, fwd_m[:, :window], fwd_n[:, :window])
    vals = -np.log(family.derivative_mod(pts, coeff))
    return McEstimate(value=float(vals.mean()),
                      se=float(vals.std(ddof=1) / math.sqrt(n_samples)),
                      n=n_samples)


def lyapunov_fiber_exact(g: GibbsApprox) -> float:
    """Exact chain expectation -int of the realized log-derivative table.

    Defined for geometric potentials only; this is the exponent the
    dimension formulas use so that pressure, entropy, and the exponent obey
    the exact chain identities.
    """
    if not g.is_geometric:
        raise ConfigError("exact fiber exponent needs a geometric potential")
    return float(-(g.stationary @ g.gram_base))


def lyapunov_fiber_table_mc(g: GibbsApprox, n_samples: int = 4000,
                            orbit_len: int = 50, rng_seed=0) -> McEstimate:
    """Monte Carlo of the realized table integrand along chain orbits."""
    if not g.is_geometric:
        raise ConfigError("table Monte Carlo needs a geometric potential")
    rng = _rng(rng_seed)
    codes = g.sample_forward(orbit_len + g.memory - 1, n_samples, rng)
    A, L = g.alphabet_size, g.memory
    word = np.zeros((n_samples, orbit_len), dtype=np.int64)
    for i in range(L):
        word = word * A + codes[:, i : i + orbit_len]
    per_orbit = (-g.gram_base[word]).mean(axis=1)
    return McEstimate(value=float(per_orbit.mean()),
                      se=float(per_orbit.std(ddof=1) / math.sqrt(n_samples)),
                      n=n_samples)


# ---------------------------------------------------------------------------
# derivative identity and measure summaries

def pressure_derivative_check(system: SmaleSystem, s: float,
                              h_step: float = 1e-3, max_digit: int = 3,
                              memory: int = None, n_samples: int = None,
                              orbit_len: int = 50, rng_seed=0):
    """(fd, integral): centered pressure difference vs int log|T'| d mu.

    ``fd`` differentiates the realized pressure in s.  The integral is the
    chain expectation of the realized log-derivative (exact when n_samples
    is None, Monte Carlo over chain orbits otherwise); both sides therefore
    refer to the same realized potential.
    """
    if s - h_step < 0:
        raise ConfigError("s - h_step must stay nonnegative")
    p_hi = gibbs_markov(GeometricPotential(system, s + h_step), max_digit, memory)
    p_lo = gibbs_markov(GeometricPotential(system, s - h_step), max_digit, memory)
    fd = (p_hi.log_pressure - p_lo.log_pressure) / (2.0 * h_step)
    g = gibbs_markov(GeometricPotential(system, s), max_digit, memory)
    if n_samples is None:
        integral = -lyapunov_fiber_exact(g)
        return fd, integral
    mc = lyapunov_fiber_table_mc(g, n_samples, orbit_len, rng_seed)
    return fd, McEstimate(value=-mc.value, se=mc.se, n=mc.n)


@dataclass(frozen=True)
class MeasureStats:
    """Entropies and exponents of one Gibbs state, marginals included."""

    h_mu: float
    h_mu1: float
    h_mu2: float
    chi1: float
    chi2: float
    chi_T: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (self.chi1 > 0 and self.chi2 > 0 and self.chi_T > 0):
            raise DegenerateExponent("all Lyapunov exponents must be positive")


def measure_stats(g: GibbsApprox, system: SmaleSystem, depth: int = 8,
                  n_samples: int = 4000, orbit_len: int = 100,
                  past_depth: int = 40, rng_seed=0) -> MeasureStats:
    """Assemble the entropy/exponent summary of one Gibbs state.

    chi_T uses the exact table expectation when the potential is geometric
    (keeping the summary consistent with the dimension formulas) and falls
    back to the Monte Carlo fiber estimate otherwise.
    """
    ss = np.random.SeedSequence(rng_seed).spawn(3)
    h = entropy(g)
    h1 = marginal_entropy(g, 1, depth)
    h2 = marginal_entropy(g, 2, depth)
    chi1 = lyapunov_marginal(g, 1, n_samples, orbit_len, ss[0]).value
    chi2 = lyapunov_marginal(g, 2, n_samples, orbit_len, ss[1]).value
    if g.is_geometric:
        chi_T = lyapunov_fiber_exact(g)
    else:
        chi_T = lyapunov_fiber(g, system, n_samples, past_depth, ss[2]).value
    return MeasureStats(h_mu=h, h_mu1=min(h1, h), h_mu2=min(h2, h),
                        chi1=chi1, chi2=chi2, chi_T=chi_T,
                        lambda1=math.exp(-chi1), lambda2=math.exp(-chi2))
