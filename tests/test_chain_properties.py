"""Property tests of the matrix-free Gibbs chain against dense oracles.

The oracles rebuild the n x n weight matrix of a random small table: the
Perron data come from a dense ``np.linalg.eig`` and the primitivity verdict
from boolean squaring up to the Wielandt exponent.  Neither exists in the
package itself.  The draw oracle counts the entries of a whole cumulative
row at most u, the draw the guide table must reproduce exactly.
"""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fiberdim import thermo  # noqa: E402
from fiberdim.errors import NonPrimitive  # noqa: E402
from fiberdim.systems import make_system  # noqa: E402
from fiberdim.thermo import (  # noqa: E402
    GeometricPotential,
    GibbsApprox,
    TablePotential,
    _cum_table,
    _guide_table,
    _rng,
    gibbs_markov,
)
from oracles import digit_block_entropies, enumerate_pair_words  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def tables(draw, forbid_shares=(0.0, 0.1, 0.25, 0.5)):
    """Random (M, L) table potential with a random share of forbidden words."""
    M = draw(st.sampled_from([2, 3]))
    L = draw(st.sampled_from([1, 2, 3]))
    n = (M * M) ** L
    forbid = draw(st.sampled_from(list(forbid_shares)))
    # values come from a drawn seed: hypothesis cannot draw 2 * 729 floats
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values, drops = rng.uniform(-1.0, 1.0, n), rng.random(n)
    words = list(enumerate_pair_words(M, L))
    entries = tuple((w, v) for w, v, d in zip(words, values, drops)
                    if d >= forbid)
    if not entries:
        entries = ((words[0], values[0]),)
    return TablePotential(max_digit=M, memory=L,
                          entries=tuple((w, float(v)) for w, v in entries))


def dense_log_weights(table: TablePotential) -> np.ndarray:
    """log W[i, j] over all L-word codes; -inf off the allowed edges."""
    A, L = table.max_digit ** 2, table.memory
    gram = np.full(A ** L, -np.inf)
    M = table.max_digit
    for word, value in table.entries:
        code = 0
        for m, n in word:
            code = code * A + (m - 1) * M + (n - 1)
        gram[code] = value
    idx = np.arange(A ** L)
    logW = np.full((A ** L, A ** L), -np.inf)
    logW[idx[:, None], (idx % A ** (L - 1))[:, None] * A + np.arange(A)] = \
        gram[:, None]
    return logW


def oracle_prune(support: np.ndarray) -> np.ndarray:
    alive = np.ones(support.shape[0], dtype=bool)
    while True:
        sub = support & alive[:, None] & alive[None, :]
        new = alive & sub.any(axis=1) & sub.any(axis=0)
        if np.array_equal(new, alive):
            return alive
        alive = new


def oracle_primitive(support: np.ndarray) -> bool:
    """Boolean squaring: some power 2^k >= (n-1)^2 + 1 is strictly positive."""
    n = support.shape[0]
    B = support.astype(float)
    steps = max(0, math.ceil(math.log2((n - 1) ** 2 + 1)))
    for _ in range(steps):
        if (B > 0).all():
            return True
        B = ((B @ B) > 0).astype(float)
    return bool((B > 0).all())


def oracle_verdict(logW: np.ndarray):
    """(primitive, kept codes) of the pruned support."""
    alive = oracle_prune(np.isfinite(logW))
    if not alive.any():
        return False, alive
    keep = np.where(alive)[0]
    return oracle_primitive(np.isfinite(logW[np.ix_(keep, keep)])), keep


@PROPERTY
@given(tables(), tables(forbid_shares=(0.6, 0.7, 0.8, 0.9)))
def test_verdict_matches_boolean_squaring(table, sparse):
    # sparse tables reach the reducible, periodic and empty supports
    for t in (table, sparse):
        primitive, _ = oracle_verdict(dense_log_weights(t))
        if primitive:
            gibbs_markov.__wrapped__(t, t.max_digit)
        else:
            with pytest.raises(NonPrimitive):
                gibbs_markov.__wrapped__(t, t.max_digit)


@PROPERTY
@given(tables())
def test_perron_data_match_dense_eig(table):
    logW = dense_log_weights(table)
    primitive, keep = oracle_verdict(logW)
    hypothesis.assume(primitive)
    g = gibbs_markov.__wrapped__(table, table.max_digit)
    assert np.array_equal(np.flatnonzero(g.stationary > 0), keep)
    W = np.exp(logW[np.ix_(keep, keep)])
    vals, vecs = np.linalg.eig(W)
    i = int(np.argmax(np.abs(vals)))
    lvals, lvecs = np.linalg.eig(W.T)
    j = int(np.argmax(np.abs(lvals)))
    h, nu = np.abs(np.real(vecs[:, i])), np.abs(np.real(lvecs[:, j]))
    pi = nu * h / (nu @ h)
    assert g.log_pressure == pytest.approx(math.log(vals[i].real), abs=1e-12)
    np.testing.assert_allclose(g.stationary[keep], pi, rtol=0, atol=1e-10)
    assert g.perron_iterations >= 1
    assert max(g.perron_residual) <= 1e-10
    assert g.stationarity_residual <= 1e-10


@PROPERTY
@given(tables(), st.integers(0, 2 ** 32 - 1))
def test_sampled_steps_are_allowed(table, seed):
    try:
        g = gibbs_markov.__wrapped__(table, table.max_digit)
    except NonPrimitive:
        hypothesis.assume(False)
    A, L = g.alphabet_size, g.memory
    past, fwd = g.sample_two_sided(6, L + 4, 50, seed)
    word = np.concatenate([past[:, ::-1], fwd], axis=1)
    alive = g.stationary > 0
    # every L-window of the two-sided word is a live state, so every step
    # between consecutive windows is an allowed edge
    for t in range(word.shape[1] - L + 1):
        code = np.zeros(len(word), dtype=np.int64)
        for i in range(L):
            code = code * A + word[:, t + i]
        assert alive[code].all()


#: Fewest pair words per length the block-entropy oracle may enumerate before
#: the bracket test caps the sweep.
ORACLE_WORDS = 2000


@PROPERTY
@given(tables())
def test_marginal_bracket_matches_block_entropies(table):
    try:
        g = gibbs_markov.__wrapped__(table, table.max_digit)
    except NonPrimitive:
        hypothesis.assume(False)
    M, L, A = g.max_digit, g.memory, g.alphabet_size
    # a cap stop bounds the depth, and with it the words the oracle sums
    n_max = max(L + 1, int(math.log(ORACLE_WORDS) / math.log(A)))
    with mock.patch.object(thermo, "MARGINAL_SWEEP_CAP", M ** n_max * A ** L):
        brackets = [thermo.marginal_entropy(g, which) for which in (1, 2)]
    for which, est in zip((1, 2), brackets):
        assert L + 1 <= est.depth <= n_max
        # within the tolerance, or stopped by the cap
        assert est.value - est.lower <= thermo.ENTROPY_TOL or est.depth == n_max
        H = {n: digit_block_entropies(g, which, n)
             for n in range(max(L, est.depth - 2), est.depth + 1)}
        upper, lower = (H[est.depth][i] - H[est.depth - 1][i] for i in (0, 1))
        assert est.value == pytest.approx(upper, abs=1e-12)
        assert est.lower == pytest.approx(lower, abs=1e-12)
        # the bounds are differences of block entropies, equal up to rounding
        assert est.lower <= est.value + 1e-12
        if est.depth > L + 1:  # no earlier depth was within the tolerance
            before = [H[est.depth - 1][i] - H[est.depth - 2][i] for i in (0, 1)]
            assert before[0] - before[1] > thermo.ENTROPY_TOL
        if L == 1:  # a memory-1 chain is i.i.d.
            assert est.depth == 2


# -- draws: the guide table against counting the whole cumulative row -------

def oracle_step(cum, row, u):
    return (cum[row] <= u[:, None]).sum(axis=1)


def edge_draws(cum, G, rng):
    """(row, u) covering every bucket edge g / G and every entry of the row
    below 1, each with its two float neighbours, plus u = 0, u = 1 - 2**-53
    and random u."""
    edges = np.arange(G) / G
    common = np.concatenate([edges, [0.0, 1.0 - 2.0 ** -53], rng.random(64)])
    row, u = [], []
    for r, entries in enumerate(cum):
        own = np.concatenate([common, entries[entries < 1.0]])
        own = np.concatenate([own, np.nextafter(own, 1.0)[own < 1.0 - 2.0 ** -53],
                              np.nextafter(own, 0.0)[own > 0.0]])
        row.append(np.full(len(own), r))
        u.append(own)
    return np.concatenate(row), np.concatenate(u)


def check_draws(cum, guide, rng):
    row, u = edge_draws(cum, guide.shape[1], rng)
    slot = GibbsApprox._step((cum, guide), row, u)
    assert np.array_equal(slot, oracle_step(cum, row, u))


@PROPERTY
@given(tables(), st.integers(0, 2 ** 32 - 1))
def test_guide_draw_matches_cumulative_count(table, seed):
    # forbidden words leave zero-probability slots and pruned all-zero rows
    try:
        g = gibbs_markov.__wrapped__(table, table.max_digit)
    except NonPrimitive:
        hypothesis.assume(False)
    rng = np.random.default_rng(seed)
    for cum, guide in g._cums():
        assert guide.shape[1] >= 2 * g.alphabet_size
        check_draws(cum, guide, rng)


def test_guide_draw_on_edge_rows():
    P = np.array([
        # the cumsum rounds above 1 before the last allowed slot
        [0.487919297975474, 0.12449485185888864, 0.3415408221722164,
         0.04604502799342105, 5.480549865069544e-19],
        [0.0, 0.5, 0.0, 0.5, 0.0],       # zero slots first, inside and last
        [0.0, 0.0, 0.0, 0.0, 0.0],       # a pruned code's all-zero row
        [0.0, 0.0, 1.0, 0.0, 0.0],       # one allowed slot
        [0.25, 1e-17, 1e-17, 1e-17, 0.75],  # several slots in one bucket
        [0.2, 0.2, 0.2, 0.2, 0.2],
    ])
    assert (np.cumsum(P[0])[:-1] > 1.0).any()
    cum = _cum_table(P)
    guide = _guide_table(cum)
    assert guide.shape == (6, 16)
    check_draws(cum, guide, np.random.default_rng(0))
    # a slot of zero probability is never drawn
    row, u = edge_draws(cum, 16, np.random.default_rng(1))
    slot = GibbsApprox._step((cum, guide), row, u)
    live = row != 2
    assert (P[row[live], slot[live]] > 0).all()


# in-test copies of the samplers before the guide table: a (count, A) gather
# per step, written into (count, n) columns

def reference_step(cum, row, rng):
    return oracle_step(cum, row, rng.random(len(row)))


def reference_forward(g, code, n_symbols, ahead, rng):
    L, A = g.memory, g.alphabet_size
    out = np.empty((len(code), n_symbols), dtype=np.int64)
    for i in range(L):
        out[:, i] = (code // A ** (L - 1 - i)) % A
    for t in range(L, n_symbols):
        out[:, t] = reference_step(ahead, code % A ** (L - 1), rng)
        code = (code % A ** (L - 1)) * A + out[:, t]
    return out


def reference_sample_forward(g, n_symbols, count, rng):
    rng = _rng(rng)
    code = rng.choice(len(g.stationary), size=count, p=g.stationary)
    return reference_forward(g, code, n_symbols, _cum_table(g.transition), rng)


def reference_two_sided(g, n_past, n_forward, count, rng):
    rng = _rng(rng)
    A, L = g.alphabet_size, g.memory
    ahead, back = _cum_table(g.transition), _cum_table(g.reverse)
    code0 = rng.choice(len(g.stationary), size=count, p=g.stationary)
    past = np.empty((count, n_past), dtype=np.int64)
    code = code0
    for j in range(n_past):
        past[:, j] = reference_step(back, code // A, rng)
        code = past[:, j] * A ** (L - 1) + code // A
    return past, reference_forward(g, code0, n_forward, ahead, rng)


def sparse_chain(M, L):
    """The first primitive chain, over table seeds 0, 1, ..., of a table
    that forbids some words (each with probability 0.2)."""
    words = list(enumerate_pair_words(M, L))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values, keep = rng.uniform(-1, 1, len(words)), rng.random(len(words))
        if keep.min() >= 0.2:
            continue
        table = TablePotential(max_digit=M, memory=L, entries=tuple(
            (w, float(v)) for w, v, k in zip(words, values, keep) if k >= 0.2))
        try:
            return gibbs_markov.__wrapped__(table, M)
        except NonPrimitive:
            continue
    raise AssertionError("no primitive sparse table")


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("kind", ["geometric", "sparse_table"])
@pytest.mark.parametrize("chunk", [None, 37])
def test_samplers_match_reference_copies(L, kind, chunk, monkeypatch):
    if chunk is not None:  # many draw chunks per step, the last one ragged
        monkeypatch.setattr(thermo, "DRAW_CHUNK", chunk)
    if kind == "geometric":
        conj = make_system("inverse_conjugate")
        chains = [gibbs_markov(GeometricPotential(conj, 0.8), 3 if L < 3 else 2, L)]
        if L == 1:  # 289 symbols: codes need uint16
            chains.append(gibbs_markov(GeometricPotential(conj, 0.8), 17, 1))
    else:
        chains = [sparse_chain(2, L)]
        assert (chains[0].transition == 0).any()
    for g in chains:
        dtype = np.uint16 if g.alphabet_size > 256 else np.uint8
        for seed in (0, 1, 7, 2 ** 31 - 1):
            new = g.sample_two_sided(9, L + 7, 500, seed)
            ref = reference_two_sided(g, 9, L + 7, 500, seed)
            assert all(a.dtype == dtype for a in new)
            assert all(np.array_equal(a, b) for a, b in zip(new, ref))
            # digits keep the code dtype
            M = g.max_digit
            for codes, ref_codes in zip(new, ref):
                first, second = g.digits(codes)
                assert first.dtype == second.dtype == dtype
                assert np.array_equal(first, ref_codes // M + 1)
                assert np.array_equal(second, ref_codes % M + 1)
            codes = g.sample_forward(L + 5, 400, seed)
            assert codes.dtype == dtype
            assert np.array_equal(codes,
                                  reference_sample_forward(g, L + 5, 400, seed))
            # no past at all: the draws begin with the forward word
            new = g.sample_two_sided(0, L + 3, 300, seed)
            ref = reference_two_sided(g, 0, L + 3, 300, seed)
            assert all(np.array_equal(a, b) for a, b in zip(new, ref))
