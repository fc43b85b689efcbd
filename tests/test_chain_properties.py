"""Property tests of the matrix-free Gibbs chain against dense oracles.

The oracles rebuild the n x n weight matrix of a random small table: the
Perron data come from a dense ``np.linalg.eig`` and the primitivity verdict
from boolean squaring up to the Wielandt exponent.  Neither exists in the
package itself.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fiberdim.errors import NonPrimitive  # noqa: E402
from fiberdim.thermo import TablePotential, gibbs_markov  # noqa: E402
from fiberdim.words import enumerate_pair_words  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def tables(draw):
    """Random (M, L) table potential with a random share of forbidden words."""
    M = draw(st.sampled_from([2, 3]))
    L = draw(st.sampled_from([1, 2, 3]))
    n = (M * M) ** L
    forbid = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
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
        gram[code] = table.scale * value
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
@given(tables())
def test_verdict_matches_boolean_squaring(table):
    primitive, _ = oracle_verdict(dense_log_weights(table))
    if primitive:
        gibbs_markov.__wrapped__(table, table.max_digit)
    else:
        with pytest.raises(NonPrimitive):
            gibbs_markov.__wrapped__(table, table.max_digit)


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
    A, L, M = g.alphabet_size, g.memory, g.max_digit
    pm, pn, fm, fn = g.sample_two_sided(6, L + 4, 50, seed)
    past = ((pm - 1) * M + pn - 1)[:, ::-1]
    word = np.concatenate([past, (fm - 1) * M + fn - 1], axis=1)
    alive = g.stationary > 0
    # every L-window of the two-sided word is a live state, so every step
    # between consecutive windows is an allowed edge
    for t in range(word.shape[1] - L + 1):
        code = np.zeros(len(word), dtype=np.int64)
        for i in range(L):
            code = code * A + word[:, t + i]
        assert alive[code].all()
