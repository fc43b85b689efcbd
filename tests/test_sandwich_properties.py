"""Property tests of the Gibbs sandwich sweep against word enumeration.

The oracle enumerates every word of each depth, builds its cyclic Birkhoff
sum window by window and its chain mass step by step, and takes the largest
|log ratio| over the words where both are finite.  It exists only here;
``oracles.gibbs_constant_hat`` computes the same constant by max-plus sweeps
over (first, last) L-word code pairs.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from test_chain_properties import PROPERTY, tables  # noqa: E402

from fiberdim.errors import NonPrimitive  # noqa: E402
from fiberdim.systems import make_system  # noqa: E402
from fiberdim.thermo import GeometricPotential, gibbs_markov  # noqa: E402

from oracles import gibbs_constant_hat  # noqa: E402

#: Largest word count the oracle enumerates at one depth.
ORACLE_WORDS = 200_000


def cyclic_sums(g, n: int) -> np.ndarray:
    """S_n psi of the realized potential on every depth-n word."""
    A = g.alphabet_size
    rot = np.arange(A ** n, dtype=np.int64)
    S = np.zeros(A ** n)
    for _ in range(n):
        S = S + g.gram[rot // A ** (n - g.memory)]
        rot = (rot % A ** (n - 1)) * A + rot // A ** (n - 1)
    return S


def enumerated_constants(g, depth: int) -> list:
    """The sandwich constant over depths L .. n, for every n <= depth."""
    A, L = g.alphabet_size, g.memory
    with np.errstate(divide="ignore"):
        logm, step = np.log(g.stationary), np.log(g.transition)
    codes = np.arange(A ** L, dtype=np.int64)
    worst, out = 1.0, []
    for n in range(L, depth + 1):
        # a forbidden word has logm = S = -inf; its NaN ratio is dropped
        with np.errstate(invalid="ignore"):
            ratio = logm - (cyclic_sums(g, n) - n * g.log_pressure)
        finite = np.isfinite(ratio)
        if finite.any():
            worst = max(worst, float(np.exp(np.abs(ratio[finite]).max())))
        out.append(worst)
        if n < depth:
            logm = (logm[:, None] + step[codes % A ** (L - 1)]).ravel()
            codes = (codes[:, None] * A + np.arange(A)[None, :]).ravel()
    return out


def assert_sweep_matches_enumeration(g):
    A, L = g.alphabet_size, g.memory
    depth = L
    while depth < L + 4 and A ** (depth + 1) <= ORACLE_WORDS:
        depth += 1
    expected = enumerated_constants(g, depth)
    for n, want in enumerate(expected, start=L):
        got = gibbs_constant_hat(g, n)
        assert abs(got - want) <= 1e-12 * want


@PROPERTY
@given(tables())
def test_sweep_matches_enumeration(table):
    try:
        g = gibbs_markov.__wrapped__(table, table.max_digit)
    except NonPrimitive:
        hypothesis.assume(False)
    assert_sweep_matches_enumeration(g)


@pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square"])
@pytest.mark.parametrize("M, L", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_geometric_sweep_matches_enumeration(variant, M, L):
    pot = GeometricPotential(make_system(variant), 1.5)
    assert_sweep_matches_enumeration(gibbs_markov(pot, M, L))

