"""Property tests of the cylinder-sum pressure sweep against enumeration.

The oracle enumerates every (n + L - 1)-word, sums its n windows, takes the
max over the L - 1 free extension symbols and the log-sum-exp over the
depth-n cylinders.  It exists only here; the package computes the same
partition sums by one dynamic-programming sweep.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from test_chain_properties import (PROPERTY, dense_log_weights,  # noqa: E402
                                   tables)

from fiberdim.errors import NonPrimitive, SummabilityFailure  # noqa: E402
from fiberdim.systems import make_system  # noqa: E402
from fiberdim.thermo import (GeometricPotential, gibbs_markov,  # noqa: E402
                             pressure_cylinder_sum)

#: Largest word count the oracle enumerates.
ORACLE_WORDS = 200_000


def enumerated_log_partition(gram: np.ndarray, L: int, A: int,
                             depth: int) -> float:
    """log sum over depth-n cylinders of exp(exact sup of S_n psi)."""
    N = depth + L - 1
    codes = np.arange(A ** N, dtype=np.int64)
    S = np.zeros(A ** N)
    for i in range(depth):
        S = S + gram[(codes // A ** (N - i - L)) % A ** L]
    sup = S.reshape(A ** depth, A ** (N - depth)).max(axis=1)
    finite = sup[np.isfinite(sup)]
    if finite.size == 0:
        raise SummabilityFailure("all depth cylinders forbidden")
    return float(logsumexp(finite))


def oracle_depth(table) -> int:
    """Deepest cylinder level whose extensions the oracle can enumerate."""
    A, L = table.max_digit ** 2, table.memory
    depth = 1
    while A ** (depth + L) <= ORACLE_WORDS:
        depth += 1
    return max(depth, 2)


@PROPERTY
@given(tables())
def test_sweep_matches_enumeration(table):
    A, L = table.max_digit ** 2, table.memory
    depth = oracle_depth(table)
    gram = dense_log_weights(table).max(axis=1)  # row i carries psi(i)
    try:
        expected = [enumerated_log_partition(gram, L, A, n)
                    for n in range(1, depth + 1)]
    except SummabilityFailure:
        with pytest.raises(SummabilityFailure):
            pressure_cylinder_sum(table, table.max_digit, depth)
        return
    est = pressure_cylinder_sum(table, table.max_digit, depth)
    for got, want in zip(est.log_partition, expected, strict=True):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@PROPERTY
@given(tables())
def test_successive_difference_converges_to_perron_root(table):
    try:
        g = gibbs_markov.__wrapped__(table, table.max_digit)
    except NonPrimitive:
        hypothesis.assume(False)
    logZ = pressure_cylinder_sum(table, table.max_digit, 60).log_partition
    # the spectral gap, not the sweep, sets how fast the difference settles
    assert abs((logZ[59] - logZ[58]) - g.log_pressure) <= 1e-4


@pytest.mark.parametrize("M, L", [(5, 2), (8, 2), (4, 3)])
def test_geometric_depth_40_matches_perron_root(M, L):
    pot = GeometricPotential(make_system("inverse_conjugate"), 1.0)
    est = pressure_cylinder_sum(pot, M, 40, memory=L)
    g = gibbs_markov(pot, M, L)
    assert abs(est.extrapolated - g.log_pressure) <= 1e-12
