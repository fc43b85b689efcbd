"""Property test of the chain Bowen root against the scalar Moran root.

For a similarity schedule the geometric potential is a one-symbol table, so
the pressure of the realized chain is log sum r^s over the moduli.  The
Bowen root, solved on Gibbs chains, and the Moran root, solved on the moduli
alone, must then agree to solver precision.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fiberdim.dimension import bowen_dimension, moran_root  # noqa: E402
from fiberdim.systems import SimilaritySchedule, make_system  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def schedules(draw):
    """(system, M) for a custom schedule with random ratios in [0.005, 0.33)."""
    M = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ratios = rng.uniform(0.005, 0.33, M * M)
    table = tuple((m + 1, n + 1, float(r), 0.0, 0.0)
                  for (m, n), r in zip(np.ndindex(M, M), ratios))
    sched = SimilaritySchedule(kind="custom", table=table)
    return make_system("similarity", schedule=sched), M


@PROPERTY
@given(schedules())
def test_bowen_root_matches_moran(case):
    system, M = case
    res = bowen_dimension(system, M, tol=1e-12)
    want = moran_root(system.family.moduli(system, M))
    assert abs(res.root - want) <= 1e-11
    assert res.iterations <= 6
