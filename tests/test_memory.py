"""Memory contracts: tracemalloc peaks of the point-space queries.

The scenario is the order-16384 rung of the scale ladder: Z_128 x Z_128 on
2 orbits (32768 points), base <(16, 0), (0, 16)>, extra <(8, 0), (0, 8)>,
weights log-uniform over a 1e3 range, 16 real data vectors, and the
``best_invariant`` space of length 2 (dimension 128).  A query on a space
with a range function reads one forward transform of the data and never
assembles the space's 32768 x 128 frame, so its peak is a small multiple
of the data.  Each bound is the measured peak plus one data size of
margin, in units of the complex data matrix (8 MiB); tracemalloc sees
numpy's buffers, not BLAS scratch.
"""
import tracemalloc

import numpy as np
import pytest

from actinv import (
    ActionSpace,
    FiniteAbelianGroup,
    Scenario,
    Subgroup,
    best_invariant,
    evaluate_candidate,
)

# measured: 4.00, 4.00 and 4.01 data sizes (the transform's own buffers
# take three of them); the frame route measured 26.0, 10.0 and 9.0
PEAK_BOUNDS = {"evaluate_candidate": 5.0, "residuals": 5.0, "project": 5.0}


@pytest.fixture(scope="module")
def ladder16384():
    m = 128
    g = FiniteAbelianGroup([m, m])
    rng = np.random.default_rng(0)
    act = ActionSpace.regular(g, 2, weights=np.exp(rng.uniform(0.0, np.log(1e3), 2 * m * m)))
    base = Subgroup(g, [(m // 8, 0), (0, m // 8)])
    scn = Scenario(g, base, Subgroup(g, [(m // 16, 0), (0, m // 16)]), act)
    data = rng.standard_normal((act.n_points, 16))
    return scn, data, best_invariant(scn, data, 2).space


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()`` above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("query", sorted(PEAK_BOUNDS))
def test_query_peaks_are_a_few_data_sizes(ladder16384, query):
    scn, data, space = ladder16384
    assert space.dim == 128
    call = {
        "evaluate_candidate": lambda: evaluate_candidate(scn, data, space),
        "residuals": lambda: space.residuals(data),
        "project": lambda: space.project(data),
    }[query]
    size = data.size * np.dtype(complex).itemsize
    peak = traced_peak(call)
    assert peak <= PEAK_BOUNDS[query] * size, peak / size
    assert "frame" not in vars(space)
