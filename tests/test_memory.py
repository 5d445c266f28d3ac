"""Memory contracts: tracemalloc peaks of the point-space queries and the layers.

The scenario is the order-16384 rung of the scale ladder: Z_128 x Z_128 on
2 orbits (32768 points), base <(16, 0), (0, 16)>, extra <(8, 0), (0, 8)>,
weights log-uniform over a 1e3 range, 16 real data vectors, and the
``best_invariant`` space of length 2 (dimension 128).  A query on a space
with a range function reads one forward transform of the data and never
assembles the space's 32768 x 128 frame, so its peak is a small multiple
of the data.  The transforms, both solvers, an extra-invariant span with
its check pair and CLI ``validate``'s transform self-test are bounded the
same way.  Each bound is the measured peak plus one data size of margin,
in units of the complex data matrix (8 MiB); tracemalloc sees numpy's
buffers, not BLAS scratch.  A layer's first call on the scenario also
builds what the scenario memoises for it (the base character table,
block tables, modulation rows), so each peak was measured as the first
such call in a fresh process.
"""
import tracemalloc

import numpy as np
import pytest

import actinv.cli as cli
from actinv import (
    ActionSpace,
    FiniteAbelianGroup,
    Scenario,
    Subgroup,
    Subspace,
    best_extra_invariant,
    best_invariant,
    check_decomposable,
    check_extra_invariance,
    evaluate_candidate,
    fiber_generators,
    masked_component,
    span_invariant,
    zak_base,
    zak_full,
    zak_stacked,
    zak_stacked_inv,
)

# measured: 4.00, 4.00 and 4.01 data sizes (the transform's own buffers
# take three of them); the frame route measured 26.0, 10.0 and 9.0
PEAK_BOUNDS = {"evaluate_candidate": 5.0, "residuals": 5.0, "project": 5.0}
# measured: 2.00, 2.00, 2.13 (0.13 of it the base's character table),
# 2.01 (of stacked values made before the trace), 3.00, 3.15, 2.46 and
# 1.79 (CLI validate's self-test, which takes its five functions through
# each transform as one batch; one function at a time it measured 0.70)
LAYER_BOUNDS = {
    "zak_full": 3.0,
    "zak_stacked": 3.0,
    "zak_base": 3.14,
    "zak_stacked_inv": 3.01,
    "best_invariant": 4.0,
    "best_extra_invariant": 4.15,
    "span_invariant_pair": 3.46,
    "self_test": 2.79,
}
# measured: 0.35 (a masked component, the first on the space), 0.19 (after
# a check pair on the extra span), 0.26, 24.13 (the first read of the
# frame: three frame sizes of 8 data sizes each) and 16.06 (the frame
# constructor on that frame, transform and correction included)
SPACE_BOUNDS = {
    "masked_component_cold": 1.35,
    "masked_component_after_pair": 1.19,
    "fiber_generators": 1.26,
    "frame": 25.14,
    "frame_constructor": 17.07,
}


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


def _span_pair(scn, gens):
    space = span_invariant(scn, gens, scn.extra)
    check_extra_invariance(scn, space)
    check_decomposable(scn, space)


@pytest.mark.parametrize("layer", sorted(LAYER_BOUNDS))
def test_layer_peaks_are_a_few_data_sizes(ladder16384, layer):
    scn, data, _ = ladder16384
    rng = np.random.default_rng(1)
    gens = rng.standard_normal((scn.action.n_points, 2))
    stacked = zak_stacked(scn, data)
    call = {
        "zak_full": lambda: zak_full(scn, data),
        "zak_stacked": lambda: zak_stacked(scn, data),
        "zak_base": lambda: zak_base(scn, data),
        "zak_stacked_inv": lambda: zak_stacked_inv(scn, stacked),
        "best_invariant": lambda: best_invariant(scn, data, 2),
        "best_extra_invariant": lambda: best_extra_invariant(scn, data, 2),
        "span_invariant_pair": lambda: _span_pair(scn, gens),
        "self_test": lambda: cli._self_test(scn, 0),
    }[layer]
    size = data.size * np.dtype(complex).itemsize
    peak = traced_peak(call)
    assert peak <= LAYER_BOUNDS[layer] * size, peak / size


@pytest.mark.parametrize("call", sorted(SPACE_BOUNDS))
def test_space_peaks_are_bounded(ladder16384, call):
    """Peaks of the zero label's masked component, the generators of a
    range function, the first read of a fiber-built space's frame and the
    frame constructor, on copies of the ``best_invariant`` space, so the
    fixture's space keeps no memo and no frame; the extra span is built
    and checked before the trace."""
    scn, data, space = ladder16384
    copy = Subspace._of_range(scn, space._basis)
    if call == "masked_component_after_pair":
        gens = np.random.default_rng(1).standard_normal((scn.action.n_points, 2))
        copy = span_invariant(scn, gens, scn.extra)
        check_extra_invariance(scn, copy)
        check_decomposable(scn, copy)
    frame = copy.frame if call == "frame_constructor" else None
    run = {
        "masked_component_cold": lambda: masked_component(scn, copy, scn.group.zero),
        "masked_component_after_pair": lambda: masked_component(scn, copy, scn.group.zero),
        "fiber_generators": lambda: fiber_generators(copy),
        "frame": lambda: copy.frame,
        "frame_constructor": lambda: Subspace(scn, frame),
    }[call]
    size = data.size * np.dtype(complex).itemsize
    peak = traced_peak(run)
    assert peak <= SPACE_BOUNDS[call] * size, peak / size
    assert "frame" not in vars(space)
