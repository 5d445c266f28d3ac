"""The FFT-based transforms against the dense character-sum oracle.

Checked at 1e-12 relative (in the Euclidean norm of the whole array) on the
six shared scenarios and on generated regular actions: rank 1 to 3, moduli
of 1 allowed, order at most 200, shuffled point labels and log-uniform
weights over a 1e3 range.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from actinv import (
    ActionSpace,
    FiniteAbelianGroup,
    Scenario,
    Subgroup,
    mask_apply,
    zak_full,
    zak_full_inv,
    zak_stacked,
    zak_stacked_inv,
)

RTOL = 1e-12
MAX_ORDER = 200


def assert_rel_close(got, want, rtol=RTOL):
    assert got.shape == want.shape
    err = float(np.linalg.norm(got - want))
    assert err <= rtol * float(np.linalg.norm(want)), err


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def check_against_oracle(scn, rng):
    n, reps = scn.action.n_points, len(scn.tiling.orbit_reps)
    for shape in ((n,), (n, 3)):
        f = complex_normal(rng, shape)
        batch = shape[1:]
        assert_rel_close(zak_full(scn, f), oracle.full(scn, f))
        assert_rel_close(zak_stacked(scn, f), oracle.stacked(scn, f))
        dual = complex_normal(rng, (scn.group.order, reps) + batch)
        assert_rel_close(zak_full_inv(scn, dual), oracle.full_inv(scn, dual))
        fibers = complex_normal(rng, (scn.n_fibers, scn.n_cosets, reps) + batch)
        assert_rel_close(zak_stacked_inv(scn, fibers), oracle.stacked_inv(scn, fibers))
        for xi in scn.block_labels:
            assert_rel_close(mask_apply(scn, xi, f), oracle.mask(scn, xi, f))


def test_transforms_match_oracle(scn):
    check_against_oracle(scn, np.random.default_rng(61))


def test_oracle_round_trips(scn):
    """The oracle is a pair of inverse maps, so agreement is not vacuous."""
    f = complex_normal(np.random.default_rng(67), scn.action.n_points)
    assert_rel_close(oracle.full_inv(scn, oracle.full(scn, f)), f)
    assert_rel_close(oracle.stacked_inv(scn, oracle.stacked(scn, f)), f)


# -- generated regular actions -------------------------------------------------


@st.composite
def scenario_specs(draw):
    rank = draw(st.integers(1, 3))
    moduli = []
    for _ in range(rank):
        room = MAX_ORDER // math.prod(moduli)
        moduli.append(draw(st.integers(1, min(16, room))))
    element = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    base_gens = draw(st.lists(element, max_size=2))
    more_gens = draw(st.lists(element, max_size=2))
    orbits = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return tuple(moduli), base_gens, more_gens, orbits, seed


def build(spec):
    """Regular action with shuffled labels; extra = base + more generators."""
    moduli, base_gens, more_gens, orbits, seed = spec
    g = FiniteAbelianGroup(moduli)
    regular = ActionSpace.regular(g, orbits)
    n = regular.n_points
    rng = np.random.default_rng(seed)
    label = rng.permutation(n)
    perms = []
    for p in regular.generator_perms:
        q = np.empty(n, dtype=np.intp)
        q[label] = label[p]
        perms.append(q)
    weights = 10.0 ** rng.uniform(-1.5, 1.5, n)
    act = ActionSpace(g, n, perms, weights)
    base = Subgroup(g, base_gens)
    extra = Subgroup(g, list(base_gens) + list(more_gens))
    return Scenario(g, base, extra, act), rng


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs())
@example(spec=((1,), [], [], 1, 0))
@example(spec=((3, 1, 4), [(1, 0, 2)], [(0, 0, 1)], 2, 1))
@example(spec=((8, 25), [(2, 5)], [(4, 0)], 1, 2))
def test_generated_actions_match_oracle(spec):
    scn, rng = build(spec)
    check_against_oracle(scn, rng)
