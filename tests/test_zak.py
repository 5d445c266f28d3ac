"""Transforms: goldens, round trips, isometries, intertwining, the relation."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from actinv import (
    ActionSpace,
    FiniteAbelianGroup,
    Scenario,
    Subgroup,
    dual_partition,
    fold_orbits,
    mask_apply,
    translate,
    unfold_orbits,
    zak_base,
    zak_base_inv,
    zak_full,
    zak_full_inv,
    zak_relation_deviation,
    zak_stacked,
    zak_stacked_inv,
)
from actinv.zak import _group_dft, base_norm, full_norm, stacked_norm, unfold_norm

import oracle
from conftest import random_function


def z2_full_base():
    """Two points, weights (1, 4), base subgroup equal to the whole group."""
    g = FiniteAbelianGroup([2])
    act = ActionSpace(g, 2, [[1, 0]], weights=[1.0, 4.0])
    return Scenario(g, Subgroup(g, [(1,)]), Subgroup(g, [(1,)]), act)


def test_base_zak_golden_two_points():
    g = FiniteAbelianGroup([2])
    scn = Scenario(
        g, Subgroup(g, [(1,)]), Subgroup(g, [(1,)]), ActionSpace.regular(g)
    )
    delta0 = np.array([1.0, 0.0])
    delta1 = np.array([0.0, 1.0])
    z0 = zak_base(scn, delta0)
    z1 = zak_base(scn, delta1)
    assert z0.shape == (2, 1)
    # the atom at the tile point contributes only the trivial term
    assert_allclose(z0[:, 0], [1.0, 1.0], atol=1e-12)
    # the shifted atom alternates sign with the character
    assert_allclose(z1[:, 0], [1.0, -1.0], atol=1e-12)


def test_unfold_golden_two_points():
    scn = z2_full_base()
    phi0 = unfold_orbits(scn, np.array([1.0, 0.0]))
    phi1 = unfold_orbits(scn, np.array([0.0, 1.0]))
    assert phi0.shape == (1, 2)
    assert_allclose(phi0[0], [1.0, 0.0])
    assert_allclose(phi1[0], [0.0, 2.0])  # jacobian root 2 at the far point
    assert unfold_norm(scn, phi1) == pytest.approx(2.0)


def test_full_zak_inverse_of_ones_is_rep_indicator(scn):
    ones = np.ones((scn.group.order, len(scn.tiling.orbit_reps)), dtype=complex)
    f = zak_full_inv(scn, ones)
    expected = np.zeros(scn.action.n_points, dtype=complex)
    expected[list(scn.tiling.orbit_reps)] = 1.0
    assert_allclose(f, expected, atol=1e-12)


def test_round_trips_and_isometries(scn):
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = random_function(scn, rng)
        ref = scn.action.norm(f)
        zb = zak_base(scn, f)
        zf = zak_full(scn, f)
        zs = zak_stacked(scn, f)
        assert zb.shape == (scn.n_fibers, len(scn.tiling.tiles))
        assert zf.shape == (scn.group.order, len(scn.tiling.orbit_reps))
        assert zs.shape == (scn.n_fibers, scn.n_cosets, len(scn.tiling.orbit_reps))
        assert base_norm(scn, zb) == pytest.approx(ref, rel=1e-12)
        assert full_norm(scn, zf) == pytest.approx(ref, rel=1e-12)
        assert stacked_norm(scn, zs) == pytest.approx(ref, rel=1e-12)
        assert_allclose(zak_base_inv(scn, zb), f, atol=1e-12 * ref)
        assert_allclose(zak_full_inv(scn, zf), f, atol=1e-12 * ref)
        assert_allclose(zak_stacked_inv(scn, zs), f, atol=1e-12 * ref)


def test_transforms_columnwise(scn):
    rng = np.random.default_rng(17)
    mat = np.column_stack([random_function(scn, rng) for _ in range(3)])
    zb = zak_base(scn, mat)
    zf = zak_full(scn, mat)
    zs = zak_stacked(scn, mat)
    for j in range(3):
        assert_allclose(zb[..., j], zak_base(scn, mat[:, j]))
        assert_allclose(zf[..., j], zak_full(scn, mat[:, j]))
        assert_allclose(zs[..., j], zak_stacked(scn, mat[:, j]))
    assert_allclose(zak_base_inv(scn, zb), mat, atol=1e-12)
    assert_allclose(zak_full_inv(scn, zf), mat, atol=1e-12)
    assert_allclose(zak_stacked_inv(scn, zs), mat, atol=1e-12)


def test_base_zak_preserves_inner_products(scn):
    rng = np.random.default_rng(23)
    f, g = random_function(scn, rng), random_function(scn, rng)
    zf, zg = zak_base(scn, f), zak_base(scn, g)
    lhs = scn.action.inner(f, g)
    rhs = complex(np.sum(zf * np.conj(zg) * scn.tile_weights) / scn.n_fibers)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_base_zak_intertwines_base_translates(scn):
    rng = np.random.default_rng(29)
    f = random_function(scn, rng)
    zb = zak_base(scn, f)
    for gam in scn.base.elements:
        moved = zak_base(scn, translate(scn.action, gam, f))
        for w, omega in enumerate(scn.omega):
            assert_allclose(
                moved[w], scn.group.pairing(gam, omega) * zb[w], atol=1e-10
            )


def test_full_zak_intertwines_all_translates(scn):
    rng = np.random.default_rng(31)
    f = random_function(scn, rng)
    zf = zak_full(scn, f)
    for tau in scn.group.elements:
        moved = zak_full(scn, translate(scn.action, tau, f))
        phases = np.array([scn.group.pairing(tau, h) for h in scn.group.elements])
        assert_allclose(moved, phases[:, None] * zf, atol=1e-10)


def test_dual_split_and_unsplit(scn):
    for i, el in enumerate(scn.group.elements):
        w, k = scn.dual_split[i]
        assert scn.group.add(scn.omega[w], scn.annihilator_order[k]) == el
        assert scn.dual_unsplit[w, k] == i


def test_stacked_equals_regrouped_full(scn):
    rng = np.random.default_rng(37)
    f = random_function(scn, rng)
    full = zak_full(scn, f)
    stacked = zak_stacked(scn, f)
    scale = np.sqrt(scn.n_cosets)
    for i in range(scn.group.order):
        w, k = scn.dual_split[i]
        assert_allclose(stacked[w, k], full[i] / scale, atol=1e-12)


def test_unfold_isometry_translation_and_fold(scn):
    rng = np.random.default_rng(43)
    f = random_function(scn, rng)
    phi = unfold_orbits(scn, f)
    assert phi.shape == (len(scn.tiling.orbit_reps), scn.group.order)
    assert unfold_norm(scn, phi) == pytest.approx(scn.action.norm(f), rel=1e-12)
    assert_allclose(fold_orbits(scn, phi), f, atol=1e-12)
    for tau in (scn.group.elements[1], scn.group.elements[-1]):
        moved = unfold_orbits(scn, translate(scn.action, tau, f))
        perm = [
            scn.group.index(scn.group.sub(t, tau)) for t in scn.group.elements
        ]
        assert_allclose(moved, phi[:, perm], atol=1e-12)


def test_unfold_dft_recovers_full_zak(scn):
    rng = np.random.default_rng(47)
    f = random_function(scn, rng)
    phi = unfold_orbits(scn, f)
    zf = zak_full(scn, f)
    spectrum = phi @ oracle.analysis_chars(scn.group)  # row DFT, character pairing(-t, .)
    for i, el in enumerate(scn.group.elements):
        j = scn.group.index(scn.group.neg(el))
        assert_allclose(spectrum[:, i], zf[j], atol=1e-10)


def test_zak_relation(scn):
    """The relation holds for each function, and a matrix of columns reads
    the largest of their deviations, bit for bit: one column alone reads
    its function's deviation, and three read the max of theirs."""
    rng = np.random.default_rng(53)
    fs = [random_function(scn, rng) for _ in range(3)]
    each = [zak_relation_deviation(scn, f) for f in fs]
    assert max(each) < 1e-10
    for f, deviation in zip(fs, each):
        assert zak_relation_deviation(scn, f[:, None]) == deviation
    assert zak_relation_deviation(scn, np.column_stack(fs)) == max(each)


def test_coset_dft_unitary(scn):
    m = scn.coset_dft / np.sqrt(scn.n_cosets)
    assert_allclose(m @ m.conj().T, np.eye(scn.n_cosets), atol=1e-12)


def held_arrays(obj):
    """(attribute, array) for every array an object holds, also in tuples and lists."""
    for name, value in vars(obj).items():
        items = value if isinstance(value, (tuple, list)) else (value,)
        for arr in items:
            if isinstance(arr, np.ndarray):
                yield name, arr


def test_scenario_caches_no_group_squared_table(scn):
    """After every transform has run, no cached array has |G|^2 entries,
    every array of the three gather plans has one entry per point, and the
    action holds no array larger than its point count."""
    rng = np.random.default_rng(71)
    f = random_function(scn, rng)
    zak_base_inv(scn, zak_base(scn, f))
    zak_stacked_inv(scn, zak_stacked(scn, f))
    fold_orbits(scn, unfold_orbits(scn, f))
    zak_relation_deviation(scn, f)
    translate(scn.action, scn.group.elements[-1], f)
    limit = scn.group.order ** 2
    for name, arr in held_arrays(scn):
        assert arr.size < limit, name
    plans = ("_base_gather", "_full_gather", "_unfold_gather")
    assert set(plans) <= set(vars(scn))
    for name in plans:
        assert [arr.size for arr in vars(scn)[name]] == [scn.action.n_points] * 4, name
    for name, arr in held_arrays(scn.action):
        assert arr.size <= scn.action.n_points, name
    assert {"point_of", "coordinates"} <= set(vars(scn.action))


def test_sequence_plan_reuses_the_action_and_full_tables(scn):
    """The unfold plan's table is the action's ``point_of`` and its
    reciprocal roots are the full plan's: the two are bitwise one array,
    ``1 / jacobian(tau, x)**0.5`` at each point ``sigma_tau(x)``."""
    table, roots, where, recip = scn._unfold_gather
    assert np.shares_memory(table, scn.action.point_of)
    assert np.shares_memory(recip, scn._full_gather[3])
    assert np.array_equal(where[table.ravel()], np.arange(scn.action.n_points))
    assert roots.flags.c_contiguous and roots.shape == table.shape


def test_order_4096_scenario_builds_in_linear_memory():
    """Z_64 x Z_64 on 2 orbits (8192 points): O(n) set-up memory, exact round trip.

    A |G| x n action table alone would take 256 MiB here.
    """
    rng = np.random.default_rng(73)
    n = 2 * 64 * 64
    weights = np.exp(rng.uniform(0.0, np.log(1e3), n))
    tracemalloc.start()
    try:
        g = FiniteAbelianGroup([64, 64])
        act = ActionSpace.regular(g, orbits=2, weights=weights)
        base = Subgroup(g, [(8, 0), (0, 8)])
        extra = Subgroup(g, [(4, 0), (0, 4)])
        scn = Scenario(g, base, extra, act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    f = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    back = zak_full_inv(scn, zak_full(scn, f))
    for j in range(2):
        assert act.norm(back[:, j] - f[:, j]) <= 1e-12 * act.norm(f[:, j])


def test_base_inverse_does_not_copy_the_character_table():
    """Z_32 x Z_32 on 2 orbits with base = G: the base table has 1024^2
    entries, 16 MiB, and one inverse of a single function (32 KiB of
    values) conjugates the values and the product instead, so it peaks
    far below the table and still inverts ``zak_base``."""
    g = FiniteAbelianGroup([32, 32])
    whole = Subgroup(g, [(1, 0), (0, 1)])
    scn = Scenario(g, whole, whole, ActionSpace.regular(g, orbits=2))
    f = random_function(scn, np.random.default_rng(74))
    zb = zak_base(scn, f)  # the scenario's table and gather plan, built once
    tracemalloc.start()
    try:
        back = zak_base_inv(scn, zb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scn.chars_base_omega.nbytes == 16 * 2**20
    assert peak < 2**20, peak
    assert scn.action.norm(back - f) <= 1e-12 * scn.action.norm(f)


@pytest.mark.parametrize("shape", [(29,), (29, 2), (23,)])
def test_transforms_reject_a_function_of_the_wrong_length(bank, shape):
    """A vector longer or shorter than the point set is refused, not cut.

    On 24 points, 29 entries would otherwise transform the first 24.
    """
    scn = bank["two_orbits"]
    f = np.ones(shape, dtype=complex)
    for transform in (zak_full, zak_base, zak_stacked, unfold_orbits):
        with pytest.raises(ValueError, match=f"{shape[0]} entries, space has 24 points"):
            transform(scn, f)
    with pytest.raises(ValueError, match="space has 24 points"):
        mask_apply(scn, dual_partition(scn).labels[0], f)


@pytest.mark.parametrize(
    "inverse, forward, counted",
    [
        (zak_base_inv, zak_base, "3 fibers x 8 tile points"),
        (zak_full_inv, zak_full, "12 dual elements x 2 orbits"),
        (zak_stacked_inv, zak_stacked, "3 fibers x 4 cosets x 2 orbits"),
        (fold_orbits, unfold_orbits, "2 orbits x 12 group elements"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_inverse_transforms_check_their_input(bank, inverse, forward, counted):
    """An inverse refuses values with a slot too many on a leading axis (not
    dropping it) and non-finite values (not returning NaN), naming the
    counts its input must have; a batch axis behind them is free."""
    scn = bank["two_orbits"]
    values = forward(scn, random_function(scn, np.random.default_rng(77)))
    for axis in range(values.ndim):
        pad = [(0, 0)] * values.ndim
        pad[axis] = (0, 1)
        with pytest.raises(ValueError, match=f"expected {counted}, got shape"):
            inverse(scn, np.pad(values, pad))
    for bad in (np.nan, np.inf):
        broken = values.copy()
        broken.flat[5] = bad
        with pytest.raises(ValueError, match="finite"):
            inverse(scn, broken)
    assert inverse(scn, values[..., None]).shape == (scn.action.n_points, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=str)
@pytest.mark.parametrize(
    "forward",
    [zak_base, zak_full, zak_stacked, unfold_orbits, zak_relation_deviation],
    ids=lambda f: f.__name__,
)
def test_forward_transforms_refuse_non_finite_functions(bank, forward, bad):
    """A non-finite value at one point is refused, not spread over the
    transform values; the relation check so cannot pass on a NaN deviation."""
    scn = bank["two_orbits"]
    f = random_function(scn, np.random.default_rng(79))
    for good in (f, np.column_stack([f, f])):
        broken = good.copy()
        broken[5] = bad
        with pytest.raises(ValueError, match="function values must be finite"):
            forward(scn, broken)
        forward(scn, good)


@pytest.mark.parametrize("moduli", [(12,), (4, 6), (2, 3, 4)])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_group_dft_has_the_bits_of_fftn(moduli, batch):
    """``_group_dft`` goes one cyclic factor at a time; forward and inverse,
    in place or not, it has the bits of ``np.fft.fftn``/``ifftn`` over the
    group axes, trailing batch axes carried along.  Out of place it leaves
    its input as it was; in place it writes into it."""
    group = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(42)
    shape = (group.order,) + batch
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(group.rank))
    for inverse, reference in ((False, np.fft.fftn), (True, np.fft.ifftn)):
        want = reference(a.reshape(moduli + batch), axes=axes).reshape(a.shape)
        kept = a.copy()
        out = _group_dft(group, a, inverse=inverse)
        assert out.tobytes() == want.tobytes()
        assert a.tobytes() == kept.tobytes() and not np.shares_memory(out, a)
        out = _group_dft(group, kept, inverse=inverse, in_place=True)
        assert out.tobytes() == want.tobytes()
        assert kept.tobytes() == want.tobytes() and np.shares_memory(out, kept)
