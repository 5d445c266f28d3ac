"""Action layer: composed tables, weighted unitaries, jacobians, tilings."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from actinv import (
    ActionError,
    ActionSpace,
    FiniteAbelianGroup,
    FreenessError,
    OrbitError,
    Subgroup,
    coset_section,
    jacobian,
    tiling_sets,
    translate,
    validate_action,
)

from conftest import random_function


def z2_weighted():
    g = FiniteAbelianGroup([2])
    return g, ActionSpace(g, 2, [[1, 0]], weights=[1.0, 4.0])


def test_translate_golden_two_points():
    g, act = z2_weighted()
    f = np.array([1.0, 0.0])
    out = translate(act, (1,), f)
    # the shifted atom picks up the square root of the weight ratio
    assert_allclose(out, [0.0, 0.5])
    assert jacobian(act, (1,), 0) == pytest.approx(4.0)
    assert jacobian(act, (1,), 1) == pytest.approx(0.25)
    assert act.norm(out) == pytest.approx(act.norm(f))


def test_inner_product_weighted():
    g, act = z2_weighted()
    f = np.array([1.0, 1.0], dtype=complex)
    h = np.array([1.0, 1j])
    assert act.inner(f, h) == pytest.approx(1.0 - 4.0j)
    assert act.norm(h) == pytest.approx(np.sqrt(5.0))


def test_norm_and_inner_weight_columns_along_the_points(scn):
    """A matrix of columns is weighted along its point axis, as
    ``translate`` weights it: one column reads what its 1-D function reads,
    bit for bit, and several the sums over them.  Weighted along the last
    axis, a column read 35.1 where the function read 7.53 (two_orbits)."""
    rng = np.random.default_rng(0)
    f, h = random_function(scn, rng), random_function(scn, rng)
    act = scn.action
    assert act.norm(f[:, None]) == act.norm(f)
    assert act.inner(f[:, None], h[:, None]) == act.inner(f, h)
    both, other = np.column_stack([f, h]), np.column_stack([h, f])
    assert act.norm(both) == pytest.approx(np.hypot(act.norm(f), act.norm(h)), rel=1e-14)
    assert act.inner(both, other) == pytest.approx(2 * act.inner(f, h).real, rel=1e-14)


def test_translate_is_unitary(scn):
    rng = np.random.default_rng(11)
    f = random_function(scn, rng)
    h = random_function(scn, rng)
    for tau in scn.group.elements:
        mf = translate(scn.action, tau, f)
        mh = translate(scn.action, tau, h)
        assert scn.action.norm(mf) == pytest.approx(scn.action.norm(f), rel=1e-12)
        assert scn.action.inner(mf, mh) == pytest.approx(
            scn.action.inner(f, h), abs=1e-10
        )


def test_translate_representation_law(scn):
    rng = np.random.default_rng(7)
    f = random_function(scn, rng)
    els = scn.group.elements
    for a in els[:4]:
        for b in els[-4:]:
            lhs = translate(scn.action, a, translate(scn.action, b, f))
            rhs = translate(scn.action, scn.group.add(a, b), f)
            assert_allclose(lhs, rhs, atol=1e-12)
    # zero acts as the identity
    assert_allclose(translate(scn.action, scn.group.zero, f), f)


def test_translate_columnwise(scn):
    rng = np.random.default_rng(5)
    mat = np.column_stack([random_function(scn, rng) for _ in range(3)])
    tau = scn.group.elements[1]
    moved = translate(scn.action, tau, mat)
    for j in range(3):
        assert_allclose(moved[:, j], translate(scn.action, tau, mat[:, j]))
    with pytest.raises(ValueError):
        translate(scn.action, tau, mat[:-1])


def test_jacobian_cocycle(scn):
    act = scn.action
    for a in scn.group.elements[:3]:
        for b in scn.group.elements[:3]:
            lhs = jacobian(act, scn.group.add(a, b))
            rhs = jacobian(act, a)[act.sigma(b)] * jacobian(act, b)
            assert_allclose(lhs, rhs, rtol=1e-12)
    assert_allclose(jacobian(act, scn.group.zero), np.ones(act.n_points))


@pytest.mark.parametrize("x", [-1, 2.7, 4, True], ids=["negative", "fraction", "past-end", "bool"])
def test_jacobian_refuses_a_point_outside_the_space(x):
    """A point is an integer in 0..n_points - 1: a negative one does not
    wrap to the last point, a fraction is not truncated, one past the end
    is not an ``IndexError``."""
    g = FiniteAbelianGroup([4])
    act = ActionSpace.regular(g, weights=[1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError, match=r"^point must be an integer in 0\.\.3, got"):
        jacobian(act, (1,), x)
    assert jacobian(act, (1,), np.int64(3)) == 0.125


@pytest.mark.parametrize(
    "tau, message",
    [
        ((1.7,), "element coordinates must be integers"),
        ((True,), "element coordinates must be integers"),
        (1, "element must be a sequence of integers"),
    ],
    ids=["fraction", "bool", "bare-integer"],
)
def test_jacobian_refuses_an_element_that_is_not_integer_coordinates(tau, message):
    """The translation is read off integer coordinates: (1.7,) is not the
    element (1,), and a bare integer is not an element of Z_4."""
    g = FiniteAbelianGroup([4])
    act = ActionSpace.regular(g, weights=[1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError, match=message):
        jacobian(act, tau, 0)
    with pytest.raises(ValueError, match=message):
        translate(act, tau, np.ones(4))
    assert jacobian(act, (np.int64(1),), 0) == 2.0


def test_translate_refuses_a_function_with_a_nan_entry(scn):
    f = random_function(scn, np.random.default_rng(6))
    f[2] = np.nan
    with pytest.raises(ValueError, match="^function must be finite"):
        translate(scn.action, scn.group.elements[1], f)


def test_translate_refuses_an_array_of_rank_three(scn):
    n = scn.action.n_points
    with pytest.raises(ValueError, match=rf"^function must have shape \({n},\) or \({n}, k\)"):
        translate(scn.action, scn.group.elements[1], np.ones((n, 2, 2)))


def test_validate_action_reports_orbits():
    g = FiniteAbelianGroup([12])
    act = ActionSpace.regular(g, orbits=2)
    rep = validate_action(act)
    assert rep.orbit_count == 2
    assert rep.orbits[0] == tuple(range(12))
    assert rep.orbits[1] == tuple(range(12, 24))
    assert rep.as_dict()["free"] is True


def test_validate_action_detects_fixed_points():
    g = FiniteAbelianGroup([4])
    # generator of order two: (2,) then acts as the identity
    act = ActionSpace(g, 4, [[1, 0, 3, 2]])
    with pytest.raises(FreenessError):
        validate_action(act)


def test_validate_action_detects_trivial_action():
    g = FiniteAbelianGroup([2])
    act = ActionSpace(g, 2, [[0, 1]])
    with pytest.raises(FreenessError):
        validate_action(act)


def test_validate_action_detects_bad_point_count():
    g = FiniteAbelianGroup([4])
    # a 4-cycle and a 2-cycle: consistent table, but 6 points and order 4
    act = ActionSpace(g, 6, [[1, 2, 3, 0, 5, 4]])
    with pytest.raises(OrbitError):
        validate_action(act)


def test_validate_action_detects_broken_group_law():
    g = FiniteAbelianGroup([4])
    # two 3-cycles: the fourth power is not the identity
    act = ActionSpace(g, 6, [[1, 2, 0, 4, 5, 3]])
    with pytest.raises(ActionError):
        validate_action(act)


def test_validate_action_names_the_generators():
    g = FiniteAbelianGroup([2, 2])
    # two transpositions sharing point 1: each squares to the identity
    act = ActionSpace(g, 4, [[1, 0, 2, 3], [0, 2, 1, 3]])
    with pytest.raises(ActionError, match="generators 0 and 1 do not commute"):
        validate_action(act)
    g = FiniteAbelianGroup([4])
    act = ActionSpace(g, 6, [[1, 2, 0, 4, 5, 3]])
    with pytest.raises(ActionError, match="generator 0 composed 4 times"):
        validate_action(act)


def test_validate_action_names_a_fixed_point():
    g = FiniteAbelianGroup([4])
    act = ActionSpace(g, 4, [[1, 0, 3, 2]])
    with pytest.raises(FreenessError, match=r"element \(2,\) fixes point 0"):
        validate_action(act)


def test_action_input_validation():
    g = FiniteAbelianGroup([4])
    with pytest.raises(ActionError):
        ActionSpace(g, 4, [[0, 0, 1, 2]])
    with pytest.raises(ActionError):
        ActionSpace(g, 4, [])
    with pytest.raises(ValueError):
        ActionSpace(g, 4, [[1, 2, 3, 0]], weights=[1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ActionSpace(g, 4, [[1, 2, 3, 0]], weights=[1.0, 1.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_action_rejects_non_finite_weights(bad):
    g = FiniteAbelianGroup([4])
    with pytest.raises(ValueError, match="finite"):
        ActionSpace.regular(g, 1, weights=[bad, 1.0, 1.0, 1.0])


def test_action_rejects_a_weight_ratio_that_overflows():
    """Finite positive weights whose ratio max/min overflows are refused:
    the translations and transforms divide by square roots of such ratios.
    A ratio of 1e308 still passes."""
    g = FiniteAbelianGroup([4])
    with pytest.raises(ValueError, match="^weight ratio max/min overflows the float range"):
        ActionSpace.regular(g, 1, weights=[1e-300, 1e300, 1e-300, 1e300])
    assert ActionSpace.regular(g, 1, weights=[1e-154, 1e154, 1.0, 1.0]).weights[1] == 1e154


# -- tilings -------------------------------------------------------------------


def test_tiling_golden_z6():
    g = FiniteAbelianGroup([6])
    base = Subgroup(g, [(3,)])
    act = ActionSpace.regular(g)
    sec = coset_section(g, base)
    assert sec.representatives == ((0,), (1,), (2,))
    t = tiling_sets(act, base, sec)
    assert t.orbit_reps == (0,)
    assert t.tiles == (0, 5, 4)


def test_tiling_partitions(scn):
    t = scn.tiling
    n = scn.action.n_points
    covered = set()
    for gam in scn.base.elements:
        covered.update(int(v) for v in scn.action.sigma(gam)[list(t.tiles)])
    assert covered == set(range(n))
    covered = set()
    for tau in scn.group.elements:
        covered.update(int(v) for v in scn.action.sigma(tau)[list(t.orbit_reps)])
    assert covered == set(range(n))
    assert len(t.tiles) * scn.base.order == n
    assert len(t.orbit_reps) * scn.group.order == n


def test_tiling_transversal_major_order(scn):
    t = scn.tiling
    c = len(t.orbit_reps)
    for j, a in enumerate(scn.transversal.representatives):
        row = scn.action.sigma(scn.group.neg(a))
        for ci, x in enumerate(t.orbit_reps):
            assert t.tiles[j * c + ci] == row[x]


def test_tiling_rejects_wrong_transversal():
    g = FiniteAbelianGroup([6])
    base = Subgroup(g, [(3,)])
    other = coset_section(g, Subgroup(g, [(2,)]))
    with pytest.raises(ValueError):
        tiling_sets(ActionSpace.regular(g), base, other)
