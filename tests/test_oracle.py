"""The library against the brute-force references in ``oracle.py``.

Transforms: checked at 1e-12 relative (in the Euclidean norm of the whole
array) on the six shared scenarios and on generated regular actions: rank 1
to 3, moduli of 1 allowed, order at most 200, shuffled point labels and
log-uniform weights over a 1e3 range.

Bits: on generated scenarios with weights log-uniform over up to 1e14,
every transform, inverse and weighted fiber stacking is byte-identical to
the fancy-index reference kernels, on 1-D and batched input; on input
with exact zeros, only the signs of zeros may differ.

Weight range: on generated scenarios with weights log-uniform over up to
1e14, every transform keeps the weighted norm and every inverse recovers
the function to 1e-12 in the weighted norm (criterion 2), and the
extra-invariant spaces pass the sequence-space cross-oracle at 1e-12
(criterion 9).

Invariant spans: the fiberwise ``span_invariant`` has the dimension and the
weighted projector (1e-12) of the point-space span of every subgroup
translate, and a weighted-orthonormal frame, over the same weight ranges.

Group core: on the same generated groups, ``validate_action`` gives the same
verdict and error class as the all-pairs check on valid actions and on five
kinds of broken ones, where translating raises that class too; a non-free
action names the smallest point with a nontrivial stabiliser and the
smallest element fixing it, also with thousands of small orbits; on valid
actions every translate, the orbit coordinates, the tiles and the three
gather tables are selections of the oracle's composed |G| x n table; and
coset sections, annihilators and ``Subgroup.from_elements`` equal their
element-by-element references.

Approximation: on the generated scenarios, both batched solvers match the
pooled one-SVD-per-fiber-and-block reference in error (1e-12 relative),
spectra, kept block labels and projector.

Extra invariance: on the generated scenarios, both checks obey the theorem
up to order 200, and up to order 64, with weights log-uniform over up to
1e14, they match the point-space route (translated frames, mask images cut
by pivoted QR, n x n projectors, per-fiber bases) in verdicts, component
dimensions and worst unit directions, the translation and component-law
residuals included.  The check pair's linear algebra matches its first
form at roundoff on fiber bases moved by noise from 0 to 1e-6: the probe
residuals and the component law read off Gram matrices against the QR and
values-only SVDs, the match deviation against the (block rows)^2
projector gap (1e-12 relative plus 1e-15 absolute), the off-block norms
read off the block SVD factors against the rows of each direction outside
its block (1e-13 absolute), and the closed-form canonical space against
the transform-built one (projector to 1e-12).

Rank cut: on matrices of planted rank (up to 200 rows, weights log-uniform
over up to 1e14), ``orthonormal_columns`` keeps the rank and the weighted
projector of the pivoted-QR cut, and ranks their roundoff as zero; it and
the one-fiber, one-block ``_block_cut`` have the bits of the SVD-and-slice
reference kernel.  On fibers of ragged rank, real and complex, cut along
one block or several, ``_block_cut`` has the bits of one SVD per fiber and
block, sliced and zero-filled.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import actinv.extra as extra_mod
import actinv.spaces as spaces_mod
import oracle
from actinv import (
    ActionError,
    ActionSpace,
    FreenessError,
    FiniteAbelianGroup,
    Scenario,
    Subgroup,
    Subspace,
    annihilator,
    best_extra_invariant,
    best_invariant,
    canonical_extra_invariant,
    check_decomposable,
    check_extra_invariance,
    coset_section,
    dual_partition,
    is_invariant,
    mask_apply,
    masked_component,
    span_invariant,
    translate,
    validate_action,
    zak_full,
    zak_full_inv,
    zak_stacked,
    zak_stacked_inv,
)
from actinv.spaces import (
    RANK_TOL,
    _block_cut,
    fiber_matrices,
    fibers_from_matrix,
    orthonormal_columns,
)
from actinv.zak import (
    base_norm,
    fold_orbits,
    full_norm,
    stacked_norm,
    unfold_norm,
    unfold_orbits,
    zak_base,
    zak_base_inv,
)

RTOL = 1e-12
MAX_ORDER = 200
# the point-space route costs a pivoted QR of an n x dim mask image per block
POINT_SPACE_MAX_ORDER = 64
SEQUENCE_MAX_ORDER = 36


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


def check_partition_against_oracle(scn):
    part = dual_partition(scn)
    assert dual_partition(scn) is part  # built once per scenario
    assert not part.positions.flags.writeable and not part.rows.flags.writeable
    for pos, (xi, rows) in enumerate(zip(part.labels, oracle.block_rows(scn))):
        want = oracle.block_indicator(scn, xi)
        assert np.array_equal(part.positions == pos, want)
        assert np.array_equal(part.rows[pos], rows)
        assert part.blocks[pos] == {
            el for el, keep in zip(scn.group.elements, want) if keep
        }


def test_transforms_match_oracle(scn):
    check_partition_against_oracle(scn)

    check_against_oracle(scn, np.random.default_rng(61))


def test_oracle_round_trips(scn):
    """The oracle is a pair of inverse maps, so agreement is not vacuous."""
    f = complex_normal(np.random.default_rng(67), scn.action.n_points)
    assert_rel_close(oracle.full_inv(scn, oracle.full(scn, f)), f)
    assert_rel_close(oracle.stacked_inv(scn, oracle.stacked(scn, f)), f)


# -- generated regular actions -------------------------------------------------


@st.composite
def scenario_specs(draw, max_order=MAX_ORDER):
    rank = draw(st.integers(1, 3))
    moduli = []
    for _ in range(rank):
        room = max_order // math.prod(moduli)
        moduli.append(draw(st.integers(1, min(16, room))))
    element = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    base_gens = draw(st.lists(element, max_size=2))
    more_gens = draw(st.lists(element, max_size=2))
    orbits = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return tuple(moduli), base_gens, more_gens, orbits, seed


def relabelled_perms(g, orbits, rng):
    """Generator permutations of the regular action under shuffled point labels."""
    regular = ActionSpace.regular(g, orbits)
    label = rng.permutation(regular.n_points)
    perms = []
    for p in regular.generator_perms:
        q = np.empty(regular.n_points, dtype=np.intp)
        q[label] = label[p]
        perms.append(q)
    return perms


def build(spec, decades=3.0):
    """Regular action with shuffled labels; extra = base + more generators.

    The weights are log-uniform over a range of ``10 ** decades``.
    """
    moduli, base_gens, more_gens, orbits, seed = spec
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(seed)
    perms = relabelled_perms(g, orbits, rng)
    n = len(perms[0])
    weights = 10.0 ** rng.uniform(-decades / 2, decades / 2, n)
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
    check_partition_against_oracle(scn)
    check_against_oracle(scn, rng)


# the weighted-norm contracts hold over weight ranges up to 1e14
WEIGHT_DECADES = st.floats(0.0, 14.0)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs(), decades=WEIGHT_DECADES)
@example(spec=((4, 6), [(2, 0), (0, 3)], [(1, 0)], 2, 7), decades=14.0)
@example(spec=((200,), [(8,)], [(2,)], 2, 8), decades=14.0)
@example(spec=((1,), [], [], 2, 9), decades=14.0)
def test_transforms_are_isometries_over_wide_weight_ranges(spec, decades):
    """Criterion 2 on generated scenarios, weights log-uniform over up to 1e14.

    Every transform keeps the weighted norm, and every inverse recovers the
    function, to 1e-12 relative in the weighted norm.  The entrywise error
    of an entry with a small weight is larger (about eps * range ** 0.5),
    because such an entry carries little of the norm; the contract is
    stated in the weighted norm.
    """
    scn, rng = build(spec, decades)
    n = scn.action.n_points
    flat = complex_normal(rng, n)
    for f in (flat, complex_normal(rng, n) / np.sqrt(scn.action.weights)):
        ref = scn.action.norm(f)
        zb, zf, zs = zak_base(scn, f), zak_full(scn, f), zak_stacked(scn, f)
        phi = unfold_orbits(scn, f)
        pairs = [
            (base_norm(scn, zb), zak_base_inv(scn, zb)),
            (full_norm(scn, zf), zak_full_inv(scn, zf)),
            (stacked_norm(scn, zs), zak_stacked_inv(scn, zs)),
            (unfold_norm(scn, phi), fold_orbits(scn, phi)),
        ]
        for norm, back in pairs:
            assert abs(norm - ref) <= RTOL * ref
            assert scn.action.norm(back - f) <= RTOL * ref


def assert_same_bits(got, want, zero_sign=False):
    """Byte for byte on the float64 views, so a flipped sign of an exact zero
    fails too, unless ``zero_sign`` lets it pass (adding +0.0 clears it)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    got, want = (np.ascontiguousarray(a).view(np.float64) for a in (got, want))
    if zero_sign:
        got, want = got + 0.0, want + 0.0
    assert got.tobytes() == want.tobytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs(), decades=WEIGHT_DECADES)
@example(spec=((1,), [], [], 1, 0), decades=0.0)
@example(spec=((4, 6), [(2, 0), (0, 3)], [(1, 0)], 2, 7), decades=14.0)
@example(spec=((3, 1, 4), [(1, 0, 2)], [(0, 0, 1)], 2, 1), decades=14.0)
@example(spec=((200,), [(8,)], [(2,)], 2, 8), decades=14.0)
def test_transforms_reproduce_the_reference_kernels_bitwise(spec, decades):
    """Every transform, inverse and weighted stacking has the bits of the
    fancy-index reference kernels in ``oracle.py``, on 1-D and batched
    input, with weights log-uniform over up to 1e14; on input with exact
    zeros, only the sign of a zero may differ."""
    scn, rng = build(spec, decades)
    n, reps = scn.action.n_points, len(scn.tiling.orbit_reps)
    tiles = len(scn.tiling.tiles)
    assert_same_bits(scn.chars_base_omega, oracle.kernel_chars_base_omega(scn))
    assert_same_bits(scn.coset_dft, oracle.kernel_coset_dft(scn))
    forward = [
        (zak_base, oracle.kernel_base),
        (zak_full, oracle.kernel_full),
        (zak_stacked, oracle.kernel_stacked),
        (unfold_orbits, oracle.kernel_unfold),
        (fiber_matrices, oracle.kernel_fiber_matrices),
    ]
    inverse = [
        (zak_base_inv, oracle.kernel_base_inv, (scn.n_fibers, tiles)),
        (zak_full_inv, oracle.kernel_full_inv, (scn.group.order, reps)),
        (zak_stacked_inv, oracle.kernel_stacked_inv, (scn.n_fibers, scn.n_cosets, reps)),
        (fold_orbits, oracle.kernel_fold, (reps, scn.group.order)),
    ]
    for batch in ((), (3,)):
        f = complex_normal(rng, (n,) + batch)
        for ours, reference in forward:
            assert_same_bits(ours(scn, f), reference(scn, f))
            assert_same_bits(ours(scn, f.real), reference(scn, f.real))
        for ours, reference, lead in inverse:
            values = complex_normal(rng, lead + batch)
            assert_same_bits(ours(scn, values), reference(scn, values))
        cols = complex_normal(rng, (scn.n_fibers, scn.n_cosets * reps) + (batch or (1,)))
        assert_same_bits(fibers_from_matrix(scn, cols), oracle.kernel_fibers_from_matrix(scn, cols))
    # exact zeros (negated point deltas, conjugated real functions, their
    # transforms): numpy's complex product and quotient with ``root + 0j``
    # fix the sign of some zero results differently; every other bit agrees
    for f in (-np.eye(n, 3, dtype=complex), np.conj(complex_normal(rng, n).real + 0j)):
        for ours, reference in forward:
            assert_same_bits(ours(scn, f), reference(scn, f), zero_sign=True)
        for (ours, reference, _), (transform, _) in zip(inverse, forward):
            values = transform(scn, f)
            assert_same_bits(ours(scn, values), reference(scn, values), zero_sign=True)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=scenario_specs(),
    decades=WEIGHT_DECADES,
    count=st.integers(1, 3),
    one_block=st.booleans(),
)
@example(spec=((1,), [], [], 1, 0), decades=0.0, count=1, one_block=False)
@example(spec=((12,), [], [(1,)], 2, 4), decades=14.0, count=2, one_block=False)
@example(spec=((2, 6), [(0, 3)], [(1, 0), (0, 1)], 1, 5), decades=14.0, count=3, one_block=False)
@example(spec=((8, 25), [(2, 5)], [(4, 0)], 1, 2), decades=14.0, count=2, one_block=False)
@example(spec=((4, 6), [(2, 0)], [(0, 1)], 2, 3), decades=14.0, count=3, one_block=True)
def test_span_invariant_matches_the_point_space_span(spec, decades, count, one_block):
    """The fiberwise span against every subgroup translate cut in point space.

    For the base, the extra subgroup, the whole group and, where there is
    one, a subgroup between the base and the group that is neither (the
    base and one more element), whose blocks no other table holds: the
    same dimension, the same weighted projector to 1e-12, and a frame that
    is weighted-orthonormal to 1e-12, with weights log-uniform over up to
    1e14.  With ``one_block`` the generators' fibers are supported in the
    rows of one extra block, on a random number of columns per fiber, so
    that blocks have rank 0 and fibers unequal widths.
    """
    scn, rng = build(spec, decades)
    if one_block:
        rows = dual_partition(scn).rows[-1]
        cols = np.zeros((scn.n_fibers, scn.n_cosets * len(scn.tiling.orbit_reps), count), complex)
        widths = rng.integers(0, count + 1, scn.n_fibers)
        widths[0] = count
        for w, width in enumerate(widths):
            cols[w, rows, :width] = complex_normal(rng, (rows.size, width))
        gens = fibers_from_matrix(scn, cols)
    else:
        gens = complex_normal(rng, (scn.action.n_points, count))
    group = scn.group
    subs = [scn.base, scn.extra, Subgroup(group, group.elements)]
    for i in rng.permutation(group.order):
        between = Subgroup(group, scn.base.generators + [group.elements[i]])
        if between not in subs:
            subs.append(between)
            break
    root = np.sqrt(scn.action.weights)[:, None]
    for sub in subs:
        got = span_invariant(scn, gens, sub)
        want = oracle.point_space_span(scn, gens, sub)
        assert got.dim == want.dim
        q = got.frame * root
        np.testing.assert_allclose(q.conj().T @ q, np.eye(got.dim), rtol=0, atol=RTOL)
        np.testing.assert_allclose(
            oracle.projector(got), oracle.projector(want), rtol=0, atol=RTOL
        )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs(), decades=WEIGHT_DECADES)
@example(spec=((1,), [], [], 1, 0), decades=0.0)
@example(spec=((12,), [(4,)], [(4,)], 2, 4), decades=14.0)
@example(spec=((2, 6), [(0, 3)], [(1, 0), (0, 1)], 1, 5), decades=14.0)
def test_base_translations_fix_every_range_function(spec, decades):
    """The premise of skipping base probes on a range function.

    Every base element's modulation row is constant on each fiber, exactly;
    on fiber-built spaces every base probe reads exactly 0.0 and translating
    the frame in point space moves no unit vector by more than 1e-12, with
    weights log-uniform over up to 1e14.
    """
    scn, rng = build(spec, decades)
    mods = scn.modulations(tuple(scn.base.elements))
    assert np.array_equal(mods, np.broadcast_to(mods[..., :1], mods.shape))
    gens = complex_normal(rng, (scn.action.n_points, 2))
    spaces = (
        span_invariant(scn, gens[:, :1]),
        span_invariant(scn, gens, scn.extra),
        canonical_extra_invariant(scn),
    )
    for space in spaces:
        assert is_invariant(space, scn.base) == (True, 0.0)
        assert oracle.translation_residual(space, scn.base) <= RTOL


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the range functions span all base translates, so their QR grows with |base|
@given(spec=scenario_specs(max_order=SEQUENCE_MAX_ORDER), decades=WEIGHT_DECADES)
@example(spec=((12,), [], [(1,)], 2, 4), decades=14.0)
@example(spec=((2, 6), [(0, 3)], [(1, 0), (0, 1)], 1, 5), decades=14.0)
@example(spec=((4, 8), [(2, 0)], [(1, 0), (0, 2)], 2, 6), decades=14.0)
def test_sequence_oracle_over_wide_weight_ranges(spec, decades):
    """Criterion 9 on generated scenarios, weights log-uniform over up to 1e14.

    Members of the extra-invariant spaces unfold into their range
    functions to 1e-12 relative, and every range function passes the
    sequence-space extra-invariance test.
    """
    scn, rng = build(spec, decades)
    for kind, space, truth in theorem_cases(scn, rng):
        if truth:
            ok = oracle.range_function_consistency(scn, space, tol=RTOL, rng=rng)
            assert ok, kind


def theorem_cases(scn, rng):
    """(kind, space, verdict by construction) for three kinds of space."""
    gens = complex_normal(rng, (scn.action.n_points, 2))
    return [
        ("extra-spanned", span_invariant(scn, gens, scn.extra), True),
        ("canonical", canonical_extra_invariant(scn), True),
        ("principal", span_invariant(scn, gens[:, :1]), scn.extra.order == scn.base.order),
    ]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs())
@example(spec=((1,), [], [], 1, 0))
@example(spec=((12,), [], [(1,)], 2, 4))
@example(spec=((2, 6), [(0, 3)], [(1, 0), (0, 1)], 1, 5))
@example(spec=((200,), [], [(1,)], 2, 0))
def test_generated_scenarios_obey_the_theorem(spec):
    """Both sides of the equivalence on random groups, chains and weights.

    Spans of extra-subgroup translates and the canonical space are
    extra-invariant by construction; a generic principal space is so exactly
    when the two subgroups coincide (then there is one block).  A
    disagreement between the sides raises ``TheoremViolationError``.
    The pinned order-200 example is the whole space (trivial base, extra =
    group, 200 blocks), the largest case the checks meet here.
    """
    scn, rng = build(spec)
    for kind, space, truth in theorem_cases(scn, rng):
        ext = check_extra_invariance(scn, space)
        dec = check_decomposable(scn, space)
        assert ext.extra_invariant is dec.decomposable is truth, kind
        if truth:
            assert sum(ext.component_dims) == space.dim, kind


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs(), batch=st.integers(1, 4), ell=st.integers(1, 3))
@example(spec=((1,), [], [], 1, 0), batch=1, ell=1)
@example(spec=((12,), [], [(1,)], 2, 4), batch=3, ell=2)
@example(spec=((2, 6), [(0, 3)], [(1, 0), (0, 1)], 1, 5), batch=4, ell=3)
def test_solvers_match_the_pooled_reference(spec, batch, ell):
    """The batched fits against one SVD per fiber and block, pooled in Python."""
    scn, rng = build(spec)
    data = complex_normal(rng, (scn.action.n_points, batch))
    energy = float(np.sum(scn.action.weights[:, None] * np.abs(data) ** 2))
    for solver, extra in ((best_invariant, False), (best_extra_invariant, True)):
        res = solver(scn, data, ell)
        error, spectra, projector = oracle.pooled_fit(scn, data, ell, extra)
        assert res.error == pytest.approx(error, rel=RTOL, abs=RTOL**2 * energy)
        for got, (kept, dropped, labels) in zip(res.spectra, spectra, strict=True):
            np.testing.assert_allclose(got.kept, kept, rtol=RTOL)
            np.testing.assert_allclose(
                got.dropped, dropped, rtol=RTOL, atol=RTOL * np.sqrt(energy)
            )
            assert got.kept_labels == labels
        np.testing.assert_allclose(oracle.projector(res.space), projector, atol=RTOL)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs(max_order=POINT_SPACE_MAX_ORDER), decades=WEIGHT_DECADES)
@example(spec=((1,), [], [], 1, 0), decades=0.0)
@example(spec=((12,), [], [(1,)], 2, 4), decades=14.0)
@example(spec=((2, 6), [(0, 3)], [(1, 0), (0, 1)], 1, 5), decades=14.0)
@example(spec=((4, 8), [(2, 0)], [(1, 0), (0, 2)], 2, 6), decades=14.0)
def test_checks_match_the_point_space_route(spec, decades):
    """The range-function checks against translates, mask images, QR rank
    cuts and n x n projectors, with weights log-uniform over up to 1e14.

    Verdicts and component dimensions are identical.  The translation,
    inclusion, block and component-law residuals are worst unit directions
    on both routes, so they agree to 1e-9 whatever the basis.  On invariant
    spaces the masked component has the fibers ``basis[w] @ v`` over the
    block's kept right singular vectors v.
    """
    scn, rng = build(spec, decades)
    for kind, space, _ in theorem_cases(scn, rng):
        ext = check_extra_invariance(scn, space)
        dec = check_decomposable(scn, space)
        want = oracle.point_space_checks(scn, space)
        assert ext.extra_invariant == want["extra_invariant"], kind
        assert dec.decomposable == want["decomposable"], kind
        assert ext.component_dims == want["component_dims"], kind
        for field in ("translation_residual", "component_invariance_residual"):
            got, ref = getattr(ext, field), want[field]
            assert (got is None) == (ref is None), (kind, field)
            assert got is None or got == pytest.approx(ref, abs=1e-9), (kind, field)
        np.testing.assert_allclose(
            ext.inclusion_residuals, want["inclusion_residuals"], rtol=0, atol=1e-9
        )
        assert dec.block_residual == pytest.approx(want["block_residual"], abs=1e-9)
        if not ext.extra_invariant:
            continue
        assert want["decomposition_deviation"] <= 1e-9
        if not space.dim:
            continue
        assert want["component_match_deviation"] <= 1e-9
        basis = space._basis
        kv = extra_mod._split(scn, space, basis)[2]
        for b, xi in enumerate(scn.block_labels):
            zak_side = Subspace.from_fibers(scn, basis @ kv[:, b])
            comp = masked_component(scn, space, xi)
            assert comp.dim == zak_side.dim, kind
            assert np.max(comp.residuals(zak_side.frame), initial=0.0) <= 1e-9
            assert np.max(zak_side.residuals(comp.frame), initial=0.0) <= 1e-9


def noisy(space, noise, rng):
    """The space's range function with each nonzero column moved by about
    ``noise`` in norm, cut again: a base-invariant space near it with the
    same fiber dimensions."""
    basis = space._basis
    nonzero = np.any(basis, axis=1, keepdims=True)
    moved = basis + noise / np.sqrt(basis.shape[1]) * complex_normal(rng, basis.shape) * nonzero
    scn = space.scenario
    return Subspace.from_fibers(scn, _block_cut(moved, scn.block_rows(scn.base)))


def assert_roundoff(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs(), noise=st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
@example(spec=((1,), [], [], 1, 0), noise=0.0)
@example(spec=((12,), [], [(1,)], 2, 4), noise=1e-14)
@example(spec=((2, 6), [(0, 3)], [(1, 0), (0, 1)], 1, 5), noise=1e-6)
@example(spec=((4, 8), [(2, 0)], [(1, 0), (0, 2)], 2, 6), noise=1e-10)
@example(spec=((200,), [], [(1,)], 2, 0), noise=1e-10)
def test_check_pair_matches_its_decomposition_references(spec, noise):
    """Gram matrices, row energies and off-block norms against the QR, SVD,
    (block rows)^2 and row-space references, and the closed-form canonical
    space against the transforms.

    ``_probe_pass``, ``_split``, ``_component_law`` and ``_match_deviation``
    do not raise, so they are called directly on spaces whose fiber bases
    are moved by the noise; the checks themselves would raise near ``tol``.

    ``_split`` reads ``off`` off the block SVD factors (exact sums of
    squares for the heaviest directions, ``|x| ** 2 - t ** 2`` above 1/2
    for the others); the reference multiplies each direction by the basis
    rows.  Both are norms of the same direction with a few eps of roundoff
    per unit factor: the largest deviation in two sweeps of 400 generated
    cases was 3.4e-15 (16 eps).  1e-13 leaves room for longer sums and is a
    thousand times below ``RANK_TOL``, the smallest threshold a report is
    read against.  ``t`` is the same LAPACK call on the same rows.
    """
    scn, rng = build(spec)
    canon = canonical_extra_invariant(scn)
    ref = oracle.canonical_space(scn)
    assert canon.dim == ref.dim == scn.n_fibers
    np.testing.assert_allclose(oracle.projector(canon), oracle.projector(ref), rtol=0, atol=1e-12)
    for kind, space, _ in theorem_cases(scn, rng):
        space = noisy(space, noise, rng)
        basis = space._basis
        passes = []
        for g, d in zip(scn.moving_probes, scn.modulations(scn.moving_probes)):
            inside, factor, top = oracle.moved_top(d, basis)
            assert_roundoff(spaces_mod._probe_pass(space, g)[0], top)
            passes.append((inside, factor))
        a, t, kv, off, kept = extra_mod._split(scn, space, basis)
        t_ref, off_ref = oracle.off_block_norms(scn, basis)
        np.testing.assert_array_equal(t, t_ref)
        np.testing.assert_allclose(off, off_ref, rtol=0, atol=1e-13, err_msg=kind)
        np.testing.assert_allclose(t * off, t * off_ref, rtol=0, atol=1e-13, err_msg=kind)
        assert_roundoff(extra_mod._component_law(space, kv), oracle.component_law(passes, kv))
        assert_roundoff(
            extra_mod._match_deviation(scn, space, basis),
            oracle.match_deviation(scn, basis, a, kv, kept),
        )


# -- rank cut ------------------------------------------------------------------


@st.composite
def planted_ranks(draw):
    """Rows up to 200, columns up to 16, a planted rank, a weight range, a seed."""
    n = draw(st.integers(1, 200))
    m = draw(st.integers(1, 16))
    rank = draw(st.integers(0, min(n, m)))
    decades = draw(st.floats(0.0, 14.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, rank, decades, seed


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=planted_ranks())
@example(spec=(1, 1, 0, 0.0, 0))
@example(spec=(200, 16, 16, 14.0, 1))
@example(spec=(200, 16, 7, 14.0, 2))
@example(spec=(5, 16, 5, 14.0, 3))
def test_rank_cut_matches_the_pivoted_qr_oracle(spec):
    """The singular-value cut against the pivoted-QR cut, in weighted coordinates.

    The matrix has the planted rank in weighted coordinates, with singular
    values between 1 and 1e3, so both cuts see a clear gap; the weights are
    log-uniform over up to 1e14.  Both give the planted rank and the same
    weighted projector.  What the frame leaves of the matrix is pure
    roundoff, and at the absolute floor ``RANK_TOL`` both rank it as zero.
    """
    n, m, rank, decades, seed = spec
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(0.0, decades, n)
    root = np.sqrt(weights)[:, None]
    u = np.linalg.qr(complex_normal(rng, (n, rank)))[0]
    v = np.linalg.qr(complex_normal(rng, (m, rank)))[0]
    weighted = (u * 10.0 ** rng.uniform(0.0, 3.0, rank)) @ v.conj().T
    got = orthonormal_columns(weights, weighted / root) * root
    want = oracle.euclid_orth(weighted)
    assert got.shape == want.shape == (n, rank)
    np.testing.assert_allclose(
        got @ got.conj().T, want @ want.conj().T, rtol=0, atol=1e-12
    )
    noise = weighted - got @ (got.conj().T @ weighted)
    assert orthonormal_columns(weights, noise / root, floor=RANK_TOL).shape == (n, 0)
    assert oracle.euclid_orth(noise, floor=RANK_TOL).shape == (n, 0)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=planted_ranks(),
    noise=st.sampled_from([0.0, 1e-13, 1e-9]),
    floor=st.sampled_from([0.0, RANK_TOL]),
)
@example(spec=(7, 0, 0, 14.0, 0), noise=0.0, floor=0.0)  # zero width
@example(spec=(7, 3, 0, 14.0, 1), noise=0.0, floor=RANK_TOL)  # all zeros
@example(spec=(200, 16, 0, 14.0, 2), noise=1e-13, floor=RANK_TOL)  # roundoff only
@example(spec=(200, 16, 5, 14.0, 3), noise=1e-13, floor=0.0)
@example(spec=(40, 16, 16, 14.0, 4), noise=1e-9, floor=RANK_TOL)
def test_rank_cut_reproduces_the_reference_kernel_bitwise(spec, noise, floor):
    """The one-fiber, one-block ``_block_cut`` and ``orthonormal_columns``
    have the bits of the SVD-and-slice reference kernel in ``oracle.py``:
    floor 0 and ``RANK_TOL``, zero width, all zeros, planted rank under
    noise, weights log-uniform over up to 1e14.  The cut copies the kept
    singular vectors, so on input with exact zeros (real-valued columns,
    point deltas) the sign of a zero agrees too."""
    n, m, rank, decades, seed = spec
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(0.0, decades, n)
    root = np.sqrt(weights)[:, None]
    one_block = np.arange(n)[None]
    planted = complex_normal(rng, (n, rank)) @ complex_normal(rng, (rank, m))
    weighted = planted + noise * complex_normal(rng, (n, m))
    want = oracle.kernel_euclid_orth(weighted, RANK_TOL, floor)
    assert_same_bits(_block_cut(weighted[None], one_block, floor=floor)[0], want)
    vectors = weighted / root
    want = oracle.kernel_euclid_orth(vectors * root, RANK_TOL, floor) / root
    assert_same_bits(orthonormal_columns(weights, vectors, floor=floor), want)
    for exact in (weighted.real + 0j, -np.eye(n, m, dtype=complex)):
        want = oracle.kernel_euclid_orth(exact, RANK_TOL, floor)
        assert_same_bits(_block_cut(exact[None], one_block, floor=floor)[0], want)


@st.composite
def ragged_fibers(draw):
    """Fibers of ragged planted rank, a block count, real or complex, a seed."""
    n_blocks = draw(st.sampled_from([1, 2, 3, 4]))
    size = draw(st.integers(1, 6))
    n_fibers = draw(st.integers(1, 5))
    k = draw(st.integers(0, 8))
    real = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return n_fibers, n_blocks, size, k, real, seed


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=ragged_fibers(), floor=st.sampled_from([0.0, RANK_TOL]))
@example(spec=(3, 1, 5, 4, False, 0), floor=0.0)  # one block
@example(spec=(4, 3, 4, 6, True, 1), floor=RANK_TOL)
@example(spec=(2, 4, 1, 0, False, 2), floor=0.0)  # zero width
@example(spec=(5, 2, 6, 8, False, 3), floor=0.0)
def test_block_cut_reproduces_per_block_svds_bitwise(spec, floor):
    """``_block_cut`` has the bits of ``oracle.kernel_block_cut``: one SVD
    per fiber and block, sliced at the cut over every fiber and block, the
    kept vectors put back in their block's rows, packed per fiber in
    (block, singular index) order and zero-filled to the widest fiber.

    Each fiber and block gets its own planted rank, zero included, so the
    fibers' dimensions are ragged and some fibers or blocks are empty; the
    rows of a block are scattered over the fiber (a random permutation cut
    into increasing blocks), and the entries are real or complex."""
    n_fibers, n_blocks, size, k, real, seed = spec
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_blocks * size).reshape(n_blocks, size)
    rows = np.sort(perm, axis=1)[np.argsort(perm.min(axis=1))]
    mats = np.zeros((n_fibers, n_blocks * size, k), dtype=float if real else complex)
    for w in range(n_fibers):
        for b in range(n_blocks):
            rank = int(rng.integers(0, min(size, k) + 1))
            left, right = rng.standard_normal((size, rank)), rng.standard_normal((rank, k))
            if not real:
                left, right = left + 1j * rng.standard_normal(left.shape), right + 0j
            mats[w, rows[b]] = left @ right
    want = oracle.kernel_block_cut(mats, rows, RANK_TOL, floor)
    assert_same_bits(_block_cut(mats, rows, floor=floor), want)


# -- group core ----------------------------------------------------------------

ORACLE_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def action_outcome(check, action):
    """Orbits as sorted tuples, or the class of the action error raised."""
    try:
        return [tuple(o) for o in check(action)]
    except ActionError as exc:
        return type(exc)


def broken_variants(perms, rng):
    """Valid generators, then one entry swap, a conjugated pair, a full n-cycle.

    Two more keep the group law and break the other checks: squaring a
    generator makes the action non-free when its modulus is even, and a
    point fixed by every generator breaks the point count.
    """
    n = len(perms[0])
    yield "valid", perms
    j = int(rng.integers(len(perms)))
    if n > 1:
        a, b = rng.choice(n, 2, replace=False)
        swapped = [p.copy() for p in perms]
        swapped[j][[a, b]] = swapped[j][[b, a]]
        yield "swap", swapped
    if len(perms) > 1:
        r = rng.permutation(n)
        inv = np.argsort(r)
        # r^-1 o p_1 o r keeps the cycle type of p_1 but rarely commutes with p_0
        yield "non-commuting", [perms[0], inv[perms[1][r]]] + perms[2:]
    cycle = [p.copy() for p in perms]
    cycle[j] = np.roll(np.arange(n), -1)
    yield "cycle", cycle
    squared = [p.copy() for p in perms]
    squared[j] = perms[j][perms[j]]
    yield "square", squared
    yield "fixed point", [np.append(p, n) for p in perms]


@ORACLE_SETTINGS
@given(spec=scenario_specs())
@example(spec=((4,), [], [], 2, 0))
@example(spec=((2, 3), [], [], 1, 3))
@example(spec=((3, 1, 4), [], [], 2, 1))
def test_validate_action_matches_all_pairs_oracle(spec):
    moduli, _, _, orbits, seed = spec
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(seed)
    for kind, perms in broken_variants(relabelled_perms(g, orbits, rng), rng):
        act = ActionSpace(g, len(perms[0]), perms)
        want = action_outcome(oracle.validate_action, act)
        got = action_outcome(lambda a: validate_action(a).orbits, act)
        assert got == want, kind
        if kind == "valid":
            assert isinstance(got, list) and len(got) == orbits


@ORACLE_SETTINGS
@given(spec=scenario_specs())
@example(spec=((4,), [], [], 3, 0))
@example(spec=((2, 4), [], [], 2, 3))
@example(spec=((6, 1, 2), [], [], 2, 1))
def test_freeness_error_names_the_smallest_fixed_point(spec):
    """A non-free action names its smallest point with a nontrivial stabiliser.

    The element named is the smallest nonzero one fixing that point, both
    read off the oracle's composed table; an accepted action fixes no point.
    Besides the broken variants, one generator is squared on the orbit of
    the last point only, so that the other orbits stay free.  (Whether the
    group law holds is checked against the all-pairs oracle above.)
    """
    moduli, _, _, orbits, seed = spec
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(seed)
    perms = relabelled_perms(g, orbits, rng)
    n = len(perms[0])
    orbit = np.zeros(n, dtype=bool)
    orbit[n - 1] = True
    while not all(orbit[p[orbit]].all() for p in perms):
        for p in perms:
            orbit[p[orbit]] = True
    j = int(rng.integers(len(perms)))
    half = [p.copy() for p in perms]
    half[j][orbit] = perms[j][perms[j][orbit]]
    for kind, variant in [*broken_variants(perms, rng), ("one orbit squared", half)]:
        act = ActionSpace(g, len(variant[0]), variant)
        try:
            validate_action(act)
            error = None
        except FreenessError as exc:
            error = str(exc)
        except ActionError:
            continue
        table = oracle.compose_table(act)
        fixed = table[1:] == np.arange(act.n_points)  # nonzero elements
        if error is None:
            assert not fixed.any(), kind
            continue
        x = int(np.flatnonzero(fixed.any(axis=0))[0])
        el = g.elements[1 + int(np.flatnonzero(fixed[:, x])[0])]
        assert error == f"element {el} fixes point {x}", kind


@pytest.mark.parametrize("moduli, orbits", [((2,), 5000), ((2, 2, 2), 1000)])
def test_many_orbits_match_the_composed_table(moduli, orbits):
    """Thousands of small orbits, composed together, against the oracle."""
    g = FiniteAbelianGroup(moduli)
    perms = relabelled_perms(g, orbits, np.random.default_rng(17))
    act = ActionSpace(g, len(perms[0]), perms)
    table = oracle.compose_table(act)
    reps = [orb[0] for orb in oracle.validate_action(act)]
    assert len(reps) == orbits
    assert np.array_equal(act.point_of, table[:, reps].T)
    orbits = np.sort(table[:, reps].T, axis=1).tolist()
    assert validate_action(act).orbits == tuple(map(tuple, orbits))


@ORACLE_SETTINGS
@given(spec=scenario_specs())
@example(spec=((3, 1, 4), [(1, 0, 2)], [(0, 0, 1)], 2, 1))
@example(spec=((1,), [], [], 1, 0))
def test_orbit_coordinates_match_the_composed_table(spec):
    """Every translate and gather table is a selection of the oracle's table."""
    scn, _ = build(spec)
    act, group = scn.action, scn.group
    table = oracle.compose_table(act)
    for i, tau in enumerate(group.elements):
        assert np.array_equal(act.sigma(tau), table[i])
    reps = [orb[0] for orb in oracle.validate_action(act)]
    assert list(scn.tiling.orbit_reps) == reps
    assert np.array_equal(act.point_of, table[:, reps].T)
    tile_movers = [group.neg(a) for a in scn.transversal.representatives]
    tiles, _ = oracle.gather(scn, tile_movers, reps)
    assert list(scn.tiling.tiles) == tiles.ravel().tolist()
    base_movers = [group.neg(g) for g in scn.base.elements]
    unfold_points, unfold_roots = oracle.gather(scn, group.elements, reps)
    cases = [
        (scn._full_gather, oracle._orbit_points(scn)),
        (scn._unfold_gather, (unfold_points.T, unfold_roots.T)),  # orbit-major
        (scn._base_gather, oracle.gather(scn, base_movers, scn.tiling.tiles)),
    ]
    n = act.n_points
    for (points, roots, where, recip), (want_points, want_roots) in cases:
        assert np.array_equal(points, want_points)
        np.testing.assert_allclose(roots, want_roots, rtol=1e-15)
        # the plan: the inverse permutation and the reciprocal roots in point order
        assert np.array_equal(where[points.ravel()], np.arange(n))
        assert np.array_equal(points.ravel()[where], np.arange(n))
        assert recip.tobytes() == (1.0 / roots.ravel()[where]).tobytes()


@ORACLE_SETTINGS
@given(spec=scenario_specs())
@example(spec=((4,), [], [], 2, 0))
@example(spec=((2, 3), [], [], 1, 3))
@example(spec=((3, 1, 4), [], [], 2, 1))
def test_rejected_actions_never_translate(spec):
    """On data that is no free action, translation raises the action's error."""
    moduli, _, _, orbits, seed = spec
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(seed)
    for kind, perms in broken_variants(relabelled_perms(g, orbits, rng), rng):
        act = ActionSpace(g, len(perms[0]), perms)
        # the verdict's agreement with the oracle is checked above
        want = action_outcome(lambda a: validate_action(a).orbits, act)
        if not isinstance(want, type):
            continue
        f = np.ones(act.n_points)
        for tau in (g.zero, g.elements[-1]):
            for move in (act.sigma, lambda t: translate(act, t, f)):
                with pytest.raises(ActionError) as info:
                    move(tau)
                assert type(info.value) is want, kind


@ORACLE_SETTINGS
@given(spec=scenario_specs())
@example(spec=((8, 25), [(2, 5)], [(4, 0)], 1, 2))
@example(spec=((1,), [], [], 1, 0))
def test_group_core_matches_oracle(spec):
    moduli, base_gens, more_gens, _, seed = spec
    g = FiniteAbelianGroup(moduli)
    small = Subgroup(g, base_gens)
    big = Subgroup(g, list(base_gens) + list(more_gens))
    for sub, within in ((small, None), (big, None), (small, big)):
        sec = coset_section(g, sub, within)
        rep = oracle.coset_representatives(g, sub, within)
        assert sec.representatives == tuple(sorted(set(rep.values())))
        assert all(sec.rep_of(el) == r for el, r in rep.items())
    for sub in (small, big):
        ann = annihilator(sub)
        assert ann.elements == oracle.annihilator_elements(sub)
        again = Subgroup.from_elements(g, sub.elements)
        assert again == sub
        assert again.generators == oracle.greedy_generators(g, sub.elements)
    rng = np.random.default_rng(seed)
    outside = [el for el in g.elements if el not in big]
    candidates = [big.elements[1:], small.elements[:-1]]
    if outside:
        candidates.append(big.elements + [outside[rng.integers(len(outside))]])
    for elements in candidates:
        if oracle.is_subgroup(g, elements):
            assert sorted(Subgroup.from_elements(g, elements).elements) == sorted(
                set(elements)
            )
        else:
            with pytest.raises(ValueError):
                Subgroup.from_elements(g, elements)
