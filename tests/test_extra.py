"""Dual partition, masks, the invariance equivalence, and the cross-oracles."""
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import actinv.extra as extra_mod
import actinv.spaces as spaces_mod
import actinv.zak as zak_mod
import oracle

from actinv import (
    ActionSpace,
    FiniteAbelianGroup,
    InvarianceError,
    Scenario,
    Subgroup,
    Subspace,
    canonical_extra_invariant,
    check_decomposable,
    check_extra_invariance,
    dual_partition,
    is_invariant,
    mask_apply,
    masked_component,
    sequence_extra_invariance,
    span_invariant,
    translate,
)

from conftest import random_function, random_invariant_space


def test_partition_golden_shear(shear):
    part = dual_partition(shear)
    assert part.labels == ((0,), (1,))
    assert [sorted(b) for b in part.blocks] == [
        [(0,), (2,), (4,)],
        [(1,), (3,), (5,)],
    ]
    assert part.block_of((3,)) == (1,)
    assert part.block_of((7,)) == (1,)  # reduced mod 6
    d = part.as_dict()
    assert d["blocks"][0] == {"label": [0], "elements": [[0], [2], [4]]}


def test_partition_golden_dilation(dilation):
    part = dual_partition(dilation)
    assert [sorted(b) for b in part.blocks] == [[(0,), (2,)], [(1,), (3,)]]


def test_partition_golden_chain12(chain12):
    part = dual_partition(chain12)
    assert part.labels == ((0,), (3,))
    assert sorted(part.blocks[0]) == [(0,), (1,), (2,), (6,), (7,), (8,)]
    assert sorted(part.blocks[1]) == [(3,), (4,), (5,), (9,), (10,), (11,)]


def test_partition_is_periodic_partition(scn):
    part = dual_partition(scn)
    union = set()
    for label, block in zip(part.labels, part.blocks):
        assert len(block) == scn.n_fibers * scn.extra_annihilator.order
        union |= set(block)
        for el in block:
            for d in scn.extra_annihilator.elements:
                assert part.block_of(scn.group.add(el, d)) == label
    assert union == set(scn.group.elements)
    # the block positions agree with the element sets
    for i, block in enumerate(part.blocks):
        marked = {scn.group.elements[j] for j in np.flatnonzero(part.positions == i)}
        assert marked == set(block)


def test_partition_single_block_when_subgroups_coincide():
    g = FiniteAbelianGroup([6])
    sub = Subgroup(g, [(2,)])
    scn = Scenario(g, sub, sub, ActionSpace.regular(g))
    part = dual_partition(scn)
    assert len(part.blocks) == 1
    assert part.blocks[0] == frozenset(g.elements)
    space = span_invariant(scn, random_function(scn, np.random.default_rng(0))[:, None])
    rep = check_extra_invariance(scn, space)
    assert rep.extra_invariant
    assert rep.component_dims == (space.dim,)


def test_stacked_coordinates_follow_block_labels(scn):
    # translating by an extra-subgroup element scales a stacked coordinate by
    # the pairing with its block label, the mechanism behind decomposability
    for delta in scn.extra.elements:
        for k, eta in enumerate(scn.annihilator_order):
            label = scn.block_labels[scn.coordinate_labels[k]]
            assert scn.group.pairing(delta, eta) == pytest.approx(
                scn.group.pairing(delta, label), abs=1e-12
            )


# -- masks ---------------------------------------------------------------------


def test_masks_resolve_identity(scn):
    part = dual_partition(scn)
    rng = np.random.default_rng(1)
    f = random_function(scn, rng)
    pieces = [mask_apply(scn, xi, f) for xi in part.labels]
    assert_allclose(sum(pieces), f, atol=1e-12)
    total = sum(scn.action.norm(p) ** 2 for p in pieces)
    assert total == pytest.approx(scn.action.norm(f) ** 2, rel=1e-12)
    for i, xi in enumerate(part.labels):
        assert_allclose(mask_apply(scn, xi, pieces[i]), pieces[i], atol=1e-12)
        for j, eta in enumerate(part.labels):
            if i != j:
                assert_allclose(
                    mask_apply(scn, eta, pieces[i]),
                    np.zeros_like(f),
                    atol=1e-12,
                )


def test_masks_commute_with_extra_translates(scn):
    part = dual_partition(scn)
    rng = np.random.default_rng(2)
    f = random_function(scn, rng)
    for delta in scn.extra.elements:
        for xi in part.labels:
            a = mask_apply(scn, xi, translate(scn.action, delta, f))
            b = translate(scn.action, delta, mask_apply(scn, xi, f))
            assert_allclose(a, b, atol=1e-10)


def test_mask_apply_columnwise(scn):
    part = dual_partition(scn)
    rng = np.random.default_rng(3)
    mat = np.column_stack([random_function(scn, rng) for _ in range(2)])
    xi = part.labels[-1]
    both = mask_apply(scn, xi, mat)
    for j in range(2):
        assert_allclose(both[:, j], mask_apply(scn, xi, mat[:, j]), atol=1e-12)


# -- the equivalence -----------------------------------------------------------


def test_generic_principal_space_is_not_extra_invariant(scn):
    rng = np.random.default_rng(4)
    space = span_invariant(scn, random_function(scn, rng)[:, None])
    rep = check_extra_invariance(scn, space)
    assert not rep.extra_invariant
    assert rep.translation_residual > 1e-6
    assert any(r > 1e-6 for r in rep.inclusion_residuals)
    assert rep.decomposition_deviation is None
    dec = check_decomposable(scn, space)
    assert not dec.decomposable
    assert dec.block_residual > 1e-6


def test_extra_invariant_span_decomposes(scn):
    rng = np.random.default_rng(5)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    space = span_invariant(scn, gens, scn.extra)
    rep = check_extra_invariance(scn, space)
    assert rep.extra_invariant
    assert sum(rep.component_dims) == space.dim
    assert rep.decomposition_deviation <= 1e-9
    assert rep.component_invariance_residual <= 1e-9
    dec = check_decomposable(scn, space)
    assert dec.decomposable
    assert dec.component_match_deviation <= 1e-9


def test_component_dims_of_full_space(scn):
    n = scn.action.n_points
    full = Subspace.span(scn, np.eye(n, dtype=complex))
    part = dual_partition(scn)
    rep = check_extra_invariance(scn, full)
    assert rep.extra_invariant
    expected = tuple(
        len(block) * len(scn.tiling.orbit_reps) for block in part.blocks
    )
    assert rep.component_dims == expected
    assert sum(rep.component_dims) == n


def test_zero_space_is_trivially_invariant(scn):
    zero = Subspace.zero(scn)
    rep = check_extra_invariance(scn, zero)
    assert rep.extra_invariant
    assert set(rep.component_dims) == {0}
    dec = check_decomposable(scn, zero)
    assert dec.decomposable


def test_masked_component_object(scn):
    rng = np.random.default_rng(6)
    space = span_invariant(scn, random_function(scn, rng)[:, None], scn.extra)
    part = dual_partition(scn)
    total = 0
    for xi in part.labels:
        comp = masked_component(scn, space, xi)
        total += comp.dim
        for k in range(comp.dim):
            assert space.contains(comp.frame[:, k])
    assert total == space.dim


def test_stacked_block_masks_follow_block_coordinates(scn):
    """Each block's stacked rows are the rows of the annihilator coordinates
    labelled with that block, increasing, and the blocks split the rows."""
    c = len(scn.tiling.orbit_reps)
    rows = extra_mod.stacked_block_rows(scn)
    assert rows is dual_partition(scn).rows
    assert rows.shape == (scn.n_blocks, scn.n_cosets * c // scn.n_blocks)
    assert np.array_equal(np.sort(rows, axis=None), np.arange(scn.n_cosets * c))
    for pos, keep in enumerate(rows):
        coords = np.flatnonzero(scn.coordinate_labels == pos)
        sel = (coords[:, None] * c + np.arange(c)[None, :]).ravel()
        assert np.array_equal(keep, sel)


def test_checks_share_one_mask_per_block(scn, monkeypatch):
    """A check pair transforms each space once and makes one mask-side SVD.

    One ``zak_full`` of the frame in any module: both checks read the
    frame's fiber matrices, memoised on the space.
    The mask side is one batched SVD of the block-row stack, shape
    (n_blocks, min(block rows, dim), dim), shared by both checks and by the inner
    extra-invariance check of ``check_decomposable``: a second check pair on
    the same space repeats every SVD call except that one.
    """
    transforms, svds = [], []
    zak_full, svd = extra_mod.zak_full, np.linalg.svd

    def counted_zak(*args, **kwargs):
        transforms.append(args[1].shape)
        return zak_full(*args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(extra_mod, "zak_full", counted_zak)
    monkeypatch.setattr(zak_mod, "zak_full", counted_zak)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(8)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    rows = scn.group.order // scn.n_blocks * len(scn.tiling.orbit_reps)  # per block
    for space in (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra)):
        runs = []
        for _ in range(2):
            transforms.clear()
            svds.clear()
            check_extra_invariance(scn, space)
            check_decomposable(scn, space)
            runs.append((list(transforms), Counter(svds)))
        (cold_zak, cold_svd), (warm_zak, warm_svd) = runs
        assert cold_zak == [space.frame.shape] and warm_zak == []
        # a tall stack goes through the SVD as its R factor
        stack = (scn.n_blocks, min(rows, space.dim), space.dim)
        assert cold_svd - warm_svd == Counter({stack: 1})
        assert not warm_svd - cold_svd


def test_checks_translate_the_frame_once_per_probe(scn, monkeypatch):
    """Each probe's translation test runs once per space, whatever asks for it.

    ``check_extra_invariance``, ``check_decomposable`` and its inner
    extra-invariance check all ask for base invariance, both
    extra-invariance checks for the extra translation test, and the
    component law for both; a cold check pair translates the frame once per
    base and extra probe and nothing else (no component frame), a warm one
    nothing at all.
    """
    rng = np.random.default_rng(10)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = [span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra)]
    probes = [
        tuple(sub.generators) or (scn.group.zero,) for sub in (scn.base, scn.extra)
    ]
    moved = []
    translate = spaces_mod.translate

    def counted(action, g, mat):
        moved.append((g, mat is space.frame))
        return translate(action, g, mat)

    monkeypatch.setattr(spaces_mod, "translate", counted)
    for space in spaces:
        runs = []
        for _ in range(2):
            moved.clear()
            check_extra_invariance(scn, space)
            check_decomposable(scn, space)
            runs.append(Counter(moved))
        cold, warm = runs
        assert cold == Counter((g, True) for g in probes[0] + probes[1])
        assert not warm


def test_component_law_matches_translated_components(scn):
    """The invariance law of a subspace of the space, read off the frame's
    maps, against translating its frame ``frame @ v`` in point space.

    For the block components (on spaces that are not extra-invariant they
    move by O(1)) and for random subspaces, which also move inside the
    space; the probes are the base and extra generators.
    """
    rng = np.random.default_rng(18)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra))
    for space in spaces:
        s, vh, _ = extra_mod._mask_side(scn, space)
        parts = [vh[b, s[b] > 1e-10].conj().T for b in range(scn.n_blocks)]
        for k in range(1, space.dim):
            shape = (space.dim, k)
            mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            parts.append(np.linalg.qr(mat)[0])
        maps = [
            spaces_mod._probe_maps(space, spaces_mod._probes(sub))
            for sub in (scn.base, scn.extra)
        ]
        inside = np.concatenate([m[1] for m in maps])
        gram = np.concatenate([m[2] for m in maps])
        for v in parts:
            part = Subspace(scn, space.frame @ v)
            want = max(is_invariant(part, sub)[1] for sub in (scn.base, scn.extra))
            got = extra_mod._within_residual(inside, gram, v)
            assert got == pytest.approx(want, abs=1e-12)
        laws = [extra_mod._within_residual(inside, gram, v) for v in parts]
        assert extra_mod._component_residual(scn, space) == max(laws[: scn.n_blocks])


def test_check_pair_memory_stays_within_the_zak_values():
    """Z_2048 on 2 orbits, trivial base, 2048 blocks, a principal space.

    With many blocks and one dimension, a (points x blocks) array would
    take 128 MiB; the checks take the blocks in runs whose temporaries are
    no larger than the frame's Zak values, so the pair peaks at a few MiB.
    """
    g = FiniteAbelianGroup([2048])
    scn = Scenario(g, Subgroup(g, []), Subgroup(g, [(1,)]), ActionSpace.regular(g, 2))
    gen = random_function(scn, np.random.default_rng(16))
    space = span_invariant(scn, gen[:, None])
    dual_partition(scn)  # the scenario's own tables, built once
    tracemalloc.start()
    try:
        ext = check_extra_invariance(scn, space)
        dec = check_decomposable(scn, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 1 and not ext.extra_invariant and not dec.decomposable
    assert peak < 4 * 2**20, peak


def test_dual_partition_holds_one_label_per_dual_element():
    """Z_2048, trivial base, extra = G: 2048 blocks of one dual element each.

    The partition keeps the block position of each dual element and the
    stacked rows of each block, |G| entries each on one orbit, and builds
    without a blocks x |G| table (4 MiB of bool masks here).
    """
    g = FiniteAbelianGroup([2048])
    scn = Scenario(g, Subgroup(g, []), Subgroup(g, [(1,)]), ActionSpace.regular(g))
    # the scenario's own index tables, cached on it, are built first
    scn.dual_split, scn.dual_unsplit, scn.coordinate_labels
    tracemalloc.start()
    try:
        part = dual_partition(scn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scn.n_blocks == g.order
    arrays = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2 and max(a.size for a in arrays) == g.order
    assert peak < 2**20, peak


def test_reports_do_not_depend_on_the_memo(scn):
    rng = np.random.default_rng(9)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    for space in (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra)):
        cold = Subspace(scn, space.frame)
        assert "_mask_side" not in vars(cold) and "_invariance" not in vars(cold)
        first = (check_extra_invariance(scn, cold), check_decomposable(scn, cold))
        assert "_mask_side" in vars(cold) and len(vars(cold)["_invariance"]) == 2
        warm = (check_extra_invariance(scn, cold), check_decomposable(scn, cold))
        fresh = Subspace(scn, space.frame)
        again = (check_extra_invariance(scn, fresh), check_decomposable(scn, fresh))
        assert [r.as_dict() for r in first] == [r.as_dict() for r in warm]
        assert [r.as_dict() for r in first] == [r.as_dict() for r in again]


def test_check_requires_base_invariance(chain12):
    f = np.zeros(12, dtype=complex)
    f[1] = 1.0
    space = Subspace.span(chain12, f[:, None])
    with pytest.raises(InvarianceError):
        check_extra_invariance(chain12, space)
    with pytest.raises(InvarianceError):
        check_decomposable(chain12, space)


def test_equivalence_sweep(scn):
    rng = np.random.default_rng(7)
    seen_true = seen_false = 0
    for _ in range(15):
        space = random_invariant_space(scn, rng)
        rep = check_extra_invariance(scn, space)  # raises on any disagreement
        dec = check_decomposable(scn, space)
        assert dec.decomposable == rep.extra_invariant
        if rep.extra_invariant:
            seen_true += 1
            assert rep.decomposition_deviation <= 1e-9
        else:
            seen_false += 1
    assert seen_true and seen_false  # the mix exercises both branches


# -- canonical construction ----------------------------------------------------


def test_canonical_space(scn):
    space = canonical_extra_invariant(scn)
    assert space.dim == scn.n_fibers
    rep = check_extra_invariance(scn, space)
    assert rep.extra_invariant
    assert rep.component_dims[0] == space.dim
    assert all(d == 0 for d in rep.component_dims[1:])
    assert rep.decomposition_deviation <= 1e-9


def test_canonical_space_degenerate_chains():
    g = FiniteAbelianGroup([6])
    sub = Subgroup(g, [(2,)])
    same = Scenario(g, sub, sub, ActionSpace.regular(g))
    assert canonical_extra_invariant(same).dim == same.n_fibers
    whole = Scenario(g, sub, Subgroup(g, [(1,)]), ActionSpace.regular(g))
    space = canonical_extra_invariant(whole)
    ok, _ = is_invariant(space, whole.extra)
    assert ok


# -- sequence-space oracle -----------------------------------------------------


def test_sequence_oracle_full_space_and_atom(shear):
    assert sequence_extra_invariance(shear, np.eye(6, dtype=complex)) is True
    atom = np.zeros((6, 1), dtype=complex)
    atom[0, 0] = 1.0
    assert sequence_extra_invariance(shear, atom) is False


def test_sequence_oracle_character_span(shear):
    g = shear.group
    cols = [
        np.array([g.pairing(t, h) for t in g.elements]) for h in [(0,), (2,), (4,)]
    ]
    basis = np.column_stack(cols)
    # spectra sit inside one block, so masking preserves the span
    assert sequence_extra_invariance(shear, basis) is True


def test_sequence_oracle_requires_base_invariance(chain12):
    atom = np.zeros((12, 1), dtype=complex)
    atom[0, 0] = 1.0
    with pytest.raises(InvarianceError):
        sequence_extra_invariance(chain12, atom)


def test_sequence_oracle_input_validation(shear):
    with pytest.raises(ValueError):
        sequence_extra_invariance(shear, np.zeros((5, 1), dtype=complex))


def test_range_function_consistency(scn):
    rng = np.random.default_rng(8)
    canonical = canonical_extra_invariant(scn)
    assert oracle.range_function_consistency(scn, canonical, rng=rng)
    psi = random_function(scn, rng)
    principal = span_invariant(scn, psi[:, None])
    assert oracle.range_function_consistency(scn, principal, rng=rng)
    assert oracle.range_function_consistency(scn, Subspace.zero(scn), rng=rng)
