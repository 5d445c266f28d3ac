"""Dual partition, masks, the invariance equivalence, and the cross-oracles."""
import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import actinv.extra as extra_mod
import actinv.scenario as scenario_mod
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
    TheoremViolationError,
    annihilator,
    canonical_extra_invariant,
    check_decomposable,
    check_extra_invariance,
    coset_section,
    dual_partition,
    evaluate_candidate,
    is_invariant,
    mask_apply,
    masked_component,
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
    g = shear.group
    assert part.labels[part.positions[g.index((3,))]] == (1,)
    assert part.labels[part.positions[g.index((7,))]] == (1,)  # reduced mod 6
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
                moved = scn.group.index(scn.group.add(el, d))
                assert part.labels[part.positions[moved]] == label
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
    part = dual_partition(scn)
    for delta in scn.extra.elements:
        for eta in scn.annihilator_order:
            label = part.labels[part.positions[scn.group.index(eta)]]
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


def test_masked_component_refusals_keep_their_order(chain12, shear):
    """Another scenario, then the base gate, then dimension 0, then the
    label: (1,) is not a block label of chain12."""
    rng = np.random.default_rng(7)
    space = span_invariant(chain12, random_function(chain12, rng))
    with pytest.raises(ValueError, match="another scenario"):
        masked_component(shear, space, (1,))
    atom = np.zeros(chain12.action.n_points, dtype=complex)
    atom[0] = 1.0
    with pytest.raises(InvarianceError, match="not invariant under the base"):
        masked_component(chain12, Subspace.span(chain12, atom), (1,))
    assert masked_component(chain12, Subspace.zero(chain12), (1,)).dim == 0
    with pytest.raises(KeyError):
        masked_component(chain12, space, (1,))
    comp = masked_component(chain12, space, dual_partition(chain12).labels[1])
    assert "frame" not in vars(comp)  # assembled only when read
    assert comp.dim == check_extra_invariance(chain12, space).component_dims[1]


def test_stacked_block_masks_follow_block_coordinates(scn):
    """Each block's stacked rows are the rows of the annihilator coordinates
    labelled with that block, increasing, and the blocks split the rows."""
    c = len(scn.tiling.orbit_reps)
    part = dual_partition(scn)
    rows = part.rows
    n_blocks = len(part.labels)
    assert rows.shape == (n_blocks, scn.n_cosets * c // n_blocks)
    assert np.array_equal(np.sort(rows, axis=None), np.arange(scn.n_cosets * c))
    # annihilator coordinate k is the dual element annihilator_order[k] of fiber 0
    labels = part.positions[scn.base_annihilator.indices]
    for pos, keep in enumerate(rows):
        coords = np.flatnonzero(labels == pos)
        sel = (coords[:, None] * c + np.arange(c)[None, :]).ravel()
        assert np.array_equal(keep, sel)


def _counted(monkeypatch, module, name, calls):
    """Patch ``module.name`` to log the shape of its input, or its probe."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, args[1] if name == "translate" else np.shape(args[1])))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _passes(monkeypatch):
    """Log every probe pass (``_moved``), modulation row the scenario
    builds (its probe), SVD and ``eigvalsh``, as ``(kind, shape, vectors)``
    entries of the returned list."""
    log = []
    moved, modulation, svd = spaces_mod._moved, Scenario.modulation, np.linalg.svd
    eigvalsh = np.linalg.eigvalsh

    def counted_moved(d, basis):
        log.append(("moved", basis.shape, None))
        return moved(d, basis)

    def counted_modulation(self, g):
        if g not in self._modulation:
            log.append(("row", g, None))
        return modulation(self, g)

    def counted_svd(a, *args, **kwargs):
        log.append(("svd", a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def counted_eigvalsh(a, *args, **kwargs):
        log.append(("eigvalsh", a.shape, None))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(spaces_mod, "_moved", counted_moved)
    monkeypatch.setattr(Scenario, "modulation", counted_modulation)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return log


def _moving(scn):
    """The distinct probes of base and extra that lie outside the base, in
    order: the only ones that can move a range function."""
    probes = spaces_mod._probes(scn.base) + spaces_mod._probes(scn.extra)
    return tuple(g for g in dict.fromkeys(probes) if g not in scn.base)


def _fresh(scn):
    """A scenario with the same group, chain and action and no memo: the
    bank's scenarios are shared with other tests."""
    return Scenario(scn.group, scn.base, scn.extra, scn.action)


def _rows(scn, probes):
    """The probes each have one memoised modulation row, bit for bit its
    definition (``oracle.modulation_row``); no base probe has one."""
    for g in probes:
        assert scn.modulation(g) is scn.modulation(g)
        assert scn.modulation(g).tobytes() == oracle.modulation_row(scn, g).tobytes()
    assert not set(spaces_mod._probes(scn.base)) & set(scn._modulation)


def _pair(scn, space, log):
    """One check pair; the log entries it made, by kind."""
    log.clear()
    check_extra_invariance(scn, space)
    check_decomposable(scn, space)
    return {kind: [(shape, vectors) for k, shape, vectors in log if k == kind]
            for kind in ("moved", "row", "svd", "eigvalsh")}


def test_checks_share_one_mask_per_block(scn, monkeypatch):
    """A check pair on a fiber-built space reads nothing but its range function.

    No transform or inverse transform runs (the frame is never assembled;
    that no module but ``actions`` translates in point space is a source
    rule, ``test_source.py``).  A cold pair makes one probe pass
    (``_moved``, one modulated basis and the r x r Gram matrix of its part
    outside the space, read by one ``eigvalsh``) per distinct probe of base
    and extra outside the base, which the residuals and the component law share,
    and none for a base probe (the base gate makes no pass at all); one
    SVD with vectors, of the block rows of every fiber basis, shape
    (n_fibers, n_blocks, block rows, r_max), which both checks and the
    inner extra-invariance check of ``check_decomposable`` share; and, on
    an extra-invariant space with a probe outside the base, one
    ``eigvalsh`` of the component law's (probes, n_fibers, n_blocks, k, k)
    stack.  No QR and no values-only SVD runs.  A warm pair makes no pass,
    no SVD and no ``eigvalsh`` at all.  The scenario builds the modulation
    row of each of those probes once, for the first space; a second space
    on it reads the memoised rows.
    """
    scn = _fresh(scn)
    rng = np.random.default_rng(8)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra))
    calls = []
    for module in (zak_mod, spaces_mod, extra_mod):
        for name in ("zak_full", "zak_full_inv", "zak_stacked", "zak_stacked_inv"):
            if hasattr(module, name):
                _counted(monkeypatch, module, name, calls)
    log = _passes(monkeypatch)
    size = dual_partition(scn).rows.shape[1]
    probes = _moving(scn)
    for i, space in enumerate(spaces):
        log.clear()
        spaces_mod.require_base_invariant(space)
        assert log == []
        cold, warm = _pair(scn, space, log), _pair(scn, space, log)
        r = space._basis.shape[2]
        split = (scn.n_fibers, len(dual_partition(scn).labels), size, r)
        assert cold["moved"] == [(space._basis.shape, None)] * len(probes)
        assert set(vars(space)["_invariance"]) == set(probes)
        assert cold["svd"] == [(split, True)]
        gram = (scn.n_fibers, r, r)
        k = min(size, r)
        law = (len(probes),) + split[:2] + (k, k)
        invariant = check_extra_invariance(scn, space).extra_invariant
        assert cold["eigvalsh"] == [(gram, None)] * len(probes) + (
            [(law, None)] if invariant and probes else []
        )
        assert cold["row"] == ([] if i else [(g, None) for g in probes])
        assert warm == {"moved": [], "row": [], "svd": [], "eigvalsh": []}
        assert "frame" not in vars(space)
    _rows(scn, probes)
    assert calls == []


@pytest.mark.parametrize(
    "moduli,base,extra,probes",
    [
        ((12,), [], [(3,)], [(3,)]),  # trivial base: the zero probe is in it
        ((12,), [(4,)], [(4,)], []),  # extra == base: no probe moves a fiber
        ((6,), [], [], []),  # both trivial: the zero probe only
        ((2, 6), [(0, 2)], [(1, 0), (0, 2)], [(1, 0)]),  # a shared generator
    ],
)
def test_one_probe_pass_per_distinct_probe(moduli, base, extra, probes, monkeypatch):
    """The scenario memoises one modulation row per distinct probe outside
    the base, 16 bytes per dual element, and none for a base probe; a cold
    check pair makes one pass per such probe and a warm one none; its
    residuals agree with translating the frame in point space, and the
    components of an extra-invariant space keep the law."""
    g = FiniteAbelianGroup(list(moduli))
    weights = np.exp(np.random.default_rng(33).uniform(0.0, np.log(1e3), 2 * g.order))
    scn = Scenario(g, Subgroup(g, base), Subgroup(g, extra), ActionSpace.regular(g, 2, weights))
    assert list(_moving(scn)) == probes
    rng = np.random.default_rng(34)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra))
    log = _passes(monkeypatch)
    for i, space in enumerate(spaces):
        cold, warm = _pair(scn, space, log), _pair(scn, space, log)
        assert len(cold["moved"]) == len(probes)
        assert cold["row"] == ([] if i else [(p, None) for p in probes])
        assert warm == {"moved": [], "row": [], "svd": [], "eigvalsh": []}
        ext = check_extra_invariance(scn, space)
        want = oracle.translation_residual(space, scn.extra)
        assert ext.translation_residual == pytest.approx(want, abs=1e-12)
        if ext.extra_invariant:
            assert ext.component_invariance_residual <= 1e-12
    _rows(scn, probes)
    assert all(scn.modulation(p).nbytes == 16 * g.order for p in probes)


def test_frame_given_space_makes_its_probe_passes_after_the_gate(scn, monkeypatch):
    """A frame-given space's ``_basis`` is its whole stacked frame, one
    fiber of n_points rows, which the constructor corrected to
    orthonormal, until its base gate; over a trivial base that one fiber
    is the one Zak fiber, so it already is the range function.  On it the
    space makes one probe pass per distinct probe, moved by the probe's
    modulation row, with the point-space oracle's residuals, and memoises it, base
    probes included, unless the base is trivial: then the whole stacked
    frame is the one Zak fiber, and a base probe reads 0.0 with no pass.
    A repeated call makes none.  The scenario builds each probe's row
    once.  Over a nontrivial base the gate reads those base passes,
    assigns the cut to ``_basis`` and drops the memo; a cold check pair
    then makes one pass on the range function per distinct probe outside
    the base.  Over a trivial base the corrected whole stacked frame is
    the range function: the gate keeps it and its passes, and a cold pair
    makes none.  Neither builds a row, a warm pair makes no pass, and the
    reports have the fiber-built original's verdicts and dimensions."""
    scn = _fresh(scn)
    rng = np.random.default_rng(35)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    log = _passes(monkeypatch)
    probes = _moving(scn)
    pair = (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra))
    built = set()
    for space in pair:
        given = Subspace(scn, space.frame)
        whole = (1, scn.action.n_points, space.dim)
        before = vars(given)["_basis"]  # read by the constructor's check
        assert before.shape == whole
        passed = set()
        for sub in (scn.base, scn.extra, scn.base):  # on the whole frame, before the gate
            log.clear()
            verdict = is_invariant(given, sub)
            assert verdict[1] == pytest.approx(oracle.translation_residual(space, sub), abs=1e-12)
            if sub is scn.extra:
                ok, res = verdict
            want = []
            for g in dict.fromkeys(spaces_mod._probes(sub)):
                if scn.n_fibers == 1 and g in scn.base:
                    continue
                if g not in passed:
                    want += [] if g in built else [("row", g)]
                    want.append(("moved", whole))
                built.add(g)
                passed.add(g)
            assert [(k, s) for k, s, _ in log if k in ("moved", "row")] == want
            assert given._basis is before
            assert set(vars(given).get("_invariance", ())) == passed
        cold, warm = _pair(scn, given, log), _pair(scn, given, log)
        trivial = scn.n_fibers == 1
        rows = scn.action.n_points // scn.n_fibers
        assert given._basis.shape[:2] == (scn.n_fibers, rows)
        assert (given._basis is before) == trivial
        assert cold["moved"] == ([] if trivial else [(given._basis.shape, None)] * len(probes))
        assert cold["row"] == []
        assert set(vars(given)["_invariance"]) == set(probes)
        assert warm == {"moved": [], "row": [], "svd": [], "eigvalsh": []}
        ext = check_extra_invariance(scn, given)
        assert ext.extra_invariant == ok == check_extra_invariance(scn, space).extra_invariant
        assert ext.translation_residual == pytest.approx(res, abs=1e-12)
        assert ext.component_dims == check_extra_invariance(scn, space).component_dims


def test_checks_translate_the_frame_once_per_probe(scn, monkeypatch):
    """Only a frame-given space is transformed, and once in its life.

    Its constructor transforms the frame once, for its orthonormality
    check and its whole stacked frame, which every ``is_invariant``
    before the base gate reads without a transform, whatever the number
    of probes and calls; ``check_extra_invariance``, ``check_decomposable``
    and its inner extra-invariance check all ask for base invariance, and
    the gate cuts the same whole stacked frame, so a check pair on it
    transforms nothing.  A space the library built from a frame
    (``Subspace.span``) is transformed once, on its first probe.  A
    fiber-built space is never transformed.  ``fiber_matrices`` transforms
    through the unchecked stacking kernel ``zak._zak_stacked``, which
    ``spaces`` holds by name.
    """
    rng = np.random.default_rng(10)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = [span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra)]
    calls = []
    _counted(monkeypatch, spaces_mod, "_zak_stacked", calls)
    for space in spaces:
        once = [("_zak_stacked", space.frame.shape)]
        calls.clear()
        given = Subspace(scn, space.frame)
        assert calls == once
        for sub in (scn.base, scn.extra, scn.base):
            calls.clear()
            is_invariant(given, sub)
            assert calls == []
        spanned = Subspace.span(scn, space.frame)
        for subject, want in ((space, []), (given, []), (spanned, once)):
            runs = []
            for _ in range(2):
                calls.clear()
                check_extra_invariance(scn, subject)
                check_decomposable(scn, subject)
                runs.append(list(calls))
            cold, warm = runs
            assert cold == want and warm == []


def test_warm_check_returns_its_report_before_the_gate(scn, monkeypatch):
    """After ``check_extra_invariance(scn, space, tol)``,
    ``check_decomposable(scn, space, tol)`` makes no probe pass, no SVD and
    no ``eigvalsh``: its inner check returns the memoised report before the
    base gate.  The gate of a fiber-built space returns its range function
    itself with no probe pass.  The scenario and ``tol`` are still checked
    before the memo is read: a space of another scenario is refused, and a
    new ``tol`` makes a new report with the same residuals."""
    scn = _fresh(scn)
    rng = np.random.default_rng(41)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (
        span_invariant(scn, gens[:, :1]),
        span_invariant(scn, gens, scn.extra),
        canonical_extra_invariant(scn),
    )
    log, passes = _passes(monkeypatch), []
    for module in (spaces_mod, extra_mod):
        _counted(monkeypatch, module, "_probe_pass", passes)
    for space in spaces:
        passes.clear()
        assert spaces_mod.require_base_invariant(space) is space._basis
        assert passes == []
        ext = check_extra_invariance(scn, space, 1e-8)
        log.clear()
        passes.clear()
        dec = check_decomposable(scn, space, 1e-8)
        assert log == [] and passes == []
        assert dec.decomposable == ext.extra_invariant
        with pytest.raises(ValueError, match="another scenario"):
            check_extra_invariance(_fresh(scn), space, 1e-8)
        with pytest.raises(ValueError, match="finite positive"):
            check_extra_invariance(scn, space, np.nan)
        new = check_extra_invariance(scn, space, 1e-7)
        assert new is not ext and set(vars(space)["_reports"]) == {1e-8, 1e-7}
        assert new.as_dict() == ext.as_dict()


def test_component_law_matches_translated_components(scn):
    """The component law, read off the range function, against translating
    each component in point space.

    For the block components of a space (kept directions of the block-row
    SVD; on spaces that are not extra-invariant they move by O(1)) and for
    random subspaces of its fibers, one per block: ``_component_law`` under
    the base and extra generators equals the largest singular value of the
    translated frame's residual in point space, and so does the top
    singular value read off ``_moved``'s Gram matrix for the space itself.
    A component may leave its last column empty on every fiber, which
    ``from_fibers`` refuses, so the reference takes it through the
    unchecked ``_of_range``.
    """
    rng = np.random.default_rng(18)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra))
    subs = (scn.base, scn.extra)
    mods = [oracle.modulation_row(scn, g) for h in subs for g in spaces_mod._probes(h)]
    for space in spaces:
        basis = space._basis
        grams = [spaces_mod._moved(d, basis)[1] for d in mods]
        moved = max(np.sqrt(max(np.max(np.linalg.eigvalsh(g)), 0.0)) for g in grams)
        want = max(oracle.translation_residual(space, h) for h in subs)
        assert moved == pytest.approx(want, abs=1e-12)
        kv = extra_mod._split(scn, space, basis)[2]
        width = basis.shape[2]
        shape = kv.shape[:2] + (width, width)
        mix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for coeffs in (kv, np.linalg.qr(mix)[0][..., : 1 + width // 2]):
            got = extra_mod._component_law(space, coeffs)
            parts = [basis @ coeffs[:, b] for b in range(shape[1])]
            want = max(
                oracle.translation_residual(Subspace._of_range(scn, p), h)
                for p in parts
                for h in subs
            )
            assert got == pytest.approx(want, abs=1e-12)


def test_check_pair_memory_stays_within_the_zak_values():
    """Z_2048 on 2 orbits, trivial base, 2048 blocks, a principal space.

    With many blocks and one dimension, a (points x blocks) array would
    take 128 MiB, and so would the block SVD's (blocks x blocks) products
    of every direction with every block; the checks multiply only the 2r
    heaviest directions, so the pair peaks well below 1 MiB.
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


def test_extra_spanned_check_pair_stays_within_the_range_function():
    """Z_64 x Z_64 on 2 orbits, base <(8,0),(0,8)>, extra <(4,0),(0,4)>.

    The extra-spanned space has dim 512, 8 per fiber: its frame alone
    takes 64 MiB, its range function 1 MiB.  The check pair reads the
    range function only, so it peaks far below the frame and leaves the
    frame unassembled.
    """
    rng = np.random.default_rng(29)
    g = FiniteAbelianGroup([64, 64])
    weights = np.exp(rng.uniform(0.0, np.log(1e3), 2 * g.order))
    act = ActionSpace.regular(g, orbits=2, weights=weights)
    scn = Scenario(g, Subgroup(g, [(8, 0), (0, 8)]), Subgroup(g, [(4, 0), (0, 4)]), act)
    shape = (act.n_points, 2)
    gens = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    space = span_invariant(scn, gens, scn.extra)
    dual_partition(scn)  # the scenario's own tables, built once
    tracemalloc.start()
    try:
        ext = check_extra_invariance(scn, space)
        dec = check_decomposable(scn, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 512 and ext.extra_invariant and dec.decomposable
    assert ext.component_dims == (128, 128, 128, 128)
    assert "frame" not in vars(space)
    assert peak < 64 * 2**20, peak


def test_dual_partition_holds_one_label_per_dual_element():
    """Z_2048, trivial base, extra = G: 2048 blocks of one dual element each.

    The partition keeps the block position of each dual element and the
    stacked rows of each block, |G| entries each on one orbit, and builds
    without a blocks x |G| table (4 MiB of bool masks here).
    """
    g = FiniteAbelianGroup([2048])
    scn = Scenario(g, Subgroup(g, []), Subgroup(g, [(1,)]), ActionSpace.regular(g))
    # the scenario's own index tables, cached on it, are built first
    scn.dual_split, scn.dual_unsplit
    tracemalloc.start()
    try:
        part = dual_partition(scn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(part.labels) == g.order
    arrays = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2 and max(a.size for a in arrays) == g.order
    assert peak < 2**20, peak


def test_reports_do_not_depend_on_the_memo(scn):
    """Reports are the same cold, warm and on a fresh copy, also when the
    cold copy was asked for its extra invariance before the base gate.  A
    cold frame-given space holds its whole stacked frame as ``_basis``, one
    fiber corrected to orthonormal by the constructor, and no split or
    probe pass; after the checks it holds its range
    function there, one basis per Zak fiber, the block split and one
    residual per base and extra probe outside the base, and the fiber-built
    original agrees with it in every verdict and dimension."""
    rng = np.random.default_rng(9)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    probes = set(_moving(scn))
    for space in (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra)):
        cold = Subspace(scn, space.frame)
        assert vars(cold)["_basis"].shape == (1, scn.action.n_points, space.dim)
        assert not {"_split", "_invariance"} & set(vars(cold))
        is_invariant(cold, scn.extra)  # on the whole stacked frame, before the base gate
        first = (check_extra_invariance(scn, cold), check_decomposable(scn, cold))
        rows = scn.action.n_points // scn.n_fibers
        assert cold._basis.shape[:2] == (scn.n_fibers, rows) and "_split" in vars(cold)
        assert set(vars(cold)["_invariance"]) == probes
        assert all(factor is not None for *_, factor in vars(cold)["_invariance"].values())
        warm = (check_extra_invariance(scn, cold), check_decomposable(scn, cold))
        fresh = Subspace(scn, space.frame)
        again = (check_extra_invariance(scn, fresh), check_decomposable(scn, fresh))
        assert [r.as_dict() for r in first] == [r.as_dict() for r in warm]
        assert [r.as_dict() for r in first] == [r.as_dict() for r in again]
        built = check_extra_invariance(scn, space)
        assert built.extra_invariant == first[0].extra_invariant
        assert built.component_dims == first[0].component_dims


def test_report_memo_is_keyed_by_tol(chain12):
    """The same ``tol`` returns the same report object; a ``tol`` on the
    other side of the space's translation residual makes a new report with
    the other verdict, and the first stays memoised.

    The space spans the extra translates of one function with its fiber
    bases moved by about 1e-11: its residuals sit well between the two
    ``tol``, and the directions the noise adds to a block stay below the
    rank floor, so both sides of the theorem agree at both.
    """
    rng = np.random.default_rng(36)
    basis = span_invariant(chain12, random_function(chain12, rng), chain12.extra)._basis
    noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    moved = basis + 1e-11 * noise * np.any(basis, axis=1, keepdims=True)
    base_rows = chain12.block_rows(chain12.base)
    space = Subspace.from_fibers(chain12, spaces_mod._block_cut(moved, base_rows))
    loose = check_extra_invariance(chain12, space)
    assert check_extra_invariance(chain12, space, 1e-9) is loose
    strict = check_extra_invariance(chain12, space, 1e-13)
    assert strict is not loose
    assert 1e-13 < strict.translation_residual == loose.translation_residual < 1e-9
    assert loose.extra_invariant and not strict.extra_invariant
    assert check_decomposable(chain12, space).decomposable
    assert not check_decomposable(chain12, space, 1e-13).decomposable
    assert check_extra_invariance(chain12, space) is loose


def test_canonical_check_pair_stays_within_the_range_function():
    """Z_16384 on 2 orbits, base <1024> (order 16), extra <256> (order 64).

    The canonical space has one dimension on each of its 16 fibers, and
    each of the 4 blocks has 512 of a fiber's 2048 rows.  The match
    deviation reads the diagonals of the projectors on the block rows, so
    the pair peaks at a few MiB; a (block rows)^2 gap would take 4 MiB per
    fiber and block.
    """
    g = FiniteAbelianGroup([16384])
    scn = Scenario(g, Subgroup(g, [(1024,)]), Subgroup(g, [(256,)]), ActionSpace.regular(g, 2))
    space = canonical_extra_invariant(scn)
    dual_partition(scn)  # the scenario's own tables, built once
    tracemalloc.start()
    try:
        ext = check_extra_invariance(scn, space)
        dec = check_decomposable(scn, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 16 and ext.extra_invariant and dec.decomposable
    assert ext.component_dims == (16, 0, 0, 0)
    assert peak < 4 * 2**20, peak


def test_frame_given_gate_needs_the_whole_dimension(chain12):
    """A frame-given space passes the base gate only when its fibers, cut by
    the rank rule, hold exactly its dimension, whatever its residual.

    A principal space moved by 1e-6 is invariant at ``tol=1e-3``, but its
    fibers, cut at 1e-10 of the largest, have more dimensions than it.
    """
    rng = np.random.default_rng(27)
    space = span_invariant(chain12, random_function(chain12, rng))
    noise = np.column_stack([random_function(chain12, rng) for _ in range(space.dim)])
    moved = Subspace.span(chain12, space.frame + 1e-6 * noise)
    assert is_invariant(moved, chain12.base, 1e-3)[0]
    with pytest.raises(InvarianceError, match=f"the space has {space.dim}"):
        check_extra_invariance(chain12, moved, 1e-3)


def _orthonormal_gap(basis):
    """The largest entry of ``|B^H B - I|`` over fiber bases (fibers, rows,
    r), the identity taken on each fiber's nonzero columns."""
    used = basis.any(axis=1)
    gram = basis.conj().swapaxes(1, 2) @ basis
    return np.abs(gram - np.eye(basis.shape[2]) * used[:, None, :]).max()


@pytest.mark.parametrize("kind", ["frame", "fibers"])
def test_constructors_correct_the_columns_they_accept(scn, kind):
    """Both public constructors check a caller's columns, then correct them
    to orthonormal by one Newton-Schulz step, alike on every base: the
    whole stacked frame of ``Subspace(scn, frame)``, each fiber basis of
    ``Subspace.from_fibers``.  An extra span's frame, or its range
    function, with its first column scaled by 1 + 4.5e-11 is accepted, its
    ``|Q^H W Q - I|`` or ``|B^H B - I|`` 9e-11, below ``_FRAME_TOL``.  The
    space's columns are then orthonormal to roundoff in the same layout,
    and at tol 1e-11 both checks find it invariant, with the fiber-built
    original's dimensions and every report residual of roundoff size.
    Taken as given, the tilt reads 9e-11: such a frame fails the base gate
    over a nontrivial base, and such fiber bases make the check pair
    disagree (``TheoremViolationError``)."""
    rng = np.random.default_rng(3)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    space = span_invariant(scn, gens, scn.extra)
    if kind == "frame":
        cols = space.frame.copy()
        cols[:, 0] *= 1 + 4.5e-11
        tilt = _orthonormal_gap((np.sqrt(scn.action.weights)[:, None] * cols)[None])
        given = Subspace(scn, cols)
    else:
        cols = space._basis.copy()
        cols[:, :, 0] *= 1 + 4.5e-11
        tilt = _orthonormal_gap(cols)
        given = Subspace.from_fibers(scn, cols)
        assert np.array_equal(given._basis.any(axis=1), space._basis.any(axis=1))
    assert 5e-11 < tilt <= spaces_mod._FRAME_TOL
    assert _orthonormal_gap(given._basis) <= 1e-14
    ext, dec = check_extra_invariance(scn, given, 1e-11), check_decomposable(scn, given, 1e-11)
    assert ext.extra_invariant and dec.decomposable
    assert ext.component_dims == check_extra_invariance(scn, space).component_dims
    residuals = [
        ext.translation_residual,
        *ext.inclusion_residuals,
        ext.decomposition_deviation,
        ext.component_invariance_residual,
        dec.block_residual,
        dec.component_match_deviation,
    ]
    assert max(residuals) <= 1e-14, residuals


def test_check_requires_base_invariance(chain12):
    f = np.zeros(12, dtype=complex)
    f[1] = 1.0
    space = Subspace.span(chain12, f[:, None])
    with pytest.raises(InvarianceError):
        check_extra_invariance(chain12, space)
    with pytest.raises(InvarianceError):
        check_decomposable(chain12, space)


def test_space_of_another_scenario_is_refused():
    """Z_12 on 2 orbits, base <4>; A has extra <2>, B extra <1>.

    A space spanned on A holds A's memos.  Every reader taking the scenario
    and a space refuses B before it reads or writes them, so A's report
    stays ``True, (3, 3)``, also when B comes first on a fresh space.
    Without the refusal, a check against B memoised B's four-block split,
    and A's check read it as ``False, (3, 3, 3, 3)``.
    """
    g = FiniteAbelianGroup([12])
    act = ActionSpace.regular(g, orbits=2)
    scn_a = Scenario(g, Subgroup(g, [(4,)]), Subgroup(g, [(2,)]), act)
    scn_b = Scenario(g, Subgroup(g, [(4,)]), Subgroup(g, [(1,)]), act)
    space = span_invariant(scn_a, random_function(scn_a, np.random.default_rng(40)), scn_a.extra)
    ext = check_extra_invariance(scn_a, space)
    assert (ext.extra_invariant, ext.component_dims) == (True, (3, 3))
    data = space.frame[:, :1]
    memos = dict(vars(space))
    for reader in (check_extra_invariance, check_decomposable, evaluate_candidate):
        args = (data, space) if reader is evaluate_candidate else (space,)
        with pytest.raises(ValueError, match="another scenario"):
            reader(scn_b, *args)
    with pytest.raises(ValueError, match="another scenario"):
        masked_component(scn_b, space, (0,))
    assert vars(space).keys() == memos.keys()
    assert all(vars(space)[key] is memo for key, memo in memos.items())
    assert check_extra_invariance(scn_a, space) is ext
    assert check_decomposable(scn_a, space).decomposable
    fresh = span_invariant(scn_a, random_function(scn_a, np.random.default_rng(41)), scn_a.extra)
    with pytest.raises(ValueError, match="another scenario"):
        check_extra_invariance(scn_b, fresh)
    ext = check_extra_invariance(scn_a, fresh)
    assert (ext.extra_invariant, ext.component_dims) == (True, (3, 3))


# -- fault injection: every theorem guard raises on a corrupted input -------------
#
# chain12 is Z_12 with base <4> and extra <2>: three fibers, four stacked
# coordinates (the base annihilator 0, 3, 6, 9), two blocks labelled 0 and
# 3, and the extra annihilator <6>.  Each test corrupts one input its guard
# reads, on a fresh scenario, so the bank's shared memos stay clean.


def _corrupted_section(monkeypatch, scn, subgroup, labels):
    """A fresh copy of ``scn`` whose partition along ``subgroup`` reads the
    block labels ``labels`` at the annihilator coordinates: the partition
    build's coset section of the subgroup's annihilator inside the base
    annihilator comes with those positions there, every other section as
    it is, and no partition is built yet."""
    fresh, target = _fresh(scn), annihilator(subgroup)

    def corrupted(group, sub, within=None):
        section = coset_section(group, sub, within=within)
        if within is None or sub != target:
            return section
        positions = section.positions.copy()
        positions[scn.base_annihilator.indices] = labels
        return dataclasses.replace(section, positions=positions)

    monkeypatch.setattr(scenario_mod, "coset_section", corrupted)
    assert not fresh._partitions
    return fresh


@pytest.mark.parametrize(
    "labels,message,details",
    [
        ([0, 0, 0, 1], "block has the wrong size", {"label": [0], "size": 9}),
        ([1, 0, 0, 1], "is not extra-annihilator invariant", {"label": [3], "element": [0]}),
        ([1, 0, 1, 0], "positions disagree with the block definition", {}),
    ],
)
def test_partition_guards_catch_corrupted_coordinate_labels(
    chain12, monkeypatch, labels, message, details
):
    """The block label of each annihilator coordinate, read off the extra
    subgroup's coset section (``[0, 1, 0, 1]`` when clean), decides every
    block position.  One coordinate moved to the wrong label breaks the
    block sizes; two swapped keep the sizes but break invariance under the
    extra annihilator; the two labels swapped everywhere keep both but
    contradict the block definition."""
    coordinate = dual_partition(chain12).section.positions[chain12.base_annihilator.indices]
    assert coordinate.tolist() == [0, 1, 0, 1]
    scn = _corrupted_section(monkeypatch, chain12, chain12.extra, labels)
    with pytest.raises(TheoremViolationError, match=message) as err:
        dual_partition(scn)
    assert err.value.details == details


@pytest.mark.parametrize(
    "labels,message,details",
    [
        ([0, 1, 1, 3], "block has the wrong size", {"label": [3], "size": 6}),
        ([1, 0, 2, 3], "positions disagree with the block definition", {}),
    ],
)
def test_partition_guards_hold_for_every_subgroup(chain12, monkeypatch, labels, message, details):
    """The guards check every subgroup's table, not only the extra one's:
    along the whole group, neither the base nor the extra subgroup, the
    annihilator is trivial and each of the four annihilator coordinates
    is its own block (``[0, 1, 2, 3]`` when clean).  One coordinate moved
    to another label breaks the block sizes; two swapped contradict the
    block definition.  The corrupted table reaches neither ``block_rows``
    nor a span along the subgroup."""
    whole = Subgroup(chain12.group, [(1,)])
    assert whole not in (chain12.base, chain12.extra)
    assert chain12.partition(whole).positions[chain12.base_annihilator.indices].tolist() == [
        0, 1, 2, 3
    ]
    for reader in (
        lambda scn: scn.block_rows(whole),
        lambda scn: span_invariant(scn, random_function(scn, np.random.default_rng(0)), whole),
    ):
        scn = _corrupted_section(monkeypatch, chain12, whole, labels)
        with pytest.raises(TheoremViolationError, match=message) as err:
            reader(scn)
        assert err.value.details == details
        assert dual_partition(scn).rows.tolist() == chain12.block_rows(chain12.extra).tolist()


def test_partition_guard_catches_blocks_that_do_not_tile(chain12):
    """The defining set-sums omega + xi + d read the extra annihilator's
    elements, taken from the scenario's annihilator memo; with every
    element read as zero, the six sums omega + xi each cover one dual
    element |extra-annihilator| times."""
    ann = copy.copy(chain12.extra_annihilator)
    ann.indices = np.zeros_like(ann.indices)
    scn = _fresh(chain12)
    scn._annihilators[scn.extra] = ann
    with pytest.raises(TheoremViolationError, match="do not tile the dual group") as err:
        dual_partition(scn)
    assert err.value.details == {"covered": 6, "order": 12}


def test_partition_guard_catches_corrupted_stacked_rows(chain12):
    """The stacked block rows are read off fiber 0 and checked at every
    fiber; two coordinates of fiber 1 swapped put dual elements of both
    blocks on one block's rows."""
    unsplit = chain12.dual_unsplit.copy()
    unsplit[1, [0, 1]] = unsplit[1, [1, 0]]
    scn = _fresh(chain12)
    scn.dual_unsplit = unsplit
    with pytest.raises(TheoremViolationError, match="stacked block rows disagree") as err:
        dual_partition(scn)
    assert err.value.details == {}


def _check_inputs(chain12, seed, extra_spanned):
    """A fresh chain12 and a space on it: a principal space (not
    extra-invariant) or an extra span (extra-invariant)."""
    scn = _fresh(chain12)
    f = random_function(scn, np.random.default_rng(seed))
    space = span_invariant(scn, f, scn.extra if extra_spanned else None)
    clean = check_extra_invariance(chain12, Subspace.from_fibers(chain12, space._basis))
    assert clean.extra_invariant == extra_spanned
    return scn, space, clean


def test_check_guard_catches_a_corrupted_modulation_row(chain12):
    """The extra probe's memoised modulation row replaced by ones (the
    identity) makes a space that is not extra-invariant pass the
    translation test, while the mask side, which never reads the row,
    keeps its inclusion residuals."""
    scn, space, clean = _check_inputs(chain12, 50, extra_spanned=False)
    (g,) = _moving(scn)
    scn._modulation[g] = np.ones((scn.n_fibers, scn.n_cosets), dtype=complex)
    with pytest.raises(TheoremViolationError, match="translation test and mask-inclusion") as err:
        check_extra_invariance(scn, space)
    moved = spaces_mod._moved(scn._modulation[g], space._basis)[1]
    assert err.value.details == {
        "translation_residual": spaces_mod._top(moved),
        "inclusion_residuals": list(clean.inclusion_residuals),
    }
    assert err.value.details["translation_residual"] < 1e-12


def test_check_guard_catches_corrupted_component_coefficients(chain12):
    """The directions ``v`` zeroed in the memoised split, before the first
    check, leave the verdict alone (it reads ``t`` and ``off``) but make
    the components' coefficients ``kv`` sum to no projector: the gap is
    the identity, far above its bound."""
    scn, space, _ = _check_inputs(chain12, 51, extra_spanned=True)
    extra_mod._split(scn, space, space._basis)
    a, t, v, off, _ = space._split
    space._split = (a, t, np.zeros_like(v), off, {})
    with pytest.raises(TheoremViolationError, match="fail their structure laws") as err:
        check_extra_invariance(scn, space)
    assert err.value.details == {"decomposition": 1.0, "component_invariance": 0.0}


def test_decomposable_guards_catch_a_split_corrupted_between_the_checks(chain12):
    """``check_decomposable`` reads the split that its inner check
    memoised.  With its directions ``v`` zeroed and its cuts dropped
    between the two checks, the components' fibers are empty and their
    row energies miss the block rows' by the largest kept row energy."""
    scn, space, _ = _check_inputs(chain12, 52, extra_spanned=True)
    check_extra_invariance(scn, space)
    kept = extra_mod._split(scn, space, space._basis)[4]
    a, t, v, off, _ = split = space._split
    space._split = (a, t, np.zeros_like(v), off, {})
    with pytest.raises(TheoremViolationError, match="fibers do not match") as err:
        check_decomposable(scn, space)
    energies = np.sum(np.abs(a * kept[:, :, None, :]) ** 2, axis=3)
    assert err.value.details == {"component_match_deviation": float(np.max(energies))}
    space._split = split
    assert check_decomposable(scn, space).decomposable


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
    assert oracle.sequence_extra_invariance(shear, np.eye(6, dtype=complex)) is True
    atom = np.zeros((6, 1), dtype=complex)
    atom[0, 0] = 1.0
    assert oracle.sequence_extra_invariance(shear, atom) is False


def test_sequence_oracle_character_span(shear):
    g = shear.group
    cols = [
        np.array([g.pairing(t, h) for t in g.elements]) for h in [(0,), (2,), (4,)]
    ]
    basis = np.column_stack(cols)
    # spectra sit inside one block, so masking preserves the span
    assert oracle.sequence_extra_invariance(shear, basis) is True


def test_sequence_oracle_requires_base_invariance(chain12):
    atom = np.zeros((12, 1), dtype=complex)
    atom[0, 0] = 1.0
    with pytest.raises(InvarianceError):
        oracle.sequence_extra_invariance(chain12, atom)


def test_sequence_oracle_input_validation(shear):
    with pytest.raises(ValueError):
        oracle.sequence_extra_invariance(shear, np.zeros((5, 1), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sequence_oracle_refuses_a_non_finite_basis(bank, bad):
    """A ``ValueError`` at the boundary, not numpy's ``LinAlgError`` from the SVD."""
    scn = bank["two_orbits"]
    basis = np.eye(scn.group.order, dtype=complex)[:, :3]
    basis[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        oracle.sequence_extra_invariance(scn, basis)


def test_range_function_consistency(scn):
    rng = np.random.default_rng(8)
    canonical = canonical_extra_invariant(scn)
    assert oracle.range_function_consistency(scn, canonical, rng=rng)
    psi = random_function(scn, rng)
    principal = span_invariant(scn, psi[:, None])
    assert oracle.range_function_consistency(scn, principal, rng=rng)
    assert oracle.range_function_consistency(scn, Subspace.zero(scn), rng=rng)
