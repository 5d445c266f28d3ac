"""Subspace machinery: frames, invariance, principal membership, fibers."""
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import actinv.spaces as spaces_mod
from actinv import (
    ActionSpace,
    DegenerateGeneratorError,
    FiniteAbelianGroup,
    InvarianceError,
    Scenario,
    Subgroup,
    Subspace,
    best_extra_invariant,
    best_invariant,
    canonical_extra_invariant,
    check_decomposable,
    check_extra_invariance,
    dual_partition,
    evaluate_candidate,
    fiber_generators,
    is_invariant,
    length,
    masked_component,
    principal_membership,
    span_invariant,
    translate,
    zak_base,
    zak_base_inv,
)
from actinv.spaces import (
    fiber_matrices,
    fibers_from_matrix,
    orthonormal_columns,
    require_base_invariant,
)

import oracle
from conftest import random_function


def test_orthonormal_columns_weighted():
    w = np.array([1.0, 2.0, 4.0, 0.5])
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    q = orthonormal_columns(w, mat)
    assert q.shape == (4, 3)
    gram = q.conj().T @ (q * w[:, None])
    assert_allclose(gram, np.eye(3), atol=1e-12)
    # rank deficiency is detected
    mat[:, 2] = mat[:, 0] + mat[:, 1]
    assert orthonormal_columns(w, mat).shape == (4, 2)


def test_rank_floor_policy():
    """A span cuts relative to its largest singular value; only the block
    split of unit basis directions (``extra._split``) adds an absolute
    floor, derived from ``tol``."""
    w = np.ones(4)
    noise = np.full((4, 2), 1e-16, dtype=complex)
    # relative cut alone ranks a pure-roundoff matrix against itself
    assert orthonormal_columns(w, noise).shape[1] >= 1
    # the absolute floor recognizes it as zero
    s = np.linalg.svd(noise, compute_uv=False)
    assert not spaces_mod._kept(s, floor=spaces_mod.RANK_TOL).any()
    empty = orthonormal_columns(w, np.zeros((4, 0), dtype=complex))
    assert empty.shape == (4, 0)


def test_span_frame_and_projector(scn):
    rng = np.random.default_rng(1)
    vectors = np.column_stack([random_function(scn, rng) for _ in range(3)])
    space = Subspace.span(scn, vectors)
    assert space.dim == 3
    w = scn.action.weights
    gram = space.frame.conj().T @ (space.frame * w[:, None])
    assert_allclose(gram, np.eye(3), atol=1e-12)
    p = oracle.projector(space)
    assert_allclose(p, p.conj().T, atol=1e-12)
    assert_allclose(p @ p, p, atol=1e-12)
    for j in range(3):
        assert space.contains(vectors[:, j])
        assert_allclose(space.project(vectors[:, j]), vectors[:, j], atol=1e-9)
    f = random_function(scn, rng)
    resid = f - space.project(f)
    for j in range(3):
        assert scn.action.inner(resid, space.frame[:, j]) == pytest.approx(
            0.0, abs=1e-10
        )
    assert Subspace.zero(scn).dim == 0
    assert Subspace.zero(scn).residual(f) == pytest.approx(scn.action.norm(f))


def test_a_span_of_no_generators_is_the_zero_range_function(scn):
    """No generators, along the base or the extra subgroup, and
    ``Subspace.zero`` make one space: the range function of width 0, with
    dimension 0, length 0, every residual the function's norm, no probe
    moving it, and the zero space's reports."""
    f = random_function(scn, np.random.default_rng(13))
    rows = scn.action.n_points // scn.n_fibers
    none = np.zeros((scn.action.n_points, 0), dtype=complex)
    zero = Subspace.zero(scn)
    want = [check_extra_invariance(scn, zero).as_dict(), check_decomposable(scn, zero).as_dict()]
    for space in (zero, span_invariant(scn, none), span_invariant(scn, none, scn.extra)):
        assert space._basis.shape == (scn.n_fibers, rows, 0)
        assert space.dim == length(space) == 0 and space.frame.shape == none.shape
        assert space.residual(f) == pytest.approx(scn.action.norm(f))
        assert is_invariant(space, Subgroup(scn.group, scn.group.elements)) == (True, 0.0)
        reports = [check_extra_invariance(scn, space), check_decomposable(scn, space)]
        assert [r.as_dict() for r in reports] == want
        assert reports[1].component_match_deviation is None


def test_residuals_match_the_columnwise_reference(scn):
    # the loop over columns through ``project`` is the reference formula
    rng = np.random.default_rng(11)
    outside = np.column_stack([random_function(scn, rng) for _ in range(4)])
    spaces = [
        Subspace.zero(scn),
        span_invariant(scn, outside[:, :1]),
        span_invariant(scn, outside[:, :2], scn.extra),
    ]
    for space in spaces:
        mat = np.hstack([outside, space.frame])
        got = space.residuals(mat)
        assert got.shape == (mat.shape[1],)
        for k in range(mat.shape[1]):
            f = mat[:, k]
            want = scn.action.norm(f - space.project(f))
            scale = max(1.0, scn.action.norm(f))
            assert abs(got[k] - want) <= 1e-12 * scale
            assert abs(space.residual(f) - want) <= 1e-12 * scale


def test_span_invariant_properties(scn):
    rng = np.random.default_rng(2)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    space = span_invariant(scn, gens)
    ok, res = is_invariant(space, scn.base)
    assert ok and res < 1e-10
    for j in range(2):
        assert space.contains(gens[:, j])
    assert space.dim <= scn.base.order * 2
    require_base_invariant(space)  # should not raise


def test_span_invariant_translates_a_section_only(scn, monkeypatch):
    """No section of H / base is translated, not even as modulations:
    the fiberwise span cuts the generators' block rows.

    For H the base, the extra subgroup and <(1, ..., 1)>: no modulation
    row, and one SVD, of n_fibers * rows * k entries (the block rows of
    the k generators' fibers, [H : base] times fewer than a matrix of the
    generators' fibers and their translates by a section of H / base).
    Every nonzero basis column lies in the rows of one block of H, the
    stacked coordinates whose annihilator elements pair alike with H's
    generators.  That no module but ``actions`` translates in point space
    is a source rule (``test_source.py``).
    """
    rows, svds = [], []
    modulation, svd = Scenario.modulation, np.linalg.svd

    def counted_modulation(self, g):
        rows.append(g)
        return modulation(self, g)

    def counted_svd(a, *args, **kwargs):
        svds.append(a.size)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(Scenario, "modulation", counted_modulation)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(14)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    reps = len(scn.tiling.orbit_reps)
    ann = scn.group.coords[scn.base_annihilator.indices]
    for sub in (scn.base, scn.extra, Subgroup(scn.group, [(1,) * scn.group.rank])):
        if not scn.base.issubset(sub):
            continue
        svds.clear()
        basis = span_invariant(scn, gens, sub)._basis
        assert rows == []
        assert svds == [scn.n_fibers * scn.n_cosets * reps * 2]
        probes = np.array(sub.generators, dtype=np.int64).reshape(-1, scn.group.rank)
        labels = scn.group.phase_numerators(ann, probes)
        for w, j in zip(*np.nonzero(np.any(basis, axis=1))):
            coords = np.flatnonzero(basis[w, :, j]) // reps
            assert len({labels[k].tobytes() for k in coords}) == 1


# -- translations on the range function -----------------------------------------


def test_base_modulations_are_constant_on_every_fiber(scn):
    """A base element g pairs to one with the base annihilator, so its
    modulation row is ``pairing(g, omega[w])`` at every annihilator position
    of fiber w, exactly: it maps every fiber basis to itself.  Every row,
    a base element's included, is its definition bit for bit
    (``oracle.modulation_row``).  A probe pass on a range function reads a
    base probe by membership and builds no row for it."""
    fresh = Scenario(scn.group, scn.base, scn.extra, scn.action)  # the bank's is shared
    space = span_invariant(fresh, random_function(fresh, np.random.default_rng(45)))
    assert is_invariant(space, fresh.base) == (True, 0.0)
    assert fresh._modulation == {}
    for g in scn.group.elements:
        row = fresh.modulation(g)
        assert row.tobytes() == oracle.modulation_row(scn, g).tobytes()
        if g in scn.base:
            assert np.array_equal(row, np.broadcast_to(row[:, :1], row.shape))


def test_base_translations_fix_fiber_built_spaces(scn):
    """On a fiber-built space every base probe reads exactly 0.0 without a
    probe pass, and translating its frame in point space agrees to 1e-12."""
    rng = np.random.default_rng(41)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (
        span_invariant(scn, gens[:, :1]),
        span_invariant(scn, gens),
        span_invariant(scn, gens, scn.extra),
        canonical_extra_invariant(scn),
    )
    for space in spaces:
        assert is_invariant(space, scn.base) == (True, 0.0)
        assert "_invariance" not in vars(space)
        assert oracle.translation_residual(space, scn.base) <= 1e-12


def test_probe_rows_are_built_once_per_scenario(chain12, monkeypatch):
    """``is_invariant`` against subgroups other than base and extra, on two
    fiber-built spaces of one scenario, builds each probe's modulation row
    once, for the first space, and agrees with the point-space oracle."""
    scn = Scenario(chain12.group, chain12.base, chain12.extra, chain12.action)
    rows = []
    modulation = Scenario.modulation

    def counted(self, g):
        if g not in self._modulation:
            rows.append(g)
        return modulation(self, g)

    rng = np.random.default_rng(43)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra))
    subs = (Subgroup(scn.group, [(1,)]), Subgroup(scn.group, [(3,)]))
    assert all(sub not in (scn.base, scn.extra) for sub in subs)
    monkeypatch.setattr(Scenario, "modulation", counted)
    for space in spaces:
        for sub in subs:
            _, res = is_invariant(space, sub)
            assert res == pytest.approx(oracle.translation_residual(space, sub), abs=1e-12)
    assert rows == [(1,), (3,)]


def test_frame_given_space_keeps_no_probe_memo_before_its_gate(scn):
    """A frame-given space keeps none of the probe passes it made on its
    whole stacked frame past its base gate, unless that frame is its range
    function.  Before the gate, ``_basis`` is the whole stacked frame, one
    fiber, and the space memoises its passes on it, one per distinct
    probe, base probes included unless the base is trivial (then the
    whole stacked frame, which the constructor corrected to orthonormal,
    is the one Zak fiber, the range function, which no base probe moves).
    Over a nontrivial base the gate replaces it by the cut, one basis per
    Zak fiber, and drops the memo; over a trivial base it keeps both.
    After the gate the space memoises its passes on its range function,
    one per distinct probe outside the base."""
    rng = np.random.default_rng(44)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    given = Subspace(scn, span_invariant(scn, gens, scn.extra).frame)
    whole = vars(given)["_basis"]
    assert whole.shape == (1, scn.action.n_points, given.dim)
    for sub in (scn.base, scn.extra):
        assert is_invariant(given, sub)[0]
    assert given._basis is whole
    probes = spaces_mod._probes(scn.base) + spaces_mod._probes(scn.extra)
    moving = {g for g in probes if g not in scn.base}
    trivial = scn.n_fibers == 1
    assert set(vars(given)["_invariance"]) == (moving if trivial else set(probes))
    basis = require_base_invariant(given)
    assert basis is given._basis and (basis is whole) == trivial
    assert basis.shape[:2] == (scn.n_fibers, scn.action.n_points // scn.n_fibers)
    assert set(vars(given).get("_invariance", ())) == (moving if trivial else set())
    is_invariant(given, scn.extra)
    assert set(vars(given).get("_invariance", ())) == moving


def test_translates_are_modulated_fibers(scn):
    """The fibers of a point-space translate by any element a are the
    fibers of the function times a's modulation row."""
    rng = np.random.default_rng(42)
    mat = np.column_stack([random_function(scn, rng) for _ in range(2)])
    fibers = fiber_matrices(scn, mat)
    for a in scn.group.elements:
        got = spaces_mod._modulate(scn.modulation(a), fibers)
        want = fiber_matrices(scn, translate(scn.action, a, mat))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(fibers))


@pytest.mark.parametrize("name", ["chain12", "two_orbits", "product"])
def test_span_invariant_cuts_across_fibers(bank, name):
    """The rank cut is relative to the largest singular value of all fibers.

    A generator whose second fiber is 1e-12 of its first spans only its
    first fiber, as the point-space cut of all its base translates does.
    """
    scn = bank[name]
    rng = np.random.default_rng(19)
    rows = scn.n_cosets * len(scn.tiling.orbit_reps)
    fibers = np.zeros((scn.n_fibers, rows, 1), dtype=complex)
    fibers[0] = rng.standard_normal((rows, 1))
    fibers[1] = 1e-12 * rng.standard_normal((rows, 1))
    gen = fibers_from_matrix(scn, fibers)
    got = span_invariant(scn, gen)
    want = oracle.point_space_span(scn, gen, scn.base)
    assert got.dim == want.dim == 1
    assert_allclose(oracle.projector(got), oracle.projector(want), rtol=0, atol=1e-12)


def test_span_invariant_requires_the_base(chain12):
    """A subgroup that does not contain the base is refused."""
    f = random_function(chain12, np.random.default_rng(15))[:, None]
    for sub in (Subgroup(chain12.group, []), Subgroup(chain12.group, [(6,)])):
        assert not chain12.base.issubset(sub)
        with pytest.raises(ValueError, match="containing the base"):
            span_invariant(chain12, f, sub)


def test_is_invariant_detects_moved_spaces(chain12):
    f = np.zeros(12, dtype=complex)
    f[0] = 1.0
    space = Subspace.span(chain12, f[:, None])
    ok, res = is_invariant(space, chain12.base)
    assert not ok and res > 0.5
    with pytest.raises(InvarianceError):
        require_base_invariant(space)


def test_translation_residual_does_not_depend_on_the_frame(scn):
    rng = np.random.default_rng(13)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    space = span_invariant(scn, gens)
    # a second weighted-orthonormal frame of the same space
    shape = (space.dim, space.dim)
    u, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    other = Subspace(scn, space.frame @ u)
    ok, res = is_invariant(space, scn.extra)
    ok_other, res_other = is_invariant(other, scn.extra)
    assert not ok and not ok_other
    assert abs(res - res_other) <= 1e-12
    # the worst unit direction moves out at least as far as any frame column
    probes = scn.extra.generators
    moved = np.hstack([translate(scn.action, g, space.frame) for g in probes])
    assert res >= float(np.max(space.residuals(moved))) - 1e-12


def test_subgroup_invariance_nests(scn):
    rng = np.random.default_rng(3)
    space = span_invariant(scn, random_function(scn, rng)[:, None], scn.extra)
    for sub in (scn.base, scn.extra):
        ok, _ = is_invariant(space, sub)
        assert ok


# -- principal spaces ----------------------------------------------------------


def test_principal_membership_accepts_members(scn):
    rng = np.random.default_rng(4)
    psi = random_function(scn, rng)
    space = span_invariant(scn, psi[:, None])
    coeff = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    member = space.frame @ coeff
    mult = principal_membership(scn, member, psi)
    assert mult is not None
    recon = zak_base_inv(scn, mult.values[:, None] * zak_base(scn, psi))
    assert_allclose(recon, member, atol=1e-9 * max(1.0, scn.action.norm(member)))


def test_principal_membership_rejects_outsiders(scn):
    rng = np.random.default_rng(5)
    psi = random_function(scn, rng)
    outsider = random_function(scn, rng)
    assert principal_membership(scn, outsider, psi) is None


def test_principal_membership_agrees_with_projector_oracle(scn):
    rng = np.random.default_rng(6)
    for trial in range(10):
        psi = random_function(scn, rng)
        space = span_invariant(scn, psi[:, None])
        if trial % 2:
            coeff = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            f = space.frame @ coeff
        else:
            f = random_function(scn, rng)
        got = principal_membership(scn, f, psi) is not None
        assert got == space.contains(f)


def test_principal_membership_reads_the_range_function():
    """Membership needs only per-fiber inner products, and the stacked fibers
    are a unitary image of the base Zak fibers: no |base|^2 character table
    is built (Z_6 on 2 weighted orbits, base = G)."""
    group = FiniteAbelianGroup([6])
    act = ActionSpace.regular(group, orbits=2, weights=np.arange(1.0, 13.0))
    whole = Subgroup(group, [(1,)])
    scn = Scenario(group, whole, whole, act)
    rng = np.random.default_rng(32)
    psi = random_function(scn, rng)
    space = span_invariant(scn, psi[:, None])
    member = space.frame @ (rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim))
    mult = principal_membership(scn, member, psi)
    assert mult is not None and mult.support.all()
    assert principal_membership(scn, random_function(scn, rng), psi) is None
    assert "chars_base_omega" not in vars(scn)
    recon = zak_base_inv(scn, mult.values[:, None] * zak_base(scn, psi))
    assert_allclose(recon, member, atol=1e-9 * scn.action.norm(member))


def test_principal_membership_rejects_zero_generator(chain12):
    with pytest.raises(DegenerateGeneratorError):
        principal_membership(chain12, np.ones(12), np.zeros(12))


def test_principal_membership_refuses_a_nan_tolerance(bank):
    """With ``tol=nan`` every ``residual > tol`` test is false, so a
    non-member would come back with a multiplier; the tolerance is refused
    instead (Z_12 on 2 orbits)."""
    scn = bank["two_orbits"]
    rng = np.random.default_rng(31)
    psi, outsider = random_function(scn, rng), random_function(scn, rng)
    assert principal_membership(scn, outsider, psi) is None
    with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
        principal_membership(scn, outsider, psi, tol=np.nan)


BAD_TOLS = [np.nan, np.inf, -np.inf, 0.0, -1e-9, True, "1e-9", None, np.array([1e-9])]


# every public function taking ``tol``, and criterion 9's sequence-space
# oracle, as ``call(scn, space, tol)``
TOL_CALLERS = {
    "is_invariant": lambda scn, space, tol: is_invariant(space, scn.extra, tol),
    "require_base_invariant": lambda scn, space, tol: require_base_invariant(space, tol),
    "check_extra_invariance": check_extra_invariance,
    "check_decomposable": check_decomposable,
    "principal_membership": lambda scn, space, tol: principal_membership(
        scn, space.frame[:, 0], space.frame[:, 0], tol
    ),
    "sequence_extra_invariance": lambda scn, space, tol: oracle.sequence_extra_invariance(
        scn, np.eye(scn.group.order), tol
    ),
    "Subspace.contains": lambda scn, space, tol: space.contains(space.frame[:, 0], tol),
}


@pytest.mark.parametrize("name", list(TOL_CALLERS))
def test_bad_tolerance_is_refused(chain12, name):
    """Each public function taking ``tol`` refuses one that is not a finite
    positive number (the CLI's rule for ``options.tol``) with ``ValueError``,
    on fiber-built and frame-given spaces alike; a numpy float is a number."""
    call = TOL_CALLERS[name]
    space = span_invariant(chain12, random_function(chain12, np.random.default_rng(32)))
    for subject in (space, Subspace(chain12, space.frame)):
        for tol in BAD_TOLS:
            with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
                call(chain12, subject, tol)
        call(chain12, subject, np.float64(1e-9))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_principal_membership_rejects_bad_input(chain12, bad):
    """Non-finite entries and wrong lengths fail at the boundary, for the
    function and for the generator, instead of a NaN multiplier that
    claims membership."""
    psi = random_function(chain12, np.random.default_rng(26))
    f = psi.copy()
    f[3] = bad
    for args in ((f, psi), (psi, f)):
        with pytest.raises(ValueError, match="finite"):
            principal_membership(chain12, *args)
    for args in ((psi[:11], psi), (psi, np.append(psi, 1.0))):
        with pytest.raises(ValueError, match="space has 12 points"):
            principal_membership(chain12, *args)


def test_contains_reads_a_function_of_any_shape_alike(bank):
    """``contains`` reads f flat, as ``residual`` does, for its norm too: a
    function 1e-9 off a principal space (residual 7.6e-9, norm 7.53) is
    refused at the default ``tol`` as a 1-D array, a column and a row.  A
    column's norm read along the wrong axis was 35.1, and it passed."""
    scn = bank["two_orbits"]
    rng = np.random.default_rng(0)
    n = scn.action.n_points
    g, h = rng.standard_normal(n), rng.standard_normal(n)
    f = g + 1e-9 * h
    space = span_invariant(scn, g)
    assert space.residual(f) > 1e-9 * scn.action.norm(f)
    assert [space.contains(v) for v in (f, f[:, None], f[None])] == [False] * 3
    assert [space.contains(v) for v in (g, g[:, None], g[None])] == [True] * 3


def test_membership_refuses_norms_that_overflow(chain12):
    """h lies outside the principal space of f (residual about 4.15).  At a
    scale of 1e153 every verdict still reads that; from 1e154 on the
    squared norms pass the float range, and ``inf <= tol * inf`` would
    admit h, so ``contains``, ``residual`` and ``principal_membership``
    (h and f both scaled, or h alone) raise ``ValueError`` naming the
    function or generator, with no ``RuntimeWarning`` on the way."""
    rng = np.random.default_rng(0)
    f, h = random_function(chain12, rng), random_function(chain12, rng)
    space = span_invariant(chain12, f)
    assert space.residual(h) == pytest.approx(4.15, abs=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scale = 1e153
        assert not space.contains(h * scale)
        assert space.residual(h * scale) == pytest.approx(space.residual(h) * scale, rel=1e-9)
        assert principal_membership(chain12, h * scale, f * scale) is None
        assert principal_membership(chain12, h * scale, f) is None
        scale = 1e154
        calls = {
            "function": [
                lambda: space.contains(h * scale),
                lambda: space.residual(h * scale),
                lambda: space.residuals(np.column_stack([h, h * scale])),
                lambda: principal_membership(chain12, h * scale, f),
            ],
            "generator": [lambda: principal_membership(chain12, h * scale, f * scale)],
        }
        for subject, group in calls.items():
            for call in group:
                with pytest.raises(ValueError, match=f"^{subject} too large: the .* overflows"):
                    call()


def test_residuals_refuse_what_residual_refuses(chain12):
    """A finite column of 1e308 overflows the residual: ``residuals`` refuses
    it by the rule of ``residual`` (it returned [nan]), the same column in
    a batch too, and reads the other columns alike."""
    space = canonical_extra_invariant(chain12)
    big = np.full(chain12.action.n_points, 1e308)
    h = random_function(chain12, np.random.default_rng(3))
    for call in (space.residual, space.residuals, lambda v: space.residuals(np.column_stack([h, v]))):
        with pytest.raises(ValueError, match="^function too large: the residual overflows"):
            call(big)
    assert space.residuals(np.column_stack([h, h]))[1] == space.residual(h)


def test_membership_of_tiny_functions_keeps_its_multiplier(chain12):
    """2 psi s is a member of psi s's principal space with multiplier 2 at
    every scale s from 1e-150 down to 1e-162: the fiber norms are taken
    without squaring, and f's fiber is projected onto the unit fiber, so
    nothing small is squared (at the parent, ``norms ** 2`` underflowed
    from 1e-155 and the quotient raised "function too large").  From
    1e-163 the squared norm of psi itself underflows, and psi is zero."""
    psi = random_function(chain12, np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(150, 163):
            s = 10.0**-e
            mult = principal_membership(chain12, 2 * psi * s, psi * s)
            assert mult is not None and mult.support.any(), e
            assert_allclose(mult.values[mult.support], 2.0, rtol=1e-14, err_msg=str(e))
            assert not mult.values[~mult.support].any()
        with pytest.raises(DegenerateGeneratorError):
            principal_membership(chain12, 2 * psi * 1e-163, psi * 1e-163)


def test_span_refuses_vectors_whose_weighting_overflows():
    """On Z_2 x Z_6 on 2 orbits with weights over a 1e3 range, two finite
    vectors scaled by 1e307 overflow when weighted: ``Subspace.span``
    raises ``ValueError`` naming the vectors, with no ``RuntimeWarning``;
    at 1e150 they still span two dimensions."""
    g = FiniteAbelianGroup([2, 6])
    rng = np.random.default_rng(0)
    weights = np.exp(rng.uniform(0.0, np.log(1e3), 2 * g.order))
    act = ActionSpace.regular(g, 2, weights)
    scn = Scenario(g, Subgroup(g, [(0, 2)]), Subgroup(g, [(1, 0), (0, 2)]), act)
    vecs = np.column_stack([random_function(scn, rng) for _ in range(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Subspace.span(scn, vecs * 1e150).dim == 2
        with pytest.raises(ValueError, match="^vectors too large: the weighting overflows"):
            Subspace.span(scn, vecs * 1e307)


# -- fiber structure -----------------------------------------------------------


def test_fiber_matrix_round_trip(scn):
    rng = np.random.default_rng(8)
    mat = np.column_stack([random_function(scn, rng) for _ in range(3)])
    fm = fiber_matrices(scn, mat)
    kc = scn.n_cosets * len(scn.tiling.orbit_reps)
    assert fm.shape == (scn.n_fibers, kc, 3)
    assert_allclose(fibers_from_matrix(scn, fm), mat, atol=1e-12)
    # euclidean fiber energies reproduce the weighted norm
    for j in range(3):
        total = sum(
            float(np.linalg.norm(fm[w, :, j]) ** 2) for w in range(scn.n_fibers)
        )
        assert total / scn.n_fibers == pytest.approx(
            scn.action.norm(mat[:, j]) ** 2, rel=1e-12
        )


def test_fibers_from_integer_columns(scn):
    """Integer fiber columns are read as numbers, not as the bits of
    doubles: the functions are those of the same columns as complex."""
    kc = scn.n_cosets * len(scn.tiling.orbit_reps)
    ints = np.random.default_rng(12).integers(-3, 4, (scn.n_fibers, kc, 2))
    for cols in (np.ones((scn.n_fibers, kc, 1), dtype=np.int64), ints):
        want = fibers_from_matrix(scn, cols.astype(complex))
        assert np.array_equal(fibers_from_matrix(scn, cols), want)


def test_dim_is_sum_of_fiber_ranks(scn):
    rng = np.random.default_rng(9)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    space = span_invariant(scn, gens)
    mats = fiber_matrices(scn, space.frame)
    ranks = [
        int(np.linalg.matrix_rank(mats[w], tol=1e-8)) for w in range(scn.n_fibers)
    ]
    assert space.dim == sum(ranks)


def test_length_goldens(scn):
    rng = np.random.default_rng(10)
    psi = random_function(scn, rng)
    assert length(span_invariant(scn, psi[:, None])) == 1
    n = scn.action.n_points
    full = Subspace.span(scn, np.eye(n, dtype=complex))
    assert full.dim == n
    assert length(full) == scn.n_cosets * len(scn.tiling.orbit_reps)
    assert length(Subspace.zero(scn)) == 0


def test_fiber_generators_respan(scn):
    rng = np.random.default_rng(11)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    space = span_invariant(scn, gens)
    ell = length(space)
    assert ell <= 2
    fg = fiber_generators(space)
    assert len(fg) == ell
    rebuilt = span_invariant(scn, np.column_stack(fg))
    assert rebuilt.dim == space.dim
    assert_allclose(oracle.projector(rebuilt), oracle.projector(space), atol=1e-9)


def test_fiber_generators_of_masked_space(scn):
    # spaces whose fibers vanish somewhere must not grow extra generators
    from actinv import canonical_extra_invariant

    space = canonical_extra_invariant(scn)
    assert length(space) == 1
    fg = fiber_generators(space)
    assert len(fg) == 1
    rebuilt = span_invariant(scn, fg[0][:, None])
    assert rebuilt.dim == space.dim
    assert_allclose(oracle.projector(rebuilt), oracle.projector(space), atol=1e-9)


def test_span_input_validation(scn):
    with pytest.raises(ValueError):
        Subspace.span(scn, np.zeros((scn.action.n_points - 1, 1), dtype=complex))
    with pytest.raises(ValueError):
        span_invariant(scn, [])


@pytest.mark.parametrize(
    "shape",
    [(2, 24, 2), (3, 24, 1), (24, 2, 1), (), [(24, 2)], [(24,), (24, 1)], [(24,), ()]],
    ids=str,
)
def test_vectors_of_another_rank_are_refused(bank, shape):
    """Vectors come as one 1-D function, a matrix of columns or a sequence
    of 1-D functions.  Any other array, or a sequence item that is not
    1-D, is refused naming the noun, not reshaped into columns: a
    (2, 24, 2) array used to become 4 columns and a (3, 24, 1) one 3."""
    scn = bank["two_orbits"]
    rng = np.random.default_rng(12)
    make = lambda s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
    bad = [make(s) for s in shape] if isinstance(shape, list) else make(shape)
    space = span_invariant(scn, make((24, 2)))
    calls = (
        ("vector", lambda: span_invariant(scn, bad)),
        ("vector", lambda: span_invariant(scn, bad, scn.extra)),
        ("vector", lambda: Subspace.span(scn, bad)),
        ("data vector", lambda: best_invariant(scn, bad, 1)),
        ("data vector", lambda: best_extra_invariant(scn, bad, 1)),
        ("data vector", lambda: evaluate_candidate(scn, bad, space)),
    )
    for noun, call in calls:
        with pytest.raises(ValueError, match=rf"^(each )?{noun}s? must be .*got shape"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
def test_non_finite_generators_are_rejected(bank, bad):
    scn = bank["two_orbits"]
    gen = random_function(scn, np.random.default_rng(8))
    gen[5] = bad
    with pytest.raises(ValueError, match="finite"):
        span_invariant(scn, gen[:, None])
    with pytest.raises(ValueError, match="finite"):
        Subspace.span(scn, [gen])


def test_frame_constructor_refuses_malformed_frames(bank):
    """``Subspace(scn, frame)`` takes an (n_points, dim) matrix of finite
    entries and refuses anything else at the boundary, naming the shape."""
    scn = bank["two_orbits"]
    n = scn.action.n_points
    for bad in (np.ones(n), np.ones((n - 1, 2)), np.ones((n, 2, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match=rf"frame must have shape \({n}, dim\), got"):
            Subspace(scn, bad)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        frame = np.ones((n, 2), dtype=complex)
        frame[3, 1] = bad
        with pytest.raises(ValueError, match="frame entries must be finite"):
            Subspace(scn, frame)
    real = np.eye(n)[:, :2] / np.sqrt(scn.action.weights)[:, None]
    assert Subspace(scn, real).frame.dtype == complex


def test_frame_constructor_refuses_frames_that_are_not_orthonormal(chain12):
    """``Subspace(scn, frame)`` refuses a frame whose weighted Gram matrix
    is not the identity to within ``_FRAME_TOL``, naming its largest
    deviation, and one whose Gram matrix overflows, with no warning; the
    library's own frames pass."""
    rng = np.random.default_rng(0)
    principal = span_invariant(chain12, random_function(chain12, rng))
    with pytest.raises(ValueError, match=r"\|Q\^H W Q - I\| is 3\.000e\+00, above 1e-10"):
        Subspace(chain12, principal.frame * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="frame too large: the weighted Gram matrix"):
            Subspace(chain12, principal.frame * 1e307)
    gens = np.column_stack([random_function(chain12, rng) for _ in range(2)])
    spaces = (
        principal,
        span_invariant(chain12, gens, chain12.extra),
        canonical_extra_invariant(chain12),
        Subspace.span(chain12, gens),
        masked_component(chain12, principal, dual_partition(chain12).labels[0]),
    )
    for space in spaces:
        assert Subspace(chain12, space.frame).dim == space.dim
    tilted = principal.frame.copy()
    tilted[:, 0] *= 1 + 0.25 * spaces_mod._FRAME_TOL
    assert Subspace(chain12, tilted).dim == principal.dim
    tilted[:, 0] *= 1 + 2 * spaces_mod._FRAME_TOL
    with pytest.raises(ValueError, match="not weighted-orthonormal"):
        Subspace(chain12, tilted)


def test_fiber_constructor_refuses_malformed_bases(bank):
    """``Subspace.from_fibers`` takes (n_fibers, rows, r_max) finite fiber
    bases and refuses anything else at the boundary, naming the shape."""
    scn = bank["two_orbits"]
    basis = span_invariant(scn, random_function(scn, np.random.default_rng(9)))._basis
    w, rows, _ = basis.shape
    want = rf"fiber bases must have shape \({w}, {rows}, r_max\), got"
    for bad in (basis[0], basis[:, :-1], basis[:-1], basis[..., None]):
        with pytest.raises(ValueError, match=want):
            Subspace.from_fibers(scn, bad)
    for bad in (np.nan, np.inf, complex(np.nan, 0.0)):
        broken = basis.copy()
        broken[1, 2, 0] = bad
        with pytest.raises(ValueError, match="fiber bases must be finite"):
            Subspace.from_fibers(scn, broken)
    assert Subspace.from_fibers(scn, basis).dim == w


def test_fiber_constructor_refuses_bases_off_their_layout(chain12):
    """``Subspace.from_fibers`` refuses, as the frame constructor does,
    bases every reader would misread: a multiple of a range function, for
    which the residual of the space's own generator read 12.6 and the
    translation residual 4.7; columns that are not orthonormal; zero
    columns before nonzero ones; and zero columns past every fiber's
    last, for which ``length`` read 3.  An
    empty fiber and a tilt within ``_FRAME_TOL`` stay valid: the empty
    fiber stays empty, and the tilted bases are corrected to orthonormal."""
    gen = random_function(chain12, np.random.default_rng(0))
    basis = span_invariant(chain12, gen)._basis
    w, rows, r = basis.shape
    pad = np.zeros((w, rows, 2), dtype=complex)
    twice = np.concatenate([basis, basis], axis=2) / np.sqrt(2)
    for bad in (2 * basis, 1e-6 * basis, twice):
        with pytest.raises(ValueError, match="fiber bases are not orthonormal"):
            Subspace.from_fibers(chain12, bad)
    with pytest.raises(ValueError, match="zero columns last"):
        Subspace.from_fibers(chain12, np.concatenate([pad, basis], axis=2))
    with pytest.raises(ValueError, match="some fiber using the last"):
        Subspace.from_fibers(chain12, np.concatenate([basis, pad], axis=2))
    empty = basis.copy()
    empty[0] = 0.0
    given = Subspace.from_fibers(chain12, empty * (1 + 0.25 * spaces_mod._FRAME_TOL))
    assert given.dim == w - 1 and not given._basis[0].any()
    space = Subspace.from_fibers(chain12, basis * (1 + 0.25 * spaces_mod._FRAME_TOL))
    assert length(space) == r == 1 and space.contains(gen)
    assert np.abs(np.linalg.norm(space._basis, axis=1) - 1.0).max() <= 1e-15


def test_constructors_refuse_an_overflowing_gram_matrix_alike(scn):
    """Finite columns whose Gram matrix overflows are refused as too large
    by both constructors, with no warning, not as a gap of ``nan``: they
    form the Gram matrix and its gap through one helper."""
    space = span_invariant(scn, random_function(scn, np.random.default_rng(8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e160, 1e200):
            with pytest.raises(ValueError, match="^fiber bases too large: the Gram matrix"):
                Subspace.from_fibers(scn, space._basis * scale)
            with pytest.raises(ValueError, match="^frame too large: the weighted Gram matrix"):
                Subspace(scn, space.frame * scale)


def test_library_range_functions_keep_the_fiber_layout(scn):
    """Every range function the library builds (both spans, the canonical
    space, both fits, every masked component and the zero space) passes
    ``from_fibers``'s layout check, with its dimension, and its correction
    to orthonormal moves them by roundoff only, in the same layout."""
    rng = np.random.default_rng(12)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    data = np.column_stack([random_function(scn, rng) for _ in range(3)])
    extra_spanned = span_invariant(scn, gens, scn.extra)
    spaces = [
        span_invariant(scn, gens),
        extra_spanned,
        canonical_extra_invariant(scn),
        best_invariant(scn, data, 2).space,
        best_extra_invariant(scn, data, 2).space,
        Subspace.zero(scn),
    ] + [masked_component(scn, extra_spanned, xi) for xi in dual_partition(scn).labels]
    for space in spaces:
        given = Subspace.from_fibers(scn, space._basis)
        assert given.dim == space.dim
        assert np.array_equal(given._basis.any(axis=1), space._basis.any(axis=1))
        assert np.abs(given._basis - space._basis).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_residuals_and_projection_refuse_non_finite_functions(chain12, bad):
    """``residuals`` and ``project`` take a function or a matrix of them
    and refuse a non-finite entry as ``residual`` does, instead of reading
    ``nan``; finite input keeps its shape."""
    rng = np.random.default_rng(0)
    space = span_invariant(chain12, random_function(chain12, rng))
    f = random_function(chain12, rng)
    mat = np.column_stack([f, 2.0 * f])
    assert space.residuals(mat).shape == (2,) and space.project(mat).shape == (12, 2)
    assert space.project(f).shape == (12,)
    assert space.residuals(f)[0] == space.residual(f)
    f[3] = bad
    calls = [(space.residual, f)]
    for call in (space.residuals, space.project):
        calls += [(call, f), (call, mat + f[:, None])]
    for call, arg in calls:
        with pytest.raises(ValueError, match="functions must be finite"):
            call(arg)


def test_span_checks_its_vectors_once(monkeypatch):
    """``Subspace.span`` checks its vectors once, in ``as_columns``, and
    takes the frame it computes from them as it is: on 192 points and 4
    columns, one pass of 768 entries and none of the frame's 1536 float64
    entries."""
    g = FiniteAbelianGroup([8, 12])
    scn = Scenario(g, Subgroup(g, [(4, 0)]), Subgroup(g, [(2, 0)]), ActionSpace.regular(g, 2))
    vectors = np.column_stack([random_function(scn, np.random.default_rng(j)) for j in range(4)])
    passes = []
    original = np.isfinite

    def counted(x, *args, **kwargs):
        passes.append(np.size(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    space = Subspace.span(scn, vectors)
    assert vectors.shape == (192, 4) and space.dim == 4
    assert passes == [768]


def test_foreign_subgroups_are_refused_at_the_boundary(bank):
    """``is_invariant`` refuses a subgroup of another group with
    ``ValueError`` before any probe, and so is a group passed for a
    subgroup, there and in ``span_invariant``; a subgroup of an equal
    group built anew is the scenario's own.  (13 reduced mod 12 is 1,
    whose verdict the foreign subgroup used to get.)"""
    scn = bank["two_orbits"]
    rng = np.random.default_rng(45)
    span = span_invariant(scn, np.column_stack([random_function(scn, rng) for _ in range(2)]))
    for foreign in (Subgroup(FiniteAbelianGroup((24,)), [(13,)]), scn.group):
        with pytest.raises(ValueError, match="subgroup of the space's group"):
            is_invariant(span, foreign)
        assert "_invariance" not in vars(span)
    with pytest.raises(ValueError, match="containing the base"):
        span_invariant(scn, span.frame, scn.group)
    again = Subgroup(FiniteAbelianGroup((12,)), [(2,)])
    assert is_invariant(span, again) == is_invariant(span, scn.extra)
