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
    evaluate_candidate,
    fiber_generators,
    is_invariant,
    length,
    principal_membership,
    sequence_extra_invariance,
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
    w = np.ones(4)
    noise = np.full((4, 2), 1e-16, dtype=complex)
    # relative cut alone ranks a pure-roundoff matrix against itself
    assert orthonormal_columns(w, noise).shape[1] >= 1
    # the absolute floor recognizes it as zero
    assert orthonormal_columns(w, noise, floor=1e-9).shape[1] == 0
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
    table, and one SVD, of n_fibers * rows * k entries (the block rows of
    the k generators' fibers, [H : base] times fewer than a matrix of the
    generators' fibers and their translates by a section of H / base).
    Every nonzero basis column lies in the rows of one block of H, the
    stacked coordinates whose annihilator elements pair alike with H's
    generators.  That no module but ``actions`` translates in point space
    is a source rule (``test_source.py``).
    """
    tables, svds = [], []
    modulations, svd = Scenario.modulations, np.linalg.svd

    def counted_modulations(self, probes):
        tables.append(tuple(probes))
        return modulations(self, probes)

    def counted_svd(a, *args, **kwargs):
        svds.append(a.size)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(Scenario, "modulations", counted_modulations)
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
        assert tables == []
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
    of fiber w, exactly: it maps every fiber basis to itself, and
    ``Scenario.modulation`` reads ``None`` for it.  Every other element's
    row there is its row of the table, bit for bit."""
    mods = scn.modulations(tuple(scn.base.elements))
    omega = scn.group.coords[scn.dual_section.rep_indices]
    base = scn.group.coords[scn.base.indices]
    want = scn.group.characters(base, omega)[:, :, None]
    assert np.array_equal(mods, np.broadcast_to(want, mods.shape))
    fresh = Scenario(scn.group, scn.base, scn.extra, scn.action)  # the bank's is shared
    assert all(fresh.modulation(g) is None for g in scn.base.elements)
    outside = [g for g in scn.group.elements if g not in scn.base]
    for g, row in zip(outside, scn.modulations(tuple(outside))):
        assert fresh.modulation(g).tobytes() == row.tobytes()


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
    tables = []
    modulations = Scenario.modulations

    def counted(self, probes):
        tables.append(tuple(probes))
        return modulations(self, probes)

    rng = np.random.default_rng(43)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    spaces = (span_invariant(scn, gens[:, :1]), span_invariant(scn, gens, scn.extra))
    subs = (Subgroup(scn.group, [(1,)]), Subgroup(scn.group, [(3,)]))
    assert all(sub not in (scn.base, scn.extra) for sub in subs)
    monkeypatch.setattr(Scenario, "modulations", counted)
    for space in spaces:
        for sub in subs:
            _, res = is_invariant(space, sub)
            assert res == pytest.approx(oracle.translation_residual(space, sub), abs=1e-12)
    assert tables == [((1,),), ((3,),)]


def test_frame_given_space_keeps_no_probe_memo_before_its_gate(scn):
    """Before the base gate a frame-given space is probed on its whole
    stacked frame on each call and memoises nothing; after it, its probe
    passes are memoised on its range function."""
    rng = np.random.default_rng(44)
    gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
    given = Subspace(scn, span_invariant(scn, gens, scn.extra).frame)
    for sub in (scn.base, scn.extra):
        assert is_invariant(given, sub)[0]
    assert not {"_basis", "_invariance"} & set(vars(given))
    require_base_invariant(given)
    assert "_invariance" not in vars(given)
    is_invariant(given, scn.extra)
    assert set(vars(given).get("_invariance", ())) == set(scn.moving_probes)


def test_translates_are_modulated_fibers(scn):
    """The fibers of a point-space translate by any element a are the
    fibers of the function times a's modulation row."""
    rng = np.random.default_rng(42)
    mat = np.column_stack([random_function(scn, rng) for _ in range(2)])
    fibers = fiber_matrices(scn, mat)
    mods = scn.modulations(tuple(scn.group.elements))
    for a, d in zip(scn.group.elements, mods):
        got = spaces_mod._modulate(d, fibers)
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


# every public function taking ``tol``, as ``call(scn, space, tol)``
TOL_CALLERS = {
    "is_invariant": lambda scn, space, tol: is_invariant(space, scn.extra, tol),
    "require_base_invariant": lambda scn, space, tol: require_base_invariant(space, tol),
    "check_extra_invariance": check_extra_invariance,
    "check_decomposable": check_decomposable,
    "principal_membership": lambda scn, space, tol: principal_membership(
        scn, space.frame[:, 0], space.frame[:, 0], tol
    ),
    "sequence_extra_invariance": lambda scn, space, tol: sequence_extra_invariance(
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
                lambda: principal_membership(chain12, h * scale, f),
            ],
            "generator": [lambda: principal_membership(chain12, h * scale, f * scale)],
        }
        for subject, group in calls.items():
            for call in group:
                with pytest.raises(ValueError, match=f"^{subject} too large: the .* overflows"):
                    call()


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
    assert Subspace(scn, np.ones((n, 2))).frame.dtype == complex


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
