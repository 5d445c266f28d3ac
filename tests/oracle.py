"""Dense character-sum transforms, written straight from their definitions.

The library computes the full Zak transform with an FFT over the moduli
shape and regroups it through index tables.  The functions here do neither:
each one contracts the orbit samples with the whole |G| x |G| character
table from :meth:`FiniteAbelianGroup.char_matrix` and regroups dual
elements by explicit group addition, so agreement with the library is a
check of its kernels and bookkeeping, not a restatement of them.  They are
O(|G|^2) and meant for test sizes only.

Every transform takes a single function (1-D) or a batch of columns (2-D),
like the library.

The reference kernels (``kernel_*``) are the library's transforms in their
first index-and-scale form: fancy-index gathers and scatters, complex
products and quotients with the real roots, two-index stacked regrouping;
and the rank cut of a single matrix as one SVD, sliced.  They are as fast
as the library, and the library must match their bits.

The approximation references start from the dense stacked transform and
the block indicators: the exhaustive allocation minimum of the
extra-invariant problem, and the solvers' fit as one SVD per fiber and
block, with the pooling, ordering and rank floor spelled out in Python.

The invariant span reference translates the generators by every element of
the subgroup and cuts the rank of all those columns at once, in point
space.  The extra-invariance references take the point-space route: the
frame translated by each probe, a pivoted-QR rank cut of every block's
mask image, the dense sum of the components' n x n projectors, and
per-fiber bases with their block residuals and projector matches, all in
Python loops over blocks and fibers.  The
fiberized range-function check unfolds orbit samples into sequences over
the group.  Both are too slow for large groups and meant for test sizes.

The check pair's decompositions are kept in their first form: a probe
pass as the R factor of a QR and a values-only SVD, the component law as
a values-only SVD of a (2r, k) stack per probe, fiber and block, the
match deviation as a (block rows)^2 projector gap, and the canonical
space built through the inverse transform and a point-space span.

The action references compose the whole |G| x n table of the action from
its generator permutations (``compose_table``) and read every translate off
it.  The group-core references at the end work element by element on
coordinate tuples, with ``FiniteAbelianGroup.add`` and set membership: the
all-pairs group-law check on that table, coset representatives as a
lexicographic minimum over the subgroup, the annihilator by the pairing
test against every subgroup element, and subgroup membership by closure
under all pairs.  They are O(|G|^2) as well.

The CSV reference writes a matrix one entry at a time, in Python loops.
"""
import csv
import itertools

import numpy as np
import scipy.linalg

from actinv import (
    ActionError,
    FreenessError,
    OrbitError,
    Subspace,
    check_extra_invariance,
    mask_apply,
    sequence_extra_invariance,
    translate,
    unfold_orbits,
)

RANK_TOL = 1e-10


def analysis_chars(group):
    """``[t, h] = pairing(-t, h)`` over ``group.elements`` on both axes."""
    negs = [group.neg(t) for t in group.elements]
    return group.char_matrix(negs, group.elements)


def compose_table(action):
    """All |G| permutations of the action, composed from the generators.

    Row ``i`` is ``p_{k-1}^{c_{k-1}} o ... o p_0^{c_0}`` for
    ``c = elements[i]``, built by growing the table one coordinate at a
    time: |G| x n entries, whatever the data.
    """
    n = action.n_points
    table = np.arange(n, dtype=np.intp)[None, :]
    for p, modulus in zip(action.generator_perms, action.group.moduli):
        # [i, c] = p^c o table[i]: coordinate j varies fastest so far
        grown = np.empty((len(table), modulus, n), dtype=np.intp)
        grown[:, 0] = table
        for c in range(1, modulus):
            grown[:, c] = p[grown[:, c - 1]]
        table = grown.reshape(-1, n)
    return table


def gather(scn, elements, cell):
    """Points ``sigma_t(x)`` and roots ``jacobian(t, x)**0.5`` over elements x cell."""
    act, group = scn.action, scn.group
    table = compose_table(act)
    cell = np.asarray(cell, dtype=np.intp)
    points = np.array([table[group.index(t)][cell] for t in elements], dtype=np.intp)
    roots = np.sqrt(act.weights[points] / act.weights[cell][None, :])
    return points, roots


def _orbit_points(scn):
    """Points ``sigma_{-t}(x)`` and roots ``jacobian(-t, x)**0.5``, shape (|G|, reps)."""
    negs = [scn.group.neg(t) for t in scn.group.elements]
    return gather(scn, negs, scn.tiling.orbit_reps)


def _batch(roots, ndim):
    return roots.reshape(roots.shape + (1,) * (ndim - 1))


def full(scn, f):
    """``full[h, c] = sum_t pairing(-t, h) * translate(t, f)(x_c)``."""
    f = np.asarray(f, dtype=complex)
    points, roots = _orbit_points(scn)
    samples = _batch(roots, f.ndim) * f[points]
    return np.einsum("tc...,th->hc...", samples, analysis_chars(scn.group))


def full_inv(scn, values):
    values = np.asarray(values, dtype=complex)
    chars = analysis_chars(scn.group)
    samples = np.einsum("hc...,th->tc...", values, np.conj(chars)) / scn.group.order
    points, roots = _orbit_points(scn)
    f = np.zeros((scn.action.n_points,) + values.shape[2:], dtype=complex)
    for t in range(points.shape[0]):
        for c in range(points.shape[1]):
            f[points[t, c]] = samples[t, c] / roots[t, c]
    return f


def _dual_index(scn):
    """``[w, k]`` = position of ``omega[w] + annihilator element k`` in the group."""
    group = scn.group
    ann = sorted(scn.base_annihilator.elements)
    return np.array(
        [[group.index(group.add(w, a)) for a in ann] for w in scn.omega],
        dtype=np.intp,
    )


def stacked(scn, f):
    return full(scn, f)[_dual_index(scn)] / np.sqrt(scn.n_cosets)


def stacked_inv(scn, values):
    values = np.asarray(values, dtype=complex)
    index = _dual_index(scn)
    dual = np.empty((scn.group.order,) + values.shape[2:], dtype=complex)
    dual[index.ravel()] = values.reshape((-1,) + values.shape[2:])
    return full_inv(scn, dual * np.sqrt(scn.n_cosets))


def block_indicator(scn, xi):
    """Indicator over the dual group of ``{omega + xi + d : d in extra-annihilator}``."""
    group = scn.group
    out = np.zeros(group.order, dtype=bool)
    for w in scn.omega:
        for d in scn.extra_annihilator.elements:
            out[group.index(group.add(group.add(w, xi), d))] = True
    return out


def mask(scn, xi, f):
    values = full(scn, f)
    keep = block_indicator(scn, xi)
    return full_inv(scn, values * keep.reshape((-1,) + (1,) * (values.ndim - 1)))


# -- reference kernels: the library's bits ---------------------------------------


def kernel_tables(scn):
    """Base, full and unfold gather tables (points, roots), movers major."""
    group, act = scn.group, scn.action
    c = group.coords
    w = act.weights

    def table(elements):
        points = act.point_of.T[elements].reshape(len(elements), -1)
        return points, np.sqrt(w[points] / w[points[0]])

    moved = c[scn.base.indices][:, None] + c[scn.transversal.rep_indices]
    return {
        "base": table(group.indices(-moved)),
        "full": table(group.indices(-c)),
        "unfold": table(np.arange(group.order)),
    }


def kernel_chars_base_omega(scn):
    negs = [scn.group.neg(g) for g in scn.base.elements]
    return scn.group.char_matrix(negs, list(scn.omega))


def kernel_coset_dft(scn):
    negs = [scn.group.neg(a) for a in scn.transversal.representatives]
    return scn.group.char_matrix(negs, list(scn.annihilator_order)).T


def _kernel_gathered(table, f):
    points, roots = table
    values = np.atleast_1d(np.asarray(f, dtype=complex))[points]
    return values * roots.reshape(roots.shape + (1,) * (values.ndim - 2))


def _kernel_scattered(scn, table, samples):
    points, roots = table
    batch = samples.shape[2:]
    f = np.empty((scn.action.n_points,) + batch, dtype=complex)
    scale = roots.reshape(roots.shape + (1,) * len(batch))
    f[points.ravel()] = (samples / scale).reshape((points.size,) + batch)
    return f


def _kernel_dft(group, a, inverse=False):
    grid = a.reshape(group.moduli + a.shape[1:])
    fft = np.fft.ifftn if inverse else np.fft.fftn
    return fft(grid, axes=tuple(range(group.rank))).reshape(a.shape)


def kernel_base(scn, f):
    orbit = _kernel_gathered(kernel_tables(scn)["base"], f)
    return np.tensordot(kernel_chars_base_omega(scn), orbit, axes=(0, 0))


def kernel_base_inv(scn, values):
    chars = kernel_chars_base_omega(scn)
    a = np.tensordot(np.conj(chars), values, axes=(1, 0)) / scn.base.order
    return _kernel_scattered(scn, kernel_tables(scn)["base"], a)


def kernel_full(scn, f):
    return _kernel_dft(scn.group, _kernel_gathered(kernel_tables(scn)["full"], f))


def kernel_full_inv(scn, values):
    samples = _kernel_dft(scn.group, values, inverse=True)
    return _kernel_scattered(scn, kernel_tables(scn)["full"], samples)


def kernel_stacked(scn, f):
    full = kernel_full(scn, f)
    split = scn.dual_split
    out = np.empty((scn.n_fibers, scn.n_cosets) + full.shape[1:], dtype=complex)
    out[split[:, 0], split[:, 1]] = full
    return out / np.sqrt(scn.n_cosets)


def kernel_stacked_inv(scn, values):
    split = scn.dual_split
    return kernel_full_inv(scn, values[split[:, 0], split[:, 1]] * np.sqrt(scn.n_cosets))


def kernel_unfold(scn, f):
    return np.moveaxis(_kernel_gathered(kernel_tables(scn)["unfold"], f), 0, 1)


def kernel_fold(scn, phi):
    samples = np.moveaxis(phi, 1, 0)
    return _kernel_scattered(scn, kernel_tables(scn)["unfold"], samples)


def kernel_euclid_orth(mat, tol=RANK_TOL, floor=0.0):
    """Orthonormal columns for the span of ``mat``'s columns (Euclidean).

    The left singular vectors of one SVD, cut at ``tol`` times the largest
    singular value and at the absolute ``floor``: the rank cut of a single
    matrix in its first, sliced form.
    """
    if mat.shape[1] == 0:
        return mat.copy()
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= max(floor, 0.0):
        return np.zeros((mat.shape[0], 0), dtype=complex)
    return u[:, : int(np.sum(s > max(tol * s[0], floor)))]


def kernel_block_cut(mats, rows, tol=RANK_TOL, floor=0.0):
    """The rank cut of fiber matrices along blocks, as a range function.

    One SVD per fiber and block of ``mats[w][rows[b]]``; a left singular
    vector counts when its value is above ``tol`` times the largest over
    every fiber and block and above ``floor``.  Fiber w's kept vectors, in
    (block, singular index) order, are its columns, each zero outside its
    block's rows; the result is complex, as wide as the widest fiber and
    zero-filled.
    """
    n_fibers, n_rows, _ = mats.shape
    factors = [
        [np.linalg.svd(mats[w][rows[b]], full_matrices=False)[:2] for b in range(len(rows))]
        for w in range(n_fibers)
    ]
    top = max((float(s.max(initial=0.0)) for fiber in factors for _, s in fiber), default=0.0)
    cut = max(tol * top, floor)
    columns = [
        [(b, u[:, i]) for b, (u, s) in enumerate(fiber) for i in np.flatnonzero(s > cut)]
        for fiber in factors
    ]
    out = np.zeros((n_fibers, n_rows, max(map(len, columns), default=0)), dtype=complex)
    for w, fiber in enumerate(columns):
        for j, (b, col) in enumerate(fiber):
            out[w, rows[b], j] = col
    return out


def kernel_fiber_matrices(scn, vectors):
    vals = kernel_stacked(scn, vectors)
    if vals.ndim == 3:
        vals = vals[..., None]
    vals = vals * np.sqrt(scn.rep_weights)[None, None, :, None]
    w, k, c, d = vals.shape
    return vals.reshape(w, k * c, d)


def kernel_fibers_from_matrix(scn, fiber_cols):
    w, _, d = fiber_cols.shape
    split = scn.dual_split
    stacked = fiber_cols.reshape(w, scn.n_cosets, len(scn.tiling.orbit_reps), d)
    full = stacked[split[:, 0], split[:, 1]]
    full *= np.sqrt(scn.n_cosets / scn.rep_weights)[:, None]
    return kernel_full_inv(scn, full)


# -- approximation ---------------------------------------------------------------


def fiber_data(scn, data):
    """Per-fiber data matrices in weighted stacked coordinates, from ``stacked``."""
    vals = stacked(scn, np.asarray(data, dtype=complex).reshape(scn.action.n_points, -1))
    vals = vals * np.sqrt(scn.rep_weights)[None, None, :, None]
    w, k, c, d = vals.shape
    return vals.reshape(w, k * c, d)


def block_rows(scn):
    """Stacked rows of each block in label order, from ``block_indicator``."""
    reps = len(scn.tiling.orbit_reps)
    first_fiber = _dual_index(scn)[0]
    return [
        np.flatnonzero(np.repeat(block_indicator(scn, xi)[first_fiber], reps))
        for xi in scn.block_labels
    ]


def allocation_minimum(scn, data, ell):
    """Optimal extra-invariant error over all per-block dimension allocations."""
    total = 0.0
    for mat in fiber_data(scn, data):
        energy = float(np.linalg.norm(mat) ** 2)
        sq = [
            np.sort(np.linalg.svd(mat[sel, :], compute_uv=False) ** 2)[::-1]
            for sel in block_rows(scn)
        ]
        best_kept = 0.0
        for counts in itertools.product(*[range(min(ell, s.size) + 1) for s in sq]):
            if sum(counts) <= ell:
                kept = sum(float(np.sum(s[:k])) for s, k in zip(sq, counts))
                best_kept = max(best_kept, kept)
        total += (energy - best_kept) / scn.n_fibers
    return total


def pooled_fit(scn, data, ell, extra):
    """The approximation solvers as one SVD per fiber and block, pooled in Python.

    Per fiber, the (singular value, block position, singular index, vector)
    entries of every block (one block of all rows when ``extra`` is false)
    are sorted by (value desc, position, index); the first ``ell`` above
    ``1e-10`` times the largest value overall are kept.  Returns the error,
    ``(kept, dropped, kept_labels)`` per fiber and the weighted projector of
    the kept directions.
    """
    mats = fiber_data(scn, data)
    rows = block_rows(scn) if extra else [np.arange(mats.shape[1])]
    pools = []
    for mat in mats:
        pooled = []
        for pos, sel in enumerate(rows):
            u, s, _ = scipy.linalg.svd(mat[sel, :], full_matrices=False)
            for i in range(s.size):
                vec = np.zeros(mat.shape[0], dtype=complex)
                vec[sel] = u[:, i]
                pooled.append((float(s[i]), pos, i, vec))
        pooled.sort(key=lambda t: (-t[0], t[1], t[2]))
        pools.append(pooled)
    floor = 1e-10 * max(pool[0][0] for pool in pools)
    error, spectra, cols = 0.0, [], []
    for w, pooled in enumerate(pools):
        n = min(ell, sum(p[0] > floor for p in pooled))
        kept, dropped = pooled[:n], pooled[n:]
        error += sum(p[0] ** 2 for p in dropped) / scn.n_fibers
        labels = tuple(scn.block_labels[p[1]] for p in kept) if extra else None
        spectra.append((tuple(p[0] for p in kept), tuple(p[0] for p in dropped), labels))
        cols += [(w, p[3]) for p in kept]
    picks = np.zeros(mats.shape[:2] + (len(cols),), dtype=complex)
    for j, (w, vec) in enumerate(cols):
        picks[w, :, j] = vec
    w, _, d = picks.shape
    fibers = picks.reshape(w, scn.n_cosets, -1, d) / np.sqrt(scn.rep_weights)[:, None]
    frame = stacked_inv(scn, fibers) * np.sqrt(scn.n_fibers)
    frame = frame * np.sqrt(scn.action.weights)[:, None]
    return error, spectra, frame @ frame.conj().T


# -- extra invariance -----------------------------------------------------------


def euclid_orth(mat, tol=RANK_TOL, floor=0.0):
    """Orthonormal columns for the span by pivoted QR.

    Keeps the pivots above ``tol`` times the first one and above ``floor``.
    """
    if mat.shape[1] == 0:
        return mat.copy()
    q, r, _ = scipy.linalg.qr(mat, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] <= floor:
        return q[:, :0]
    return q[:, : int(np.sum(diag > max(tol * diag[0], floor)))]


def _projector(mat, floor):
    q = euclid_orth(mat, floor=floor)
    return q @ q.conj().T


def _worst_direction(resid):
    """Largest singular value of a residual matrix: its worst unit direction."""
    return float(np.linalg.norm(resid, 2)) if resid.size else 0.0


def projector(space):
    """The space's n x n orthogonal projector in weighted coordinates."""
    q = space.frame * np.sqrt(space.scenario.action.weights)[:, None]
    return q @ q.conj().T


def translation_residual(space, subgroup):
    """Worst unit direction of the space moved out by a generator of the subgroup.

    The frame translated in point space by each generator (zero for the
    trivial subgroup), its part outside the space in weighted coordinates,
    and the largest singular value of that part, the largest over probes.
    """
    scn = space.scenario
    root = np.sqrt(scn.action.weights)[:, None]
    q = space.frame * root
    worst = 0.0
    for g in tuple(subgroup.generators) or (scn.group.zero,):
        moved = translate(scn.action, g, space.frame) * root
        worst = max(worst, _worst_direction(moved - q @ (q.conj().T @ moved)))
    return worst


def point_space_span(scn, generators, subgroup):
    """The invariant span in point space: every subgroup translate, one rank cut."""
    mat = np.asarray(generators, dtype=complex)
    translates = [translate(scn.action, g, mat) for g in subgroup.elements]
    return Subspace.span(scn, np.hstack(translates))


def point_space_checks(scn, space, tol=1e-9):
    """Both sides of the extra-invariance checks on the point-space route.

    Mask side: each block's masked frame, cut by pivoted QR at the absolute
    floor ``RANK_TOL`` in weighted coordinates, is the component; its
    inclusion residual is the worst unit direction of the component's part
    outside the space, and when every component is included the deviation
    is the largest entry of the space's n x n projector minus the
    components', and the component law the worst translation residual of a
    component's frame under the base and extra generators.  Translation
    side: :func:`translation_residual` of the space under the extra
    generators.  Fiber side: per fiber, a pivoted-QR basis cut at
    ``RANK_TOL`` of the largest fiber singular value; per block, the worst
    unit direction of the masked basis outside the fiber space, and when
    every block passes, the largest gap between the projectors of the
    masked basis and of the component's fibers.
    """
    root = np.sqrt(scn.action.weights)[:, None]
    qs = space.frame * root
    comps = []
    for xi in scn.block_labels:
        masked = mask_apply(scn, xi, space.frame) * root
        comps.append(euclid_orth(masked, floor=RANK_TOL))
    inclusion = [_worst_direction(c - qs @ (qs.conj().T @ c)) for c in comps]
    out = {
        "extra_invariant": all(r <= tol for r in inclusion),
        "translation_residual": translation_residual(space, scn.extra),
        "component_dims": tuple(c.shape[1] for c in comps),
        "inclusion_residuals": inclusion,
        "decomposition_deviation": None,
        "component_invariance_residual": None,
        "block_residual": 0.0,
        "component_match_deviation": None,
    }
    if out["extra_invariant"]:
        total = sum(c @ c.conj().T for c in comps)
        out["decomposition_deviation"] = float(np.max(np.abs(qs @ qs.conj().T - total)))
        out["component_invariance_residual"] = max(
            (
                translation_residual(Subspace(scn, c / root), sub)
                for c in comps
                for sub in (scn.base, scn.extra)
            ),
            default=0.0,
        )
    if space.dim == 0:
        out["decomposable"] = True
        return out
    mats = fiber_data(scn, space.frame)
    top = max(float(np.linalg.norm(m, 2)) for m in mats)
    bases = [euclid_orth(m, floor=RANK_TOL * top) for m in mats]
    keeps = []
    for sel in block_rows(scn):
        keep = np.zeros(mats.shape[1], dtype=bool)
        keep[sel] = True
        keeps.append(keep)
    for q in bases:
        for keep in keeps:
            masked = q * keep[:, None]
            resid = masked - q @ (q.conj().T @ masked)
            out["block_residual"] = max(out["block_residual"], _worst_direction(resid))
    out["decomposable"] = out["block_residual"] <= tol
    if out["decomposable"]:
        dev = 0.0
        for keep, comp in zip(keeps, comps):
            comp_mats = fiber_data(scn, comp / root)
            comp_top = max(float(np.linalg.norm(m, 2)) for m in comp_mats)
            for q, comp_mat in zip(bases, comp_mats):
                pa = _projector(q * keep[:, None], RANK_TOL)
                pb = _projector(comp_mat, RANK_TOL * max(comp_top, 1.0))
                dev = max(dev, float(np.max(np.abs(pa - pb))))
        out["component_match_deviation"] = dev
    return out


def range_function_consistency(scn, space, tol=1e-9, rng=None, samples=3):
    """Check the fiberized picture of the space at every orbit representative.

    The range function at a representative x is the span, inside sequences
    over the group, of the unfolded orbit samples of all base translates of
    the frame columns.  Random members of the space must unfold into the
    range function at every x, and when the space is extra-invariant,
    every range function must pass ``sequence_extra_invariance``.
    """
    if space.dim == 0:
        return True
    rng = rng or np.random.default_rng(0)
    translates = np.hstack(
        [translate(scn.action, g, space.frame) for g in scn.base.elements]
    )
    unfolded = unfold_orbits(scn, translates)  # (reps, group, d)
    ext = check_extra_invariance(scn, space, tol)
    ok = True
    for c in range(len(scn.tiling.orbit_reps)):
        w = unfolded[c]
        q = euclid_orth(w)
        for _ in range(samples):
            coeff = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            phi = unfold_orbits(scn, space.frame @ coeff)[c]
            resid = phi - q @ (q.conj().T @ phi)
            scale = max(1.0, float(np.linalg.norm(phi)))
            if float(np.linalg.norm(resid)) > tol * scale:
                ok = False
        if ext.extra_invariant:
            ok = ok and sequence_extra_invariance(scn, w, tol)
    return ok


# -- the check pair's decompositions, in their first form ------------------------


def moved_top(d, basis):
    """A modulation's probe pass as a QR and a values-only SVD.

    ``d`` (n_fibers, n_cosets) multiplies every orbit slot of stacked row
    ``k * reps + c`` by ``d[w, k]``.  Returns ``N = B^H d B``, the R factor
    of the part outside, ``O = d B - B N``, and the top singular value of
    R, which is that of O.
    """
    reps = basis.shape[1] // d.shape[1]
    moved = basis * np.repeat(d, reps, axis=1)[:, :, None]
    inside = basis.conj().swapaxes(-1, -2) @ moved
    factor = np.linalg.qr(moved - basis @ inside, mode="r")
    top = np.linalg.svd(factor, compute_uv=False)
    return inside, factor, float(np.max(top, initial=0.0))


def component_law(passes, coeffs):
    """The component law as one values-only SVD of ``[(I - x x^H) N x; R x]``
    per probe, fiber and block, from the ``(N, R)`` of each probe pass."""
    herm = coeffs.conj().swapaxes(-1, -2)
    worst = 0.0
    for inside, factor in passes:
        within = inside[:, None] @ coeffs
        within = within - coeffs @ (herm @ within)
        law = np.concatenate([within, factor[:, None] @ coeffs], axis=-2)
        top = np.linalg.svd(law, compute_uv=False)
        worst = max(worst, float(np.max(top, initial=0.0)))
    return worst


def off_block_norms(scn, basis):
    """The block-row SVD's singular values ``t`` and the norm ``off`` of each
    of its directions outside its block, read from the direction itself:
    ``basis[w] @ v[w, b]`` over every row with block b's rows zeroed, one
    fiber and block at a time.  (n_fibers, n_blocks, k) each."""
    rows = block_rows(scn)
    _, t, vh = np.linalg.svd(basis[:, np.array(rows)], full_matrices=False)
    off = np.zeros(t.shape)
    for w in range(scn.n_fibers):
        for b, block in enumerate(rows):
            moved = basis[w] @ vh[w, b].conj().T
            moved[block] = 0.0
            off[w, b] = np.linalg.norm(moved, axis=0)
    return t, off


def match_deviation(scn, basis, a, kv, kept):
    """Largest entry of the (block rows)^2 gap between the projector onto the
    kept left singular vectors of each fiber's block rows and the projector
    onto the component's fiber there, fiber by fiber and block by block."""
    worst = 0.0
    for w in range(scn.n_fibers):
        for b, rows in enumerate(block_rows(scn)):
            ak = a[w, b][:, kept[w, b]]
            comps = basis[w][rows] @ kv[w, b]
            gap = ak @ ak.conj().T - comps @ comps.conj().T
            worst = max(worst, float(np.max(np.abs(gap), initial=0.0)))
    return worst


def canonical_space(scn):
    """The canonical extra-invariant space built through the transforms: the
    inverse full Zak transform of the identity block's indicator, constant
    across orbit representatives, spanned under the base in point space."""
    inside = block_indicator(scn, scn.group.zero).astype(complex)
    reps = len(scn.tiling.orbit_reps)
    gen = full_inv(scn, np.repeat(inside[:, None], reps, axis=1))
    return point_space_span(scn, gen[:, None], scn.base)


# -- group core ----------------------------------------------------------------


def validate_action(action):
    """Group law over all element pairs, point count, then freeness per element.

    Raises the library's error classes; returns the sorted orbits.
    """
    group, table, n = action.group, compose_table(action), action.n_points
    ident = np.arange(n)
    if not np.array_equal(table[group.index(group.zero)], ident):
        raise ActionError("identity element does not act as the identity")
    for i, a in enumerate(group.elements):
        sums = [group.index(group.add(a, b)) for b in group.elements]
        # [j, x] = sigma(a)(sigma(b_j)(x)) against sigma(a + b_j)(x)
        if not np.array_equal(table[i][table], table[sums]):
            raise ActionError(f"additivity fails for {a}")
    if n % group.order:
        raise OrbitError(f"{n} points, group order {group.order}")
    for i, el in enumerate(group.elements):
        if el != group.zero and np.any(table[i] == ident):
            raise FreenessError(f"element {el} fixes a point")
    return sorted({tuple(sorted(table[:, x].tolist())) for x in range(n)})


def coset_representatives(group, subgroup, within=None):
    """``{element: lexicographically smallest element of its coset}`` on the domain."""
    domain = group.elements if within is None else within.elements
    return {el: min(group.add(el, h) for h in subgroup.elements) for el in domain}


def annihilator_elements(subgroup):
    group = subgroup.group
    return [
        xi
        for xi in group.elements
        if all(group.pairing_is_one(h, xi) for h in subgroup.elements)
    ]


def is_subgroup(group, elements):
    """Contains zero and is closed under addition of every pair."""
    members = {group.reduce(e) for e in elements}
    return group.zero in members and all(
        group.add(a, b) in members for a in members for b in members
    )


def greedy_generators(group, elements):
    """Pick the smallest member not yet generated; close by breadth-first search."""
    gens, have = [], {group.zero}
    for el in sorted({group.reduce(e) for e in elements}):
        if el in have:
            continue
        gens.append(el)
        frontier = list(have)
        while frontier:
            nxt = [group.add(a, g) for a in frontier for g in gens]
            frontier = [b for b in nxt if b not in have]
            have.update(frontier)
    return gens


def write_columns_csv(path, matrix):
    """Paired re/im columns, the header and then one row per point, built
    entry by entry."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if mat.shape[0] == 1 and matrix.ndim == 1:
        mat = mat.T
    n, d = mat.shape
    header = []
    for j in range(d):
        header += [f"c{j}_re", f"c{j}_im"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x in range(n):
            row = []
            for j in range(d):
                row += [mat[x, j].real, mat[x, j].imag]
            writer.writerow(row)
