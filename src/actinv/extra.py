"""Extra invariance under the larger subgroup: partition, masks, checks.

The dual group splits into blocks indexed by the ``block_labels`` (coset
representatives of base-annihilator / extra-annihilator): the block of
label xi is

    block(xi) = { omega + xi + d : omega in dual_section, d in extra-annihilator }.

Masking full Zak values by a block's indicator defines an orthogonal
projection ``mask_apply`` on the function space.  The central result
implemented here: a base-invariant subspace is invariant under the whole
extra subgroup exactly when every masked image of it stays inside it, and
in that case the masked images are mutually orthogonal and sum to the
space.  Both sides of the equivalence are computed and a disagreement
raises :class:`TheoremViolationError`.

Both checks read the space's range function (one orthonormal basis per Zak
fiber, :mod:`actinv.spaces`) and nothing else.  The translation side
modulates each fiber basis by the extra generators' pairings.  The mask
side never leaves the fibers either: the stacked Zak transform is an
isometry, so the masked image of a space is spanned by the block rows of
its fiber bases, and one batched SVD of those block rows per fiber and
block (:func:`_split`) yields every component at once: its dimension, its
directions as coefficient vectors on the fiber basis, and the norm each
direction keeps outside its block.  No check builds an n x n array, a
frame or a translate of a fiber-built space.

Independence: the two sides share the fiber bases, so a disagreement
(:class:`TheoremViolationError`) exposes a fault in the partition rows,
the modulation rows or the per-block algebra, not in the transform that
produced the bases.  The transform is guarded by the isometry criteria and
by the point-space references of the test suite (translated frames, mask
images, n x n projectors).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvarianceError, TheoremViolationError
from .groups import Element
from .scenario import Scenario, _probes
from .spaces import (
    DEFAULT_TOL,
    RANK_TOL,
    Subspace,
    _block_cut,
    _blocks,
    _kept,
    _probe_pass,
    _range_function,
    _residual,
    _top,
    checked_tol,
    require_base_invariant,
    require_scenario,
)
from .zak import _group_dft, zak_full, zak_full_inv


@dataclass(frozen=True)
class DualPartition:
    """The block partition of the dual group, one block per label.

    ``positions[i]`` is the block position (index into ``labels``) of dual
    element ``i``, and ``rows[b]`` lists the weighted stacked rows of block
    b: a stacked row ``k * len(orbit_reps) + c`` belongs to the block of its
    annihilator coordinate k, each block's rows increasing.  Both are
    read-only and verified.
    """

    scenario: Scenario
    labels: tuple[Element, ...]
    positions: np.ndarray = field(repr=False)  # (group.order,) block positions
    rows: np.ndarray = field(repr=False)  # (n_blocks, rows per block)

    def _members(self) -> np.ndarray:
        """Dual element indices of each block, increasing; (n_blocks, block size)."""
        return np.argsort(self.positions, kind="stable").reshape(len(self.labels), -1)

    @property
    def blocks(self) -> tuple[frozenset[Element], ...]:
        """The dual elements of each block."""
        elements = self.scenario.group.elements
        return tuple(frozenset(elements[i] for i in m) for m in self._members())

    def block_of(self, tau_hat) -> Element:
        """Label of the block containing the dual element."""
        return self.labels[self.positions[self.scenario.group.index(tau_hat)]]

    def as_dict(self) -> dict:
        elements = self.scenario.group.elements
        return {
            "blocks": [
                {"label": list(label), "elements": [list(elements[i]) for i in m]}
                for label, m in zip(self.labels, self._members())
            ]
        }


def dual_partition(scn: Scenario) -> DualPartition:
    """The dual partition of the scenario, built and verified once, then cached.

    The block positions come from the scenario's index tables: a dual
    element ``omega[w] + a`` (``a`` in the base annihilator) lies in the
    block of ``a``'s label, ``coordinate_labels[dual_split[:, 1]]``.  They
    are checked against the definition, each block being the set-sum of the
    fiber labels, one block label, and the extra annihilator: every block
    has ``n_fibers * |extra-annihilator|`` elements and is invariant under
    adding extra-annihilator elements, and the defining set-sums are
    disjoint, cover the dual group and match the positions.  The stacked
    rows of a block, :meth:`Scenario.block_rows` of the extra subgroup, are
    checked to hold its elements at every fiber.
    """
    part = vars(scn).get("_dual_partition")
    if part is None:
        part = scn._dual_partition = _build_dual_partition(scn)
    return part


def _build_dual_partition(scn: Scenario) -> DualPartition:
    group = scn.group
    labels = scn.block_labels
    size = scn.n_fibers * scn.extra_annihilator.order
    block = scn.coordinate_labels[scn.dual_split[:, 1]]
    counts = np.bincount(block, minlength=len(labels))
    if (counts != size).any():
        pos = int(np.flatnonzero(counts != size)[0])
        raise TheoremViolationError(
            "dual partition block has the wrong size",
            details={"label": list(labels[pos]), "size": int(counts[pos])},
        )
    for d in scn.extra_annihilator.generators:
        moved = block[group.indices(group.coords + d)]
        if (moved != block).any():
            el = int(np.flatnonzero(moved != block)[0])
            raise TheoremViolationError(
                "dual partition block is not extra-annihilator invariant",
                details={
                    "label": list(labels[block[el]]),
                    "element": list(group.elements[el]),
                },
            )
    coords = group.coords
    omega = coords[scn.dual_section.rep_indices]
    xi = coords[scn.block_section.rep_indices]
    d = coords[scn.extra_annihilator.indices]
    # [label, fiber, d] = omega + xi + d, the blocks by definition
    defined = group.indices(xi[:, None, None] + omega[None, :, None] + d[None, None, :])
    covered = np.bincount(defined.ravel(), minlength=group.order)
    if (covered != 1).any():
        raise TheoremViolationError(
            "dual partition blocks do not tile the dual group",
            details={"covered": int(np.count_nonzero(covered)), "order": group.order},
        )
    position = np.arange(len(labels))[:, None]
    if (block[defined] != position[:, :, None]).any():
        raise TheoremViolationError(
            "dual partition positions disagree with the block definition"
        )
    # stacked coordinate k of fiber w holds omega[w] + annihilator_order[k]
    reps = len(scn.tiling.orbit_reps)
    rows = scn.block_rows(scn.extra)
    k = rows[:, ::reps] // reps
    if (block[scn.dual_unsplit[:, k]] != position).any():
        raise TheoremViolationError(
            "stacked block rows disagree with the dual partition"
        )
    block.flags.writeable = False
    return DualPartition(scn, tuple(labels), block, rows)


def mask_apply(scn: Scenario, xi, f: np.ndarray):
    """Orthogonal projection onto functions whose full Zak support is xi's block."""
    pos = scn.block_section.position_of(xi)
    vals = zak_full(scn, f)
    vals[dual_partition(scn).positions != pos] = 0.0
    return zak_full_inv(scn, vals)


def masked_component(scn: Scenario, space: Subspace, xi) -> Subspace:
    """The image of a base-invariant subspace under the block mask.

    Computed in point space: one :func:`mask_apply` of the frame and a rank
    cut.  The checks do not call it; they read the same components off the
    Zak side (:func:`check_extra_invariance`).
    """
    require_scenario(scn, space)
    require_base_invariant(space)
    if space.dim == 0:
        return Subspace.zero(scn)
    masked = mask_apply(scn, xi, space.frame)
    # masks act on unit frame columns: anything below the absolute floor
    # is roundoff, not a direction of the image
    return Subspace.span(scn, masked, floor=RANK_TOL)


def _split(scn: Scenario, space: Subspace, basis: np.ndarray):
    """The range function split along the dual partition, memoised on ``space``.

    One batched SVD of the block rows of every fiber basis,
    ``basis[:, rows] = a t v^H`` per fiber and block, shape (n_fibers,
    n_blocks, ...).  Column i of ``v[w, b]`` holds the coefficients of the
    unit direction ``x = basis[w] @ v[w, b, :, i]``: it keeps norm
    ``t[w, b, i]`` in block b and ``off[w, b, i]`` outside, read off the
    factors.  x's rows in block p are ``a[w, p] (t[w, p] * (v^H[w, p] @
    v[w, b, :, i]))``; for the 2r largest ``t`` of a fiber (r the basis
    width), ``off`` is the root of those squared norms over the others.  A
    fiber's ``t ** 2`` sum to its dimension, so any other ``t ** 2`` is
    below 1/2, and ``off ** 2 = |x| ** 2 - t ** 2`` (the columns are
    orthonormal or zero) is above 1/2, free of cancellation.  The rank
    rule (:func:`actinv.spaces._kept`) keeps directions above its absolute
    floor ``RANK_TOL``, the cut that counts as every ``t`` is at most 1.
    Returns ``a``, ``t``, ``kv`` (``v``, the directions not kept zeroed:
    the components' fibers are ``basis @ kv``), ``off`` and ``kept``.
    """
    memo = vars(space).get("_split")
    if memo is None:
        a, t, vh = np.linalg.svd(_blocks(basis, dual_partition(scn).rows), full_matrices=False)
        n_fibers, n_blocks, k = t.shape
        r, n_dirs = basis.shape[2], n_blocks * k
        rows = vh.reshape(n_fibers, n_dirs, r)  # direction (b, i) conjugated, as a row
        norm2 = (np.abs(rows) ** 2 @ basis.any(axis=1)[..., None])[..., 0]
        off = np.sqrt(np.maximum(norm2 - t.reshape(n_fibers, n_dirs) ** 2, 0.0))
        heavy = np.argsort(-t.reshape(n_fibers, n_dirs), axis=1, kind="stable")[:, : 2 * r]
        fibers = np.arange(n_fibers)[:, None]
        picked = rows[fibers, heavy].conj().swapaxes(1, 2)
        parts = (t.reshape(n_fibers, n_dirs, 1) * rows) @ picked  # [w, (p, l), heavy]
        block = np.repeat(np.arange(n_blocks), k)
        parts *= block[:, None] != block[heavy][:, None]
        off[fibers, heavy] = np.linalg.norm(parts, axis=1)
        kept = _kept(t, floor=RANK_TOL)
        kv = vh.conj().swapaxes(2, 3) * kept[:, :, None]
        memo = space._split = (a, t, kv, off.reshape(t.shape), kept)
    return memo


def _component_law(space: Subspace, coeffs: np.ndarray) -> float:
    """Worst base/extra-invariance residual of the subspaces, one per block b,
    whose fiber w is spanned by ``basis[w] @ coeffs[w, b]`` (orthonormal or
    zero columns), ``basis`` being the space's range function.

    The subspaces are range functions, so a base probe moves none of them;
    the law reads the space's probe passes (:func:`actinv.spaces._probe_pass`)
    of the probes outside the base (:attr:`Scenario.moving_probes`), shared
    with the residuals, and is ``0.0`` when there are none.  A probe moves
    ``basis[w] @ x`` out by its part inside the space but outside the
    subspace, ``W = (I - x x^H) N x`` in coefficients on the basis, and by
    the space's own part moved out, whose squared norms are those of the
    pass's Gram matrix G.  The two are orthogonal, so the residual is the
    top singular value read off the k x k Gram matrix ``W^H W + x^H G x``
    per probe, fiber and block, all in one :func:`actinv.spaces._top`.
    Since the blocks' k add up to at most r, the stack holds at most as
    many entries per probe as the r x r Gram matrices of the pass.
    """
    probes = space.scenario.moving_probes
    if not probes:
        return 0.0
    n_fibers, n_blocks, _, k = coeffs.shape
    herm = coeffs.conj().swapaxes(-1, -2)
    law = np.empty((len(probes), n_fibers, n_blocks, k, k), dtype=complex)
    for stack, g in zip(law, probes):
        _, inside, gram = _probe_pass(space, g)
        within = inside[:, None] @ coeffs
        within -= coeffs @ (herm @ within)
        np.matmul(within.conj().swapaxes(-1, -2), within, out=stack)
        stack += herm @ (gram[:, None] @ coeffs)
    return _top(law)


@dataclass(frozen=True)
class ExtraInvarianceReport:
    """Outcome of the extra-invariance equivalence check."""

    extra_invariant: bool
    translation_residual: float  # worst unit direction moved out by an extra probe
    inclusion_residuals: tuple[float, ...]  # per block label, worst unit direction
    inclusion_ok: tuple[bool, ...]
    component_dims: tuple[int, ...]
    decomposition_deviation: float | None  # coefficient projector gap when invariant
    component_invariance_residual: float | None  # base+extra invariance of components

    def as_dict(self) -> dict:
        return {
            "extra_invariant": bool(self.extra_invariant),
            "translation_residual": float(self.translation_residual),
            "inclusion_residuals": [float(r) for r in self.inclusion_residuals],
            "inclusion_ok": [bool(b) for b in self.inclusion_ok],
            "component_dims": [int(d) for d in self.component_dims],
            "decomposition_deviation": (
                None
                if self.decomposition_deviation is None
                else float(self.decomposition_deviation)
            ),
            "component_invariance_residual": (
                None
                if self.component_invariance_residual is None
                else float(self.component_invariance_residual)
            ),
        }


def check_extra_invariance(
    scn: Scenario, space: Subspace, tol: float = DEFAULT_TOL
) -> ExtraInvarianceReport:
    """Test invariance under the extra subgroup two ways, off the range function.

    Side one translates: the extra generators modulate every fiber basis
    (:func:`actinv.spaces.is_invariant`).  Side two masks: a block's
    component dimension is the number of singular values of its fiber
    bases' block rows above ``RANK_TOL``, and its inclusion residual is the
    distance from the space of the worst unit vector of the masked image,
    the largest ``off`` of a kept direction (:func:`_split`), which does
    not depend on a choice of basis.  The two verdicts must agree (that is
    the theorem); if they do not, a :class:`TheoremViolationError` is
    raised with both residuals.

    When the space is extra-invariant, block b's component has fiber
    ``basis[w] @ kv[w, b]``, the kept directions of fiber w.  The
    report then also carries the largest entry of ``sum_b V_b V_b^H - I``
    per fiber (the components' projectors summed, in coefficients on the
    fiber basis, against the identity) and the worst base/extra-invariance
    residual among the components, all of which must be invariant too
    (:func:`_component_law`).  The report is memoised on the space per
    ``tol``.  Once ``tol`` and the scenario are checked, a memoised report
    is returned before the base gate, which it has passed: the inner call
    of :func:`check_decomposable` does no other work.  ``ValueError``
    unless ``tol`` is a finite positive number or the space belongs to
    another scenario.
    """
    tol = checked_tol(tol)
    require_scenario(scn, space)
    reports = vars(space).get("_reports")
    if reports is not None and tol in reports:
        return reports[tol]
    basis = _range_function(space, tol)
    res_translate = _residual(space, scn.extra)
    ok_translate = res_translate <= tol
    _, t, kv, off, kept = _split(scn, space, basis)
    inc_res = (off * kept).max(axis=(0, 2), initial=0.0).tolist()
    inc_ok = tuple(r <= tol for r in inc_res)
    if ok_translate != all(inc_ok):
        raise TheoremViolationError(
            "translation test and mask-inclusion test disagree",
            details={
                "translation_residual": res_translate,
                "inclusion_residuals": inc_res,
            },
        )
    deviation = None
    comp_res = None
    if ok_translate:
        n_fibers, _, width = basis.shape
        summed = kv.swapaxes(1, 2).reshape(n_fibers, width, t[0].size)
        ident = np.eye(width) * basis.any(axis=1)[:, None, :]
        gap = summed @ summed.conj().swapaxes(1, 2) - ident
        deviation = float(np.abs(gap).max(initial=0.0))
        comp_res = _component_law(space, kv)
        if deviation > tol or comp_res > tol:
            raise TheoremViolationError(
                "components of an extra-invariant space fail their structure laws",
                details={"decomposition": deviation, "component_invariance": comp_res},
            )
    report = ExtraInvarianceReport(
        extra_invariant=ok_translate,
        translation_residual=res_translate,
        inclusion_residuals=tuple(inc_res),
        inclusion_ok=inc_ok,
        component_dims=tuple(kept.sum(axis=(0, 2)).tolist()),
        decomposition_deviation=deviation,
        component_invariance_residual=comp_res,
    )
    vars(space).setdefault("_reports", {})[tol] = report
    return report


def canonical_extra_invariant(scn: Scenario) -> Subspace:
    """A principal base-invariant space that is automatically extra-invariant.

    The generator is the inverse full Zak transform of the indicator of the
    identity-label block (constant across orbit representatives).  The
    construction makes the identity-label component the whole space and
    every other component zero.  Its range function is known in closed
    form, so it is built directly, with no transform: every fiber holds one
    unit column, ``rep_weights ** 0.5`` on the identity-label block rows
    (the weighted stacked coordinates of the indicator) and zero elsewhere.
    """
    reps = len(scn.tiling.orbit_reps)
    rows = dual_partition(scn).rows[scn.block_section.position_of(scn.group.zero)]
    column = np.zeros(scn.n_cosets * reps, dtype=complex)
    column[rows] = np.sqrt(scn.rep_weights)[rows % reps]
    column /= np.linalg.norm(column)
    return Subspace._of_range(scn, np.repeat(column[None, :, None], scn.n_fibers, axis=0))


# -- fiberwise (decomposability) formulation ----------------------------------


@dataclass(frozen=True)
class DecomposabilityReport:
    decomposable: bool
    block_residual: float  # worst masked unit direction's distance from its fiber
    component_match_deviation: float | None  # fiber projector gap, masked vs component

    def as_dict(self) -> dict:
        return {
            "decomposable": bool(self.decomposable),
            "block_residual": float(self.block_residual),
            "component_match_deviation": (
                None
                if self.component_match_deviation is None
                else float(self.component_match_deviation)
            ),
        }


def check_decomposable(
    scn: Scenario, space: Subspace, tol: float = DEFAULT_TOL
) -> DecomposabilityReport:
    """Fiberwise test: every fiber of the space splits along coordinate blocks.

    A fiber (of stacked Zak values) is decomposable when zeroing all
    coordinates outside any one block keeps the vector inside the fiber
    space.  ``block_residual`` is the largest distance from its fiber space
    of a masked unit vector of a fiber, ``t * off`` over the directions of
    the block-row SVD that :func:`check_extra_invariance` reads too.  The
    verdict must agree with that check; it also verifies that the fibers of
    each component (the kept directions ``basis[w] @ kv[w, b]``) equal the
    block-restricted fibers of the space, comparing the two projectors on
    the block rows by their diagonals (:func:`_match_deviation`).  The
    inner extra-invariance check comes first: it reads the report memoised
    for ``tol``, and it raises ``ValueError`` unless ``tol`` is a finite
    positive number and the space belongs to ``scn``.
    """
    ext = check_extra_invariance(scn, space, tol)
    basis = space._basis  # set by the base gate of the inner check
    _, t, _, off, _ = _split(scn, space, basis)
    worst = float((t * off).max(initial=0.0))
    decomposable = worst <= tol
    if decomposable != ext.extra_invariant:
        raise TheoremViolationError(
            "fiberwise decomposability disagrees with the translation test",
            details={
                "block_residual": worst,
                "translation_residual": ext.translation_residual,
            },
        )
    match_dev = None
    if decomposable and space.dim:
        match_dev = _match_deviation(scn, space, basis)
        if match_dev > tol:
            raise TheoremViolationError(
                "masked-component fibers do not match block-restricted fibers",
                details={"component_match_deviation": match_dev},
            )
    return DecomposabilityReport(decomposable, worst, match_dev)


def _match_deviation(scn: Scenario, space: Subspace, basis: np.ndarray) -> float:
    """Largest entry of the gap between the projectors of the space's fibers
    on the block rows and of the components' fibers there, over every fiber
    and block.

    With ``basis[w][rows[b]] = a t v^H`` (:func:`_split`), the first is
    ``ak ak^H`` over the kept columns ``ak`` of ``a``, and the component's
    fiber on the block rows is ``comps = basis[w][rows[b]] @ kv[w, b]``,
    one batched product over every pair.  The gap ``ak ak^H - comps
    comps^H = a diag(kept (1 - t**2)) a^H`` is positive semidefinite, so
    its largest entry lies on its diagonal: the gap of the row energies of
    ``ak`` and ``comps``.  Each temporary is at most the basis's size.
    """
    a, _, kv, _, kept = _split(scn, space, basis)
    comps = _blocks(basis, dual_partition(scn).rows) @ kv
    ak = a * kept[:, :, None, :]
    gap = (np.abs(ak) ** 2).sum(axis=3) - (np.abs(comps) ** 2).sum(axis=3)
    return float(np.abs(gap).max(initial=0.0))


# -- cross-check in the sequence space over the group -------------------------


def sequence_extra_invariance(
    scn: Scenario, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """Extra-invariance test for a subspace of sequences over the group.

    ``basis`` columns span a subspace of complex sequences indexed by group
    elements (plain Euclidean inner product; index translation as the group
    action).  Requires invariance under base-subgroup translations.  The
    verdict is computed both by translating along the extra subgroup's
    generators and by masking discrete Fourier transforms with the block
    indicators; disagreement raises :class:`TheoremViolationError`.
    ``ValueError`` unless ``tol`` is a finite positive number.
    """
    group = scn.group
    n = group.order
    tol = checked_tol(tol)
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError(f"basis must have {n} rows")
    if not np.isfinite(basis).all():
        raise ValueError("basis must be finite")
    q = _block_cut(basis[None], np.arange(n)[None])[0]

    def shift(el, mat):
        return mat[group.indices(group.coords - el)]

    def resid(mat):
        if mat.shape[1] == 0:
            return 0.0
        return float(np.abs(mat - q @ (q.conj().T @ mat)).max())

    worst_base = max(resid(shift(g, q)) for g in _probes(scn.base))
    if worst_base > tol:
        raise InvarianceError(
            f"sequence subspace is not base-translation invariant (residual {worst_base:.3e})"
        )
    res_translate = max(resid(shift(g, q)) for g in _probes(scn.extra))
    spectra = _group_dft(group, q)  # [h] = sum_t pairing(-t, h) q[t]
    positions = dual_partition(scn).positions
    res_mask = 0.0
    for pos in range(scn.n_blocks):
        masked = _group_dft(group, spectra * (positions == pos)[:, None], inverse=True)
        res_mask = max(res_mask, resid(masked))
    ok_translate, ok_mask = res_translate <= tol, res_mask <= tol
    if ok_translate != ok_mask:
        raise TheoremViolationError(
            "sequence-space translation and mask tests disagree",
            details={"translation": res_translate, "mask": res_mask},
        )
    return ok_translate

