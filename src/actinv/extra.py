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
space.  Both sides of the equivalence are computed independently and a
disagreement raises :class:`TheoremViolationError`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .actions import translate
from .errors import InvarianceError, TheoremViolationError
from .groups import Element
from .scenario import Scenario
from .spaces import (
    DEFAULT_TOL,
    RANK_TOL,
    Subspace,
    _euclid_orth,
    fiber_matrices,
    fiber_singular_values,
    is_invariant,
    padded,
    require_base_invariant,
    span_invariant,
)
from .zak import _group_dft, unfold_orbits, zak_full, zak_full_inv


@dataclass(frozen=True)
class DualPartition:
    """The block partition of the dual group, one block per label."""

    scenario: Scenario
    labels: tuple[Element, ...]
    blocks: tuple[frozenset[Element], ...]
    masks: np.ndarray = field(repr=False)  # (n_blocks, group.order) bool

    def block_of(self, tau_hat) -> Element:
        """Label of the block containing the dual element."""
        el = self.scenario.group.reduce(tau_hat)
        for label, block in zip(self.labels, self.blocks):
            if el in block:
                return label
        raise KeyError(tau_hat)

    def as_dict(self) -> dict:
        return {
            "blocks": [
                {"label": list(label), "elements": [list(e) for e in sorted(block)]}
                for label, block in zip(self.labels, self.blocks)
            ]
        }


def dual_partition(scn: Scenario) -> DualPartition:
    """The dual partition of the scenario, built and verified once, then cached.

    The masks come from the scenario's index tables: a dual element
    ``omega[w] + a`` (``a`` in the base annihilator) lies in the block of
    ``a``'s label, ``coordinate_labels[dual_split[:, 1]]``.  They are checked
    against the definition, each block being the set-sum of the fiber
    labels, one block label, and the extra annihilator: every block has
    ``n_fibers * |extra-annihilator|`` elements and is invariant under
    adding extra-annihilator elements, and the defining set-sums are
    disjoint, cover the dual group and match the masks.
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
    if np.any(counts != size):
        pos = int(np.flatnonzero(counts != size)[0])
        raise TheoremViolationError(
            "dual partition block has the wrong size",
            details={"label": list(labels[pos]), "size": int(counts[pos])},
        )
    for d in scn.extra_annihilator.generators:
        moved = block[group.indices(group.coords + d)]
        if np.any(moved != block):
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
    if np.any(covered != 1):
        raise TheoremViolationError(
            "dual partition blocks do not tile the dual group",
            details={"covered": int(np.count_nonzero(covered)), "order": group.order},
        )
    if np.any(block[defined] != np.arange(len(labels))[:, None, None]):
        raise TheoremViolationError(
            "dual partition masks disagree with the block definition"
        )
    masks = block[None, :] == np.arange(len(labels))[:, None]
    masks.flags.writeable = False
    blocks = tuple(
        frozenset(group.elements[i] for i in np.flatnonzero(m)) for m in masks
    )
    return DualPartition(scn, tuple(labels), blocks, masks)


def mask_apply(scn: Scenario, xi, f: np.ndarray, part: DualPartition | None = None):
    """Orthogonal projection onto functions whose full Zak support is xi's block."""
    if part is None:
        part = dual_partition(scn)
    pos = scn.block_section.position_of(xi)
    vals = zak_full(scn, f)
    vals[~part.masks[pos]] = 0.0
    return zak_full_inv(scn, vals)


def masked_component(
    scn: Scenario,
    space: Subspace,
    xi,
    tol: float = RANK_TOL,
    part: DualPartition | None = None,
    _checked: bool = False,
) -> Subspace:
    """The image of a base-invariant subspace under the block mask.

    Memoised on ``space``, keyed by (block position, ``tol``): the checks of
    one space share a single :func:`mask_apply` and rank cut per block.
    """
    if not _checked:
        require_base_invariant(space)
    if space.dim == 0:
        return Subspace.zero(scn)
    memo = vars(space).setdefault("_masked_components", {})
    key = (scn.block_section.position_of(xi), tol)
    if key not in memo:
        masked = mask_apply(scn, xi, space.frame, part)
        # masks act on unit frame columns: anything below the absolute floor
        # is roundoff, not a direction of the image
        memo[key] = Subspace.span(scn, masked, tol, floor=tol)
    return memo[key]


@dataclass(frozen=True)
class ExtraInvarianceReport:
    """Outcome of the extra-invariance equivalence check."""

    extra_invariant: bool
    translation_residual: float  # worst residual of extra-subgroup translates
    inclusion_residuals: tuple[float, ...]  # per block label
    inclusion_ok: tuple[bool, ...]
    component_dims: tuple[int, ...]
    decomposition_deviation: float | None  # projector gap when invariant
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
    """Test invariance under the extra subgroup two independent ways.

    Side one translates the frame by the extra subgroup's generators and
    measures residuals.  Side two masks the space block by block and
    measures how far each masked image sticks out.  The two verdicts must
    agree (that is the theorem); if they do not, a
    :class:`TheoremViolationError` is raised with both residuals.

    When the space is extra-invariant, the report also carries the maximal
    deviation between the space's projector and the sum of the component
    projectors, and the worst base/extra-invariance residual among the
    components (all of which must be invariant too).
    """
    require_base_invariant(space, tol)
    part = dual_partition(scn)
    ok_translate, res_translate = is_invariant(space, scn.extra, tol)
    components = []
    inc_res = []
    for xi in part.labels:
        comp = masked_component(scn, space, xi, part=part, _checked=True)
        components.append(comp)
        inc_res.append(float(np.max(space.residuals(comp.frame), initial=0.0)))
    inc_ok = tuple(r <= tol for r in inc_res)
    ok_masks = all(inc_ok)
    if ok_translate != ok_masks:
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
        total = sum(c.projector for c in components)
        deviation = float(np.max(np.abs(space.projector - total)))
        comp_res = 0.0
        for comp in components:
            for sub in (scn.base, scn.extra):
                _, r = is_invariant(comp, sub, tol)
                comp_res = max(comp_res, r)
        if deviation > tol or comp_res > tol:
            raise TheoremViolationError(
                "components of an extra-invariant space fail their structure laws",
                details={"decomposition": deviation, "component_invariance": comp_res},
            )
    return ExtraInvarianceReport(
        extra_invariant=ok_translate,
        translation_residual=res_translate,
        inclusion_residuals=tuple(inc_res),
        inclusion_ok=inc_ok,
        component_dims=tuple(c.dim for c in components),
        decomposition_deviation=deviation,
        component_invariance_residual=comp_res,
    )


def canonical_extra_invariant(scn: Scenario, tol: float = RANK_TOL) -> Subspace:
    """A principal base-invariant space that is automatically extra-invariant.

    The generator is the inverse full Zak transform of the indicator of the
    identity-label block (constant across orbit representatives).  The
    construction makes the identity-label component the whole space and
    every other component zero.
    """
    part = dual_partition(scn)
    pos = scn.block_section.position_of(scn.group.zero)
    vals = np.repeat(
        part.masks[pos].astype(complex)[:, None], len(scn.tiling.orbit_reps), axis=1
    )
    gen = zak_full_inv(scn, vals)
    return span_invariant(scn, gen[:, None], scn.base, tol)


# -- fiberwise (decomposability) formulation ----------------------------------


@dataclass(frozen=True)
class DecomposabilityReport:
    decomposable: bool
    block_residual: float  # worst fiber/block projection residual
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
    space.  This must agree with :func:`check_extra_invariance`; it also
    verifies that the fibers of each masked component equal the
    block-restricted fibers of the space.
    """
    require_base_invariant(space, tol)
    part = dual_partition(scn)
    blocks = stacked_block_masks(scn)
    worst = 0.0
    if space.dim:
        mats = fiber_matrices(scn, space.frame)
        top = _spectral_top(mats)
        fiber_bases = [_euclid_orth(m, floor=RANK_TOL * top) for m in mats]
        # (n_fibers, kc, r_max): one batched product per block, not per fiber
        bases = padded(fiber_bases)
        adjoint = bases.conj().transpose(0, 2, 1)
        for keep in blocks:
            masked = bases * keep[:, None]
            resid = masked - bases @ (adjoint @ masked)
            worst = max(worst, float(np.max(np.abs(resid), initial=0.0)))
    decomposable = worst <= tol
    ext = check_extra_invariance(scn, space, tol)
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
        match_dev = 0.0
        for keep, xi in zip(blocks, part.labels):
            comp = masked_component(scn, space, xi, part=part, _checked=True)
            comp_mats = (
                fiber_matrices(scn, comp.frame)
                if comp.dim
                else np.zeros((scn.n_fibers, blocks.shape[1], 0), dtype=complex)
            )
            comp_top = _spectral_top(comp_mats)
            for q, comp_mat in zip(fiber_bases, comp_mats):
                # basis vectors are unit, so roundoff sits far below RANK_TOL
                pa = _euclid_projector(q * keep[:, None], floor=RANK_TOL)
                pb = _euclid_projector(comp_mat, floor=RANK_TOL * max(comp_top, 1.0))
                match_dev = max(match_dev, float(np.max(np.abs(pa - pb))))
        if match_dev > tol:
            raise TheoremViolationError(
                "masked-component fibers do not match block-restricted fibers",
                details={"component_match_deviation": match_dev},
            )
    return DecomposabilityReport(decomposable, worst, match_dev)


def _spectral_top(mats: np.ndarray) -> float:
    """Largest singular value across a stack of (possibly empty) matrices."""
    return float(np.max(fiber_singular_values(mats), initial=0.0))


def stacked_block_masks(scn: Scenario) -> np.ndarray:
    """Row masks of the blocks in weighted stacked coordinates.

    Shape (n_blocks, n_cosets * len(orbit_reps)), in block-position order:
    a stacked row belongs to the block of its annihilator coordinate.
    """
    rows = np.repeat(scn.coordinate_labels, len(scn.tiling.orbit_reps))
    return rows[None, :] == np.arange(scn.n_blocks)[:, None]


def _euclid_projector(mat: np.ndarray, floor: float = 0.0) -> np.ndarray:
    q = _euclid_orth(mat, floor=floor)
    return q @ q.conj().T


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
    """
    group = scn.group
    n = group.order
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError(f"basis must have {n} rows")
    q = _euclid_orth(basis)

    def shift(el, mat):
        return mat[group.indices(group.coords - el)]

    def resid(mat):
        if mat.shape[1] == 0:
            return 0.0
        return float(np.max(np.abs(mat - q @ (q.conj().T @ mat))))

    base_probes = scn.base.generators if scn.base.generators else [group.zero]
    worst_base = max(resid(shift(g, q)) for g in base_probes)
    if worst_base > tol:
        raise InvarianceError(
            f"sequence subspace is not base-translation invariant (residual {worst_base:.3e})"
        )
    extra_probes = scn.extra.generators if scn.extra.generators else [group.zero]
    res_translate = max(resid(shift(g, q)) for g in extra_probes)
    spectra = _group_dft(group, q)  # [h] = sum_t pairing(-t, h) q[t]
    part = dual_partition(scn)
    res_mask = 0.0
    for pos in range(scn.n_blocks):
        masked = _group_dft(group, spectra * part.masks[pos][:, None], inverse=True)
        res_mask = max(res_mask, resid(masked))
    ok_translate, ok_mask = res_translate <= tol, res_mask <= tol
    if ok_translate != ok_mask:
        raise TheoremViolationError(
            "sequence-space translation and mask tests disagree",
            details={"translation": res_translate, "mask": res_mask},
        )
    return ok_translate


def range_function_consistency(
    scn: Scenario,
    space: Subspace,
    generators: Sequence[np.ndarray] | None = None,
    tol: float = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    samples: int = 3,
) -> bool:
    """Check the fiberized picture of the space at every orbit representative.

    The range function at a representative x is the span, inside sequences
    over the group, of the unfolded orbit samples of all base translates of
    the generators (defaults: the frame columns).  Checks performed:

    * random members of the space unfold into the range function at every x;
    * when the space is extra-invariant, every range function passes
      :func:`sequence_extra_invariance`.
    """
    require_base_invariant(space, tol)
    if space.dim == 0:
        return True
    if generators is None:
        gens = space.frame
    else:
        gens = np.column_stack([np.asarray(g, dtype=complex) for g in generators])
    rng = rng or np.random.default_rng(0)
    translates = np.hstack(
        [translate(scn.action, g, gens) for g in scn.base.elements]
    )
    unfolded = unfold_orbits(scn, translates)  # (reps, group, d)
    ext = check_extra_invariance(scn, space, tol)
    ok = True
    for c in range(len(scn.tiling.orbit_reps)):
        w = unfolded[c]
        q = _euclid_orth(w)
        for _ in range(samples):
            coeff = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            member = space.frame @ coeff
            phi = unfold_orbits(scn, member)[c]
            resid = phi - q @ (q.conj().T @ phi)
            scale = max(1.0, float(np.linalg.norm(phi)))
            if float(np.linalg.norm(resid)) > tol * scale:
                ok = False
        if ext.extra_invariant:
            ok = ok and sequence_extra_invariance(scn, w, tol)
    return ok
