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

The translation side works in point space.  The mask side never leaves the
Zak domain: the stacked Zak transform is an isometry, so the masked image of
a space is spanned by the block rows of its fiber matrices, and one batched
SVD of the block-row stacks yields every component at once (its dimension,
its directions as coefficient vectors on the frame, and the energy each
direction keeps outside its block).  The fiberwise check works on block rows
of the same fiber matrices, memoised on the space; no check builds an n x n
array, and a check pair translates nothing but the frame, once per probe.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvarianceError, TheoremViolationError
from .groups import Element
from .scenario import Scenario
from .spaces import (
    DEFAULT_TOL,
    RANK_TOL,
    Subspace,
    _euclid_orth,
    _fiber_cut,
    _probe_maps,
    _probes,
    is_invariant,
    require_base_invariant,
    span_invariant,
)
from .zak import _group_dft, zak_full, zak_full_inv


@dataclass(frozen=True)
class DualPartition:
    """The block partition of the dual group, one block per label.

    ``positions[i]`` is the block position (index into ``labels``) of dual
    element ``i``, and ``rows[b]`` lists the weighted stacked rows of block
    b (:func:`stacked_block_rows`).  Both are read-only and verified.
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
    rows of a block are checked to hold its elements at every fiber.
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
    position = np.arange(len(labels))[:, None]
    if np.any(block[defined] != position[:, :, None]):
        raise TheoremViolationError(
            "dual partition positions disagree with the block definition"
        )
    # stacked coordinate k of fiber w holds omega[w] + annihilator_order[k]
    k = np.argsort(block[scn.dual_unsplit[0]], kind="stable").reshape(len(labels), -1)
    if np.any(block[scn.dual_unsplit[:, k]] != position):
        raise TheoremViolationError(
            "stacked block rows disagree with the dual partition"
        )
    reps = len(scn.tiling.orbit_reps)
    rows = (k[:, :, None] * reps + np.arange(reps)).reshape(len(labels), -1)
    block.flags.writeable = False
    rows.flags.writeable = False
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
    require_base_invariant(space)
    if space.dim == 0:
        return Subspace.zero(scn)
    masked = mask_apply(scn, xi, space.frame)
    # masks act on unit frame columns: anything below the absolute floor
    # is roundoff, not a direction of the image
    return Subspace.span(scn, masked, floor=RANK_TOL)


def _block_chunks(n_blocks: int, per_block: int, budget: int) -> list[slice]:
    """Runs of consecutive blocks whose temporaries stay within ``budget`` entries.

    A block's temporary has ``per_block`` entries; a run holds as many
    blocks as fit, and at least one.
    """
    step = max(1, budget // max(per_block, 1))
    return [slice(lo, lo + step) for lo in range(0, n_blocks, step)]


def _mask_side(scn: Scenario, space: Subspace):
    """Singular data of the space's block rows, memoised on ``space``.

    The fiber matrices (``space._fibers``), divided by ``n_fibers ** 0.5``,
    have orthonormal columns (the stacked transform is an isometry).  One
    batched SVD of each block's rows, stacked across all fibers, gives per
    block the singular values ``s`` and the right singular vectors as the
    rows of ``vh`` (n_blocks, k, dim).  The unit direction ``frame @ v``
    keeps norm ``s`` in the block and ``(1 - s**2) ** 0.5`` outside it,
    which is also the distance from the space of the unit masked image
    along that direction.  ``worst`` is that outside norm for each block's
    smallest singular value above ``RANK_TOL`` (0 when there is none),
    taken from the fiber matrices themselves, without the cancellation.
    The scale is taken off ``s`` and ``worst``, not off a copy of the
    matrices, and the blocks go through the product in runs, so that no
    temporary is larger than the fiber matrices.
    """
    memo = vars(space).get("_mask_side")
    if memo is None:
        rows = dual_partition(scn).rows
        n_blocks, size = rows.shape
        mats = space._fibers
        n_fibers, _, dim = mats.shape
        scale = np.sqrt(n_fibers)
        # block b's rows of every fiber, (n_blocks, size * n_fibers, dim)
        stack = mats.swapaxes(0, 1)[rows].reshape(n_blocks, size * n_fibers, dim)
        if size * n_fibers > dim:
            # only s and vh are needed: the R factor of a tall stack has the
            # same singular values and right singular vectors, at less cost
            stack = np.linalg.qr(stack, mode="r")
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        s /= scale
        count = np.sum(s > RANK_TOL, axis=1)
        worst = np.zeros(n_blocks)
        if dim:
            v = vh[np.arange(n_blocks), np.maximum(count - 1, 0)].conj()
            flat = mats.reshape(-1, dim)
            for run in _block_chunks(n_blocks, len(flat), mats.size):
                # each block's worst direction, with the block's own rows zeroed
                off = (flat @ v[run].T).reshape(n_fibers, mats.shape[1], -1)
                off[:, rows[run], np.arange(off.shape[2])[:, None]] = 0.0
                worst[run] = np.linalg.norm(off, axis=(0, 1)) / scale
            worst *= count > 0
        memo = vars(space)["_mask_side"] = (s, vh, worst)
    return memo


def _component_residual(scn: Scenario, space: Subspace) -> float:
    """Worst base/extra-invariance residual among the block components.

    Block b's component is spanned by ``frame @ V_b`` (its kept right
    singular vectors from :func:`_mask_side`, conjugated); its residual
    comes from the frame's probe maps (:func:`_within_residual`), with no
    translate beyond the frame's own.  Blocks go one at a time; the result
    is memoised on ``space``.
    """
    worst = vars(space).get("_component_law")
    if worst is None:
        worst = 0.0
        if space.dim:
            s, vh, _ = _mask_side(scn, space)
            kept = s > RANK_TOL
            maps = [_probe_maps(space, _probes(sub)) for sub in (scn.base, scn.extra)]
            inside = np.concatenate([m[1] for m in maps])
            gram = np.concatenate([m[2] for m in maps])
            for b in range(len(vh)):
                v = vh[b, kept[b]].conj().T  # (dim, k)
                worst = max(worst, _within_residual(inside, gram, v))
        vars(space)["_component_law"] = worst
    return worst


def _within_residual(inside: np.ndarray, gram: np.ndarray, v: np.ndarray) -> float:
    """Worst residual of the subspace ``frame @ v`` under the frame's probes.

    ``v`` (dim, k) has orthonormal columns; ``inside`` and ``gram`` are the
    frame's maps ``C`` and ``G`` (:func:`_probe_maps`).  A probe moves the
    unit vector ``frame @ v x`` to ``frame @ C v x`` plus a part outside the
    space, so its distance from ``frame @ v`` is the norm of
    ``E x + R v x`` with ``E = (I - v v^H) C v``, two mutually orthogonal
    parts.  The worst one is ``sqrt(lambda_max(v^H G v + E^H E))``, the
    largest over the probes: exact and free of cancellation.
    """
    if not v.shape[1]:
        return 0.0
    cv = inside @ v
    e = cv - v @ (v.conj().T @ cv)
    law = v.conj().T @ (gram @ v) + e.conj().swapaxes(1, 2) @ e
    return float(np.sqrt(max(np.max(np.linalg.eigvalsh(law)), 0.0)))


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
    """Test invariance under the extra subgroup two independent ways.

    Side one translates the frame by the extra subgroup's generators and
    measures residuals in point space.  Side two masks the space's Zak
    values block by block: a block's component dimension is the number of
    singular values of its rows above ``RANK_TOL``, and its inclusion
    residual is the distance from the space of the worst unit vector of the
    masked image, which does not depend on a choice of basis.  The two
    verdicts must agree (that is the theorem); if they do not, a
    :class:`TheoremViolationError` is raised with both residuals.

    When the space is extra-invariant, the component of block b is spanned
    by ``frame @ v`` over its kept right singular vectors v.  The report
    then also carries the largest entry of ``sum_b V_b V_b^H - I`` (the
    components' projectors summed, in coefficients on the frame, against
    the identity) and the worst base/extra-invariance residual among the
    components (all of which must be invariant too), read off the frame's
    translation maps (:func:`_component_residual`).
    """
    require_base_invariant(space, tol)
    ok_translate, res_translate = is_invariant(space, scn.extra, tol)
    s, vh, worst = _mask_side(scn, space)
    kept = s > RANK_TOL  # the absolute floor: frame directions are unit
    inc_res = [float(r) for r in worst]
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
        coeffs = vh[kept]  # (sum of component dims, dim), conjugated directions
        gram = coeffs.conj().T @ coeffs
        deviation = float(np.max(np.abs(gram - np.eye(space.dim)), initial=0.0))
        comp_res = _component_residual(scn, space)
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
        component_dims=tuple(int(k) for k in np.sum(kept, axis=1)),
        decomposition_deviation=deviation,
        component_invariance_residual=comp_res,
    )


def canonical_extra_invariant(scn: Scenario) -> Subspace:
    """A principal base-invariant space that is automatically extra-invariant.

    The generator is the inverse full Zak transform of the indicator of the
    identity-label block (constant across orbit representatives).  The
    construction makes the identity-label component the whole space and
    every other component zero.
    """
    pos = scn.block_section.position_of(scn.group.zero)
    inside = (dual_partition(scn).positions == pos).astype(complex)
    gen = zak_full_inv(scn, np.repeat(inside[:, None], len(scn.tiling.orbit_reps), axis=1))
    return span_invariant(scn, gen[:, None], scn.base)


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
    space.  The fiber bases come from one batched SVD of the frame's fiber
    matrices (the memo the mask side reads too), and the block rows of all
    bases from one more;
    ``block_residual`` is the largest distance from its fiber space of a
    masked unit vector of a fiber.  This must agree with
    :func:`check_extra_invariance`; it also verifies that the fibers of
    each masked component equal the block-restricted fibers of the space,
    comparing the two projectors on the block rows.
    """
    require_base_invariant(space, tol)
    rows = dual_partition(scn).rows
    n_blocks, size = rows.shape
    worst = 0.0
    if space.dim:
        mats = space._fibers
        u, s, _ = np.linalg.svd(mats, full_matrices=False)
        # orthonormal fiber bases; cut columns are zeroed, which leaves every
        # projector and masked singular value unchanged
        q = u * _fiber_cut(s)[:, None, :]
        # per fiber and block, the block rows of the basis: q[rows] = a t wh
        a, t, wh = np.linalg.svd(q[:, rows], full_matrices=False)
        # the masked unit direction q w lies t * |q w off the block| from the
        # fiber space: t * (1 - t**2) ** 0.5 without the cancellation
        per_block = scn.n_fibers * q.shape[1] * t.shape[-1]
        for run in _block_chunks(n_blocks, per_block, mats.size):
            # (n_fibers, blocks in the run, rows, k)
            off = q[:, None] @ wh[:, run].conj().swapaxes(-1, -2)
            off[:, np.arange(off.shape[1])[:, None], rows[run]] = 0.0
            worst = max(worst, float(np.max(t[:, run] * np.linalg.norm(off, axis=2))))
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
        # the components' fibers are linear in the frame: fibers @ v per block
        ms, mvh, _ = _mask_side(scn, space)
        comp = mvh.conj().swapaxes(1, 2) * (ms > RANK_TOL)[:, None, :]
        cu, cs, _ = np.linalg.svd(mats[:, rows] @ comp, full_matrices=False)
        top = np.maximum(np.max(cs, axis=(0, 2), initial=0.0), 1.0)[:, None]
        # both projectors live on the block rows, where the masked fibers sit;
        # masked basis vectors have unit scale, so roundoff sits far below RANK_TOL
        match_dev = 0.0
        for run in _block_chunks(n_blocks, scn.n_fibers * size * size, mats.size):
            gap = _projectors(a[:, run], t[:, run] > RANK_TOL) - _projectors(
                cu[:, run], cs[:, run] > RANK_TOL * top[run]
            )
            match_dev = max(match_dev, float(np.max(np.abs(gap))))
        if match_dev > tol:
            raise TheoremViolationError(
                "masked-component fibers do not match block-restricted fibers",
                details={"component_match_deviation": match_dev},
            )
    return DecomposabilityReport(decomposable, worst, match_dev)


def _projectors(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Projectors onto the kept columns of a stack of orthonormal columns."""
    v = u * keep[..., None, :]
    return v @ v.conj().swapaxes(-1, -2)


def stacked_block_rows(scn: Scenario) -> np.ndarray:
    """Weighted stacked rows of each block, shape (n_blocks, block rows).

    In block-position order, each block's rows increasing: a stacked row
    ``k * len(orbit_reps) + c`` belongs to the block of its annihilator
    coordinate k.  Read off the verified :func:`dual_partition`.
    """
    return dual_partition(scn).rows


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

