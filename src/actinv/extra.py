"""Extra invariance under the larger subgroup: partition, masks, checks.

The dual group splits into blocks indexed by the ``labels`` of the extra
subgroup's :class:`DualPartition` (coset representatives of
base-annihilator / extra-annihilator, its ``section``): the block of
label xi is

    block(xi) = { omega + xi + d : omega in dual_section, d in extra-annihilator }.

Masking full Zak values by a block's indicator defines an orthogonal
projection ``mask_apply`` on the function space.  The central result
implemented here: a base-invariant subspace is invariant under the whole
extra subgroup exactly when every masked image of it stays inside it, and
in that case the masked images are mutually orthogonal and sum to the
space.  Both checks decide it once, on the per-block leak read off one
batched SVD of the block rows of the space's fiber bases (:func:`_split`),
and nothing else: neither they nor a masked component
(:func:`masked_component`) build an n x n array, a frame or a translate.
Every other quantity reported, the translation residual included, is tied
to the leak by a bound the theorem gives; one outside its bound by more
than roundoff raises :class:`TheoremViolationError`.  Both sides read the
same fiber bases, so that exposes a fault in the partition rows, the
modulation rows or the per-block algebra, not in the transform; that is
guarded by the isometry criteria and the test suite's point-space
references (translated frames, mask images, n x n projectors).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TheoremViolationError
from .io import plain_value
from .scenario import DualPartition, Scenario, _probes
from .spaces import (
    DEFAULT_TOL,
    Subspace,
    _blocks,
    _kept,
    _packed,
    _probe_pass,
    _range_function,
    _residual,
    _top,
    checked_tol,
    require_base_invariant,
    require_scenario,
)
from .zak import zak_full, zak_full_inv

_SLACK = 1e-13  # roundoff allowed on top of every bound the theorem ties a report to


def dual_partition(scn: Scenario) -> DualPartition:
    """The dual partition of the scenario: the extra subgroup's entry of
    the verified partitions the scenario builds once per subgroup H
    containing the base (:meth:`Scenario.partition`), the base's one block
    included, all through the same guards.  Its ``section`` places each
    block label, and its ``rows`` are :meth:`Scenario.block_rows` of the
    extra subgroup."""
    return scn.partition(scn.extra)


def mask_apply(scn: Scenario, xi, f: np.ndarray):
    """Orthogonal projection onto functions whose full Zak support is xi's block."""
    part = dual_partition(scn)
    pos = part.section.position_of(xi)
    vals = zak_full(scn, f)
    vals[part.positions != pos] = 0.0
    return zak_full_inv(scn, vals)


def masked_component(scn: Scenario, space: Subspace, xi) -> Subspace:
    """The image of a base-invariant subspace under xi's block mask, read
    off the checks' block split (:func:`_split`) cut at ``DEFAULT_TOL``:
    the kept left singular vectors of xi's block rows, so its dimension is
    xi's ``component_dims`` entry at that ``tol``.  ``ValueError`` for
    another scenario, then ``InvarianceError`` at the base gate, the zero
    space for dimension 0, then ``KeyError`` for an unknown label."""
    require_scenario(scn, space)
    basis = require_base_invariant(space)
    if space.dim == 0:
        return Subspace.zero(scn)
    part = dual_partition(scn)
    pos = part.section.position_of(xi)
    a, _, _, _, kept = _split(scn, space, basis)
    only = kept & (np.arange(kept.shape[1]) == pos)[:, None]
    return Subspace._of_range(scn, _packed(a, only, part.rows))


def _split(scn: Scenario, space: Subspace, basis: np.ndarray, tol: float = DEFAULT_TOL):
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
    orthonormal or zero) is above 1/2, free of cancellation.  The masked
    unit vector ``a[w, b, :, i]`` lies ``off`` from the space, and block
    b's leak beta_b, its largest ``t * off``, is the norm of (I - Pi) P_b
    Pi, the parts it moves out being orthogonal; they are so only to
    roundoff, arbitrary for ``off`` below about sqrt(eps), so a sum of
    k of them is bounded by sqrt(k) times the largest.

    A direction is kept by the rank rule (:func:`actinv.spaces._kept`)
    with the floor sqrt 2 tol (``tol`` below 1/2).  A block leaking at
    most ``tol`` has each ``t`` at most 1/sqrt 2, with ``off >= 1/sqrt
    2`` so ``t <= sqrt 2 leak``, cut; or above, kept, with ``off < sqrt 2
    leak``.  So noise below ``tol`` moves no component dimension, and a
    passing block's inclusion residual (its largest kept ``off``) is at
    most sqrt 2 times its leak.  The factors are memoised once, the cut
    per ``tol``.
    Returns ``a``, ``t``, ``kv`` (``v`` with the directions not kept
    zeroed: the components' fibers are ``basis @ kv``), ``off``, ``kept``.
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
        memo = space._split = (a, t, vh.conj().swapaxes(2, 3), off.reshape(t.shape), {})
    cuts = memo[4]
    if tol not in cuts:
        a, t, v, off, _ = memo
        kept = _kept(t, floor=math.sqrt(2) * tol)
        cuts[tol] = (a, t, v * kept[:, :, None], off, kept)
    return cuts[tol]


def _component_law(space: Subspace, coeffs: np.ndarray) -> float:
    """Worst base/extra-invariance residual of the subspaces, one per block b,
    whose fiber w is spanned by ``basis[w] @ coeffs[w, b]`` (orthonormal or
    zero columns), ``basis`` being the space's range function.

    The subspaces are range functions, so a base probe moves none of them;
    the law reads the space's probe passes (:func:`actinv.spaces._probe_pass`)
    of the distinct extra probes outside the base, shared with the
    residuals, and is ``0.0`` when there are none.  A probe moves
    ``basis[w] @ x`` out by its part inside the space but outside the
    subspace, ``W = (I - x x^H) N x`` in coefficients on the basis, and by
    the space's own part moved out, whose squared norms are those of the
    pass's Gram matrix G.  The two are orthogonal, so the residual is the
    top singular value read off the k x k Gram matrix ``W^H W + x^H G x``
    per probe, fiber and block, all in one :func:`actinv.spaces._top`.
    Since the blocks' k add up to at most r, the stack holds at most as
    many entries per probe as the r x r Gram matrices of the pass.
    """
    scn = space.scenario
    probes = [g for g in dict.fromkeys(_probes(scn.extra)) if g not in scn.base]
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
        return plain_value(self)


def check_extra_invariance(
    scn: Scenario, space: Subspace, tol: float = DEFAULT_TOL
) -> ExtraInvarianceReport:
    """Test invariance under the extra subgroup off the range function.

    The one verdict: block b passes (``inclusion_ok``) when its leak
    beta_b (:func:`_split`) is at most ``tol``, and the space is
    extra-invariant when every block passes.  A block's component has its
    kept directions, its inclusion residual is their largest ``off``.  The
    translation residual tau (:func:`actinv.spaces.is_invariant`) must
    keep within its bounds from beta = max_b beta_b over the n_b blocks:

    * tau <= 2 (n_b - 1) sqrt(k) beta, k the directions per block: an
      extra element e acts on a fiber as D_e = sum_b chi_b(e) P_b, and
      sum_b (I - Pi) P_b Pi = 0;
    * beta <= (n_b - 1) tau: P_b is the chi_b-average of D_e over a section
      of extra/base, every element of which is a word of fewer than n_b
      probes, and a word leaks at most the sum of its letters' leaks, as
      (I - Pi) D_g D_h Pi = (I - Pi) D_g Pi D_h Pi + (I - Pi) D_g (I - Pi) D_h Pi.

    When the space is invariant, block b's component has fiber ``basis[w]
    @ kv[w, b]``, and the report carries the largest entry of ``sum_b V_b
    V_b^H - I`` per fiber (the components' projectors summed against the
    identity, in coefficients on the fiber basis) and the components' worst
    base/extra-invariance residual (:func:`_component_law`).  With iota the
    largest inclusion residual and r the basis width, kept directions of
    two blocks overlap by at most 2 iota, so the first is at most 2 r iota
    once they number the fiber's dimension; a probe moves a component's
    unit vector z only by its part (I - P_b) z, of norm at most sqrt(k)
    iota, so the second is at most 2 sqrt(k) iota.  A bound missed by more
    than ``_SLACK`` raises :class:`TheoremViolationError`.  The report is
    memoised per ``tol`` and, once ``tol`` and the scenario are checked,
    returned before the base gate.  ``ValueError`` unless ``tol`` is a
    positive number below 1/2 and the space belongs to ``scn``: a leak
    ``t * off`` with ``t ** 2 + off ** 2 <= 1`` is at most 1/2, so at 1/2
    every space would pass, and the structure laws' bounds hold only while
    the cut floor sqrt 2 tol stays below 1/sqrt 2.
    """
    tol = checked_tol(tol, below=0.5)
    require_scenario(scn, space)
    reports = vars(space).get("_reports")
    if reports is not None and tol in reports:
        return reports[tol]
    basis = _range_function(space, tol)
    _, t, kv, off, kept = _split(scn, space, basis, tol)
    leaks = (t * off).max(axis=(0, 2), initial=0.0).tolist()
    inc_ok = tuple(leak <= tol for leak in leaks)
    inc_res = (off * kept).max(axis=(0, 2), initial=0.0).tolist()
    res_translate = _residual(space, scn.extra)
    beta, steps, root = max(leaks), len(leaks) - 1, math.sqrt(t.shape[2])
    if res_translate > 2 * steps * root * beta + _SLACK or beta > steps * res_translate + _SLACK:
        raise TheoremViolationError(
            "translation test and mask-inclusion test disagree",
            details={"translation_residual": res_translate, "inclusion_residuals": inc_res},
        )
    deviation = comp_res = None
    if all(inc_ok):
        n_fibers, _, width = basis.shape
        summed = kv.swapaxes(1, 2).reshape(n_fibers, width, t[0].size)
        ident = np.eye(width) * basis.any(axis=1)[:, None, :]
        gap = summed @ summed.conj().swapaxes(1, 2) - ident
        deviation = float(np.abs(gap).max(initial=0.0))
        comp_res = _component_law(space, kv)
        iota = max(inc_res)
        if deviation > 2 * width * iota + _SLACK or comp_res > 2 * root * iota + _SLACK:
            raise TheoremViolationError(
                "components of an extra-invariant space fail their structure laws",
                details={"decomposition": deviation, "component_invariance": comp_res},
            )
    report = ExtraInvarianceReport(
        extra_invariant=all(inc_ok),
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
    rows = dual_partition(scn).rows[0]  # the zero label's block
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
        return plain_value(self)


def check_decomposable(
    scn: Scenario, space: Subspace, tol: float = DEFAULT_TOL
) -> DecomposabilityReport:
    """Fiberwise view of :func:`check_extra_invariance`: every fiber of the
    space splits along coordinate blocks.

    ``block_residual`` is the largest distance from its fiber space of a
    masked unit vector of a fiber, the largest leak of :func:`_split`, and
    ``decomposable`` the inner check's verdict, which decides on those
    leaks.  When it holds, the fibers of each component must equal the
    block-restricted fibers of the space: a projector gap on the block
    rows (:func:`_match_deviation`) above the square of the largest
    inclusion residual, plus ``_SLACK``, raises :class:`TheoremViolationError`.
    The inner check comes first and reads the report memoised for ``tol``;
    ``ValueError`` unless ``tol`` is a positive number below 1/2 and the
    space belongs to ``scn``.
    """
    ext = check_extra_invariance(scn, space, tol)
    basis = space._basis  # returned by the inner check's base gate
    _, t, _, off, _ = _split(scn, space, basis, tol)
    match_dev = None
    if ext.extra_invariant and space.dim:
        match_dev = _match_deviation(scn, space, basis, tol)
        if match_dev > max(ext.inclusion_residuals) ** 2 + _SLACK:
            raise TheoremViolationError(
                "masked-component fibers do not match block-restricted fibers",
                details={"component_match_deviation": match_dev},
            )
    return DecomposabilityReport(ext.extra_invariant, float((t * off).max(initial=0.0)), match_dev)


def _match_deviation(
    scn: Scenario, space: Subspace, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> float:
    """Largest entry of the gap between the projectors of the space's fibers
    on the block rows and of the components' fibers there, over every fiber
    and block.

    With ``basis[w][rows[b]] = a t v^H`` (:func:`_split`), the first is
    ``ak ak^H`` over the kept columns ``ak`` of ``a``, and the component's
    fiber on the block rows is ``comps = basis[w][rows[b]] @ kv[w, b]``,
    one batched product over every pair.  The gap ``ak ak^H - comps
    comps^H = a diag(kept (1 - t**2)) a^H`` is positive semidefinite, so
    its largest entry lies on its diagonal: the gap of the row energies of
    ``ak`` and ``comps``, at most the largest kept ``off ** 2``.  Each
    temporary is at most the basis's size.
    """
    a, _, kv, _, kept = _split(scn, space, basis, tol)
    comps = _blocks(basis, dual_partition(scn).rows) @ kv
    ak = a * kept[:, :, None, :]
    gap = (np.abs(ak) ** 2).sum(axis=3) - (np.abs(comps) ** 2).sum(axis=3)
    return float(np.abs(gap).max(initial=0.0))
