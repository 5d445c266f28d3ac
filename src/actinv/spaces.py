"""Subspaces of the weighted function space and invariance machinery.

A :class:`Subspace` stores an orthonormal frame for the weighted inner
product.  Numerical work happens in *weighted coordinates*: scaling a
function's entries by ``weights ** 0.5`` turns the weighted inner product
into the Euclidean one, so ranks, projectors and singular values can use
plain linear algebra.  Frames are stored unscaled (as functions on the
point set).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .actions import translate
from .errors import DegenerateGeneratorError, InvarianceError
from .groups import Subgroup, coset_section
from .scenario import Scenario
from .zak import zak_base, zak_full_inv, zak_stacked

RANK_TOL = 1e-10
DEFAULT_TOL = 1e-9


def orthonormal_columns(
    weights: np.ndarray,
    vectors: np.ndarray,
    tol: float = RANK_TOL,
    floor: float = 0.0,
) -> np.ndarray:
    """Orthonormal frame for the span of the columns, weighted inner product.

    The singular-value rank cut of :func:`_euclid_orth` in weighted
    coordinates: the columns are scaled by ``weights ** 0.5``, cut, and
    scaled back.
    """
    a = np.asarray(vectors, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    root = np.sqrt(weights)[:, None]
    return _euclid_orth(a * root, tol, floor) / root


def _euclid_orth(
    mat: np.ndarray, tol: float = RANK_TOL, floor: float = 0.0
) -> np.ndarray:
    """Orthonormal columns spanning the columns of ``mat`` (Euclidean).

    Deterministic: the left singular vectors, rank cut at ``tol`` relative
    to the largest singular value.  ``floor`` is an absolute threshold on
    the singular values on top of the relative one; derived inputs (mask
    images, projections of unit vectors) must pass it so that a matrix of
    pure roundoff noise ranks as zero instead of relative-to-itself.
    """
    if mat.shape[1] == 0:
        return mat.copy()
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= max(floor, 0.0):
        return np.zeros((mat.shape[0], 0), dtype=complex)
    return u[:, : int(np.sum(s > max(tol * s[0], floor)))]


@dataclass(frozen=True)
class Subspace:
    """A subspace given by a weighted-orthonormal frame of columns."""

    scenario: Scenario
    frame: np.ndarray  # (n_points, dim)

    @classmethod
    def span(
        cls,
        scn: Scenario,
        vectors: Sequence[np.ndarray] | np.ndarray,
        tol: float = RANK_TOL,
        floor: float = 0.0,
    ) -> "Subspace":
        mat = as_columns(scn, vectors)
        return cls(scn, orthonormal_columns(scn.action.weights, mat, tol, floor))

    @classmethod
    def zero(cls, scn: Scenario) -> "Subspace":
        return cls(scn, np.zeros((scn.action.n_points, 0), dtype=complex))

    @classmethod
    def from_fibers(
        cls, scn: Scenario, fibers: np.ndarray, vecs: np.ndarray
    ) -> "Subspace":
        """The subspace whose fibers are spanned by the given orthonormal vectors.

        Column j of ``vecs`` is a unit vector in weighted stacked coordinates
        at fiber position ``fibers[j]``; vectors at the same fiber must be
        mutually orthogonal.  Frame column j is the function whose stacked
        Zak values are that vector at that fiber and zero elsewhere, scaled
        by ``n_fibers ** 0.5`` to unit norm, so the frame is
        weighted-orthonormal.  One inverse transform builds every column.
        """
        if fibers.size == 0:
            return cls.zero(scn)
        stacked = np.zeros((scn.n_fibers, vecs.shape[0], fibers.size), dtype=complex)
        stacked[fibers, :, np.arange(fibers.size)] = vecs.T * np.sqrt(scn.n_fibers)
        return cls(scn, fibers_from_matrix(scn, stacked))

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def _root(self) -> np.ndarray:
        """``weights ** 0.5`` as a column, the scale into weighted coordinates."""
        return np.sqrt(self.scenario.action.weights)[:, None]

    @cached_property
    def _weighted_frame(self) -> np.ndarray:
        return self.frame * self._root

    @cached_property
    def _fibers(self) -> np.ndarray:
        """The frame's :func:`fiber_matrices`, read-only: the one memo of the
        space's Zak side, which the fiber bases and both checks read."""
        mats = fiber_matrices(self.scenario, self.frame)
        mats.flags.writeable = False
        return mats

    @cached_property
    def projector(self) -> np.ndarray:
        """Orthogonal projector in weighted coordinates (Hermitian, idempotent)."""
        q = self._weighted_frame
        return q @ q.conj().T

    def project(self, f: np.ndarray) -> np.ndarray:
        q = self._weighted_frame
        root = self._root[:, 0] if np.ndim(f) == 1 else self._root
        fw = np.asarray(f, dtype=complex) * root
        return (q @ (q.conj().T @ fw)) / root

    def residuals(self, mat: np.ndarray) -> np.ndarray:
        """Weighted norm of each column's part outside the subspace.

        One product ``q @ (q^H @ m)`` with the frame ``q`` and the columns
        ``m`` in weighted coordinates, whose Euclidean norms are the
        weighted ones.
        """
        mw = np.asarray(mat, dtype=complex) * self._root
        q = self._weighted_frame
        return np.linalg.norm(mw - q @ (q.conj().T @ mw), axis=0)

    def residual(self, f: np.ndarray) -> float:
        """Weighted norm of the part of f outside the subspace."""
        return float(self.residuals(np.asarray(f)[:, None])[0])

    def contains(self, f: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, self.scenario.action.norm(f))
        return self.residual(f) <= tol * scale


def as_columns(scn: Scenario, vectors, noun: str = "vector") -> np.ndarray:
    """The vectors as the columns of a finite complex matrix on the point set.

    Takes a matrix of columns, a single function as a 1-D array, or a
    sequence of functions; ``noun`` names them in the error messages.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim in (1, 2):
        mat = np.asarray(vectors if vectors.ndim == 2 else vectors[:, None], dtype=complex)
    else:
        vecs = [np.asarray(v, dtype=complex) for v in vectors]
        if not vecs:
            raise ValueError(f"need at least one {noun}")
        mat = np.column_stack(vecs)
    if mat.shape[0] != scn.action.n_points:
        raise ValueError(
            f"{noun}s have {mat.shape[0]} entries, space has {scn.action.n_points} points"
        )
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{noun}s must be finite")
    return mat


def span_invariant(
    scn: Scenario,
    generators: Sequence[np.ndarray] | np.ndarray,
    subgroup: Subgroup | None = None,
) -> Subspace:
    """Smallest subspace containing the generators and invariant under the subgroup.

    Defaults to the base subgroup; any subgroup containing the base will do
    (another one raises ``ValueError``).  Built on the range function, one
    Zak fiber at a time: a base translate of a function multiplies each of
    its fibers by a unimodular character value, so the space's fiber at
    omega is the span of the fibers there of the generators and of their
    translates by a section of ``subgroup / base`` (no translate at all when
    the subgroup is the base).  One batched SVD of those fiber matrices,
    cut by :func:`_fiber_cut`, gives an orthonormal basis of every fiber.
    The nonzero singular values are exactly those of the point-space matrix
    of every subgroup translate of every generator, so the cut, hence the
    dimension, is the one a rank cut of that matrix makes.  The frame is
    assembled from the kept vectors by :meth:`Subspace.from_fibers`.
    """
    base = scn.base
    if subgroup is None:
        subgroup = base
    if subgroup.group != scn.group or not base.issubset(subgroup):
        raise ValueError("an invariant span needs a subgroup containing the base")
    mat = as_columns(scn, generators)
    if mat.shape[1] == 0:
        return Subspace.zero(scn)
    moved = [mat] + [translate(scn.action, a, mat) for a in _section(scn, subgroup)[1:]]
    u, s, _ = np.linalg.svd(fiber_matrices(scn, np.hstack(moved)), full_matrices=False)
    fibers, idx = np.nonzero(_fiber_cut(s))
    return Subspace.from_fibers(scn, fibers, u[fibers, :, idx].T)


def _fiber_cut(s: np.ndarray) -> np.ndarray:
    """The rank cut of fiber bases: which of the singular values count.

    ``s`` holds the singular values of every fiber matrix of a space
    (n_fibers, k); those above ``RANK_TOL`` times the largest over all
    fibers count, so a fiber carrying nothing but roundoff is empty.
    """
    return s > RANK_TOL * np.max(s, initial=0.0)


def _section(scn: Scenario, subgroup: Subgroup) -> tuple:
    """Representatives of ``subgroup / base``, zero first, memoised on ``scn``."""
    if subgroup == scn.base:
        return (scn.group.zero,)
    memo = vars(scn).setdefault("_sections", {})
    if subgroup not in memo:
        section = coset_section(scn.group, scn.base, within=subgroup)
        memo[subgroup] = section.representatives
    return memo[subgroup]


def _probes(subgroup: Subgroup) -> tuple:
    """The translations that test invariance under the subgroup: its generators."""
    return tuple(subgroup.generators) or (subgroup.group.zero,)


def _probe_maps(space: Subspace, probes: tuple) -> tuple[float, np.ndarray, np.ndarray]:
    """The frame's translation maps for the probes, memoised on ``space``.

    In weighted coordinates, with ``q`` the frame and ``T`` a probe's
    translation: ``C = q^H T(q)`` (the part of the moved frame inside the
    space, in coefficients on the frame) and the residual Gram
    ``G = R^H R`` of ``R = T(q) - q C`` (the part outside), each of shape
    (probes, dim, dim), together with the worst residual
    ``max over probes of sqrt(lambda_max(G))``.  The frame is translated
    once per probe list (keyed by the probe tuple, i.e. the subgroup's
    generators), whatever asks for it.
    """
    memo = vars(space).setdefault("_invariance", {})
    maps = memo.get(probes)
    if maps is None:
        action = space.scenario.action
        moved = np.stack([translate(action, g, space.frame) for g in probes])
        moved = moved * space._root
        q = space._weighted_frame
        inside = q.conj().T @ moved  # (probes, dim, dim)
        resid = moved - q @ inside  # (probes, n_points, dim)
        gram = resid.conj().swapaxes(1, 2) @ resid
        top = np.max(np.linalg.eigvalsh(gram))
        maps = memo[probes] = (float(np.sqrt(max(top, 0.0))), inside, gram)
    return maps


def is_invariant(
    space: Subspace, subgroup: Subgroup, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Whether the subspace is preserved by every translation in the subgroup.

    Tests the subgroup's generators (enough, since the translations form a
    representation and generators reach everything).  Returns the verdict
    and the worst residual: the largest distance from the space of a
    translated unit vector of the space, maximised over the probes.  That
    is the largest singular value of each probe's residual block, computed
    as the root of the top eigenvalue of its dim x dim Gram matrix, so it
    does not depend on which orthonormal frame the space has.  It does not
    depend on ``tol`` either; it comes from :func:`_probe_maps`, memoised on
    ``space`` per probe list, so the checks that each ask for base
    invariance translate the frame once.
    """
    if space.dim == 0:
        return True, 0.0
    worst = _probe_maps(space, _probes(subgroup))[0]
    return worst <= tol, worst


def require_base_invariant(space: Subspace, tol: float = DEFAULT_TOL) -> None:
    ok, res = is_invariant(space, space.scenario.base, tol)
    if not ok:
        raise InvarianceError(
            f"subspace is not invariant under the base subgroup (residual {res:.3e})"
        )


# -- principal (single-generator) spaces --------------------------------------


@dataclass(frozen=True)
class FiberMultiplier:
    """Fiberwise ratio tying a member of a principal space to its generator.

    ``values[w]`` multiplies the generator's base Zak fiber at
    ``dual_section[w]``; ``support[w]`` flags fibers where the generator is
    (numerically) nonzero.
    """

    scenario: Scenario
    values: np.ndarray  # (n_fibers,)
    support: np.ndarray  # (n_fibers,) bool


def principal_membership(
    scn: Scenario,
    f: np.ndarray,
    psi: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> FiberMultiplier | None:
    """Decide membership of f in the base-invariant space generated by psi.

    Works fiberwise on base Zak values: f belongs iff its fiber is a scalar
    multiple of psi's fiber wherever psi's fiber is nonzero, and vanishes
    where psi's fiber does.  On success returns the multiplier: on each
    fiber where psi's fiber is (numerically) nonzero, the coefficient of the
    orthogonal projection of f's fiber onto psi's, elsewhere zero.  Returns
    None otherwise.  A (numerically) zero psi is rejected, and so is input
    of the wrong length or with non-finite entries (``ValueError``).
    """
    f, psi = (
        as_columns(scn, np.ravel(v), noun)[:, 0]
        for v, noun in ((f, "function"), (psi, "generator"))
    )
    zpsi = zak_base(scn, psi)
    zf = zak_base(scn, f)
    w = scn.tile_weights
    psi_sq = np.sum(np.abs(zpsi) ** 2 * w, axis=1)  # per-fiber squared norms
    peak = float(np.max(psi_sq))
    if peak <= 0.0 or scn.action.norm(psi) == 0.0:
        raise DegenerateGeneratorError("generator is zero")
    support = psi_sq > (RANK_TOL**2) * peak
    values = np.zeros(scn.n_fibers, dtype=complex)
    cross = np.sum(zf * np.conj(zpsi) * w, axis=1)
    values[support] = cross[support] / psi_sq[support]
    # residual of f against the fiberwise multiple, in the function norm
    diff = zf - values[:, None] * zpsi
    resid_sq = np.sum(np.abs(diff) ** 2 * w, axis=1)
    off = np.sum(np.abs(zf[~support]) ** 2 * w, axis=1) if np.any(~support) else 0.0
    total = float(np.sqrt((np.sum(resid_sq[support]) + np.sum(off)) / scn.n_fibers))
    scale = max(1.0, scn.action.norm(f))
    if total > tol * scale:
        return None
    return FiberMultiplier(scn, values, support)


# -- fiberwise structure of invariant spaces ----------------------------------


def fiber_matrices(scn: Scenario, vectors: np.ndarray) -> np.ndarray:
    """Per-fiber matrices of stacked Zak values in weighted coordinates.

    Shape (n_fibers, n_cosets * len(orbit_reps), n_vectors): column j of
    fiber w is the stacked Zak vector of ``vectors[:, j]`` at that fiber,
    with each orbit-representative slot scaled by ``rep_weight ** 0.5``.
    Euclidean norms per fiber then reproduce the weighted fiber norms.
    """
    vals = zak_stacked(scn, vectors)  # (w, k, c, d)
    root = np.sqrt(scn.rep_weights)
    if vals.ndim == 3:
        vals = vals[..., None]
    vals = vals * root[None, None, :, None]
    w, k, c, d = vals.shape
    return vals.reshape(w, k * c, d)


def fibers_from_matrix(scn: Scenario, fiber_cols: np.ndarray) -> np.ndarray:
    """Inverse of the weighted stacking: one function per fiber column set.

    ``fiber_cols`` has shape (n_fibers, n_cosets * len(orbit_reps), d); the
    result stacks d functions as columns, where function j has the given
    weighted fiber vectors (scaled back) as its stacked Zak transform.
    """
    w, _, d = fiber_cols.shape
    split = scn.dual_split
    # the stacked inverse with the weights folded in: one gather, one scaling
    full = fiber_cols.reshape(w, scn.n_cosets, -1, d)[split[:, 0], split[:, 1]]
    full *= np.sqrt(scn.n_cosets / scn.rep_weights)[:, None]
    return zak_full_inv(scn, full)


def length(space: Subspace) -> int:
    """Largest fiber dimension of a base-invariant subspace.

    Fiber ranks are cut by :func:`_fiber_cut`.  This is the least number of
    generators realizing the space; see :func:`fiber_generators` for an
    explicit realization.
    """
    require_base_invariant(space)
    if space.dim == 0:
        return 0
    svals = np.linalg.svd(space._fibers, compute_uv=False)
    return int(np.max(np.sum(_fiber_cut(svals), axis=1)))


def fiber_generators(space: Subspace) -> list[np.ndarray]:
    """``length(space)`` functions whose invariant span recovers the space.

    Built fiberwise: an orthonormal basis of every fiber is distributed
    across the generators (generator j takes the j-th basis vector of each
    fiber, where present), so the generators' fibers span every fiber of
    the space.  The bases come from one batched SVD of the fiber matrices,
    cut by :func:`_fiber_cut`; cut columns are zeroed.
    """
    require_base_invariant(space)
    scn = space.scenario
    if space.dim == 0:
        return []
    u, s, _ = np.linalg.svd(space._fibers, full_matrices=False)
    keep = _fiber_cut(s)
    width = int(np.max(np.sum(keep, axis=1)))
    gens = fibers_from_matrix(scn, (u * keep[:, None, :])[:, :, :width])
    return [gens[:, j] for j in range(width)]
