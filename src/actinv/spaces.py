"""Subspaces of the weighted function space and invariance machinery.

A :class:`Subspace` is held by a weighted-orthonormal frame or, when it is
base-invariant, by its range function: one orthonormal basis per Zak fiber
in weighted stacked coordinates (:func:`fiber_matrices`), as one
zero-padded (n_fibers, rows, r_max) array.  The fiber builders produce the
range function and assemble the frame only when it is read; a frame-given
space gets one at the base gate (:func:`require_base_invariant`).
A translation acts on stacked Zak values as a modulation of their rows
(:meth:`Scenario.modulations`), so no space is translated in point space.
A base translation leaves every fiber basis where it is; a frame-given
space is probed, until its base gate, on its whole stacked frame.  A space
with a range function makes one probe pass per probe outside the base
(:func:`_probe_pass`), which every reader of it shares.  Every range
function is one rank cut along the blocks of a subgroup containing the
base (:func:`_block_cut`), the base itself being one block.

Numerical work happens in *weighted coordinates*: scaling a function's
entries by ``weights ** 0.5`` turns the weighted inner product into the
Euclidean one, so ranks and singular values can use plain linear algebra.
Frames are stored unscaled (as functions on the point set).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import DegenerateGeneratorError, InvarianceError
from .groups import Subgroup
from .scenario import Scenario, _probes
from .zak import _checked, _unstacked, _zak_stacked

RANK_TOL = 1e-10
DEFAULT_TOL = 1e-9


def checked_tol(tol) -> float:
    """``tol`` as a float; ``ValueError`` unless it is a finite positive number.

    The boundary rule of every public function taking a tolerance: a NaN
    would pass every ``<=`` test as false and every ``>`` test as false,
    so a verdict read against it would be arbitrary.  ``bool`` is refused
    although it is an ``int``.
    """
    number = type(tol) is float or (isinstance(tol, Real) and not isinstance(tol, bool))
    if not (number and 0.0 < tol < math.inf):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    return float(tol)


def orthonormal_columns(
    weights: np.ndarray, vectors: np.ndarray, *, floor: float = 0.0
) -> np.ndarray:
    """Orthonormal frame for the span of the columns, weighted inner product.

    The rank cut of :func:`_block_cut` in weighted coordinates: the columns
    are scaled by ``weights ** 0.5``, cut as a single fiber, and scaled
    back.  ``floor`` is an absolute threshold on the singular values on top
    of the relative one; derived inputs (mask images, projections of unit
    vectors) must pass it so that a matrix of pure roundoff noise ranks as
    zero instead of relative-to-itself.
    """
    a = np.asarray(vectors, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    root = np.sqrt(weights)[:, None]
    return _block_cut((a * root)[None], np.arange(len(a))[None], floor=floor)[0] / root


class Subspace:
    """A subspace given by a weighted-orthonormal frame of columns.

    A fiber-built space (:meth:`from_fibers`) is given by its range
    function instead, and assembles its frame on first access.
    """

    def __init__(self, scenario: Scenario, frame: np.ndarray):
        n, frame = scenario.action.n_points, np.asarray(frame)
        if frame.ndim != 2 or len(frame) != n:
            raise ValueError(f"frame must have shape ({n}, dim), got {frame.shape}")
        self.scenario = scenario
        self.frame = _checked(frame, "frame entries")

    @classmethod
    def span(
        cls,
        scn: Scenario,
        vectors: Sequence[np.ndarray] | np.ndarray,
        *,
        floor: float = 0.0,
    ) -> "Subspace":
        mat = as_columns(scn, vectors)
        return cls(scn, orthonormal_columns(scn.action.weights, mat, floor=floor))

    @classmethod
    def zero(cls, scn: Scenario) -> "Subspace":
        return cls(scn, np.zeros((scn.action.n_points, 0), dtype=complex))

    @classmethod
    def from_fibers(cls, scn: Scenario, basis: np.ndarray) -> "Subspace":
        """The base-invariant subspace with the given range function.

        ``basis[w]`` (rows, r_max) holds orthonormal columns in weighted
        stacked coordinates spanning fiber w, then zero columns.  The frame
        is assembled on first access: column j is the function whose stacked
        Zak values are the j-th nonzero column, fiber by fiber, at its fiber
        and zero elsewhere, scaled by ``n_fibers ** 0.5`` to unit norm, so
        the frame is weighted-orthonormal.  One inverse transform builds it.
        ``ValueError`` unless ``basis`` has that shape and is finite: the
        boundary check of a caller's range function.  The library's own
        builders (:func:`span_invariant`, the canonical space, the
        approximation fit) make theirs from checked input and skip it.
        """
        rows, basis = scn.n_cosets * len(scn.tiling.orbit_reps), np.asarray(basis)
        if basis.ndim != 3 or basis.shape[:2] != (scn.n_fibers, rows):
            raise ValueError(
                f"fiber bases must have shape ({scn.n_fibers}, {rows}, r_max), got {basis.shape}"
            )
        return cls._of_range(scn, _checked(basis, "fiber bases"))

    @classmethod
    def _of_range(cls, scn: Scenario, basis: np.ndarray) -> "Subspace":
        """The space of a range function the library built from checked
        input, a C-contiguous complex array shaped as :meth:`from_fibers`
        asks, taken as it is."""
        space = cls.__new__(cls)
        space.scenario, space._basis = scn, basis
        return space

    @cached_property
    def frame(self) -> np.ndarray:
        scn, (fibers, slot) = self.scenario, self._columns
        stacked = np.zeros((scn.n_fibers, self._basis.shape[1], fibers.size), dtype=complex)
        cols = self._basis[fibers, :, slot]
        stacked[fibers, :, np.arange(fibers.size)] = cols * np.sqrt(scn.n_fibers)
        return fibers_from_matrix(scn, stacked)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Fiber and slot of each frame column of a fiber-built space."""
        return np.nonzero(self._basis.any(axis=1))

    @property
    def dim(self) -> int:
        return self.frame.shape[1] if "frame" in vars(self) else self._columns[0].size

    @cached_property
    def _root(self) -> np.ndarray:
        """``weights ** 0.5`` as a column, the scale into weighted coordinates."""
        return np.sqrt(self.scenario.action.weights)[:, None]

    @cached_property
    def _weighted_frame(self) -> np.ndarray:
        return self.frame * self._root

    def project(self, f: np.ndarray) -> np.ndarray:
        q = self._weighted_frame
        root = self._root[:, 0] if np.ndim(f) == 1 else self._root
        fw = np.asarray(f, dtype=complex) * root
        return (q @ (q.conj().T @ fw)) / root

    def residuals(self, mat: np.ndarray) -> np.ndarray:
        """Weighted norm of each column's part outside the subspace.

        One product ``q @ (q^H @ m)`` with the frame ``q`` and the columns
        ``m`` in weighted coordinates, whose Euclidean norms are the
        weighted ones; one that overflows reads ``inf``, with no warning.
        """
        mw = np.asarray(mat, dtype=complex) * self._root
        q = self._weighted_frame
        with np.errstate(over="ignore"):
            return np.linalg.norm(mw - q @ (q.conj().T @ mw), axis=0)

    def residual(self, f: np.ndarray) -> float:
        """Weighted norm of the part of finite f outside the subspace (:func:`_finite`)."""
        col = as_columns(self.scenario, np.ravel(f), "function")
        return _finite(float(self.residuals(col)[0]), "function", "residual")

    def contains(self, f: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        tol = checked_tol(tol)
        return self.residual(f) <= tol * max(1.0, _norm(self.scenario, f, "function"))


def _finite(value: float, subject: str, what: str) -> float:
    """``value`` if finite; ``ValueError`` if a norm, residual or sum of squares
    of finite input overflowed, which ``inf <= tol * inf`` would pass."""
    if not math.isfinite(value):
        raise ValueError(f"{subject} too large: the {what} overflows the float range")
    return value


def _norm(scn: Scenario, f: np.ndarray, subject: str) -> float:
    with np.errstate(over="ignore"):
        return _finite(scn.action.norm(f), subject, "norm")


def as_columns(scn: Scenario, vectors, noun: str = "vector") -> np.ndarray:
    """The vectors as the columns of a finite complex matrix on the point set.

    Takes a matrix of columns, a single function as a 1-D array, or a
    sequence of 1-D functions; ``noun`` names them in the error messages.
    An array of another rank, or a sequence item that is not 1-D, is
    refused (``ValueError``), not reshaped into columns.  The one
    finiteness pass over the vectors: every reader downstream takes them
    as checked.
    """
    if isinstance(vectors, (np.ndarray, np.generic)):
        if vectors.ndim not in (1, 2):
            raise ValueError(
                f"{noun}s must be a 1-D function or a matrix of columns, got shape {vectors.shape}"
            )
        mat = np.asarray(vectors if vectors.ndim == 2 else vectors[:, None], dtype=complex)
    else:
        vecs = [np.asarray(v, dtype=complex) for v in vectors]
        if not vecs:
            raise ValueError(f"need at least one {noun}")
        shapes = [v.shape for v in vecs if v.ndim != 1]
        if shapes:
            raise ValueError(f"each {noun} must be 1-D, got shape {shapes[0]}")
        mat = np.column_stack(vecs)
    if mat.shape[0] != scn.action.n_points:
        raise ValueError(
            f"{noun}s have {mat.shape[0]} entries, space has {scn.action.n_points} points"
        )
    if not np.isfinite(mat).all():
        raise ValueError(f"{noun}s must be finite")
    return mat


def span_invariant(
    scn: Scenario,
    generators: Sequence[np.ndarray] | np.ndarray,
    subgroup: Subgroup | None = None,
) -> Subspace:
    """Smallest subspace containing the generators and invariant under the subgroup.

    Defaults to the base subgroup; any subgroup H containing the base will
    do (another one raises ``ValueError``).  Built on the range function,
    one Zak fiber at a time, from the generators' fibers, transformed once.
    A base-invariant space is H-invariant exactly when each of its fibers
    splits along the blocks of H (:meth:`Scenario.block_rows`), so the
    space's fiber at omega is the direct sum of the spans of the
    generators' block rows there.  One batched SVD of those block rows,
    (n_fibers, n_blocks, rows per block, k), cut once by :func:`_kept`
    over every fiber and block, gives an orthonormal basis of every fiber:
    the kept left singular vectors, each put back in its block's rows and
    packed per fiber, as wide as the widest fiber (:func:`_block_cut`).
    The base is the one-block case, with no gather (:func:`_blocks`).  An
    element e of H multiplies block b of fiber w by
    ``pairing(e, omega[w]) * chi_b(e)``, the ``chi_b`` being distinct
    characters of ``H / base``; characters are orthogonal, so the nonzero
    singular values of the point-space matrix of every H-translate of
    every generator are the block rows' times ``[H : base] ** 0.5``: the
    relative cut, hence the dimension, is the one a rank cut of that
    matrix makes.  The kept vectors are the space's range function, as
    :meth:`Subspace.from_fibers` takes it.
    """
    base = scn.base
    if subgroup is None:
        subgroup = base
    if subgroup.group != scn.group or not base.issubset(subgroup):
        raise ValueError("an invariant span needs a subgroup containing the base")
    mat = as_columns(scn, generators)
    if mat.shape[1] == 0:
        return Subspace.zero(scn)
    basis = _block_cut(fiber_matrices(scn, mat), scn.block_rows(subgroup))
    return Subspace._of_range(scn, basis)


def _kept(s: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """The rank rule: which singular values count.

    Those above ``RANK_TOL`` times the largest of ``s`` and above the
    absolute ``floor``: the cut of every span (:func:`_block_cut`), of the
    approximation solvers' pools and of a principal generator's support.
    """
    return s > max(RANK_TOL * s.max(initial=0.0), floor)


def _blocks(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fiber matrices (n_fibers, rows, k) cut along a block table (n_blocks,
    rows per block) that partitions the rows, each block increasing
    (:meth:`Scenario.block_rows`).  One block lists every row in order, so
    it is a view of ``mats``; more blocks take one gather."""
    return mats[:, None] if len(rows) == 1 else np.take(mats, rows, axis=1)


def _block_cut(mats: np.ndarray, rows: np.ndarray, *, floor: float = 0.0) -> np.ndarray:
    """The rank cut of fiber bases that split along blocks, as a range function.

    ``mats`` holds fiber matrices (n_fibers, rows, k) and ``rows`` a block
    table (:func:`_blocks`), one block for the base or a single matrix.  One
    batched SVD of the block rows; the left singular vectors whose singular
    values pass :func:`_kept` over every fiber and block are copied back
    into their block's rows, in (block, singular index) order per fiber, so
    a fiber of roundoff is empty.  The result is as wide as the widest
    fiber, every other entry zero.
    """
    u, s, _ = np.linalg.svd(_blocks(mats, rows), full_matrices=False)
    keep = _kept(s, floor)
    fibers, block, sing = np.nonzero(keep)
    counts = keep.sum(axis=(1, 2))
    slot = np.arange(fibers.size) - (counts.cumsum() - counts)[fibers]
    basis = np.zeros(mats.shape[:2] + (int(counts.max(initial=0)),), dtype=complex)
    basis[fibers[:, None], rows[block], slot[:, None]] = u[fibers, block, :, sing]
    return basis


def _probe_pass(space: Subspace, g) -> tuple:
    """g's residual and, on a space with a range function, its :func:`_moved`
    pair ``(inside, gram)``.

    The residual is the largest distance from the space of a unit vector
    of it translated by g, :func:`_top` of the Gram matrix of the part g's
    modulation moves out.  A space with a range function reads g's row
    from :meth:`Scenario.modulation`: ``None`` for a base element, a
    constant per fiber, so exactly ``0.0`` with no pass; any other row
    moves the fiber bases once, all three memoised on ``space`` per probe.
    A frame-given space, until its base gate, is one fiber of orthonormal
    columns, its whole stacked frame times ``n_fibers ** -0.5``, moved by
    a fresh :meth:`Scenario.modulations` row; it memoises nothing.
    """
    scn, basis = space.scenario, vars(space).get("_basis")
    if basis is None:
        whole = fiber_matrices(scn, space.frame).reshape(1, -1, space.dim)
        whole.view(np.float64)[...] *= scn.n_fibers**-0.5
        return _top(_moved(scn.modulations((g,)).reshape(1, -1), whole)[1]), None, None
    d = scn.modulation(g)
    if d is None:
        return 0.0, None, None
    memo = vars(space).setdefault("_invariance", {})
    if g not in memo:
        inside, gram = _moved(d, basis)
        memo[g] = (_top(gram), inside, gram)
    return memo[g]


def _top(gram: np.ndarray) -> float:
    """The largest singular value of a stack of matrices, from their Gram
    matrices ``gram`` (..., k, k): ``sqrt`` of the largest eigenvalue, by
    one batched ``eigvalsh``; ``0.0`` for width 0.

    ``eigvalsh`` finds that eigenvalue to within a few eps times
    ``|gram| = s_max ** 2``, so ``s_max`` keeps a relative error of about
    eps; a negative eigenvalue is roundoff and reads as zero.  Small
    singular values lose half their digits in the square, so only the top
    one is ever read off a Gram matrix.
    """
    if gram.size == 0:
        return 0.0
    return math.sqrt(max(float(np.linalg.eigvalsh(gram).max()), 0.0))


def _modulate(d: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The modulation d (n_fibers, n_cosets) applied to fiber matrices
    (n_fibers, rows, k): stacked row ``k * reps + c`` of fiber w times
    ``d[w, k]``, a broadcast over the orbits.  A new array."""
    n_fibers, rows, k = mats.shape
    split = mats.reshape(n_fibers, d.shape[1], rows // d.shape[1], k)
    return (split * d[..., None, None]).reshape(mats.shape)


def _moved(d: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A modulation's action on the fiber bases, split along them.

    ``basis`` (n_fibers, rows, r) holds orthonormal or zero columns B per
    fiber, and the modulation d moves them (:func:`_modulate`).  Returns,
    per fiber, ``N = B^H d B`` (the part of d B inside the span, in
    coefficients on B) and the r x r Gram matrix ``G = O^H O`` of the part
    outside, ``O = d B - B N``, so ``|O x| ** 2 = x^H G x`` for every
    coefficient vector x.  O is formed as a difference and never as
    ``I - N^H N``, which cancels for the small residuals the checks
    decide on.  The top singular value of O, :func:`_top` of G, is the
    largest distance from the span of a modulated unit vector of it.
    Temporaries are the size of the basis.
    """
    moved = _modulate(d, basis)
    inside = basis.conj().swapaxes(-1, -2) @ moved
    moved -= basis @ inside
    return inside, moved.conj().swapaxes(-1, -2) @ moved


def is_invariant(
    space: Subspace, subgroup: Subgroup, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Whether the subspace is preserved by every translation in the subgroup.

    Tests the subgroup's generators (enough, since the translations form a
    representation and generators reach everything).  Returns the verdict
    and the worst residual (:func:`_residual`): the largest distance from
    the space of a translated unit vector of the space, maximised over the
    probes, which does not depend on ``tol`` or on a choice of basis.
    ``ValueError`` unless ``tol`` is a finite positive number.
    """
    tol = checked_tol(tol)
    worst = _residual(space, subgroup)
    return worst <= tol, worst


def _residual(space: Subspace, subgroup: Subgroup) -> float:
    """The worst residual of :func:`is_invariant`, ``0.0`` for dimension 0.

    On a space with a range function (fiber-built, or past the base gate)
    a probe in the base reads exactly ``0.0`` at no cost; every other
    probe makes one probe pass (:func:`_probe_pass`): its modulation row,
    built once per scenario by :meth:`Scenario.modulation` whatever the
    subgroup, moves the fiber bases once, and the residual (the top
    singular value of the part moved out, from its r x r Gram matrix and
    one ``eigvalsh``), the part kept inside and that Gram matrix are
    memoised on the space for every later reader, the component law of
    :func:`actinv.extra.check_extra_invariance` included.  A frame-given
    space, before it is known to be base-invariant, makes the same pass on
    its whole stacked frame as one fiber, one transform per probe and
    call, and keeps nothing.  The callers check their ``tol``.
    """
    if space.dim == 0:
        return 0.0
    return max([_probe_pass(space, g)[0] for g in _probes(subgroup)])


def require_scenario(scn: Scenario, space: Subspace) -> None:
    """``ValueError`` unless the space, and so every memo on it, is ``scn``'s."""
    if space.scenario is not scn:
        raise ValueError("the subspace belongs to another scenario")


def require_base_invariant(space: Subspace, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The space's range function; ``InvarianceError`` if it is not base-invariant.

    A space that has a range function (fiber-built, or past this gate once)
    returns it at once: a base translation moves no fiber basis, so its
    base residual is exactly ``0.0``.  A frame-given space passes when its
    residual on its whole stacked frame (:func:`_residual`) is at most
    ``tol`` and its fibers hold its whole dimension: the ranks of its
    frame's fiber matrices, cut by :func:`_block_cut` along the base's one
    block, sum to ``dim``.  That cut basis then becomes its range function,
    and every later residual is read off it; the gate's residuals are not
    kept.  ``ValueError`` unless ``tol`` is a finite positive number.
    """
    return _range_function(space, checked_tol(tol))


def _range_function(space: Subspace, tol: float) -> np.ndarray:
    """:func:`require_base_invariant` with ``tol`` already checked."""
    basis = vars(space).get("_basis")
    if basis is not None:
        return basis
    scn = space.scenario
    res = _residual(space, scn.base)
    if not res <= tol:
        raise InvarianceError(
            f"subspace is not invariant under the base subgroup (residual {res:.3e})"
        )
    basis = _block_cut(fiber_matrices(scn, space.frame), scn.block_rows(scn.base))
    total = np.count_nonzero(basis.any(axis=1))
    if total != space.dim:
        raise InvarianceError(
            f"subspace fibers have {total} dimensions, the space has {space.dim}"
        )
    space._basis = basis
    return basis


# -- principal (single-generator) spaces --------------------------------------


@dataclass(frozen=True)
class FiberMultiplier:
    """Fiberwise ratio tying a member of a principal space to its generator.

    ``values[w]`` multiplies the generator's Zak fiber at
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

    Works fiberwise on the range function, one :func:`fiber_matrices` of
    psi and f: f belongs iff its fiber is a scalar multiple of psi's fiber
    wherever psi's fiber is nonzero, and vanishes where psi's fiber does.
    The stacked fibers are a unitary image of the base Zak fibers, so the
    multipliers are those of the base Zak values.  On success returns the
    multiplier: on each fiber where psi's fiber norm passes :func:`_kept`,
    the coefficient of the orthogonal projection of f's fiber onto psi's,
    elsewhere zero.  Returns None otherwise.  A (numerically) zero psi is
    rejected, and so is input of the wrong length or with non-finite
    entries (``ValueError``), and so is a ``tol`` that is not a finite
    positive number, and so are norms that overflow (:func:`_finite`).
    """
    tol = checked_tol(tol)
    f, psi = (
        as_columns(scn, np.ravel(v), noun)[:, 0]
        for v, noun in ((f, "function"), (psi, "generator"))
    )
    mats = fiber_matrices(scn, np.column_stack([psi, f]))
    zpsi, zf = mats[..., 0], mats[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(zpsi, axis=1)
        if norms.max() <= 0.0 or scn.action.norm(psi) == 0.0:
            raise DegenerateGeneratorError("generator is zero")
        _finite(float((norms**2).max()), "generator", "squared fiber norm")
        support = _kept(norms)
        values = np.zeros(scn.n_fibers, dtype=complex)
        cross = (zf[support] * np.conj(zpsi[support])).sum(axis=1)
        values[support] = cross / norms[support] ** 2
        # f against the fiberwise multiple, in the function norm: the whole
        # of f's fiber where psi's is zero
        total = float(np.linalg.norm(zf - values[:, None] * zpsi) / np.sqrt(scn.n_fibers))
    _finite(total, "function", "residual")
    if total > tol * max(1.0, _norm(scn, f, "function")):
        return None
    return FiberMultiplier(scn, values, support)


# -- fiberwise structure of invariant spaces ----------------------------------


def fiber_matrices(scn: Scenario, vectors: np.ndarray) -> np.ndarray:
    """Per-fiber matrices of stacked Zak values in weighted coordinates.

    Shape (n_fibers, n_cosets * len(orbit_reps), n_vectors): column j of
    fiber w is the stacked Zak vector of ``vectors[:, j]`` at that fiber,
    with each orbit-representative slot scaled by ``rep_weight ** 0.5``.
    Euclidean norms per fiber then reproduce the weighted fiber norms.
    The vectors are taken as finite: every library caller passes
    :func:`as_columns` output or a ``Subspace`` frame, both checked, so
    the transform makes no finiteness pass (:func:`actinv.zak._zak_stacked`).
    """
    vals = _zak_stacked(scn, vectors)  # (w, k, c, d)
    if vals.ndim == 3:
        vals = vals[..., None]
    vals.view(np.float64)[...] *= np.sqrt(scn.rep_weights)[:, None]
    w, k, c, d = vals.shape
    return vals.reshape(w, k * c, d)


def fibers_from_matrix(scn: Scenario, fiber_cols: np.ndarray) -> np.ndarray:
    """Inverse of the weighted stacking: one function per fiber column set.

    ``fiber_cols`` has shape (n_fibers, n_cosets * len(orbit_reps), d); the
    result stacks d functions as columns, where function j has the given
    weighted fiber vectors (scaled back) as its stacked Zak transform.
    The stacked inverse's kernel with the weights folded in; unchecked but
    for the conversion to complex, which the kernel's real scaling of the
    float64 view needs.
    """
    fiber_cols = np.asarray(fiber_cols, dtype=complex)
    w, _, d = fiber_cols.shape
    rows = fiber_cols.reshape(w * scn.n_cosets, len(scn.tiling.orbit_reps), d)
    return _unstacked(scn, rows, np.sqrt(scn.n_cosets / scn.rep_weights)[:, None])


def length(space: Subspace) -> int:
    """Largest fiber dimension of a base-invariant subspace.

    The width of its range function.  This is the least number of
    generators realizing the space; see :func:`fiber_generators` for an
    explicit realization.
    """
    return require_base_invariant(space).shape[2]


def fiber_generators(space: Subspace) -> list[np.ndarray]:
    """``length(space)`` functions whose invariant span recovers the space.

    Built fiberwise: the range function's basis vectors are distributed
    across the generators (generator j takes the j-th basis vector of each
    fiber, where present), so the generators' fibers span every fiber of
    the space.
    """
    basis = require_base_invariant(space)
    gens = fibers_from_matrix(space.scenario, basis)
    return [gens[:, j] for j in range(basis.shape[2])]
