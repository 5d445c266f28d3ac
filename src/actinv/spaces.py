"""Subspaces of the weighted function space and invariance machinery.

Every :class:`Subspace` is a stack of orthonormal fiber bases in weighted
stacked coordinates (:func:`fiber_matrices`), ``Subspace._basis``.  A
base-invariant space has its range function, one basis per Zak fiber in
one zero-padded (n_fibers, rows, r_max) array: the zero space's has width
0.  A frame-given space, not known to be base-invariant until its base
gate (:func:`require_base_invariant`), is one fiber, its whole stacked
frame, transformed once, which the gate cuts into its range function.
Both public constructors apply one rule to a caller's columns, on every
base: check them, then correct them to orthonormal
(:func:`_orthonormalised`).  The fiber builders assemble the frame only
when it is read.  A translation acts on stacked Zak values as a
modulation of their rows (:meth:`Scenario.modulation`), so no space is
translated in point space: each probe moves a space's columns once
(:func:`_probe_pass`), and every reader of the space shares that pass; a
base translation leaves every basis of a range function where it is.
Every range function the library builds is one rank cut along the blocks
of a subgroup containing the base (:func:`_block_cut`), the base itself
being one block.  The point-space
queries (:meth:`Subspace.residuals`, ``residual``, ``contains``,
``project``, and so :func:`actinv.approx.evaluate_candidate`) read the
same columns: one forward transform of the functions and one projection
per fiber, so a fiber-built space never assembles its frame to answer them.

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
# The largest entry of |Q^H W Q - I| a caller's frame may have.  Library-built
# frames (spans, canonical, both fits, Subspace.span, masked components)
# measured at most 4.7e-15 over 300 generated scenarios of order up to 200
# with weight ranges up to 1e14, and 3.8e-15 on the benchmark's scenarios;
# their range functions' |B^H B - I| at most 2.2e-15 (Subspace.from_fibers).
_FRAME_TOL = 1e-10


def checked_tol(tol, below: float = math.inf) -> float:
    """``tol`` as a float; ``ValueError`` unless it is a finite positive number
    below ``below``.

    The boundary rule of every public function taking a tolerance: a NaN
    would pass every ``<=`` test as false and every ``>`` test as false,
    so a verdict read against it would be arbitrary.  ``bool`` is refused
    although it is an ``int``.
    """
    number = type(tol) is float or (isinstance(tol, Real) and not isinstance(tol, bool))
    if not (number and 0.0 < tol < math.inf):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    if tol >= below:
        raise ValueError(f"tolerance must be below {below}, got {tol!r}")
    return float(tol)


def orthonormal_columns(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Orthonormal frame for the span of the columns, weighted inner product.

    The rank cut of :func:`_block_cut` in weighted coordinates: the columns
    are scaled by ``weights ** 0.5``, cut as a single fiber, and scaled
    back.  The cut is relative to the largest singular value only, so it
    suits the caller's own vectors, not a derived matrix that may be pure
    roundoff.  Weighted values that overflow read ``inf``, with no
    warning, and the cut raises ``LinAlgError`` (:func:`_kept`).
    """
    a = np.asarray(vectors, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    root = np.sqrt(weights)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        a = a * root
    return _block_cut(a[None], np.arange(len(a))[None])[0] / root


class Subspace:
    """A subspace given by a weighted-orthonormal frame of columns.

    A fiber-built space (:meth:`from_fibers`) is given by its range
    function instead, and assembles its frame on first access.  Every
    probe and query reads the space's columns in weighted stacked
    coordinates (:attr:`_basis`): its range function, or, for a
    frame-given space before its base gate (:func:`require_base_invariant`),
    its whole stacked frame as one fiber.  The constructor
    refuses (``ValueError``) a frame of the wrong shape, with non-finite
    entries, or whose weighted Gram matrix ``Q^H W Q`` overflows or differs
    from the identity by more than ``_FRAME_TOL`` in some entry.  By the
    stacked isometry that Gram matrix is ``S^H S`` of the whole stacked
    frame S, so the check reads the one transform of the frame that every
    later reader shares.  Every reader takes the columns as orthonormal,
    so the constructor then corrects S by one Newton-Schulz step
    (:func:`_orthonormalised`), whatever the base: the space's columns are
    orthonormal to roundoff, and ``frame`` keeps the caller's columns,
    which span the same space.
    """

    def __init__(self, scenario: Scenario, frame: np.ndarray):
        n, frame = scenario.action.n_points, np.asarray(frame)
        if frame.ndim != 2 or len(frame) != n:
            raise ValueError(f"frame must have shape ({n}, dim), got {frame.shape}")
        self.scenario, self.frame = scenario, _checked(frame, "frame entries")
        every = np.ones(self._basis.shape[::2], dtype=bool)
        gram, gap = _gram_gap(self._basis, every, "frame", "weighted Gram matrix")
        if gap > _FRAME_TOL:
            raise ValueError(
                "frame is not weighted-orthonormal: the largest entry of "
                f"|Q^H W Q - I| is {gap:.3e}, above {_FRAME_TOL:.0e}"
            )
        self._basis = _orthonormalised(self._basis, gram)

    @classmethod
    def span(cls, scn: Scenario, vectors: Sequence[np.ndarray] | np.ndarray) -> "Subspace":
        """The space the vectors span, cut by :func:`orthonormal_columns`;
        ``ValueError`` naming the vectors if their weighted values overflow
        the float range."""
        mat = as_columns(scn, vectors)
        try:
            frame = orthonormal_columns(scn.action.weights, mat)
        except np.linalg.LinAlgError:
            raise _too_large("vectors", "weighting") from None
        space = cls.__new__(cls)
        space.scenario, space.frame = scn, frame
        return space

    @classmethod
    def zero(cls, scn: Scenario) -> "Subspace":
        return span_invariant(scn, np.zeros((scn.action.n_points, 0), dtype=complex))

    @classmethod
    def from_fibers(cls, scn: Scenario, basis: np.ndarray) -> "Subspace":
        """The base-invariant subspace with the given range function.

        ``basis[w]`` (rows, r_max) holds orthonormal columns in weighted
        stacked coordinates spanning fiber w, then zero columns.  The frame
        is assembled on first access: column j is the function whose stacked
        Zak values are the j-th nonzero column, fiber by fiber, at its fiber
        and zero elsewhere, scaled by ``n_fibers ** 0.5`` to unit norm, so
        the frame is weighted-orthonormal.  One inverse transform builds it.
        ``ValueError`` unless ``basis`` has that shape, is finite and keeps
        the layout every reader takes: per fiber ``B^H B`` within
        ``_FRAME_TOL`` of the identity on the nonzero columns and zero
        elsewhere, zero columns last, some fiber using the last column: the
        boundary check of a caller's range function.  Accepted bases are
        then corrected to orthonormal, fiber by fiber, by the frame
        constructor's rule (:func:`_orthonormalised`), zero columns staying
        zero.  The library's own builders (:func:`span_invariant`, the
        canonical space, the approximation fit) make theirs from checked
        input and skip both.
        """
        rows, basis = scn.n_cosets * len(scn.tiling.orbit_reps), np.asarray(basis)
        if basis.ndim != 3 or basis.shape[:2] != (scn.n_fibers, rows):
            raise ValueError(
                f"fiber bases must have shape ({scn.n_fibers}, {rows}, r_max), got {basis.shape}"
            )
        basis = _checked(basis, "fiber bases")
        used = basis.any(axis=1)
        gram, gap = _gram_gap(basis, used, "fiber bases", "Gram matrix")
        if gap > _FRAME_TOL:
            raise ValueError(
                "fiber bases are not orthonormal: the largest entry of |B^H B - I| "
                f"on a fiber's nonzero columns is {gap:.3e}, above {_FRAME_TOL:.0e}"
            )
        if (used[:, 1:] > used[:, :-1]).any() or (used.size and not used[:, -1].any()):
            raise ValueError("fiber bases must put zero columns last, some fiber using the last")
        return cls._of_range(scn, _orthonormalised(basis, gram))

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
    def _basis(self) -> np.ndarray:
        """The space's orthonormal columns as fiber bases (fibers, rows, r):
        a range function, which :meth:`_of_range` and the base gate's cut
        assign, else a frame-given space's whole stacked frame as one fiber,
        (1, n_points, dim), its fiber matrices times ``n_fibers ** -0.5``."""
        scn = self.scenario
        mats = fiber_matrices(scn, self.frame)
        mats.view(np.float64)[...] *= scn.n_fibers**-0.5
        return mats.reshape(1, scn.action.n_points, mats.shape[2])

    def project(self, f: np.ndarray) -> np.ndarray:
        """The orthogonal projection of a finite function, or of each column
        of a matrix of them (:func:`as_columns`): the projection ``B (B^H
        F)`` onto the space's columns (:meth:`_inside`) taken back by one
        inverse transform (:func:`fibers_from_matrix`)."""
        f = np.asarray(f)
        mat = as_columns(self.scenario, f, "function")
        out = fibers_from_matrix(self.scenario, self._inside(mat)[1])
        return out[:, 0] if f.ndim == 1 else out

    def residuals(self, mat: np.ndarray) -> np.ndarray:
        """Weighted norm of the part outside the subspace of each finite
        column (:func:`as_columns`), by :meth:`_residuals`; ``ValueError``
        if one overflows (:func:`_finite`)."""
        res = self._residuals(as_columns(self.scenario, mat, "function"))
        _finite(float(res.max(initial=0.0)), "function", "residual")
        return res

    def _residuals(self, mat: np.ndarray) -> np.ndarray:
        """:meth:`residuals` of checked columns, with no pass over them.

        The columns' fiber matrices F minus their projection ``B (B^H F)``
        onto the space's columns (:meth:`_inside`): the stacked transform is
        an isometry onto weighted stacked coordinates, so a column's
        residual is ``sqrt(sum_w |F_w - B_w B_w^H F_w| ** 2 / n_fibers)``,
        and no frame is assembled.  A value that overflows, in the
        transform, the weighting or the norm, reads ``inf`` or ``nan``, with
        no warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mats, inside = self._inside(mat)
            mats -= inside
            return np.linalg.norm(mats, axis=(0, 1)) / math.sqrt(self.scenario.n_fibers)

    def _inside(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The fiber matrices F of checked columns (:func:`fiber_matrices`)
        and their projection ``B (B^H F)`` onto the space's columns B
        (:attr:`_basis`), F read with B's fiber count: fiber by fiber on
        a range function, as one fiber on a whole stacked frame."""
        mats, basis = fiber_matrices(self.scenario, mat), self._basis
        cols = mats.reshape(basis.shape[:2] + mats.shape[2:])
        return mats, (basis @ (basis.conj().swapaxes(-1, -2) @ cols)).reshape(mats.shape)

    def residual(self, f: np.ndarray) -> float:
        """Weighted norm of the part of finite f outside the subspace (:meth:`residuals`)."""
        return float(self.residuals(np.ravel(f))[0])

    def contains(self, f: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Whether the residual of finite f, read flat as :meth:`residual`
        reads it, is at most ``tol`` times ``max(1, |f|)``."""
        tol, f = checked_tol(tol), np.ravel(f)
        return self.residual(f) <= tol * max(1.0, _norm(self.scenario, f, "function"))


def _gram_gap(basis: np.ndarray, used: np.ndarray, subject: str, what: str) -> tuple:
    """The Gram matrices ``G = B^H B`` of finite fiber bases (fibers, rows,
    r) and the largest entry of ``|G - I|``, I the identity on each fiber's
    ``used`` columns (fibers, r) and zero elsewhere: the one boundary check
    of both constructors.  ``ValueError`` (:func:`_too_large`) if G or the
    gap overflows the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = basis.conj().swapaxes(1, 2) @ basis
        gap = np.abs(gram - np.eye(used.shape[1]) * used[:, None, :]).max(initial=0.0)
    if not math.isfinite(gap):
        raise _too_large(subject, what)
    return gram, float(gap)


def _orthonormalised(basis: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Fiber bases (fibers, rows, r) a boundary check accepted, corrected
    to orthonormal: one Newton-Schulz step ``B (1.5 I - 0.5 G)``, with G
    their Gram matrices ``B^H B``, which the check formed.

    With ``G = I + E`` the corrected Gram matrix is ``I - 0.75 E^2 + ...``,
    so columns within ``_FRAME_TOL`` of orthonormal come out orthonormal to
    roundoff, and every reader, which takes them as orthonormal, reads the
    space they span.  The columns keep their span; a zero column has a zero
    row and column in G, so it stays zero and the layout is kept.
    """
    return basis @ (1.5 * np.eye(gram.shape[-1]) - 0.5 * gram)


def _finite(value: float, subject: str, what: str) -> float:
    """``value`` if finite; ``ValueError`` if a norm, residual or sum of squares
    of finite input overflowed, which ``inf <= tol * inf`` would pass."""
    if not math.isfinite(value):
        raise _too_large(subject, what)
    return value


def _too_large(subject: str, what: str) -> ValueError:
    """The refusal of finite input whose ``what`` overflows the float range."""
    return ValueError(f"{subject} too large: the {what} overflows the float range")


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
    splits along the blocks of H (:meth:`Scenario.block_rows`, the rows
    of H's verified partition), so the space's fiber at omega is the
    direct sum of the spans of the generators' block rows there.  One
    batched SVD of those block rows,
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
    :meth:`Subspace.from_fibers` takes it.  ``ValueError`` naming the
    generators if their fiber matrices overflow the float range.
    """
    base = scn.base
    if subgroup is None:
        subgroup = base
    foreign = not isinstance(subgroup, Subgroup) or subgroup.group != scn.group
    if foreign or not base.issubset(subgroup):
        raise ValueError("an invariant span needs a subgroup containing the base")
    mat = as_columns(scn, generators)
    try:
        basis = _block_cut(fiber_matrices(scn, mat), scn.block_rows(subgroup))
    except np.linalg.LinAlgError:
        raise _too_large("generators", "Zak transform") from None
    return Subspace._of_range(scn, basis)


def _kept(s: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """The rank rule: which singular values count.

    Those above ``RANK_TOL`` times the largest of ``s`` and above the
    absolute ``floor``: the cut of every span (:func:`_block_cut`), of the
    approximation solvers' pools and of a principal generator's support.
    ``LinAlgError`` if the largest is not finite, as numpy's SVD raises
    when it fails: the factored fibers overflowed (:func:`fiber_matrices`).
    """
    top = s.max(initial=0.0)
    if not math.isfinite(top):
        raise np.linalg.LinAlgError("singular values are not finite")
    return s > max(RANK_TOL * top, floor)


def _blocks(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fiber matrices (n_fibers, rows, k) cut along a block table (n_blocks,
    rows per block) that partitions the rows, each block increasing
    (:meth:`Scenario.block_rows`).  One block lists every row in order, so
    it is a view of ``mats``; more blocks take one gather."""
    return mats[:, None] if len(rows) == 1 else np.take(mats, rows, axis=1)


def _block_cut(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rank cut of fiber bases that split along blocks, as a range function.

    ``mats`` holds fiber matrices (n_fibers, rows, k) and ``rows`` a block
    table (:func:`_blocks`), one block for the base or a single matrix.  One
    batched SVD of the block rows; the left singular vectors whose singular
    values pass :func:`_kept` over every fiber and block are put back into
    their block's rows (:func:`_packed`), so a fiber of roundoff is empty.
    """
    u, s, _ = np.linalg.svd(_blocks(mats, rows), full_matrices=False)
    return _packed(u, _kept(s), rows)


def _packed(u: np.ndarray, keep: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The left singular vectors ``u`` of a block table's rows flagged by
    ``keep`` (n_fibers, n_blocks, k), copied into their block's rows in
    (block, singular index) order per fiber: a range function as wide as
    the widest fiber, every other entry zero."""
    fibers, block, sing = np.nonzero(keep)
    counts = keep.sum(axis=(1, 2))
    slot = np.arange(fibers.size) - (counts.cumsum() - counts)[fibers]
    basis = np.zeros((len(u), rows.size, int(counts.max(initial=0))), dtype=complex)
    basis[fibers[:, None], rows[block], slot[:, None]] = u[fibers, block, :, sing]
    return basis


def _probe_pass(space: Subspace, g) -> tuple:
    """g's residual on the space's columns (:attr:`Subspace._basis`), and
    its :func:`_moved` pair ``(inside, gram)``.

    The residual is the largest distance from the space of a unit vector
    of it translated by g, :func:`_top` of the Gram matrix of the part g's
    modulation moves out.  A base element's row is constant per fiber, so
    on a range function (one basis per Zak fiber) a probe in the base reads
    exactly ``0.0`` by exact membership, tested after the memo and before
    anything is built; any other probe's row (:meth:`Scenario.modulation`),
    read with the columns' fiber count, moves them once, all three
    memoised on ``space`` per probe.
    """
    scn, memo = space.scenario, vars(space).get("_invariance", {})
    if g not in memo:
        basis = space._basis
        if len(basis) == scn.n_fibers and g in scn.base:
            return 0.0, None, None
        inside, gram = _moved(scn.modulation(g).reshape(len(basis), -1), basis)
        memo[g] = (_top(gram), inside, gram)
        space._invariance = memo
    return memo[g]


def _top(gram: np.ndarray) -> float:
    """The largest singular value of a stack of matrices, from their Gram
    matrices ``gram`` (..., k, k): ``sqrt`` of the largest eigenvalue, by
    one batched ``eigvalsh``; ``0.0`` for an empty stack.

    ``eigvalsh`` finds that eigenvalue to within a few eps times
    ``|gram| = s_max ** 2``, so ``s_max`` keeps a relative error of about
    eps; a negative eigenvalue is roundoff and reads as zero.  Small
    singular values lose half their digits in the square, so only the top
    one is ever read off a Gram matrix.
    """
    return math.sqrt(float(np.linalg.eigvalsh(gram).max(initial=0.0)))


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
    ``ValueError`` unless ``tol`` is a finite positive number and the
    subgroup is one of the space's group.
    """
    tol = checked_tol(tol)
    if not isinstance(subgroup, Subgroup) or subgroup.group != space.scenario.group:
        raise ValueError("an invariance test needs a subgroup of the space's group")
    worst = _residual(space, subgroup)
    return worst <= tol, worst


def _residual(space: Subspace, subgroup: Subgroup) -> float:
    """The worst residual of :func:`is_invariant`, ``0.0`` for dimension 0.

    Every probe makes one probe pass (:func:`_probe_pass`) on the space's
    columns (:attr:`Subspace._basis`), a range function or, before the
    base gate, the whole stacked frame: its modulation row, built once
    per scenario by :meth:`Scenario.modulation` whatever the subgroup,
    moves the columns once, and the residual (the top singular value of the part moved out,
    from its r x r Gram matrix and one ``eigvalsh``), the part kept inside
    and that Gram matrix are memoised on the space for every later reader,
    the component law of :func:`actinv.extra.check_extra_invariance`
    included.  A probe in the base reads exactly ``0.0`` at no cost on a
    range function.  The callers check ``tol``.
    """
    return max([_probe_pass(space, g)[0] for g in _probes(subgroup)])


def require_scenario(scn: Scenario, space: Subspace) -> None:
    """``ValueError`` unless the space, and so every memo on it, is ``scn``'s."""
    if space.scenario is not scn:
        raise ValueError("the subspace belongs to another scenario")


def require_base_invariant(space: Subspace, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The space's range function; ``InvarianceError`` if it is not base-invariant.

    A space that has a range function (fiber-built, past this gate once,
    or frame-given on a trivial base, whose whole stacked frame is its one
    Zak fiber) returns it at once: a base translation moves no fiber
    basis.  A frame-given space passes when its base residual on its whole
    stacked frame (:func:`_residual`), which its constructor corrected to
    orthonormal, is at most ``tol`` and its fibers hold its
    whole dimension: the ranks of the same columns read one Zak fiber at
    a time, cut by :func:`_block_cut` along the base's one block, sum to
    ``dim``.  That cut then replaces the whole stacked frame as its
    columns, and the probe passes made on the frame are dropped.
    ``ValueError`` unless ``tol`` is a finite positive number.
    """
    return _range_function(space, checked_tol(tol))


def _range_function(space: Subspace, tol: float) -> np.ndarray:
    """:func:`require_base_invariant` with ``tol`` already checked: columns
    with one basis per Zak fiber are the range function, else the whole
    stacked frame, the one transform that serves base residuals and cut."""
    scn = space.scenario
    if len(space._basis) == scn.n_fibers:
        return space._basis
    res = _residual(space, scn.base)
    if not res <= tol:
        raise InvarianceError(
            f"subspace is not invariant under the base subgroup (residual {res:.3e})"
        )
    whole, rows = space._basis, scn.block_rows(scn.base)
    basis = _block_cut(whole.reshape(scn.n_fibers, rows.size, whole.shape[2]), rows)
    total = np.count_nonzero(basis.any(axis=1))
    if total != space.dim:
        raise InvarianceError(
            f"subspace fibers have {total} dimensions, the space has {space.dim}"
        )
    space._basis = basis
    vars(space).pop("_invariance", None)
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
    elsewhere zero: f's fiber against psi's unit fiber, divided once by
    the norm, which ``hypot`` gives.  Nothing small is squared, so tiny
    input keeps its digits down to the scale where psi's own squared norm
    underflows (about 1e-163 on unit-size entries) and psi reads as zero.
    Returns None otherwise.  A (numerically) zero psi is rejected, and so
    is input of the wrong length or with non-finite entries
    (``ValueError``), and so is a ``tol`` that is not a finite positive
    number, and so are norms that overflow (:func:`_finite`).
    """
    tol = checked_tol(tol)
    f, psi = (
        as_columns(scn, np.ravel(v), noun)[:, 0]
        for v, noun in ((f, "function"), (psi, "generator"))
    )
    mats = fiber_matrices(scn, np.column_stack([psi, f]))
    zpsi, zf = mats[..., 0], mats[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.hypot.reduce(np.abs(zpsi), axis=1)
        if norms.max() <= 0.0 or scn.action.norm(psi) == 0.0:
            raise DegenerateGeneratorError("generator is zero")
        _finite(float((norms**2).max()), "generator", "squared fiber norm")
        support = _kept(norms)
        values = np.zeros(scn.n_fibers, dtype=complex)
        unit = zpsi[support] / norms[support, None]
        values[support] = (zf[support] * np.conj(unit)).sum(axis=1) / norms[support]
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
    Values that overflow the float range read ``inf`` or ``nan``, with no
    warning; an SVD of them fails (:func:`_kept`), and the spans and fits
    refuse their input with ``ValueError`` (:func:`_too_large`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
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
