"""Least-squares approximation of data by invariant subspaces.

Given data vectors and a generator budget, find the base-invariant
subspace of length at most the budget minimizing the summed squared
distances to the data.  The problem separates across Zak fibers: on each
fiber, keep the top left singular vectors of the fiber data matrix
(plain problem), or pool the per-block singular values and keep the
largest across blocks (extra-invariant problem, where the optimizer also
has to be invariant under the larger subgroup, i.e. have decomposable
fibers).  The attained error is exactly the discarded singular energy,
weighted by ``1/n_fibers``.

Both problems are one batched fit: the fiber data matrices are cut into
their block submatrices (:func:`actinv.spaces._blocks`; the plain problem
has the base's single block, the fiber matrix itself), and all of them go
through one SVD call.  The data is checked for finiteness once, by
:func:`actinv.spaces.as_columns`; the pools stay arrays, and only the
kept entries are traced back to their blocks.  A result builds its
per-fiber report tuples (:class:`FiberSpectrum`) when its ``spectra``
are first read.  Errors are sums of squares: finite data whose
discarded energy, or summed squared distance to a candidate, overflows
the float range raises ``ValueError``.

Determinism: fibers are processed in dual-section order; pooled entries
are ordered by (singular value desc, block position, singular index);
retained singular vectors get a fixed phase (first significant coordinate
made real positive).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .groups import Element
from .scenario import Scenario
from .spaces import (
    Subspace,
    _blocks,
    _finite,
    _kept,
    _too_large,
    as_columns,
    fiber_matrices,
    require_scenario,
)
from .extra import dual_partition


@dataclass(frozen=True)
class FiberSpectrum:
    """Per-fiber singular data of the approximation."""

    fiber: Element
    kept: tuple[float, ...]
    dropped: tuple[float, ...]
    kept_labels: tuple[Element, ...] | None  # block labels (extra problem only)

    def as_dict(self) -> dict:
        d = {
            "fiber": list(self.fiber),
            "kept": [float(v) for v in self.kept],
            "dropped": [float(v) for v in self.dropped],
        }
        if self.kept_labels is not None:
            d["kept_labels"] = [list(l) for l in self.kept_labels]
        return d


@dataclass(frozen=True)
class ApproxResult:
    """A fit: its space, attained error and generator budget.

    The fit keeps its pools as arrays: per fiber the pooled singular
    values, sorted by the determinism rule, the number kept, and the block
    positions of the kept entries, fiber after fiber.  :attr:`spectra`
    turns them into report tuples on first read.
    """

    space: Subspace
    error: float
    ell: int
    _values: np.ndarray = field(repr=False, compare=False)  # (n_fibers, pool)
    _counts: np.ndarray = field(repr=False, compare=False)  # (n_fibers,)
    _blocks: np.ndarray = field(repr=False, compare=False)  # (sum of counts,)
    _labels: Sequence[Element] | None = field(repr=False, compare=False)

    @cached_property
    def spectra(self) -> tuple[FiberSpectrum, ...]:
        """Per fiber, in dual-section order, the kept and dropped values."""
        counts = self._counts.tolist()
        if self._labels is None:
            kept_labels = [None] * len(counts)
        else:
            names = [self._labels[p] for p in self._blocks.tolist()]
            kept_labels = [tuple(names[e - n : e]) for n, e in zip(counts, accumulate(counts))]
        omega, values = self.space.scenario.omega, self._values.tolist()
        return tuple(
            FiberSpectrum(fiber, tuple(vals[:n]), tuple(vals[n:]), labels)
            for fiber, vals, n, labels in zip(omega, values, counts, kept_labels)
        )

    def as_dict(self) -> dict:
        return {
            "error": float(self.error),
            "ell": int(self.ell),
            "dim": int(self.space.dim),
            "spectra": [s.as_dict() for s in self.spectra],
        }


def _data_matrix(scn: Scenario, data) -> np.ndarray:
    mat = as_columns(scn, data, "data vector")
    if mat.shape[1] == 0:
        raise ValueError("need at least one data vector")
    return mat


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each row so its first significant coordinate is real positive."""
    mag = np.abs(vecs)
    peak = mag.max(axis=1)
    first = np.argmax(mag > 1e-8 * peak[:, None], axis=1)
    z = vecs[np.arange(len(vecs)), first]
    # zero rows keep their phase
    phase = np.divide(np.conj(z), np.abs(z), out=np.ones_like(z), where=peak > 0.0)
    return vecs * phase[:, None]


def _fit(
    scn: Scenario,
    data,
    ell: int,
    rows: np.ndarray,
    labels: Sequence[Element] | None = None,
) -> ApproxResult:
    """Keep the ``ell`` largest block-restricted singular directions per fiber.

    ``rows`` is a block table (:meth:`Scenario.block_rows`, one block for
    the base) and ``labels`` names the blocks in the spectra, None for a
    report without them.  All fibers' block submatrices
    (:func:`actinv.spaces._blocks`) go through one batched SVD.  Each
    fiber pools its blocks' singular values; a stable sort on the value,
    descending, over the pool in (block position, singular index) order
    gives the determinism rule of the module.  A fiber keeps at most
    ``ell`` values (the report keeps ``ell`` as given), and only those
    that pass the rank rule
    (:func:`actinv.spaces._kept`) over every fiber's pool; only the kept
    entries are traced back to their block's rows and singular vector.
    ``ValueError`` if the fiber matrices or the discarded energy overflow
    the float range.
    """
    # bool is an int subclass, so an explicit refusal; numpy integers pass
    if isinstance(ell, bool) or not isinstance(ell, (int, np.integer)) or ell < 1:
        raise ValueError("generator budget must be a positive integer")
    mats = fiber_matrices(scn, _data_matrix(scn, data))
    try:
        u, s, _ = np.linalg.svd(_blocks(mats, rows), full_matrices=False)
        n_fibers, n_blocks, k = s.shape
        s = s.reshape(n_fibers, n_blocks * k)
        order = np.argsort(-s, axis=1, kind="stable")
        sig = s[np.arange(n_fibers)[:, None], order]
        # a fiber keeps at most its pool, so a budget past it is clamped
        # before numpy reads it: ``ell`` may exceed every integer dtype
        keep = np.minimum(min(ell, sig.shape[1]), _kept(sig).sum(axis=1))
    except np.linalg.LinAlgError:
        raise _too_large("data vectors", "Zak transform") from None
    kept = np.arange(sig.shape[1]) < keep[:, None]
    with np.errstate(over="ignore"):
        energy = float((sig[~kept] ** 2).sum()) / n_fibers
    error = _finite(energy, "data vectors", "discarded energy")
    fibers, slot = np.nonzero(kept)
    block, sing = np.divmod(order[fibers, slot], k)  # pool entry -> block, index
    basis = np.zeros((n_fibers, mats.shape[1], keep.max()), dtype=complex)
    basis[fibers[:, None], rows[block], slot[:, None]] = _fix_phase(u[fibers, block, :, sing])
    space = Subspace._of_range(scn, basis)
    return ApproxResult(space, error, int(ell), sig, keep, block, labels)


def best_invariant(scn: Scenario, data, ell: int) -> ApproxResult:
    """Best base-invariant space of length at most ``ell`` for the data.

    The one-block case of the fit: per fiber, the top ``ell`` left singular
    vectors of the whole fiber data matrix.
    """
    return _fit(scn, data, ell, scn.block_rows(scn.base))


def best_extra_invariant(scn: Scenario, data, ell: int) -> ApproxResult:
    """Best space of length at most ``ell`` invariant under the extra subgroup.

    Per fiber, every coordinate block gets its own singular decomposition
    of the block-restricted data; the fiber keeps the ``ell`` largest
    singular directions across blocks.  Keeping whole blocks' directions
    makes every fiber decomposable, hence the space extra-invariant.
    """
    part = dual_partition(scn)
    return _fit(scn, data, ell, part.rows, part.labels)


def evaluate_candidate(scn: Scenario, data, space: Subspace) -> float:
    """Summed squared weighted distances of the data to the subspace of ``scn``.

    The squares of :meth:`Subspace._residuals`: on a space with a range
    function, as every fit's is, one forward transform of the data and a
    projection per fiber, with no frame assembled.  ``ValueError`` if
    that sum of squares of finite data overflows the float range.
    """
    require_scenario(scn, space)
    mat = _data_matrix(scn, data)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float((space._residuals(mat) ** 2).sum())
    return _finite(total, "data vectors", "summed squared distance")
