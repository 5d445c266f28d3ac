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
their block submatrices (the plain problem has a single block holding
every row), and all of them go through one SVD call.

Determinism: fibers are processed in dual-section order; pooled entries
are ordered by (singular value desc, block position, singular index);
retained singular vectors get a fixed phase (first significant coordinate
made real positive).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import Element
from .scenario import Scenario
from .spaces import Subspace, _kept, as_columns, fiber_matrices, require_scenario
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
    space: Subspace
    error: float
    ell: int
    spectra: tuple[FiberSpectrum, ...]

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
    """Rotate each column so its first significant coordinate is real positive."""
    mag = np.abs(vecs)
    peak = mag.max(axis=0)
    first = np.argmax(mag > 1e-8 * peak, axis=0)
    z = vecs[first, np.arange(vecs.shape[1])]
    # zero columns keep their phase
    phase = np.divide(np.conj(z), np.abs(z), out=np.ones_like(z), where=peak > 0.0)
    return vecs * phase


def _fit(
    scn: Scenario,
    data,
    ell: int,
    rows: np.ndarray,
    labels: Sequence[Element] | None = None,
) -> ApproxResult:
    """Keep the ``ell`` largest block-restricted singular directions per fiber.

    ``rows`` (n_blocks, block size) lists the weighted stacked rows of each
    block; ``labels`` names the blocks in the spectra (None: one block, no
    labels).  All fibers' block submatrices go through one batched SVD.
    Each fiber pools its blocks' singular values; a stable sort on the
    value, descending, over the pool in (block position, singular index)
    order gives the determinism rule of the module.  A fiber keeps at most
    ``ell`` values, and only those that pass the rank rule
    (:func:`actinv.spaces._kept`) over every fiber's pool.
    """
    # bool is an int subclass, so an explicit refusal; numpy integers pass
    if isinstance(ell, bool) or not isinstance(ell, (int, np.integer)) or ell < 1:
        raise ValueError("generator budget must be a positive integer")
    mats = fiber_matrices(scn, _data_matrix(scn, data))
    u, s, _ = np.linalg.svd(mats[:, rows, :], full_matrices=False)
    n_fibers, n_blocks, k = s.shape
    pos, idx = np.divmod(np.arange(n_blocks * k), k)  # pool entry -> block, index
    s = s.reshape(n_fibers, n_blocks * k)
    order = np.argsort(-s, axis=1, kind="stable")
    sig = np.take_along_axis(s, order, axis=1)
    keep = np.minimum(ell, np.sum(_kept(sig), axis=1))
    kept = np.arange(sig.shape[1]) < keep[:, None]
    error = float(np.sum(sig[~kept] ** 2)) / n_fibers
    fibers, slot = np.nonzero(kept)
    block, sing = pos[order[fibers, slot]], idx[order[fibers, slot]]
    vecs = np.zeros((mats.shape[1], fibers.size), dtype=complex)
    vecs[rows[block], np.arange(fibers.size)[:, None]] = u[fibers, block, :, sing]
    basis = np.zeros((n_fibers, mats.shape[1], np.max(keep)), dtype=complex)
    basis[fibers, :, slot] = _fix_phase(vecs).T
    spectra = tuple(
        FiberSpectrum(
            fiber=scn.omega[w],
            kept=tuple(vals[:n]),
            dropped=tuple(vals[n:]),
            kept_labels=(
                None if labels is None else tuple(labels[p] for p in pos[order[w, :n]])
            ),
        )
        for w, (vals, n) in enumerate(zip(sig.tolist(), keep.tolist()))
    )
    return ApproxResult(Subspace._of_range(scn, basis), error, int(ell), spectra)


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
    """Summed squared weighted distances of the data to the subspace of ``scn``."""
    require_scenario(scn, space)
    return float(np.sum(space.residuals(_data_matrix(scn, data)) ** 2))
