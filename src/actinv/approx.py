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

Determinism: fibers are processed in dual-section order; pooled entries
are ordered by (singular value desc, block position, singular index);
retained singular vectors get a fixed phase (first significant coordinate
made real positive).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .groups import Element
from .scenario import Scenario
from .spaces import RANK_TOL, Subspace, fiber_matrices, fibers_from_matrix
from .extra import dual_partition, stacked_block_masks


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
    if isinstance(data, np.ndarray) and data.ndim == 2:
        mat = np.asarray(data, dtype=complex)
    else:
        vecs = [np.asarray(v, dtype=complex) for v in data]
        if not vecs:
            raise ValueError("need at least one data vector")
        mat = np.column_stack(vecs)
    if mat.shape[0] != scn.action.n_points:
        raise ValueError(
            f"data vectors have {mat.shape[0]} entries, "
            f"space has {scn.action.n_points} points"
        )
    if not np.all(np.isfinite(mat)):
        raise ValueError("data vectors must be finite")
    if mat.shape[1] == 0:
        raise ValueError("need at least one data vector")
    return mat


def _fix_phase(u: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(u)))
    if peak == 0.0:
        return u
    idx = int(np.argmax(np.abs(u) > 1e-8 * peak))
    z = u[idx]
    return u * (np.conj(z) / abs(z))


def _assemble(scn: Scenario, picks: list[tuple[int, np.ndarray]]) -> Subspace:
    """Build the subspace whose fibers are the picked orthonormal vectors.

    ``picks`` holds (fiber position, unit vector in weighted stacked
    coordinates); vectors at the same fiber must be mutually orthogonal.
    """
    kc = scn.n_cosets * len(scn.tiling.orbit_reps)
    if not picks:
        return Subspace.zero(scn)
    stacked = np.zeros((scn.n_fibers, kc, len(picks)), dtype=complex)
    for col, (w, vec) in enumerate(picks):
        stacked[w, :, col] = vec
    frame = fibers_from_matrix(scn, stacked) * np.sqrt(scn.n_fibers)
    return Subspace(scn, frame)


def best_invariant(scn: Scenario, data, ell: int) -> ApproxResult:
    """Best base-invariant space of length at most ``ell`` for the data."""
    if ell < 1:
        raise ValueError("generator budget must be at least 1")
    mat = _data_matrix(scn, data)
    mats = fiber_matrices(scn, mat)
    svds = [scipy.linalg.svd(mats[w], full_matrices=False) for w in range(scn.n_fibers)]
    top = max((s[0] for _, s, _ in svds if s.size), default=0.0)
    floor = RANK_TOL * top
    picks: list[tuple[int, np.ndarray]] = []
    spectra = []
    error = 0.0
    for w in range(scn.n_fibers):
        u, s, _ = svds[w]
        rank = int(np.sum(s > floor))
        keep = min(ell, rank)
        for i in range(keep):
            picks.append((w, _fix_phase(u[:, i])))
        error += float(np.sum(s[keep:] ** 2)) / scn.n_fibers
        spectra.append(
            FiberSpectrum(
                fiber=scn.omega[w],
                kept=tuple(float(v) for v in s[:keep]),
                dropped=tuple(float(v) for v in s[keep:]),
                kept_labels=None,
            )
        )
    return ApproxResult(_assemble(scn, picks), error, int(ell), tuple(spectra))


def best_extra_invariant(scn: Scenario, data, ell: int) -> ApproxResult:
    """Best space of length at most ``ell`` invariant under the extra subgroup.

    Per fiber, every coordinate block gets its own singular decomposition
    of the block-restricted data; the fiber keeps the ``ell`` largest
    singular directions across blocks.  Keeping whole blocks' directions
    makes every fiber decomposable, hence the space extra-invariant.
    """
    if ell < 1:
        raise ValueError("generator budget must be at least 1")
    mat = _data_matrix(scn, data)
    mats = fiber_matrices(scn, mat)
    part = dual_partition(scn)
    blocks = stacked_block_masks(scn)
    fiber_pools = []
    for w in range(scn.n_fibers):
        pooled = []  # (sigma, block position, singular index, embedded vector)
        for pos, sel in enumerate(blocks):
            sub = mats[w][sel, :]
            u, s, _ = scipy.linalg.svd(sub, full_matrices=False)
            for i in range(s.size):
                vec = np.zeros(mats.shape[1], dtype=complex)
                vec[sel] = u[:, i]
                pooled.append((float(s[i]), pos, i, vec))
        pooled.sort(key=lambda t: (-t[0], t[1], t[2]))
        fiber_pools.append(pooled)
    top = max((p[0][0] for p in fiber_pools if p), default=0.0)
    floor = RANK_TOL * top
    picks: list[tuple[int, np.ndarray]] = []
    spectra = []
    error = 0.0
    for w in range(scn.n_fibers):
        pooled = fiber_pools[w]
        significant = [p for p in pooled if p[0] > floor]
        kept = significant[: min(ell, len(significant))]
        kept_keys = {(p[1], p[2]) for p in kept}
        for sigma, pos, i, vec in kept:
            picks.append((w, _fix_phase(vec)))
        dropped = [p for p in pooled if (p[1], p[2]) not in kept_keys]
        error += sum(p[0] ** 2 for p in dropped) / scn.n_fibers
        spectra.append(
            FiberSpectrum(
                fiber=scn.omega[w],
                kept=tuple(p[0] for p in kept),
                dropped=tuple(p[0] for p in dropped),
                kept_labels=tuple(part.labels[p[1]] for p in kept),
            )
        )
    return ApproxResult(_assemble(scn, picks), error, int(ell), tuple(spectra))


def evaluate_candidate(scn: Scenario, data, space: Subspace) -> float:
    """Summed squared weighted distances of the data to the subspace."""
    return float(np.sum(space.residuals(_data_matrix(scn, data)) ** 2))
