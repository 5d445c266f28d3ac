"""Zak-type transforms for weighted free actions of finite abelian groups.

Three transforms, all bijective isometries:

* base Zak: indexed by (fiber label omega, tile point), where omega runs
  over ``dual_section`` and the tile is the base-subgroup tile;

      zak_base[f](omega)(x) = sum_{g in base} translate(g, f)(x) * pairing(-g, omega)

  computed as a matrix product with the |base| x |base| table
  ``Scenario.chars_base_omega``;

* full Zak: same construction for the whole group, indexed by (dual
  element, orbit representative).  Since ``group.elements`` is in
  lexicographic order, the character sum over the group is the
  multidimensional DFT of the orbit samples reshaped to the moduli shape,
  computed one cyclic factor at a time with ``np.fft.fft`` (inverted with
  ``ifft``), bit for bit ``np.fft.fftn``;

* stacked Zak: the full Zak values regrouped per fiber into a vector of
  length ``n_cosets`` (one slot per base-annihilator element, in
  lexicographic order) and scaled by ``n_cosets ** -0.5`` so the transform
  stays an isometry.

Isometry conventions: the function side carries the point weights; the
dual side carries weight ``1/n_fibers`` per fiber for the base and stacked
transforms and ``1/group.order`` per dual element for the full transform.

Memory: besides the |base|^2 base table, every transform works in
O(|G| * orbits) = O(n) per function.  Each reads its samples through a
gather plan cached on the scenario, four arrays of n entries: a column
selection of the action's orbit coordinates ``point_of``, the jacobian
roots, the inverse permutation and the reciprocal roots in point order.
Forward transforms and inverses are each one ``take`` (no scatter); real
factors scale the float64 view of the transform's own buffer in place,
and the full transform's FFT overwrites its gathered samples.  No
|G| x |G| or |G| x n table is built.

``unfold_orbits`` is the companion fiberization into sequences over the
group: ``unfold_orbits(f)(x)(tau) = jacobian(tau, x)**0.5 * f(sigma_tau(x))``
for orbit representatives x.  Its rows transform under ``translate`` by
plain index translation, and their discrete Fourier transform recovers the
full Zak values at the negated dual element.

Every function accepts a trailing batch axis: 2-D input transforms
columnwise.  Every forward transform refuses a non-finite function, and
every inverse a wrong leading shape and non-finite values, with
``ValueError``.  The library's own stacking of input it has already
checked goes through the private kernel ``_zak_stacked``, which makes no
second pass over the values.
"""
from __future__ import annotations

import numpy as np

from .groups import FiniteAbelianGroup
from .scenario import Scenario

__all__ = [
    "zak_base",
    "zak_base_inv",
    "zak_full",
    "zak_full_inv",
    "zak_stacked",
    "zak_stacked_inv",
    "unfold_orbits",
    "fold_orbits",
    "base_norm",
    "full_norm",
    "stacked_norm",
    "unfold_norm",
    "zak_relation_deviation",
]


def _scaled(values: np.ndarray, factor) -> np.ndarray:
    """The complex C-contiguous ``values`` times the real ``factor`` (a scalar
    or one number per row of the leading axes it covers), in place.  Rows of
    several entries scale their float64 view, which matches numpy's product
    with ``factor + 0j`` up to the sign of an exact zero; rows of one entry
    take numpy's complex loop, which streams where the view would not."""
    factor = np.asarray(factor)
    rows = values.reshape(factor.size, -1, copy=False)
    target = rows if rows.shape[1] == 1 else rows.view(np.float64)
    target *= factor.reshape(-1, 1)
    return values


def _gathered(table, f: np.ndarray) -> np.ndarray:
    """Weighted samples ``jhalf * f[gather]``, shape (*gather.shape, *batch).

    The gather table visits every point once, so ``f`` must have one entry
    (row) per point, and every entry must be finite.
    """
    return _scaled(_checked(_taken(table, f), "function values"), table[1])


def _taken(table, f: np.ndarray) -> np.ndarray:
    """``f[gather]`` as complex; ``ValueError`` unless ``f`` has one entry
    (row) per point.  No pass over the values."""
    gather = table[0]
    f = np.atleast_1d(np.asarray(f, dtype=complex))
    if len(f) != gather.size:
        raise ValueError(f"function has {len(f)} entries, space has {gather.size} points")
    return np.take(f, gather, axis=0)


def _checked(values, what: str = "transform values", **counts: int) -> np.ndarray:
    """``values`` as a C-contiguous complex array; ``ValueError`` unless its
    leading axes have the sizes ``counts`` names (what each axis counts) and
    it is finite, tested on the float64 view."""
    values = np.ascontiguousarray(values, dtype=complex)
    if values.shape[: len(counts)] != tuple(counts.values()):
        names = " x ".join(f"{n} {noun.replace('_', ' ')}" for noun, n in counts.items())
        raise ValueError(f"expected {names}, got shape {values.shape}")
    if not np.isfinite(values.view(np.float64)).all():
        raise ValueError(f"{what} must be finite")
    return values


def _scattered(table, samples: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_gathered`: the function with those weighted samples.

    One ``take`` through the stored inverse permutation, then the reciprocal
    roots in point order.
    """
    where, inverse_roots = table[2:]
    samples = samples.reshape((where.size,) + samples.shape[2:])
    return _scaled(np.take(samples, where, axis=0), inverse_roots)


def _group_dft(
    group: FiniteAbelianGroup, a: np.ndarray, inverse: bool = False, in_place: bool = False
) -> np.ndarray:
    """DFT over the group along axis 0 (indexed like ``group.elements``).

    Forward: ``out[h] = sum_t pairing(-t, h) * a[t]``; inverse: the
    conjugate characters, divided by ``group.order``.  Trailing axes are
    carried along.  ``in_place`` lets the transform overwrite ``a``.

    One ``np.fft.fft`` (``ifft``) per cyclic factor, last axis first, the
    order ``np.fft.fftn`` takes, so the bits are fftn's.  The first writes
    into ``a`` or into one new array, and every later one into that
    output, so a transform that is not in place allocates one array.
    """
    a = np.asarray(a, dtype=complex)
    grid = a.reshape(group.moduli + a.shape[1:])
    fft = np.fft.ifft if inverse else np.fft.fft
    axes = range(group.rank - 1, -1, -1)
    out = fft(grid, axis=axes[0], out=grid if in_place else None)
    for axis in axes[1:]:
        fft(out, axis=axis, out=out)
    return out.reshape(a.shape)


def zak_base(scn: Scenario, f: np.ndarray) -> np.ndarray:
    """Base Zak values, shape (n_fibers, len(tiles)); trailing axis for 2-D input."""
    orbit = _gathered(scn._base_gather, f)
    return np.tensordot(scn.chars_base_omega, orbit, axes=(0, 0))


def zak_base_inv(scn: Scenario, values: np.ndarray) -> np.ndarray:
    values = _checked(values, fibers=scn.n_fibers, tile_points=len(scn.tiling.tiles))
    chars = scn.chars_base_omega  # [g, w] = pairing(-base[g], omega[w])
    # conj(chars) @ values as conj(chars @ conj(values)): same bits, and
    # no conjugated copy of the |base|^2 table
    a = np.tensordot(chars, np.conj(values), axes=(1, 0))
    a = _scaled(np.conjugate(a, out=a), 1.0 / scn.base.order)
    return _scattered(scn._base_gather, a)


def zak_full(scn: Scenario, f: np.ndarray) -> np.ndarray:
    """Full Zak values, shape (group.order, len(orbit_reps))."""
    return _group_dft(scn.group, _gathered(scn._full_gather, f), in_place=True)


def zak_full_inv(scn: Scenario, values: np.ndarray) -> np.ndarray:
    reps = len(scn.tiling.orbit_reps)
    values = _checked(values, dual_elements=scn.group.order, orbits=reps)
    return _scattered(scn._full_gather, _group_dft(scn.group, values, inverse=True))


def zak_stacked(scn: Scenario, f: np.ndarray) -> np.ndarray:
    """Stacked Zak values, shape (n_fibers, n_cosets, len(orbit_reps))."""
    return _stacked(scn, zak_full(scn, f))


def _zak_stacked(scn: Scenario, f: np.ndarray) -> np.ndarray:
    """:func:`zak_stacked` of finite input, with no pass over its values.

    ``f`` must be finite, as :func:`actinv.spaces.as_columns` output and a
    ``Subspace`` frame are; its length is still checked.  The bits are
    those of :func:`zak_stacked`.
    """
    table = scn._full_gather
    samples = _scaled(_taken(table, f), table[1])
    return _stacked(scn, _group_dft(scn.group, samples, in_place=True))


def _stacked(scn: Scenario, full: np.ndarray) -> np.ndarray:
    """Full Zak values regrouped per fiber, times ``n_cosets ** -0.5``."""
    out = np.take(full, scn.dual_unsplit.ravel(), axis=0)
    out = _scaled(out, 1.0 / np.sqrt(scn.n_cosets))
    return out.reshape((scn.n_fibers, scn.n_cosets) + full.shape[1:])


def zak_stacked_inv(scn: Scenario, values: np.ndarray) -> np.ndarray:
    reps = len(scn.tiling.orbit_reps)
    values = _checked(values, fibers=scn.n_fibers, cosets=scn.n_cosets, orbits=reps)
    return _unstacked(scn, values.reshape((-1,) + values.shape[2:]), np.sqrt(scn.n_cosets))


def _unstacked(scn: Scenario, rows: np.ndarray, factor) -> np.ndarray:
    """The function whose full Zak values are ``factor`` times the stacked
    ``rows`` (n_fibers * n_cosets, orbits, *batch), unchecked: one ``take``, one
    real scaling of the float64 view, an in-place inverse DFT, one scatter."""
    split = scn.dual_split
    full = np.take(rows, split[:, 0] * scn.n_cosets + split[:, 1], axis=0)
    full.view(np.float64)[...] *= factor
    full = _group_dft(scn.group, full, inverse=True, in_place=True)
    return _scattered(scn._full_gather, full)


def unfold_orbits(scn: Scenario, f: np.ndarray) -> np.ndarray:
    """Weighted orbit samples; shape (len(orbit_reps), group.order)."""
    return _gathered(scn._unfold_gather, f)


def fold_orbits(scn: Scenario, phi: np.ndarray) -> np.ndarray:
    reps = len(scn.tiling.orbit_reps)
    phi = _checked(phi, orbits=reps, group_elements=scn.group.order)
    return _scattered(scn._unfold_gather, phi)


# -- norms under the transform conventions ------------------------------------


def base_norm(scn: Scenario, values: np.ndarray) -> float:
    e = np.abs(np.asarray(values)) ** 2
    w = scn.tile_weights if e.ndim == 2 else scn.tile_weights[:, None]
    return float(np.sqrt(np.sum(e * w) / scn.n_fibers))


def full_norm(scn: Scenario, values: np.ndarray) -> float:
    e = np.abs(np.asarray(values)) ** 2
    w = scn.rep_weights if e.ndim == 2 else scn.rep_weights[:, None]
    return float(np.sqrt(np.sum(e * w) / scn.group.order))


def stacked_norm(scn: Scenario, values: np.ndarray) -> float:
    e = np.abs(np.asarray(values)) ** 2
    w = scn.rep_weights if e.ndim == 3 else scn.rep_weights[:, None]
    return float(np.sqrt(np.sum(e * w) / scn.n_fibers))


def unfold_norm(scn: Scenario, phi: np.ndarray) -> float:
    e = np.abs(np.asarray(phi)) ** 2
    w = scn.rep_weights if e.ndim == 2 else scn.rep_weights[:, None]
    return float(np.sqrt(np.sum(e.sum(axis=1) * w)))


# -- the relation between the base and full transforms ------------------------


def zak_relation_deviation(scn: Scenario, f: np.ndarray) -> float:
    """Max deviation in the matrix relation tying the two Zak transforms.

    For each fiber omega and orbit representative x, the full Zak values at
    ``omega + annihilator_order[k]`` equal the matrix product F D V, where
    V stacks the base Zak values at ``sigma_{-a_j}(x)`` over the transversal,
    D is diagonal with entries ``jacobian(-a_j, x)**0.5 * pairing(-a_j, omega)``,
    and F is the coset character matrix ``[k, j] = pairing(-a_j, ann[k])``
    (``coset_dft``; unitary after scaling by ``n_cosets ** -0.5``).
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ValueError("relation check expects a single function")
    n_reps = len(scn.tiling.orbit_reps)
    vb = zak_base(scn, f).reshape(scn.n_fibers, scn.n_cosets, n_reps)
    coords = scn.group.coords
    negs = -coords[scn.transversal.rep_indices] % scn.group.moduli
    chars_tr = scn.group.characters(negs, coords[scn.dual_section.rep_indices])  # [j, w]
    # tiles[j * n_reps + c] is sigma_{-a_j}(orbit_reps[c])
    jhalf = np.sqrt(scn.tile_weights.reshape(scn.n_cosets, n_reps) / scn.rep_weights)
    dv = chars_tr.T[:, :, None] * jhalf[None, :, :] * vb  # (w, j, c)
    fdv = np.einsum("kj,wjc->wkc", scn.coset_dft, dv)
    full = zak_full(scn, f)
    u = full[scn.dual_unsplit]  # (w, k, c)
    return float(np.max(np.abs(fdv - u)))
