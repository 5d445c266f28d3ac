"""Dense character-sum transforms, written straight from their definitions.

The library computes the full Zak transform with an FFT over the moduli
shape and regroups it through index tables.  The functions here do neither:
each one contracts the orbit samples with the whole |G| x |G| character
table from :meth:`FiniteAbelianGroup.char_matrix` and regroups dual
elements by explicit group addition, so agreement with the library is a
check of its kernels and bookkeeping, not a restatement of them.  They are
O(|G|^2) and meant for test sizes only.

Every function takes a single function (1-D) or a batch of columns (2-D),
like the library.
"""
import numpy as np


def analysis_chars(group):
    """``[t, h] = pairing(-t, h)`` over ``group.elements`` on both axes."""
    negs = [group.neg(t) for t in group.elements]
    return group.char_matrix(negs, group.elements)


def _orbit_points(scn):
    """Points ``sigma_{-t}(x)`` and roots ``jacobian(-t, x)**0.5``, shape (|G|, reps)."""
    act, group = scn.action, scn.group
    reps = np.asarray(scn.tiling.orbit_reps, dtype=np.intp)
    points = np.array(
        [act.sigma(group.neg(t))[reps] for t in group.elements], dtype=np.intp
    )
    roots = np.sqrt(act.weights[points] / act.weights[reps][None, :])
    return points, roots


def _batch(roots, ndim):
    return roots.reshape(roots.shape + (1,) * (ndim - 1))


def full(scn, f):
    """``full[h, c] = sum_t pairing(-t, h) * translate(t, f)(x_c)``."""
    f = np.asarray(f, dtype=complex)
    points, roots = _orbit_points(scn)
    samples = _batch(roots, f.ndim) * f[points]
    return np.einsum("tc...,th->hc...", samples, analysis_chars(scn.group))


def full_inv(scn, values):
    values = np.asarray(values, dtype=complex)
    chars = analysis_chars(scn.group)
    samples = np.einsum("hc...,th->tc...", values, np.conj(chars)) / scn.group.order
    points, roots = _orbit_points(scn)
    f = np.zeros((scn.action.n_points,) + values.shape[2:], dtype=complex)
    for t in range(points.shape[0]):
        for c in range(points.shape[1]):
            f[points[t, c]] = samples[t, c] / roots[t, c]
    return f


def _dual_index(scn):
    """``[w, k]`` = position of ``omega[w] + annihilator element k`` in the group."""
    group = scn.group
    ann = sorted(scn.base_annihilator.elements)
    return np.array(
        [[group.index(group.add(w, a)) for a in ann] for w in scn.omega],
        dtype=np.intp,
    )


def stacked(scn, f):
    return full(scn, f)[_dual_index(scn)] / np.sqrt(scn.n_cosets)


def stacked_inv(scn, values):
    values = np.asarray(values, dtype=complex)
    index = _dual_index(scn)
    dual = np.empty((scn.group.order,) + values.shape[2:], dtype=complex)
    dual[index.ravel()] = values.reshape((-1,) + values.shape[2:])
    return full_inv(scn, dual * np.sqrt(scn.n_cosets))


def block_indicator(scn, xi):
    """Indicator over the dual group of ``{omega + xi + d : d in extra-annihilator}``."""
    group = scn.group
    out = np.zeros(group.order, dtype=bool)
    for w in scn.omega:
        for d in scn.extra_annihilator.elements:
            out[group.index(group.add(group.add(w, xi), d))] = True
    return out


def mask(scn, xi, f):
    values = full(scn, f)
    keep = block_indicator(scn, xi)
    return full_inv(scn, values * keep.reshape((-1,) + (1,) * (values.ndim - 1)))
