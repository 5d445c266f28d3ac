"""Best-approximation results vs independent minimization oracles."""
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from actinv import (
    best_extra_invariant,
    best_invariant,
    check_decomposable,
    check_extra_invariance,
    evaluate_candidate,
    is_invariant,
    span_invariant,
)
import actinv.approx as approx_mod
from actinv.extra import dual_partition
from actinv.spaces import Subspace, fiber_matrices, fibers_from_matrix, length

import oracle
from conftest import random_block_supported_space, random_function


def data_matrix(scn, rng, m=3):
    return np.column_stack([random_function(scn, rng) for _ in range(m)])


# -- oracles written directly from the optimization problem --------------------


def truncation_minimum(scn, data, ell):
    """Optimal error keeping ell directions per fiber: discarded singular energy."""
    mats = fiber_matrices(scn, data)
    total = 0.0
    for w in range(scn.n_fibers):
        s = np.linalg.svd(mats[w], compute_uv=False)
        total += float(np.sum(s[ell:] ** 2)) / scn.n_fibers
    return total


# -- reported error is the attained error --------------------------------------


@pytest.mark.parametrize("ell", [1, 2])
def test_reported_error_is_attained(scn, ell):
    data = data_matrix(scn, np.random.default_rng(10))
    for solver in (best_invariant, best_extra_invariant):
        res = solver(scn, data, ell)
        attained = evaluate_candidate(scn, data, res.space)
        assert attained == pytest.approx(res.error, rel=1e-9, abs=1e-9)


def test_plain_matches_truncation_oracle(scn):
    data = data_matrix(scn, np.random.default_rng(11))
    for ell in (1, 2, 3):
        res = best_invariant(scn, data, ell)
        assert res.error == pytest.approx(truncation_minimum(scn, data, ell), abs=1e-9)


def test_extra_matches_allocation_oracle(scn):
    data = data_matrix(scn, np.random.default_rng(12))
    for ell in (1, 2):
        res = best_extra_invariant(scn, data, ell)
        assert res.error == pytest.approx(oracle.allocation_minimum(scn, data, ell), abs=1e-9)


def test_pca_cross_check_single_fiber(bank):
    # with a trivial base subgroup there is one fiber holding all the weighted
    # data, so the optimizer reduces to principal component analysis
    for name in ("shear", "dilation"):
        scn = bank[name]
        data = data_matrix(scn, np.random.default_rng(13), m=4)
        assert scn.n_fibers == 1
        s = np.linalg.svd(
            data * np.sqrt(scn.action.weights)[:, None], compute_uv=False
        )
        for ell in (1, 2):
            res = best_invariant(scn, data, ell)
            assert res.error == pytest.approx(float(np.sum(s[ell:] ** 2)), rel=1e-9)


# -- structure of the optimizers -----------------------------------------------


def test_errors_are_monotone_and_ordered(scn):
    data = data_matrix(scn, np.random.default_rng(14))
    plain = [best_invariant(scn, data, ell).error for ell in (1, 2, 3)]
    extra = [best_extra_invariant(scn, data, ell).error for ell in (1, 2, 3)]
    assert plain[0] >= plain[1] >= plain[2] >= -1e-12
    assert extra[0] >= extra[1] >= extra[2] >= -1e-12
    for p, e in zip(plain, extra):
        assert e >= p - 1e-9  # the constrained problem cannot do better


def test_error_vanishes_with_enough_generators(scn):
    data = data_matrix(scn, np.random.default_rng(15), m=2)
    scale = float(np.linalg.norm(data) ** 2)
    assert best_invariant(scn, data, 2).error <= 1e-12 * scale
    assert best_extra_invariant(scn, data, 2 * scn.n_blocks).error <= 1e-12 * scale


def test_optimizers_return_valid_spaces(scn):
    data = data_matrix(scn, np.random.default_rng(16))
    plain = best_invariant(scn, data, 2)
    ok, _ = is_invariant(plain.space, scn.base)
    assert ok
    assert length(plain.space) <= 2
    gram = plain.space.frame.conj().T @ (
        scn.action.weights[:, None] * plain.space.frame
    )
    assert_allclose(gram, np.eye(plain.space.dim), atol=1e-12)

    extra = best_extra_invariant(scn, data, 2)
    assert check_extra_invariance(scn, extra.space).extra_invariant
    assert check_decomposable(scn, extra.space).decomposable
    assert length(extra.space) <= 2


def test_beats_random_candidates(scn):
    rng = np.random.default_rng(17)
    data = data_matrix(scn, rng)
    plain = best_invariant(scn, data, 2)
    extra = best_extra_invariant(scn, data, 2)
    for _ in range(20):
        gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
        candidate = span_invariant(scn, gens)
        assert evaluate_candidate(scn, data, candidate) >= plain.error - 1e-9
        blocky = random_block_supported_space(scn, rng, 2)
        assert evaluate_candidate(scn, data, blocky) >= extra.error - 1e-9


# -- determinism and symmetries ------------------------------------------------


def test_deterministic_output(scn):
    data = data_matrix(scn, np.random.default_rng(18))
    a = best_invariant(scn, data, 2)
    b = best_invariant(scn, data, 2)
    assert np.array_equal(a.space.frame, b.space.frame)
    assert a.error == b.error
    c = best_extra_invariant(scn, data, 2)
    d = best_extra_invariant(scn, data, 2)
    assert np.array_equal(c.space.frame, d.space.frame)


def test_global_phase_invariance(scn):
    data = data_matrix(scn, np.random.default_rng(19))
    a = best_invariant(scn, data, 2)
    b = best_invariant(scn, data * np.exp(0.7j), 2)
    assert b.error == pytest.approx(a.error, rel=1e-9)
    assert_allclose(b.space.frame, a.space.frame, atol=1e-9)


def test_column_permutation_invariance(scn):
    data = data_matrix(scn, np.random.default_rng(20), m=4)
    a = best_invariant(scn, data, 2)
    b = best_invariant(scn, data[:, ::-1], 2)
    assert b.error == pytest.approx(a.error, rel=1e-12)
    assert_allclose(oracle.projector(b.space), oracle.projector(a.space), atol=1e-9)


# -- the batched fit -------------------------------------------------------------


def test_one_batched_svd_per_solver(scn, monkeypatch):
    shapes = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    data = data_matrix(scn, np.random.default_rng(24))
    rows = scn.n_cosets * len(scn.tiling.orbit_reps)
    best_invariant(scn, data, 2)
    assert shapes == [(scn.n_fibers, 1, rows, 3)]
    shapes.clear()
    best_extra_invariant(scn, data, 2)
    assert shapes == [(scn.n_fibers, scn.n_blocks, rows // scn.n_blocks, 3)]


@pytest.mark.parametrize("name", ["chain12", "product"])
def test_tied_blocks_keep_the_lower_position(bank, name):
    # a unit fiber entry in block 0 and one in block 1 of the same fiber: on
    # these scenarios the round trip keeps both exactly 1, so the two block
    # singular values tie, and block position 0 must be kept
    scn = bank[name]
    rows = dual_partition(scn).rows
    labels = dual_partition(scn).labels
    for w in range(scn.n_fibers):
        fibers = np.zeros((scn.n_fibers, rows.size, 1), dtype=complex)
        fibers[w, rows[0, 0], 0] = 1.0
        fibers[w, rows[1, -1], 0] = 1.0
        spec = best_extra_invariant(scn, fibers_from_matrix(scn, fibers), 1).spectra[w]
        assert len(spec.dropped) == 1 and spec.kept == spec.dropped  # the tie
        assert spec.kept_labels == (labels[0],)


def test_one_dimensional_data_is_one_column(chain12):
    f = random_function(chain12, np.random.default_rng(25))
    for solver in (best_invariant, best_extra_invariant):
        vector, column = solver(chain12, f, 1), solver(chain12, f[:, None], 1)
        assert vector.as_dict() == column.as_dict()
        assert np.array_equal(vector.space.frame, column.space.frame)
        assert evaluate_candidate(chain12, f, vector.space) == pytest.approx(vector.error)
    assert np.array_equal(
        span_invariant(chain12, f).frame, span_invariant(chain12, f[:, None]).frame
    )
    assert Subspace.span(chain12, f).dim == 1


# -- reports and argument validation -------------------------------------------


def test_report_contents(scn):
    data = data_matrix(scn, np.random.default_rng(21))
    res = best_invariant(scn, data, 2)
    assert len(res.spectra) == scn.n_fibers
    assert all(sp.kept_labels is None for sp in res.spectra)
    total = sum(
        sum(v**2 for v in sp.kept) + sum(v**2 for v in sp.dropped)
        for sp in res.spectra
    ) / scn.n_fibers
    energy = sum(scn.action.norm(data[:, j]) ** 2 for j in range(data.shape[1]))
    assert total == pytest.approx(energy, rel=1e-9)
    json.dumps(res.as_dict())

    ext = best_extra_invariant(scn, data, 2)
    for sp in ext.spectra:
        assert sp.kept_labels is not None
        assert len(sp.kept_labels) == len(sp.kept)
    json.dumps(ext.as_dict())


def test_argument_validation(shear):
    data = data_matrix(shear, np.random.default_rng(22))
    with pytest.raises(ValueError):
        best_invariant(shear, data, 0)
    with pytest.raises(ValueError):
        best_extra_invariant(shear, data, 0)
    with pytest.raises(ValueError):
        best_invariant(shear, [], 1)
    with pytest.raises(ValueError):
        best_invariant(shear, np.zeros((5, 2), dtype=complex), 1)


@pytest.mark.parametrize("ell", [2.5, 2.0, "2", True, False, None, np.float64(3.0), 0, -1])
def test_generator_budget_must_be_a_positive_integer(shear, ell):
    """A budget that is not an integer (``bool`` included, although it is
    an ``int``) fails at the boundary with one message; numpy integers
    work like Python integers."""
    data = data_matrix(shear, np.random.default_rng(30))
    for solver in (best_invariant, best_extra_invariant):
        with pytest.raises(ValueError, match="generator budget must be a positive integer"):
            solver(shear, data, ell)
        got, want = solver(shear, data, np.int64(2)), solver(shear, data, 2)
        assert got.as_dict() == want.as_dict() and type(got.ell) is int


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_is_rejected(bank, bad):
    scn = bank["chain12"]
    data = data_matrix(scn, np.random.default_rng(3))
    data[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        best_invariant(scn, data, 1)
    with pytest.raises(ValueError, match="finite"):
        best_extra_invariant(scn, list(data.T), 1)


# -- the fit's route: one finiteness pass, spectra built when read ------------


def test_spectra_are_built_on_first_read(scn, monkeypatch):
    """A fit builds no ``FiberSpectrum``; reading ``spectra`` builds one
    per fiber, once, and the report reads the same tuple."""
    built = []
    original = approx_mod.FiberSpectrum

    def counted(*args, **kwargs):
        spectrum = original(*args, **kwargs)
        built.append(spectrum.fiber)
        return spectrum

    monkeypatch.setattr(approx_mod, "FiberSpectrum", counted)
    data = data_matrix(scn, np.random.default_rng(31))
    for solver in (best_invariant, best_extra_invariant):
        built.clear()
        res = solver(scn, data, 2)
        assert res.error >= 0.0 and res.space.dim > 0
        assert built == []
        spectra = res.spectra
        assert built == list(scn.omega) and len(spectra) == scn.n_fibers
        assert res.spectra is spectra
        res.as_dict()
        assert len(built) == scn.n_fibers


def test_each_call_checks_its_data_once(scn, monkeypatch):
    """``as_columns`` makes the one finiteness pass over the data; the
    transform of ``fiber_matrices`` and the fit take it as checked."""
    passes = []
    original = np.isfinite

    def counted(x, *args, **kwargs):
        passes.append(np.size(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    data = data_matrix(scn, np.random.default_rng(32))
    calls = (
        lambda: best_invariant(scn, data, 2),
        lambda: best_extra_invariant(scn, data, 2),
        lambda: span_invariant(scn, data),
        lambda: span_invariant(scn, data, scn.extra),
    )
    for call in calls:
        passes.clear()
        call()
        assert passes == [data.size]


def test_data_whose_error_overflows_is_refused(chain12):
    """Finite data whose discarded energy, or summed squared distance,
    passes the float range raises ``ValueError`` instead of returning
    ``inf``, and no ``RuntimeWarning`` is emitted on the way; data 1e10
    times smaller still fits."""
    data = data_matrix(chain12, np.random.default_rng(33), m=2)
    solvers = (best_invariant, best_extra_invariant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = [solver(chain12, data * 1e150, 1) for solver in solvers]
        for res in fits:
            assert 1e290 < res.error < math.inf
            attained = evaluate_candidate(chain12, data * 1e150, res.space)
            assert attained == pytest.approx(res.error, rel=1e-9)
        for solver in solvers:
            with pytest.raises(ValueError, match="too large: the discarded energy overflows"):
                solver(chain12, data * 1e160, 1)
        for res in fits:
            with pytest.raises(ValueError, match="too large: the summed squared distance"):
                evaluate_candidate(chain12, data * 1e160, res.space)
