"""Acceptance gate: nine criteria, each one test, tolerances pinned.

The terminal summary hook in conftest prints one PASS/FAIL line per
criterion after the run.  Tolerances: 1e-12 relative for isometries and
unitarity, 1e-10 for the transform relation, 1e-9 for membership,
inclusion and projector identities.
"""
import time

import numpy as np
import pytest

from actinv import (
    best_extra_invariant,
    best_invariant,
    canonical_extra_invariant,
    check_decomposable,
    check_extra_invariance,
    dual_partition,
    evaluate_candidate,
    masked_component,
    principal_membership,
    span_invariant,
    translate,
)
from actinv.spaces import fiber_matrices, length
from actinv.zak import (
    base_norm,
    fold_orbits,
    full_norm,
    stacked_norm,
    unfold_norm,
    unfold_orbits,
    zak_base,
    zak_base_inv,
    zak_full,
    zak_full_inv,
    zak_relation_deviation,
    zak_stacked,
    zak_stacked_inv,
)

import oracle
from conftest import (
    SCENARIO_NAMES,
    build_scenario,
    random_block_supported_space,
    random_function,
    random_invariant_space,
)

ISOMETRY_TOL = 1e-12
RELATION_TOL = 1e-10
PROJECTOR_TOL = 1e-9


@pytest.fixture(scope="module")
def invariance_sweep(bank):
    """100 random base-invariant spaces per scenario, checked once, shared
    by criteria 5, 6 and 9."""
    results = []
    for idx, name in enumerate(SCENARIO_NAMES):
        scn = bank[name]
        rng = np.random.default_rng(1000 + idx)
        for _ in range(100):
            space = random_invariant_space(scn, rng)
            report = check_extra_invariance(scn, space)  # must never raise
            results.append((name, scn, space, report))
    return results


def test_c1_partition_golden_values():
    start = time.perf_counter()
    shear = build_scenario("shear")
    part = dual_partition(shear)
    assert part.blocks == (
        frozenset({(0,), (2,), (4,)}),
        frozenset({(1,), (3,), (5,)}),
    )
    dilation = build_scenario("dilation")
    part = dual_partition(dilation)
    assert part.blocks == (
        frozenset({(0,), (2,)}),
        frozenset({(1,), (3,)}),
    )
    assert time.perf_counter() - start < 1.0


def test_c2_isometry_suite(bank):
    start = time.perf_counter()
    assert len(SCENARIO_NAMES) >= 5
    count = 0
    for idx, name in enumerate(SCENARIO_NAMES):
        scn = bank[name]
        rng = np.random.default_rng(2000 + idx)
        for _ in range(18):
            f = random_function(scn, rng)
            count += 1
            ref = scn.action.norm(f)
            peak = float(np.max(np.abs(f)))
            zb = zak_base(scn, f)
            zf = zak_full(scn, f)
            zs = zak_stacked(scn, f)
            phi = unfold_orbits(scn, f)
            assert abs(base_norm(scn, zb) - ref) / ref < ISOMETRY_TOL
            assert abs(full_norm(scn, zf) - ref) / ref < ISOMETRY_TOL
            assert abs(stacked_norm(scn, zs) - ref) / ref < ISOMETRY_TOL
            assert abs(unfold_norm(scn, phi) - ref) / ref < ISOMETRY_TOL
            for back in (
                zak_base_inv(scn, zb),
                zak_full_inv(scn, zf),
                zak_stacked_inv(scn, zs),
                fold_orbits(scn, phi),
            ):
                assert float(np.max(np.abs(back - f))) / peak < ISOMETRY_TOL
    assert count >= 100
    assert time.perf_counter() - start < 10.0


def test_c3_matrix_relation(bank):
    for name in SCENARIO_NAMES:
        scn = bank[name]
        dft = scn.coset_dft / np.sqrt(scn.n_cosets)
        dev = np.max(np.abs(dft @ dft.conj().T - np.eye(scn.n_cosets)))
        assert dev < 1e-12
        rng = np.random.default_rng(3000)
        for _ in range(10):
            f = random_function(scn, rng)
            assert zak_relation_deviation(scn, f) < RELATION_TOL


def test_c4_membership_oracle(bank):
    pairs = 0
    disagreements = 0
    for idx, name in enumerate(SCENARIO_NAMES):
        scn = bank[name]
        rng = np.random.default_rng(4000 + idx)
        for trial in range(34):
            psi = random_function(scn, rng)
            space = span_invariant(scn, psi[:, None])
            if trial % 2 == 0:
                coeffs = rng.standard_normal(scn.base.order) + 1j * rng.standard_normal(
                    scn.base.order
                )
                f = sum(
                    c * translate(scn.action, g, psi)
                    for c, g in zip(coeffs, scn.base.elements)
                )
            else:
                f = random_function(scn, rng)
            pairs += 1
            verdict = principal_membership(scn, f, psi, tol=PROJECTOR_TOL) is not None
            residual = space.residual(f)
            member = residual <= PROJECTOR_TOL * max(1.0, scn.action.norm(f))
            if verdict != member:
                disagreements += 1
    assert pairs >= 200
    assert disagreements == 0


def test_c5_invariance_equivalence(invariance_sweep):
    per_scenario = {}
    invariant_seen = 0
    for name, scn, space, report in invariance_sweep:
        per_scenario[name] = per_scenario.get(name, 0) + 1
        if report.extra_invariant:
            invariant_seen += 1
            assert report.decomposition_deviation < PROJECTOR_TOL
            assert report.component_invariance_residual < PROJECTOR_TOL
            assert sum(report.component_dims) == space.dim
    assert all(count >= 100 for count in per_scenario.values())
    assert invariant_seen > 0


def test_c6_decomposability_agreement(invariance_sweep):
    for name, scn, space, report in invariance_sweep:
        dec = check_decomposable(scn, space)  # must never raise
        assert dec.decomposable == report.extra_invariant
        if dec.decomposable and space.dim:
            assert dec.component_match_deviation < PROJECTOR_TOL


def test_c7_canonical_construction(bank):
    for name in SCENARIO_NAMES:
        scn = bank[name]
        space = canonical_extra_invariant(scn)
        assert space.dim > 0
        report = check_extra_invariance(scn, space)
        assert report.extra_invariant
        assert report.translation_residual < PROJECTOR_TOL
        assert report.component_dims[0] == space.dim
        assert all(d == 0 for d in report.component_dims[1:])
        # the identity-label component is the whole space
        part = dual_partition(scn)
        comp = masked_component(scn, space, part.labels[0])
        dev = np.max(np.abs(oracle.projector(comp) - oracle.projector(space)))
        assert dev < PROJECTOR_TOL


def test_c8_approximation_optimality(bank):
    start = time.perf_counter()
    for idx, name in enumerate(SCENARIO_NAMES):
        scn = bank[name]
        assert scn.n_fibers <= 3 and len(dual_partition(scn).labels) <= 3  # tiny-instance regime
        rng = np.random.default_rng(8000 + idx)
        data = np.column_stack([random_function(scn, rng) for _ in range(3)])
        mats = fiber_matrices(scn, data)

        for ell in (1, 2):
            plain = best_invariant(scn, data, ell)
            discarded = sum(
                float(np.sum(np.linalg.svd(mats[w], compute_uv=False)[ell:] ** 2))
                for w in range(scn.n_fibers)
            ) / scn.n_fibers
            assert plain.error == pytest.approx(discarded, rel=1e-9, abs=1e-9)

            extra = best_extra_invariant(scn, data, ell)
            assert extra.error == pytest.approx(
                oracle.allocation_minimum(scn, data, ell), rel=1e-9, abs=1e-9
            )
            assert length(extra.space) <= ell

        plain = best_invariant(scn, data, 2)
        extra = best_extra_invariant(scn, data, 2)
        for _ in range(90):
            gens = np.column_stack([random_function(scn, rng) for _ in range(2)])
            candidate = span_invariant(scn, gens)
            assert evaluate_candidate(scn, data, candidate) >= plain.error - 1e-9
        for _ in range(20):
            candidate = random_block_supported_space(scn, rng, 2)
            assert evaluate_candidate(scn, data, candidate) >= extra.error - 1e-9

        # the constrained optimizer's output passes criteria 5 and 6
        report = check_extra_invariance(scn, extra.space)
        assert report.extra_invariant
        assert report.decomposition_deviation < PROJECTOR_TOL
        dec = check_decomposable(scn, extra.space)
        assert dec.decomposable
    assert time.perf_counter() - start < 60.0


def test_c9_sequence_cross_oracle(invariance_sweep):
    checked = 0
    failures = []
    for name, scn, space, report in invariance_sweep:
        if not report.extra_invariant:
            continue
        checked += 1
        if not oracle.range_function_consistency(scn, space):
            failures.append((name, space.dim))
    assert checked > 0
    assert failures == []
