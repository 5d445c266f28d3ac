"""Shared scenarios and random-space builders for the test suite.

Six scenarios cover the shapes the package must handle: trivial and
nontrivial base subgroups, uniform and non-uniform weights, one and two
orbits, a non-cyclic product group, and a three-block dual partition.
"""
import re

import numpy as np
import pytest

from actinv import (
    ActionSpace,
    FiniteAbelianGroup,
    Scenario,
    Subgroup,
    Subspace,
    canonical_extra_invariant,
    dual_partition,
    mask_apply,
    span_invariant,
)
from actinv.spaces import fibers_from_matrix

SCENARIO_NAMES = [
    "shear",
    "dilation",
    "chain12",
    "two_orbits",
    "product",
    "three_blocks",
]


def build_scenario(name):
    if name == "shear":
        g = FiniteAbelianGroup([6])
        return Scenario(
            g, Subgroup(g, []), Subgroup(g, [(3,)]), ActionSpace.regular(g)
        )
    if name == "dilation":
        g = FiniteAbelianGroup([4])
        act = ActionSpace.regular(g, weights=[1.0, 2.0, 4.0, 8.0])
        return Scenario(g, Subgroup(g, []), Subgroup(g, [(2,)]), act)
    if name == "chain12":
        g = FiniteAbelianGroup([12])
        return Scenario(
            g, Subgroup(g, [(4,)]), Subgroup(g, [(2,)]), ActionSpace.regular(g)
        )
    if name == "two_orbits":
        g = FiniteAbelianGroup([12])
        w = (np.arange(24) % 5 + 1).astype(float)
        act = ActionSpace.regular(g, orbits=2, weights=w)
        return Scenario(g, Subgroup(g, [(4,)]), Subgroup(g, [(2,)]), act)
    if name == "product":
        g = FiniteAbelianGroup([2, 4])
        act = ActionSpace.regular(g, weights=[1.0, 2.0, 0.5, 1.5, 3.0, 1.0, 2.5, 0.75])
        return Scenario(g, Subgroup(g, [(0, 2)]), Subgroup(g, [(0, 1)]), act)
    if name == "three_blocks":
        g = FiniteAbelianGroup([9])
        return Scenario(
            g, Subgroup(g, []), Subgroup(g, [(3,)]), ActionSpace.regular(g)
        )
    raise KeyError(name)


@pytest.fixture(scope="session")
def bank():
    return {name: build_scenario(name) for name in SCENARIO_NAMES}


@pytest.fixture(params=SCENARIO_NAMES)
def scn(request, bank):
    return bank[request.param]


@pytest.fixture
def shear(bank):
    return bank["shear"]


@pytest.fixture
def dilation(bank):
    return bank["dilation"]


@pytest.fixture
def chain12(bank):
    return bank["chain12"]


@pytest.fixture
def product(bank):
    return bank["product"]


# -- random inputs -------------------------------------------------------------


def random_function(scn, rng):
    n = scn.action.n_points
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_block_supported_space(scn, rng, ell):
    """A base-invariant space assembled from single-block fiber vectors.

    Every fiber is spanned by vectors supported in one coordinate block, so
    the space is always invariant under the extra subgroup; its length is
    at most ``ell``.
    """
    c = len(scn.tiling.orbit_reps)
    kc = scn.n_cosets * c
    stacked = np.zeros((scn.n_fibers, kc, ell), dtype=complex)
    for w in range(scn.n_fibers):
        for j in range(ell):
            pos = int(rng.integers(0, len(dual_partition(scn).rows)))
            sel = dual_partition(scn).rows[pos]
            stacked[w, sel, j] = rng.standard_normal(sel.size) + 1j * rng.standard_normal(
                sel.size
            )
    gens = fibers_from_matrix(scn, stacked)
    return span_invariant(scn, gens)


def random_invariant_space(scn, rng):
    """A base-invariant subspace of a randomly drawn construction kind.

    The mix matters: principal and finitely generated spaces are generically
    not extra-invariant, masked images and block-supported assemblies are,
    and the canonical space always is.
    """
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return span_invariant(scn, random_function(scn, rng)[:, None])
    if kind == 1:
        k = int(rng.integers(2, 4))
        gens = np.column_stack([random_function(scn, rng) for _ in range(k)])
        return span_invariant(scn, gens)
    if kind == 2:
        seed_space = span_invariant(scn, random_function(scn, rng)[:, None])
        part = dual_partition(scn)
        xi = part.labels[int(rng.integers(0, len(part.labels)))]
        masked = mask_apply(scn, xi, seed_space.frame)
        return span_invariant(scn, masked)
    if kind == 3:
        return random_block_supported_space(scn, rng, int(rng.integers(1, 3)))
    return canonical_extra_invariant(scn)


# -- acceptance gate summary ---------------------------------------------------

ACCEPTANCE_LABELS = {
    1: "dual-partition golden values",
    2: "transform isometry suite",
    3: "matrix relation and coset table unitarity",
    4: "principal membership vs projector oracle",
    5: "extra-invariance equivalence sweep",
    6: "fiberwise decomposability agreement",
    7: "canonical extra-invariant construction",
    8: "approximation optimality",
    9: "sequence-space cross-oracle",
}

_ACCEPTANCE_RE = re.compile(r"test_acceptance\.py::test_c(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _ACCEPTANCE_RE.search(getattr(rep, "nodeid", ""))
            if m:
                num = int(m.group(1))
                ok = verdicts.get(num, True) and status == "passed"
                verdicts[num] = ok
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(verdicts):
        word = "PASS" if verdicts[num] else "FAIL"
        label = ACCEPTANCE_LABELS.get(num, "")
        terminalreporter.write_line(f"criterion {num}: {word} - {label}")
