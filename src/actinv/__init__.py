"""Invariant subspaces of weighted finite abelian group actions.

Zak-type transforms, invariance tests, the extra-invariance equivalence
under a larger subgroup, and least-squares approximation by invariant
subspaces, all over finite weighted point sets.
"""
from .actions import (
    ActionSpace,
    ActionReport,
    TilingSet,
    jacobian,
    tiling_sets,
    translate,
    validate_action,
)
from .approx import ApproxResult, best_extra_invariant, best_invariant, evaluate_candidate
from .errors import (
    ActionError,
    ChainError,
    ConfigError,
    DegenerateGeneratorError,
    FreenessError,
    InvarianceError,
    OrbitError,
    TheoremViolationError,
)
from .extra import (
    DualPartition,
    ExtraInvarianceReport,
    DecomposabilityReport,
    canonical_extra_invariant,
    check_decomposable,
    check_extra_invariance,
    dual_partition,
    mask_apply,
    masked_component,
)
from .groups import (
    ChainReport,
    CosetSection,
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    coset_section,
    validate_chain,
)
from .scenario import Scenario
from .spaces import (
    FiberMultiplier,
    Subspace,
    fiber_generators,
    is_invariant,
    length,
    principal_membership,
    span_invariant,
)
from .zak import (
    unfold_orbits,
    fold_orbits,
    zak_base,
    zak_base_inv,
    zak_full,
    zak_full_inv,
    zak_relation_deviation,
    zak_stacked,
    zak_stacked_inv,
)

__version__ = "0.1.0"
