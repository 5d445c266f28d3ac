"""Exception types shared across the package."""
from __future__ import annotations


class ChainError(ValueError):
    """The two subgroups do not form a nested chain inside the ambient group."""


class ActionError(ValueError):
    """The supplied permutation data does not define a group action."""


class FreenessError(ActionError):
    """The action has a fixed point for a nonzero group element."""


class OrbitError(ActionError):
    """The point count is not a multiple of the group order."""


class InvarianceError(ValueError):
    """An operation required a subspace invariant under the base subgroup."""


class DegenerateGeneratorError(ValueError):
    """A generator that must be nonzero was (numerically) zero."""


class ConfigError(ValueError):
    """Malformed run configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class TheoremViolationError(RuntimeError):
    """A quantity missed, beyond roundoff, a bound the theorem derives for it.

    This signals a bug, never a property of the input data, for any
    ``tol`` well below 1/2.  A block leak is at most 1/2, so at a ``tol``
    of 1/2 or more every space passes the extra-invariance verdict, and
    its components' structure laws, which assume few directions near the
    cut, may then fail.
    """

    def __init__(self, message: str, details: dict | None = None):
        self.details = details or {}
        super().__init__(message)
