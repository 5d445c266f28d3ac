"""Weighted finite point sets carrying a free action of a finite abelian group.

The action is entered as one permutation per generator of the standard
presentation (one generator per modulus).  A free action is, by
orbit-stabiliser, the regular action on ``n_points / group.order`` copies
of the group up to a relabelling of the points, and that relabelling is
all that is stored: ``point_of[c, t]`` is the image under element ``t`` of
the smallest point of orbit ``c``, and every point has the coordinates
(orbit, element index) of its place in ``point_of``.  It is composed and
validated on first use; every translation is index arithmetic on it.

A positive weight per point plays the role of the measure.  The action is
only required to be quasi-invariant: the weight ratio

    jacobian(tau, x) = weight(sigma_tau(x)) / weight(x)

enters the unitary representation

    translate(tau, f)(x) = jacobian(-tau, x)**0.5 * f(sigma_{-tau}(x)),

which is unitary for the weighted inner product and satisfies
``translate(a, translate(b, f)) == translate(a + b, f)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ActionError, FreenessError, OrbitError, TheoremViolationError
from .groups import CosetSection, FiniteAbelianGroup, Subgroup, _orbit_minimum


class ActionSpace:
    """Points ``0..n_points-1`` with weights and their orbit coordinates."""

    def __init__(
        self,
        group: FiniteAbelianGroup,
        n_points: int,
        generator_perms: Sequence[Sequence[int]],
        weights: Sequence[float] | None = None,
    ):
        self.group = group
        n = int(n_points)
        if n < 1:
            raise ValueError("need at least one point")
        self.n_points = n
        if len(generator_perms) != group.rank:
            raise ActionError(
                f"expected {group.rank} generator permutations "
                f"(one per modulus), got {len(generator_perms)}"
            )
        perms = []
        for j, p in enumerate(generator_perms):
            arr = np.asarray(p, dtype=np.intp)
            if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
                raise ActionError(
                    f"generator permutation {j} is not a permutation of 0..{n - 1}"
                )
            perms.append(arr)
        self.generator_perms = perms
        if weights is None:
            w = np.ones(n, dtype=float)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise ValueError(f"weights must have shape ({n},)")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if not np.all(w > 0):
                raise ValueError("weights must be strictly positive")
        self.weights = w

    @cached_property
    def point_of(self) -> np.ndarray:
        """``[c, t]`` is the image under ``elements[t]`` of orbit c's smallest point.

        Shape (orbits, group.order), read-only.  Composed and validated on
        first use; data that is not a free action raises the errors of
        :func:`validate_action` here, on every access.
        """
        return _orbit_points(self)

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point's (orbit, element index): its place in ``point_of``."""
        point_of = self.point_of
        orbit_of = np.empty(self.n_points, dtype=np.intp)
        element_of = np.empty(self.n_points, dtype=np.intp)
        orbit_of[point_of] = np.arange(len(point_of))[:, None]
        element_of[point_of] = np.arange(self.group.order)
        return orbit_of, element_of

    @classmethod
    def regular(
        cls,
        group: FiniteAbelianGroup,
        orbits: int = 1,
        weights: Sequence[float] | None = None,
    ) -> "ActionSpace":
        """Disjoint union of ``orbits`` copies of the group acting on itself.

        Point ``o * group.order + i`` is element ``i`` of copy ``o``; each
        generator acts by group addition within a copy.
        """
        n = orbits * group.order
        copies = np.arange(orbits)[:, None] * group.order
        perms = [
            (copies + group.indices(group.coords + unit)).ravel()
            for unit in np.eye(group.rank, dtype=np.int64)
        ]
        return cls(group, n, perms, weights)

    def sigma(self, tau: Iterable[int]) -> np.ndarray:
        """Permutation of ``tau``: ``sigma(tau)[x]`` is the image of x.

        ``tau`` moves the element coordinate only:
        ``sigma_tau(point_of[c, t]) == point_of[c, t + tau]``.
        """
        group = self.group
        orbit_of, element_of = self.coordinates
        shifted = group.indices(group.coords + group.reduce(tau))
        return self.point_of[orbit_of, shifted[element_of]]

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Weighted inner product, conjugate-linear in the second slot."""
        return complex(np.sum(f * np.conj(g) * self.weights))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(f) ** 2 * self.weights)))


@dataclass(frozen=True)
class ActionReport:
    n_points: int
    group_order: int
    orbit_count: int
    orbits: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict:
        return {
            "points": self.n_points,
            "group_order": self.group_order,
            "orbit_count": self.orbit_count,
            "free": True,
        }


def validate_action(action: ActionSpace) -> ActionReport:
    """Verify the data is a free group action; report the orbit structure.

    The checks run once, when ``action.point_of`` is first composed (see
    :func:`_orbit_points`); a failed check raises again on every call.
    """
    orbits = tuple(map(tuple, np.sort(action.point_of, axis=1).tolist()))
    return ActionReport(action.n_points, action.group.order, len(orbits), orbits)


def _orbit_points(action: ActionSpace) -> np.ndarray:
    """Compose ``point_of`` from the generator permutations, checking as it goes.

    Checks, in order: the group law, divisibility of the point count by
    the group order, freeness (no fixed point for nonzero elements).

    The law is checked on the generators.  Element ``t`` acts as
    ``p_{k-1}^{t_{k-1}} o ... o p_0^{t_0}`` through the generator
    permutations ``p_j``, which is a homomorphism from the group exactly
    when the ``p_j`` commute pairwise and ``p_j`` composed ``n_j`` times is
    the identity, for every ``j`` with ``n_j > 1`` (a coordinate of modulus
    1 only ever uses ``p_j^0``).  Those relations let the product
    ``sigma(a) o sigma(b)`` of generator powers be reordered and its
    exponents reduced modulo the moduli, giving ``sigma(a + b)``.
    Conversely, a homomorphism maps the commuting unit elements ``e_j`` to
    the ``p_j``, so they commute, and ``p_j^{n_j} = sigma(n_j e_j) =
    sigma(0)``, the identity.  The cost is O((rank^2 + sum of log moduli) * n)
    instead of the |G|^2 element pairs.

    The orbits come from labelling every point with the smallest point of
    its orbit: each label starts as the point itself and, generator by
    generator, becomes the minimum over ``p_j^k`` of the labels for ``k``
    up to ``n_j``, taken by doubling the step (the propagation of
    :func:`coset_section`).  Under the group law that is the minimum over
    the whole orbit.  The action is free exactly when there are
    ``n / |G|`` orbits, since every orbit has at most |G| points
    (orbit-stabiliser); otherwise the smallest point with a nontrivial
    stabiliser is the smallest orbit minimum of an orbit with fewer points,
    and the error names the smallest nonzero element fixing it.  The
    columns of all orbits are then composed together, one pass per
    generator, and checked to be a permutation of the points.
    """
    group, n = action.group, action.n_points
    perms = action.generator_perms
    ident = np.arange(n)
    used = [j for j, modulus in enumerate(group.moduli) if modulus > 1]
    for j in used:
        modulus = group.moduli[j]
        # p_j^{n_j} by repeated squaring
        power, step, k = ident, perms[j], modulus
        while k:
            if k & 1:
                power = step[power]
            step, k = step[step], k >> 1
        if not np.array_equal(power, ident):
            raise ActionError(
                f"generator {j} composed {modulus} times is not the identity"
            )
    for pos, i in enumerate(used):
        for j in used[pos + 1 :]:
            if not np.array_equal(perms[i][perms[j]], perms[j][perms[i]]):
                raise ActionError(f"generators {i} and {j} do not commute")
    if n % group.order:
        raise OrbitError(
            f"{n} points cannot split into free orbits of size {group.order}"
        )
    labels = ident
    for j in used:
        labels = _orbit_minimum(labels, perms[j], group.moduli[j])
    reps = np.flatnonzero(labels == ident)
    if len(reps) != n // group.order:
        sizes = np.bincount(labels, minlength=n)[reps]
        x = int(reps[np.argmax(sizes < group.order)])
        stabiliser = np.flatnonzero(_compose_orbits(action, [x])[0] == x)
        raise FreenessError(
            f"element {group.elements[stabiliser[1]]} fixes point {x}"
        )
    point_of = _compose_orbits(action, reps)
    if np.any(np.bincount(point_of.ravel(), minlength=n) != 1):
        raise TheoremViolationError(
            "free action orbits do not partition the points",
            details={"orbits": len(reps), "expected": n // group.order},
        )
    point_of.flags.writeable = False
    return point_of


def _compose_orbits(action: ActionSpace, starts: np.ndarray) -> np.ndarray:
    """``[c, t]``: the image of ``starts[c]`` under ``elements[t]``.

    Element ``t`` acts as ``p_{k-1}^{t_{k-1}} o ... o p_0^{t_0}``; one pass
    per generator grows every row at once, coordinate j varying fastest so
    far, which is the lexicographic order of the elements.
    """
    images = np.asarray(starts, dtype=np.intp)[:, None]
    for p, modulus in zip(action.generator_perms, action.group.moduli):
        grown = np.empty(images.shape + (modulus,), dtype=np.intp)
        grown[..., 0] = images
        for c in range(1, modulus):
            grown[..., c] = p[grown[..., c - 1]]
        images = grown.reshape(len(images), -1)
    return images


def jacobian(action: ActionSpace, tau: Iterable[int], x: int | None = None):
    """Weight ratio of the action: ``weights[sigma_tau(x)] / weights[x]``.

    With ``x`` omitted, returns the whole row over all points.  Satisfies
    the cocycle rule ``jacobian(a + b, x) == jacobian(a, sigma_b(x)) *
    jacobian(b, x)``.
    """
    row = action.sigma(tau)
    ratios = action.weights[row] / action.weights
    if x is None:
        return ratios
    return float(ratios[int(x)])


def translate(action: ActionSpace, tau: Iterable[int], f: np.ndarray) -> np.ndarray:
    """Apply the weighted translation unitary for ``tau`` (columnwise on 2-D)."""
    f = np.asarray(f)
    if f.shape[0] != action.n_points:
        raise ValueError(
            f"function has {f.shape[0]} entries, space has {action.n_points} points"
        )
    row = action.sigma(action.group.neg(tau))
    jhalf = np.sqrt(action.weights[row] / action.weights)
    if f.ndim == 1:
        return jhalf * f[row]
    return jhalf[:, None] * f[row]


@dataclass(frozen=True)
class TilingSet:
    """Orbit representatives and the base-subgroup tile derived from them.

    ``orbit_reps`` picks the smallest point of every orbit.  ``tiles`` is
    the union of the images of ``orbit_reps`` under ``sigma(-a)`` for the
    transversal representatives ``a``; it is ordered transversal-major, so
    position ``j * len(orbit_reps) + c`` holds ``sigma_{-a_j}(orbit_reps[c])``.
    Both sets tile the point set: the group translates of ``orbit_reps``
    and the base-subgroup translates of ``tiles`` each partition it.
    """

    orbit_reps: tuple[int, ...]
    tiles: tuple[int, ...]


def tiling_sets(
    action: ActionSpace, base: Subgroup, transversal: CosetSection
) -> TilingSet:
    validate_action(action)
    group = action.group
    if transversal.subgroup != base:
        raise ValueError("transversal must be a section for the base subgroup")
    reps = action.point_of[:, 0]
    negs = group.indices(-group.coords[transversal.rep_indices])
    tiles = action.point_of[:, negs].T.ravel()
    if np.any(np.bincount(tiles, minlength=action.n_points) > 1):
        raise FreenessError("tile points collide; action cannot be free")
    _assert_partition(action, base.indices, tiles)
    _assert_partition(action, np.arange(group.order), reps)
    return TilingSet(orbit_reps=tuple(reps.tolist()), tiles=tuple(tiles.tolist()))


def _assert_partition(action: ActionSpace, movers: np.ndarray, cell) -> None:
    """Translates of ``cell`` by the element indices ``movers`` hit each point once."""
    group = action.group
    orbit_of, element_of = action.coordinates
    coords = group.coords
    shifted = group.indices(coords[movers][:, None] + coords[element_of[cell]][None, :])
    images = action.point_of[orbit_of[cell][None, :], shifted]
    cover = np.bincount(images.ravel(), minlength=action.n_points)
    if not np.all(cover == 1):
        raise FreenessError("translates of the tile do not partition the point set")
