"""Weighted finite point sets carrying a free action of a finite abelian group.

The action is entered as one permutation per generator of the standard
presentation (one generator per modulus).  The full action table is composed
and validated up front; everything downstream indexes into that table.

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
from typing import Iterable, Sequence

import numpy as np

from .errors import ActionError, FreenessError, OrbitError, TheoremViolationError
from .groups import CosetSection, Element, FiniteAbelianGroup, Subgroup


class ActionSpace:
    """Points ``0..n_points-1`` with weights and a composed action table."""

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
        self.table = self._compose_table()

    def _compose_table(self) -> np.ndarray:
        n = self.n_points
        powers = []
        for j, p in enumerate(self.generator_perms):
            rows = [np.arange(n, dtype=np.intp)]
            for _ in range(self.group.moduli[j] - 1):
                rows.append(p[rows[-1]])
            powers.append(rows)
        table = np.empty((self.group.order, n), dtype=np.intp)
        for i, el in enumerate(self.group.elements):
            row = np.arange(n, dtype=np.intp)
            for j, c in enumerate(el):
                if c:
                    row = powers[j][c][row]
            table[i] = row
        return table

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
        perms = []
        for j in range(group.rank):
            gen = tuple(1 if t == j else 0 for t in range(group.rank))
            perm = np.empty(n, dtype=np.intp)
            for o in range(orbits):
                for i, el in enumerate(group.elements):
                    perm[o * group.order + i] = o * group.order + group.index(
                        group.add(el, gen)
                    )
            perms.append(perm)
        return cls(group, n, perms, weights)

    def sigma(self, tau: Iterable[int]) -> np.ndarray:
        """Permutation row of ``tau``: ``sigma(tau)[x]`` is the image of x."""
        return self.table[self.group.index(tau)]

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
    """Verify the table is a free group action; report the orbit structure.

    Checks, in order: the group law on the composed table (identity row and
    additivity over all element pairs), divisibility of the point count by
    the group order, freeness (no fixed point for nonzero elements).
    """
    group, table, n = action.group, action.table, action.n_points
    ident = np.arange(n)
    if not np.array_equal(table[group.index(group.zero)], ident):
        raise ActionError("identity element does not act as the identity")
    for i, a in enumerate(group.elements):
        for j, b in enumerate(group.elements):
            k = group.index(group.add(a, b))
            if not np.array_equal(table[i][table[j]], table[k]):
                raise ActionError(
                    f"additivity fails: sigma({a}) o sigma({b}) != sigma({group.add(a, b)})"
                )
    if n % group.order:
        raise OrbitError(
            f"{n} points cannot split into free orbits of size {group.order}"
        )
    for i, el in enumerate(group.elements):
        if el == group.zero:
            continue
        if np.any(table[i] == ident):
            x = int(np.flatnonzero(table[i] == ident)[0])
            raise FreenessError(f"element {el} fixes point {x}")
    seen = np.zeros(n, dtype=bool)
    orbits = []
    for x in range(n):
        if not seen[x]:
            orb = np.sort(table[:, x])
            seen[orb] = True
            orbits.append(tuple(int(v) for v in orb))
    if len(orbits) != n // group.order:
        raise TheoremViolationError(
            "free action has orbits of the wrong size",
            details={"orbits": len(orbits), "expected": n // group.order},
        )
    return ActionReport(n, group.order, len(orbits), tuple(orbits))


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
    rep_position: dict[int, int]
    tile_position: dict[int, int]


def tiling_sets(
    action: ActionSpace, base: Subgroup, transversal: CosetSection
) -> TilingSet:
    report = validate_action(action)
    group = action.group
    if transversal.subgroup != base:
        raise ValueError("transversal must be a section for the base subgroup")
    reps = tuple(min(orb) for orb in report.orbits)
    tiles = []
    for a in transversal.representatives:
        row = action.sigma(group.neg(a))
        tiles.extend(int(row[x]) for x in reps)
    if len(set(tiles)) != len(tiles):
        raise FreenessError("tile points collide; action cannot be free")
    _assert_partition(action, base.elements, tiles)
    _assert_partition(action, group.elements, reps)
    return TilingSet(
        orbit_reps=reps,
        tiles=tuple(tiles),
        rep_position={x: i for i, x in enumerate(reps)},
        tile_position={x: i for i, x in enumerate(tiles)},
    )


def _assert_partition(action: ActionSpace, movers: Sequence[Element], cell) -> None:
    cover = np.zeros(action.n_points, dtype=int)
    cell = np.asarray(cell, dtype=np.intp)
    for el in movers:
        cover[action.sigma(el)[cell]] += 1
    if not np.all(cover == 1):
        raise FreenessError("translates of the tile do not partition the point set")
