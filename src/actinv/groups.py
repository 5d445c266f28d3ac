"""Finite abelian groups: elements, subgroups, duality, coset sections.

Elements are plain coordinate tuples.  A group ``Z_n1 x ... x Z_nk`` is
identified with its own dual through the pairing

    pairing(x, xi) = exp(2 pi i * sum_j x_j xi_j / n_j),

so dual objects (annihilators, sections of dual quotients) are ordinary
subgroups and sections of the same group object.

Bulk work runs on integer arrays: ``FiniteAbelianGroup.coords`` holds every
element's coordinates in C (lexicographic) order, so an element's index is
``np.ravel_multi_index`` of its reduced coordinates, and comparing indices
compares elements lexicographically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ChainError, TheoremViolationError

Element = tuple[int, ...]


class FiniteAbelianGroup:
    """The direct product of cyclic groups given by a tuple of moduli.

    Elements are enumerated once, in lexicographic order of their
    coordinate tuples, and all derived objects (subgroups, sections,
    transforms) refer to positions in that enumeration: the rows of
    ``coords``.  ``elements`` is the tuple view of those rows, built on
    first read; the library reads single tuples (:meth:`element`).
    """

    def __init__(self, moduli: Sequence[int]):
        mods = tuple(int(n) for n in moduli)
        if not mods:
            raise ValueError("need at least one modulus")
        if any(n < 1 for n in mods):
            raise ValueError(f"moduli must be positive, got {mods}")
        self.moduli = mods
        self.rank = len(mods)
        self.order = math.prod(mods)
        # Row i holds the coordinates of element index i.
        self.coords = np.indices(mods, dtype=np.int64).reshape(self.rank, -1).T.copy()
        self.coords.flags.writeable = False
        self._strides = tuple(math.prod(mods[j + 1 :]) for j in range(self.rank))
        # Common denominator for exact character phases.
        self._lcm = math.lcm(*mods)
        self._scale = np.array([self._lcm // n for n in mods], dtype=np.int64)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup{self.moduli}"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    @cached_property
    def elements(self) -> list[Element]:
        """Every element's coordinate tuple, in index order."""
        return list(map(tuple, self.coords.tolist()))

    def element(self, i: int) -> Element:
        """The coordinate tuple of element index ``i``."""
        return tuple(self.coords[i].tolist())

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, coords: Sequence[int]) -> Element:
        """Reduce coordinates modulo the moduli.

        The boundary of every element argument: ``ValueError`` unless
        ``coords`` is a sequence (a tuple, a list or a 1-D array) of
        ``rank`` integers.  A float coordinate is refused, not truncated,
        and so is a ``bool``; numpy integers pass.
        """
        if not isinstance(coords, (tuple, list)) and not (
            isinstance(coords, np.ndarray) and coords.ndim == 1
        ):
            raise ValueError(f"element must be a sequence of integers, got {coords!r}")
        # ``type(v) is int`` refuses a bool, an int subclass
        if not all(type(v) is int or isinstance(v, np.integer) for v in coords):
            raise ValueError(f"element coordinates must be integers, got {tuple(coords)!r}")
        if len(coords) != self.rank:
            raise ValueError(
                f"element has {len(coords)} coordinates, group has rank {self.rank}"
            )
        return tuple(int(v) % n for v, n in zip(coords, self.moduli))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        a, b = self.reduce(a), self.reduce(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.moduli))

    def neg(self, a: Sequence[int]) -> Element:
        a = self.reduce(a)
        return tuple((-x) % n for x, n in zip(a, self.moduli))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return self.add(a, self.neg(b))

    def index(self, el: Sequence[int]) -> int:
        """Position in ``elements``; one element's case of :meth:`indices`."""
        return sum(c * s for c, s in zip(self.reduce(el), self._strides))

    def indices(self, coords) -> np.ndarray:
        """Element indices of coordinate rows (last axis), reduced modulo the moduli."""
        c = np.asarray(coords, dtype=np.int64)
        axes = tuple(c[..., j] for j in range(self.rank))
        return np.ravel_multi_index(axes, self.moduli, mode="wrap")

    def element_order(self, el: Element) -> int:
        """Order of the cyclic subgroup generated by a reduced element."""
        return math.lcm(*(n // math.gcd(c, n) for c, n in zip(el, self.moduli)))

    def phase_numerator(self, x: Sequence[int], xi: Sequence[int]) -> int:
        """Numerator of the pairing phase over the common denominator lcm(moduli).

        ``pairing(x, xi) == exp(2 pi i * numerator / lcm)``; the numerator is
        exact integer arithmetic, so ``numerator == 0`` iff the pairing is
        exactly one.
        """
        x, xi = self.reduce(x), self.reduce(xi)
        num = sum(a * b * int(s) for a, b, s in zip(x, xi, self._scale))
        return num % self._lcm

    def phase_numerators(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """``[i, j] = phase_numerator(xs[i], xis[j])`` for reduced coordinate rows."""
        return (xs * self._scale) @ xis.T % self._lcm

    def pairing(self, x: Sequence[int], xi: Sequence[int]) -> complex:
        """Character value of the (self-)dual pairing; exactly 1 when trivial."""
        num = self.phase_numerator(x, xi)
        if num == 0:
            return complex(1.0)
        return complex(np.exp(2j * np.pi * num / self._lcm))

    def characters(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """``[i, j] = pairing(xs[i], xis[j])`` for reduced coordinate rows."""
        return np.exp(2j * np.pi * self.phase_numerators(xs, xis) / self._lcm)


class Subgroup:
    """A subgroup, closed over from a generator list.

    ``indices`` holds the elements as sorted element indices of the group,
    so the zero element always comes first; ``elements`` is their tuple
    view in the same order, built on first read.
    """

    def __init__(self, group: FiniteAbelianGroup, generators: Iterable[Sequence[int]]):
        self.group = group
        self.generators: list[Element] = [group.reduce(g) for g in generators]
        mask = np.zeros(group.order, dtype=bool)
        mask[0] = True
        members = np.zeros(1, dtype=np.intp)
        for g in self.generators:
            members = _extend(group, members, mask, g).ravel()
        self.indices = np.flatnonzero(mask)
        self.indices.flags.writeable = False
        # indices are read-only, so the hash is fixed: a lookup keyed by the
        # subgroup costs no pass over its elements
        self._hash = hash((group, self.indices.tobytes()))
        self._mask = mask
        self.order = len(self.indices)

    @classmethod
    def _from_mask(cls, group: FiniteAbelianGroup, members: np.ndarray) -> "Subgroup":
        """Subgroup whose elements are ``members`` (a bool mask over the group).

        Generators are picked greedily: the smallest member not yet generated.
        Each pick grows the generated subgroup, which must stay inside the
        set; a set that contains zero and passes is its own closure, hence a
        subgroup.
        """
        if not members[0]:
            raise ValueError("subgroup must contain the zero element")
        have = np.zeros(group.order, dtype=bool)
        have[0] = True
        closure = np.zeros(1, dtype=np.intp)
        gens: list[Element] = []
        while True:
            missing = np.flatnonzero(members & ~have)
            if not missing.size:
                break
            g = group.element(missing[0])
            gens.append(g)
            cosets = _extend(group, closure, have, g)
            outside = ~members[cosets]
            if outside.any():
                # the first coset leaving the set follows one inside it
                k, h = np.argwhere(outside)[0]
                a = group.element(cosets[k - 1, h])
                raise ValueError(f"set not closed under addition at {a} + {g}")
            closure = cosets.ravel()
        sub = cls(group, gens)
        if not np.array_equal(sub._mask, members):
            raise TheoremViolationError(
                "derived generators do not regenerate the element set",
                details={"members": int(members.sum()), "closure": sub.order},
            )
        return sub

    @cached_property
    def elements(self) -> list[Element]:
        return list(map(tuple, self.group.coords[self.indices].tolist()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, generators={self.generators})"

    def __contains__(self, el) -> bool:
        return bool(self._mask[self.group.index(el)])

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Subgroup)
            and self.group == other.group
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return self._hash

    def issubset(self, other: "Subgroup") -> bool:
        return self.group == other.group and bool(other._mask[self.indices].all())

    @property
    def index(self) -> int:
        """Index of the subgroup in the ambient group."""
        return self.group.order // self.order


def _extend(
    group: FiniteAbelianGroup, members: np.ndarray, mask: np.ndarray, g: Element
) -> np.ndarray:
    """Cosets ``members + k*g`` of the subgroup ``members`` until ``k*g`` is in it.

    ``mask`` marks the subgroup and is updated in place to ``<members, g>``.
    Returns the indices of the grown subgroup, shape ``(cosets, len(members))``,
    row ``k`` being the coset ``members + k*g``.
    """
    steps = np.arange(group.element_order(g) + 1)[:, None] * g
    hits = mask[group.indices(steps[1:])]
    cosets = int(np.argmax(hits)) + 1  # hits[-1] is 0 = order * g, always a member
    grown = group.indices(group.coords[members][None, :, :] + steps[:cosets, None, :])
    mask[grown] = True
    return grown


def annihilator(sub: Subgroup) -> Subgroup:
    """All dual elements pairing trivially with every element of ``sub``.

    Uses the exact integer phase test, so membership is never a floating
    point decision.  Satisfies ``order * annihilator.order == group.order``
    and double application returns the original subgroup.
    """
    group = sub.group
    probes = np.array(sub.generators, dtype=np.int64).reshape(-1, group.rank)
    nums = group.phase_numerators(group.coords, probes)
    return Subgroup._from_mask(group, ~nums.any(axis=1))


@dataclass(frozen=True, eq=False)
class CosetSection:
    """Coset representatives for ``domain / subgroup``, one per coset.

    Each representative is the lexicographically smallest element of its
    coset; representatives are listed in lexicographic order, so the zero
    element always represents the trivial coset and sits at position 0.
    ``domain`` is the whole group unless the section is taken inside a
    subgroup (used for quotients of nested subgroups).  ``rep_indices``
    gives the representatives as element indices, and ``positions`` the
    coset position of every group element (-1 outside the domain);
    ``representatives`` is their tuple view, built on first read.
    """

    group: FiniteAbelianGroup
    subgroup: Subgroup
    rep_indices: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)

    @cached_property
    def representatives(self) -> tuple[Element, ...]:
        return tuple(map(tuple, self.group.coords[self.rep_indices].tolist()))

    def position_of(self, el: Sequence[int]) -> int:
        """Position (coset index) of the coset containing ``el``."""
        key = self.group.reduce(el)
        pos = int(self.positions[self.group.index(key)])
        if pos < 0:
            raise KeyError(f"{key} is not in the section's domain")
        return pos

    def __len__(self) -> int:
        return len(self.rep_indices)


def _orbit_minimum(labels: np.ndarray, step: np.ndarray, order: int) -> np.ndarray:
    """The minimum of ``labels`` over each orbit of the permutation ``step``,
    whose ``order``-th power is the identity, by doubling the step."""
    span = 1
    while span < order:
        labels = np.minimum(labels, labels[step])
        step, span = step[step], span * 2
    return labels


def coset_section(
    group: FiniteAbelianGroup,
    subgroup: Subgroup,
    within: Subgroup | None = None,
) -> CosetSection:
    """Lexicographically smallest coset representatives of ``subgroup``.

    With ``within`` given, representatives are chosen for the quotient
    ``within / subgroup`` (requires ``subgroup <= within``).

    The smallest element of a coset is its smallest index.  Every element
    starts labelled with its own index; for each generator ``g`` the label
    becomes the minimum over ``x + k*g``, taken by doubling the step, so
    after all generators it is the minimum over ``x + subgroup``.
    """
    if subgroup.group != group:
        raise ValueError("subgroup belongs to a different group")
    if within is not None and not subgroup.issubset(within):
        raise ValueError("section inside a subgroup requires a nested pair")
    labels = np.arange(group.order)
    for g in subgroup.generators:
        labels = _orbit_minimum(labels, group.indices(group.coords + g), group.element_order(g))
    domain = within.indices if within is not None else np.arange(group.order)
    # the distinct labels, sorted (np.unique would load numpy.ma)
    reps = np.flatnonzero(np.bincount(labels[domain], minlength=group.order))
    positions = np.full(group.order, -1, dtype=np.intp)
    positions[domain] = np.searchsorted(reps, labels[domain])
    expected = len(domain) // subgroup.order
    if len(reps) != expected:
        raise TheoremViolationError(
            "section does not cover every coset exactly once",
            details={"representatives": len(reps), "cosets": expected},
        )
    reps.flags.writeable = False
    positions.flags.writeable = False
    return CosetSection(group, subgroup, reps, positions)


@dataclass(frozen=True)
class ChainReport:
    """Validated nesting data for base <= extra <= group."""

    index_base: int  # [group : base], written s+1 elsewhere
    index_extra: int  # [group : extra]
    index_between: int  # [extra : base]
    base_annihilator: Subgroup
    extra_annihilator: Subgroup

    def as_dict(self) -> dict:
        return {
            "index_base": self.index_base,
            "index_extra": self.index_extra,
            "index_between": self.index_between,
            "base_annihilator": [list(e) for e in self.base_annihilator.elements],
            "extra_annihilator": [list(e) for e in self.extra_annihilator.elements],
        }


def validate_chain(
    base: Subgroup, extra: Subgroup, group: FiniteAbelianGroup
) -> ChainReport:
    """Check base <= extra <= group and report indices and annihilators.

    Raises :class:`ChainError` when the subgroups are not nested.  The
    annihilator of ``extra`` is always contained in the annihilator of
    ``base``; that containment is checked, not reported, since it cannot
    fail for a valid chain (a failure raises :class:`TheoremViolationError`).
    """
    if base.group != group or extra.group != group:
        raise ChainError("subgroups belong to a different ambient group")
    if not base.issubset(extra):
        raise ChainError(
            f"base subgroup (order {base.order}) is not contained in the "
            f"extra subgroup (order {extra.order})"
        )
    base_ann = annihilator(base)
    extra_ann = annihilator(extra)
    if not extra_ann.issubset(base_ann):
        raise TheoremViolationError(
            "annihilator of the extra subgroup is not inside the base annihilator"
        )
    return ChainReport(
        index_base=base.index,
        index_extra=extra.index,
        index_between=extra.order // base.order,
        base_annihilator=base_ann,
        extra_annihilator=extra_ann,
    )
