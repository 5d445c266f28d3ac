"""Finite abelian groups: elements, subgroups, duality, coset sections.

Elements are plain coordinate tuples.  A group ``Z_n1 x ... x Z_nk`` is
identified with its own dual through the pairing

    pairing(x, xi) = exp(2 pi i * sum_j x_j xi_j / n_j),

so dual objects (annihilators, sections of dual quotients) are ordinary
subgroups and sections of the same group object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import ChainError, TheoremViolationError

Element = tuple[int, ...]


class FiniteAbelianGroup:
    """The direct product of cyclic groups given by a tuple of moduli.

    Elements are enumerated once, in lexicographic order of their
    coordinate tuples, and all derived objects (subgroups, sections,
    transforms) refer to positions in that enumeration.
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
        self.elements: list[Element] = list(product(*(range(n) for n in mods)))
        self._index: dict[Element, int] = {el: i for i, el in enumerate(self.elements)}
        # Common denominator for exact character phases.
        self._lcm = math.lcm(*mods)
        self._scale = tuple(self._lcm // n for n in mods)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup{self.moduli}"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, coords: Iterable[int]) -> Element:
        """Reduce coordinates modulo the moduli; rejects wrong arity."""
        c = tuple(int(v) for v in coords)
        if len(c) != self.rank:
            raise ValueError(
                f"element has {len(c)} coordinates, group has rank {self.rank}"
            )
        return tuple(v % n for v, n in zip(c, self.moduli))

    def add(self, a: Iterable[int], b: Iterable[int]) -> Element:
        a, b = self.reduce(a), self.reduce(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.moduli))

    def neg(self, a: Iterable[int]) -> Element:
        a = self.reduce(a)
        return tuple((-x) % n for x, n in zip(a, self.moduli))

    def sub(self, a: Iterable[int], b: Iterable[int]) -> Element:
        return self.add(a, self.neg(b))

    def index(self, el: Iterable[int]) -> int:
        return self._index[self.reduce(el)]

    def phase_numerator(self, x: Iterable[int], xi: Iterable[int]) -> int:
        """Numerator of the pairing phase over the common denominator lcm(moduli).

        ``pairing(x, xi) == exp(2 pi i * numerator / lcm)``; the numerator is
        exact integer arithmetic, so ``numerator == 0`` iff the pairing is
        exactly one.
        """
        x, xi = self.reduce(x), self.reduce(xi)
        num = sum(a * b * s for a, b, s in zip(x, xi, self._scale))
        return num % self._lcm

    def pairing(self, x: Iterable[int], xi: Iterable[int]) -> complex:
        """Character value of the (self-)dual pairing; exactly 1 when trivial."""
        num = self.phase_numerator(x, xi)
        if num == 0:
            return complex(1.0)
        return complex(np.exp(2j * np.pi * num / self._lcm))

    def pairing_is_one(self, x: Iterable[int], xi: Iterable[int]) -> bool:
        return self.phase_numerator(x, xi) == 0

    def char_matrix(self, xs: Sequence[Element], xis: Sequence[Element]) -> np.ndarray:
        """Matrix of pairings ``[i, j] -> pairing(xs[i], xis[j])``."""
        a = np.array([self.reduce(x) for x in xs], dtype=np.int64)
        b = np.array([self.reduce(x) for x in xis], dtype=np.int64)
        scale = np.array(self._scale, dtype=np.int64)
        nums = (a * scale) @ b.T % self._lcm
        return np.exp(2j * np.pi * nums / self._lcm)


class Subgroup:
    """A subgroup, closed over from a generator list (or explicit elements).

    ``elements`` is the full element list in lexicographic order; the zero
    element always comes first.
    """

    def __init__(self, group: FiniteAbelianGroup, generators: Iterable[Iterable[int]]):
        self.group = group
        self.generators: list[Element] = [group.reduce(g) for g in generators]
        self.elements: list[Element] = sorted(_closure(group, self.generators))
        self._members = frozenset(self.elements)
        self.order = len(self.elements)

    @classmethod
    def from_elements(
        cls, group: FiniteAbelianGroup, elements: Iterable[Iterable[int]]
    ) -> "Subgroup":
        """Build from an explicit element set, deriving a small generator list."""
        members = {group.reduce(e) for e in elements}
        if group.zero not in members:
            raise ValueError("subgroup must contain the zero element")
        for a in members:
            if group.neg(a) not in members:
                raise ValueError(f"set not closed under negation at {a}")
            for b in members:
                if group.add(a, b) not in members:
                    raise ValueError(f"set not closed under addition at {a} + {b}")
        gens: list[Element] = []
        have: set[Element] = {group.zero}
        for el in sorted(members):
            if el not in have:
                gens.append(el)
                have = _closure(group, gens)
        sub = cls(group, gens)
        if set(sub.elements) != members:
            raise TheoremViolationError(
                "derived generators do not regenerate the element set",
                details={"members": len(members), "closure": sub.order},
            )
        return sub

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, generators={self.generators})"

    def __contains__(self, el) -> bool:
        return self.group.reduce(el) in self._members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self._members == other._members
        )

    def __hash__(self) -> int:
        return hash((self.group, self._members))

    def issubset(self, other: "Subgroup") -> bool:
        return self._members <= other._members

    @property
    def index(self) -> int:
        """Index of the subgroup in the ambient group."""
        return self.group.order // self.order


def _closure(group: FiniteAbelianGroup, generators: list[Element]) -> set[Element]:
    seen = {group.zero}
    frontier = [group.zero]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                b = group.add(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def annihilator(sub: Subgroup) -> Subgroup:
    """All dual elements pairing trivially with every element of ``sub``.

    Uses the exact integer phase test, so membership is never a floating
    point decision.  Satisfies ``order * annihilator.order == group.order``
    and double application returns the original subgroup.
    """
    group = sub.group
    probes = sub.generators if sub.generators else [group.zero]
    members = [
        xi
        for xi in group.elements
        if all(group.phase_numerator(h, xi) == 0 for h in probes)
    ]
    return Subgroup.from_elements(group, members)


@dataclass(frozen=True)
class CosetSection:
    """Coset representatives for ``domain / subgroup``, one per coset.

    Each representative is the lexicographically smallest element of its
    coset; representatives are listed in lexicographic order, so the zero
    element always represents the trivial coset and sits at position 0.
    ``domain`` is the whole group unless the section is taken inside a
    subgroup (used for quotients of nested subgroups).
    """

    group: FiniteAbelianGroup
    subgroup: Subgroup
    representatives: tuple[Element, ...]
    _position: dict[Element, int] = field(repr=False, hash=False, compare=False)

    def rep_of(self, el: Iterable[int]) -> Element:
        """Representative of the coset containing ``el``."""
        return self.representatives[self.position_of(el)]

    def position_of(self, el: Iterable[int]) -> int:
        """Position (coset index) of the coset containing ``el``."""
        key = self.group.reduce(el)
        if key not in self._position:
            raise KeyError(f"{key} is not in the section's domain")
        return self._position[key]

    def __len__(self) -> int:
        return len(self.representatives)


def coset_section(
    group: FiniteAbelianGroup,
    subgroup: Subgroup,
    within: Subgroup | None = None,
) -> CosetSection:
    """Lexicographically smallest coset representatives of ``subgroup``.

    With ``within`` given, representatives are chosen for the quotient
    ``within / subgroup`` (requires ``subgroup <= within``).
    """
    if subgroup.group != group:
        raise ValueError("subgroup belongs to a different group")
    if within is not None and not subgroup.issubset(within):
        raise ValueError("section inside a subgroup requires a nested pair")
    domain = within.elements if within is not None else group.elements
    rep_of: dict[Element, Element] = {}
    for el in domain:
        rep_of[el] = min(group.add(el, h) for h in subgroup.elements)
    reps = tuple(sorted(set(rep_of.values())))
    pos = {rep: i for i, rep in enumerate(reps)}
    position = {el: pos[rep] for el, rep in rep_of.items()}
    expected = len(domain) // subgroup.order
    if len(reps) != expected:
        raise TheoremViolationError(
            "section does not cover every coset exactly once",
            details={"representatives": len(reps), "cosets": expected},
        )
    return CosetSection(group, subgroup, reps, position)


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
