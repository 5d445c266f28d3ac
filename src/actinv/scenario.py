"""The validated bundle every transform works against.

A :class:`Scenario` ties together a finite abelian group, a nested pair of
subgroups (the *base* subgroup whose invariance defines the subspaces under
study, and the larger *extra* subgroup tested for additional invariance),
and a free weighted action.  Construction validates the chain, the action,
and the tilings; the transforms' index tables are column selections of the
action's orbit coordinates.

Naming used throughout the package:

* ``transversal``      - coset representatives of group / base, zero first;
* ``orbit_reps``       - smallest point of each orbit;
* ``tiles``            - tile of the base subgroup built from ``orbit_reps``;
* ``dual_section``     - coset representatives of dual / base-annihilator
                         (the fiber labels of the base Zak transform).

The blocks of a subgroup H containing the base, the extra subgroup
included, are labelled by its :class:`DualPartition`'s ``section``, the
representatives of base-annihilator / H's annihilator: no subgroup has a
table of its own on the scenario.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .actions import ActionSpace, tiling_sets, validate_action
from .errors import TheoremViolationError
from .groups import (
    CosetSection,
    Element,
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    coset_section,
    validate_chain,
)


class Scenario:
    def __init__(
        self,
        group: FiniteAbelianGroup,
        base: Subgroup,
        extra: Subgroup,
        action: ActionSpace,
    ):
        if action.group != group:
            raise ValueError("action belongs to a different group")
        self.group = group
        self.base = base
        self.extra = extra
        self.action = action
        self.chain = validate_chain(base, extra, group)
        self.action_report = validate_action(action)
        self.transversal = coset_section(group, base)
        self.tiling = tiling_sets(action, base, self.transversal)
        self.base_annihilator = self.chain.base_annihilator
        self.extra_annihilator = self.chain.extra_annihilator
        self.dual_section = coset_section(group, self.base_annihilator)
        # the annihilator of each subgroup H, seeded with the chain's, so
        # that none is computed twice
        self._annihilators = {base: self.base_annihilator, extra: self.extra_annihilator}
        self._partitions: dict[Subgroup, DualPartition] = {}
        self._modulation: dict[Element, np.ndarray] = {}

    def __repr__(self) -> str:
        return (
            f"Scenario(moduli={self.group.moduli}, base_order={self.base.order}, "
            f"extra_order={self.extra.order}, points={self.action.n_points})"
        )

    # -- sizes ---------------------------------------------------------------

    @property
    def n_cosets(self) -> int:
        """Number of base cosets, written s+1 in the transform formulas."""
        return self.chain.index_base

    @property
    def n_fibers(self) -> int:
        """Number of base-Zak fibers; equals the base subgroup order."""
        return len(self.dual_section)

    @property
    def omega(self) -> tuple[Element, ...]:
        return self.dual_section.representatives

    @property
    def annihilator_order(self) -> tuple[Element, ...]:
        """Base-annihilator elements in lexicographic order, zero first."""
        return tuple(self.base_annihilator.elements)

    # -- point weights on the two tiles --------------------------------------

    @cached_property
    def tile_weights(self) -> np.ndarray:
        return self.action.weights[np.asarray(self.tiling.tiles, dtype=np.intp)]

    @cached_property
    def rep_weights(self) -> np.ndarray:
        return self.action.weights[np.asarray(self.tiling.orbit_reps, dtype=np.intp)]

    # -- gather tables for the transforms ------------------------------------

    def _gather(self, elements: np.ndarray):
        """Gather plan for the points ``sigma_t(orbit_reps[c])``, t in ``elements``.

        Row ``m`` of the table runs over ``elements[m]`` (flattened) major and
        the orbits minor; jacobian roots are taken against ``elements[0]``,
        the zero element.  The table is a permutation of the points, so the
        flat tuple adds its inverse ``where`` (``where[gather.ravel()] ==
        arange(n)``) and the reciprocal roots in point order."""
        gather = self.action.point_of.T[elements].reshape(len(elements), -1)
        w = self.action.weights
        jhalf = np.sqrt(w[gather] / w[gather[0]])
        where = np.empty(gather.size, dtype=np.intp)
        where[gather.ravel()] = np.arange(gather.size)
        return gather, jhalf, where, (1.0 / jhalf.ravel())[where]

    @cached_property
    def _base_gather(self):
        """sigma_{-gamma}(x) for gamma in base, x in tiles, plus jacobian roots."""
        # the tile point sigma_{-a_j}(x) moves to sigma_{-(gamma + a_j)}(x)
        c = self.group.coords
        moved = c[self.base.indices][:, None] + c[self.transversal.rep_indices]
        return self._gather(self.group.indices(-moved))

    @cached_property
    def _full_gather(self):
        """sigma_{-tau}(x) for tau in group, x in orbit_reps, plus jacobian roots."""
        return self._gather(self.group.indices(-self.group.coords))

    @cached_property
    def _unfold_gather(self):
        """sigma_{+tau}(x) for x in orbit_reps, tau in group, plus jacobian roots.

        The table is the action's own ``point_of``, whose inverse is each
        point's orbit coordinates; the roots are the full plan's read
        orbit-major (its row of -tau), and the reciprocal roots in point
        order, ``1 / jacobian(tau, x)**0.5`` at ``sigma_tau(x)``, are the full
        plan's array itself."""
        full, (orbit_of, element_of) = self._full_gather, self.action.coordinates
        jhalf = full[1][self.group.indices(-self.group.coords)].T.copy()
        return self.action.point_of, jhalf, orbit_of * self.group.order + element_of, full[3]

    # -- character tables -----------------------------------------------------

    @cached_property
    def chars_base_omega(self) -> np.ndarray:
        """``[i, j] = pairing(-base[i], omega[j])``."""
        c = self.group.coords
        negs = -c[self.base.indices] % self.group.moduli
        return self.group.characters(negs, c[self.dual_section.rep_indices])

    @property
    def coset_dft(self) -> np.ndarray:
        """Matrix ``[k, j] = pairing(-a_j, annihilator_order[k])``.

        Scaled by ``n_cosets ** -0.5`` this is unitary: it is the character
        table of the quotient by the base subgroup against its annihilator.
        Built on each access, not cached: it has ``n_cosets ** 2`` entries
        (``group.order ** 2`` for a trivial base) and only checks use it.
        """
        c = self.group.coords
        negs = -c[self.transversal.rep_indices] % self.group.moduli
        return self.group.characters(negs, c[self.base_annihilator.indices]).T

    # -- dual bookkeeping ------------------------------------------------------

    @cached_property
    def dual_split(self) -> np.ndarray:
        """For each dual element index: (fiber position, annihilator position).

        Row ``i`` says ``group.elements[i] == omega[row[0]] + annihilator_order[row[1]]``.
        """
        group, sec = self.group, self.dual_section
        fiber = sec.positions
        rest = group.indices(group.coords - group.coords[sec.rep_indices[fiber]])
        ann = np.searchsorted(self.base_annihilator.indices, rest)
        return np.stack([fiber, ann], axis=1)

    @cached_property
    def dual_unsplit(self) -> np.ndarray:
        """Dual index of ``omega[w] + annihilator_order[k]``, shape (n_fibers, n_cosets)."""
        out = np.empty((self.n_fibers, self.n_cosets), dtype=np.intp)
        out[self.dual_split[:, 0], self.dual_split[:, 1]] = np.arange(self.group.order)
        return out

    def partition(self, subgroup: Subgroup) -> DualPartition:
        """The dual partition along the blocks of a subgroup containing the
        base, built and verified on first request (:func:`_build_partition`)
        and memoised per subgroup."""
        part = self._partitions.get(subgroup)
        if part is None:
            part = self._partitions[subgroup] = _build_partition(self, subgroup)
        return part

    def block_rows(self, subgroup: Subgroup) -> np.ndarray:
        """The stacked rows of each block of a subgroup containing the base,
        (n_blocks, rows per block), read-only: the ``rows`` of its verified
        partition (:meth:`partition`), the one block table of every subgroup.

        The subgroup's annihilator cuts the base annihilator into cosets, the
        blocks; a stacked row ``k * len(orbit_reps) + c`` belongs to the block
        of its annihilator coordinate k.  Blocks are in coset-section order,
        each block's rows increasing; the base has one block of every row.
        """
        return self.partition(subgroup).rows

    # -- translations on the Zak side ----------------------------------------

    def modulation(self, g: Element) -> np.ndarray:
        """The reduced element g's translation on the stacked Zak values,
        (n_fibers, n_cosets), memoised per element: the one row builder.

        Translating by g multiplies the full Zak value at the dual element h
        by ``pairing(g, h)``, so it multiplies the stacked values of fiber w
        at annihilator position k, on every orbit, by
        ``pairing(g, omega[w] + annihilator_order[k])``.  For a base element
        that is the constant ``pairing(g, omega[w])`` on fiber w, which maps
        every fiber basis to itself.  A row takes 16 bytes per dual element.
        """
        if g not in self._modulation:
            dual = self.group.coords[self.dual_unsplit.ravel()]
            chars = self.group.characters(np.array([g], dtype=np.int64), dual)
            self._modulation[g] = chars.reshape(self.n_fibers, self.n_cosets)
        return self._modulation[g]


def _probes(subgroup: Subgroup) -> tuple[Element, ...]:
    """The translations that test invariance under the subgroup: its generators,
    or its zero element when it has none."""
    return tuple(subgroup.generators) or (subgroup.group.zero,)


@dataclass(frozen=True)
class DualPartition:
    """The dual group cut into the blocks of a subgroup H containing the base.

    ``section`` is the coset section of H's annihilator inside the base
    annihilator, whose representatives are the block ``labels`` and whose
    ``position_of`` finds a label's block; the zero label is at position
    0.  ``positions[i]`` is the block position (index into ``labels``) of
    dual element ``i``, and ``rows[b]`` lists the weighted stacked rows of
    block b (:meth:`Scenario.block_rows`).  Both are read-only and
    verified (:func:`_build_partition`).
    """

    scenario: Scenario
    section: CosetSection = field(repr=False)
    positions: np.ndarray = field(repr=False)  # (group.order,) block positions
    rows: np.ndarray = field(repr=False)  # (n_blocks, rows per block)

    @property
    def labels(self) -> tuple[Element, ...]:
        return self.section.representatives

    def _members(self) -> np.ndarray:
        """Dual element indices of each block, increasing; (n_blocks, block size)."""
        return np.argsort(self.positions, kind="stable").reshape(len(self.labels), -1)

    @property
    def blocks(self) -> tuple[frozenset[Element], ...]:
        """The dual elements of each block."""
        elements = self.scenario.group.elements
        return tuple(frozenset(elements[i] for i in m) for m in self._members())

    def as_dict(self) -> dict:
        elements = self.scenario.group.elements
        return {
            "blocks": [
                {"label": list(label), "elements": [list(elements[i]) for i in m]}
                for label, m in zip(self.labels, self._members())
            ]
        }


def _build_partition(scn: Scenario, subgroup: Subgroup) -> DualPartition:
    """The dual partition along ``subgroup``, checked against its definition.

    A dual element ``omega[w] + a`` (``a`` in the base annihilator) lies in
    the block of ``a``'s coset of H's annihilator; block xi is the set-sum
    of the fiber labels, xi and that annihilator, of ``n_fibers *
    |annihilator|`` elements and invariant under it.  Every guard runs for
    every H; the messages call H's annihilator the extra one, as the
    paper's pair base <= extra does.
    """
    group = scn.group
    ann = scn._annihilators.get(subgroup)
    if ann is None:
        ann = annihilator(subgroup)
    section = coset_section(group, ann, within=scn.base_annihilator)
    labels = section.representatives
    # the block of each annihilator coordinate k, the coset of annihilator_order[k]
    coordinate = section.positions[scn.base_annihilator.indices]
    block = coordinate[scn.dual_split[:, 1]]
    size = scn.n_fibers * ann.order
    counts = np.bincount(block, minlength=len(labels))
    if (counts != size).any():
        pos = int(np.flatnonzero(counts != size)[0])
        raise TheoremViolationError(
            "dual partition block has the wrong size",
            details={"label": list(labels[pos]), "size": int(counts[pos])},
        )
    for d in ann.generators:
        moved = block[group.indices(group.coords + d)]
        if (moved != block).any():
            el = int(np.flatnonzero(moved != block)[0])
            raise TheoremViolationError(
                "dual partition block is not extra-annihilator invariant",
                details={"label": list(labels[block[el]]), "element": list(group.elements[el])},
            )
    coords = group.coords
    omega = coords[scn.dual_section.rep_indices]
    xi = coords[section.rep_indices]
    d = coords[ann.indices]
    # [label, fiber, d] = omega + xi + d, the blocks by definition
    defined = group.indices(xi[:, None, None] + omega[None, :, None] + d[None, None, :])
    covered = np.bincount(defined.ravel(), minlength=group.order)
    if (covered != 1).any():
        raise TheoremViolationError(
            "dual partition blocks do not tile the dual group",
            details={"covered": int(np.count_nonzero(covered)), "order": group.order},
        )
    position = np.arange(len(labels))[:, None]
    if (block[defined] != position[:, :, None]).any():
        raise TheoremViolationError("dual partition positions disagree with the block definition")
    # stacked coordinate k of fiber w holds omega[w] + annihilator_order[k]
    reps = len(scn.tiling.orbit_reps)
    k = np.argsort(coordinate, kind="stable").reshape(len(labels), -1)
    rows = (k[:, :, None] * reps + np.arange(reps)).reshape(len(k), -1)
    if (block[scn.dual_unsplit[:, rows[:, ::reps] // reps]] != position).any():
        raise TheoremViolationError("stacked block rows disagree with the dual partition")
    block.flags.writeable = False
    rows.flags.writeable = False
    return DualPartition(scn, section, block, rows)
