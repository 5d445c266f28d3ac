"""Group layer: pairing arithmetic, subgroups, annihilators, sections, chains."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from actinv import (
    ActionReport,
    ActionSpace,
    ChainError,
    FiniteAbelianGroup,
    Scenario,
    Subgroup,
    annihilator,
    best_extra_invariant,
    best_invariant,
    check_decomposable,
    check_extra_invariance,
    coset_section,
    span_invariant,
    validate_action,
    validate_chain,
)


def test_group_basics():
    g = FiniteAbelianGroup([2, 3])
    assert g.order == 6 and g.rank == 2
    assert g.elements[0] == (0, 0)
    assert g.elements == sorted(g.elements)
    assert g.reduce((-1, 7)) == (1, 1)
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 2)
    assert g.index((1, 2)) == 5
    with pytest.raises(ValueError):
        g.reduce((1,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup([])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([0])


def test_pairing_fourth_roots():
    g = FiniteAbelianGroup([4])
    assert g.pairing((1,), (1,)) == pytest.approx(1j)
    assert g.pairing((2,), (1,)) == pytest.approx(-1.0)
    assert g.pairing((3,), (3,)) == pytest.approx(1j)  # 9 = 1 mod 4
    assert g.pairing((2,), (2,)) == 1.0  # 4 = 0 mod 4, exact


def test_pairing_trivial_is_exact():
    g = FiniteAbelianGroup([6])
    # 2 * 3 = 6 = 0 mod 6: no floating point rounding allowed here
    assert g.pairing((2,), (3,)) == 1.0
    assert g.phase_numerator((2,), (3,)) == 0
    assert g.phase_numerator((2,), (1,)) != 0
    assert g.phase_numerator((1,), (1,)) == 1


def test_pairing_product_group():
    g = FiniteAbelianGroup([2, 3])
    # phase 1/2 + 2/3 = 7/6 of a full turn
    assert g.pairing((1, 1), (1, 2)) == pytest.approx(np.exp(2j * np.pi * 7 / 6))
    assert g.phase_numerator((1, 0), (0, 2)) == 0


@st.composite
def group_with_elements(draw, count):
    mods = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    g = FiniteAbelianGroup(mods)
    els = [tuple(draw(st.integers(-20, 20)) for _ in mods) for _ in range(count)]
    return g, els


@given(group_with_elements(3))
@settings(max_examples=60, deadline=None)
def test_pairing_bilinear(data):
    g, (x, y, xi) = data
    lhs = g.pairing(g.add(x, y), xi)
    assert lhs == pytest.approx(g.pairing(x, xi) * g.pairing(y, xi), abs=1e-12)
    lhs = g.pairing(x, g.add(y, xi))
    assert lhs == pytest.approx(g.pairing(x, y) * g.pairing(x, xi), abs=1e-12)


@given(group_with_elements(2))
@settings(max_examples=60, deadline=None)
def test_pairing_symmetric_unit_modulus(data):
    g, (x, xi) = data
    assert g.pairing(x, xi) == pytest.approx(g.pairing(xi, x), abs=1e-12)
    assert abs(g.pairing(x, xi)) == pytest.approx(1.0, abs=1e-12)
    assert g.pairing(g.neg(x), xi) == pytest.approx(np.conj(g.pairing(x, xi)), abs=1e-12)


@pytest.mark.parametrize("mods", [[5], [2, 3], [4, 2], [12]])
def test_character_sums_vanish(mods):
    g = FiniteAbelianGroup(mods)
    for xi in g.elements:
        total = sum(g.pairing(x, xi) for x in g.elements)
        expected = g.order if xi == g.zero else 0.0
        assert total == pytest.approx(expected, abs=1e-9)


# -- subgroups -----------------------------------------------------------------


def test_subgroup_closure_golden():
    g = FiniteAbelianGroup([12])
    s = Subgroup(g, [(4,)])
    assert s.elements == [(0,), (4,), (8,)]
    assert s.order == 3 and s.index == 4
    assert (8,) in s and (2,) not in s
    trivial = Subgroup(g, [])
    assert trivial.elements == [(0,)] and trivial.index == 12


@given(st.lists(st.integers(2, 8), min_size=1, max_size=2), st.data())
@settings(max_examples=40, deadline=None)
def test_subgroup_closure_properties(mods, data):
    g = FiniteAbelianGroup(mods)
    gens = [tuple(data.draw(st.integers(0, 30)) for _ in mods) for _ in range(2)]
    s = Subgroup(g, gens)
    assert g.zero in s
    for gen in gens:
        assert gen in s
    for a in s.elements:
        assert g.neg(a) in s
        for b in s.elements:
            assert g.add(a, b) in s
    assert g.order % s.order == 0


def test_subgroup_from_elements_round_trip():
    """A subgroup closed over again from its element set is equal to it,
    with the greedy generator list."""
    g = FiniteAbelianGroup([2, 4])
    s = Subgroup(g, [(1, 2)])
    t = Subgroup._from_mask(g, oracle.members(g, s.elements))
    assert t == s
    assert len(t.generators) == 1


def test_subgroup_from_elements_rejects_non_closed():
    g = FiniteAbelianGroup([12])
    with pytest.raises(ValueError, match=r"not closed under addition at \(4,\) \+ \(4,\)"):
        Subgroup._from_mask(g, oracle.members(g, [(0,), (4,)]))  # misses (8,)
    with pytest.raises(ValueError, match="must contain the zero element"):
        Subgroup._from_mask(g, oracle.members(g, [(4,), (8,)]))  # misses zero


@pytest.mark.parametrize("bad", [(1.7,), (2.9,), (np.float64(2.0),), (True,), (np.bool_(True),)])
def test_reduce_refuses_a_coordinate_that_is_not_an_integer(bad):
    """A float coordinate is refused, not truncated to an integer, and so
    is a ``bool``; membership asks the same question."""
    g = FiniteAbelianGroup([4])
    with pytest.raises(ValueError, match="element coordinates must be integers"):
        g.reduce(bad)
    with pytest.raises(ValueError, match="element coordinates must be integers"):
        bad in Subgroup(g, [(2,)])


@pytest.mark.parametrize("bad", [3, np.int64(3), None, "12", np.array(3), np.array([[1]])])
def test_reduce_refuses_an_argument_that_is_not_a_sequence(bad):
    g = FiniteAbelianGroup([4])
    with pytest.raises(ValueError, match="element must be a sequence of integers"):
        g.reduce(bad)


def test_reduce_takes_numpy_integers():
    g = FiniteAbelianGroup([4, 6])
    for el in ((np.int64(5), np.int32(-1)), np.array([5, -1]), [np.uint8(5), 11]):
        assert g.reduce(el) == (1, 5)
        assert all(type(v) is int for v in g.reduce(el))


def test_equal_subgroups_share_their_hash_and_memo(chain12):
    """A subgroup closed over again from its elements is another object
    that hashes and compares equal, so a memo keyed by subgroup, such as
    ``Scenario.block_rows``, hands it the array the original got."""
    extra = chain12.extra
    twin = Subgroup._from_mask(chain12.group, oracle.members(chain12.group, extra.elements))
    assert twin is not extra and twin == extra and extra == twin
    assert hash(twin) == hash(extra)
    assert chain12.block_rows(twin) is chain12.block_rows(extra)
    assert chain12.block_rows(Subgroup(chain12.group, chain12.base.generators)) is (
        chain12.block_rows(chain12.base)
    )


def test_subgroup_issubset():
    g = FiniteAbelianGroup([12])
    small, big = Subgroup(g, [(4,)]), Subgroup(g, [(2,)])
    assert small.issubset(big)
    assert not big.issubset(small)
    assert small.issubset(small)


# -- annihilators --------------------------------------------------------------


def test_annihilator_goldens():
    g = FiniteAbelianGroup([12])
    assert annihilator(Subgroup(g, [(4,)])).elements == [(0,), (3,), (6,), (9,)]
    assert annihilator(Subgroup(g, [(2,)])).elements == [(0,), (6,)]
    gp = FiniteAbelianGroup([2, 4])
    # (a, b) annihilates (1, 2) exactly when a/2 + b/2 is an integer
    assert annihilator(Subgroup(gp, [(1, 2)])).elements == [
        (0, 0),
        (0, 2),
        (1, 1),
        (1, 3),
    ]


@pytest.mark.parametrize(
    "mods,gens",
    [
        ([12], [(4,)]),
        ([12], [(2,)]),
        ([2, 4], [(1, 2)]),
        ([2, 4], [(0, 1)]),
        ([6], []),
        ([9], [(3,)]),
    ],
)
def test_annihilator_laws(mods, gens):
    g = FiniteAbelianGroup(mods)
    h = Subgroup(g, gens)
    ann = annihilator(h)
    assert h.order * ann.order == g.order
    assert annihilator(ann) == h
    for a in h.elements:
        for b in ann.elements:
            assert g.phase_numerator(a, b) == 0
    # nothing outside the annihilator pairs trivially with all of h
    for xi in g.elements:
        trivial = all(g.phase_numerator(a, xi) == 0 for a in h.elements)
        assert trivial == (xi in ann)


def test_annihilator_extremes():
    g = FiniteAbelianGroup([2, 4])
    whole = Subgroup(g, [(1, 0), (0, 1)])
    assert annihilator(whole).elements == [(0, 0)]
    assert annihilator(Subgroup(g, [])).order == g.order


# -- coset sections ------------------------------------------------------------


def test_section_goldens():
    g6 = FiniteAbelianGroup([6])
    sec = coset_section(g6, Subgroup(g6, [(2,)]))
    assert sec.representatives == ((0,), (1,))
    g12 = FiniteAbelianGroup([12])
    sec = coset_section(g12, Subgroup(g12, [(3,)]))
    assert sec.representatives == ((0,), (1,), (2,))
    assert sec.representatives[sec.position_of((7,))] == (1,)
    assert sec.position_of((11,)) == 2


def test_section_zero_first_and_covers():
    g = FiniteAbelianGroup([2, 4])
    sub = Subgroup(g, [(1, 2)])
    sec = coset_section(g, sub)
    assert sec.representatives[0] == (0, 0)
    assert len(sec) == g.order // sub.order
    assert {sec.position_of(el) for el in g.elements} == set(range(len(sec)))
    for el in g.elements:
        rep = sec.representatives[sec.position_of(el)]
        assert g.sub(el, rep) in sub
        # representatives are minimal within their coset
        assert rep == min(g.add(el, h) for h in sub.elements)


def test_section_within_subgroup():
    g = FiniteAbelianGroup([12])
    big = Subgroup(g, [(3,)])
    small = Subgroup(g, [(6,)])
    sec = coset_section(g, small, within=big)
    assert sec.representatives == ((0,), (3,))
    with pytest.raises(KeyError):
        sec.position_of((1,))  # outside the domain subgroup
    with pytest.raises(ValueError):
        coset_section(g, big, within=small)


def test_section_rejects_foreign_subgroup():
    g, h = FiniteAbelianGroup([12]), FiniteAbelianGroup([6])
    with pytest.raises(ValueError):
        coset_section(g, Subgroup(h, [(3,)]))


# -- chain validation ----------------------------------------------------------


def test_validate_chain_golden():
    g = FiniteAbelianGroup([12])
    rep = validate_chain(Subgroup(g, [(4,)]), Subgroup(g, [(2,)]), g)
    assert (rep.index_base, rep.index_extra, rep.index_between) == (4, 2, 2)
    assert rep.base_annihilator.elements == [(0,), (3,), (6,), (9,)]
    assert rep.extra_annihilator.elements == [(0,), (6,)]
    assert rep.extra_annihilator.issubset(rep.base_annihilator)
    d = rep.as_dict()
    assert d["index_base"] == 4
    assert d["base_annihilator"] == [[0], [3], [6], [9]]


def test_validate_chain_index_product():
    g = FiniteAbelianGroup([2, 4])
    rep = validate_chain(Subgroup(g, [(0, 2)]), Subgroup(g, [(0, 1)]), g)
    assert rep.index_base == rep.index_extra * rep.index_between


def test_validate_chain_rejects_non_nested():
    g = FiniteAbelianGroup([12])
    with pytest.raises(ChainError):
        validate_chain(Subgroup(g, [(3,)]), Subgroup(g, [(2,)]), g)


def test_validate_chain_rejects_foreign_group():
    g, h = FiniteAbelianGroup([12]), FiniteAbelianGroup([6])
    with pytest.raises(ChainError):
        validate_chain(Subgroup(h, [(3,)]), Subgroup(g, [(2,)]), g)


def test_tuple_views_are_built_on_first_read():
    """Elements, subgroup elements and section representatives are tuple
    views of the index arrays, built when first read and equal to them."""
    g = FiniteAbelianGroup([4, 6])
    sub = Subgroup(g, [(2, 3)])
    sec = coset_section(g, sub)
    for obj, name in ((g, "elements"), (sub, "elements"), (sec, "representatives")):
        assert name not in vars(obj)
    assert g.elements == [tuple(c) for c in g.coords.tolist()]
    assert g.elements == sorted(g.elements) and len(g.elements) == g.order
    assert sub.elements == [g.elements[i] for i in sub.indices]
    assert sec.representatives == tuple(g.elements[i] for i in sec.rep_indices)
    assert len(sec) == len(sec.representatives) == g.order // sub.order
    assert all(g.element(i) == el for i, el in enumerate(g.elements))


def test_a_scenario_and_its_checks_and_fits_build_no_tuple_views():
    """The build path runs on index arrays alone: after a Z_64 x Z_64
    scenario on 2 orbits is built, checked and fitted, no group, subgroup
    or section holds its tuple view, and the action report holds counts."""
    g = FiniteAbelianGroup([64, 64])
    rng = np.random.default_rng(64)
    act = ActionSpace.regular(g, 2, np.exp(rng.uniform(0.0, np.log(1e3), 2 * g.order)))
    scn = Scenario(g, Subgroup(g, [(8, 0), (0, 8)]), Subgroup(g, [(4, 0), (0, 4)]), act)
    data = rng.standard_normal((act.n_points, 4))
    space = span_invariant(scn, data[:, :1])
    check_extra_invariance(scn, space), check_decomposable(scn, space)
    best_invariant(scn, data, 2), best_extra_invariant(scn, data, 2)
    subgroups = [scn.base, scn.extra, scn.base_annihilator, scn.extra_annihilator]
    subgroups += list(scn._annihilators.values())
    sections = [scn.transversal, scn.dual_section]
    sections += [part.section for part in scn._partitions.values()]
    assert len(sections) == 4  # the base's and the extra subgroup's partitions
    for obj in [g, *subgroups, *sections]:
        assert not {"elements", "representatives"} & set(vars(obj)), obj
    report = validate_action(act)
    assert report == ActionReport(act.n_points, g.order, 2)
    assert [f.name for f in dataclasses.fields(report)] == ["n_points", "group_order", "orbit_count"]
