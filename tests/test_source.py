"""Source-level rules for the library package."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import actinv

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "actinv"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariant checks raise errors; ``python -O`` would strip an assert."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module or ""]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    """The library runs on numpy alone: loading scipy doubles a cold CLI call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if any(m.split(".")[0] == "scipy" for m in _imported_modules(node))
    ]
    assert not lines, f"{path.name} imports scipy at lines {lines}"


def _rank_tol_uses(tree: ast.AST) -> list[int]:
    """Lines reading ``RANK_TOL`` outside ``spaces._kept``, the one place
    the rank rule is written; the checks' block split cuts at a floor
    derived from ``tol`` instead.
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_kept":
            allowed.update(id(n) for n in ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id == "RANK_TOL"
        and isinstance(node.ctx, ast.Load)
        and id(node) not in allowed
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_rank_tol_is_read_only_by_the_rank_rule(path):
    """A hand-written rank cut would be a second copy of ``spaces._kept``."""
    lines = _rank_tol_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} compares against RANK_TOL at lines {lines}"


def test_rank_tol_rule_catches_a_hand_written_cut():
    source = """
def _kept(s):
    return s > RANK_TOL * s[0]

def masked_component(scn, space, xi):
    return span(scn, space, floor=RANK_TOL)

def cut(s):
    return s[s > RANK_TOL * s[0]]

def _split(scn, space, basis):
    kept = _kept(t, floor=RANK_TOL)
    return kept, t > RANK_TOL
"""
    assert _rank_tol_uses(ast.parse(source)) == [6, 9, 12, 13]


# what a masked component must not call: it reads the checks' block split
# instead of transforming and cutting the frame in point space
POINT_SPACE_ROUTE = (
    "fiber_matrices",
    "mask_apply",
    "orthonormal_columns",
    "span",
    "zak_full",
    "zak_full_inv",
    "zak_stacked",
    "zak_stacked_inv",
    "_zak_stacked",
)


def _point_space_component_calls(tree: ast.AST) -> tuple[bool, list[int]]:
    """Whether ``masked_component`` is defined, and the lines where it
    calls a transform, ``mask_apply``, ``Subspace.span``,
    ``orthonormal_columns`` or ``fiber_matrices``."""
    found, lines = False, []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name == "masked_component":
            found = True
            lines += [
                node.lineno
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                in POINT_SPACE_ROUTE
            ]
    return found, sorted(lines)


def test_masked_component_reads_the_block_split():
    """``extra.masked_component`` builds its range function from the block
    split the checks share: no transform of the frame, no mask image and
    no point-space rank cut."""
    path = PACKAGE / "extra.py"
    found, lines = _point_space_component_calls(ast.parse(path.read_text(), filename=str(path)))
    assert found and not lines, (found, lines)


def test_point_space_component_rule_catches_a_frame_route():
    source = """
def mask_apply(scn, xi, f):
    return zak_full_inv(scn, zak_full(scn, f))

def masked_component(scn, space, xi):
    basis = require_base_invariant(space)
    masked = mask_apply(scn, xi, space.frame)
    mats = spaces.fiber_matrices(scn, space.frame)
    frame = orthonormal_columns(scn.action.weights, masked)
    return Subspace.span(scn, _zak_stacked(scn, masked))
"""
    assert _point_space_component_calls(ast.parse(source)) == (True, [7, 8, 9, 10, 10])


def _eigvalsh_calls(tree: ast.AST) -> list[int]:
    """Lines calling ``eigvalsh`` outside ``spaces._top``.

    A Gram matrix squares the singular values, so its small eigenvalues
    keep only half the digits; ``_top`` reads the largest one alone, and a
    second call site could read a small singular value off a Gram matrix.
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_top":
            allowed.update(id(n) for n in ast.walk(node))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "eigvalsh" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and id(node) not in allowed
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_gram_matrices_are_read_only_by_the_top_rule(path):
    """Only the largest singular value is ever read from a Gram matrix."""
    lines = _eigvalsh_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls eigvalsh at lines {lines}"


def test_top_rule_catches_a_second_eigvalsh():
    source = """
def _top(gram):
    return np.linalg.eigvalsh(gram)[..., -1]

def smallest(gram):
    return eigvalsh(gram)[..., 0]
"""
    assert _eigvalsh_calls(ast.parse(source)) == [6]


SVD_SITES = ("_block_cut", "_fit", "_split")


def _svd_calls(tree: ast.AST) -> list[int]:
    """Lines calling ``svd`` outside ``spaces._block_cut``,
    ``approx._fit`` and ``extra._split``, or there on anything but a
    ``_blocks(...)`` call.

    Every SVD of the library factors the block submatrices of fiber
    matrices, and ``spaces._blocks`` is their one reader: a view of the
    fibers for one block, one gather for more.  A fourth site would be a
    second rank cut; a fancy-indexed argument, a second reader of blocks.
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in SVD_SITES:
            allowed.update(id(n) for n in ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "svd" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and not (
            id(node) in allowed
            and node.args
            and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "_blocks"
        )
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_svds_factor_blocks_read_by_one_reader(path):
    """``np.linalg.svd`` runs only in the three block SVDs, on ``_blocks``."""
    lines = _svd_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls svd at lines {lines}"


def test_svd_rule_catches_a_fourth_site_and_a_fancy_index():
    source = """
def _block_cut(mats, rows, *, floor=0.0):
    u, s, _ = np.linalg.svd(_blocks(mats, rows), full_matrices=False)

def _fit(scn, data, ell, rows, labels=None):
    u, s, _ = np.linalg.svd(mats[:, rows], full_matrices=False)

def _split(scn, space, basis):
    return svd(_blocks(basis, rows)), np.linalg.svd(np.take(basis, rows, axis=1))

def _fiber_cut(mats):
    return np.linalg.svd(_blocks(mats, rows))
"""
    assert _svd_calls(ast.parse(source)) == [6, 9, 12]


def _modulation_builders(tree: ast.AST) -> list[int]:
    """Lines defining or calling a modulation builder other than the
    one-row ``Scenario.modulation``: any function whose name holds
    ``modulation`` but is not that one (``modulations``,
    ``modulation_table``, ...).

    Every library caller reads one probe's row; a span splits the
    generators' fibers along the block rows of its subgroup instead of
    modulating them by a section of it, so no builder makes a table.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        else:
            continue
        if name and "modulation" in name and name != "modulation":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modulation_tables_are_built_only_per_probe(path):
    """No library module defines or calls a multi-row modulation builder:
    ``Scenario.modulation`` builds every row, one element at a time."""
    lines = _modulation_builders(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} builds modulation tables at lines {lines}"


def test_modulations_rule_catches_a_section_table():
    source = """
def modulation(self, g):
    return self._modulation[g]

def _probe_pass(space, g):
    return scn.modulation(g), scn._modulation.get(g)

def modulation_table(self, probes):
    return np.stack([self.modulation(g) for g in probes])

def span_invariant(scn, gens, subgroup):
    moved = [d * gens for d in scn.modulations(scn.section(subgroup))]
    return _modulation_rows(section)
"""
    assert _modulation_builders(ast.parse(source)) == [8, 12, 13]


def _frame_transforms(tree: ast.AST) -> list[int]:
    """Lines transforming a space's frame: ``fiber_matrices`` called on
    a ``.frame`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "fiber_matrices" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and any(getattr(arg, "attr", None) == "frame" for arg in node.args)
    )


def test_spaces_transforms_a_frame_at_one_site():
    """A frame-given space's orthonormality check, its probes and queries
    before the gate and its gate's cut all read the fiber matrices of one
    transform, made at one site of ``spaces.py`` (the default
    ``Subspace._basis``, the whole stacked frame)."""
    path = PACKAGE / "spaces.py"
    lines = _frame_transforms(ast.parse(path.read_text(), filename=str(path)))
    assert len(lines) == 1, f"spaces.py transforms a frame at lines {lines}"


def test_frame_transform_rule_catches_a_second_site():
    source = """
def _basis(self):
    mats = fiber_matrices(self.scenario, self.frame)

def _range_function(space, tol):
    cut = _block_cut(spaces.fiber_matrices(scn, space.frame), rows)
    fiber_matrices(scn, mat), fiber_matrices(scn, frame)
"""
    assert _frame_transforms(ast.parse(source)) == [3, 6]


_OLD_ACCESSORS = {"_whole", "_stacked"}


def _basis_bypasses(tree: ast.AST) -> list[int]:
    """Lines reading a space's columns past ``Subspace._basis``: an
    expression holding both a ``vars(...)`` call and the name ``"_basis"``,
    or ``_whole`` or ``_stacked`` named as an attribute, a string, or a
    method of a class (a module-level function of that name, as
    ``zak._stacked``, is another thing)."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Call, ast.Compare, ast.Subscript)):
            inner = list(ast.walk(node))
            reads_vars = any(
                isinstance(n, ast.Call) and getattr(n.func, "id", None) == "vars" for n in inner
            )
            names = any(isinstance(n, ast.Constant) and n.value == "_basis" for n in inner)
            if reads_vars and names:
                lines.add(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr in _OLD_ACCESSORS:
            lines.add(node.lineno)
        if isinstance(node, ast.Constant) and node.value in _OLD_ACCESSORS:
            lines.add(node.lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in _OLD_ACCESSORS:
                    lines.add(item.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_spaces_are_read_through_one_accessor(path):
    """Every space is one stack of fiber bases, ``Subspace._basis``: a
    range function or a frame-given space's whole stacked frame.  No
    module tests for it in the instance dictionary or names a second
    accessor."""
    lines = _basis_bypasses(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} reads a space's columns past _basis at lines {lines}"


def test_accessor_rule_catches_every_bypass():
    source = """
class Subspace:
    @cached_property
    def _whole(self):
        return fiber_matrices(self.scenario, self.frame)

    def _stacked(self):
        basis = vars(self).get("_basis")
        return self._whole if basis is None else basis

def _range_function(space, tol):
    if "_basis" in vars(space):
        return vars(space)["_basis"]
    vars(space).pop("_whole", None)
    return space._basis, _stacked(scn, full), space._stacked

def _stacked(scn, full):
    return full
"""
    assert _basis_bypasses(ast.parse(source)) == [4, 7, 8, 9, 12, 13, 14, 15]


def _fiber_spectrum_calls(tree: ast.AST) -> list[int]:
    """Lines calling ``FiberSpectrum`` outside ``ApproxResult.spectra``.

    A fit keeps its pools as arrays and builds the report tuples only when
    its spectra are read, so a fit whose report nobody reads builds none.
    """
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "ApproxResult":
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "spectra":
                    allowed.update(id(n) for n in ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "FiberSpectrum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and id(node) not in allowed
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fiber_spectra_are_built_only_when_read(path):
    """Only ``ApproxResult.spectra`` constructs a ``FiberSpectrum``."""
    lines = _fiber_spectrum_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls FiberSpectrum at lines {lines}"


def test_fiber_spectrum_rule_catches_a_fit_that_builds_them():
    source = """
class ApproxResult:
    @cached_property
    def spectra(self):
        return tuple(FiberSpectrum(w, k, d, None) for w, k, d in self._pools())

def spectra(result):
    return [FiberSpectrum(*p) for p in result._pools()]

def _fit(scn, data, ell, rows, labels=None):
    spectra = tuple(approx.FiberSpectrum(w, k, d, None) for w, k, d in pools)
    return ApproxResult(space, error, ell, spectra)
"""
    assert _fiber_spectrum_calls(ast.parse(source)) == [8, 11]


def _fftn_names(tree: ast.AST) -> list[int]:
    """Lines naming ``fftn`` or ``ifftn``: a name, an attribute or an import.

    The group DFT, ``zak._group_dft``, transforms one cyclic factor at a
    time into one output array; the n-dimensional transforms allocate one
    array per axis when not in place.
    """
    banned = {"fftn", "ifftn"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for a in node.names if a.name.split(".")[-1] in banned]
        elif {getattr(node, "id", None), getattr(node, "attr", None)} & banned:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_group_dft_goes_axis_by_axis(path):
    """No library module calls ``np.fft.fftn`` or ``ifftn``."""
    lines = _fftn_names(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} names fftn at lines {lines}"


def test_fftn_rule_catches_a_hand_written_call():
    source = """
from numpy.fft import fft, ifftn

def _group_dft(group, a, inverse=False):
    fft = np.fft.ifftn if inverse else np.fft.fftn
    return np.fft.fft(a, axis=0), fftn(a), ifftn(a)
"""
    assert _fftn_names(ast.parse(source)) == [2, 5, 5, 6, 6]


def _translate_names(tree: ast.AST, *, reexport: bool = False) -> list[int]:
    """Lines naming ``translate``: a name, an attribute or an import of it.

    A translation is a modulation on the Zak side, so no module but
    ``actions`` (which defines it) translates in point space, and no other
    module names it; ``reexport`` lets the package's ``__init__`` import
    it into the public API, and nothing more.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not reexport:
            lines += [node.lineno for a in node.names if a.name.split(".")[-1] == "translate"]
        elif "translate" in (getattr(node, "id", None), getattr(node, "attr", None)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_translate_stays_in_the_frame_given_gate(path):
    """``span_invariant`` cuts the block rows of stacked Zak values, and
    every probe pass, a frame-given space's before its base gate included,
    modulates them, instead of translating functions in point space: only
    ``actions`` names ``translate``."""
    if path.name == "actions.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _translate_names(tree, reexport=path.name == "__init__.py")
    assert not lines, f"{path.name} names translate at lines {lines}"


def test_translate_rule_catches_a_point_space_translate():
    source = """
from .actions import jacobian, translate
import actinv.actions.translate

def _probe_pass(space, g):
    basis = vars(space).get("_basis")
    if basis is not None:
        moved = actions.translate(space.scenario.action, g, space.frame)
    else:
        moved = translate(space.scenario.action, g, space.frame)
    return moved, "translate", space.translated
"""
    tree = ast.parse(source)
    assert _translate_names(tree) == [2, 3, 8, 10]
    assert _translate_names(tree, reexport=True) == [8, 10]


# the block-table code of ``scenario.py``: one path for every subgroup
BLOCK_TABLE_CODE = ("partition", "block_rows", "_build_partition")


def _chain_subgroup(node) -> bool:
    """``self.base``, ``self.extra``, ``scn.base`` or ``scn.extra``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("base", "extra")
        and getattr(node.value, "id", None) in ("self", "scn")
    )


def _special_subgroup_compares(tree: ast.AST) -> tuple[set[str], list[int]]:
    """The block-table functions found, and the lines where they compare
    anything with the scenario's base or extra subgroup.

    Every subgroup's block table is one verified partition
    (``Scenario.partition``), built by one path: a comparison with the
    base or the extra subgroup would fork it into shortcuts the guards do
    not see.
    """
    found, lines = set(), []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name in BLOCK_TABLE_CODE:
            found.add(func.name)
            lines += [
                node.lineno
                for node in ast.walk(func)
                if isinstance(node, ast.Compare) and any(map(_chain_subgroup, ast.walk(node)))
            ]
    return found, sorted(lines)


def test_block_tables_take_one_path_for_every_subgroup():
    """The block-table code of ``scenario.py`` compares no subgroup with
    the base or the extra one."""
    path = PACKAGE / "scenario.py"
    found, lines = _special_subgroup_compares(ast.parse(path.read_text(), filename=str(path)))
    assert found == set(BLOCK_TABLE_CODE) and not lines, (found, lines)


def test_block_table_rule_catches_a_special_case():
    source = """
class Scenario:
    def block_rows(self, subgroup):
        if subgroup == self.base:
            return self._one_block
        return self.partition(subgroup).rows

    def partition(self, subgroup):
        return self._partitions[subgroup]

    def moving_probes(self):
        return [g for g in self.extra.generators if g not in self.base]

def _build_partition(scn, subgroup):
    ann = scn._annihilators.get(subgroup)
    if subgroup in (scn.base, scn.extra) or scn.extra is subgroup:
        ann = scn.extra_annihilator
"""
    found, lines = _special_subgroup_compares(ast.parse(source))
    assert found == set(BLOCK_TABLE_CODE) and lines == [4, 16, 16]


def _scenario_expression(node) -> bool:
    """A name for a scenario: ``scn``, ``scenario`` or ``<x>.scenario``."""
    if isinstance(node, ast.Name):
        return node.id in ("scn", "scenario")
    return isinstance(node, ast.Attribute) and node.attr == "scenario"


def _scenario_writes(tree: ast.AST) -> list[int]:
    """Lines writing an attribute onto a scenario: an assignment to one of
    its attributes or to an item of its ``vars``/``__dict__``, or a
    ``setattr``, ``setdefault`` or ``update`` on them.

    A scenario's memos are its own (``scenario.py``): a module that wrote
    one would hold a table the scenario does not build or verify.
    """

    def scenario_dict(node) -> bool:
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars":
            return bool(node.args) and _scenario_expression(node.args[0])
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__dict__"
            and _scenario_expression(node.value)
        )

    def written(target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(written, target.elts))
        if isinstance(target, ast.Attribute):
            return _scenario_expression(target.value)
        return isinstance(target, ast.Subscript) and scenario_dict(target.value)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            hit = any(map(written, node.targets))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            hit = written(node.target)
        elif isinstance(node, ast.Call):
            func = node.func
            setter = "setattr" in (getattr(func, "id", None), getattr(func, "attr", None))
            setter |= getattr(func, "attr", None) == "__setattr__"
            hit = setter and bool(node.args) and _scenario_expression(node.args[0])
            hit |= (
                isinstance(func, ast.Attribute)
                and func.attr in ("setdefault", "update")
                and scenario_dict(func.value)
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_scenario_writes_onto_a_scenario(path):
    """No module but ``scenario.py`` writes an attribute onto a ``Scenario``."""
    if path.name == "scenario.py":
        return
    lines = _scenario_writes(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} writes onto a scenario at lines {lines}"


def test_scenario_write_rule_catches_every_form():
    source = """
def dual_partition(scn):
    part = vars(scn).get("_dual_partition")
    if part is None:
        part = scn._dual_partition = build(scn)
    space.scenario._memo, other = {}, 1
    setattr(scn, "_rows", rows)
    vars(space.scenario)["_rows"] = rows
    vars(scn).setdefault("_rows", {})
    scn.__dict__.update(rows=rows)
    object.__setattr__(scenario, "_rows", rows)
    scn.counter += 1
    space._basis, space.scenario = basis, scn
    vars(space).setdefault("_reports", {})
    return part
"""
    assert _scenario_writes(ast.parse(source)) == [5, 6, 7, 8, 9, 10, 11, 12]


def _references(tree: ast.AST) -> Counter:
    """How often each name is referenced, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _listed(tree: ast.AST) -> set[str]:
    """The names a module lists in its ``__all__``."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def _uncalled(trees: dict[str, ast.AST], public: set[str], classes: set[str]) -> list[str]:
    """The functions and methods of the modules ``trees`` that nothing calls.

    A function has a caller when its name is referenced, as a name or an
    attribute, somewhere in the modules outside its own definition.  It is
    also kept when its name is ``public``, when it is a public method of
    one of the exported ``classes``, or when it is a protocol method
    (``__x__``), which the interpreter calls.  Names are matched, not
    bindings, so functions of one name share their callers.  Returned as
    ``module.qualified_name``, sorted.
    """
    refs, found = Counter(), []
    for module, tree in trees.items():
        refs.update(_references(tree))
        stack = [(tree, "", None)]
        while stack:
            node, prefix, cls = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    found.append((f"{module}.{prefix}{child.name}", child, cls))
                    stack.append((child, f"{prefix}{child.name}.", None))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}.", child.name))
                else:
                    stack.append((child, prefix, cls))
    return sorted(
        qualified
        for qualified, func, cls in found
        if refs[func.name] == _references(func)[func.name]
        and func.name not in public
        and not (cls in classes and not func.name.startswith("_"))
        and not (func.name.startswith("__") and func.name.endswith("__"))
    )


def test_every_library_function_has_a_caller():
    """Every function and method of the package is called in it, exported
    (by the package, or by its module's ``__all__``, or as a public method
    of an exported class) or named in the README's "Library use" section:
    nothing is defined for no reader."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    exported = {name for name in vars(actinv) if not name.startswith("_")}
    classes = {name for name in exported if isinstance(getattr(actinv, name), type)}
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    public = exported | set(re.findall(r"[A-Za-z_]\w*", section))
    public |= set().union(*map(_listed, trees.values()))
    assert _uncalled(trees, public, classes) == []


def test_caller_rule_catches_a_function_nothing_calls():
    first = """
__all__ = ["listed"]

def used():
    return 1

def unused():
    return used()

def recursive(n):
    return recursive(n - 1) if n else 0

def listed():
    pass

def exported():
    pass

class Public:
    def method(self):
        pass

    def _helper(self):
        pass

    def __repr__(self):
        return ""

class _Private:
    def method(self):
        pass
"""
    second = """
def outer():
    def inner():
        pass
    return used
"""
    trees = {"first": ast.parse(first), "second": ast.parse(second)}
    public = {"exported", "Public"} | _listed(trees["first"])
    assert _uncalled(trees, public, {"Public"}) == [
        "first.Public._helper",
        "first._Private.method",
        "first.recursive",
        "first.unused",
        "second.outer",
        "second.outer.inner",
    ]


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds this checkout's ``actinv`` first."""
    env = dict(os.environ)
    src = str(Path(actinv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_does_not_load_scipy():
    run = _fresh_python(
        "-c", "import sys, actinv, actinv.cli; print('scipy' in sys.modules)"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def _imports(*args: str) -> list[str]:
    """Modules a fresh ``python -m actinv.cli ARGS`` imports.

    ``-X importtime`` logs every module the command imports, to stderr.
    """
    run = _fresh_python("-X", "importtime", "-m", "actinv.cli", *args)
    assert run.returncode == 0, run.stdout + run.stderr
    return [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]


def test_cli_demo_does_not_load_scipy():
    imported = _imports("demo", "dilation")
    assert "numpy" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_cli_commands_do_not_load_numpy_random_or_ma(tmp_path):
    """A seeded generator is built only for a random subspace, and no
    ``np.unique`` (which loads ``numpy.ma``) runs on the command path."""
    doc = {
        "schema": 1,
        "group": {"moduli": [6]},
        "base": {"generators": []},
        "extra": {"generators": [[3]]},
        "action": {"points": 6, "permutations": [[1, 2, 3, 4, 5, 0]]},
        "subspace": {"generators": [[[1.0, 0.0]] + [[0.5, -0.25]] * 5]},
    }
    config = tmp_path / "check.json"
    config.write_text(json.dumps(doc))
    for args in (("demo", "dilation"), ("--config", str(config), "check")):
        imported = _imports(*args)
        assert "numpy" in imported
        assert not [m for m in imported if m in ("numpy.random", "numpy.ma")], args


def test_tracer_targets_exist():
    """Every ``actinv`` name the benchmark tracer patches is still defined.

    ``TARGETS`` in ``perfbench/tracer.py`` is read from the file, and each
    entry is looked up the way ``Recorder.install`` does: walk the dotted
    path with ``getattr``, then take the leaf from the owner's own
    ``vars``.  A deleted or renamed traced name fails here instead of in a
    traced benchmark run.
    """
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    missing = []
    for name, module, attr in targets:
        if module.split(".")[0] != "actinv":
            continue
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            missing.append(name)
    assert len(targets) > 30 and not missing, missing
