"""Source-level rules for the library package."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actinv

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "actinv"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
    """Lines reading ``RANK_TOL`` outside the places allowed to cut on it.

    The rank rule is written once, in ``spaces._kept``; ``extra._split``
    passes ``RANK_TOL`` as the ``floor=`` of its cut of unit basis
    directions, and ``masked_component`` as the ``floor=`` of its span.
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_kept":
            allowed.update(id(n) for n in ast.walk(node))
        if isinstance(node, ast.FunctionDef) and node.name in ("masked_component", "_split"):
            for call in ast.walk(node):
                for kw in getattr(call, "keywords", ()):
                    if kw.arg == "floor":
                        allowed.update(id(n) for n in ast.walk(kw.value))
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
    assert _rank_tol_uses(ast.parse(source)) == [9, 13]


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


def _modulations_calls(tree: ast.AST) -> list[int]:
    """Lines calling ``modulations`` outside ``Scenario.modulation`` and
    ``spaces._probe_pass``.

    Those two read one probe's row each.  A span splits the generators'
    fibers along the block rows of its subgroup instead of modulating them
    by a section of it, so no builder makes a table of modulations.
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("modulation", "_probe_pass"):
            allowed.update(id(n) for n in ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "modulations" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and id(node) not in allowed
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modulation_tables_are_built_only_per_probe(path):
    """Only a probe's row is ever built from ``Scenario.modulations``."""
    lines = _modulations_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls modulations at lines {lines}"


def test_modulations_rule_catches_a_section_table():
    source = """
def modulation(self, g):
    return self.modulations((g,))[0]

def _probe_pass(space, g):
    return scn.modulations((g,))

def span_invariant(scn, gens, subgroup):
    moved = [d * gens for d in scn.modulations(scn.section(subgroup))]
    return modulations(section)
"""
    assert _modulations_calls(ast.parse(source)) == [9, 10]


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
