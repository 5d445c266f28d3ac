"""Golden CLI output: the reports and frames of fixed runs, byte for byte.

Every case runs the command line in-process on a configuration committed
under ``golden/configs`` (or a built-in demo) and compares what it writes
with the files under ``golden``: the JSON report, and for ``approx`` the
two CSV frames.  The files were recorded before every span, fit and
frame went through one block cut (``spaces._block_cut``), and that change
kept them; a change of any byte (a digit, the sign of an exact zero in a
frame) fails here.

To record the files again, after a change that is meant to move them::

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

import actinv.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = GOLDEN / "configs"

# name -> argv; ``{out}`` is the report path of a run that writes files
CASES = {
    "demo_shear": ["demo", "shear"],
    "demo_dilation": ["demo", "dilation"],
    "demo_remark33": ["demo", "remark33"],
    "validate_chain12": ["--config", "chain12_principal.json", "validate"],
    "partition_chain12": ["--config", "chain12_principal.json", "partition"],
    "check_chain12_principal": ["--config", "chain12_principal.json", "check"],
    "check_chain12_spanned": ["--config", "chain12_spanned.json", "check"],
    "check_chain12_canonical": ["--config", "chain12_canonical.json", "check"],
    "approx_chain12_ell1": ["--config", "chain12_approx_ell1.json", "--out", "{out}", "approx"],
    "approx_chain12_ell2": ["--config", "chain12_approx_ell2.json", "--out", "{out}", "approx"],
}


def _run(name: str, workdir: Path) -> dict[str, bytes]:
    """The files case ``name`` writes, by golden file name, run in ``workdir``.

    A report on stdout is captured as ``name.json``; a run with ``--out``
    writes ``name.json`` and its frames into ``workdir``.
    """
    argv = list(CASES[name])
    if "--config" in argv:
        i = argv.index("--config") + 1
        argv[i] = str(CONFIGS / argv[i])
    report = workdir / f"{name}.json"
    writes = "{out}" in argv
    argv = [str(report) if a == "{out}" else a for a in argv]
    if writes:
        assert cli.main(argv) == 0
    else:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(argv) == 0
        report.write_text(buffer.getvalue())
    return {p.name: p.read_bytes() for p in sorted(workdir.glob(f"{name}.*"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical_to_the_golden_files(name, tmp_path):
    got = _run(name, tmp_path)
    want = {p.name: p.read_bytes() for p in sorted(GOLDEN.glob(f"{name}.*"))}
    assert sorted(got) == sorted(want)
    for file in want:
        assert got[file] == want[file], file


if __name__ == "__main__":
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for file, data in _run(name, Path(tmp)).items():
                (GOLDEN / file).write_bytes(data)
    sys.exit(0)
