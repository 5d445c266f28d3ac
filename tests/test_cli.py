"""End-to-end command line runs (in-process) and the CSV helpers."""
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import actinv.cli as cli
from actinv.io import read_columns_csv, write_columns_csv

import oracle
from conftest import random_function


def rotate(n):
    return [(i + 1) % n for i in range(n)]


def shear_cfg(**over):
    doc = {
        "schema": 1,
        "group": {"moduli": [6]},
        "base": {"generators": []},
        "extra": {"generators": [[3]]},
        "action": {"points": 6, "permutations": [rotate(6)]},
    }
    doc.update(over)
    return doc


def chain12_cfg(**over):
    doc = {
        "schema": 1,
        "group": {"moduli": [12]},
        "base": {"generators": [[4]]},
        "extra": {"generators": [[2]]},
        "action": {"points": 12, "permutations": [rotate(12)]},
    }
    doc.update(over)
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


# -- happy paths ---------------------------------------------------------------


def test_validate_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, chain12_cfg())
    rc, out = run(capsys, ["--config", cfg, "validate"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "validate"
    assert doc["chain"]["index_base"] == 4
    assert doc["chain"]["index_extra"] == 2
    assert doc["action"]["orbit_count"] == 1
    assert all(v < 1e-10 for v in doc["self_test"].values())


def test_partition_command_golden(tmp_path, capsys):
    cfg = write_cfg(tmp_path, shear_cfg())
    rc, out = run(capsys, ["--config", cfg, "partition"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["blocks"] == [
        {"label": [0], "elements": [[0], [2], [4]]},
        {"label": [1], "elements": [[1], [3], [5]]},
    ]


def test_check_canonical_subspace(tmp_path, capsys):
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"canonical": True}))
    rc, out = run(capsys, ["--config", cfg, "check"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["subspace_dim"] == 3
    assert doc["extra_invariance"]["extra_invariant"] is True
    assert doc["extra_invariance"]["component_dims"] == [3, 0]
    assert doc["decomposability"]["decomposable"] is True


def test_check_random_subspace_deterministic(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        chain12_cfg(
            subspace={"random": {"kind": "spanned", "count": 2}},
            options={"seed": 7},
        ),
    )
    rc1, out1 = run(capsys, ["--config", cfg, "check"])
    rc2, out2 = run(capsys, ["--config", cfg, "check"])
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical report for identical config and seed
    doc = json.loads(out1)
    assert doc["extra_invariance"]["extra_invariant"] is False


def test_check_generators_inline(tmp_path, capsys, bank):
    scn = bank["chain12"]
    f = random_function(scn, np.random.default_rng(3))
    vec = [[float(v.real), float(v.imag)] for v in f]
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"generators": [vec]}))
    rc, out = run(capsys, ["--config", cfg, "check"])
    assert rc == 0
    assert json.loads(out)["subspace_dim"] == 3


def test_approx_command_with_out_files(tmp_path, capsys):
    rng = np.random.default_rng(4)
    vecs = []
    for _ in range(3):
        f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        vecs.append([[float(v.real), float(v.imag)] for v in f])
    cfg = write_cfg(
        tmp_path, chain12_cfg(data={"vectors": vecs}, options={"ell": 2})
    )
    out_path = tmp_path / "runs" / "report.json"
    rc, out = run(capsys, ["--config", cfg, "--out", str(out_path), "approx"])
    assert rc == 0
    assert out == ""  # report went to the file
    doc = json.loads(out_path.read_text())
    assert doc["ell"] == 2
    assert doc["n_vectors"] == 3
    assert doc["plain"]["error"] <= doc["extra"]["error"] + 1e-9
    for key, dims in (("plain", doc["plain"]["dim"]), ("extra", doc["extra"]["dim"])):
        frame_path = out_path.parent / doc["frames"][key]
        mat = read_columns_csv(frame_path)
        assert mat.shape == (12, dims)


def test_approx_data_from_csv(tmp_path, capsys):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    write_columns_csv(tmp_path / "data.csv", data)
    cfg = write_cfg(
        tmp_path, chain12_cfg(data={"csv": "data.csv"}, options={"ell": 1})
    )
    rc, out = run(capsys, ["--config", cfg, "approx"])
    assert rc == 0
    assert json.loads(out)["n_vectors"] == 2


def test_tol_flag_overrides_config(tmp_path, capsys):
    # an absurdly loose tolerance flips the verdict for a generic subspace
    cfg = write_cfg(
        tmp_path,
        chain12_cfg(subspace={"random": {"kind": "principal"}}, options={"tol": 1e-9}),
    )
    rc, out = run(capsys, ["--config", cfg, "--tol", "100.0", "check"])
    assert rc == 0
    assert json.loads(out)["extra_invariance"]["extra_invariant"] is True


# -- demos ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["shear", "dilation", "remark33"])
def test_demo_runs_clean(capsys, name):
    rc, out = run(capsys, ["demo", name])
    assert rc == 0
    doc = json.loads(out)
    assert doc["expected_ok"] is True
    assert doc["failures"] == []
    assert doc["extra_invariance"]["extra_invariant"] is True


def test_demo_deterministic_bytes(capsys):
    rc1, out1 = run(capsys, ["demo", "remark33"])
    rc2, out2 = run(capsys, ["demo", "remark33"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_demo_expectation_failure_exits_3(capsys, monkeypatch):
    broken = dict(cli.DEMO_EXPECTATIONS["shear"])
    broken["component_dims"] = [0, 1]
    monkeypatch.setitem(cli.DEMO_EXPECTATIONS, "shear", broken)
    rc, out = run(capsys, ["demo", "shear"])
    assert rc == 3
    doc = json.loads(out)
    assert doc["expected_ok"] is False
    assert any("component dimensions" in f for f in doc["failures"])


def test_theorem_violation_exits_3_with_plain_details(tmp_path, capsys, monkeypatch):
    """A check that raises ``TheoremViolationError`` exits 3 with its message
    and its details as plain JSON numbers: numpy scalars, also inside lists
    and tuples, become floats and ints, and other values pass unchanged."""

    def violated(scn, space, tol):
        raise cli.TheoremViolationError(
            "translation test and mask-inclusion test disagree",
            details={
                "translation_residual": np.float64(0.25),
                "inclusion_residuals": [np.float64(0.5), 1.0],
                "dims": (np.int64(3), np.int32(0)),
                "label": "xi",
            },
        )

    monkeypatch.setattr(cli, "check_extra_invariance", violated)
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"canonical": True}))
    rc, out = run(capsys, ["--config", cfg, "check"])
    assert rc == 3
    error = json.loads(out)["error"]
    assert error == {
        "kind": "theorem-violation",
        "detail": "translation test and mask-inclusion test disagree",
        "details": {
            "translation_residual": 0.25,
            "inclusion_residuals": [0.5, 1.0],
            "dims": [3, 0],
            "label": "xi",
        },
    }
    assert [type(d) for d in error["details"]["dims"]] == [int, int]


def _strict(text):
    """The JSON document, refusing ``Infinity``, ``-Infinity`` and ``NaN``."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_approx_refuses_data_whose_error_overflows(tmp_path, capsys):
    """Finite data whose approximation errors pass the float range exits 2
    (validation) with a strict JSON report, not ``"error": Infinity``."""
    rng = np.random.default_rng(6)
    cols = rng.standard_normal((2, 12)) + 1j * rng.standard_normal((2, 12))
    for scale, rc_want in ((1e150, 0), (1e160, 2)):
        vecs = [[[float(v.real * scale), float(v.imag * scale)] for v in col] for col in cols]
        cfg = write_cfg(tmp_path, chain12_cfg(data={"vectors": vecs}, options={"ell": 1}))
        rc, out = run(capsys, ["--config", cfg, "approx"])
        doc = _strict(out)
        assert rc == rc_want
        if rc == 0:
            assert 0.0 < doc["plain"]["error"] <= doc["extra"]["error"]
        else:
            assert doc["error"]["kind"] == "validation"
            assert "too large: the discarded energy overflows" in doc["error"]["detail"]


# -- configuration errors (exit 1) ---------------------------------------------


def error_detail(capsys, argv):
    rc, out = run(capsys, argv)
    doc = json.loads(out)
    return rc, doc["error"]["kind"], doc["error"]["detail"]


def test_unexpected_exception_exits_4(capsys, tmp_path, monkeypatch):
    def broken(doc, args):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    cfg = write_cfg(tmp_path, chain12_cfg())
    rc, out = run(capsys, ["--config", cfg, "validate"])
    assert rc == 4
    err = json.loads(out)["error"]
    assert err["kind"] == "internal"
    assert err["detail"] == "RuntimeError: handler broke"
    assert any("handler broke" in line for line in err["traceback"])


def test_missing_config_flag(capsys):
    rc, kind, detail = error_detail(capsys, ["check"])
    assert rc == 1 and kind == "config"
    assert "--config" in detail


def test_config_file_not_found(capsys, tmp_path):
    rc, kind, detail = error_detail(
        capsys, ["--config", str(tmp_path / "nope.json"), "validate"]
    )
    assert rc == 1 and kind == "config"
    assert "not found" in detail


def test_missing_group_section(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"schema": 1})
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and kind == "config"
    assert detail == ".group: missing required field"


def test_wrong_schema_version(capsys, tmp_path):
    cfg = write_cfg(tmp_path, shear_cfg(schema=99))
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and detail == "schema: expected schema version 1"


def test_bad_permutation(capsys, tmp_path):
    doc = chain12_cfg()
    doc["action"]["permutations"] = [[0] * 12]
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1
    assert detail == "action.permutations[0]: not a permutation of 0..11"


def test_non_finite_weight_is_a_config_error(capsys, tmp_path):
    doc = chain12_cfg()
    doc["action"]["weights"] = [float("inf")] + [1.0] * 11
    cfg = write_cfg(tmp_path, doc)
    # json.dumps writes the JSON extension token Infinity, which json.loads accepts
    assert "Infinity" in (tmp_path / "cfg.json").read_text()
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and kind == "config"
    assert detail.startswith("action.weights:")


@pytest.mark.parametrize("flag", [False, True])
def test_negative_seed_is_a_config_error(capsys, tmp_path, flag):
    # numpy refuses a negative seed; the CLI names the field and exits 1
    doc = chain12_cfg(subspace={"random": {"kind": "principal"}})
    if flag:
        argv = ["--seed", "-1"]
    else:
        doc["options"] = {"seed": -3}
        argv = []
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, *argv, "check"])
    assert rc == 1 and kind == "config"
    assert detail == "options.seed: expected a non-negative integer"


def _set(doc, path, value):
    *keys, last = path
    for k in keys:
        doc = doc[k]
    doc[last] = value


@pytest.mark.parametrize(
    "path,value,field",
    [
        (("group", "moduli"), [True], "group.moduli"),
        (("base", "generators"), [[True]], "base.generators[0]"),
        (
            ("action", "permutations"),
            [[True] + rotate(12)[1:]],  # a permutation if true were read as 1
            "action.permutations[0]",
        ),
        (("action", "points"), True, "action.points"),
        (("action", "weights"), [True] + [1.0] * 11, "action.weights"),
    ],
)
def test_json_boolean_is_a_config_error(capsys, tmp_path, path, value, field):
    # bool is an int subclass in Python; JSON true must not pass as 1
    doc = chain12_cfg()
    _set(doc, path, value)
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and kind == "config"
    assert detail.startswith(field + ":")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_generator_is_a_config_error(capsys, tmp_path, bad):
    gens = [[[1.0, 0.0]] * 12]
    gens[0] = gens[0][:3] + [[bad, 0.0]] + gens[0][4:]
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"generators": gens}))
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "check"])
    assert rc == 1 and kind == "config"
    assert detail.startswith("subspace.generators[0][3]:")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_data_vector_is_a_config_error(capsys, tmp_path, bad):
    vecs = [[[1.0, 0.0]] * 12, [[0.0, bad]] + [[1.0, 0.0]] * 11]
    cfg = write_cfg(tmp_path, chain12_cfg(data={"vectors": vecs}, options={"ell": 1}))
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "approx"])
    assert rc == 1 and kind == "config"
    assert detail.startswith("data.vectors[1][0]:")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_data_csv_is_a_config_error(capsys, tmp_path, bad):
    rows = ["c0_re,c0_im"] + ["1.0,0.0"] * 11 + [f"0.5,{bad}"]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, chain12_cfg(data={"csv": "data.csv"}, options={"ell": 1}))
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "approx"])
    assert rc == 1 and kind == "config"
    assert detail.startswith("data.csv:") and "non-finite" in detail


def test_check_needs_subspace(capsys, tmp_path):
    cfg = write_cfg(tmp_path, chain12_cfg())
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "check"])
    assert rc == 1 and "subspace" in detail


def test_approx_needs_data_and_ell(capsys, tmp_path):
    cfg = write_cfg(tmp_path, chain12_cfg())
    rc, _, detail = error_detail(capsys, ["--config", cfg, "approx"])
    assert rc == 1 and "data" in detail
    cfg = write_cfg(tmp_path, chain12_cfg(data={"vectors": [[[1.0, 0.0]] * 12]}))
    rc, _, detail = error_detail(capsys, ["--config", cfg, "approx"])
    assert rc == 1 and "options.ell" in detail


def test_bad_vector_arity(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path,
        chain12_cfg(data={"vectors": [[[1.0, 0.0]] * 5]}, options={"ell": 1}),
    )
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "approx"])
    assert rc == 1 and "12" in detail


def test_missing_csv_file(capsys, tmp_path):
    cfg = write_cfg(
        tmp_path, chain12_cfg(data={"csv": "absent.csv"}, options={"ell": 1})
    )
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "approx"])
    assert rc == 1 and kind == "config"


@pytest.mark.parametrize("section", ["subspace", "data"])
@pytest.mark.parametrize("name", [5, ["a"]])
def test_non_string_csv_name_is_a_config_error(capsys, tmp_path, section, name):
    cfg = write_cfg(tmp_path, chain12_cfg(**{section: {"csv": name}}, options={"ell": 1}))
    command = "check" if section == "subspace" else "approx"
    rc, kind, detail = error_detail(capsys, ["--config", cfg, command])
    assert rc == 1 and kind == "config"
    assert detail == f"{section}.csv: expected a file name"


def test_config_directory_is_a_config_error(capsys, tmp_path):
    rc, kind, detail = error_detail(capsys, ["--config", str(tmp_path), "validate"])
    assert rc == 1 and kind == "config"
    assert detail.startswith(f"{tmp_path}: cannot read")


def test_non_utf8_config_is_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(json.dumps(chain12_cfg(note="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
    rc, kind, detail = error_detail(capsys, ["--config", str(cfg), "validate"])
    assert rc == 1 and kind == "config"
    assert detail.startswith(f"{cfg}: not UTF-8 text")


def test_deeply_nested_config_is_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100000)
    rc, kind, detail = error_detail(capsys, ["--config", str(cfg), "validate"])
    assert rc == 1 and kind == "config"
    assert detail == f"{cfg}: invalid JSON: nested too deeply"


def test_out_directory_is_a_config_error(capsys, tmp_path):
    rc, kind, detail = error_detail(capsys, ["--out", str(tmp_path), "demo", "shear"])
    assert rc == 1 and kind == "config"
    assert detail.startswith(f"--out: cannot write {tmp_path}")


def test_zero_points_is_refused_under_its_field(capsys, tmp_path):
    doc = shear_cfg()
    doc["action"] = {"points": 0, "permutations": [[]]}
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and kind == "config"
    assert detail == "action.points: need at least one point"


# -- validation failures (exit 2) ----------------------------------------------


def test_point_count_is_refused_before_the_group_is_built(capsys, tmp_path, monkeypatch):
    """A small config naming a huge group: the orbit count is checked first."""

    def unbuilt(moduli):
        raise RuntimeError(f"group of moduli {moduli} was built")

    monkeypatch.setattr(cli, "FiniteAbelianGroup", unbuilt)
    doc = shear_cfg(group={"moduli": [1000000]}, extra={"generators": []})
    doc["action"] = {"points": 2, "permutations": [[1, 0]]}
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 2 and kind == "validation"
    assert detail == "2 points cannot split into free orbits of size 1000000"



def test_non_free_action_exits_2(capsys, tmp_path):
    doc = {
        "schema": 1,
        "group": {"moduli": [2]},
        "base": {"generators": []},
        "extra": {"generators": [[1]]},
        "action": {"points": 2, "permutations": [[0, 1]]},
    }
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 2 and kind == "validation"
    assert "fixes point" in detail


def test_non_nested_chain_exits_2(capsys, tmp_path):
    doc = chain12_cfg()
    doc["base"] = {"generators": [[3]]}
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 2 and kind == "validation"


# -- CSV helpers ---------------------------------------------------------------


def test_columns_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    path = tmp_path / "mat.csv"
    write_columns_csv(path, mat)
    assert_allclose(read_columns_csv(path), mat, atol=1e-15)
    vec = mat[:, 0]
    write_columns_csv(path, vec)
    assert read_columns_csv(path).shape == (7, 1)


def test_columns_csv_matches_the_entrywise_writer(tmp_path):
    """The file has the bytes of the entry-by-entry writer: values over 600
    decades, signed zeros, the smallest subnormal and the largest double,
    a transposed matrix, a 1-D vector and a matrix of no columns."""
    rng = np.random.default_rng(47)
    shape = (9, 3)
    spread = 10.0 ** rng.uniform(-300, 300, (2,) + shape)
    signs = rng.choice([-1.0, 1.0], (2,) + shape)
    wide = spread[0] * signs[0] + 1j * spread[1] * signs[1]
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    edges = np.array([[0.0, -0.0], [tiny, -tiny], [huge, -huge]]) @ np.array([1.0, 1j])
    cases = [wide, wide.T, edges, edges[:, None], wide[:, 0], np.zeros((4, 0), dtype=complex)]
    for k, mat in enumerate(cases):
        ours, ref = tmp_path / f"ours{k}.csv", tmp_path / f"ref{k}.csv"
        write_columns_csv(ours, mat)
        oracle.write_columns_csv(ref, mat)
        assert ours.read_bytes() == ref.read_bytes(), k


def test_columns_csv_round_trip_is_bitwise(tmp_path):
    """Reading back what the writer wrote returns every bit, signed zeros
    included: an entry is never rebuilt as ``re + 1j * im``, which turns a
    -0.0 imaginary part, and a -0.0 real part beside ``1j``, into +0.0."""
    rng = np.random.default_rng(47)
    shape = (9, 3)
    spread = 10.0 ** rng.uniform(-300, 300, (2,) + shape)
    signs = rng.choice([-1.0, 1.0], (2,) + shape)
    wide = spread[0] * signs[0] + 1j * spread[1] * signs[1]
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    edges = np.array([[0.0, -0.0], [tiny, -tiny], [huge, -huge]]) @ np.array([1.0, 1j])
    zeros = np.array([[complex(-0.0, -0.0), complex(-0.0, 1.0)], [complex(1.5, -0.0), 0j]])
    for k, mat in enumerate([wide, wide.T, edges, edges[:, None], wide[:, 0], zeros]):
        path = tmp_path / f"round{k}.csv"
        write_columns_csv(path, mat)
        back = read_columns_csv(path)
        want = mat if mat.ndim == 2 else mat[:, None]
        assert back.dtype == complex and back.shape == want.shape, k
        assert back.tobytes() == np.ascontiguousarray(want).tobytes(), k


def test_columns_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x_re,x_im\n1,2\n")
    with pytest.raises(ValueError):
        read_columns_csv(p)
    p.write_text("c0_re,c0_im\n1\n")
    with pytest.raises(ValueError):
        read_columns_csv(p)
    p.write_text("c0_re,c0_im\n")
    with pytest.raises(ValueError):
        read_columns_csv(p)
    for bad in ("nan", "inf"):
        p.write_text(f"c0_re,c0_im\n1,{bad}\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_columns_csv(p)
