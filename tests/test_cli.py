"""End-to-end command line runs (in-process) and the CSV helpers."""
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import actinv.cli as cli
from actinv.io import read_columns_csv, write_columns_csv

import oracle
from conftest import random_function

GOLDEN = Path(__file__).resolve().parent / "golden"


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


@pytest.mark.parametrize("value", ["no", "false", [0], 1])
def test_canonical_flag_must_be_a_json_boolean(capsys, tmp_path, value):
    """``subspace.canonical`` is a JSON boolean: any other value is refused
    at its field (exit 1), where a truthy one built the canonical space."""
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"canonical": value}))
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "check"])
    assert rc == 1 and kind == "config"
    assert detail == "subspace.canonical: expected true or false"


def test_canonical_flag_false_reads_as_absent(capsys, tmp_path):
    """``canonical: false`` reads as absent, so the other keys of the
    section decide; ``true`` builds the canonical space."""
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"canonical": False}))
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "check"])
    assert rc == 1 and detail.startswith("subspace: expected one of")
    sub = {"canonical": False, "random": {"kind": "principal"}}
    rc, out = run(capsys, ["--config", write_cfg(tmp_path, chain12_cfg(subspace=sub)), "check"])
    assert rc == 0 and json.loads(out)["subspace_dim"] == 3
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"canonical": True}))
    rc, out = run(capsys, ["--config", cfg, "check"])
    assert rc == 0 and json.loads(out)["extra_invariance"]["component_dims"] == [3, 0]


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
    and its details as plain JSON values: numpy scalars, also inside lists
    and tuples, become floats, ints and bools, a bool stays a bool (it was
    written as 1), and other values pass unchanged."""

    def violated(scn, space, tol):
        raise cli.TheoremViolationError(
            "translation test and mask-inclusion test disagree",
            details={
                "translation_residual": np.float64(0.25),
                "inclusion_residuals": [np.float64(0.5), 1.0],
                "dims": (np.int64(3), np.int32(0)),
                "ok": (True, np.bool_(False)),
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
            "ok": [True, False],
            "label": "xi",
        },
    }
    assert [type(d) for d in error["details"]["dims"]] == [int, int]
    assert [type(d) for d in error["details"]["ok"]] == [bool, bool]


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


def test_input_whose_transform_overflows_exits_2(tmp_path, capsys):
    """Z_2 x Z_6 on 2 orbits, weights log-uniform over a 1e3 range:
    generators or data scaled to 1e307 overflow
    the Zak transform.  ``check`` and ``approx`` exit 2 (validation),
    naming the generators or the data vectors, with no ``RuntimeWarning``
    (the suite turns one into an error); at 1e150 both run."""
    from actinv import ActionSpace, FiniteAbelianGroup

    rng = np.random.default_rng(53)
    act = ActionSpace.regular(FiniteAbelianGroup([2, 6]), 2)
    weights = np.exp(rng.uniform(0.0, np.log(1e3), 24)).tolist()
    cols = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
    doc = {
        "schema": 1,
        "group": {"moduli": [2, 6]},
        "base": {"generators": [[0, 2]]},
        "extra": {"generators": [[1, 0], [0, 2]]},
        "action": {
            "points": 24,
            "permutations": [p.tolist() for p in act.generator_perms],
            "weights": weights,
        },
        "options": {"ell": 1},
    }
    for scale, rc_want in ((1e150, 0), (1e307, 2)):
        vecs = [[[float(v.real * scale), float(v.imag * scale)] for v in col] for col in cols]
        for command, key, subject in (
            ("check", "subspace", "generators"),
            ("approx", "data", "data vectors"),
        ):
            field = "generators" if key == "subspace" else "vectors"
            cfg = write_cfg(tmp_path, dict(doc, **{key: {field: vecs}}))
            rc, out = run(capsys, ["--config", cfg, command])
            assert rc == rc_want, out
            if rc:
                error = _strict(out)["error"]
                assert error["kind"] == "validation"
                assert error["detail"] == (
                    f"{subject} too large: the Zak transform overflows the float range"
                )


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


def test_short_permutation_of_a_huge_point_count_is_refused_first(capsys, tmp_path):
    """The length is checked before ``range(points)`` is built, so a small
    config naming 2**62 points fails at once with the permutation's message."""
    doc = shear_cfg(group={"moduli": [2**62]}, extra={"generators": []})
    doc["action"] = {"points": 2**62, "permutations": [[0]]}
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and kind == "config"
    assert detail == f"action.permutations[0]: not a permutation of 0..{2**62 - 1}"


def test_non_finite_weight_is_a_config_error(capsys, tmp_path):
    doc = chain12_cfg()
    doc["action"]["weights"] = [float("inf")] + [1.0] * 11
    cfg = write_cfg(tmp_path, doc)
    # json.dumps writes the JSON extension token Infinity, which json.loads accepts
    assert "Infinity" in (tmp_path / "cfg.json").read_text()
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and kind == "config"
    assert detail.startswith("action.weights:")


def test_weight_ratio_that_overflows_is_a_config_error(capsys, tmp_path):
    """Weights 1e-300 and 1e300, alternating, are finite and positive, but
    their ratio is not: exit 1 at ``action``, where ``validate`` used to
    print ``"full_round_trip": Infinity``, which is not JSON."""
    doc = chain12_cfg()
    doc["action"]["weights"] = [1e-300, 1e300] * 6
    cfg = write_cfg(tmp_path, doc)
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "validate"])
    assert rc == 1 and kind == "config"
    assert detail.startswith("action: weight ratio max/min overflows the float range")


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


def test_budget_past_every_integer_dtype_is_the_pool_width(capsys, tmp_path):
    """``options.ell`` of 10**30 runs (exit 0) with the spectra, errors and
    dimensions of a budget of the point count, which no fiber's pool
    exceeds, and reports the budget as given."""
    doc = json.loads((GOLDEN / "configs" / "chain12_approx_ell1.json").read_text())
    reports = []
    for ell in (10**30, 12):
        doc["options"]["ell"] = ell
        rc, out = run(capsys, ["--config", write_cfg(tmp_path, doc), "approx"])
        assert rc == 0
        reports.append(json.loads(out))
    huge, full = reports
    assert huge["ell"] == huge["plain"]["ell"] == huge["extra"]["ell"] == 10**30
    for report in (huge, full, huge["plain"], full["plain"], huge["extra"], full["extra"]):
        report.pop("ell")
    assert huge == full


@pytest.mark.parametrize("count", [13, 10**30])
def test_random_count_above_the_points_is_a_config_error(capsys, tmp_path, count):
    """More random generators than points span nothing more: a count above
    ``action.points`` is refused at its field (exit 1) before any draw;
    the point count itself runs."""
    for kind in ("spanned", "principal"):
        sub = {"random": {"kind": kind, "count": count}}
        cfg = write_cfg(tmp_path, chain12_cfg(subspace=sub))
        rc, kind_, detail = error_detail(capsys, ["--config", cfg, "check"])
        assert rc == 1 and kind_ == "config"
        assert detail == "subspace.random.count: expected at most 12 (action.points)"
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"random": {"kind": "spanned", "count": 12}}))
    assert run(capsys, ["--config", cfg, "check"])[0] == 0


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
def test_empty_csv_is_a_config_error(capsys, tmp_path, section):
    """A 0-byte CSV has no header: exit 1 at the section's ``csv`` field,
    not a ``StopIteration`` traceback (exit 4)."""
    (tmp_path / "empty.csv").write_text("")
    cfg = write_cfg(tmp_path, chain12_cfg(**{section: {"csv": "empty.csv"}}, options={"ell": 1}))
    command = "check" if section == "subspace" else "approx"
    rc, kind, detail = error_detail(capsys, ["--config", cfg, command])
    assert rc == 1 and kind == "config"
    assert detail.startswith(f"{section}.csv:") and detail.endswith("empty.csv: no header")


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


def test_approx_out_under_a_file_is_a_config_error(capsys, tmp_path):
    """Every output file goes through one guarded writer: with ``--out``
    under a regular file, ``approx`` refuses at its first frame CSV as
    ``check`` refuses at its report, exit 1, not an internal error."""
    data = [[[float(x), 0.0] for x in range(12)]]
    cfg = write_cfg(tmp_path, chain12_cfg(data={"vectors": data}, options={"ell": 1}))
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "report.json"
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "--out", str(out), "approx"])
    assert rc == 1 and kind == "config"
    assert detail == f"--out: cannot write {out.with_suffix('.plain_frame.csv')}: File exists"
    cfg = write_cfg(tmp_path, chain12_cfg(subspace={"canonical": True}), "check.json")
    rc, kind, detail = error_detail(capsys, ["--config", cfg, "--out", str(out), "check"])
    assert rc == 1 and kind == "config"
    assert detail == f"--out: cannot write {out}: File exists"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tol", "abc", "validate"], "argument --tol: invalid float value: 'abc'"),
        (["--seed", "1.5", "demo", "shear"], "argument --seed: invalid int value: '1.5'"),
        (["demo", "nope"], "argument name: invalid choice: 'nope'"),
        ([], "the following arguments are required: command"),
        (["validate", "extra"], "unrecognized arguments: extra"),
    ],
)
def test_usage_errors_are_config_errors(capsys, argv, message):
    """A command line argparse refuses is a config error in JSON, exit 1,
    carrying argparse's message, not its usage text and exit 2."""
    rc, kind, detail = error_detail(capsys, argv)
    assert rc == 1 and kind == "config"
    assert detail.startswith(f"command line: {message}")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: actinv")


def test_validate_builds_the_coset_table_twice(tmp_path, capsys, monkeypatch):
    """One ``validate`` builds ``coset_dft`` once for its batched relation
    check and once for the unitarity product."""
    builds = []
    table = cli.Scenario.coset_dft
    monkeypatch.setattr(
        cli.Scenario, "coset_dft", property(lambda scn: builds.append(1) or table.fget(scn))
    )
    rc, _ = run(capsys, ["--config", write_cfg(tmp_path, chain12_cfg()), "validate"])
    assert rc == 0 and len(builds) == 2


def test_read_columns_csv_refuses_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv: no header$"):
        read_columns_csv(path)


def test_columns_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    path = tmp_path / "mat.csv"
    write_columns_csv(path, mat)
    assert_allclose(read_columns_csv(path), mat, atol=1e-15)
    vec = mat[:, 0]
    write_columns_csv(path, vec)
    assert read_columns_csv(path).shape == (7, 1)


def test_columns_csv_takes_any_array_like(tmp_path):
    """A list is written as its array is: a flat list is one column, and
    a nested one a matrix, read off the array, not off the argument."""
    path = tmp_path / "list.csv"
    for given in ([1, 2, 3], [[1, 2], [3, 4]]):
        write_columns_csv(path, given)
        want = np.asarray(given, dtype=complex).reshape(len(given), -1)
        assert read_columns_csv(path).tobytes() == want.tobytes()


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
