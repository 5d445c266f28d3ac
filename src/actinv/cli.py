"""Command line interface.

Subcommands::

    validate    build and validate the configured scenario, run transform
                self-tests on five seeded random vectors, one batch
    partition   print the dual partition blocks
    check       run the extra-invariance and decomposability checks on the
                configured subspace
    approx      best invariant / extra-invariant approximation of the
                configured data vectors
    demo NAME   run a built-in configuration (shear | dilation | remark33)
                and assert its embedded expectations

Exit codes: 0 success, 1 malformed configuration or command line, 2
validation failure (chain, action or invariance preconditions), 3 theorem
violation, 4 internal error (any other exception, reported with its
traceback).  All reports are JSON with sorted keys, so identical
configuration and seed give byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .actions import ActionSpace
from .approx import best_extra_invariant, best_invariant
from .demos import DEMO_CONFIGS, DEMO_EXPECTATIONS
from .errors import (
    ActionError,
    ChainError,
    ConfigError,
    InvarianceError,
    OrbitError,
    TheoremViolationError,
)
from .extra import (
    canonical_extra_invariant,
    check_decomposable,
    check_extra_invariance,
    dual_partition,
)
from .groups import FiniteAbelianGroup, Subgroup
from .io import ensure_parent, plain_value, read_columns_csv, write_columns_csv
from .scenario import Scenario
from .spaces import DEFAULT_TOL, Subspace, span_invariant
from .zak import (
    base_norm,
    full_norm,
    stacked_norm,
    zak_base,
    zak_base_inv,
    zak_full,
    zak_full_inv,
    zak_relation_deviation,
    zak_stacked,
    zak_stacked_inv,
)

SCHEMA_VERSION = 1


# -- configuration ------------------------------------------------------------


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(str(path), "configuration file not found")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(str(path), "invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be an object")
    doc.setdefault("_dir", str(p.parent))
    return doc


def _require(doc: dict, field: str, kind, path: str):
    if field not in doc:
        raise ConfigError(f"{path}.{field}", "missing required field")
    value = doc[field]
    # no required field is a boolean, and JSON true/false must not pass as int
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ConfigError(f"{path}.{field}", f"expected {kind.__name__}")
    return value


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A finite JSON number; ``bool`` is an ``int`` subclass and is refused."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and -math.inf < v < math.inf


def _int_list(raw, path: str) -> list[int]:
    if not isinstance(raw, list) or not all(_is_int(v) for v in raw):
        raise ConfigError(path, "expected a list of integers")
    return raw


def build_scenario(doc: dict) -> Scenario:
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected schema version {SCHEMA_VERSION}")
    group_doc = _require(doc, "group", dict, "")
    moduli = _int_list(_require(group_doc, "moduli", list, "group"), "group.moduli")
    if not moduli or any(n < 1 for n in moduli):
        raise ConfigError("group.moduli", "moduli must be positive integers")
    rank = len(moduli)

    def generators(name: str) -> list[list[int]]:
        sub_doc = _require(doc, name, dict, "")
        gens_raw = _require(sub_doc, "generators", list, name)
        gens = []
        for i, g in enumerate(gens_raw):
            g = _int_list(g, f"{name}.generators[{i}]")
            if len(g) != rank:
                raise ConfigError(f"{name}.generators[{i}]", f"expected {rank} coordinates")
            gens.append(g)
        return gens

    base_gens, extra_gens = generators("base"), generators("extra")
    action_doc = _require(doc, "action", dict, "")
    points = _require(action_doc, "points", int, "action")
    if points < 1:
        raise ConfigError("action.points", "need at least one point")
    perms_raw = _require(action_doc, "permutations", list, "action")
    if len(perms_raw) != rank:
        raise ConfigError("action.permutations", f"expected {rank} permutations")
    perms = []
    for i, p in enumerate(perms_raw):
        p = _int_list(p, f"action.permutations[{i}]")
        if len(p) != points or sorted(p) != list(range(points)):
            raise ConfigError(
                f"action.permutations[{i}]",
                f"not a permutation of 0..{points - 1}",
            )
        perms.append(p)
    weights = action_doc.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != points:
            raise ConfigError("action.weights", f"expected {points} numbers")
        if not all(_is_finite(v) and v > 0 for v in weights):
            raise ConfigError("action.weights", "weights must be finite positive numbers")
    order = math.prod(moduli)
    if points % order:
        # before the group is built: a small config can name a group too
        # large to hold, and no free action of it on these points exists
        raise OrbitError(f"{points} points cannot split into free orbits of size {order}")
    group = FiniteAbelianGroup(moduli)
    base, extra = Subgroup(group, base_gens), Subgroup(group, extra_gens)
    try:
        action = ActionSpace(group, points, perms, weights)
    except (ActionError, ValueError) as exc:
        raise ConfigError("action", str(exc)) from exc
    return Scenario(group, base, extra, action)


def _complex_vector(raw, n: int, path: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise ConfigError(path, f"expected {n} [re, im] pairs")
    out = np.empty(n, dtype=complex)
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]", "expected an [re, im] pair")
        if not all(_is_finite(v) for v in pair):
            raise ConfigError(f"{path}[{i}]", "expected two finite numbers")
        out[i] = complex(pair[0], pair[1])
    return out


def _vectors_from(
    sec: dict, section: str, key: str, scn: Scenario, config_dir: str
) -> np.ndarray:
    """Columns from ``sec[key]`` (lists of [re, im] pairs) or from ``sec["csv"]``."""
    n = scn.action.n_points
    if key in sec:
        raws = sec[key]
        if not isinstance(raws, list) or not raws:
            raise ConfigError(f"{section}.{key}", "expected a nonempty list")
        return np.column_stack(
            [_complex_vector(v, n, f"{section}.{key}[{i}]") for i, v in enumerate(raws)]
        )
    if "csv" in sec:
        if not isinstance(sec["csv"], str):
            raise ConfigError(f"{section}.csv", "expected a file name")
        path = Path(config_dir) / sec["csv"]
        try:
            mat = read_columns_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{section}.csv", str(exc)) from exc
        if mat.shape[0] != n:
            raise ConfigError(f"{section}.csv", f"expected {n} rows, got {mat.shape[0]}")
        return mat
    raise ConfigError(section, f"expected '{key}' or 'csv'")


def build_subspace(doc: dict, scn: Scenario, seed: int) -> Subspace:
    """The configured subspace; ``seed`` draws the generators of ``random``."""
    if "subspace" not in doc:
        raise ConfigError("subspace", "missing required section")
    sec = doc["subspace"]
    if not isinstance(sec, dict):
        raise ConfigError("subspace", "expected an object")
    canonical = sec.get("canonical", False)
    if not isinstance(canonical, bool):
        raise ConfigError("subspace.canonical", "expected true or false")
    if canonical:
        return canonical_extra_invariant(scn)
    if "random" in sec:
        rnd = sec["random"]
        if not isinstance(rnd, dict):
            raise ConfigError("subspace.random", "expected an object")
        kind = rnd.get("kind", "principal")
        count = rnd.get("count", 1)
        if kind not in ("principal", "spanned"):
            raise ConfigError("subspace.random.kind", "expected 'principal' or 'spanned'")
        n = scn.action.n_points
        if not _is_int(count) or count < 1:
            raise ConfigError("subspace.random.count", "expected a positive integer")
        if count > n:
            # more generators than points span nothing more
            raise ConfigError("subspace.random.count", f"expected at most {n} (action.points)")
        if kind == "principal":
            count = 1
        rng = np.random.default_rng(seed)
        gens = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
        return span_invariant(scn, gens)
    if "generators" in sec or "csv" in sec:
        gens = _vectors_from(sec, "subspace", "generators", scn, doc.get("_dir", "."))
        return span_invariant(scn, gens)
    raise ConfigError(
        "subspace", "expected one of 'generators', 'csv', 'random', 'canonical'"
    )


def _options(doc: dict, args) -> tuple[float, int]:
    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise ConfigError("options", "expected an object")
    tol = args.tol if args.tol is not None else opts.get("tol", DEFAULT_TOL)
    if not _is_finite(tol) or tol <= 0:
        raise ConfigError("options.tol", "expected a positive number")
    seed = args.seed if args.seed is not None else opts.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("options.seed", "expected a non-negative integer")
    return float(tol), int(seed)


# -- reports ------------------------------------------------------------------


def _write(path, write) -> None:
    """``write(path)`` into a file the ``--out`` option names, its parent
    made first: the one writer of every output file, so a path that cannot
    be written is a config error naming it."""
    try:
        write(ensure_parent(path))
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        _write(out, lambda p: p.write_text(text))
    else:
        sys.stdout.write(text)


def _self_test(scn: Scenario, seed: int) -> dict:
    """Worst round-trip error and relative isometry defect of each transform
    and worst relation deviation over five seeded random functions, drawn
    into one matrix that each transform and its inverse take once, and the
    unitarity defect of the coset character table."""
    rng = np.random.default_rng(seed)
    n = scn.action.n_points
    f = np.column_stack([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(5)])
    refs = [scn.action.norm(col) for col in f.T]
    transforms = {
        "base": (zak_base, zak_base_inv, base_norm),
        "full": (zak_full, zak_full_inv, full_norm),
        "stacked": (zak_stacked, zak_stacked_inv, stacked_norm),
    }
    worst = {"relation": zak_relation_deviation(scn, f)}
    for name, (forward, inverse, norm) in transforms.items():
        z = forward(scn, f)
        back = inverse(scn, z)
        back -= f
        worst[f"{name}_round_trip"] = float(np.max(np.abs(back)))
        worst[f"{name}_isometry"] = max(
            abs(norm(scn, z[..., j]) - ref) / ref for j, ref in enumerate(refs)
        )
    dft = scn.coset_dft / np.sqrt(scn.n_cosets)
    worst["coset_dft_unitarity"] = float(
        np.max(np.abs(dft @ dft.conj().T - np.eye(scn.n_cosets)))
    )
    return worst


def _scenario_report(scn: Scenario) -> dict:
    return {
        "chain": scn.chain.as_dict(),
        "action": scn.action_report.as_dict(),
        "tiling": {
            "orbit_reps": [int(x) for x in scn.tiling.orbit_reps],
            "tiles": [int(x) for x in scn.tiling.tiles],
            "transversal": [list(a) for a in scn.transversal.representatives],
            "fibers": [list(w) for w in scn.omega],
        },
    }


# -- commands -----------------------------------------------------------------


def cmd_validate(doc: dict, args) -> int:
    scn = build_scenario(doc)
    dual_partition(scn)  # the extra subgroup's section and partition guards
    _, seed = _options(doc, args)
    report = {
        "command": "validate",
        **_scenario_report(scn),
        "self_test": {k: float(v) for k, v in _self_test(scn, seed).items()},
    }
    _emit(report, args.out)
    return 0


def cmd_partition(doc: dict, args) -> int:
    scn = build_scenario(doc)
    part = dual_partition(scn)
    _emit({"command": "partition", **part.as_dict()}, args.out)
    return 0


def cmd_check(doc: dict, args) -> int:
    scn = build_scenario(doc)
    tol, seed = _options(doc, args)
    space = build_subspace(doc, scn, seed)
    report = check_extra_invariance(scn, space, tol)
    dec = check_decomposable(scn, space, tol)
    _emit(
        {
            "command": "check",
            "subspace_dim": int(space.dim),
            "extra_invariance": report.as_dict(),
            "decomposability": dec.as_dict(),
        },
        args.out,
    )
    return 0


def cmd_approx(doc: dict, args) -> int:
    scn = build_scenario(doc)
    tol, seed = _options(doc, args)
    if "data" not in doc or not isinstance(doc["data"], dict):
        raise ConfigError("data", "missing required section")
    data = _vectors_from(doc["data"], "data", "vectors", scn, doc.get("_dir", "."))
    opts = doc.get("options", {})
    ell = opts.get("ell")
    if not _is_int(ell) or ell < 1:
        raise ConfigError("options.ell", "expected a positive integer")
    plain = best_invariant(scn, data, ell)
    extra = best_extra_invariant(scn, data, ell)
    report = {
        "command": "approx",
        "ell": ell,
        "n_vectors": int(data.shape[1]),
        "plain": plain.as_dict(),
        "extra": extra.as_dict(),
    }
    if args.out:
        base = Path(args.out)
        plain_csv = base.with_suffix(".plain_frame.csv")
        extra_csv = base.with_suffix(".extra_frame.csv")
        _write(plain_csv, lambda p: write_columns_csv(p, plain.space.frame))
        _write(extra_csv, lambda p: write_columns_csv(p, extra.space.frame))
        report["frames"] = {"plain": plain_csv.name, "extra": extra_csv.name}
    _emit(report, args.out)
    return 0


def cmd_demo(args) -> int:
    name = args.name
    doc = dict(DEMO_CONFIGS[name])
    expect = DEMO_EXPECTATIONS[name]
    scn = build_scenario(doc)
    tol, seed = _options(doc, args)
    part = dual_partition(scn)
    space = build_subspace(doc, scn, seed)
    report = check_extra_invariance(scn, space, tol)
    failures = []
    part_dict = part.as_dict()
    if part_dict["blocks"] != expect["blocks"]:
        failures.append("partition blocks differ from the embedded expectation")
    if report.extra_invariant != expect["extra_invariant"]:
        failures.append("extra-invariance verdict differs")
    if list(report.component_dims) != expect["component_dims"]:
        failures.append("component dimensions differ")
    if "indices" in expect:
        got = [scn.chain.index_base, scn.chain.index_extra, scn.chain.index_between]
        if got != expect["indices"]:
            failures.append("chain indices differ")
    out = {
        "command": "demo",
        "name": name,
        **_scenario_report(scn),
        "partition": part_dict,
        "extra_invariance": report.as_dict(),
        "expected_ok": not failures,
        "failures": failures,
    }
    _emit(out, args.out)
    return 0 if not failures else 3


# -- entry point --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors raise the config error (exit 1,
    a JSON report carrying argparse's message) where argparse would print
    its usage and exit 2; ``--help`` prints and exits 0 as before."""

    def error(self, message: str):
        raise ConfigError("command line", message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="actinv",
        description="Invariant subspaces of weighted finite abelian group actions.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument(
        "--tol", type=float, default=None, help="numerical tolerance (default 1e-9)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the configured seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "partition", "check", "approx"):
        sub.add_parser(name)
    demo = sub.add_parser("demo")
    demo.add_argument("name", choices=sorted(DEMO_CONFIGS))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "demo":
            return cmd_demo(args)
        if not args.config:
            raise ConfigError("--config", "required for this command")
        doc = load_config(args.config)
        handler = {
            "validate": cmd_validate,
            "partition": cmd_partition,
            "check": cmd_check,
            "approx": cmd_approx,
        }[args.command]
        return handler(doc, args)
    except ConfigError as exc:
        _emit({"error": {"kind": "config", "detail": str(exc)}}, None)
        return 1
    except (ChainError, ActionError, InvarianceError, ValueError) as exc:
        _emit({"error": {"kind": "validation", "detail": str(exc)}}, None)
        return 2
    except TheoremViolationError as exc:
        _emit(
            {
                "error": {
                    "kind": "theorem-violation",
                    "detail": str(exc),
                    "details": {k: plain_value(v) for k, v in exc.details.items()},
                }
            },
            None,
        )
        return 3
    except Exception as exc:  # the process boundary: report, never a raw traceback
        _emit(
            {
                "error": {
                    "kind": "internal",
                    "detail": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc().splitlines(),
                }
            },
            None,
        )
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
