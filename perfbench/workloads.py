"""The four benchmark workloads: seeded inputs, one timed operation, checks.

Each workload builds its scenarios in :meth:`setup` (plus an untimed pass
of each operation kind, so lazily built tables are paid for there), then
serves operations by index.  ``prepare(k)`` makes the inputs of operation
``k`` from the seed, ``run`` is the timed library call sequence and
``verify`` checks the outputs outside the timed span.  Operation kinds
cycle with period ``round_size``; a measured phase always ends on a whole
round so every run has the same mix of kinds.

The library only ever sees generated inputs: scenarios are built from
plain permutation lists and seeded weights, log-uniform over a 1e3 range.
"""
from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import actinv as A

WEIGHT_RANGE = 1e3
ISOMETRY_TOL = 1e-12  # relative, round trips and norms
APPROX_TOL = 1e-9  # relative, reported error against evaluate_candidate
CLI_TIMEOUT_S = 60

# How a verification can be made to fail on purpose (self-test only).
INJECTIONS = ("roundtrip", "verdict", "approx-error")


@dataclass(frozen=True)
class Spec:
    """A regular action of ``Z_moduli`` on ``orbits`` copies, with a chain."""

    moduli: tuple[int, ...]
    base: tuple[tuple[int, ...], ...]
    extra: tuple[tuple[int, ...], ...]
    orbits: int

    @property
    def order(self) -> int:
        return math.prod(self.moduli)


def action_inputs(spec: Spec, rng: np.random.Generator):
    """Generator permutations and weights of a seeded, relabelled regular action.

    Point ``label[o * order + i]`` is element ``i`` (lexicographic order) of
    orbit copy ``o``; generator ``j`` adds one to coordinate ``j``.
    """
    order, n = spec.order, spec.order * spec.orbits
    coords = np.array(list(np.ndindex(*spec.moduli)), dtype=np.intp)
    label = rng.permutation(n)
    perms = []
    for j, modulus in enumerate(spec.moduli):
        moved = coords.copy()
        moved[:, j] = (moved[:, j] + 1) % modulus
        target = np.ravel_multi_index(tuple(moved.T), spec.moduli)
        perm = np.empty(n, dtype=np.intp)
        for o in range(spec.orbits):
            perm[label[o * order : (o + 1) * order]] = label[o * order + target]
        perms.append(perm.tolist())
    weights = np.exp(rng.uniform(0.0, math.log(WEIGHT_RANGE), n))
    return perms, weights.tolist()


def build_scenario(spec: Spec, perms, weights) -> A.Scenario:
    group = A.FiniteAbelianGroup(spec.moduli)
    base = A.Subgroup(group, spec.base)
    extra = A.Subgroup(group, spec.extra)
    action = A.ActionSpace(group, spec.order * spec.orbits, perms, weights)
    return A.Scenario(group, base, extra, action)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rel_close(a: float, b: float, tol: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), floor)


def cached_bytes(scn: A.Scenario) -> int:
    """Bytes of the arrays a scenario has cached on itself."""
    total = 0
    for value in vars(scn).values():
        items = value if isinstance(value, tuple) else (value,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


class Workload:
    """Operation kinds cycle with period ``round_size``; set-up runs the first
    ``warmup_ops`` of them, a traced run ``trace_rounds`` whole cycles."""

    name = ""
    round_size = 1
    warmup_ops = 1
    trace_rounds = 1

    def __init__(self, seed: int, tiny: bool, work_dir: Path, inject: str | None):
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir
        self.inject = inject
        self.scenarios: list[A.Scenario] = []

    def op_rng(self, stream: int) -> np.random.Generator:
        """Input stream: 1 feeds the set-up pass, 2 the measured operations."""
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        self.build()
        rng = self.op_rng(1)
        for k in range(self.warmup_ops):
            self.run(self.prepare(k, rng))

    def build(self) -> None:
        raise NotImplementedError

    def build_scenarios(self, specs: list[Spec]) -> None:
        self.scenarios = [
            build_scenario(spec, *action_inputs(spec, np.random.default_rng([self.seed, 0, i])))
            for i, spec in enumerate(specs)
        ]

    def prepare(self, k: int, rng: np.random.Generator):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def verify(self, inputs, outputs) -> bool:
        raise NotImplementedError

    def items(self, inputs) -> int:
        """Units of work in one operation (functions, for zak-stream)."""
        return 1

    def collect(self, recorder) -> None:
        """Merge spans recorded outside this process after a traced operation."""

    def cached_bytes(self) -> int:
        return sum(cached_bytes(s) for s in self.scenarios)


class ZakStream(Workload):
    """Batches of functions through every transform and back."""

    name = "zak-stream"
    trace_rounds = 20

    def build(self) -> None:
        if self.tiny:
            spec = Spec((4, 8), ((2, 0), (0, 4)), ((1, 0), (0, 2)), 2)
        else:
            spec = Spec((16, 32), ((4, 0), (0, 8)), ((2, 0), (0, 4)), 2)
        self.batch = 4 if self.tiny else 16
        self.build_scenarios([spec])

    def prepare(self, k, rng):
        return complex_normal(rng, (self.scenarios[0].action.n_points, self.batch))

    def items(self, inputs) -> int:
        return inputs.shape[1]

    def run(self, f):
        scn = self.scenarios[0]
        zb = A.zak_base(scn, f)
        zf = A.zak_full(scn, f)
        zs = A.zak_stacked(scn, f)
        phi = A.unfold_orbits(scn, f)
        return {
            "base": (zb, A.zak_base_inv(scn, zb)),
            "full": (zf, A.zak_full_inv(scn, zf)),
            "stacked": (zs, A.zak_stacked_inv(scn, zs)),
            "unfold": (phi, A.fold_orbits(scn, phi)),
        }

    def verify(self, f, out) -> bool:
        scn = self.scenarios[0]
        norms = {
            "base": A.zak.base_norm,
            "full": A.zak.full_norm,
            "stacked": A.zak.stacked_norm,
            "unfold": A.zak.unfold_norm,
        }
        ok = True
        for kind, (values, back) in out.items():
            if self.inject == "roundtrip":
                back = back * (1.0 + 1e-9)
            for j in range(f.shape[1]):
                ref = scn.action.norm(f[:, j])
                ok &= scn.action.norm(back[:, j] - f[:, j]) <= ISOMETRY_TOL * ref
                ok &= rel_close(norms[kind](scn, values[..., j]), ref, ISOMETRY_TOL)
        return bool(ok)


class CheckMix(Workload):
    """Build a subspace, then both extra-invariance verdicts, as ``actinv check``."""

    name = "check-mix"
    round_size = 12
    warmup_ops = 4
    # kind -> (generator count, verdict by construction)
    KINDS = {
        "principal": (1, False),
        "spanned": (2, False),
        "extra-spanned": (2, True),
        "canonical": (0, True),
    }

    def build(self) -> None:
        if self.tiny:
            specs = [
                Spec((12,), ((4,),), ((2,),), 2),
                Spec((2, 6), ((0, 2),), ((1, 0), (0, 2)), 2),
                Spec((2, 2, 3), ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)), 1),
            ]
        else:
            specs = [
                Spec((96,), ((8,),), ((2,),), 2),
                Spec((8, 12), ((4, 0), (0, 6)), ((2, 0), (0, 3)), 2),
                Spec((4, 4, 6), ((2, 0, 0), (0, 2, 0)), ((1, 0, 0), (0, 2, 0), (0, 0, 3)), 1),
            ]
        self.build_scenarios(specs)

    def prepare(self, k, rng):
        # 3 scenarios x 4 kinds: k mod 12 <-> (k mod 3, k mod 4), so the four
        # set-up operations already touch every scenario and every kind.
        scn = self.scenarios[k % 3]
        kind = list(self.KINDS)[k % 4]
        count, _ = self.KINDS[kind]
        gens = complex_normal(rng, (scn.action.n_points, count)) if count else None
        return scn, kind, gens

    def run(self, inputs):
        scn, kind, gens = inputs
        if kind == "canonical":
            space = A.canonical_extra_invariant(scn)
        elif kind == "extra-spanned":
            space = A.span_invariant(scn, gens, scn.extra)
        else:
            space = A.span_invariant(scn, gens)
        return A.check_extra_invariance(scn, space), A.check_decomposable(scn, space)

    def verify(self, inputs, out) -> bool:
        _, kind, _ = inputs
        ext, dec = out
        verdict = ext.extra_invariant
        if self.inject == "verdict":
            verdict = not verdict
        truth = self.KINDS[kind][1]
        return verdict == truth and dec.decomposable == truth


class ApproxFit(Workload):
    """Best invariant and best extra-invariant fit of a seeded data batch."""

    name = "approx-fit"
    round_size = 12
    warmup_ops = 4
    trace_rounds = 3

    def build(self) -> None:
        if self.tiny:
            specs = [
                Spec((4, 8), ((2, 0), (0, 4)), ((1, 0), (0, 2)), 2),
                Spec((12,), ((4,),), ((2,),), 2),
            ]
        else:
            specs = [
                Spec((16, 16), ((4, 0), (0, 8)), ((2, 0), (0, 4)), 2),
                Spec((96,), ((8,),), ((2,),), 2),
            ]
        self.build_scenarios(specs)

    def prepare(self, k, rng):
        # scenario alternates, batch size alternates in pairs, ell cycles 1..3:
        # every (scenario, batch, ell) combination appears once per round
        scn = self.scenarios[k % 2]
        batch = (4, 16)[(k // 2) % 2]
        ell = 1 + k % 3
        return scn, complex_normal(rng, (scn.action.n_points, batch)), ell

    def run(self, inputs):
        scn, data, ell = inputs
        return A.best_invariant(scn, data, ell), A.best_extra_invariant(scn, data, ell)

    def verify(self, inputs, out) -> bool:
        scn, data, ell = inputs
        plain, extra = out
        energy = sum(scn.action.norm(data[:, j]) ** 2 for j in range(data.shape[1]))
        floor = 1e-12 * energy
        ok = True
        for res in (plain, extra):
            reported = res.error * (1.0 + 1e-6) if self.inject == "approx-error" else res.error
            attained = A.evaluate_candidate(scn, data, res.space)
            ok &= rel_close(reported, attained, APPROX_TOL, floor)
            ok &= res.space.dim <= ell * scn.n_fibers
        ok &= extra.error >= plain.error - APPROX_TOL * max(plain.error, floor)
        return bool(ok)


class CliCold(Workload):
    """A fresh interpreter per command: ``python -m actinv.cli ...``."""

    name = "cli-cold"
    round_size = 4
    SPEC = Spec((2, 6), ((0, 2),), ((1, 0), (0, 2)), 2)
    ELL = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = None  # environment of the child interpreters
        self.spans_path: Path | None = None  # set: children record spans here
        self._reference = None

    def build(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.perms, self.weights = action_inputs(self.SPEC, rng)
        n = self.SPEC.order * self.SPEC.orbits
        self.gens = complex_normal(rng, (n, 2))
        self.data = complex_normal(rng, (n, 4))
        common = {
            "schema": 1,
            "group": {"moduli": list(self.SPEC.moduli)},
            "base": {"generators": [list(g) for g in self.SPEC.base]},
            "extra": {"generators": [list(g) for g in self.SPEC.extra]},
            "action": {"points": n, "permutations": self.perms, "weights": self.weights},
            "options": {"seed": self.seed, "tol": 1e-9, "ell": self.ELL},
        }
        pairs = [[[float(z.real), float(z.imag)] for z in col] for col in self.gens.T]
        check = dict(common, subspace={"generators": pairs})
        approx = dict(common, data={"csv": "data.csv"})
        (self.work_dir / "check.json").write_text(json.dumps(check))
        (self.work_dir / "approx.json").write_text(json.dumps(approx))
        with open(self.work_dir / "data.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"c{j}_{p}" for j in range(self.data.shape[1]) for p in ("re", "im")])
            for row in self.data:
                writer.writerow([v for z in row for v in (float(z.real), float(z.imag))])

    def prepare(self, k, rng):
        # approx first: the set-up pass imports every module and writes files
        out = self.work_dir / "approx_report.json"
        return [
            ["--config", str(self.work_dir / "approx.json"), "--out", str(out), "approx"],
            ["--config", str(self.work_dir / "check.json"), "check"],
            ["demo", "remark33"],
            ["demo", "dilation"],
        ][k % 4]

    def run(self, argv):
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)
        if self.spans_path is None:
            command = [sys.executable, "-m", "actinv.cli"]
        else:
            shim = Path(__file__).with_name("cli_traced.py")
            command = [sys.executable, str(shim), str(self.spans_path)]
        return subprocess.run(
            command + argv,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def collect(self, recorder) -> None:
        if self.spans_path is not None and self.spans_path.exists():
            recorder.load(self.spans_path)
            self.spans_path.unlink()

    def reference(self):
        """The same check and fit computed in-process through the library."""
        if self._reference is None:
            scn = build_scenario(self.SPEC, self.perms, self.weights)
            space = A.span_invariant(scn, self.gens)
            self._reference = {
                "extra_invariant": A.check_extra_invariance(scn, space).extra_invariant,
                "decomposable": A.check_decomposable(scn, space).decomposable,
                "plain": A.best_invariant(scn, self.data, self.ELL),
                "extra": A.best_extra_invariant(scn, self.data, self.ELL),
            }
            self.scenarios = [scn]
        return self._reference

    def verify(self, argv, proc) -> bool:
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return False
        try:
            return self._matches_reference(argv, proc)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            sys.stderr.write(f"unreadable output of {argv}: {exc!r}\n")
            return False

    def _matches_reference(self, argv, proc) -> bool:
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            report = json.loads(out.read_text())
        else:
            report = json.loads(proc.stdout)
        ref = self.reference()
        if argv[0] == "demo":
            return report["expected_ok"] is True and report["extra_invariance"][
                "extra_invariant"
            ] is True
        if report["command"] == "check":
            return (
                report["extra_invariance"]["extra_invariant"] == ref["extra_invariant"]
                and report["decomposability"]["decomposable"] == ref["decomposable"]
            )
        ok = True
        for key in ("plain", "extra"):
            got, want = report[key], ref[key]
            ok &= rel_close(got["error"], want.error, APPROX_TOL)
            ok &= got["dim"] == want.space.dim
            with open(out.parent / report["frames"][key], newline="") as fh:
                header = next(csv.reader(fh))
            ok &= len(header) == 2 * want.space.dim
        return bool(ok)


WORKLOADS = {w.name: w for w in (ZakStream, CheckMix, ApproxFit, CliCold)}
