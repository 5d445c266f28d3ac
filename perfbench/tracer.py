"""Span recorder that times ``actinv`` layers from outside the library.

Every traced function is replaced by a wrapper that records one span per
call: name, start, end and the id of the enclosing span.  The wrapper is
rebound in *every* ``actinv`` module namespace that holds the original
object, because modules import names from each other (``extra`` and
``spaces`` keep their own references to ``zak_full`` / ``zak_stacked``),
so patching the defining module alone would miss internal calls.  Methods
are patched on their class, and the ``scipy.linalg`` kernels on the
``scipy.linalg`` module, which is where ``actinv`` looks them up.

Wrappers never change arguments or results.  Spans stay in memory until
the caller aggregates them or writes them out with :meth:`Recorder.dump`.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  A dotted attribute path names a
# method patched on its class; constructors are traced through __init__.
TARGETS = [
    ("groups.Subgroup", "actinv.groups", "Subgroup.__init__"),
    ("groups.annihilator", "actinv.groups", "annihilator"),
    ("groups.coset_section", "actinv.groups", "coset_section"),
    ("groups.validate_chain", "actinv.groups", "validate_chain"),
    ("actions.ActionSpace", "actinv.actions", "ActionSpace.__init__"),
    ("actions.validate_action", "actinv.actions", "validate_action"),
    ("actions.tiling_sets", "actinv.actions", "tiling_sets"),
    ("scenario.Scenario", "actinv.scenario", "Scenario.__init__"),
    ("zak.zak_base", "actinv.zak", "zak_base"),
    ("zak.zak_base_inv", "actinv.zak", "zak_base_inv"),
    ("zak.zak_full", "actinv.zak", "zak_full"),
    ("zak.zak_full_inv", "actinv.zak", "zak_full_inv"),
    ("zak.zak_stacked", "actinv.zak", "zak_stacked"),
    ("zak.zak_stacked_inv", "actinv.zak", "zak_stacked_inv"),
    ("zak.unfold_orbits", "actinv.zak", "unfold_orbits"),
    ("zak.fold_orbits", "actinv.zak", "fold_orbits"),
    ("spaces.span_invariant", "actinv.spaces", "span_invariant"),
    ("spaces.is_invariant", "actinv.spaces", "is_invariant"),
    ("spaces.Subspace.residual", "actinv.spaces", "Subspace.residual"),
    ("spaces.orthonormal_columns", "actinv.spaces", "orthonormal_columns"),
    ("spaces.fiber_matrices", "actinv.spaces", "fiber_matrices"),
    ("spaces.fibers_from_matrix", "actinv.spaces", "fibers_from_matrix"),
    ("extra.dual_partition", "actinv.extra", "dual_partition"),
    ("extra.mask_apply", "actinv.extra", "mask_apply"),
    ("extra.masked_component", "actinv.extra", "masked_component"),
    ("extra.check_extra_invariance", "actinv.extra", "check_extra_invariance"),
    ("extra.check_decomposable", "actinv.extra", "check_decomposable"),
    ("extra.canonical_extra_invariant", "actinv.extra", "canonical_extra_invariant"),
    ("approx.best_invariant", "actinv.approx", "best_invariant"),
    ("approx.best_extra_invariant", "actinv.approx", "best_extra_invariant"),
    ("io.write_columns_csv", "actinv.io", "write_columns_csv"),
    ("io.read_columns_csv", "actinv.io", "read_columns_csv"),
    ("cli.main", "actinv.cli", "main"),
    ("linalg.qr", "scipy.linalg", "qr"),
    ("linalg.svd", "scipy.linalg", "svd"),
    ("linalg.svd", "scipy.linalg", "svdvals"),
]

# Spans whose result is also classified: name -> predicate "useful outcome".
OUTCOMES = {"extra.masked_component": lambda space: space.dim > 0}


class Recorder:
    """In-memory spans ``(name, start, end, parent, span_id)`` plus outcomes."""

    def __init__(self):
        self.enabled = True
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.outcomes: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        useful = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((name, start, end, parent, span_id))
            if useful is not None:
                counts = self.outcomes[name]
                counts[0] += bool(useful(result))
                counts[1] += 1
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every namespace that refers to it."""
        if self._patches:
            return
        modules = {m: importlib.import_module(m) for _, m, _ in TARGETS}
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "actinv" or key.startswith("actinv."))
        ]
        for name, module_name, attr in TARGETS:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrapper = self.wrap(name, original)
            self._patch(owner, leaf, wrapper)
            if path:
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (duration minus child spans)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, start, end, _, span_id in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[span_id]
        return dict(out)

    def dump(self, path) -> None:
        """Write spans and outcome counts as JSON."""
        doc = {
            "spans": [list(s) for s in self.spans],
            "outcomes": {k: list(v) for k, v in self.outcomes.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def load(self, path) -> None:
        """Merge spans written by :meth:`dump` in another process."""
        with open(path) as fh:
            doc = json.load(fh)
        offset = self._next_id
        top = 0
        for name, start, end, parent, span_id in doc["spans"]:
            self.spans.append(
                (name, start, end, parent + offset if parent else 0, span_id + offset)
            )
            top = max(top, span_id)
        self._next_id = offset + top + 1
        for key, (useful, total) in doc["outcomes"].items():
            self.outcomes[key][0] += useful
            self.outcomes[key][1] += total
