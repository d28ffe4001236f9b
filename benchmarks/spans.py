"""Span recorder for the traced benchmark run.

Layers are timed from outside: the recorder replaces functions of the
``subspace_money`` modules with wrappers, at every module or class attribute
through which callers look them up, and restores the originals afterwards.
Spans (name, start, end, parent, op, label) are kept in memory and written
out once at the end.  Calls made once per bit string (predicate evaluations,
matrix-vector products, membership tests, mask reads) are counted only: a
span per call would cost more than the call itself.

A wrapped function that a later version of the package no longer has is
skipped; its metrics then read zero.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from time import perf_counter

MODULES = ("gf2", "codes", "states", "oracles", "scheme", "experiments", "cli")

CLI_COMMANDS = ("mint", "corrupt", "verify", "correct", "attack", "gencode")

# Span name -> (module, owner, attribute) of every function that span times.
# owner None means a module-level function: every package-module attribute
# bound to it is wrapped, so each caller's own lookup goes through the
# wrapper.  Otherwise the attribute is wrapped on that class.
SPANS = {
    "gf2.min_distance": [("gf2", "SubspaceBasis", "min_distance")],
    "gf2.random_subspace": [("gf2", None, "random_subspace")],
    "gf2.dual": [("gf2", "SubspaceBasis", "dual")],
    "codes.search": [("codes", None, "search_applicable_code")],
    "codes.certify": [("codes", None, "certify")],
    "codes.build_syndrome_table": [("codes", None, "build_syndrome_table")],
    "oracles.truth_table": [("oracles", None, "_truth_table")],
    "oracles.project_via_control": [("oracles", None, "project_via_control")],
    "states.fwht": [("states", None, "fwht")],
    "states.prepare": [
        ("states", None, "subspace_state"),
        ("states", None, "coset_state"),
        ("states", None, "apply_pauli"),
    ],
    "states.dump_load": [("states", None, "dump_state"), ("states", None, "load_state")],
    "states.maximally_mixed": [("states", "MixedState", "maximally_mixed")],
    "scheme.verify": [("scheme", None, "verify")],
    "scheme.diagnose": [("scheme", None, "diagnose")],
    "scheme.generate": [("scheme", "OracleRegistry", "generate")],
    "scheme.registry_for_record": [("scheme", None, "registry_for_record")],
    "scheme.double_verify": [("scheme", None, "double_verify")],
    "scheme.tolerated_matrix": [("scheme", "OracleRegistry", "tolerated_matrix")],
    "experiments.run_attack": [("experiments", None, "run_attack")],
}
SPANS.update({f"cli.{c}": [] for c in CLI_COMMANDS})  # spans around cli.main, by command

# Counter name -> functions it counts (same addressing as SPANS).
COUNTERS = {
    "gf2.mul_vec.calls": [("gf2", "Gf2Matrix", "mul_vec")],
    "gf2.member.calls": [("gf2", "SubspaceBasis", "member")],
    "oracles.support_mask.calls": [
        ("oracles", "MembershipPredicate", "support_mask"),
        ("oracles", "CosetPredicate", "support_mask"),
    ],
    "oracles.predicate_calls": [
        ("oracles", "MembershipPredicate", "__call__"),
        ("oracles", "CosetPredicate", "__call__"),
    ],
    "oracles.coset_tests": [("scheme", "OracleSession", "project_coset")],
}

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        for field, unit in _UNITS.items():
            units[f"{name}.{field}"] = unit
    for name in COUNTERS:
        units[name] = "count"
    units.update(
        {
            "codes.search.candidates": "count",
            "codes.search.accept_ratio": "ratio",
            "oracles.mask_hit_ratio": "ratio",
            "states.fwht.butterflies": "count",
            "scheme.tolerated_matrix.bytes": "B",
            "scheme.accepted": "count",
            "scheme.rejected": "count",
        }
    )
    for module in MODULES:
        units[f"layer.{module}.self_s"] = "s"
    units.update(
        {
            "trace.ops_per_s_untraced": "1/s",
            "trace.ops_per_s_traced": "1/s",
            "trace.overhead": "ratio",
            "trace.spans": "count",
            "trace.wall_s": "s",
            "trace.remainder_s": "s",
            "trace.focus_share": "ratio",
        }
    )
    return units


def is_span_field(metric: str) -> bool:
    """True for the calls/busy_s/self_s metrics of a span (printed as a table)."""
    name, _, field = metric.rpartition(".")
    return field in _UNITS and name in SPANS


class Recorder:
    """In-memory spans and counters; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self.op = -1  # -1 marks set-up
        self.label = None
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.labels: list = []
        self.counts = {name: 0 for name in COUNTERS}
        self.butterflies = 0
        self.matrix_bytes = 0
        self.accepted = 0
        self.rejected = 0
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.labels.append(self.label)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every traced function of the package namespace ``pkg``."""
        modules = [getattr(pkg, m) for m in MODULES]
        observers = {
            "states.fwht": self._observe_fwht,
            "scheme.tolerated_matrix": self._observe_matrix,
            "scheme.verify": self._observe_verify,
        }
        for name, targets in SPANS.items():
            for target in targets:
                self._wrap(pkg, modules, target, name,
                           lambda fn, n=name: self.span(n, fn, observers.get(n)))
        for name, targets in COUNTERS.items():
            for target in targets:
                self._wrap(pkg, modules, target, name, lambda fn, n=name: self.counter(n, fn))
        main = pkg.cli.main

        @functools.wraps(main)
        def cli_main(argv=None):
            if not self.active:
                return main(argv)
            command = next((a for a in argv if a in CLI_COMMANDS), "other")
            idx = self._open(f"cli.{command}")
            try:
                return main(argv)
            finally:
                self._close(idx)

        self._set(pkg.cli, "main", cli_main)

    def _wrap(self, pkg, modules, target, name, make) -> None:
        module_name, owner, attr = target
        module = getattr(pkg, module_name)
        if owner is not None:
            cls = getattr(module, owner, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.skipped.append(f"{name}: {module_name}.{owner}.{attr}")
                return
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.skipped.append(f"{name}: {module_name}.{attr}")
            return
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, obj, attr, value) -> None:
        self._restore.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    # -- observers -------------------------------------------------------------

    def _observe_fwht(self, args, result) -> None:
        size = result.shape[-1]
        rows = result.size // size
        self.butterflies += rows * (size.bit_length() - 1) * (size // 2)

    def _observe_matrix(self, args, result) -> None:
        self.matrix_bytes = max(self.matrix_bytes, int(result.nbytes))

    def _observe_verify(self, args, result) -> None:
        if result.accepted:
            self.accepted += 1
        else:
            self.rejected += 1

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def metrics(self, op_wall_s: float, focus: tuple[str, object]) -> dict[str, float]:
        """Per-layer metrics over every recorded span (set-up and ops)."""
        own = self.self_times()
        values: dict[str, float] = {}
        for name in SPANS:
            values[f"{name}.calls"] = 0
            values[f"{name}.busy_s"] = 0.0
            values[f"{name}.self_s"] = 0.0
        for module in MODULES:
            values[f"layer.{module}.self_s"] = 0.0
        for idx, name in enumerate(self.names):
            values[f"{name}.calls"] += 1
            values[f"{name}.busy_s"] += self.ends[idx] - self.starts[idx]
            values[f"{name}.self_s"] += own[idx]
            values[f"layer.{name.split('.')[0]}.self_s"] += own[idx]
        values.update(self.counts)
        searches = values["codes.search.calls"]
        candidates = sum(
            1
            for idx, name in enumerate(self.names)
            if name == "gf2.random_subspace" and self._under(idx, "codes.search")
        )
        reads = self.counts["oracles.support_mask.calls"]
        builds = values["oracles.truth_table.calls"]
        values.update(
            {
                "codes.search.candidates": candidates,
                "codes.search.accept_ratio": searches / candidates if candidates else 0.0,
                "oracles.mask_hit_ratio": (reads - builds) / reads if reads else 0.0,
                "states.fwht.butterflies": self.butterflies,
                "scheme.tolerated_matrix.bytes": self.matrix_bytes,
                "scheme.accepted": self.accepted,
                "scheme.rejected": self.rejected,
            }
        )
        _, roots = self.op_totals()
        values["trace.spans"] = len(self.names)
        values["trace.wall_s"] = op_wall_s
        values["trace.remainder_s"] = op_wall_s - roots
        values["trace.focus_share"] = self.focus_share(focus, op_wall_s)
        return values

    def op_totals(self) -> tuple[float, float]:
        """(summed self time, summed duration of root spans) over the op spans.

        With properly nested spans the two agree up to rounding, so layer self
        times plus the untraced remainder add up to the op wall time.
        """
        own = self.self_times()
        in_ops = [i for i in range(len(self.names)) if self.ops[i] >= 0]
        roots = sum(self.ends[i] - self.starts[i] for i in in_ops if self.parents[i] < 0)
        return sum(own[i] for i in in_ops), roots

    def focus_share(self, focus: tuple[str, object], op_wall_s: float) -> float:
        """Busy share of the focus span in the ops (restricted to one label if given)."""
        name, label = focus
        busy = denom = 0.0
        for idx, span in enumerate(self.names):
            if self.ops[idx] < 0 or (label is not None and self.labels[idx] != label):
                continue
            dur = self.ends[idx] - self.starts[idx]
            if span == name and not self._under(idx, name):
                busy += dur
            if label is not None and self.parents[idx] < 0:
                denom += dur
        if label is None:
            denom = op_wall_s
        return busy / denom if denom > 0 else 0.0

    def _under(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "columns": ["name", "start", "end", "parent", "op", "label"],
            "spans": [
                [n, s, e, p, o, lab]
                for n, s, e, p, o, lab in zip(
                    self.names, self.starts, self.ends, self.parents, self.ops, self.labels
                )
            ],
            "counters": self.counts,
            "skipped": self.skipped,
        }
        path.write_text(json.dumps(data, separators=(",", ":")))
