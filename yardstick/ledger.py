"""Layer-attributed time ledger for the traced benchmark run.

The ledger wraps each layer's public functions *from the benchmark's own
files*: a wrapper is patched onto every ``repro.*`` module attribute (or
class attribute) through which the program looks the function up, and
records a span around each call.  Spans nest on one stack.  A span's
self time is its duration minus the time of the spans it encloses, so
the self times of all spans opened inside an op, plus the op's own
residual (``unattributed``), add up to the op's traced wall time
exactly; :meth:`Ledger.op` checks that identity for every op.

One stack serves every thread.  That is sound here because the
benchmark keeps exactly one op in flight: with ``JobExecutor(workers=0)``
the calling thread only waits in ``result()`` while the executor's
worker thread runs the job, so spans from the two threads never
interleave.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

UNATTRIBUTED = "unattributed"

_clock = time.perf_counter


class Target:
    """One wrapped name: ``module:Qualified.name`` attributed to *label*.

    *label* is ``<layer>`` or ``<layer>.<part>``; the layer is the part
    before the first dot.  *probe*, if given, is called as
    ``probe(args, result, counts)`` after each call to bump extra counts.
    """

    __slots__ = ("spec", "label", "probe")

    def __init__(self, spec: str, label: str, probe: Optional[Callable] = None):
        self.spec = spec
        self.label = label
        self.probe = probe


def _len_of_self(args, result, counts):
    counts["copy.atoms"] += len(args[0])


def _counts_hit(name):
    def probe(args, result, counts):
        if result is not None:
            counts[name] += 1

    return probe


#: Every wrapped name, grouped by layer (the layer is the label prefix).
#: ``execute_job`` is wrapped only to take the job's own glue out of the
#: ``executor`` layer; its self time is booked as ``unattributed``.
TARGETS = [
    Target("repro.service.jobs:JobRequest.from_obj", "wire"),
    Target("repro.service.jobs:JobRequest.to_obj", "wire"),
    Target("repro.service.jobs:JobResult.from_obj", "wire"),
    Target("repro.service.jobs:JobResult.to_obj", "wire"),
    Target("repro.service.executor:execute_job", UNATTRIBUTED),
    Target("repro.service.jobs:load_kb", "kb_parse"),
    Target("repro.analysis.planner:Planner.decide", "planner"),
    Target("repro.analysis.planner:Planner.compute", "planner.compute"),
    Target("repro.service.snapshots:SnapshotStore.__init__", "snapshots.open"),
    Target(
        "repro.service.snapshots:SnapshotStore.load_entry",
        "snapshots.load",
        _counts_hit("snapshots.hits"),
    ),
    Target(
        "repro.service.snapshots:SnapshotStore.resolve_ancestor",
        "snapshots.resolve",
        _counts_hit("snapshots.hits"),
    ),
    Target("repro.service.snapshots:SnapshotStore.save", "snapshots.save"),
    Target("repro.chase.engine:ChaseEngine.run", "chase"),
    Target("repro.chase.engine:ChaseEngine.resume", "chase"),
    Target("repro.chase.trigger_index:TriggerIndex.apply_delta", "trigger_discovery"),
    Target("repro.chase.trigger_index:TriggerIndex.rebuild", "trigger_discovery"),
    Target(
        "repro.chase.compiled_index:CompiledTriggerIndex.apply_delta",
        "trigger_discovery",
    ),
    Target("repro.chase.trigger_index:TriggerIndex.transport", "transport"),
    Target("repro.chase.trigger:apply_trigger", "apply"),
    Target("repro.logic.atomset:AtomSet.copy", "copy", _len_of_self),
    Target("repro.logic.coremaint:CoreMaintainer.retract", "core_maint"),
    Target("repro.logic.cores:core_retraction", "core_maint"),
    Target("repro.logic.homomorphism:homomorphisms", "hom"),
    Target("repro.logic.homomorphism:find_homomorphism", "hom"),
    Target("repro.query.cq:ConjunctiveQuery.holds_in", "query_test"),
    Target("repro.query.plans:QueryPlanCache.plan_for", "rewriting.plan"),
    Target("repro.query.rewriting:rewrite_ucq", "rewriting.saturate"),
    Target(
        "repro.query.plans:CompiledQueryPlan.evaluate",
        "rewriting.evaluate",
        _counts_hit("rewriting.settled"),
    ),
    Target("repro.query.modelfinder:find_countermodel", "countermodel"),
    Target("repro.obs.tracer:MetricsObserver.*", "obs"),
    Target("repro.chase.derivation:Derivation.instance", "derivation"),
    Target("repro.chase.derivation:Derivation.instances", "derivation"),
    Target("repro.chase.derivation:Derivation.natural_aggregation", "derivation"),
    Target("repro.treewidth:treewidth", "treewidth"),
    Target("repro.treewidth:treewidth_bounds", "treewidth"),
    Target("repro.treewidth.grids:grid_lower_bound", "treewidth"),
    Target("repro.chase.aggregation:robust_aggregation", "aggregation"),
    Target("repro.chase.aggregation:RobustSequence.__init__", "aggregation"),
]

#: Spans the benchmark opens itself, around its own calls into a layer.
BENCH_LABELS = ("wire.json", "executor")


def layer_of(label: str) -> str:
    return label.split(".", 1)[0]


class Ledger:
    """Span stack plus per-label self time and per-name call counts."""

    def __init__(self):
        self._stack: list = []  # frames: [label, start, child_seconds]
        self.self_seconds: dict = defaultdict(float)
        self.calls: Counter = Counter()  # per label; generator resumes excluded
        self.counts: Counter = Counter()
        self.op_walls: list = []
        self.max_residual = 0.0
        self._patches: list = []
        self.report: list = []  # (spec, sites) — sites == 0 means missing

    # -- spans -----------------------------------------------------------

    def enter(self, label: str) -> None:
        self._stack.append([label, _clock(), 0.0])

    def exit(self) -> float:
        label, start, child = self._stack.pop()
        duration = _clock() - start
        self.self_seconds[label] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self, label: str):
        self.enter(label)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def op(self):
        """One benchmark op: a root span whose residual is unattributed.

        On exit the op's wall time must equal the sum of the self-time
        increments it caused, up to float rounding."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        before = sum(self.self_seconds.values())
        self.enter(UNATTRIBUTED)
        try:
            yield
        finally:
            wall = self.exit()
            booked = sum(self.self_seconds.values()) - before
            self.op_walls.append(wall)
            self.max_residual = max(self.max_residual, abs(booked - wall) / wall)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, target: Target):
        ledger = self
        label = target.label
        probe = target.probe

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                ledger.calls[label] += 1
                ledger.enter(label)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    ledger.exit()
                while True:
                    ledger.enter(label)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ledger.exit()
                    try:
                        yield value
                    except GeneratorExit:
                        ledger.enter(label)
                        try:
                            inner.close()
                        finally:
                            ledger.exit()
                        raise

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger.calls[label] += 1
            ledger.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.exit()
            if probe is not None:
                probe(args, result, ledger.counts)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install_method(self, cls, attr: str, target: Target) -> int:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return 0
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(raw.__func__, target)))
        elif isinstance(raw, staticmethod):
            self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, target)))
        else:
            self._patch(cls, attr, self._wrap(raw, target))
        return 1

    def _install_function(self, module_name: str, attr: str, target: Target) -> int:
        module = importlib.import_module(module_name)
        original = module.__dict__.get(attr)
        if original is None or not callable(original):
            return 0
        wrapper = self._wrap(original, target)
        sites = 0
        # Patch every lookup site: modules that imported the function
        # by name hold their own reference to the original.
        for name, mod in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)
                    sites += 1
        return sites

    def install(self) -> list:
        """Wrap every target; returns the specs that were not found."""
        missing = []
        for target in TARGETS:
            module_name, qualname = target.spec.split(":")
            try:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(importlib.import_module(module_name), cls_name)
                    if attr == "*":
                        methods = [
                            key
                            for key, value in vars(cls).items()
                            if not key.startswith("_") and inspect.isfunction(value)
                        ]
                        sites = sum(
                            self._install_method(cls, key, target) for key in methods
                        )
                    else:
                        sites = self._install_method(cls, attr, target)
                else:
                    sites = self._install_function(module_name, qualname, target)
            except (ImportError, AttributeError):
                sites = 0
            self.report.append((target.spec, sites))
            if sites == 0:
                missing.append(target.spec)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_seconds(self) -> dict:
        out: dict = defaultdict(float)
        for label, seconds in self.self_seconds.items():
            out[layer_of(label)] += seconds
        return out

    def layers(self) -> list:
        """Every layer name the ledger can report, in table order."""
        names = []
        for label in [t.label for t in TARGETS] + list(BENCH_LABELS):
            layer = layer_of(label)
            if layer != UNATTRIBUTED and layer not in names:
                names.append(layer)
        return names

    def layer_calls(self, layer: str) -> int:
        return sum(n for label, n in self.calls.items() if layer_of(label) == layer)
