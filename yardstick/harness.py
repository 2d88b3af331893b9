"""Drive one op stream through the program, untraced or traced.

A :class:`Session` owns one snapshot store and one
``JobExecutor(workers=0)``.  Service ops go through the same steps as a
JSONL line into ``repro serve --workers 0`` (TCP framing aside): JSON
decode, ``JobRequest.from_obj``, the server's planner default, executor
submit and wait, ``JobResult.to_obj``, JSON encode.  Paper-series ops
call the library directly.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Optional

from repro.analysis.planner import default_planner
from repro.chase import aggregation
from repro.chase.engine import ChaseEngine
from repro.kbs.elevator import elevator_kb
from repro.kbs.staircase import staircase_kb
from repro.logic import homcache
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import MetricsObserver
from repro.query.plans import default_plan_cache
from repro.service.executor import JobExecutor
from repro.service.jobs import JobRequest
from repro.service.snapshots import SnapshotStore

# Module objects, not names bound at import: the traced run patches the
# module attributes, and calls must look them up there.
tw = importlib.import_module("repro.treewidth")

import ledger as ledger_mod

_clock = time.perf_counter
_no_span = contextlib.nullcontext

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "results"
)

#: Program counters recorded per op in the traced run.
REGISTRY_COUNTERS = (
    "index.triggers_new",
    "index.triggers_reused",
    "index.satisfaction_rechecks",
    "chase.retractions",
)


# ---------------------------------------------------------------------------
# machine-speed normalization
# ---------------------------------------------------------------------------

#: Wall seconds :func:`calibration_kernel` takes at the reference speed.
#: Timed metrics are reported in reference seconds: wall time scaled by
#: REFERENCE_KERNEL_S / (the kernel's time measured around it).
REFERENCE_KERNEL_S = 0.003

#: A speed probe runs whenever this much op time has passed since the
#: last one.  The machine's speed moves within a second, so probes must
#: be frequent and short: about 2% of a run goes to them.
PROBE_INTERVAL_S = 0.1


def calibration_kernel() -> int:
    """Fixed pure-Python work (dicts, sets, tuples, string hashing,
    sorting), independent of the program: it tracks how fast the machine
    runs interpreter work at the moment, which on a shared VM moves by
    tens of percent within seconds."""
    table: dict = {}
    seen = set()
    for i in range(1500):
        key = (i % 211, f"t{i % 97}")
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((i % 31, i % 7, key[1])))
    order = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return len(order) + len(seen)


def probe() -> float:
    """Wall seconds of one calibration kernel run, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        calibration_kernel()
        return _clock() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(*probes: float) -> float:
    """Reference seconds per wall second, from probes around a stretch."""
    return REFERENCE_KERNEL_S / statistics.mean(probes)


class Measurement:
    """Per-op latencies of one pass, with a speed probe between stretches
    of ops; each stretch is scaled by the probes around it.  Probes run
    between ops, outside every op's timed region."""

    def __init__(self):
        self.latencies: list = []
        self.factors: list = []
        self.replies: list = []
        self.elapsed = 0.0  # wall seconds of the ops, probes excluded
        self.normalized_elapsed = 0.0
        self._probe = probe()
        self._start: Optional[float] = None
        self._end = 0.0
        self._pending = 0

    def record(self, start: float, end: float, reply) -> None:
        if self._start is None:
            self._start = start
        self._end = end
        self._pending += 1
        self.latencies.append(end - start)
        self.replies.append(reply)
        if end - self._start >= PROBE_INTERVAL_S:
            self.close()

    def close(self) -> "Measurement":
        """End the current stretch (call once more after the last op)."""
        if self._pending:
            next_probe = probe()
            factor = speed_factor(self._probe, next_probe)
            wall = self._end - self._start
            self.elapsed += wall
            self.normalized_elapsed += wall * factor
            self.factors.extend([factor] * self._pending)
            self._probe, self._start, self._pending = next_probe, None, 0
        return self

    def normalized_latencies(self) -> list:
        return [lat * f for lat, f in zip(self.latencies, self.factors)]


def reset_process_caches() -> None:
    """Empty the in-process caches a set-up is meant to fill."""
    default_planner().cache_clear()
    default_plan_cache().clear()
    homcache.get_cache().clear()


def _counter(registry: MetricsRegistry, name: str) -> int:
    return registry.counter(name).value if name in registry else 0


class Session:
    def __init__(self, stream, store_dir: str):
        self.stream = stream
        self.store_dir = store_dir
        self.service = stream.workload != "paper-series"
        self.registry = MetricsRegistry(enabled=True)
        self.executor = None
        self.store = None
        self._ledger = None

    # -- set-up ---------------------------------------------------------

    def setup(self) -> tuple:
        """Fresh caches and store, then the set-up requests and the
        warm-up pass; returns (wall seconds, reference seconds)."""
        factor = speed_factor(probe())
        started = _clock()
        reset_process_caches()
        if self.service:
            os.makedirs(self.store_dir)
            self.store = SnapshotStore(self.store_dir)
            self.executor = JobExecutor(
                workers=0, snapshot_dir=self.store_dir, registry=self.registry
            )
        opened = _clock() - started
        warmup = self.measure(self.stream.setup_requests + self.stream.warmup)
        return (
            opened + warmup.elapsed,
            opened * factor + warmup.normalized_elapsed,
        )

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()
            self.executor = None

    # -- one op ----------------------------------------------------------

    def _serve(self, line: str) -> bytes:
        span = self._ledger.span if self._ledger is not None else _no_span
        with span("wire.json"):
            obj = json.loads(line)
        request = JobRequest.from_obj(obj)
        # `repro serve` routes through the planner unless the request
        # opts out or carries its own strategy.
        if "planner" not in obj and request.strategy is None:
            request.planner = True
        with span("executor"):
            result = self.executor.submit(request).result()
        reply = result.to_obj()
        with span("wire.json"):
            return json.dumps(reply).encode()

    def _prepare(self, op):
        """Untimed preparation of *op*; returns the call to time.

        Paper-series ops start from an empty homomorphism memo: a real
        run of a pipeline does not repeat an identical chase, so an op
        must not find the previous op's searches memoized."""
        if self.service:
            return lambda: self._serve(op.line)
        homcache.get_cache().clear()
        observer = MetricsObserver(self.registry)
        return lambda: run_pipeline(op.obj["pipeline"], op.obj["size"], observer)

    # -- passes ----------------------------------------------------------

    def measure(self, ops) -> Measurement:
        """Untraced pass over *ops*."""
        result = Measurement()
        for op in ops:
            call = self._prepare(op)
            start = _clock()
            reply = call()
            result.record(start, _clock(), reply)
        return result.close()

    def measure_traced(self, ops, untraced: Measurement):
        """Traced pass over *ops*; returns the per-layer metrics, or None
        when a wrapped name is missing or the ledger does not balance."""
        ledger = ledger_mod.Ledger()
        missing = ledger.install()
        for spec, sites in ledger.report:
            state = f"found ({sites} site{'s' if sites != 1 else ''})" if sites else "MISSING"
            print(f"ledger: {spec} {state}")
        if missing:
            ledger.uninstall()
            print(f"ledger: {len(missing)} wrapped name(s) missing; no result", flush=True)
            return None
        self._ledger = ledger
        counters = Counter()
        reply_bytes = 0
        bytes_written = 0
        by_class: dict = defaultdict(lambda: defaultdict(float))
        traced = Measurement()
        try:
            for op in ops:
                before_layers = ledger.layer_seconds()
                before_counts = {n: _counter(self.registry, n) for n in REGISTRY_COUNTERS + ("chase.steps",)}
                stored_before = self.store.total_bytes() if self.store is not None else 0
                call = self._prepare(op)
                start = _clock()
                with ledger.op():
                    reply = call()
                traced.record(start, _clock(), reply)
                if self.service:
                    reply_bytes += len(reply)
                    bytes_written += self.store.total_bytes() - stored_before
                for name, value in before_counts.items():
                    counters[name] += _counter(self.registry, name) - value
                for layer, seconds in ledger.layer_seconds().items():
                    by_class[op.cls][layer] += seconds - before_layers.get(layer, 0.0)
                by_class[op.cls]["_ops"] += 1
        finally:
            ledger.uninstall()
            self._ledger = None
        self.traced_replies = traced.close().replies
        total_self = sum(ledger.self_seconds.values())
        total_wall = sum(ledger.op_walls)
        print(
            f"ledger: per-op residual max {ledger.max_residual:.2e}; "
            f"self-time sum {total_self:.6f}s vs op wall sum {total_wall:.6f}s"
        )
        if ledger.max_residual > 1e-9 or abs(total_self - total_wall) > 1e-6 * total_wall:
            print("ledger: layer self times do not add up to the op wall time; no result")
            return None
        _print_class_table(by_class, ledger.layers())
        return _layer_metrics(ledger, counters, len(ops), reply_bytes, bytes_written,
                              self.registry,
                              traced.normalized_elapsed / untraced.normalized_elapsed)


def _print_class_table(by_class: dict, layers: list) -> None:
    for cls in sorted(by_class):
        row = by_class[cls]
        ops = row.pop("_ops")
        parts = [
            f"{layer}={row[layer] / ops * 1000:.2f}"
            for layer in layers + [ledger_mod.UNATTRIBUTED]
            if row.get(layer, 0.0) > 0
        ]
        print(f"ledger ms/op [{cls}]: " + " ".join(parts))


def _layer_metrics(ledger, counters, n, reply_bytes, bytes_written, registry, overhead):
    def per_op(value):
        return value / n

    seconds = ledger.layer_seconds()
    metrics = {}
    for layer in ledger.layers() + [ledger_mod.UNATTRIBUTED]:
        metrics[f"{layer}.s_per_op"] = {"value": per_op(seconds.get(layer, 0.0)), "unit": "s"}
    selfs = ledger.self_seconds
    calls = ledger.calls
    loads = calls["snapshots.load"]
    evaluations = calls["rewriting.evaluate"]
    lookups = _counter(registry, "query.plan_lookups")
    extra = {
        "wire.reply_bytes_per_op": (per_op(reply_bytes), "bytes"),
        "planner.compute_per_op": (per_op(calls["planner.compute"]), "count"),
        "snapshots.open_s_per_op": (per_op(selfs["snapshots.open"]), "s"),
        "snapshots.load_s_per_op": (
            per_op(selfs["snapshots.load"] + selfs["snapshots.resolve"]), "s"),
        "snapshots.save_s_per_op": (per_op(selfs["snapshots.save"]), "s"),
        "snapshots.bytes_written_per_op": (per_op(bytes_written), "bytes"),
        "snapshots.hit_ratio": (ledger.counts["snapshots.hits"] / loads if loads else 0.0, "ratio"),
        "chase.steps_per_op": (per_op(counters["chase.steps"]), "count"),
        "trigger_discovery.calls_per_op": (per_op(ledger.layer_calls("trigger_discovery")), "count"),
        "copy.calls_per_op": (per_op(ledger.layer_calls("copy")), "count"),
        "copy.atoms_per_op": (per_op(ledger.counts["copy.atoms"]), "count"),
        "core_maint.calls_per_op": (per_op(ledger.layer_calls("core_maint")), "count"),
        "hom.calls_per_op": (per_op(ledger.layer_calls("hom")), "count"),
        "rewriting.settled_share": (
            ledger.counts["rewriting.settled"] / evaluations if evaluations else 0.0, "ratio"),
        "rewriting.plan_hit_ratio": (
            _counter(registry, "query.plan_cache_hits") / lookups if lookups else 0.0, "ratio"),
        "obs.events_per_op": (per_op(ledger.layer_calls("obs")), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for name in REGISTRY_COUNTERS:
        extra[f"counter.{name}_per_op"] = (per_op(counters[name]), "count")
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# paper pipelines (library mode)
# ---------------------------------------------------------------------------


def run_pipeline(pipeline: str, size: int, observer) -> dict:
    """Run one paper pipeline; module-attribute calls so the ledger's
    wrappers apply."""
    kb = elevator_kb() if pipeline == "e6-elevator" else staircase_kb()
    result = ChaseEngine(kb, variant="core", observer=observer).run(size)
    derivation = result.derivation
    out = {"terminated": result.terminated}
    if pipeline in ("e3-staircase", "e6-elevator"):
        out["series"] = [
            [i, len(derivation.instance(i)), tw.treewidth(derivation.instance(i))]
            for i in range(len(derivation))
        ]
        return out
    robust = aggregation.RobustSequence(derivation)
    rows = []
    for upto in range(0, len(derivation), 10):
        natural = derivation.natural_aggregation(upto=upto)
        low, high = tw.treewidth_bounds(natural)
        rows.append([upto, len(natural), f"[{low},{high}]", len(robust.instances[upto]),
                     tw.treewidth(robust.instances[upto])])
    out["rows"] = rows
    out["natural_atoms"] = len(derivation.natural_aggregation())
    out["robust_atoms"] = len(robust.aggregate())
    out["robust_tw"] = tw.treewidth(robust.aggregate())
    stable = aggregation.robust_aggregation(derivation, patience=(len(derivation) - 1) // 2)
    out["stable_tw"] = tw.treewidth(stable)
    return out


_TABLES: dict = {}


def _table(name: str) -> list:
    if name not in _TABLES:
        with open(os.path.join(RESULTS_DIR, f"{name}.json")) as handle:
            _TABLES[name] = json.load(handle)["rows"]
    return _TABLES[name]


def check_paper(op, reply: dict):
    """Compare a pipeline's series with the committed table and the
    paper's bounds; None when both agree."""
    pipeline, size = op.obj["pipeline"], op.obj["size"]
    if reply.get("terminated"):
        return "the paper's core chases never terminate"
    if pipeline in ("e3-staircase", "e6-elevator"):
        series = reply["series"]
        if len(series) != size + 1:
            return f"series has {len(series)} steps, expected {size + 1}"
        table = "fig2_staircase_core" if pipeline == "e3-staircase" else "fig4_elevator_core_chase"
        for row in _table(table):
            if row["step"] <= size and series[row["step"]][1:] != [row["atoms"], row["treewidth"]]:
                return f"step {row['step']}: {series[row['step']][1:]} vs table {row}"
        widths = [w for _, _, w in series]
        if pipeline == "e3-staircase" and max(widths) > 2:
            return "Prop. 4 violated: a step of the K_h core chase has treewidth > 2"
        if pipeline == "e6-elevator":
            if "2" not in map(str, widths) or widths[-1] <= widths[0]:
                return "Cor. 1 violated: K_v core chase treewidth does not grow"
            if any(w < 2 for w in widths[widths.index(2):]):
                return "Cor. 1 violated: treewidth growth is not monotone"
        return None
    for row in _table("fig5_aggregation_treewidth"):
        if row["prefix steps"] <= size:
            expected = [row["prefix steps"], row["|D*| atoms"], row["tw(D*) bracket"],
                        row["|G_S| atoms"], row["tw(G_S)"]]
            if expected not in reply["rows"]:
                return f"aggregation row {expected} missing from {reply['rows']}"
    if reply["robust_tw"] > 2:
        return "Prop. 12(2) violated: robust aggregation exceeds treewidth 2"
    if reply["natural_atoms"] <= reply["robust_atoms"]:
        return "natural aggregation must outgrow the robust one"
    if reply["stable_tw"] > 1:
        return "the stable column must have treewidth 1"
    return None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def decode(reply):
    return json.loads(reply) if isinstance(reply, bytes) else reply


def check_all(stream, replies, refs) -> list:
    """Failure messages, one per op whose reply is wrong, missing or
    incomplete (checking is outside every timed region)."""
    import workloads

    failures = []
    for index, (op, reply) in enumerate(zip(stream.ops, replies)):
        if stream.workload == "paper-series":
            problem = check_paper(op, reply) if reply is not None else "missing reply"
        else:
            problem = workloads.check_reply(op, decode(reply) if reply is not None else None, refs)
        if problem is not None:
            failures.append(f"op {index} [{op.cls}]: {problem}")
    failures += [f"op {i} [-]: missing reply" for i in range(len(replies), len(stream.ops))]
    return failures


def latencies_by_class(stream, latencies) -> dict:
    out = defaultdict(list)
    for op, latency in zip(stream.ops, latencies):
        out[op.cls].append(latency)
    return out


#: In warm-serve, the reply property that proves each designed class
#: really took its path.
WARM_SERVE_PATHS = {
    "warm-entail": lambda r: r.get("warm") and r.get("method") == "warm-snapshot-hit",
    "ancestor-entail": lambda r: r.get("ancestor") and not r.get("warm"),
    "rewrite-entail": lambda r: str(r.get("method", "")).startswith("ucq-rewrite-"),
    "batch-entail": lambda r: r.get("warm") and r.get("results") is not None,
    "countermodel-entail": lambda r: r.get("warm") and r.get("method") == "finite-countermodel",
}

#: Half-width of the rank window around a percentile, as a share of the
#: op count, and the share of that window one class must hold for the
#: percentile to sit inside the class rather than on a class boundary
#: (a lone slow outlier of another class does not make a boundary).
PERCENTILE_WINDOW = 0.04
PERCENTILE_DOMINANCE = 0.75


def percentile_classes(stream, latencies, q: float) -> Counter:
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    center = round(q * (len(order) - 1))
    width = max(2, round(PERCENTILE_WINDOW * len(order)))
    window = order[max(0, center - width): center + width + 1]
    return Counter(stream.ops[i].cls for i in window)


def check_shape(stream, replies, latencies) -> list:
    """Workload-shape violations (empty when the run had its designed shape)."""
    problems = []
    for op in stream.ops:
        if "timeout" in op.obj:
            problems.append(f"op [{op.cls}] carries a timeout")
            break
    decoded = [decode(r) for r in replies]
    if stream.workload == "cold-chase":
        reused = sum(1 for r in decoded if r.get("warm") or r.get("ancestor"))
        if reused:
            problems.append(f"{reused} cold-chase replies resumed a snapshot")
    if stream.workload == "warm-serve":
        seen = Counter(op.cls for op, r in zip(stream.ops, decoded) if WARM_SERVE_PATHS[op.cls](r))
        designed = Counter(op.cls for op in stream.ops)
        for cls, share in stream.shares.items():
            if seen[cls] != designed[cls] or abs(designed[cls] / len(stream.ops) - share) > 0.01:
                problems.append(
                    f"class {cls}: {seen[cls]} of {designed[cls]} ops took their path "
                    f"(designed share {share})"
                )
    for q in (0.5, 0.9):
        classes = percentile_classes(stream, latencies, q)
        print(f"shape: p{round(q * 100)} window classes {dict(classes)}")
        # Only warm-serve's classes are designed to sit in separate
        # latency bands; the other workloads' classes overlap.
        dominant = max(classes.values()) >= PERCENTILE_DOMINANCE * sum(classes.values())
        if stream.workload == "warm-serve" and not dominant:
            problems.append(f"p{round(q * 100)} falls on a class boundary: {dict(classes)}")
    return problems
