"""Structured JSONL tracing and metrics-updating observers.

A trace is a sequence of flat JSON objects, one per line::

    {"seq": 17, "t": 0.00421, "ts": 1754640000.104211,
     "kind": "chase_step_finished", "step": 3, "rule": "Rup",
     "atoms_before": 10, "atoms_applied": 13, "atoms_after": 11,
     "retracted": 2}

``seq`` is a per-tracer sequence number, ``t`` the elapsed time in
seconds since the tracer was created (monotonic clock — exact for
intra-tracer deltas), ``ts`` the wall-clock epoch time (the field that
lets traces from *different processes* — the server and each pool
worker — merge onto one timeline), ``kind`` one of :data:`EVENT_KINDS`;
the remaining fields are the event payload (see
:data:`~repro.obs.observer.EVENTS` for the schema of each kind, and
``docs/OBSERVABILITY.md`` for the full catalogue).

When a trace context is ambient (:mod:`repro.obs.spans`), every emitted
event is additionally stamped with ``trace_id`` and ``span_id``, tying
engine steps, snapshot accesses and service events to the request that
caused them.

The file format is append-only and crash-tolerant: every event is a
complete line, so a truncated trace loses at most its last event.
``repro stats FILE`` replays a trace into summary tables.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Iterable, Optional, Union

from . import spans as _span_state
from .metrics import MetricsRegistry
from .observer import EVENTS, Observer

__all__ = [
    "EVENT_KINDS",
    "LATENCY_BOUNDS",
    "JsonlTracer",
    "TracingObserver",
    "MetricsObserver",
    "read_trace",
    "read_trace_lenient",
]

#: Every event kind an observer can emit (the keys of :data:`EVENTS`).
EVENT_KINDS = tuple(EVENTS)

#: Histogram bucket bounds for service job latencies, in seconds: the
#: default 1-2-5 decades start at 1 and would lump every sub-second job
#: into one bucket, useless for p50/p95 targets on a warm-started path.
LATENCY_BOUNDS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


class JsonlTracer:
    """Serialize events as JSON lines into a file-like sink.

    The tracer owns sequence numbering and timestamps; it does not own
    the sink (callers close what they open) unless :meth:`close` is
    asked to.
    """

    def __init__(self, sink: IO[str]):
        self.sink = sink
        self.seq = 0
        self._epoch = time.perf_counter()
        # The server's asyncio thread and the executor's callback
        # threads share one tracer; the lock keeps lines whole and seq
        # gapless.
        self._lock = threading.Lock()

    def emit(self, kind: str, **payload) -> None:
        context = _span_state.current_context()
        with self._lock:
            record = {
                "seq": self.seq,
                "t": round(time.perf_counter() - self._epoch, 6),
                "ts": round(time.time(), 6),
                "kind": kind,
            }
            if context is not None:
                record["trace_id"] = context.trace_id
                record["span_id"] = context.span_id
            # payload last: span_open/span_close carry their own
            # context fields, which win over the ambient stamp.
            record.update(payload)
            self.sink.write(json.dumps(record, separators=(",", ":")) + "\n")
            self.seq += 1

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


# -- metric handlers ---------------------------------------------------
#
# One per kind in ``_HANDLERS``, each updating the metrics its
# :data:`EVENTS` entry lists; kinds without metrics have no handler.


def _chase_step_started(reg, *, atoms, **_) -> None:
    reg.gauge("chase.atoms").set(atoms)


def _trigger_selected(reg, *, active, **_) -> None:
    reg.counter("trigger.selected").inc()
    reg.gauge("chase.active_triggers").set(active)


def _trigger_retired(reg, *, count=1, **_) -> None:
    reg.counter("trigger.retired").inc(count)


def _chase_step_finished(reg, *, atoms_after, retracted, **_) -> None:
    reg.counter("chase.steps").inc()
    reg.gauge("chase.atoms").set(atoms_after)
    if retracted > 0:
        reg.counter("chase.retractions").inc()
        reg.counter("chase.atoms_retracted").inc(retracted)
    reg.histogram("chase.retraction_size").observe(retracted)


def _core_retraction(reg, *, variables_folded, seconds, **_) -> None:
    reg.counter("core.retractions").inc()
    reg.counter("core.variables_folded").inc(variables_folded)
    reg.timer("core.time").record(seconds)


def _core_maintenance(
    reg, *, candidates_tried, skip_hits, pairs_checked, cert_invalidated,
    clean_broken, **_
) -> None:
    reg.counter("core.maintained").inc()
    reg.counter("core.skip_hits").inc(skip_hits)
    reg.counter("core.candidates_tried").inc(candidates_tried)
    reg.counter("core.pairs_checked").inc(pairs_checked)
    reg.counter("core.cert_invalidated").inc(cert_invalidated)
    if clean_broken:
        reg.counter("core.clean_broken").inc()


def _homomorphism_search(reg, *, found, backtracks, seconds, **_) -> None:
    reg.counter("hom.searches").inc()
    if found:
        reg.counter("hom.found").inc()
    reg.counter("hom.backtracks").inc(backtracks)
    reg.histogram("hom.backtracks_per_search").observe(backtracks)
    reg.timer("hom.time").record(seconds)


def _hom_memo_lookup(reg, *, hit, entries, **_) -> None:
    if hit:
        reg.counter("hom.memo_hits").inc()
    else:
        reg.counter("hom.memo_misses").inc()
    reg.gauge("hom.memo_entries").set(entries)


def _trigger_index_update(
    reg, *, delta_atoms, triggers_new, triggers_reused, satisfaction_rechecks,
    collapsed, **_
) -> None:
    reg.counter("index.delta_atoms").inc(delta_atoms)
    reg.counter("index.triggers_new").inc(triggers_new)
    reg.counter("index.triggers_reused").inc(triggers_reused)
    reg.counter("index.satisfaction_rechecks").inc(satisfaction_rechecks)
    reg.counter("index.collapsed").inc(collapsed)


def _compile(reg, **_) -> None:
    reg.counter("compiled.plans").inc()


def _join_plan(reg, *, tuples, **_) -> None:
    reg.counter("compiled.delta_rounds").inc()
    reg.gauge("compiled.tuples").set(tuples)


def _service_request(reg, *, coalesced, **_) -> None:
    reg.counter("service.requests").inc()
    if coalesced:
        reg.counter("service.coalesced").inc()


def _service_job(
    reg, *, ok, warm, incomplete, deadline_expired, applications, seconds,
    ancestor=False, **_
) -> None:
    reg.counter("service.jobs").inc()
    if not ok:
        reg.counter("service.job_errors").inc()
    if warm:
        reg.counter("service.warm_hits").inc()
    else:
        reg.counter("service.warm_misses").inc()
    if ancestor:
        reg.counter("service.ancestor_resumes").inc()
    if incomplete:
        reg.counter("service.incomplete").inc()
    if deadline_expired:
        reg.counter("service.deadline_expired").inc()
    reg.counter("service.applications").inc(applications)
    reg.timer("service.job_seconds").record(seconds)
    reg.histogram("service.job_latency", LATENCY_BOUNDS).observe(seconds)


def _planner_decision(reg, *, strategy, cached, **_) -> None:
    if cached == "computed":
        reg.counter("planner.verdicts").inc()
    else:
        reg.counter("planner.cache_hits").inc()
    reg.counter(f"planner.strategy.{strategy}").inc()


def _query_rewrite(
    reg, *, source, fragment="", complete=False, pruned=0, **_
) -> None:
    reg.counter("query.plan_lookups").inc()
    if source == "computed":
        if fragment:
            reg.counter("query.rewrites").inc()
        reg.counter("query.disjuncts_pruned").inc(pruned)
    else:
        reg.counter("query.plan_cache_hits").inc()
    if fragment and not complete:
        reg.counter("query.rewrite_fallbacks").inc()


def _snapshot_access(
    reg, *, op, hit, corrupt=False, chain_depth=0, chain_broken=False,
    bytes_saved=0, **_
) -> None:
    if op == "load":
        reg.counter("snapshot.loads").inc()
        if hit:
            reg.counter("snapshot.hits").inc()
        if corrupt:
            reg.counter("snapshot.corrupt").inc()
    elif op == "resolve":
        reg.counter("snapshot.ancestor_probes").inc()
        if hit:
            reg.counter("snapshot.ancestor_hits").inc()
    elif op == "evict":
        reg.counter("snapshot.evicted").inc()
    else:
        reg.counter("snapshot.saves").inc()
        if bytes_saved > 0:
            reg.counter("snapshot.bytes_saved").inc(bytes_saved)
    if chain_broken:
        reg.counter("snapshot.chain_broken").inc()
    if hit and chain_depth:
        reg.gauge("snapshot.delta_chain_depth").set(chain_depth)


def _treewidth_search(reg, *, budget_consumed, **_) -> None:
    reg.counter("tw.searches").inc()
    reg.counter("tw.budget_consumed").inc(budget_consumed)


def _robust_step(reg, *, renamed, **_) -> None:
    reg.counter("robust.steps").inc()
    reg.counter("robust.renamed").inc(renamed)


def _span_close(reg, *, name, seconds=0.0, **_) -> None:
    # Span names form a small closed set (request lifecycle phases),
    # so one timer per name stays bounded; workers ship these back in
    # their snapshot, giving the parent per-phase durations.
    reg.timer(f"span.{name}").record(seconds)


_HANDLERS = {
    "chase_step_started": _chase_step_started,
    "trigger_selected": _trigger_selected,
    "trigger_retired": _trigger_retired,
    "chase_step_finished": _chase_step_finished,
    "core_retraction": _core_retraction,
    "core_maintenance": _core_maintenance,
    "homomorphism_search": _homomorphism_search,
    "hom_memo_lookup": _hom_memo_lookup,
    "trigger_index_update": _trigger_index_update,
    "compile": _compile,
    "join_plan": _join_plan,
    "service_request": _service_request,
    "service_job": _service_job,
    "planner_decision": _planner_decision,
    "query_rewrite": _query_rewrite,
    "snapshot_access": _snapshot_access,
    "treewidth_search": _treewidth_search,
    "robust_step": _robust_step,
    "span_close": _span_close,
}


class MetricsObserver(Observer):
    """Update a :class:`MetricsRegistry` from the event stream.

    Each kind's handler updates the metrics its :data:`EVENTS` entry
    lists (rendered as the metric table of ``docs/OBSERVABILITY.md``).
    ``service.queue_depth``, ``service.retries`` and
    ``service.pool_rebuilds`` are supervisor state the executor writes
    into its own registry, so ``service_retry`` and
    ``service_pool_rebuild`` events deliberately update nothing here.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def emit(self, kind: str, **fields) -> None:
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self.registry, **fields)


class TracingObserver(MetricsObserver):
    """Emit every event to a :class:`JsonlTracer` (and, optionally, into
    a metrics registry — pass ``registry=None`` to trace only)."""

    __slots__ = ("tracer",)

    def __init__(
        self, tracer: JsonlTracer, registry: Optional[MetricsRegistry] = None
    ):
        # `registry if ... is not None`, not `registry or`: a registry
        # with no instruments yet is empty and therefore falsy.
        super().__init__(
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.tracer = tracer

    def emit(self, kind: str, **fields) -> None:
        self.tracer.emit(kind, **fields)
        super().emit(kind, **fields)


def _trace_lines(source: Union[str, IO[str], Iterable[str]]) -> list[str]:
    if isinstance(source, str):
        with open(source) as handle:
            lines = handle.readlines()
    elif hasattr(source, "read"):
        lines = source.readlines()
    else:
        lines = list(source)
    stripped = [line.strip() for line in lines]
    return [line for line in stripped if line]


def read_trace(source: Union[str, IO[str], Iterable[str]]) -> list[dict]:
    """Parse a JSONL trace from a path, open file, or iterable of lines.

    Blank lines are skipped; a malformed *final* line (a run cut short
    mid-write) is dropped, while malformed interior lines raise."""
    stripped = _trace_lines(source)
    events: list[dict] = []
    for index, line in enumerate(stripped):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(stripped) - 1:
                break  # torn final write
            raise
    return events


def read_trace_lenient(
    source: Union[str, IO[str], Iterable[str]],
) -> tuple[list[dict], int]:
    """Best-effort variant of :func:`read_trace` for offline analysis.

    Never raises on malformed content: every unparseable non-blank line
    is skipped (a crashed writer, interleaved writers, or a truncated
    copy can all leave torn lines anywhere, not just at the end).
    Returns ``(events, skipped)`` so callers can surface how much of the
    trace was unreadable."""
    events: list[dict] = []
    skipped = 0
    for line in _trace_lines(source):
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            skipped += 1
    return events, skipped
