"""The :class:`Observer` protocol the instrumented hot paths report into.

Design constraints:

* **One hook.**  Every event goes through ``observer.emit(kind,
  **fields)``; :data:`EVENTS` is the single schema — per kind its
  payload fields, a one-line meaning, the emitting module and the
  metrics :class:`~repro.obs.tracer.MetricsObserver` derives from it.
  ``docs/OBSERVABILITY.md`` renders its event and metric tables from
  this table (``tests/test_obs.py`` keeps the two in sync).
* **Zero-cost when off.**  Every instrumented module keeps a reference
  to this module and tests ``observer.current is not None`` — a single
  attribute load and identity check — before doing any accounting.  The
  chase engine resolves the observer once per :meth:`~ChaseEngine.run`.
* **Injectable.**  :class:`~repro.chase.engine.ChaseEngine` accepts an
  ``observer=`` argument for its own step events; the module-global
  ``current`` (managed by :func:`set_observer` / :func:`observing`)
  reaches the functional hot paths (homomorphism search, core
  retraction, compiled joins, exact treewidth) that have no object to
  hang state on.

The events mirror the paper's quantities: per-step retraction sizes
(Section 7), homomorphism search effort (the single semantic primitive),
treewidth search budgets (Section 4), robust-renaming churn (Section 8).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "EVENTS",
    "EventSpec",
    "Observer",
    "current",
    "get_observer",
    "set_observer",
    "observing",
]


@dataclass(frozen=True)
class EventSpec:
    """The schema of one event kind.

    *required* fields are passed by every emitter; *optional* ones map
    to the default a consumer assumes when an emitter leaves them out.
    An *open* kind also carries free-form annotations (``**attrs``).
    *metrics* maps each metric name the kind's handler updates to its
    ``(instrument, meaning)``.
    """

    required: tuple
    meaning: str
    emitter: str
    optional: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    open: bool = False


#: Every event kind, in the order `repro stats` counts them.
EVENTS: dict[str, EventSpec] = {
    "chase_step_started": EventSpec(
        ("step", "variant", "atoms"),
        "a chase iteration began; `atoms` is |F_{i-1}|",
        "repro.chase.engine",
        metrics={"chase.atoms": ("gauge", "atoms in the latest `F_i`")},
    ),
    "trigger_selected": EventSpec(
        ("step", "rule", "active"),
        "fair scheduling picked the oldest of `active` triggers",
        "repro.chase.engine",
        metrics={
            "trigger.selected": ("counter", "fair-scheduler selections"),
            "chase.active_triggers": ("gauge", "active-trigger pool at the last selection"),
        },
    ),
    "trigger_retired": EventSpec(
        ("step", "rule", "reason"),
        "`count` triggers left the pool: `applied` (now satisfied) or `collapsed` "
        "(a simplification folded keys together; `rule` null)",
        "repro.chase.engine",
        optional={"count": 1},
        metrics={"trigger.retired": ("counter", "triggers leaving the active pool")},
    ),
    "chase_step_finished": EventSpec(
        ("step", "rule", "atoms_before", "atoms_applied", "atoms_after", "retracted"),
        "step recorded: |F_{i-1}|, |A_i|, |F_i| and the retraction size |A_i| − |F_i| "
        "(the Section 7 series)",
        "repro.chase.engine",
        metrics={
            "chase.steps": ("counter", "rule applications recorded"),
            "chase.atoms": ("gauge", "atoms in the latest `F_i`"),
            "chase.retractions": ("counter", "steps whose simplification removed atoms"),
            "chase.atoms_retracted": ("counter", "total atoms removed by simplifications"),
            "chase.retraction_size": ("histogram", "per-step retraction sizes"),
        },
    ),
    "core_retraction": EventSpec(
        ("atoms_before", "atoms_after", "variables_folded", "seconds"),
        "one core retraction finished (identity retractions included; the incremental "
        "maintainer emits it too)",
        "repro.logic.cores, repro.logic.coremaint",
        metrics={
            "core.retractions": ("counter", "`core_retraction` events"),
            "core.variables_folded": ("counter", "variables folded away by cores"),
            "core.time": ("timer", "time spent computing core retractions"),
        },
    ),
    "core_maintenance": EventSpec(
        ("mode", "atoms_before", "atoms_after", "folds", "candidates_tried", "skip_hits",
         "seeded_searches", "pairs_checked", "cert_invalidated", "clean_broken", "seconds"),
        "one maintained core step (`mode` `incremental` | `full`); see docs/PERFORMANCE.md "
        "for the counters",
        "repro.logic.coremaint",
        metrics={
            "core.maintained": ("counter", "`CoreMaintainer.retract` calls"),
            "core.skip_hits": ("counter", "certified variables skipped without a fold search"),
            "core.candidates_tried": ("counter", "per-variable fold searches the scheduler ran"),
            "core.pairs_checked": ("counter", "escape-scan (old, delta) pin pairs enumerated"),
            "core.cert_invalidated": ("counter", "certificates invalidated by the step's delta"),
            "core.clean_broken": ("counter", "steps that fell back to the exact pass"),
        },
    ),
    "homomorphism_search": EventSpec(
        ("found", "backtracks", "source_atoms", "target_atoms", "seconds"),
        "one single-witness search; `backtracks` counts undone tentative atom matches",
        "repro.logic.homomorphism",
        metrics={
            "hom.searches": ("counter", "single-witness searches"),
            "hom.found": ("counter", "successful searches"),
            "hom.backtracks": ("counter", "total undo operations"),
            "hom.backtracks_per_search": ("histogram", "per-search backtracks"),
            "hom.time": ("timer", "time in the search"),
        },
    ),
    "hom_memo_lookup": EventSpec(
        ("hit", "entries"),
        "one memo-cache consultation by a single-witness search; `entries` is the cache size",
        "repro.logic.homomorphism",
        metrics={
            "hom.memo_hits": ("counter", "memo-cache hits"),
            "hom.memo_misses": ("counter", "memo-cache misses"),
            "hom.memo_entries": ("gauge", "memo-cache size at the last lookup"),
        },
    ),
    "trigger_index_update": EventSpec(
        ("step", "delta_atoms", "triggers_new", "triggers_reused", "satisfaction_rechecks",
         "transported", "collapsed"),
        "the incremental trigger index absorbed one chase step (and transported its live "
        "triggers through a retraction)",
        "repro.chase.engine",
        metrics={
            "index.delta_atoms": ("counter", "atoms absorbed by the trigger index"),
            "index.triggers_new": ("counter", "triggers found by delta re-matching"),
            "index.triggers_reused": ("counter", "triggers carried over unchanged"),
            "index.satisfaction_rechecks": ("counter", "satisfaction tests that ran"),
            "index.collapsed": ("counter", "trigger keys folded by transport"),
        },
    ),
    "compile": EventSpec(
        ("rule", "body_atoms", "variables"),
        "one rule body compiled to a join plan (again after a symbol-table generation change)",
        "repro.chase.compiled_index",
        metrics={"compiled.plans": ("counter", "rule bodies compiled to join plans")},
    ),
    "join_plan": EventSpec(
        ("delta_atoms", "plans_run", "triggers_new", "tuples"),
        "one semi-naive delta round absorbed in int space",
        "repro.chase.compiled_index",
        metrics={
            "compiled.delta_rounds": ("counter", "semi-naive delta rounds absorbed"),
            "compiled.tuples": ("gauge", "interned tuples at the last delta round"),
        },
    ),
    "service_request": EventSpec(
        ("op", "coalesced"),
        "the server accepted one request; `coalesced` when an identical in-flight job "
        "absorbed it",
        "repro.service.server",
        metrics={
            "service.requests": ("counter", "requests accepted by the server"),
            "service.coalesced": ("counter", "requests absorbed by in-flight dedup"),
        },
    ),
    "service_job": EventSpec(
        ("op", "ok", "warm", "incomplete", "deadline_expired", "applications", "seconds"),
        "one job finished; `warm` = exact snapshot resume, `ancestor` = nearest-ancestor "
        "resume, `seconds` includes queueing and retries",
        "repro.service.executor",
        optional={"ancestor": False},
        metrics={
            "service.jobs": ("counter", "jobs finished"),
            "service.job_errors": ("counter", "jobs that failed"),
            "service.warm_hits": ("counter", "jobs warm-started from a snapshot"),
            "service.warm_misses": ("counter", "jobs that chased cold"),
            "service.ancestor_resumes": ("counter", "jobs resumed from an ancestor snapshot"),
            "service.incomplete": ("counter", "jobs degraded to partial answers"),
            "service.deadline_expired": ("counter", "jobs halted by their deadline"),
            "service.applications": ("counter", "new rule applications across jobs"),
            "service.job_seconds": ("timer", "job wall-clock latency"),
            "service.job_latency": ("histogram", "per-job latency (`LATENCY_BOUNDS` buckets)"),
        },
    ),
    "service_retry": EventSpec(
        ("op", "attempt", "delay", "error"),
        "the supervisor scheduled retry `attempt` (1-based) after `error`, `delay` seconds "
        "of backoff away",
        "repro.service.executor",
    ),
    "service_pool_rebuild": EventSpec(
        ("pending",),
        "a broken worker pool was replaced with `pending` jobs in flight",
        "repro.service.executor",
    ),
    "planner_decision": EventSpec(
        ("strategy", "cached"),
        "the planner routed one job; `cached` is `computed` | `memory` | `store`, "
        "`rules_fingerprint` a 16-hex key prefix",
        "repro.analysis.planner",
        optional={"rules_fingerprint": "", "terminating": False, "bts": False, "k_bound": None},
        metrics={
            "planner.verdicts": ("counter", "verdicts computed from scratch (cache misses)"),
            "planner.cache_hits": ("counter", "verdicts served from the memory LRU or catalog"),
            "planner.strategy.<name>": ("counter", "routing decisions per strategy"),
        },
    ),
    "query_rewrite": EventSpec(
        ("source",),
        "one query-plan lookup; `source` is `computed` | `memory` | `store`, `fragment` "
        "`linear` | `guarded` | `\"\"`",
        "repro.query.plans",
        optional={"fragment": "", "complete": False, "disjuncts": 0, "pruned": 0},
        metrics={
            "query.plan_lookups": ("counter", "query-plan cache lookups"),
            "query.rewrites": ("counter", "UCQ rewritings computed on a rewritable ruleset"),
            "query.disjuncts_pruned": ("counter", "candidates dropped by subsumption"),
            "query.plan_cache_hits": ("counter", "plans served from the memory LRU or catalog"),
            "query.rewrite_fallbacks": ("counter", "incomplete plans (a \"no\" races instead)"),
        },
    ),
    "snapshot_access": EventSpec(
        ("op", "hit"),
        "one snapshot-store access: `op` is `load` | `save` | `resolve` (ancestor probe) "
        "| `evict` (LRU)",
        "repro.service.snapshots",
        optional={"corrupt": False, "atoms": 0, "seconds": 0.0, "chain_depth": 0,
                  "chain_broken": False, "bytes_saved": 0, "ancestor": False},
        metrics={
            "snapshot.loads": ("counter", "snapshot-store load attempts"),
            "snapshot.hits": ("counter", "loads returning a usable state"),
            "snapshot.corrupt": ("counter", "unreadable records discarded"),
            "snapshot.ancestor_probes": ("counter", "nearest-ancestor resolutions on misses"),
            "snapshot.ancestor_hits": ("counter", "resolutions that found a usable ancestor"),
            "snapshot.evicted": ("counter", "snapshots evicted by LRU bounds"),
            "snapshot.saves": ("counter", "snapshots written"),
            "snapshot.bytes_saved": ("counter", "bytes not written thanks to delta saves"),
            "snapshot.chain_broken": ("counter", "delta chains dropped as corrupt"),
            "snapshot.delta_chain_depth": ("gauge", "records in the chain last served/written"),
        },
    ),
    "treewidth_search": EventSpec(
        ("k", "verdict", "budget_consumed"),
        "one \"width ≤ k?\" decision; `verdict` is null when the state budget ran out",
        "repro.treewidth.exact",
        metrics={
            "tw.searches": ("counter", "\"width ≤ k?\" decisions"),
            "tw.budget_consumed": ("counter", "search states consumed"),
        },
    ),
    "robust_step": EventSpec(
        ("step", "renamed", "atoms", "stable_terms"),
        "the robust sequence advanced to `G_step`; `renamed` variables were rewritten by ρ_σ′",
        "repro.chase.aggregation",
        metrics={
            "robust.steps": ("counter", "robust-sequence steps built"),
            "robust.renamed": ("counter", "variables renamed by ρ_σ′"),
        },
    ),
    "span_open": EventSpec(
        ("name", "trace_id", "span_id"),
        "a request-lifecycle span opened; `attrs` are span-specific annotations",
        "repro.obs.spans",
        optional={"parent_span_id": None},
        open=True,
    ),
    "span_close": EventSpec(
        ("name", "trace_id", "span_id"),
        "the matching close; `status` is `ok` | `error` | `aborted`",
        "repro.obs.spans",
        optional={"parent_span_id": None, "status": "ok", "seconds": 0.0},
        metrics={"span.<name>": ("timer", "closed-span durations, per phase")},
        open=True,
    ),
}


class Observer:
    """No-op base observer: override :meth:`emit`.

    Implementations must not mutate the engine's state and should be
    fast — they run inline on hot paths.
    """

    __slots__ = ()

    def emit(self, kind: str, **fields) -> None:
        """One event of *kind* (a key of :data:`EVENTS`) with its
        payload *fields*."""


#: The process-global observer.  ``None`` means telemetry is off and the
#: instrumented paths skip all accounting after one identity check.
current: Optional[Observer] = None


def get_observer() -> Optional[Observer]:
    """The process-global observer, or None when telemetry is off."""
    return current


def set_observer(observer: Optional[Observer]) -> Optional[Observer]:
    """Install *observer* as the process-global observer.

    Returns the previous observer so callers can restore it; prefer the
    :func:`observing` context manager for scoped installation.
    """
    global current
    previous = current
    current = observer
    return previous


@contextmanager
def observing(observer: Optional[Observer]) -> Iterator[Optional[Observer]]:
    """Temporarily install *observer* as the process-global observer."""
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
