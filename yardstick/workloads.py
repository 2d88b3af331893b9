"""Seeded op streams for the three workloads, and their reference answers.

Every stream is a fixed multiset of ops per workload: the seed picks the
order, the per-op names (markers, fresh constants, variable names) and
the seeded ``random_kb`` rulesets, never how many ops of each cost class
run.  So the work in a run does not depend on the seed's luck or on the
machine's speed.  No request carries a ``timeout``.

References never come from the fast path: entail truths and chase
fixpoints are computed by the naive engine (``use_index=False``, index,
memo and compiled kernel scoped off), and the paper series are compared
with the committed result tables under ``benchmarks/results``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.chase.engine import ChaseEngine
from repro.chase.trigger import triggers
from repro.kbs import generators, witnesses
from repro.kbs.elevator import elevator_kb
from repro.kbs.staircase import staircase_kb
from repro.logic import indexing
from repro.logic.atoms import atom
from repro.logic.homomorphism import homomorphically_equivalent, maps_into
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import ParseError
from repro.logic.serialization import dump_kb, load_instance
from repro.logic.terms import Constant
from repro.query import boolean_cq
from repro.query.modelfinder import find_countermodel

WORKLOADS = ("cold-chase", "warm-serve", "paper-series")

#: Ops per second of ``--seconds`` on the reference machine (2-core VM,
#: Python 3.11).  The op count of a run is fixed from this and the
#: requested seconds, so a slower build runs the same ops for longer.
NOMINAL_OPS_PER_SECOND = {"cold-chase": 26, "warm-serve": 80, "paper-series": 13}

#: Chase config sent as an explicit per-request strategy where the
#: planner's routing would pick a budget that no op class can afford.
CORE_STRATEGY = {
    "name": "bench-core",
    "variant": "core",
    "core_every": 1,
    "max_steps": 80,
    "model_budget": 0,
}


#: The warm-serve K_v snapshot: a short core prefix, cheap to load.
KV_WARM_STRATEGY = {**CORE_STRATEGY, "max_steps": 30}


def v_path(length: int, tag: str = "X") -> str:
    return ", ".join(f"v({tag}{i},{tag}{i + 1})" for i in range(length))


@dataclass
class Op:
    """One request of a stream.

    ``cls`` is the op's cost class; ``obj`` the JSON request (service
    workloads) or pipeline descriptor (paper-series); ``ref`` names the
    reference the checker compares the reply with."""

    obj: dict
    ref: Optional[tuple]
    cls: str = ""
    line: str = field(default="", repr=False)


@dataclass
class Stream:
    workload: str
    ops: list
    warmup: list
    shares: dict
    setup_requests: list = field(default_factory=list)
    #: Base KBs (without per-op markers) the references are computed on.
    bases: dict = field(default_factory=dict)
    digest: str = ""


def _marked(kb: KnowledgeBase, marker: str) -> KnowledgeBase:
    """*kb* plus the inert fact ``opmark(<marker>)``.

    No rule mentions ``opmark``, so the fact changes no trigger, no
    retraction and no answer; but it makes every op's fact set, and so
    its snapshot key, facts manifest and every instance fingerprint the
    homomorphism memo keys on, unique to the op."""
    facts = kb.facts.copy()
    facts.add(atom("opmark", Constant(marker)))
    return KnowledgeBase(facts, kb.rules, name=kb.name)


def _grown_tc(base: KnowledgeBase, fresh: str) -> KnowledgeBase:
    facts = base.facts.copy()
    facts.add(atom("e", Constant("v8"), Constant(f"w{fresh}")))
    facts.add(atom("e", Constant(f"w{fresh}"), Constant(f"x{fresh}")))
    return KnowledgeBase(facts, base.rules, name=base.name)


def _alpha(query: str, tag: str) -> str:
    """*query* with every variable renamed apart by *tag* (same shape)."""
    out = []
    for token in query.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split():
        out.append(token + tag if token[:1].isupper() else token)
    return "".join(out).replace(",", ", ")


def _apportion(total: int, shares: dict) -> dict:
    counts = {name: int(total * share) for name, share in shares.items()}
    leftover = total - sum(counts.values())
    for name in sorted(shares, key=lambda n: -shares[n])[:leftover]:
        counts[name] += 1
    return counts


def _accepted_random_kbs(rng: random.Random, wanted: int) -> list:
    """Seeded ``random_kb`` draws whose naive restricted chase reaches
    its fixpoint in 6-16 applications: one narrow cost class, so the
    seed's draws barely move a run's total work."""
    found = []
    while len(found) < wanted:
        seed = rng.randrange(10**6)
        kb = generators.random_kb(rule_count=3, fact_count=6, seed=seed)
        with indexing.no_index():
            result = ChaseEngine(kb, use_index=False).run(16)
        if result.terminated and result.applications >= 6:
            found.append((seed, kb))
    return found


# ---------------------------------------------------------------------------
# stream builders
# ---------------------------------------------------------------------------


def _cold_chase(rng: random.Random, n: int, seed: int) -> Stream:
    shares = {
        "kh-restricted-entail": 0.15,
        "kh-core-entail": 0.15,
        "kv-core-entail": 0.15,
        "tc-entail": 0.15,
        "layered-chase": 0.15,
        "tc-chase": 0.10,
        "random-chase": 0.15,
    }
    # Six rulesets, all verdict-cached by the six warm-up rounds below:
    # the workload is new data against known rulesets.
    randoms = _accepted_random_kbs(rng, 6)
    kh, kv = staircase_kb(), elevator_kb()
    tc7, tc6 = witnesses.transitive_closure_kb(7), witnesses.transitive_closure_kb(6)
    layered = generators.layered_kb(4, 2)

    def make(cls: str, variant: int, marker: str) -> Op:
        if cls == "kh-restricted-entail":
            query = v_path(3)
            return _entail(_marked(kh, marker), query, None, ("entail", "kh", "restricted", 150, query))
        if cls == "kh-core-entail":
            query = v_path(3 + variant % 2)
            return _entail(_marked(kh, marker), query, CORE_STRATEGY, ("entail", "kh", "core", 80, query))
        if cls == "kv-core-entail":
            query = ("h(X,Y), h(Y,Z)", "f(X), h(Y,X), h(Z,Y)", "c(X), h(X,Y), h(Y,Z)")[variant % 3]
            return _entail(_marked(kv, marker), query, CORE_STRATEGY, ("entail", "kv", "core", 80, query))
        if cls == "tc-entail":
            query = ("e(v0, v7)", "e(v7, v0)")[variant % 2]
            return _entail(_marked(tc7, marker), query, None, ("entail", "tc7", "restricted", 1000, query))
        if cls == "layered-chase":
            return _chase(_marked(layered, marker), ("chase", "layered4x2", marker))
        if cls == "tc-chase":
            return _chase(_marked(tc6, marker), ("chase", "tc6", marker))
        seed_kb, kb = randoms[variant % len(randoms)]
        return _chase(_marked(kb, marker), ("chase", f"random{seed_kb}", marker))

    def marker(prefix: str, cls: str, i: int) -> str:
        return f"{prefix}{seed}{cls.replace('-', '')}{i}"

    ops = _build(rng, n, shares, lambda cls, i: make(cls, i, marker("m", cls, i)))
    warmup = [
        _classed(make(cls, i, marker("w", cls, i)), cls)
        for cls in shares
        for i in range(6)
    ]
    bases = {
        "kh": kh,
        "kv": kv,
        "tc7": tc7,
        "tc6": tc6,
        "layered4x2": layered,
        **{f"random{s}": kb for s, kb in randoms},
    }
    return Stream("cold-chase", ops, warmup, shares, bases=bases)


#: Query shapes on the linear layered KB: three entailed, three not.
LAYERED_QUERIES = (
    "l4(X)",
    "r0(X,Y), l1(Y)",
    "r1(X,Y), r0(Y,Z), l3(Z)",
    "l6(X)",
    "r0(X,X)",
    "r1(X,Y), l0(Y)",
)

#: Queries K_h does not entail, each refuted by a small finite model
#: (the model search makes these the slowest warm-serve ops, above the
#: ancestor band).
KH_REFUTED = ("c(X), f(X)",)

TC8_BATCH = ("e(v0, v8)", "e(v2, v5)", "e(v8, v0)", "e(v5, v5)")


def _warm_serve(rng: random.Random, n: int, seed: int) -> Stream:
    # Latency bands: rewrite ~2 ms < warm ~ batch ~9 ms < ancestor
    # ~25-35 ms <= countermodel.  The shares put p50 inside the rewrite
    # band and p90 inside the ancestor band, each several rank-percent
    # away from the band's edges.
    shares = {
        "rewrite-entail": 0.56,
        "warm-entail": 0.14,
        "batch-entail": 0.04,
        "ancestor-entail": 0.22,
        "countermodel-entail": 0.04,
    }
    tc8 = witnesses.transitive_closure_kb(8)
    layered = generators.layered_kb(4, 2)
    kv = elevator_kb()
    kh = staircase_kb()
    warm_queries = (
        ("tc8", tc8, "e(v0, v8)", None),
        ("tc8", tc8, "e(v3, v6)", None),
        ("kv", kv, "f(X), h(Y,X), h(Z,Y)", KV_WARM_STRATEGY),
        ("kv", kv, "h(X,Y), h(Y,Z)", KV_WARM_STRATEGY),
    )

    def make(cls: str, variant: int, tag: str) -> Op:
        if cls == "rewrite-entail":
            query = LAYERED_QUERIES[variant % len(LAYERED_QUERIES)]
            query_text = _alpha(query, tag)
            return _entail(layered, query_text, None, ("entail", "layered4x2", "restricted", 1000, query))
        if cls == "warm-entail":
            base, kb, query, strategy = warm_queries[variant % len(warm_queries)]
            budget = strategy["max_steps"] if strategy else 1000
            variant_name = "core" if strategy else "restricted"
            return _entail(kb, query, strategy, ("entail", base, variant_name, budget, query))
        if cls == "countermodel-entail":
            # Not entailed: the K_h snapshot from set-up has no hit and
            # no budget left, so the planner's model-finder budget
            # answers "no" with a finite countermodel.
            query = _alpha(KH_REFUTED[variant % len(KH_REFUTED)], tag)
            return _entail(kh, query, None, ("refuted", "kh", query))
        if cls == "batch-entail":
            obj = {"op": "batch_entail", "kb_text": dump_kb(tc8), "queries": list(TC8_BATCH)}
            return Op(obj, ("batch", "tc8", "restricted", 1000, TC8_BATCH))
        query = ("e(v0, w{t})", "e(w{t}, v0)")[variant % 2]
        op = _entail(
            _grown_tc(tc8, tag), query.format(t=tag), None,
            ("entail", "tc8-grown", "restricted", 1000, query.format(t="")),
        )
        return op

    ops = _build(rng, n, shares, lambda cls, i: make(cls, i, f"m{seed}n{i}"))
    warmup = [
        _classed(make(cls, i, f"w{seed}n{i}"), cls) for cls in shares for i in range(6)
    ]
    # Chased during setup: the snapshots the warm, batch and ancestor
    # classes resume from.
    setup = [
        _chase(tc8, None),
        _chase(kv, None, KV_WARM_STRATEGY),
        _chase(kh, None),
    ]
    bases = {
        "tc8": tc8,
        "kv": kv,
        "layered4x2": layered,
        "tc8-grown": _grown_tc(tc8, ""),
        "kh": kh,
    }
    return Stream("warm-serve", ops, warmup, shares, setup_requests=setup, bases=bases)


PAPER_SIZES = {"e3-staircase": (20, 25, 30), "e6-elevator": (15, 20, 25), "p12-aggregation": (20, 30)}


def _paper_series(rng: random.Random, n: int, seed: int) -> Stream:
    shares = {"e3-staircase": 0.40, "e6-elevator": 0.35, "p12-aggregation": 0.25}

    def make(cls: str, variant: int, tag: str) -> Op:
        sizes = PAPER_SIZES[cls]
        size = sizes[variant % len(sizes)]
        return Op({"pipeline": cls, "size": size}, ("paper", cls, size))

    ops = _build(rng, n, shares, lambda cls, i: make(cls, i, ""))
    warmup = [_classed(make(cls, i, ""), cls) for cls in shares for i in range(2)]
    return Stream("paper-series", ops, warmup, shares)


def _build(rng: random.Random, n: int, shares: dict, make) -> list:
    counts = _apportion(n, shares)
    plan = [(cls, i) for cls, count in counts.items() for i in range(count)]
    rng.shuffle(plan)
    return [_classed(make(cls, i), cls) for cls, i in plan]


def _classed(op: Op, cls: str) -> Op:
    op.cls = cls
    return op


def _entail(kb, query: str, strategy: Optional[dict], ref: tuple) -> Op:
    obj = {"op": "entail", "kb_text": dump_kb(kb), "query": query}
    if strategy is not None:
        obj["strategy"] = strategy
    return Op(obj, ref)


def _chase(kb, ref: Optional[tuple], strategy: Optional[dict] = None) -> Op:
    obj = {"op": "chase", "kb_text": dump_kb(kb)}
    if strategy is not None:
        obj["strategy"] = strategy
    return Op(obj, ref)


def build_stream(workload: str, seed: int, n_ops: int) -> Stream:
    """The op stream of *workload* for *seed*: same seed, same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    builder = {"cold-chase": _cold_chase, "warm-serve": _warm_serve, "paper-series": _paper_series}
    stream = builder[workload](rng, n_ops, seed)
    for op in stream.ops + stream.warmup + stream.setup_requests:
        op.line = json.dumps(op.obj, sort_keys=True)
    stream.digest = hashlib.sha256(
        "\n".join(op.line for op in stream.ops).encode()
    ).hexdigest()
    return stream


# ---------------------------------------------------------------------------
# references (naive engine) and the reply checker
# ---------------------------------------------------------------------------


class References:
    """Memoized naive-engine answers for the bases of one stream.

    A reference is computed on the op's base KB without the per-op
    marker or fresh names: the marker fact is inert and the fresh
    constants are a consistent renaming, so neither changes an entail
    truth, and a chase fixpoint changes only by the marker fact itself.
    """

    def __init__(self, bases: dict):
        self.bases = bases
        self._truths: dict = {}
        self._fixpoints: dict = {}

    def truth(self, base: str, variant: str, budget: int, query: str) -> Optional[bool]:
        key = (base, variant, budget, query)
        if key not in self._truths:
            cq = boolean_cq(query)
            hit = [False]

            def on_step(step) -> None:
                if not hit[0] and cq.holds_in(step.instance):
                    hit[0] = True

            with indexing.no_index():
                engine = ChaseEngine(self.bases[base], variant=variant, use_index=False)
                result = engine.run(budget, on_step=on_step, should_stop=lambda: hit[0])
            if hit[0]:
                self._truths[key] = True
            else:
                self._truths[key] = False if result.terminated else None
        return self._truths[key]

    def refuted(self, base: str, query: str) -> bool:
        """Whether a finite model of *base* avoiding *query* exists and
        checks out: the facts map into it, every rule trigger in it is
        satisfied, and the query does not map into it (naive checks;
        the model finder only proposes the candidate)."""
        key = ("refuted", base, query)
        if key not in self._truths:
            kb = self.bases[base]
            cq = boolean_cq(query)
            model = find_countermodel(kb, cq, max_domain=6).model
            with indexing.no_index():
                self._truths[key] = (
                    model is not None
                    and maps_into(kb.facts, model)
                    and all(
                        trigger.is_satisfied_in(model)
                        for rule in kb.rules
                        for trigger in triggers(rule, model)
                    )
                    and not cq.holds_in(model)
                )
        return self._truths[key]

    def fixpoint(self, base: str):
        if base not in self._fixpoints:
            with indexing.no_index():
                result = ChaseEngine(self.bases[base], use_index=False).run(1000)
            if not result.terminated:
                raise RuntimeError(f"reference chase of {base} did not terminate")
            self._fixpoints[base] = result.final_instance
        return self._fixpoints[base]


def check_reply(op: Op, reply: Optional[dict], refs: References) -> Optional[str]:
    """None when *reply* is the right answer to *op*; else the reason."""
    if reply is None:
        return "missing reply"
    if not reply.get("ok"):
        return f"error reply: {reply.get('error')}"
    if reply.get("incomplete"):
        return "incomplete answer"
    kind = op.ref[0]
    if kind == "entail":
        _, base, variant, budget, query = op.ref
        truth = refs.truth(base, variant, budget, query)
        if truth is None:
            return "reference undecided"
        if reply.get("entailed") is not truth:
            return f"entailed={reply.get('entailed')} expected {truth}"
        return None
    if kind == "refuted":
        _, base, query = op.ref
        if not refs.refuted(base, query):
            return "no verified countermodel for the reference"
        if reply.get("entailed") is not False:
            return f"entailed={reply.get('entailed')} expected False"
        return None
    if kind == "batch":
        _, base, variant, budget, queries = op.ref
        rows = reply.get("results") or []
        if len(rows) != len(queries):
            return "batch reply has the wrong number of rows"
        for query, row in zip(queries, rows):
            truth = refs.truth(base, variant, budget, query)
            if row.get("query") != query or row.get("entailed") is not truth:
                return f"batch row {query!r}: entailed={row.get('entailed')} expected {truth}"
        return None
    if kind == "chase":
        _, base, marker = op.ref
        if not reply.get("terminated"):
            return "chase of a terminating KB did not terminate"
        try:
            got = load_instance("\n".join(reply.get("instance") or []))
        except ParseError as exc:
            return f"unparsable chase instance: {exc}"
        expected = refs.fixpoint(base).copy()
        expected.add(atom("opmark", Constant(marker)))
        if {str(a) for a in got} == {str(a) for a in expected}:
            return None
        with indexing.no_index():
            if homomorphically_equivalent(got, expected):
                return None
        return "chase result not homomorphically equivalent to the naive fixpoint"
    raise ValueError(f"unknown reference kind {kind!r}")
