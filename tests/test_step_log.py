"""Differential tests for the step log: deltas + one live instance.

The engine mutates one instance in place and records each step as the
atoms its application added and the atoms its simplification removed;
``F_i`` and ``A_i`` are rebuilt from those deltas when read.  These
tests pin the record to the instances the run actually passed through
(copied inside ``on_step``, the one moment the live instance is
``F_i``), for every variant, on the paper's KBs, a layered KB and
random KBs:

* the record is a derivation (``Derivation.validate``);
* reading instances forward, backward or shuffled gives the same sets;
* ``run(a); resume(b)`` records the same derivation as ``run(a + b)``;
* a checkpoint restored into a new engine continues it exactly;
* an instance read from a result never changes when the engine resumes;
* dropping a result and its engine frees the record without the cyclic
  garbage collector.
"""

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.engine import ChaseEngine, ChaseVariant
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import layered_kb, random_kb
from repro.kbs.staircase import staircase_kb

#: (variant, core cadence) pairs: every variant plus a sparse core chase.
CONFIGS = [(variant, 1) for variant in ChaseVariant.ALL] + [
    (ChaseVariant.CORE, 3)
]

#: name -> (KB factory, steps for run(a), steps for resume(b)).
KBS = {
    "staircase": (staircase_kb, 9, 6),
    "elevator": (elevator_kb, 5, 3),
    "layered": (lambda: layered_kb(3, 2), 6, 6),
}

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _engine(kb, variant, core_every):
    return ChaseEngine(kb, variant=variant, core_every=core_every)


def _recorded_run(kb, variant, core_every, steps):
    """A run plus the (A_i, F_i) it passed through, copied live."""
    seen = []

    def on_step(step):
        seen.append((step.pre_instance.copy(), step.instance.copy()))

    result = _engine(kb, variant, core_every).run(steps, on_step=on_step)
    return result, seen


def _shape(step):
    rule = step.trigger.rule.name if step.trigger is not None else None
    return (
        step.index,
        rule,
        step.trigger,
        dict(step.simplification.drop_trivial().items()),
        step.added,
        step.removed,
    )


def check_step_log(kb, variant, core_every, first, second):
    """Every property of the module docstring, for one KB and config."""
    total = first + second
    straight, seen = _recorded_run(kb, variant, core_every, total)
    derivation = straight.derivation
    assert len(seen) == len(derivation)

    # The record is a derivation (the oblivious variants apply
    # satisfied triggers on purpose).
    derivation.validate(
        require_active=variant
        not in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS)
    )
    for step in derivation.steps[1:]:
        assert set(step.removed) <= set(step.pre_instance)
        assert step.atoms_retracted() == len(step.removed)

    # Any read order rebuilds the instances the run passed through.
    count = len(seen)
    orders = {
        "forward": list(range(count)),
        "reverse": list(reversed(range(count))),
        "shuffled": random.Random(count).sample(range(count), count),
    }
    for name, order in orders.items():
        fresh, _ = _recorded_run(kb, variant, core_every, total)
        for index in order:
            pre, instance = seen[index]
            assert fresh.derivation.instance(index) == instance, (name, index)
            assert fresh.derivation.steps[index].pre_instance == pre, (
                name,
                index,
            )
    natural = set()
    for _, instance in seen:
        natural |= set(instance)
    assert derivation.natural_aggregation() == natural
    assert derivation.is_monotonic() == all(
        set(seen[i - 1][1]) <= set(seen[i][1]) for i in range(1, count)
    )

    # run(a); resume(b) records the same derivation as run(a + b), and
    # an instance read before resume() never changes.
    engine = _engine(kb, variant, core_every)
    early = engine.run(first)
    early_final = early.final_instance
    early_copy = early_final.copy()
    resumed = engine.resume(second)
    assert early_final == early_copy
    assert early.final_instance == early_copy
    assert len(resumed.derivation) == len(derivation)
    for mine, theirs, (pre, instance) in zip(
        resumed.derivation, derivation, seen
    ):
        assert _shape(mine) == _shape(theirs)
        assert mine.instance == instance
        assert mine.pre_instance == pre
    for index in range(len(early.derivation)):
        assert early.derivation.instance(index) == seen[index][1]

    # A checkpoint restored into a new engine continues the derivation.
    engine = _engine(kb, variant, core_every)
    engine.run(first)
    restored = _engine(kb, variant, core_every)
    restored.restore_state(engine.export_state())
    tail = restored.resume(second)
    offset = len(seen) - len(tail.derivation)
    assert offset >= 0
    for step in tail.derivation:
        assert step.instance == seen[offset + step.index][1]
        if step.index:
            assert step.added == derivation.steps[offset + step.index].added
    assert tail.final_instance == straight.final_instance
    assert tail.terminated == straight.terminated


@pytest.mark.parametrize("variant,core_every", CONFIGS)
@pytest.mark.parametrize("kb_name", sorted(KBS))
def test_step_log_on_fixed_kbs(kb_name, variant, core_every):
    factory, first, second = KBS[kb_name]
    check_step_log(factory(), variant, core_every, first, second)


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rule_count=st.integers(min_value=1, max_value=4),
    fact_count=st.integers(min_value=2, max_value=8),
    config=st.sampled_from(CONFIGS),
    first=st.integers(min_value=0, max_value=6),
    second=st.integers(min_value=0, max_value=6),
)
def test_step_log_on_random_kbs(
    seed, rule_count, fact_count, config, first, second
):
    kb = random_kb(rule_count=rule_count, fact_count=fact_count, seed=seed)
    variant, core_every = config
    check_step_log(kb, variant, core_every, first, second)


def test_on_step_sees_the_live_instance_only_during_the_callback():
    """The callback's instance is the live one; results read later get
    stable instances, one per step."""
    live = []
    result = ChaseEngine(staircase_kb(), variant=ChaseVariant.CORE).run(
        6, on_step=lambda step: live.append(step.instance)
    )
    assert all(instance is live[0] for instance in live)
    instances = list(result.derivation.instances())
    assert len({id(instance) for instance in instances}) == len(instances)


def test_dropping_result_and_engine_frees_the_record():
    """The record must not hold reference cycles: with the cyclic
    collector off, deleting the result and the engine frees the
    derivation and the live instance at once."""
    gc.collect()
    gc.disable()
    try:
        engine = ChaseEngine(staircase_kb(), variant=ChaseVariant.CORE)
        result = engine.run(30)
        assert result.applications == 30
        derivation = weakref.ref(result.derivation)
        live = weakref.ref(engine.current_instance)
        del result, engine
        assert derivation() is None
        assert live() is None
    finally:
        gc.enable()
