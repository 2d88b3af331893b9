"""Unit tests for the incremental trigger index and the homomorphism
memo — in particular their behaviour under core retraction."""

import pytest

from repro.chase.engine import ChaseEngine, ChaseVariant
from repro.chase.trigger import Trigger, apply_trigger, triggers, triggers_from_delta
from repro.chase.trigger_index import TriggerIndex
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import random_kb, star_instance
from repro.kbs.staircase import staircase_kb
from repro.logic.cores import core_retraction
from repro.logic.homcache import HomomorphismCache, get_cache, set_cache
from repro.logic.homomorphism import find_homomorphism
from repro.logic.parser import parse_atoms, parse_rules
from repro.logic.substitution import Substitution
from repro.logic.terms import FreshVariableSource


def rescan(rules, instance):
    """The naive trigger pool the index must always agree with."""
    return {
        TriggerIndex.key(trigger)
        for rule in rules
        for trigger in triggers(rule, instance)
    }


def rescan_satisfied(rules, instance):
    return {
        TriggerIndex.key(trigger)
        for rule in rules
        for trigger in triggers(rule, instance)
        if trigger.is_satisfied_in(instance)
    }


class TestTriggersFromDelta:
    def test_finds_exactly_the_delta_touching_triggers(self):
        rules = parse_rules("[R] e(X, Y), e(Y, Z) -> e(X, Z)")
        rule = rules[0]
        instance = parse_atoms("e(a, b), e(b, c)").copy()
        old = {tr.mapping for tr in triggers(rule, instance)}
        delta = list(parse_atoms("e(c, d)"))
        for at in delta:
            instance.add(at)
        from_delta = {tr.mapping for tr in triggers_from_delta(rule, instance, delta)}
        rescanned = {tr.mapping for tr in triggers(rule, instance)}
        assert old | from_delta == rescanned
        assert all(mapping not in old for mapping in from_delta)

    def test_repeated_variable_unification_respects_equality(self):
        rules = parse_rules("[R] e(X, X) -> p(X, X)")
        rule = rules[0]
        instance = parse_atoms("e(a, b)").copy()
        delta = list(parse_atoms("e(c, c)"))
        for at in delta:
            instance.add(at)
        found = list(triggers_from_delta(rule, instance, delta))
        assert len(found) == 1
        ((_, image),) = list(found[0].mapping.items())
        assert image.name == "c"


class TestTriggerIndexMaintenance:
    def step_and_check(self, kb, variant, max_steps=8):
        """Drive the index through an actual engine run, rescanning the
        pool from scratch after every recorded step."""
        engine = ChaseEngine(kb, variant=variant)
        mismatches = []

        def on_step(step):
            index = getattr(engine, "_index", None)
            if index is None or step.index == 0:
                return
            expected = rescan(kb.rules, step.instance)
            if set(index._live.keys()) != expected:
                mismatches.append((step.index, "live"))
            if index.track_satisfaction:
                if index._satisfied != rescan_satisfied(kb.rules, step.instance):
                    mismatches.append((step.index, "satisfied"))

        engine.run(max_steps=max_steps, on_step=on_step)
        assert mismatches == []

    @pytest.mark.parametrize(
        "variant",
        [
            ChaseVariant.OBLIVIOUS,
            ChaseVariant.SEMI_OBLIVIOUS,
            ChaseVariant.RESTRICTED,
            ChaseVariant.FRUGAL,
            ChaseVariant.CORE,
        ],
    )
    def test_pool_tracks_rescan_on_random_kbs(self, variant):
        for seed in range(6):
            kb = random_kb(rule_count=3, fact_count=5, term_pool=3, seed=seed)
            self.step_and_check(kb, variant)

    def test_pool_tracks_rescan_on_elevator_core(self):
        self.step_and_check(elevator_kb(), ChaseVariant.CORE, max_steps=10)

    def test_transport_collapse_adopts_the_counterpart_satisfaction(self):
        """Folding an unsatisfied trigger's frontier onto better-served
        terms collapses it onto its (satisfied) counterpart; the
        transported pool must mark it satisfied, exactly as a from-
        scratch recomputation would."""
        rules = parse_rules("[R] p(X) -> q(X, Y)")
        rule = rules[0]
        instance = parse_atoms("p(N1), p(b), q(b, c)").copy()
        index = TriggerIndex([rule], instance, track_satisfaction=True)
        assert len(index) == 2
        assert len(index.unsatisfied_triggers()) == 1  # the N1 trigger
        n1 = next(iter(parse_atoms("p(N1)").variables()))
        b = next(iter(parse_atoms("p(b)").constants()))
        sigma = Substitution({n1: b})
        retracted = sigma.apply(instance)
        stats = index.transport(sigma)
        assert stats["transported"] == 2
        assert stats["collapsed"] == 1
        assert set(index._live.keys()) == rescan([rule], retracted)
        assert index._satisfied == rescan_satisfied([rule], retracted)
        assert index.unsatisfied_triggers() == []

    def test_apply_delta_matches_manual_application(self):
        kb = random_kb(rule_count=2, fact_count=4, seed=2)
        instance = kb.facts.copy()
        index = TriggerIndex(kb.rules, instance)
        fresh = FreshVariableSource(prefix="_t")
        pool = index.live_triggers()
        assert pool, "seed 2 is known to produce initial triggers"
        chosen = sorted(pool, key=Trigger.sort_key)[0]
        before = instance.copy()
        pi_safe, delta = apply_trigger(instance, chosen, fresh)
        expected = []
        for head_atom in chosen.rule.head.sorted_atoms():
            at = pi_safe.apply_atom(head_atom)
            if at not in before and at not in expected:
                expected.append(at)
        assert delta == expected  # the new atoms, in head order
        assert instance == before.union(delta)  # applied in place
        stats = index.apply_delta(instance, delta, satisfied_hint=chosen)
        assert stats["delta_atoms"] == len(delta)
        assert set(index._live.keys()) == rescan(kb.rules, instance)
        assert index._satisfied == rescan_satisfied(kb.rules, instance)


class TestHomomorphismCache:
    def setup_method(self):
        self._previous = set_cache(HomomorphismCache(max_entries=8))

    def teardown_method(self):
        set_cache(self._previous)

    def test_memo_hit_on_repeated_search(self):
        cache = get_cache()
        source = parse_atoms("e(X, Y)")
        target = parse_atoms("e(a, b)")
        first = find_homomorphism(source, target)
        assert first is not None
        assert cache.misses >= 1
        hits_before = cache.hits
        second = find_homomorphism(source, target)
        assert second == first
        assert cache.hits == hits_before + 1

    def test_negative_results_are_cached_too(self):
        cache = get_cache()
        source = parse_atoms("e(X, X)")
        target = parse_atoms("e(a, b)")
        assert find_homomorphism(source, target) is None
        hits_before = cache.hits
        assert find_homomorphism(source, target) is None
        assert cache.hits == hits_before + 1

    def test_mutation_changes_fingerprint_and_misses(self):
        cache = get_cache()
        source = parse_atoms("e(X, X)")
        target = parse_atoms("e(a, b)").copy()
        assert find_homomorphism(source, target) is None
        for at in parse_atoms("e(c, c)"):
            target.add(at)
        assert find_homomorphism(source, target) is not None
        assert cache.hits == 0  # the grown target is a different key

    def test_invalidate_drops_entries_of_a_fingerprint(self):
        cache = get_cache()
        source = parse_atoms("e(X, Y)")
        target = parse_atoms("e(a, b)")
        find_homomorphism(source, target)
        assert len(cache) == 1
        dropped = cache.invalidate(target.fingerprint())
        assert dropped == 1
        assert len(cache) == 0
        assert cache.invalidations == 1
        hit, _ = cache.lookup(
            (source.fingerprint(), target.fingerprint(), None, frozenset(), False)
        )
        assert not hit

    def test_eviction_keeps_the_cache_bounded(self):
        cache = get_cache()
        for i in range(40):
            find_homomorphism(
                parse_atoms(f"p(c{i})"), parse_atoms(f"p(c{i}), p(d{i})")
            )
        assert len(cache) <= cache.max_entries

    def test_core_retraction_invalidates_intermediate_retracts(self, monkeypatch):
        """core_retraction invalidates the memo entries of every
        *intermediate* retract it folds through, keeping the caller's
        input cached (it is still live).  A sequential one-null-per-step
        folder is injected, since the real search usually folds
        everything in a single endomorphism."""
        import repro.logic.cores as cores_module

        class RecordingCache(HomomorphismCache):
            invalidated: list

            def __init__(self):
                super().__init__()
                self.invalidated = []

            def invalidate(self, fingerprint):
                self.invalidated.append(fingerprint)
                return super().invalidate(fingerprint)

        cache = RecordingCache()
        set_cache(cache)

        def single_fold(source, target, **kwargs):
            nulls = sorted(source.variables(), key=lambda v: v.name)
            if len(nulls) <= 1:
                return None
            return Substitution({nulls[0]: nulls[1]})

        monkeypatch.setattr(cores_module, "find_homomorphism", single_fold)
        star = star_instance(3)  # e(hub, R0..R2): folds R0->R1, R1->R2
        intermediate = parse_atoms("e(hub, R1), e(hub, R2)")
        core_retraction(star)
        assert cache.invalidated == [intermediate.fingerprint()]
        assert star.fingerprint() not in cache.invalidated

    def test_indexed_core_chase_invalidates_retracted_pre_instances(self):
        cache = get_cache()
        result = ChaseEngine(staircase_kb(), variant=ChaseVariant.CORE).run(
            max_steps=12
        )
        retracting = [
            step
            for step in result.derivation.steps
            if step.trigger is not None and not step.is_identity_step()
        ]
        assert retracting, "workload must retract for this test to bite"
        for step in retracting:
            assert step.pre_instance.fingerprint() not in cache._by_fingerprint
