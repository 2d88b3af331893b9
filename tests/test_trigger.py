"""Tests for repro.chase.trigger."""

from repro.chase.trigger import Trigger, apply_trigger, triggers, unsatisfied_triggers
from repro.logic.parser import parse_atoms, parse_rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, FreshVariableSource, Variable

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


class TestEnumeration:
    def test_all_body_homomorphisms_found(self):
        rule = parse_rule("[R] e(X, Y) -> e(Y, Z)")
        instance = parse_atoms("e(a, b), e(b, a)")
        found = list(triggers(rule, instance))
        assert len(found) == 2

    def test_no_triggers_without_body_match(self):
        rule = parse_rule("[R] q(X) -> p(X)")
        assert list(triggers(rule, parse_atoms("p(a)"))) == []

    def test_trigger_mapping_restricted_to_body_variables(self):
        rule = parse_rule("[R] e(X, Y) -> e(Y, Z)")
        trigger = next(iter(triggers(rule, parse_atoms("e(a, b)"))))
        assert trigger.mapping.domain() == {X, Y}

    def test_enumeration_deterministic(self):
        rule = parse_rule("[R] e(X, Y) -> e(Y, Z)")
        instance = parse_atoms("e(a, b), e(b, a), e(a, a)")
        first = [t.mapping for t in triggers(rule, instance)]
        second = [t.mapping for t in triggers(rule, instance)]
        assert first == second


class TestSatisfaction:
    def test_satisfied_when_head_present(self):
        rule = parse_rule("[R] p(X) -> e(X, Y)")
        instance = parse_atoms("p(a), e(a, b)")
        trigger = next(iter(triggers(rule, instance)))
        assert trigger.is_satisfied_in(instance)

    def test_unsatisfied_without_head(self):
        rule = parse_rule("[R] p(X) -> e(X, Y)")
        instance = parse_atoms("p(a)")
        trigger = next(iter(triggers(rule, instance)))
        assert not trigger.is_satisfied_in(instance)

    def test_satisfaction_pins_frontier(self):
        rule = parse_rule("[R] p(X) -> e(X, Y)")
        # e exists, but from the wrong element: trigger on p(a) unsatisfied
        instance = parse_atoms("p(a), p(b), e(b, b)")
        by_image = {
            t.mapping.apply_term(X).name: t for t in triggers(rule, instance)
        }
        assert not by_image["a"].is_satisfied_in(instance)
        assert by_image["b"].is_satisfied_in(instance)

    def test_unsatisfied_triggers_filter(self):
        rule = parse_rule("[R] p(X) -> e(X, Y)")
        instance = parse_atoms("p(a), p(b), e(b, b)")
        pending = list(unsatisfied_triggers(rule, instance))
        assert len(pending) == 1
        assert pending[0].mapping.apply_term(X) == a

    def test_datalog_satisfaction_is_exact_head_check(self):
        rule = parse_rule("[R] p(X) -> q(X)")
        instance = parse_atoms("p(a), q(b)")
        trigger = next(iter(triggers(rule, instance)))
        assert not trigger.is_satisfied_in(instance)


class TestApplication:
    def test_apply_creates_fresh_nulls(self):
        rule = parse_rule("[R] p(X) -> e(X, Y), p(Y)")
        instance = parse_atoms("p(a)")
        before = instance.copy()
        trigger = next(iter(triggers(rule, instance)))
        pi_safe, delta = apply_trigger(instance, trigger, FreshVariableSource())
        assert len(instance) == 3
        assert len(delta) == 2
        fresh = pi_safe.apply_term(Y)
        assert fresh not in before.terms()
        assert fresh in instance.terms()

    def test_apply_mutates_input_and_reports_only_new_atoms(self):
        rule = parse_rule("[R] p(X) -> q(X), p(X)")
        instance = parse_atoms("p(a)")
        trigger = next(iter(triggers(rule, instance)))
        _, delta = apply_trigger(instance, trigger, FreshVariableSource())
        assert instance == parse_atoms("p(a), q(a)")
        assert delta == parse_atoms("q(a)").sorted_atoms()  # p(a) was there

    def test_apply_maps_frontier_correctly(self):
        rule = parse_rule("[R] e(X, Y) -> e(Y, Z)")
        instance = parse_atoms("e(a, b)")
        trigger = next(iter(triggers(rule, instance)))
        pi_safe, delta = apply_trigger(instance, trigger, FreshVariableSource())
        assert pi_safe.apply_term(Y) == b
        assert len(delta) == 1
        assert delta[0].args[0] == b

    def test_distinct_existentials_get_distinct_nulls(self):
        rule = parse_rule("[R] p(X) -> e(X, Y), e(X, Z)")
        instance = parse_atoms("p(a)")
        trigger = next(iter(triggers(rule, instance)))
        pi_safe, _ = apply_trigger(instance, trigger, FreshVariableSource())
        assert pi_safe.apply_term(Y) != pi_safe.apply_term(Z)


class TestIdentityNotions:
    def test_frontier_image_key(self):
        rule = parse_rule("[R] e(X, Y), e(Y, W) -> e(Y, Z)")
        instance = parse_atoms("e(a, b), e(b, a)")
        for trigger in triggers(rule, instance):
            key = trigger.frontier_image()
            assert len(key) == 1  # only Y is frontier
            assert key[0][0] == Y

    def test_full_image_distinguishes_nonfrontier(self):
        rule = parse_rule("[R] e(X, Y), e(Y, W) -> e(Y, Z)")
        instance = parse_atoms("e(a, b), e(b, a), e(b, b)")
        keys = {t.full_image() for t in triggers(rule, instance)}
        frontier_keys = {t.frontier_image() for t in triggers(rule, instance)}
        assert len(keys) > len(frontier_keys)

    def test_transport_composes_mapping(self):
        rule = parse_rule("[R] p(X) -> q(X)")
        trigger = Trigger(rule, Substitution({X: Y}))
        transported = trigger.transport(Substitution({Y: a}))
        assert transported.mapping.apply_term(X) == a

    def test_equality_and_hash(self):
        rule = parse_rule("[R] p(X) -> q(X)")
        t1 = Trigger(rule, Substitution({X: a}))
        t2 = Trigger(rule, Substitution({X: a}))
        assert t1 == t2
        assert hash(t1) == hash(t2)
