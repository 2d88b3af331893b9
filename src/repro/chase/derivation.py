"""Derivations (Definition 1) and their bookkeeping.

A derivation from ``K = (F, Σ)`` is a sequence ``((tr_i, σ_i, F_i))_i``
where ``F_0 = σ_0(F)`` and ``F_i = σ_i(α(F_{i-1}, tr_i))`` with ``tr_i`` a
trigger for ``F_{i-1}`` not satisfied in ``F_{i-1}``, and the
simplifications ``σ_i`` are retractions.

:class:`Derivation` exposes, for every step, the trigger, the
pre-simplification instance ``A_i = α(F_{i-1}, tr_i)``, the
simplification, and the instance ``F_i`` — everything downstream
machinery needs:

* the trace homomorphisms ``σ̄_i^j = σ_j ∘ ... ∘ σ_{i+1}`` (Definition 2)
  for transporting triggers and checking fairness (Definition 3);
* the natural aggregation ``D* = ⋃_i F_i`` (Section 3);
* the robust sequence/aggregation of Section 8 (built on top of this
  record in :mod:`repro.chase.aggregation`).

Steps recorded by the chase engine do not hold instances.  The engine
mutates one live instance in place and files each step as a delta —
the atoms ``added`` by the application (those absent from ``F_{i-1}``)
and the atoms ``removed`` by ``σ_i`` — in a :class:`StepLog`.  Since
``A_i = F_{i-1} ⊎ added_i = F_i ⊎ removed_i``, any ``F_i`` is rebuilt by
replaying deltas forward from an earlier materialized instance or
backward from a later one (the live instance is always one), and the
log memoizes what it rebuilds.  A run that never reads past instances
pays for none of them.  Steps built explicitly from instances (tests,
one-step derivations) keep the instances they were given.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..logic.atoms import Atom
from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from ..logic.substitution import Substitution
from .trigger import Trigger, triggers

__all__ = ["DerivationStep", "Derivation", "StepLog"]


class StepLog:
    """The deltas of one chase run and the live instance they end in.

    Entry ``i`` holds ``(added_i, removed_i)``; entry 0 has no additions
    and holds what ``σ_0`` removed from the facts.  ``live`` is ``F_k``
    for the last entry ``k``; the engine mutates it in place as the run
    advances.  Reading ``F_k`` hands the live object out and sets
    ``handed_out`` (reads inside an ``on_step`` callback, run through
    :meth:`lend`, do not count), and the engine calls :meth:`freeze`
    before its next step, so an instance once handed out never changes.

    The log never refers to the steps that point at it: dropping the
    last result and engine of a run frees the whole record by reference
    counting alone.
    """

    __slots__ = ("added", "removed", "live", "handed_out", "_materialized")

    def __init__(self, live: AtomSet, removed: Sequence[Atom] = ()):
        self.added: list[tuple[Atom, ...]] = [()]
        self.removed: list[tuple[Atom, ...]] = [tuple(removed)]
        self.live = live
        self.handed_out = False
        #: index -> F_index, rebuilt on a read (or frozen) and kept.
        self._materialized: dict[int, AtomSet] = {}

    @property
    def live_index(self) -> int:
        return len(self.added) - 1

    def append(self, added: Sequence[Atom], removed: Sequence[Atom]) -> None:
        """Record the step the engine just performed on the live
        instance."""
        self.added.append(tuple(added))
        self.removed.append(tuple(removed))

    def lend(self, on_step, step: "DerivationStep") -> None:
        """Call ``on_step(step)``; a live instance it reads is lent for
        the call only and does not count as handed out."""
        on_step(step)
        self.handed_out = False

    def freeze(self) -> AtomSet:
        """The live instance the engine may mutate next.  If ``F_k`` was
        handed out, it is filed as materialized and the engine goes on
        with a copy."""
        if self.handed_out:
            self._materialized[self.live_index] = self.live
            self.live = self.live.copy()
            self.handed_out = False
        return self.live

    def instance(self, index: int) -> AtomSet:
        """``F_index`` (the live instance itself for the last entry), for
        read-only use."""
        if index == self.live_index:
            self.handed_out = True
        return self._get(index)

    def pre_instance(self, index: int) -> AtomSet:
        """``A_index = F_index ⊎ removed_index`` — ``F_index`` itself when
        the simplification removed nothing, else a fresh atomset."""
        removed = self.removed[index]
        if not removed:
            return self.instance(index)
        pre = self._get(index).copy()
        pre.update(removed)
        return pre

    def _get(self, index: int) -> AtomSet:
        if index == self.live_index:
            return self.live
        found = self._materialized.get(index)
        if found is None:
            found = self._materialized[index] = self._replay(index)
        return found

    def _replay(self, index: int) -> AtomSet:
        """Rebuild ``F_index`` from the nearest materialized predecessor
        (forward: add, then remove) or, failing one, from the nearest
        later instance (backward: re-add the removed, drop the added)."""
        below = [j for j in self._materialized if j < index]
        if below:
            start = max(below)
            result = self._materialized[start].copy()
            for step in range(start + 1, index + 1):
                result.update(self.added[step])
                for at in self.removed[step]:
                    result.discard(at)
            return result
        above = [j for j in self._materialized if j > index]
        start = min(above) if above else self.live_index
        source = self._materialized[start] if above else self.live
        result = source.copy()
        for step in range(start, index, -1):
            result.update(self.removed[step])
            for at in self.added[step]:
                result.discard(at)
        return result


class DerivationStep:
    """One element of a derivation.

    Attributes
    ----------
    index:
        Step number ``i`` (0 is the initial simplification of the facts).
    trigger:
        The trigger ``tr_i`` applied to ``F_{i-1}`` (None at index 0).
    pre_instance:
        ``A_i = α(F_{i-1}, tr_i)`` — the instance before simplification
        (equals the raw fact set at index 0).
    simplification:
        The retraction ``σ_i`` with ``F_i = σ_i(A_i)``.
    instance:
        ``F_i``.
    added, removed:
        For engine-recorded steps, the atoms the application added
        (absent from ``F_{i-1}``, in head order) and the atoms ``σ_i``
        removed (sorted); None for steps built from instances.

    ``instance`` and ``pre_instance`` of an engine-recorded step are
    resolved through the run's :class:`StepLog`.  Inside an ``on_step``
    callback the current step's ``instance`` is the engine's live
    instance, valid only until the callback returns.
    """

    __slots__ = (
        "index",
        "trigger",
        "simplification",
        "added",
        "removed",
        "_pre_instance",
        "_instance",
        "_log",
    )

    def __init__(
        self,
        index: int,
        trigger: Optional[Trigger],
        pre_instance: AtomSet,
        simplification: Substitution,
        instance: AtomSet,
    ):
        for name, value in (
            ("index", index),
            ("trigger", trigger),
            ("simplification", simplification),
            ("added", None),
            ("removed", None),
            ("_pre_instance", pre_instance),
            ("_instance", instance),
            ("_log", None),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def logged(
        cls,
        log: StepLog,
        index: int,
        trigger: Optional[Trigger],
        simplification: Substitution,
    ) -> "DerivationStep":
        """The step filed as entry *index* of *log*."""
        step = cls(index, trigger, None, simplification, None)
        for name, value in (
            ("added", log.added[index]),
            ("removed", log.removed[index]),
            ("_log", log),
        ):
            object.__setattr__(step, name, value)
        return step

    def __setattr__(self, key, value):
        raise AttributeError("DerivationStep is immutable")

    @property
    def instance(self) -> AtomSet:
        if self._log is None:
            return self._instance
        return self._log.instance(self.index)

    @property
    def pre_instance(self) -> AtomSet:
        if self._log is None:
            return self._pre_instance
        return self._log.pre_instance(self.index)

    def is_identity_step(self) -> bool:
        """True iff the simplification did nothing."""
        return len(self.simplification.drop_trivial()) == 0

    def new_atoms(self) -> list[Atom]:
        """``F_i \\ F_{i-1}`` for an engine-recorded step ``i ≥ 1``: the
        added atoms the simplification kept (``F_i ⊆ F_{i-1} ⊎ added_i``),
        read off the log without touching an instance."""
        if self.added is None:
            raise ValueError("only engine-recorded steps carry deltas")
        if not self.removed:
            return list(self.added)
        removed = set(self.removed)
        return [at for at in self.added if at not in removed]

    def atoms_retracted(self) -> int:
        """``|A_i| - |F_i|``: how many atoms the simplification removed."""
        if self.removed is not None:
            return len(self.removed)
        return len(self.pre_instance) - len(self.instance)

    def __repr__(self) -> str:
        rule = self.trigger.rule.name if self.trigger is not None else None
        return f"DerivationStep({self.index}, {rule})"


class Derivation:
    """The recorded derivation; validation is optional but thorough."""

    def __init__(self, kb: KnowledgeBase, steps: Sequence[DerivationStep]):
        self.kb = kb
        self.steps: list[DerivationStep] = list(steps)
        if not self.steps:
            raise ValueError("a derivation has at least the initial step")
        if self.steps[0].index != 0 or self.steps[0].trigger is not None:
            raise ValueError("step 0 must be the initial simplification")
        for position, step in enumerate(self.steps):
            if step.index != position:
                raise ValueError("step indexes must be consecutive from 0")

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[DerivationStep]:
        return iter(self.steps)

    def instance(self, index: int) -> AtomSet:
        """``F_index``."""
        return self.steps[index].instance

    @property
    def last_instance(self) -> AtomSet:
        """``F_k`` for the last recorded step — the result ``D+`` of a
        finite derivation."""
        return self.steps[-1].instance

    def instances(self) -> Iterator[AtomSet]:
        """Iterate over ``F_0, F_1, ...``."""
        for step in self.steps:
            yield step.instance

    def is_monotonic(self) -> bool:
        """True iff ``F_{i-1} ⊆ F_i`` for all recorded ``i``.

        A logged step is monotone iff ``removed ⊆ added`` (the removed
        atoms lie in ``A_i = F_{i-1} ⊎ added``), so no instance is
        rebuilt for engine-recorded derivations."""
        for i in range(1, len(self.steps)):
            step = self.steps[i]
            if step.removed is not None:
                if step.removed and not set(step.removed) <= set(step.added):
                    return False
            elif not self.steps[i - 1].instance.issubset(step.instance):
                return False
        return True

    # ------------------------------------------------------------------
    # trace homomorphisms (Definition 2)
    # ------------------------------------------------------------------

    def trace(self, start: int, end: int) -> Substitution:
        """``σ̄_start^end = σ_end ∘ ... ∘ σ_{start+1}`` — the homomorphism
        from ``F_start`` to ``F_end`` (identity when start == end)."""
        if not 0 <= start <= end < len(self.steps):
            raise IndexError(f"trace({start}, {end}) out of range")
        composed = Substitution.identity()
        for index in range(start + 1, end + 1):
            composed = self.steps[index].simplification.compose(composed)
        return composed

    def transport_trigger(self, trigger: Trigger, start: int, end: int) -> Trigger:
        """``σ̄_start^end(tr)`` — the trigger carried from ``F_start`` to
        ``F_end``."""
        return trigger.transport(self.trace(start, end))

    # ------------------------------------------------------------------
    # aggregation & fairness
    # ------------------------------------------------------------------

    def natural_aggregation(self, upto: Optional[int] = None) -> AtomSet:
        """``D* = ⋃_i F_i`` over the recorded prefix (Section 3).

        For monotonic derivations this equals the last instance; in
        general it may fail to be a model of the KB (the staircase makes
        this dramatic) but is always universal (Proposition 1)."""
        limit = len(self.steps) if upto is None else upto + 1
        result = AtomSet(self.steps[0].instance)
        for step in self.steps[1:limit]:
            result.update(
                step.instance if step.added is None else step.new_atoms()
            )
        return result

    def check_fairness_prefix(self, upto: Optional[int] = None) -> list[Trigger]:
        """Check Definition 3 on the recorded prefix.

        Returns the triggers of intermediate instances whose transport is
        *never* satisfied within the prefix — an empty list means the
        prefix is consistent with fairness (for terminating chases on the
        full record this is an exact fairness check, because a trigger
        unsatisfied at the fixpoint stays unsatisfied forever).
        """
        limit = len(self.steps) if upto is None else upto + 1
        offenders: list[Trigger] = []
        last = limit - 1
        for index in range(limit):
            instance = self.steps[index].instance
            for rule in self.kb.rules:
                for trigger in triggers(rule, instance):
                    transported = self.transport_trigger(trigger, index, last)
                    if not any(
                        self.transport_trigger(trigger, index, j).is_satisfied_in(
                            self.steps[j].instance
                        )
                        for j in range(index, limit)
                    ):
                        offenders.append(transported)
        return offenders

    def validate(self, require_active: bool = True) -> None:
        """Re-check the Definition 1 conditions on the whole record;
        raises ``AssertionError`` with a pinpointing message otherwise.

        ``require_active=False`` skips the "trigger not satisfied in
        F_{i-1}" condition: the oblivious and semi-oblivious variants
        deliberately apply satisfied triggers, so their records are
        derivations only in the relaxed sense.

        Intended for tests: O(steps × cost of homomorphism checks).
        """
        first = self.steps[0]
        assert first.simplification.is_retraction_of(first.pre_instance), (
            "σ_0 is not a retraction of F"
        )
        assert first.simplification.apply(first.pre_instance) == first.instance, (
            "F_0 != σ_0(F)"
        )
        for index in range(1, len(self.steps)):
            step = self.steps[index]
            previous = self.steps[index - 1].instance
            trigger = step.trigger
            assert trigger is not None, f"step {index} lacks a trigger"
            assert trigger.is_trigger_for(previous), (
                f"step {index}: not a trigger for F_{index - 1}"
            )
            if require_active:
                assert not trigger.is_satisfied_in(previous), (
                    f"step {index}: trigger already satisfied in F_{index - 1}"
                )
            assert previous.issubset(step.pre_instance), (
                f"step {index}: A_{index} does not extend F_{index - 1}"
            )
            assert step.simplification.is_retraction_of(step.pre_instance), (
                f"step {index}: σ_{index} is not a retraction of A_{index}"
            )
            assert step.simplification.apply(step.pre_instance) == step.instance, (
                f"step {index}: F_{index} != σ_{index}(A_{index})"
            )

    def __repr__(self) -> str:
        return (
            f"Derivation({len(self.steps)} steps, last instance "
            f"{len(self.last_instance)} atoms)"
        )
