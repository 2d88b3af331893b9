"""Provenance for monotonic chase runs: which trigger created an atom,
and the full derivation tree behind it.

For monotonic derivations (oblivious, semi-oblivious, restricted,
frugal — every variant whose simplifications fix the pre-existing
terms), each atom of the final instance has a well-defined creation
step, and the body atoms its trigger matched are themselves final-
instance atoms.  That makes "why is this atom here?" answerable by a
simple recursive expansion — the classical *derivation tree* of Datalog
provenance, generalized to existential rules.

Non-monotonic (core-chase) runs rename atoms through retractions; their
provenance is not well-defined at the atom level, and
:class:`ProvenanceIndex` refuses them up front rather than answer
misleadingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..logic.atoms import Atom
from .derivation import Derivation

__all__ = ["ProvenanceIndex", "DerivationTree"]


@dataclass(frozen=True)
class DerivationTree:
    """One node of a derivation tree.

    ``rule_name`` is None for base facts.  ``premises`` are the trees of
    the body atoms the creating trigger matched.
    """

    atom: Atom
    rule_name: Optional[str]
    step: int
    premises: tuple["DerivationTree", ...] = ()

    @property
    def is_fact(self) -> bool:
        return self.rule_name is None

    def depth(self) -> int:
        """Height of the tree (facts have depth 0)."""
        if not self.premises:
            return 0
        return 1 + max(premise.depth() for premise in self.premises)

    def render(self, indent: int = 0) -> str:
        """A readable multi-line rendering."""
        label = "fact" if self.is_fact else f"{self.rule_name}@{self.step}"
        lines = [f"{'  ' * indent}{self.atom}  [{label}]"]
        for premise in self.premises:
            lines.append(premise.render(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class ProvenanceIndex:
    """Creation metadata for every atom of a monotonic derivation."""

    def __init__(self, derivation: Derivation):
        if not derivation.is_monotonic():
            raise ValueError(
                "provenance requires a monotonic derivation "
                "(core-chase retractions rename atoms away)"
            )
        self.derivation = derivation
        # atom -> (step index, rule name, matched body atoms)
        self._creators: dict[Atom, tuple[int, Optional[str], tuple[Atom, ...]]] = {}
        for at in derivation.instance(0):
            self._creators[at] = (0, None, ())
        for index in range(1, len(derivation)):
            step = derivation.steps[index]
            trigger = step.trigger
            assert trigger is not None
            body_image = tuple(
                sorted(
                    trigger.mapping.apply_atom(at)
                    for at in trigger.rule.body.sorted_atoms()
                )
            )
            if step.added is not None:
                created = step.new_atoms()  # read off the step log
            else:
                previous = derivation.instance(index - 1)
                created = [at for at in step.instance if at not in previous]
            for at in created:
                if at not in self._creators:
                    self._creators[at] = (index, trigger.rule.name, body_image)

    def creator(self, at: Atom) -> tuple[int, Optional[str]]:
        """The (step, rule name) that created *at* (rule None = fact)."""
        step, rule_name, _ = self._creators[at]
        return (step, rule_name)

    def created_at_step(self, index: int) -> frozenset[Atom]:
        """All atoms first created at the given step."""
        return frozenset(
            at for at, (step, _, _) in self._creators.items() if step == index
        )

    def explain(self, at: Atom, max_depth: int = 50) -> DerivationTree:
        """The derivation tree of *at* — each node a rule application,
        leaves the base facts.

        Premise steps are strictly decreasing toward the facts, so the
        recursion terminates; ``max_depth`` is a belt-and-braces guard.
        """
        if at not in self._creators:
            raise KeyError(f"{at} was never derived in this run")
        return self._explain(at, max_depth)

    def _explain(self, at: Atom, fuel: int) -> DerivationTree:
        step, rule_name, body = self._creators[at]
        if rule_name is None or fuel <= 0:
            return DerivationTree(at, rule_name, step)
        premises = tuple(
            self._explain(premise, fuel - 1) for premise in body
        )
        return DerivationTree(at, rule_name, step, premises)

    def __len__(self) -> int:
        return len(self._creators)
