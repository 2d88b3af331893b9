"""Equality-generating dependencies and the standard TGD+EGD chase.

The paper's framework (Definition 1) covers tuple-generating
dependencies only; classical data exchange also chases with
*equality-generating dependencies* (EGDs) of the form
``∀x̄. B[x̄] → x = y`` with ``x, y`` occurring in ``B``.  Applying an EGD
unifies the two images: two distinct constants make the chase **fail**
(the unique name assumption is violated — no model exists respecting the
dependencies); a null is merged into the other term otherwise.

EGD steps are genuine quotients, not retractions, so they fall outside
the paper's derivation format — this module is an *extension* (flagged
as such in DESIGN.md) providing the standard chase of Fagin et al.
(reference [10] of the paper): alternate TGD rounds (restricted
activity) with exhaustive EGD application, detect failure, and stop at a
fixpoint that is then a universal solution for the data-exchange
setting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..logic.atoms import Atom
from ..logic.atomset import AtomSet
from ..logic.homomorphism import homomorphisms
from ..logic.parser import ParseError, parse_atoms, _NAME
from ..logic.rules import ExistentialRule, RuleSet
from ..logic.substitution import Substitution
from ..logic.terms import Constant, FreshVariableSource, Term, Variable
from .trigger import apply_trigger, unsatisfied_triggers

__all__ = [
    "EGD",
    "parse_egd",
    "parse_egds",
    "ChaseFailure",
    "EgdChaseResult",
    "standard_chase",
]

_EGD_RE = re.compile(rf"^\s*({_NAME})\s*=\s*({_NAME})\s*$")
_LABEL_RE = re.compile(rf"^\s*\[\s*({_NAME})\s*\]\s*(.*)$")


class ChaseFailure(Exception):
    """The chase failed: an EGD forced two distinct constants equal, so
    the dependencies have no model extending the data."""


class EGD:
    """An equality-generating dependency ``B → x = y``."""

    __slots__ = ("body", "left", "right", "name")

    def __init__(
        self,
        body: Union[AtomSet, Iterable[Atom]],
        left: Variable,
        right: Variable,
        name: Optional[str] = None,
    ):
        body_set = body if isinstance(body, AtomSet) else AtomSet(body)
        if not body_set:
            raise ValueError("EGD body must be nonempty")
        for var in (left, right):
            if var not in body_set.variables():
                raise ValueError(f"equated variable {var} must occur in the body")
        object.__setattr__(self, "body", body_set.copy())
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("EGD is immutable")

    def violations(self, instance: AtomSet):
        """Iterate over homomorphisms of the body mapping the equated
        variables to *distinct* terms."""
        for hom in homomorphisms(self.body, instance):
            if hom.apply_term(self.left) != hom.apply_term(self.right):
                yield hom

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        body_text = ", ".join(str(a) for a in self.body.sorted_atoms())
        return f"EGD({label}{body_text} -> {self.left} = {self.right})"


def parse_egd(text: str, name: Optional[str] = None) -> EGD:
    """Parse an EGD such as ``"dir(E, H1), dir(E, H2) -> H1 = H2"``."""
    label_match = _LABEL_RE.match(text)
    if label_match is not None:
        name = label_match.group(1)
        text = label_match.group(2)
    parts = text.split("->")
    if len(parts) != 2:
        raise ParseError(f"expected exactly one '->' in EGD {text!r}")
    body = parse_atoms(parts[0])
    eq_match = _EGD_RE.match(parts[1])
    if eq_match is None:
        raise ParseError(f"EGD head must be 'X = Y', got {parts[1]!r}")
    left, right = Variable(eq_match.group(1)), Variable(eq_match.group(2))
    return EGD(body, left, right, name=name)


def parse_egds(text: str) -> list[EGD]:
    """Parse one EGD per (non-comment) line."""
    egds = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            egds.append(parse_egd(line))
        except ParseError as error:
            raise ParseError(f"line {line_number}: {error}") from error
    if not egds:
        raise ParseError("no EGDs in text")
    return egds


@dataclass
class EgdChaseResult:
    """Outcome of a standard (TGD + EGD) chase run."""

    instance: AtomSet
    terminated: bool
    failed: bool
    tgd_applications: int = 0
    egd_applications: int = 0

    def __repr__(self) -> str:
        status = (
            "failed"
            if self.failed
            else ("terminated" if self.terminated else "budget-exhausted")
        )
        return (
            f"EgdChaseResult({status}, {self.tgd_applications} TGD + "
            f"{self.egd_applications} EGD applications, "
            f"{len(self.instance)} atoms)"
        )


def _unification(left: Term, right: Term) -> Substitution:
    """The substitution merging two terms (older/constant survives)."""
    if isinstance(left, Constant) and isinstance(right, Constant):
        raise ChaseFailure(f"cannot unify distinct constants {left} and {right}")
    if isinstance(left, Constant):
        return Substitution({right: left})  # type: ignore[dict-item]
    if isinstance(right, Constant):
        return Substitution({left: right})
    older, newer = sorted((left, right), key=lambda v: (v.rank, v.name))
    return Substitution({newer: older})  # type: ignore[dict-item]


def _saturate_egds(instance: AtomSet, egds: list[EGD], budget: int) -> tuple[AtomSet, int]:
    """Apply EGDs until none is violated (or the budget runs out)."""
    applications = 0
    changed = True
    while changed and applications < budget:
        changed = False
        for egd in egds:
            for violation in egd.violations(instance):
                unifier = _unification(
                    violation.apply_term(egd.left),
                    violation.apply_term(egd.right),
                )
                instance = unifier.apply(instance)
                applications += 1
                changed = True
                break  # instance changed: re-enumerate
            if changed:
                break
    return instance, applications


def standard_chase(
    facts: AtomSet,
    tgds: Union[RuleSet, Iterable[ExistentialRule]],
    egds: Iterable[EGD],
    max_steps: int = 1000,
) -> EgdChaseResult:
    """The standard chase with TGDs and EGDs.

    Alternates exhaustive EGD saturation with single restricted-style TGD
    applications.  Raises nothing: failure is reported in the result (a
    failed chase means the setting admits no solution).
    """
    rule_set = tgds if isinstance(tgds, RuleSet) else RuleSet(tgds)
    egd_list = list(egds)
    fresh = FreshVariableSource(prefix="_s")
    instance = facts.copy()
    tgd_applications = 0
    egd_applications = 0
    try:
        instance, done = _saturate_egds(instance, egd_list, max_steps)
        egd_applications += done
        while tgd_applications < max_steps:
            pending = None
            for rule in rule_set:
                for trigger in unsatisfied_triggers(rule, instance):
                    pending = trigger
                    break
                if pending is not None:
                    break
            if pending is None:
                return EgdChaseResult(
                    instance, True, False, tgd_applications, egd_applications
                )
            apply_trigger(instance, pending, fresh)
            tgd_applications += 1
            instance, done = _saturate_egds(
                instance, egd_list, max_steps - egd_applications
            )
            egd_applications += done
        return EgdChaseResult(
            instance, False, False, tgd_applications, egd_applications
        )
    except ChaseFailure:
        return EgdChaseResult(
            instance, True, True, tgd_applications, egd_applications
        )
