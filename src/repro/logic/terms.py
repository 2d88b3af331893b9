"""Terms of the language: variables and constants.

The paper (Section 2) works with countably infinite disjoint sets ``Δ_V``
of variables and ``Δ_C`` of constants; the set of terms is their union.
Variables double as the *labeled nulls* of instances (the paper conflates
the two notions on purpose, see Section 2), so a fresh-variable source is
the mechanism by which rule applications invent new nulls.

Two pieces of global structure live here:

* ``FreshVariableSource`` hands out variables that are guaranteed not to
  collide with anything produced before (within one source), which is the
  "fresh variable" requirement of rule application (Footnote 2 of the
  paper: a null must be fresh with respect to the *entire* computation).
* every :class:`Variable` carries a creation ``rank``.  Section 8's robust
  renaming needs a total order ``<_X`` on variables with order type ω; the
  creation rank provides the default such order (see
  :mod:`repro.util.orders` for alternatives).
"""

from __future__ import annotations

import itertools
import threading
from typing import Union

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "FreshVariableSource",
    "is_variable",
    "is_constant",
]


class Term:
    """Common base class for :class:`Variable` and :class:`Constant`.

    Terms are immutable value objects; equality and hashing are by kind
    and name so that parsing the same text twice yields interchangeable
    objects.  Subclasses compute the hash once, at construction, into the
    ``_hash`` slot: every set and dict of the library hashes terms, far
    more often than terms are created.
    """

    __slots__ = ("name", "_hash")

    name: str

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"term name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __str__(self) -> str:
        return self.name


_RANK_COUNTER = itertools.count()
_RANK_LOCK = threading.Lock()


def _next_rank() -> int:
    with _RANK_LOCK:
        return next(_RANK_COUNTER)


class Variable(Term):
    """A variable (equivalently, a labeled null).

    Equality and hashing are *by name*: ``Variable("X") == Variable("X")``.
    The ``rank`` attribute records global creation order and backs the
    default variable order ``<_X`` used by the robust renaming
    (Definition 14).  The rank of a name is fixed the first time a
    variable with that name is created, so re-parsing a formula does not
    perturb the order.
    """

    __slots__ = ("rank",)

    _rank_by_name: dict[str, int] = {}

    rank: int

    def __init__(self, name: str):
        super().__init__(name)
        with _RANK_LOCK:
            rank = Variable._rank_by_name.get(name)
            if rank is None:
                rank = next(_RANK_COUNTER)
                Variable._rank_by_name[name] = rank
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_hash", hash(("var", name)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Variable") -> bool:
        """Default ``<_X`` order: by creation rank (ties impossible)."""
        if not isinstance(other, Variable):
            return NotImplemented
        return self.rank < other.rank


class Constant(Term):
    """A constant.  The paper operates under the unique name assumption
    (Footnote 1), so distinct constants always denote distinct objects and
    a homomorphism must map every constant to itself.
    """

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__(name)
        object.__setattr__(self, "_hash", hash(("const", name)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and other.name == self.name

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Constant") -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return self.name < other.name


def is_variable(term: Term) -> bool:
    """Return True iff *term* is a variable (labeled null)."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Return True iff *term* is a constant."""
    return isinstance(term, Constant)


class FreshVariableSource:
    """A deterministic source of fresh variables.

    Rule application (the ``α(I, tr)`` operation of Section 2) replaces
    each existential variable of the head with a *fresh* variable.
    Footnote 2 of the paper stresses that freshness is global: a null must
    not have occurred at any previous computation step.  A single source
    per chase run guarantees this, and the sequential naming scheme keeps
    runs reproducible.

    Parameters
    ----------
    prefix:
        Name prefix for generated variables; the default ``"_n"`` cannot
        collide with parser-produced variables (which never start with an
        underscore).
    start:
        First index to hand out.  A checkpoint-resumed chase
        (:meth:`repro.chase.engine.ChaseEngine.restore_state`) restores
        the counter here so the continuation invents exactly the nulls
        the uninterrupted run would have.
    """

    def __init__(self, prefix: str = "_n", start: int = 0):
        if start < 0:
            raise ValueError("start must be >= 0")
        self._prefix = prefix
        self._count = start

    def fresh(self, hint: Union[str, Variable, None] = None) -> Variable:
        """Return a brand-new variable.

        ``hint`` (an existential variable or its name) is woven into the
        generated name purely for readability of traces.
        """
        index = self._count
        self._count += 1
        if hint is None:
            return Variable(f"{self._prefix}{index}")
        hint_name = hint.name if isinstance(hint, Variable) else str(hint)
        return Variable(f"{self._prefix}{index}_{hint_name}")

    @property
    def count(self) -> int:
        """Number of variables handed out so far."""
        return self._count

    @property
    def prefix(self) -> str:
        """The name prefix generated variables carry."""
        return self._prefix

    def __repr__(self) -> str:
        return f"FreshVariableSource(prefix={self._prefix!r})"
