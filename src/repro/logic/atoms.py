"""Predicates and atoms.

An *atom* over a schema ``S`` is an expression ``p(t_1, ..., t_k)`` with
``p ∈ S`` of arity ``k`` and the ``t_i`` terms (Section 2 of the paper).
Atoms are immutable and hashable so that an instance can be a genuine set
of atoms; this is the representation the whole chase machinery relies on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from .terms import Constant, Term, Variable, is_variable

__all__ = ["Predicate", "Atom", "atom", "make_term"]


class Predicate:
    """A relation symbol with a fixed arity.

    Two predicates are equal iff they share name *and* arity; a schema in
    which the same name appears with two arities is thereby rejected at
    the earliest possible point (atoms built from the clashing predicates
    never compare equal).
    """

    __slots__ = ("name", "arity", "_hash")

    def __init__(self, name: str, arity: int):
        if not isinstance(name, str) or not name:
            raise ValueError(f"predicate name must be a non-empty string, got {name!r}")
        if not isinstance(arity, int) or arity < 0:
            raise ValueError(f"predicate arity must be a non-negative int, got {arity!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        # Cached like a term's hash; the value is the one a
        # ``(name, arity)`` tuple hashes to, so iteration orders are
        # unchanged.
        object.__setattr__(self, "_hash", hash((name, arity)))

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("Predicate is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and other.name == self.name
            and other.arity == self.arity
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Predicate") -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return (self.name, self.arity) < (other.name, other.arity)

    def __repr__(self) -> str:
        return f"Predicate({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __call__(self, *args: Union[Term, str]) -> "Atom":
        """Build an atom over this predicate: ``p(x, y)``."""
        return Atom(self, tuple(make_term(a) for a in args))


def make_term(value: Union[Term, str]) -> Term:
    """Coerce *value* to a term.

    Strings follow the classical logic-programming convention: names whose
    first character is an uppercase letter or an underscore denote
    variables, everything else denotes constants.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str) and value:
        first = value[0]
        if first.isupper() or first == "_":
            return Variable(value)
        return Constant(value)
    raise TypeError(f"cannot interpret {value!r} as a term")


class Atom:
    """An immutable atom ``p(t_1, ..., t_k)``."""

    __slots__ = ("predicate", "args", "_hash", "_key", "_enc")

    predicate: Predicate
    args: tuple[Term, ...]

    def __init__(self, predicate: Predicate, args: Sequence[Term]):
        args = tuple(args)
        if len(args) != predicate.arity:
            raise ValueError(
                f"predicate {predicate} expects {predicate.arity} arguments, "
                f"got {len(args)}: {args!r}"
            )
        for position, term in enumerate(args):
            if not isinstance(term, Term):
                raise TypeError(
                    f"argument {position} of {predicate} is not a Term: {term!r}"
                )
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((predicate, args)))
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_enc", None)

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("Atom is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and other._hash == self._hash
            and other.predicate == self.predicate
            and other.args == self.args
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Atom") -> bool:
        """A deterministic (arbitrary) total order used to stabilize
        iteration orders in the chase engine and in tests."""
        if not isinstance(other, Atom):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """Key for the deterministic atom order.

        Computed once and cached on the (immutable) atom: candidate-pool
        ordering in the homomorphism search sorts the same atoms over and
        over, and this key used to dominate whole core-chase profiles.
        """
        key = self._key
        if key is None:
            key = (
                self.predicate.name,
                self.predicate.arity,
                tuple((is_variable(t), t.name) for t in self.args),
            )
            object.__setattr__(self, "_key", key)
        return key

    def terms(self) -> Iterator[Term]:
        """Iterate over the argument terms (with repetitions)."""
        return iter(self.args)

    def term_set(self) -> frozenset[Term]:
        """The set ``terms(at)`` of distinct terms occurring in the atom."""
        return frozenset(self.args)

    def variables(self) -> frozenset[Variable]:
        """The set of variables occurring in the atom."""
        return frozenset(t for t in self.args if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        """The set of constants occurring in the atom."""
        return frozenset(t for t in self.args if isinstance(t, Constant))

    def is_ground(self) -> bool:
        """True iff the atom mentions no variable."""
        return not any(isinstance(t, Variable) for t in self.args)

    def __repr__(self) -> str:
        return f"Atom({self!s})"

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.args)
        return f"{self.predicate.name}({inner})"


def atom(predicate_name: str, *args: Union[Term, str]) -> Atom:
    """Convenience constructor: ``atom("p", "X", "a")`` builds ``p(X, a)``
    with the string-to-term convention of :func:`make_term` (leading
    uppercase/underscore means variable).
    """
    terms = tuple(make_term(a) for a in args)
    return Atom(Predicate(predicate_name, len(terms)), terms)


def atoms_terms(atoms: Iterable[Atom]) -> set[Term]:
    """The set of terms occurring in a collection of atoms."""
    result: set[Term] = set()
    for at in atoms:
        result.update(at.args)
    return result
