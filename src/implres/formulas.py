"""Core propositional objects: literals, clauses, clause sets.

Literals are nonzero DIMACS-style integers: ``v`` for a positive
occurrence of variable ``v`` and ``-v`` for a negated one.  A clause is
a set of literals with a canonical order (by variable, the negative
literal first), so that equal clauses compare and hash equal.  A
clause stores its literals as one tuple and is put in that order the
first time the order is read, not when it is made: the resolution
kernel needs only ``len``, ``in`` and the stored tuple.  A clause set
fixes the number of variables ``n`` and owns an ordered tuple of
clauses.

Trust boundary.  ``Clause(...)`` is the validated constructor: it
rejects anything but nonzero ``int`` literals (``bool`` included) and
puts its input in canonical order.  Everything read from outside goes
through it: the parsers, the families, ``ClauseSet`` coercion of bare
tuples and weakening literals of a proof.  ``ClauseSet`` also checks
every variable against ``n``.  ``derived_clause`` and
``canonical_clause`` are the internal constructors for clauses made
from literals that are already valid, such as resolvents of two
clauses and the clause groups of validated gates; they check nothing,
and ``derived_clause`` leaves its clause unordered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Optional


class FormulaError(ValueError):
    """Raised for malformed clauses, clause sets, or DIMACS input."""


def check_literal(lit: int) -> int:
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise FormulaError(f"bad literal {lit!r}")
    return lit


_INT = {int}


def check_literals(lits: tuple) -> None:
    """Reject a sequence holding anything but nonzero ints.

    One type test and one zero test cover the whole sequence; the
    per-literal loop runs only to name the first bad literal.
    """
    if not set(map(type, lits)) <= _INT or 0 in lits:
        for lit in lits:
            check_literal(lit)


def _ordered(lits: Iterable[int]) -> tuple[int, ...]:
    # sorted() puts -v before v; the stable sort by variable keeps it so
    out = sorted(lits)
    out.sort(key=abs)
    return tuple(out)


@dataclass(frozen=True, slots=True, eq=False)
class Clause:
    """An immutable clause of distinct literals.

    ``_lits`` holds them in the order they were stored; ``literals``
    holds them in canonical order and, once set, is the same tuple.
    The validated constructor sets both.  A derived clause sets
    ``_lits`` alone and is put in order in place the first time
    ``literals`` is read: by iteration, ``str``, ``==`` or ``hash``.
    ``len`` and ``in`` read ``_lits`` and never order it."""

    literals: tuple[int, ...] = ()
    _lits: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        lits = tuple(self.literals)
        check_literals(lits)
        _fill(self, _ordered(set(lits)))

    def __getattr__(self, name: str):
        # reached only while a slot is unset: a derived clause's order
        if name != "literals":
            raise AttributeError(name)
        ordered = _ordered(self._lits)
        _fill(self, ordered)
        return ordered

    def __eq__(self, other):
        if type(other) is not Clause:
            return NotImplemented
        return self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self._lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self._lits

    def is_tautology(self) -> bool:
        lits = set(self._lits)
        return any(-l in lits for l in lits)

    def union(self, other: "Clause | Iterable[int]") -> "Clause":
        other_lits = other._lits if isinstance(other, Clause) else tuple(other)
        return Clause(self._lits + other_lits)

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self.literals) + "}"


_new = object.__new__
_store = Clause._lits.__set__
_store_ordered = Clause.literals.__set__


def _fill(clause: Clause, ordered: tuple[int, ...]) -> None:
    """Store literals already in canonical order: one tuple, both slots."""
    _store_ordered(clause, ordered)
    _store(clause, ordered)


def canonical_clause(literals: tuple[int, ...]) -> Clause:
    """Trusted: wrap valid literals that are already in canonical order."""
    clause = _new(Clause)
    _fill(clause, literals)
    return clause


def derived_clause(literals: Collection[int]) -> Clause:
    """Trusted: the clause of distinct valid literals (a set, or a
    stored tuple), stored as their tuple and put in order only when
    its order is read."""
    clause = _new(Clause)
    _store(clause, tuple(literals))
    return clause


EMPTY_CLAUSE = Clause()


@dataclass(frozen=True)
class ClauseSet:
    """A CNF formula: ``n`` variables (numbered 1..n) plus clauses."""

    n: int
    clauses: tuple[Clause, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise FormulaError(f"negative variable count {self.n}")
        norm = tuple(
            c if isinstance(c, Clause) else Clause(tuple(c)) for c in self.clauses
        )
        object.__setattr__(self, "clauses", norm)
        # one pass over the stored literals, so a derived clause stays unordered
        top = max(map(abs, itertools.chain.from_iterable(c._lits for c in norm)), default=0)
        if top > self.n:
            raise FormulaError(f"variable {top} out of range 1..{self.n}")

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __getitem__(self, i: int) -> Clause:
        return self.clauses[i]

    def variables(self) -> set[int]:
        """The variables that occur in some clause."""
        return {abs(lit) for c in self.clauses for lit in c._lits}


def satisfies(assignment: dict[int, bool], clause: Clause) -> bool:
    """True when the (total) assignment makes at least one literal true."""
    for lit in clause:
        value = assignment[abs(lit)]
        if value == (lit > 0):
            return True
    return False


def brute_force_sat(cs: ClauseSet, limit: int = 25) -> Optional[dict[int, bool]]:
    """Exhaustive satisfiability oracle.

    Returns the lexicographically first model (False < True over
    variables 1..n) or None when unsatisfiable.  Guarded to small n so
    accidental misuse fails loudly instead of hanging.
    """
    if cs.n > limit:
        raise FormulaError(f"brute_force_sat limited to n <= {limit}, got n={cs.n}")
    for bits in itertools.product((False, True), repeat=cs.n):
        assignment = {v: bits[v - 1] for v in range(1, cs.n + 1)}
        if all(satisfies(assignment, c) for c in cs):
            return assignment
    return None


def parse_dimacs(text: str) -> ClauseSet:
    """Parse DIMACS CNF.  Strict: clause count must match the header."""
    n = None
    m = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise FormulaError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise FormulaError(f"malformed header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormulaError(f"malformed header {line!r}") from None
            if n < 0 or m < 0:
                raise FormulaError(f"malformed header {line!r}")
            continue
        if n is None:
            raise FormulaError("clause data before DIMACS header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise FormulaError(f"bad token {tok!r}") from None
            if lit == 0:
                clauses.append(Clause(tuple(pending)))
                pending.clear()
            else:
                pending.append(lit)
    if n is None:
        raise FormulaError("missing DIMACS header")
    if pending:
        raise FormulaError("truncated final clause (missing 0 terminator)")
    if len(clauses) != m:
        raise FormulaError(f"header declares {m} clauses, found {len(clauses)}")
    return ClauseSet(n, tuple(clauses))


def serialize_dimacs(cs: ClauseSet) -> str:
    lines = [f"p cnf {cs.n} {len(cs.clauses)}"]
    for c in cs:
        lines.append(" ".join(str(l) for l in c.literals) + " 0")
    return "\n".join(lines) + "\n"
