"""Resolution proofs: step objects, checkers, and rewriting utilities.

A proof is a sequence of steps over a positional premise list.  Step
clauses are always recomputed by the checker, never trusted from the
input: every step of every proof is replayed.  The resolution rule is
liberal: the pivot must occur positively in the left premise and
negatively in the right premise, the conclusion is the union of the
remaining literals, and nothing forbids the pivot from reappearing via
the other side.

One replay loop (``_replay``) serves every check.  check_proof first
records where each step is cited for the last time (``_last_citations``,
after DRAT-trim's deletion information), and the replay drops each
clause there, so it holds only the live part of the proof.  A step's
literals are held as the stored tuple of a premise or a weakening, or
as a set for a resolvent the replay built.  A resolution that is the
last citation of such a set resolves into it in place, so stripping a
wide clause one gate clause at a time costs the gate clauses' size,
not the wide clause's at every step.  A premise's clause is never
changed.  The replay reads only ``len``, ``in`` and the stored literals
and orders no clause; replay_steps runs the same loop with no step
dying and returns every clause as a ``Clause``, left unordered
(``formulas.derived_clause``).  Weakening literals come from the proof
and go through the validated ``Clause`` constructor.

The step records ``Axiom``, ``Resolve`` and ``Weaken`` are slotted
dataclasses.  They are mutable only because that makes them cheap to
build (a certificate has one per line); nothing mutates a step once it
is made, and no code hashes one.  ``dataclasses.replace`` makes a
changed copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .circuits import Circuit, Premises, max_var, validate_circuit
from .formulas import EMPTY_CLAUSE, Clause, ClauseSet, FormulaError, derived_clause


class ProofError(ValueError):
    """Raised when an operation is handed an invalid proof."""


@dataclass(slots=True)
class Axiom:
    """Cite premise ``index``.  Slotted and never mutated."""

    index: int


@dataclass(slots=True)
class Resolve:
    """Resolve step ``left`` (holding ``pivot``) with step ``right``
    (holding ``-pivot``).  Slotted and never mutated."""

    left: int
    right: int
    pivot: int


@dataclass(slots=True)
class Weaken:
    """Add ``literals`` to step ``source``.  Slotted and never mutated."""

    source: int
    literals: tuple[int, ...]

    def __post_init__(self):
        self.literals = tuple(self.literals)


Step = Union[Axiom, Resolve, Weaken]


@dataclass(frozen=True)
class ResolutionProof:
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ProofReport:
    ok: bool
    step: int = -1
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class _StepFailure(Exception):
    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


def _resolvent(left, right, pivot: int, into: Optional[set[int]] = None) -> set[int]:
    """The liberal rule on stored literals (tuples or sets):
    (left - pivot) | (right - -pivot), where the pivot may come back
    from the other side.  ``into`` is None, giving a new set, or one
    side itself (a set its owner gives up): the resolvent is written
    into it, so the step costs the other side's size."""
    if pivot not in left:
        raise ProofError(f"pivot {pivot} absent from left clause")
    if -pivot not in right:
        raise ProofError(f"pivot {pivot} absent from right clause")
    if into is None:
        into, side = set(left), left
    else:
        side = into
    # (into - lit) | (other - -lit) is the same resolvent seen from side's side
    lit, other = (pivot, right) if side is left else (-pivot, left)
    kept = -lit in into
    into.remove(lit)
    into.update(other)
    if not kept:
        into.discard(-lit)
    return into


def resolve_clauses(left: Clause, right: Clause, pivot: int) -> Clause:
    """(left - pivot) | (right - -pivot), from the parents' stored
    literals; the resolvent is left unordered (derived_clause)."""
    return derived_clause(_resolvent(left._lits, right._lits, pivot))


def _last_citations(steps: Sequence[Step]) -> list[int]:
    """The step that cites each step for the last time, by a resolution
    or a weakening.  A step no later step cites dies where it is made,
    save the final one, which lives past the end.  A reference out of
    range is skipped here; the replay reports it."""
    last = list(range(len(steps)))
    if steps:
        last[-1] = len(steps)
    for idx, step in enumerate(steps):
        kind = type(step)
        if kind is Resolve:
            if 0 <= step.left < idx:
                last[step.left] = idx
            if 0 <= step.right < idx:
                last[step.right] = idx
        elif kind is Weaken and 0 <= step.source < idx:
            last[step.source] = idx
    return last


def _replay(premises: ClauseSet, steps: Sequence[Step], last: Sequence[int]) -> list:
    """The replay loop: recompute every step's literals in order and
    raise _StepFailure at the first bad step.  Premises are read by
    ``len`` and index alone, so a lazy carrier (circuits.Carrier)
    builds only the ones cited.  A step is exactly one of the three
    step classes; a subclass is an unknown kind.

    Entry i of the list returned holds step i's literals: the stored
    tuple of a premise or of a weakening (which the validated Clause
    constructor makes), or a set for a resolvent built here.  Step i
    dies at step last[i]: its entry becomes None there, and a
    resolution that a resolvent's set dies at is resolved into that
    set in place (the larger one when both sides die), unless both
    sides are one step.  With every last[i] below i nothing dies, and
    a resolvent is held as the set's tuple, which takes less memory."""
    count = len(premises)
    clauses: list = []
    append, premise, resolve = clauses.append, premises.__getitem__, _resolvent
    for idx, step in enumerate(steps):
        kind = type(step)
        if kind is Resolve:
            left, right, pivot = step.left, step.right, step.pivot
            if not (0 <= left < idx and 0 <= right < idx):
                raise _StepFailure(idx, "resolve references a later or missing step")
            if pivot < 1:
                raise _StepFailure(idx, f"bad pivot {pivot}")
            lits, other = clauses[left], clauses[right]
            into = None
            if last[left] == idx:
                clauses[left] = None
                if type(lits) is set:
                    into = lits
            if last[right] == idx:
                clauses[right] = None
                if type(other) is set and (into is None or len(other) > len(into)):
                    into = other
            if left == right:
                into = None
            try:
                lits = resolve(lits, other, pivot, into)
            except ProofError as exc:
                raise _StepFailure(idx, str(exc)) from None
            append(lits if last[idx] > idx else tuple(lits))
        elif kind is Axiom:
            index = step.index
            if not 0 <= index < count:
                raise _StepFailure(idx, f"axiom index {index} out of range")
            append(premise(index)._lits)
        elif kind is Weaken:
            source = step.source
            if not 0 <= source < idx:
                raise _StepFailure(idx, "weaken references a later or missing step")
            try:
                append(Clause((*clauses[source], *step.literals))._lits)
            except FormulaError as exc:
                raise _StepFailure(idx, str(exc)) from None
            if last[source] == idx:
                clauses[source] = None
        else:
            raise _StepFailure(idx, f"unknown step kind {kind.__name__}")
        if last[idx] == idx:
            clauses[idx] = None
    return clauses


def replay_steps(premises: ClauseSet, steps: Sequence[Step]) -> list[Clause]:
    """Every step clause, recomputed by the replay loop with no step
    dying; raises _StepFailure on bad steps."""
    return [derived_clause(lits) for lits in _replay(premises, steps, [-1] * len(steps))]


def check_proof(premises: ClauseSet, proof: ResolutionProof) -> ProofReport:
    """Validate a refutation: every step replays and the last one is
    the empty clause.  Each step dies at its last citation, so the
    replay holds only the live clauses.  A derivation's clauses come
    from proof_clauses."""
    steps = proof.steps
    if not steps:
        return ProofReport(False, -1, "empty proof")
    try:
        final = _replay(premises, steps, _last_citations(steps))[-1]
    except _StepFailure as exc:
        return ProofReport(False, exc.index, exc.reason)
    if len(final):
        return ProofReport(
            False, len(steps) - 1, f"final clause {derived_clause(final)} != target {EMPTY_CLAUSE}"
        )
    return ProofReport(True, len(steps) - 1)


def proof_clauses(premises: ClauseSet, proof: ResolutionProof) -> list[Clause]:
    """Recomputed step clauses of a proof assumed structurally valid."""
    try:
        return replay_steps(premises, proof.steps)
    except _StepFailure as exc:
        raise ProofError(str(exc)) from None


@dataclass(frozen=True)
class ERProof:
    """Refutation over the premises plus an auxiliary extension circuit."""

    aux: Circuit
    proof: ResolutionProof


def er_premises(premises: ClauseSet, aux: Circuit):
    """The premises, then the aux gates' clauses: the premises
    themselves when aux has no gate, else one flat Premises that lays
    their items (a view's ``laid``, a ClauseSet's clauses), then the aux
    gates, so a lazy carrier stays lazy and each gate's group sits at
    ``gate_position``.  It keeps its own memo of the clauses it builds."""
    if not aux.gates:
        return premises
    laid = premises.laid if isinstance(premises, Premises) else premises.clauses
    return Premises((*laid, *aux.gates), max(premises.n, max_var(aux)))


def check_er(premises: ClauseSet, ep: ERProof) -> ProofReport:
    """The premises' variables are needed only when the aux circuit has
    a free or a gate, and then come from ``premises.variables()``: a
    ClauseSet scans its clauses, a Carrier or a Premises view reads the
    gates it lays out and its units, so a lazy carrier builds only what
    ep cites."""
    report = validate_circuit(ep.aux)
    if not report:
        return ProofReport(False, -1, f"aux circuit invalid: {report.reason}")
    if ep.aux.free or ep.aux.gates:
        occurring = premises.variables()
        for v in ep.aux.free:
            if v not in occurring:
                return ProofReport(False, -1, f"aux free variable {v} not in premises")
        for v in ep.aux.extension_vars():
            if v in occurring:
                return ProofReport(False, -1, f"aux extension variable {v} occurs in premises")
    return check_proof(er_premises(premises, ep.aux), ep.proof)


class ProofBuilder:
    """Incremental proof assembly with clause tracking.

    Each distinct step is recorded once, save the leaves ``raw_axiom``
    makes.  Axiom steps are cached by premise index, and resolutions by
    their key (left, right, pivot) as _oriented orders it: resolve (so
    resolve_lit and resolve_opt) and import_proof return the step
    already recorded under a key, which has the same clause, instead
    of a copy.  So a proof that repeats a subproof over shared steps,
    such as a tree-like refutation imported with its leaves on cached
    axioms, is written with it once.  Only a tree-like build (prove's
    proof_from_tree) makes every leaf with ``raw_axiom``; it cites
    each step at most once, so no key can repeat there and its output
    is a tree.  ``premises`` is read by index alone.

    A resolution recorded by resolve_lazy holds no clause (None): one
    that import_proof records unreplayed, or one inside a level's chain
    in branch_refute, which resolves the chain in its own set and gives
    the chain's last step its literals.  ``clause`` computes a missing
    clause from its parents when it is read, and keeps it; ``resolve``
    and ``resolve_opt`` read a parent through it.  extract drops the
    resolution map: a build continued after it records its later
    resolutions afresh.
    """

    def __init__(self, premises: ClauseSet):
        self.premises = premises
        self.steps: list[Step] = []
        self.clauses: list[Optional[Clause]] = []
        self._axioms: dict[int, int] = {}
        self._resolutions: dict[tuple[int, int, int], int] = {}

    def _push(self, step: Step, clause: Optional[Clause]) -> int:
        self.steps.append(step)
        self.clauses.append(clause)
        return len(self.steps) - 1

    def clause(self, step_id: int) -> Clause:
        """The step's clause; a resolution recorded with none has it
        computed from its parents' here, and kept.  The fill walks the
        unfilled ancestors with a stack, not by recursion: a chain of
        them is as long as a level's trail."""
        clauses = self.clauses
        clause = clauses[step_id]
        if clause is None:
            steps, stack = self.steps, [step_id]
            while stack:
                top = stack[-1]
                if clauses[top] is not None:
                    stack.pop()
                    continue
                step = steps[top]
                left, right = clauses[step.left], clauses[step.right]
                if left is None:
                    stack.append(step.left)
                elif right is None:
                    stack.append(step.right)
                else:
                    clauses[top] = resolve_clauses(left, right, step.pivot)
                    stack.pop()
            clause = clauses[step_id]
        return clause

    def raw_axiom(self, index: int) -> int:
        return self._push(Axiom(index), self.premises[index])

    def axiom(self, index: int) -> int:
        if index not in self._axioms:
            self._axioms[index] = self.raw_axiom(index)
        return self._axioms[index]

    def resolve(self, left: int, right: int, pivot: int) -> int:
        """The step resolving left and right on pivot: the one already
        recorded under that key, else a new one with its clause."""
        key = (left, right, pivot)
        step = self._resolutions.get(key)
        if step is None:
            clauses = self.clauses
            lhs, rhs = clauses[left], clauses[right]
            if lhs is None:
                lhs = self.clause(left)
            if rhs is None:
                rhs = self.clause(right)
            clause = resolve_clauses(lhs, rhs, pivot)
            step = self._resolutions[key] = self._push(Resolve(left, right, pivot), clause)
        return step

    @staticmethod
    def _oriented(holder: int, other: int, lit: int) -> tuple[int, int, int]:
        """The key (left, right, pivot) of the resolution on the
        variable of lit, where step holder has lit and step other has
        -lit: the side holding the positive pivot goes left."""
        return (holder, other, lit) if lit > 0 else (other, holder, -lit)

    def resolve_lazy(self, holder: int, other: int, lit: int) -> int:
        """The step resolve_lit gives, with no clause computed: the one
        already recorded under its key, else a new one that holds no
        clause (None) until ``clause`` reads it.  For a caller that
        knows the pivot is on both sides: import_proof, and
        branch_refute, which holds the resolvent itself."""
        key = self._oriented(holder, other, lit)
        step = self._resolutions.get(key)
        if step is None:
            step = self._resolutions[key] = self._push(Resolve(*key), None)
        return step

    def resolve_lit(self, holder: int, other: int, lit: int) -> int:
        """Resolve on the variable of lit, ordered by _oriented."""
        return self.resolve(*self._oriented(holder, other, lit))

    def resolve_opt(self, holder: int, other: int, lit: int) -> int:
        """Resolve on lit as resolve_lit does, or alias the side already
        missing its literal: holder when it lacks lit, other when it
        lacks -lit."""
        clauses = self.clauses
        lhs, rhs = clauses[holder], clauses[other]
        if lit not in (self.clause(holder) if lhs is None else lhs):
            return holder
        if -lit not in (self.clause(other) if rhs is None else rhs):
            return other
        return self.resolve_lit(holder, other, lit)

    def import_proof(
        self,
        proof: ResolutionProof,
        axiom_map: Callable[[int], int],
        varmap: dict[int, int],
    ) -> int:
        """Append a copy of ``proof`` renamed by ``varmap``, with its
        weakening stripped, and return its final step.

        ``varmap`` sends each variable to a literal, so a variable may
        be renamed onto a negated one (resolution is closed under that
        substitution); it must be injective on variables.  ``axiom_map``
        sends each premise index to an existing step id of this builder,
        whose clause must be the premise renamed.  A weakening step
        aliases its source.

        ``proof`` must be a refutation that check_proof or check_er
        accepted; it is not replayed.  Without a weakening, each
        resolution's sides are the original clauses renamed, so the
        renamed pivot is on both and its clause is the original renamed:
        it is recorded oriented (_oriented) without computing that
        clause (None), and the final step is recorded as the empty
        clause, which the contract makes it.  A proof with a weakening
        has every resolution recomputed on its renamed pivot
        (resolve_opt), aliasing the side that lacks it, so each rebuilt
        clause is a subset of the original step clause, renamed, in at
        most as many steps.  Either way a resolution whose key the
        builder already holds, from this proof or from steps recorded
        before it, is that step: the key fixes the clause, so a proof
        that repeats a subproof comes out with it once.
        """
        local: list[int] = []
        replay = any(type(step) is Weaken for step in proof.steps)
        for step in proof.steps:
            kind = type(step)
            if kind is Axiom:
                local.append(axiom_map(step.index))
            elif kind is Weaken:
                local.append(local[step.source])
            elif replay:
                local.append(self.resolve_opt(local[step.left], local[step.right], varmap[step.pivot]))
            else:
                local.append(self.resolve_lazy(local[step.left], local[step.right], varmap[step.pivot]))
        final = local[-1]
        if self.clauses[final] is None:
            self.clauses[final] = EMPTY_CLAUSE
        return final

    def extract(self, final: int) -> ResolutionProof:
        """Prune to the steps reachable from ``final`` and reindex.  The
        resolution map is dropped first, so it does not outlive the
        build."""
        self._resolutions = {}
        steps = self.steps
        needed = [False] * (final + 1)
        needed[final] = True
        for idx in range(final, -1, -1):
            if needed[idx]:
                step = steps[idx]
                if type(step) is Resolve:
                    needed[step.left] = needed[step.right] = True
        remap = [0] * (final + 1)
        out: list[Step] = []
        for old, keep in enumerate(needed):
            if keep:
                remap[old] = len(out)
                step = steps[old]
                if type(step) is Resolve:
                    step = Resolve(remap[step.left], remap[step.right], step.pivot)
                out.append(step)
        return ResolutionProof(tuple(out))


class UnitPropagation:
    """Counter-based unit propagation with reason logging and undo.

    One engine owns the whole state of a search: the assignment and its
    trail, per-clause counts of true and false literals, ``open`` (the
    number of clauses no assigned literal satisfies) and the queue of
    clauses that may be unit.  Searches drive it through ``assign`` or
    ``assume``, ``next_unit`` or ``propagate``, and ``undo``.

    ``rows`` holds each premise's literals by position: a ClauseSet's
    stored tuples, or a Premises' rows, read off its laid items
    (Premises.rows), so a carrier is never built in full.
    """

    def __init__(self, premises: ClauseSet):
        if isinstance(premises, Premises):
            rows = premises.rows()
        else:
            rows = [c._lits for c in premises.clauses]
        self.rows = rows
        self.size = [len(lits) for lits in rows]
        self.occur: dict[int, list[int]] = {}
        for idx, lits in enumerate(rows):
            for lit in lits:
                self.occur.setdefault(lit, []).append(idx)
        self.value: dict[int, bool] = {}
        self.reason: dict[int, Optional[int]] = {}
        self.trail: list[int] = []
        self.n_false = [0] * len(rows)
        self.n_sat = [0] * len(rows)
        self.open = len(rows)
        self.empty_conflict: Optional[int] = None
        self.pending: list[int] = []
        for idx, lits in enumerate(rows):
            if not lits and self.empty_conflict is None:
                self.empty_conflict = idx
            elif len(lits) == 1:
                self.pending.append(idx)

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int):
        trail, value, reason, occur = self.trail, self.value, self.reason, self.occur
        n_sat, n_false, size, pending = self.n_sat, self.n_false, self.size, self.pending
        opened = 0
        while len(trail) > mark:
            lit = trail.pop()
            del value[abs(lit)]
            del reason[abs(lit)]
            for idx in occur.get(lit, ()):
                n_sat[idx] -= 1
                if n_sat[idx] == 0:
                    opened += 1
                    if size[idx] - n_false[idx] == 1:
                        pending.append(idx)
            for idx in occur.get(-lit, ()):
                n_false[idx] -= 1
                if n_sat[idx] == 0 and size[idx] - n_false[idx] == 1:
                    pending.append(idx)
        self.open += opened

    def assign(self, lit: int, reason: Optional[int] = None) -> Optional[int]:
        """Assign a literal true; returns a conflicting clause index."""
        self.value[abs(lit)] = lit > 0
        self.reason[abs(lit)] = reason
        self.trail.append(lit)
        n_sat, occur = self.n_sat, self.occur
        closed = 0
        for idx in occur.get(lit, ()):
            n_sat[idx] += 1
            if n_sat[idx] == 1:
                closed += 1
        self.open -= closed
        n_false, size, pending = self.n_false, self.size, self.pending
        conflict = None
        for idx in occur.get(-lit, ()):
            n_false[idx] += 1
            if n_sat[idx] == 0:
                remaining = size[idx] - n_false[idx]
                if remaining == 0 and conflict is None:
                    conflict = idx
                elif remaining == 1:
                    pending.append(idx)
        return conflict

    def next_unit(self) -> Optional[int]:
        """The one unassigned literal of the unit clause on top of the
        queue, which stays queued; None when the queue holds no unit.

        Stale entries (from undone assignments or satisfied clauses)
        are dropped here, so the queue survives undo.
        """
        pending = self.pending
        while pending:
            idx = pending[-1]
            if self.n_sat[idx] == 0 and self.size[idx] - self.n_false[idx] == 1:
                for lit in self.rows[idx]:
                    if abs(lit) not in self.value:
                        return lit
            pending.pop()
        return None

    def propagate(self) -> Optional[int]:
        """Drain the unit queue; returns a conflicting clause index."""
        if self.empty_conflict is not None:
            return self.empty_conflict
        while True:
            lit = self.next_unit()
            if lit is None:
                return None
            conflict = self.assign(lit, self.pending.pop())
            if conflict is not None:
                return conflict

    def assume(self, lit: int) -> Optional[int]:
        """Push an assumption (variable must be unassigned), propagate."""
        if abs(lit) in self.value:
            raise ProofError(f"assumption on assigned variable {abs(lit)}")
        conflict = self.assign(lit)
        if conflict is not None:
            return conflict
        return self.propagate()


class OpenLeaf(Exception):
    """No conflict where the branch variables take the values ``bits``."""

    def __init__(self, bits: tuple[int, ...]):
        self.bits = bits
        super().__init__(f"no conflict at leaf {bits}")


def branch_refute(premises: ClauseSet, variables: tuple[int, ...]) -> ResolutionProof:
    """Refute the premises by branching ``variables`` in order, false side
    first, past those propagation has set; OpenLeaf at a leaf with no
    conflict.  Each side resolves its own propagated literals out, once,
    against their reasons (Zhang and Malik, DATE 2003); a side whose
    clause then lacks its branch literal refutes the level alone.  The
    engine reads the premises' rows (UnitPropagation), and the builder
    builds only the premises cited."""
    up = UnitPropagation(premises)
    b = ProofBuilder(premises)
    return b.extract(_settled(up, b, variables, 0, 0, up.propagate())[0])


def _settled(
    up: UnitPropagation, b: ProofBuilder, variables: tuple[int, ...],
    depth: int, mark: int, conflict: Optional[int],
) -> tuple[int, set[int]]:
    """The conflict clause, else the branching of variables[depth:], with
    the literals propagated since ``mark`` resolved out: its step and
    its literals, one set the caller takes over.

    The level's set is resolved in place (_resolvent into it), so each
    step of the chain costs its reason's size, not the clause's.  Each
    step is still recorded, or found under its key, by
    ProofBuilder.resolve_lazy, which leaves a new one's clause unbuilt;
    the last step of the level is given the set's literals.  Module
    level: a recursive closure is a cycle that keeps the premises
    alive."""
    rows = up.rows
    if conflict is not None:
        cur, work = b.axiom(conflict), set(rows[conflict])
    else:
        while depth < len(variables) and variables[depth] in up.value:
            depth += 1
        if depth == len(variables):
            raise OpenLeaf(tuple(int(up.value[v]) for v in variables))
        var, below = variables[depth], up.mark()
        cur, work = _settled(up, b, variables, depth + 1, below, up.assume(-var))
        up.undo(below)
        if var in work:  # else the false side alone refutes the level
            other, lits = _settled(up, b, variables, depth + 1, below, up.assume(var))
            up.undo(below)
            if -var not in lits:  # the true side alone refutes the level
                cur, work = other, lits
            else:
                cur = b.resolve_lazy(cur, other, var)
                work = _resolvent(work, lits, var, work if len(work) >= len(lits) else lits)
    reason_of = up.reason
    for lit in reversed(up.trail[mark:]):
        reason = reason_of[abs(lit)]
        if reason is not None and -lit in work:
            cur = b.resolve_lazy(b.axiom(reason), cur, lit)
            row = rows[reason]
            if lit > 0:
                _resolvent(row, work, lit, work)
            else:
                _resolvent(work, row, -lit, work)
    if b.clauses[cur] is None:
        b.clauses[cur] = derived_clause(work)
    return cur, work


def serialize_proof(proof: ResolutionProof, n_premises: int) -> str:
    lines = [f"res-proof {n_premises}"]
    for step in proof.steps:
        if isinstance(step, Axiom):
            lines.append(f"a {step.index}")
        elif isinstance(step, Resolve):
            lines.append(f"r {step.left} {step.right} {step.pivot}")
        else:
            lines.append(
                "w " + str(step.source)
                + ("" if not step.literals else " " + " ".join(map(str, step.literals)))
                + " 0"
            )
    return "\n".join(lines) + "\n"


def parse_proof(text: str) -> tuple[ResolutionProof, int]:
    """Returns the proof and the declared premise count.

    One pass over the lines: each is split once, and its ``#`` comment
    is cut only when it has one.  The common ``a i`` and ``r l r p``
    lines take a direct branch; every other line goes through the
    general one, which names the fault of a malformed line."""
    steps: list[Step] = []
    append = steps.append
    n_premises = None
    for line in text.splitlines():
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if n_premises is not None:
                if kind == "r" and len(parts) == 4:
                    append(Resolve(int(parts[1]), int(parts[2]), int(parts[3])))
                    continue
                if kind == "a" and len(parts) == 2:
                    append(Axiom(int(parts[1])))
                    continue
        except ValueError:
            raise ProofError(f"bad token in line {line.strip()!r}") from None
        if kind == "res-proof":
            if n_premises is not None or len(parts) != 2:
                raise ProofError("malformed res-proof header")
            try:
                n_premises = int(parts[1])
            except ValueError:
                raise ProofError(f"bad premise count {parts[1]!r}") from None
            if n_premises < 0:
                raise ProofError(f"bad premise count {parts[1]!r}")
            continue
        if n_premises is None:
            raise ProofError("step data before res-proof header")
        try:
            args = [int(t) for t in parts[1:]]
        except ValueError:
            raise ProofError(f"bad token in line {line.strip()!r}") from None
        if kind == "w" and len(args) >= 2 and args[-1] == 0:
            if 0 in args[1:-1]:
                raise ProofError(f"bad weakening literal 0 in line {line.strip()!r}")
            append(Weaken(args[0], tuple(args[1:-1])))
        else:
            raise ProofError(f"malformed step line {line.strip()!r}")
    if n_premises is None:
        raise ProofError("missing res-proof header")
    return ResolutionProof(tuple(steps)), n_premises


def serialize_er(ep: ERProof, n_premises: int) -> str:
    """Self-contained text form: header, auxiliary circuit, steps.
    The declared premise count includes the auxiliary gate clauses."""
    from .circuits import serialize_circuit

    return "er-proof\n" + serialize_circuit(ep.aux) + serialize_proof(ep.proof, n_premises)


def parse_er(text: str) -> tuple[ERProof, int]:
    """Returns the proof and the declared premise count.  A text that
    opens with a res-proof header, as ``prove`` writes, is an ER proof
    with an empty auxiliary circuit."""
    from .circuits import Circuit, parse_circuit

    lines = text.splitlines()
    header = None
    split = None
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            if line.split()[0] == "res-proof":
                proof, n_premises = parse_proof(text)
                return ERProof(Circuit((), (), ()), proof), n_premises
            if line != "er-proof":
                raise ProofError("missing er-proof header")
            header = i
            continue
        if line.split()[0] == "res-proof":
            split = i
            break
    if header is None:
        raise ProofError("missing er-proof header")
    if split is None:
        raise ProofError("missing res-proof section")
    aux = parse_circuit("\n".join(lines[header + 1 : split]))
    proof, n_premises = parse_proof("\n".join(lines[split:]))
    return ERProof(aux, proof), n_premises
