"""Extension-gate circuits.

A gate defines an extension variable as the disjunction of 1..k
literals; a circuit is an acyclic, topologically ordered sequence of
such gates over a set of free input variables, plus an ordered list of
output variables.  Circuits expand to CNF via the standard clause
group of each gate and evaluate deterministically on any total input
assignment.  A ``Copy`` renames a circuit under a variable map: its
gates are the renamed circuit, and laid in a premise set it gives the
renamed clause groups.  A ``GateFamily`` is an indexed block of gates
on consecutive ids whose bodies follow a closed-form rule: laid in a
premise set it gives their groups, each computed from its index
alone, so no gate of it is built unless its gates are asked for.

Every premise set read by position is one ``Premises``: one flat
sequence of laid items (gates, gate families, clauses taken as they
stand, and copies of a circuit under a copy map) over n variables, the
one place its layout is stored.  One table of where each item's
clauses start names the item that holds a position; within it, a
family's one group size or a copy's circuit's group offsets (one table
that every copy of the circuit shares) name the gate, and the clause
is built alone; each clause built is kept once, by position.  A gate's
body is read the same way, off its item, and ``item_bodies`` is the
one expansion of an item into its gates' ids and bodies, as
``group_rows`` is of a gate into its group's literals.  A
``Carrier`` is the Premises that ``assemble_carrier`` lays, plus the
frees and verdict block that its items do not hold; delta is the
verdict block's last gate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, count
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .formulas import (
    Clause,
    ClauseSet,
    FormulaError,
    canonical_clause,
    check_literals,
    derived_clause,
)


class CircuitError(ValueError):
    """Raised for structurally invalid circuits or bad parse input."""


@dataclass(frozen=True)
class Gate:
    """Extension gate: ``var`` is equivalent to the OR of ``body``."""

    var: int
    body: tuple[int, ...]

    def __post_init__(self):
        if type(self.var) is not int or self.var < 1:
            raise CircuitError(f"bad gate variable {self.var!r}")
        body = tuple(self.body)
        if not body:
            raise CircuitError(f"gate {self.var} has empty body")
        check_literals(body)
        object.__setattr__(self, "body", body)


@dataclass(frozen=True)
class Circuit:
    """Free inputs, topologically ordered gates, labeled outputs."""

    free: tuple[int, ...] = ()
    gates: tuple[Gate, ...] = ()
    outputs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(self.free))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    def gate_map(self) -> dict[int, Gate]:
        return {g.var: g for g in self.gates}

    def variables(self) -> set[int]:
        vars_ = set(self.free)
        for g in self.gates:
            vars_.add(g.var)
            vars_.update(abs(l) for l in g.body)
        vars_.update(self.outputs)
        return vars_

    def extension_vars(self) -> set[int]:
        return {g.var for g in self.gates}

    @cached_property
    def group_ends(self) -> list[int]:
        """Where each gate's clause group starts, then the clause count."""
        return list(accumulate(map(clause_count, self.gates), initial=0))


@dataclass(frozen=True)
class CircuitReport:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_circuit(c: Circuit) -> CircuitReport:
    """Check all circuit invariants; reports the first violation.

    Topological order doubles as the acyclicity check: every body
    variable must be free or defined by an earlier gate.
    """
    seen = set()
    for v in c.free:
        if v < 1:
            return CircuitReport(False, f"bad free variable {v}")
        if v in seen:
            return CircuitReport(False, f"duplicate free variable {v}")
        seen.add(v)
    for g in c.gates:
        if g.var in seen:
            return CircuitReport(False, f"variable {g.var} defined twice or shadows a free")
        for lit in g.body:
            if abs(lit) not in seen:
                return CircuitReport(
                    False,
                    f"gate {g.var}: body references {abs(lit)} which is not free "
                    f"or defined earlier (undefined or cyclic)",
                )
        seen.add(g.var)
    for v in c.outputs:
        if v not in seen:
            return CircuitReport(False, f"output {v} is not a variable of the circuit")
    return CircuitReport(True)


def gate_group(v: int, body: tuple[int, ...]) -> tuple[Clause, ...]:
    """Trusted: the defining clause group of the gate v = OR(body),
    exact duplicates collapsed, for a variable and literals that are
    already valid (as a Gate's are), without making the Gate (as
    ``canonical_clause`` makes a Clause without checks).

    Order is fixed: the wide clause first, then one two-literal clause
    per distinct body literal in body order.  The wide clause is left
    unordered (``derived_clause``), each other clause is in canonical
    order; the literals are group_rows'."""
    rows = group_rows(v, body)
    return (derived_clause(next(rows)), *map(canonical_clause, rows))


def group_rows(v: int, body: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The literals of each clause of gate_group(v, body), in its
    order, with no Clause made: the one expansion of a gate into its
    group.  The wide clause's are unordered, every other's canonical.
    The duplicate check reads those tuples, and only a clause of a body
    literal on v itself can repeat the wide clause."""
    wide = {-v, *body}
    yield tuple(wide)
    seen = set()
    for lit in body:
        u = abs(lit)
        if u == v:  # a body citing its own gate; validate_circuit rejects it
            row = tuple(sorted({v, -lit}))
            if set(row) == wide:
                continue
        else:  # as _body_clause orients it
            row = (-lit, v) if u < v else (v, -lit)
        if row not in seen:
            seen.add(row)
            yield row


def _distinct_body(body: tuple[int, ...], group_len: int) -> tuple[int, ...]:
    """The body literals whose clauses follow the wide clause in a
    gate_group of ``group_len`` clauses, in body order: clause i of the
    group is that of the i-th.  That is body itself unless a literal
    repeats, which leaves the group shorter than 1 + len(body)."""
    return body if group_len > len(body) else tuple(dict.fromkeys(body))


def _wide_clause(v: int, body: Iterable[int]) -> Clause:
    """Trusted: the wide clause {-v} | body of v = OR(body), unordered."""
    return derived_clause({-v, *body})


def _body_clause(v: int, lit: int) -> Clause:
    """Trusted: the clause {v, -lit} of body literal lit of gate v."""
    u = abs(lit)
    if u == v:  # a body citing its own gate; validate_circuit rejects it
        return Clause((v, -lit))
    return canonical_clause((-lit, v) if u < v else (v, -lit))


def max_var(c: Circuit) -> int:
    vs = c.variables()
    return max(vs) if vs else 0


def evaluate(c: Circuit, free_vals: dict[int, bool]) -> dict[int, bool]:
    """Extend an assignment of the free variables over all gates."""
    vals: dict[int, bool] = {}
    for v in c.free:
        if v not in free_vals:
            raise CircuitError(f"free variable {v} unassigned")
        vals[v] = bool(free_vals[v])
    for g in c.gates:
        acc = False
        for lit in g.body:
            val = vals[abs(lit)]
            if val == (lit > 0):
                acc = True
                break
        vals[g.var] = acc
    return vals


class VarAlloc:
    """Monotone fresh-variable counter, threaded explicitly."""

    def __init__(self, start: int = 1):
        if start < 1:
            raise CircuitError(f"allocator must start at >= 1, got {start}")
        self._next = start

    @property
    def next_var(self) -> int:
        return self._next

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    def take(self, k: int) -> int:
        """k fresh ids in a row; the first of them."""
        v = self._next
        self._next += k
        return v


def map_literal(lit: int, varmap: dict[int, int]) -> int:
    v = varmap[abs(lit)]
    return v if lit > 0 else -v


def check_ports(
    circuit: Circuit, iface, n_inputs: int, n_outputs: int, spare_limit: int
) -> CircuitReport:
    """Port check of an interface (``inputs``, ``outputs``) against its
    circuit, the one check every carrier generator and verifier runs:
    the circuit is valid, the inputs are distinct frees, the outputs
    distinct gate-defined variables equal to the circuit's own.  Spare
    frees (grafted circuits carry the carrier set's variables) must
    have ids at most ``spare_limit`` and lie outside the outputs'
    fan-in: every copy leaves them in place, so one that fed an output
    would read a carrier variable instead of the described input."""
    rep = validate_circuit(circuit)
    if not rep:
        return CircuitReport(False, f"invalid circuit: {rep.reason}")
    if len(iface.inputs) != n_inputs:
        return CircuitReport(False, f"expected {n_inputs} inputs, got {len(iface.inputs)}")
    if len(set(iface.inputs)) != n_inputs:
        return CircuitReport(False, "duplicate input variables")
    if len(iface.outputs) != n_outputs:
        return CircuitReport(False, f"expected {n_outputs} outputs, got {len(iface.outputs)}")
    if len(set(iface.outputs)) != n_outputs:
        return CircuitReport(False, "duplicate output variables")
    frees = set(circuit.free)
    for v in iface.inputs:
        if v not in frees:
            return CircuitReport(False, f"input {v} is not free in the circuit")
    ext = circuit.extension_vars()
    for v in iface.outputs:
        if v not in ext:
            return CircuitReport(False, f"output {v} is not gate-defined")
    if tuple(iface.outputs) != tuple(circuit.outputs):
        return CircuitReport(False, "interface outputs disagree with circuit outputs")
    extras = frees - set(iface.inputs)
    bad = sorted(v for v in extras if v > spare_limit)
    if bad:
        return CircuitReport(False, f"spare free variables {bad} above {spare_limit}")
    if extras:
        # the gates are topologically ordered, so one reverse sweep
        # collects the outputs' transitive fan-in
        cone = set(circuit.outputs)
        for g in reversed(circuit.gates):
            if g.var in cone:
                cone.update(abs(l) for l in g.body)
        fed = sorted(extras & cone)
        if fed:
            return CircuitReport(False, f"spare free variables {fed} feed the outputs")
    return CircuitReport(True)


@dataclass(frozen=True, eq=False)
class Copy:
    """``circuit`` renamed under ``varmap``, a map of its variables.
    Laid in a Premises, it gives the clause groups of the renamed
    gates, for an injective map: one copy of a carrier's circuit, or
    the image that a bridge resolves back to its original.  Every copy
    of a circuit reads its groups' offsets off the one table
    ``circuit.group_ends``."""

    circuit: Circuit
    varmap: dict[int, int]

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The copy's gates, in the circuit's order (item_bodies)."""
        return item_gates(self)


@dataclass(frozen=True)
class GateFamily:
    """``count`` gates on the ids base .. base + count - 1: gate t is
    base + t = OR(rule(t, *args)).  Every body has the same length and
    distinct literals, none on its own gate, so every group holds
    ``group`` clauses and gate t's starts at offset t * group.  Laid in
    a Premises, a family gives its gates' groups in index order, each
    computed from t when it is read; item_bodies expands them all.  Two
    families are equal when their ids, rule and arguments are."""

    base: int
    count: int
    rule: Callable[..., tuple[int, ...]]
    args: tuple

    def body(self, t: int) -> tuple[int, ...]:
        return self.rule(t, *self.args)

    @cached_property
    def group(self) -> int:
        return 1 + len(self.body(0))


def item_bodies(item) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The id and body of each gate a laid gate, family or copy
    defines, in its order, with no Gate made: the one expansion of a
    laid item.  A copy's bodies are its circuit's under the map, which
    may send a body variable to a negative literal (p -> -z_p): a body
    literal -p then reads z_p."""
    kind = type(item)
    if kind is Gate:
        yield item.var, item.body
    elif kind is GateFamily:
        rule, args = item.rule, item.args
        for t in range(item.count):
            yield item.base + t, rule(t, *args)
    else:
        m = item.varmap
        for g in item.circuit.gates:
            yield m[g.var], tuple([m[l] if l > 0 else -m[-l] for l in g.body])


def item_gates(item) -> tuple[Gate, ...]:
    """The gates a laid gate, family or copy defines: a gate itself,
    else built from item_bodies."""
    if type(item) is Gate:
        return (item,)
    return tuple(Gate(v, body) for v, body in item_bodies(item))


def clause_count(item) -> int:
    """How many clauses a laid item gives: a Gate its group, which is
    ``len(gate_group(g.var, g.body))`` for a gate whose body does not
    cite it, a GateFamily its gates' groups, a Copy its circuit's
    groups, a Clause one."""
    kind = type(item)
    if kind is Gate:
        return 1 + len(set(item.body))
    if kind is GateFamily:
        return item.count * item.group
    return item.circuit.group_ends[-1] if kind is Copy else 1


class _GateStarts(dict):
    """Where the group of each gate starts, by its id: one entry per
    gate or copied gate, while each gate family is kept once, with the
    position where its groups start, and a miss finds its gates from
    its id range, so a gate outside a family costs one dict read."""

    def __init__(self):
        super().__init__()
        self.families: list[tuple[GateFamily, int]] = []

    def __missing__(self, var: int) -> int:
        for fam, at in self.families:
            if 0 <= var - fam.base < fam.count:
                return at + (var - fam.base) * fam.group
        raise KeyError(var)


@dataclass(frozen=True, eq=False)
class Premises:
    """Premises read by position: the clauses of each item of ``laid``
    in order, over ``n`` variables.  An item is a Gate (its clause
    group, in gate_group order), a GateFamily (its gates' groups, in
    index order), a Clause (taken as it stands, such as the unit
    {-delta}) or a Copy (the groups of a circuit's gates under a copy
    map).  A set laid over another set lays that set's own items first
    (proofs.er_premises), so no Premises holds another.

    It reads like a ClauseSet (``n``, ``len``, indexing, iteration,
    ``clauses``) and answers ``gate_position``, ``gate_body`` and
    ``neg_delta_index``.  One table, ``_ends``, holds where each laid
    item's clauses start, then the length, and every reader finds its
    item there with one bisection.  Within the item, a family's gate is
    named by a divmod over its group size and only its body is
    computed; a copy's gate is found in its circuit's group offsets and
    only the literals read are mapped.  Offset 0 of a group is the wide
    clause, offset i the clause of the i-th distinct body literal.  A
    gate's body is read off the item found at its position, as a clause
    is.  Each clause built is kept by position, in this set's own memo.
    Nothing is built in full until ``clauses`` or iteration reads it
    (each item expanded by item_bodies into whole groups, as gen-c
    writes them), and once the tuple exists, indexing reads it.
    ``rows`` gives every clause's literals off the same expansion with
    no Clause made: the branching refuter's engine reads them."""

    laid: tuple
    n: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _ends(self) -> list[int]:
        """Where each laid item's clauses start, then the length."""
        return list(accumulate(map(clause_count, self.laid), initial=0))

    @cached_property
    def _starts(self) -> _GateStarts:
        """Where the group of each gate laid here starts."""
        starts = _GateStarts()
        for item, at in zip(self.laid, self._ends):
            if isinstance(item, Gate):
                starts[item.var] = at
            elif isinstance(item, GateFamily):
                starts.families.append((item, at))
            elif isinstance(item, Copy):
                m, gates = item.varmap, item.circuit.gates
                starts.update((m[g.var], at + e) for g, e in zip(gates, item.circuit.group_ends))
        return starts

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """Every clause, each laid item's groups built whole."""
        out = []
        for item in self.laid:
            if type(item) is Clause:
                out.append(item)
            else:
                for v, body in item_bodies(item):
                    out += gate_group(v, body)
        return ClauseSet(self.n, out).clauses

    def rows(self) -> list[tuple[int, ...]]:
        """The literals of every clause, by position, with no Clause
        made: a laid Clause's stored tuple, each gate's group_rows over
        item_bodies.  FormulaError, as ClauseSet gives, when a variable
        exceeds n."""
        rows = []
        for item in self.laid:
            if type(item) is Clause:
                rows.append(item._lits)
            else:
                for v, body in item_bodies(item):
                    rows += group_rows(v, body)
        top = max(map(abs, chain.from_iterable(rows)), default=0)
        if top > self.n:
            raise FormulaError(f"variable {top} out of range 1..{self.n}")
        return rows

    def __len__(self) -> int:
        return self._ends[-1]

    def __iter__(self):
        return iter(self.clauses)

    def variables(self) -> set[int]:
        """The variables that occur in some clause, read off the items
        without building a clause."""
        used = set()
        for item in self.laid:
            if type(item) is Clause:
                used.update(map(abs, item._lits))
            else:
                for v, body in item_bodies(item):
                    used.add(v)
                    used.update(map(abs, body))
        return used

    def clause(self, p: int) -> Clause:
        """The clause at position p; IndexError unless 0 <= p < len
        (a negative p does not count from the end)."""
        clause = self._memo.get(p)
        if clause is not None:
            return clause
        ends = self._ends
        if not 0 <= p < ends[-1]:
            raise IndexError(f"no clause at position {p} of {ends[-1]}")
        if "clauses" in self.__dict__:
            return self.clauses[p]
        t = bisect_right(ends, p) - 1
        item, i = self.laid[t], p - ends[t]
        kind = type(item)
        if kind is Clause:
            clause = item
        elif kind is Gate:
            if i == 0:
                clause = _wide_clause(item.var, item.body)
            else:
                lit = _distinct_body(item.body, ends[t + 1] - ends[t])[i - 1]
                clause = _body_clause(item.var, lit)
        elif kind is GateFamily:  # gate t of the family: its body alone
            t, i = divmod(i, item.group)
            v, body = item.base + t, item.body(t)
            clause = _wide_clause(v, body) if i == 0 else _body_clause(v, body[i - 1])
        else:  # a Copy: gate t of its circuit, mapped; only the literals used
            m, offsets = item.varmap, item.circuit.group_ends
            t = bisect_right(offsets, i) - 1
            g, i = item.circuit.gates[t], i - offsets[t]
            if i == 0:
                clause = _wide_clause(m[g.var], [m[l] if l > 0 else -m[-l] for l in g.body])
            else:
                lit = _distinct_body(g.body, offsets[t + 1] - offsets[t])[i - 1]
                clause = _body_clause(m[g.var], m[lit] if lit > 0 else -m[-lit])
        self._memo[p] = clause
        return clause

    __getitem__ = clause

    def gate_body(self, var: int) -> tuple[int, ...]:
        """The body of the gate laid here that defines var, computed
        from the item that holds gate_position(var), found in the item
        offsets as ``clause`` finds it: a Gate's body, a family gate's
        rule(var - base), or a copied gate's body under the copy map;
        no Gate is made.  KeyError when no gate laid here defines var."""
        p = self._starts[var]
        ends = self._ends
        t = bisect_right(ends, p) - 1
        item = self.laid[t]
        kind = type(item)
        if kind is Gate:
            return item.body
        if kind is GateFamily:
            return item.body(var - item.base)
        m = item.varmap
        g = item.circuit.gates[bisect_right(item.circuit.group_ends, p - ends[t]) - 1]
        return tuple([m[l] if l > 0 else -m[-l] for l in g.body])

    def gate_position(self, var: int) -> int:
        """Where var's gate group starts: its wide clause, then at 1 + i
        the two-literal clause of its i-th distinct body literal, in
        body order.  KeyError when no gate laid here defines var.  A
        family's gate is found from the family's id range."""
        return self._starts[var]

    @property
    def neg_delta_index(self) -> int:
        """The first clause laid as it stands: the unit {-delta} in a
        Carrier, in gen_correct's set and in a set laid over either, but
        a ClauseSet's first clause in er_premises over it."""
        for item, at in zip(self.laid, self._ends):
            if isinstance(item, Clause):
                return at
        raise ValueError("no clause is laid as it stands")


@dataclass(frozen=True, eq=False)
class Carrier(Premises):
    """A generated clause set, laid out by assemble_carrier: the
    Premises that lays the verdict block, {-delta}, the pre-block and
    the copies, whose inner gates take the ids above every other, up to
    ``n``.  It adds what its items do not hold: the ``frees`` (branch
    or address bits) and the ``verdict`` block (gates and gate
    families), whose last item is the gate of the output ``delta``;
    the carrier circuit and the copy maps are read off the items."""

    frees: tuple[int, ...]
    verdict: tuple

    @property
    def delta(self) -> int:
        return self.verdict[-1].var

    @cached_property
    def copy_maps(self) -> tuple[dict[int, int], ...]:
        """Each copy's variable map, copy 0 first."""
        return tuple(item.varmap for item in self.laid if isinstance(item, Copy))

    def gate_walk(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """The id and body of each gate of the pre-block, then of each
        copy, in layout order (item_bodies): the carrier circuit's
        gates without the verdict block, with no Gate made."""
        for item in self.laid[len(self.verdict) + 1:]:
            yield from item_bodies(item)

    @cached_property
    def circuit(self) -> Circuit:
        """The gates pre-block, copies, verdict block; output delta.
        The families' and copies' gates are built here, once.  Its
        readers are graft_fold's host, tableau.address_sweep and the
        tests; truthdef_translate and the verifier read the carrier by
        position (gate_position, gate_body, gate_walk) instead."""
        items = self.laid[len(self.verdict) + 1:] + self.verdict
        gates = tuple(g for item in items for g in item_gates(item))
        return Circuit(self.frees, gates, (self.delta,))


def assemble_carrier(
    frees: tuple[int, ...],
    pre: Sequence,
    beta: Circuit,
    base: int,
    ports: Sequence[dict[int, int]],
    verdict: Sequence,
) -> Carrier:
    """The one carrier layout, shared by ``gen_C`` and ``gen_tableau``.

    Copy k of ``beta`` sends the variables keyed in ``ports[k]``
    (inputs and outputs) to their images and its t-th other gate to
    ``base + t * len(ports) + k``; spare frees stay in place.  The
    circuit has the gates pre-block, copies, verdict block, in that
    order, and outputs delta, the verdict block's last gate.  The
    pre-block and the verdict block are sequences of gates and gate
    families.  The clause set lays the verdict block's groups, the unit
    {-delta}, the pre-block's groups, then each copy's, over variables
    up to the last copy id (or delta).

    This block arithmetic is normative: the verifier takes ``len`` and
    the cited clauses from it, and the graft folds cite gate clauses
    at their ``gate_position``, so neither builds the set.  A gate
    gives one clause per distinct body literal plus one, and a copy
    map that is injective keeps that count, so every copy has as many
    clauses as beta.  The port check makes it injective: tree spare
    frees lie in 1..n, a grid has none."""
    stride = len(ports)
    delta = verdict[-1].var
    n = max(base + (len(beta.gates) - len(beta.outputs)) * stride - 1, delta)
    inner = [g.var for g in beta.gates if g.var not in ports[0]]
    free = {v: v for v in beta.free}
    copies = (
        Copy(beta, {**free, **dict(zip(inner, count(base + k, stride))), **port})
        for k, port in enumerate(ports)
    )
    laid = (*verdict, canonical_clause((-delta,)), *pre, *copies)
    return Carrier(laid, n, tuple(frees), tuple(verdict))


class CircuitBuilder:
    """Convenience layer for the generator modules."""

    def __init__(self, fresh: VarAlloc):
        self.fresh = fresh
        self.frees: list[int] = []
        self.gates: list[Gate] = []

    def free(self, var: Optional[int] = None) -> int:
        v = self.fresh.fresh() if var is None else var
        self.frees.append(v)
        return v

    def gate(self, body: Iterable[int]) -> int:
        v = self.fresh.fresh()
        self.gates.append(Gate(v, tuple(body)))
        return v

    def or_(self, *lits: int) -> int:
        return self.gate(lits)

    def not_(self, lit: int) -> int:
        return self.gate((-lit,))

    def and_(self, *lits: int) -> int:
        # d holds the negated conjunction; a second gate flips it
        d = self.gate(tuple(-l for l in lits))
        return self.gate((-d,))

    def const_true(self, over: int) -> int:
        return self.gate((over, -over))

    def build(self, outputs: Iterable[int] = ()) -> Circuit:
        return Circuit(tuple(self.frees), tuple(self.gates), tuple(outputs))


def serialize_circuit(c: Circuit) -> str:
    lines = [f"circ {max_var(c)}"]
    lines.append("free " + " ".join(str(v) for v in c.free))
    for g in c.gates:
        lines.append(f"gate {g.var} " + " ".join(str(l) for l in g.body) + " 0")
    lines.append("out " + " ".join(str(v) for v in c.outputs))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    free: list[int] = []
    gates: list[Gate] = []
    outputs: list[int] = []
    declared = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            args = [int(t) for t in parts[1:]]
        except ValueError:
            raise CircuitError(f"bad token in line {line!r}") from None
        if kind == "circ":
            if declared is not None or len(args) != 1:
                raise CircuitError("malformed circ header")
            declared = args[0]
        elif declared is None:
            raise CircuitError("data before circ header")
        elif kind == "free":
            free.extend(args)
        elif kind == "gate":
            if len(args) < 3 or args[-1] != 0:
                raise CircuitError(f"malformed gate line {line!r}")
            gates.append(Gate(args[0], tuple(args[1:-1])))
        elif kind == "out":
            outputs.extend(args)
        else:
            raise CircuitError(f"unknown line kind {kind!r}")
    if declared is None:
        raise CircuitError("missing circ header")
    c = Circuit(tuple(free), tuple(gates), tuple(outputs))
    if max_var(c) > declared:
        raise CircuitError(f"variable exceeds declared bound {declared}")
    report = validate_circuit(c)
    if not report:
        raise CircuitError(f"invalid circuit: {report.reason}")
    return c
