"""Extension-gate circuits.

A gate defines an extension variable as the disjunction of 1..k
literals; a circuit is an acyclic, topologically ordered sequence of
such gates over a set of free input variables, plus an ordered list of
output variables.  Circuits expand to CNF via the standard clause
group of each gate, evaluate deterministically on any total input
assignment, and can be duplicated with fresh extension variables and
chosen input substitutions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .formulas import (
    Clause,
    ClauseSet,
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


def gate_clauses(g: Gate) -> tuple[Clause, ...]:
    """The defining clause group, exact duplicates collapsed.

    Order is fixed: the wide clause first, then one two-literal clause
    per body literal in body order.  The literals were validated when
    the gate was made, so the clauses are built on the trusted path.
    """
    return gate_group(g.var, g.body)


def gate_group(v: int, body: tuple[int, ...]) -> tuple[Clause, ...]:
    """Trusted: ``gate_clauses`` of the gate v = OR(body), for a
    variable and literals that are already valid, without making the
    Gate (as ``canonical_clause`` makes a Clause without checks).  The
    wide clause is left unordered (``derived_clause``); the duplicate
    check reads stored tuples, and only a clause of a body literal on
    v itself can repeat the wide clause."""
    wide = _wide_clause(v, body)
    out = [wide]
    seen = set()
    for lit in body:
        cl = _body_clause(v, lit)
        if abs(lit) == v and cl == wide:
            continue
        if cl._lits not in seen:
            seen.add(cl._lits)
            out.append(cl)
    return tuple(out)


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


def circuit_size(c: Circuit) -> int:
    """Size measure: total literal occurrences across gate bodies."""
    return sum(len(g.body) for g in c.gates)


def circuit_clauses(c: Circuit) -> Premises:
    """The gate clause groups of c in gate order, over max_var(c)
    variables, with each group at its ``gate_position``."""
    return Premises(ClauseSet(0), c.gates, (), max_var(c))


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


def map_literal(lit: int, varmap: dict[int, int]) -> int:
    v = varmap[abs(lit)]
    return v if lit > 0 else -v


def duplicate(
    c: Circuit, subs: Iterable[tuple[int, int]], fresh: VarAlloc
) -> tuple[Circuit, dict[int, int]]:
    """Isomorphic copy: fresh extension vars, substituted inputs.

    Returns the copy and the witnessing variable map.  Free variables
    not mentioned in ``subs`` are fixed; the map is bijective onto the
    copy's variables.
    """
    sub_map = dict(subs)
    all_vars = c.variables()
    for src in sub_map:
        if src not in all_vars:
            raise CircuitError(f"substitution source {src} not in circuit")
    varmap = {v: sub_map.get(v, v) for v in c.free}
    start = fresh.next_var
    gates = []
    for g in c.gates:
        if g.var in sub_map:
            raise CircuitError(f"substitution source {g.var} is an extension var")
        body = tuple(map_literal(l, varmap) for l in g.body)
        nv = fresh.fresh()
        varmap[g.var] = nv
        gates.append(Gate(nv, body))
    for tgt in sub_map.values():
        if start <= tgt < fresh.next_var:
            raise CircuitError(f"substitution target {tgt} collides with fresh vars")
    if len(set(varmap.values())) != len(varmap):
        raise CircuitError("substitution targets collide; map not injective")
    dup = Circuit(
        free=tuple(varmap[v] for v in c.free),
        gates=tuple(gates),
        outputs=tuple(varmap[v] for v in c.outputs),
    )
    return dup, varmap


def check_embedding(c: Circuit, d: Circuit, f: dict[int, int]) -> CircuitReport:
    """Is ``f`` a gate-preserving injection of ``c`` into ``d``?"""
    cvars = c.variables()
    for v in cvars:
        if v not in f:
            return CircuitReport(False, f"map undefined on {v}")
    img = [f[v] for v in cvars]
    if len(set(img)) != len(img):
        return CircuitReport(False, "map not injective")
    dfree = set(d.free)
    for v in c.free:
        if f[v] not in dfree:
            return CircuitReport(False, f"free {v} maps to non-free {f[v]}")
    dmap = d.gate_map()
    for g in c.gates:
        tgt = dmap.get(f[g.var])
        if tgt is None:
            return CircuitReport(False, f"gate {g.var} maps to non-gate {f[g.var]}")
        want = frozenset(map_literal(l, f) for l in g.body)
        have = frozenset(tgt.body)
        if want != have:
            return CircuitReport(False, f"gate {g.var}: body mismatch under map")
    return CircuitReport(True)


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


def _gate_variables(gates: Iterable[Gate]) -> set[int]:
    """The variables that occur in the clause groups of gates: each
    gate's own (its wide clause holds it) and its body's."""
    return {v for g in gates for v in (g.var, *map(abs, g.body))}


def gate_clause_count(g: Gate) -> int:
    """``len(gate_clauses(g))`` for a gate whose body does not cite it."""
    return 1 + len(set(g.body))


@dataclass(frozen=True, eq=False)
class Premises:
    """Premises read by position: the clauses of ``base`` (a ClauseSet,
    a Carrier or another Premises), then the clause groups of
    ``gates`` in gate_clauses order, then ``units``, over ``n``
    variables.

    It reads like a ClauseSet (``n``, ``len``, indexing, iteration,
    ``clauses``) and answers ``gate_position`` and ``neg_delta_index``
    as a Carrier does.  base is read by ``len`` and position only, a
    gate clause is built alone when it is read (the wide clause, or the
    clause of one distinct body literal), and each clause read is kept
    by position, so nothing is built in full until ``clauses`` or
    iteration reads it."""

    base: object
    gates: tuple[Gate, ...]
    units: tuple[Clause, ...]
    n: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _ends(self) -> list[int]:
        """Where each gate's group starts, then where the units do."""
        return list(accumulate(map(gate_clause_count, self.gates), initial=len(self.base)))

    @cached_property
    def _starts(self) -> dict[int, int]:
        return {g.var: at for g, at in zip(self.gates, self._ends)}

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        groups = (c for g in self.gates for c in gate_clauses(g))
        return (*self.base.clauses, *groups, *self.units)

    def __len__(self) -> int:
        return self._ends[-1] + len(self.units)

    def __iter__(self):
        return iter(self.clauses)

    def variables(self) -> set[int]:
        """The variables that occur in some clause, read off base, the
        gates and the units without building a clause."""
        units = {abs(lit) for u in self.units for lit in u._lits}
        return self.base.variables() | _gate_variables(self.gates) | units

    def clause(self, p: int) -> Clause:
        """The clause at position p; IndexError unless 0 <= p < len."""
        clause = self._memo.get(p)
        if clause is not None:
            return clause
        ends = self._ends
        if p >= ends[-1]:
            return self.units[p - ends[-1]]
        if p < ends[0]:
            if p < 0:
                raise IndexError(f"no clause at position {p} of {len(self)}")
            clause = self._memo[p] = self.base[p]
            return clause
        t = bisect_right(ends, p) - 1
        g, i = self.gates[t], p - ends[t]
        if i == 0:
            clause = _wide_clause(g.var, g.body)
        else:
            clause = _body_clause(g.var, _distinct_body(g.body, ends[t + 1] - ends[t])[i - 1])
        self._memo[p] = clause
        return clause

    __getitem__ = clause

    def gate_position(self, var: int) -> int:
        """Where var's gate group starts: among the gates laid here,
        else in base.  KeyError when neither defines var."""
        if var in self._starts or isinstance(self.base, ClauseSet):
            return self._starts[var]
        return self.base.gate_position(var)

    @property
    def neg_delta_index(self) -> int:
        """The unit {-delta}: the first of the units, or base's when
        there is none."""
        return self._ends[-1] if self.units else self.base.neg_delta_index


@dataclass(frozen=True, eq=False)
class Carrier:
    """A generated clause set, laid out by assemble_carrier.

    It reads like a ClauseSet (``n``, ``len``, indexing, iteration,
    ``clauses``) but builds only what is read: the head (verdict
    block, {-delta}, pre-block) is a Premises view, and the clause at
    a position of a copy is found from prefix sums of beta's gate
    clause counts and built alone, never its gate's whole group.
    Offset 0 of a group is the wide clause; offset i is the clause of
    the i-th distinct body literal of beta's gate, mapped through the
    copy map, which is injective, so the literals stay distinct.  Each
    clause read is kept by position.  The clause tuple, circuit and
    copy maps are built in full when first read (the tuple group by
    group, as synthesis reads it); once the tuple exists, indexing
    reads it."""

    frees: tuple[int, ...]
    pre: tuple[Gate, ...]
    beta: Circuit
    base: int
    ports: tuple[dict[int, int], ...]
    verdict: tuple[Gate, ...]
    delta: int
    n: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def head(self) -> Premises:
        """The verdict block's groups, {-delta}, then the pre-block's."""
        verdict = Premises(ClauseSet(0), self.verdict, (canonical_clause((-self.delta,)),), self.n)
        return Premises(verdict, self.pre, (), self.n)

    neg_delta_index = property(lambda self: self.head.neg_delta_index)

    @cached_property
    def _inner(self) -> dict[int, int]:
        """Stride slot t of each gate of beta that no port names."""
        inner = [g.var for g in self.beta.gates if g.var not in self.ports[0]]
        return {v: t for t, v in enumerate(inner)}

    @cached_property
    def copy_maps(self) -> tuple[dict[int, int], ...]:
        """Each copy's variable map, laid as assemble_carrier says: the
        port images, slot t of copy k at base + t * stride + k, and the
        spare frees in place."""
        stride, free = len(self.ports), {v: v for v in self.beta.free}
        return tuple(
            {**free, **{v: self.base + t * stride + k for v, t in self._inner.items()}, **port}
            for k, port in enumerate(self.ports)
        )

    @cached_property
    def circuit(self) -> Circuit:
        copies = (
            Gate(m[g.var], tuple(map_literal(l, m) for l in g.body))
            for m in self.copy_maps for g in self.beta.gates
        )
        return Circuit(self.frees, (*self.pre, *copies, *self.verdict), (self.delta,))

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        slots = range(len(self.beta.gates))
        groups = (self._group(k, t) for k in range(len(self.ports)) for t in slots)
        clauses = (*self.head.clauses, *(c for group in groups for c in group))
        return ClauseSet(self.n, clauses).clauses

    @cached_property
    def _table(self):
        """The head's length and the prefix sums of one copy's clause
        counts."""
        return len(self.head), list(accumulate(map(gate_clause_count, self.beta.gates), initial=0))

    @cached_property
    def _positions(self) -> dict[int, int]:
        """Where the group of each copy's gate starts."""
        head, ends = self._table
        return {
            m[g.var]: head + k * ends[-1] + ends[t]
            for k, m in enumerate(self.copy_maps) for t, g in enumerate(self.beta.gates)
        }

    def gate_position(self, var: int) -> int:
        """Where var's gate group starts: its wide clause, then at 1 + i
        the two-literal clause of its i-th distinct body literal, in
        body order.  KeyError when no gate of the carrier defines var."""
        at = self._positions.get(var)
        return self.head.gate_position(var) if at is None else at

    @cached_property
    def _len(self) -> int:
        head, copy_ends = self._table
        return head + len(self.ports) * copy_ends[-1]

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self.clauses)

    def variables(self) -> set[int]:
        """The variables that occur in some clause: the head's, then
        those of beta's gates under each copy map, with no clause
        built."""
        used = _gate_variables(self.beta.gates)
        return self.head.variables().union(*({m[v] for v in used} for m in self.copy_maps))

    def clause(self, p: int) -> Clause:
        """The clause at position p; IndexError unless 0 <= p < len
        (a negative p does not count from the end)."""
        if not 0 <= p < self._len:
            raise IndexError(f"no clause at position {p} of {self._len}")
        if "clauses" in self.__dict__:
            return self.clauses[p]
        clause = self._memo.get(p)
        if clause is not None:
            return clause
        head, ends = self._table
        if p < head:
            return self.head.clause(p)
        k, q = divmod(p - head, ends[-1])
        t = bisect_right(ends, q) - 1
        m, i = self.copy_maps[k], q - ends[t]
        v = m[self.beta.gates[t].var]
        if i == 0:
            clause = _wide_clause(v, self._image(k, t))
        else:
            lit = _distinct_body(self.beta.gates[t].body, ends[t + 1] - ends[t])[i - 1]
            clause = _body_clause(v, m[lit] if lit > 0 else -m[-lit])
        self._memo[p] = clause
        return clause

    def _image(self, k: int, t: int) -> tuple[int, ...]:
        """The body of gate t of copy k.  check_ports validated beta,
        so the copy gate's clauses are built on the trusted path."""
        m = self.copy_maps[k]
        return tuple([m[l] if l > 0 else -m[-l] for l in self.beta.gates[t].body])

    def _group(self, k: int, t: int) -> tuple[Clause, ...]:
        """Clause group of gate t of copy k."""
        return gate_group(self.copy_maps[k][self.beta.gates[t].var], self._image(k, t))

    __getitem__ = clause


def assemble_carrier(
    frees: tuple[int, ...],
    pre: Sequence[Gate],
    beta: Circuit,
    base: int,
    ports: Sequence[dict[int, int]],
    verdict: Sequence[Gate],
    delta: int,
) -> Carrier:
    """The one carrier layout, shared by ``gen_C`` and ``gen_tableau``.

    Copy k of ``beta`` sends the variables keyed in ``ports[k]``
    (inputs and outputs) to their images and its t-th other gate to
    ``base + t * len(ports) + k``; spare frees stay in place.  The
    circuit has the gates pre-block, copies, verdict block, in that
    order, and output ``delta``.  The clause set holds the verdict
    block's clauses, the unit {-delta}, the pre-block's clauses, then
    each copy's clauses, over variables up to the last copy id (or
    delta).

    This block arithmetic is normative: the verifier takes ``len`` and
    the cited clauses from it, and the graft folds cite gate clauses
    at their ``gate_position``, so neither builds the set.  A gate
    gives one clause per distinct body literal plus one, and a copy
    map that is injective keeps that count, so every copy has as many
    clauses as beta.  The port check makes it injective: tree spare
    frees lie in 1..n, a grid has none."""
    ports = tuple(ports)
    n = max(base + (len(beta.gates) - len(beta.outputs)) * len(ports) - 1, delta)
    return Carrier(tuple(frees), tuple(pre), beta, base, ports, tuple(verdict), delta, n)


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

    def gate(self, body: Iterable[int], var: Optional[int] = None) -> int:
        v = self.fresh.fresh() if var is None else var
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
