"""Generators for the correctness clause sets.

The central artifact is the clause set C over a clause set Omega and a
tree-describing circuit: it is unsatisfiable exactly when every leaf
clause extracted from the circuit weakens some member of Omega, i.e.
when the described refutation is correct.

Canonical variable layout (normative for proof portability):
  1..n                      branch variables z_1..z_n
  lambda block              tt, then the window grid u_{i,j} row-major
  w grid                    w_{i,m} row-major (defined by copy outputs),
                            at n + 2 + n(n+1) + (i-1)*width + (m-1)
  delta block               weakening-checker gates, delta last
  copy gates                copy i of the t-th non-output gate at
                            copy_base + (t-1)*n + (i-1)
Interleaving copies by gate position and placing the delta block
before them keeps every variable that does not belong to the described
circuit itself at an id depending only on (n, Omega), so clause sets
for grown circuits literally contain the originals.

Gate and clause order follow circuits.assemble_carrier, with the
lambda block as pre-block and the delta block as verdict block.

The block arithmetic is normative: the verifier takes |C| and the
clause at a cited position from it, and never builds C in full.  C is
one circuits.Carrier, whose flat sequence is the one place the layout
is stored: the delta block's items, the unit {-delta}, the lambda
block's items (gen_delta and gen_lambda return the items they lay),
then the copies of beta, each read through its copy map off one table
of beta's group sizes.  The regular blocks are gate families
(circuits.GateFamily), each gate's body a closed-form function of its
index: lambda's n(n + 1) window cells, and the checker's 2n^2 s-gates
and 2n l-gates; tt, the w gates and delta are gates.  A cited clause
of a family is computed from its gate's index alone, so the verifier
builds no gate of a family.  A gate contributes one clause plus one per
distinct body literal, and each copy map is injective (window and w
images lie above n, copy gates above every other id, and spare frees
stay at ids 1..n), so every copy of beta holds the same number of
clauses as beta itself.  gen_C returns that carrier and no id table
beside it: delta is the verdict block's last gate, w_{i,m} is copy
i's image of beta's m-th output, and the checker's inner ids are read
off its gate bodies (see gen_delta).
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (
    Carrier,
    Circuit,
    CircuitReport,
    Copy,
    Gate,
    GateFamily,
    Premises,
    VarAlloc,
    assemble_carrier,
    max_var,
    validate_circuit,
)
from .encoding import TreeInterface, bit, check_interface, output_width
from .formulas import Clause, ClauseSet


class CorrectnessError(ValueError):
    pass


class InterfaceError(CorrectnessError):
    """beta fails the port check against its interface."""

    stage = "interface"  # where implicit.verify_carrier reports it


def _slot_gate(t: int, n: int, x_vars, y_vars) -> tuple[int, ...]:
    """Body of s-gate t = 2((i - 1)n + j - 1) + k: false iff slot i
    spells literal j (k = 1) or -j (k = 0)."""
    i, r = divmod(t, 2 * n)
    j, k = r // 2 + 1, r % 2
    x = x_vars[i]
    return (-x if k else x, *(-y if bit(m, j) else y for m, y in enumerate(y_vars[i], 1)))


def _literal_gate(t: int, n: int, s_base: int) -> tuple[int, ...]:
    """Body of l-gate t = 2(j - 1) + k: OR(-s_{i,j,k} : i = 1..n)."""
    return tuple(-(s_base + 2 * n * i + t) for i in range(n))


def _window_cell(t: int, n: int, tt: int, z_vars) -> tuple[int, ...]:
    """Body of window cell t = (i - 1)(n + 1) + j: u_{i,j} is NOT tt
    for j <= n - i, tt at j = n - i + 1, then z_1.. in turn."""
    i, j = divmod(t, n + 1)  # i is the depth less one
    lead = n - i
    return (-tt,) if j < lead else (tt,) if j == lead else (z_vars[j - lead - 1],)


def gen_delta(
    omega: ClauseSet,
    n: int,
    fresh: VarAlloc,
    x_vars: tuple[int, ...],
    y_vars: tuple[tuple[int, ...], ...],
) -> tuple:
    """The checker over the inputs x_vars (sign bits) and y_vars (one
    row of index bits per slot), its gates on ids from fresh: delta is
    true iff the clause the n slots spell weakens some member of omega.
    The gates, in the order truthdef_translate reads off their bodies:
    tt = OR(x_1, -x_1) when some clause of omega is empty (or omega
    has none); s_{i,j,k} for (i, j, k) row-major, false iff slot i
    spells literal j (k = 1) or -j (k = 0); l_{j,k} = OR(-s_{i,j,k} :
    i = 1..n) for (j, k) row-major; one w_C = OR(-l_{|lit|,[lit > 0]} :
    lit in C) per clause C of omega, in omega's and C's literal order
    (NOT tt for an empty C); last delta = OR(-w_C : C in omega), in
    omega's order (NOT tt for an omega without clauses).  The 2n^2
    s-gates and the 2n l-gates are two GateFamily blocks; tt, the w
    gates and delta are Gates."""
    need_const = len(omega.clauses) == 0 or any(not c.literals for c in omega)
    const = Gate(fresh.fresh(), (x_vars[0], -x_vars[0])) if need_const else None
    s = GateFamily(fresh.take(2 * n * n), 2 * n * n, _slot_gate, (n, x_vars, y_vars))
    l = GateFamily(fresh.take(2 * n), 2 * n, _literal_gate, (n, s.base))
    w_list = [
        Gate(fresh.fresh(), tuple(-(l.base + 2 * abs(lit) - 2 + (lit > 0)) for lit in c)
             if c.literals else (-const.var,))
        for c in omega
    ]
    delta = Gate(fresh.fresh(), tuple(-w.var for w in w_list) if w_list else (-const.var,))
    return (*((const,) if const else ()), s, l, *w_list, delta)


def gen_lambda(n: int, fresh: VarAlloc, z_vars: tuple[int, ...]) -> tuple[Gate, GateFamily]:
    """The window grid over the branch variables z_vars, on ids from
    fresh: the gate tt, then the cells as one GateFamily, where cell
    (i - 1)(n + 1) + j is u_{i,j} and row i spells the depth-i window:
    zeros, a one at column n-i+1, then z_1.."""
    tt = Gate(fresh.fresh(), (z_vars[0], -z_vars[0]))
    cells = GateFamily(fresh.take(n * (n + 1)), n * (n + 1), _window_cell, (n, tt.var, z_vars))
    return tt, cells


@dataclass(frozen=True)
class CorrectnessBundle:
    """gen_C's or gen_tableau's set: all its layout is the carrier's."""

    clauses: Carrier  # its circuit: all gates over the frees, output delta


def gen_C(omega: ClauseSet, beta: Circuit, iface: TreeInterface) -> CorrectnessBundle:
    """Correctness clause set for the refutation described by beta.

    Satisfiable exactly when some branch-bit vector x yields a leaf
    clause that weakens no member of omega.  Spare frees of beta (ids
    within 1..n) stay in place in every copy; the port check keeps
    them out of the outputs' fan-in, so every copy's outputs read its
    window alone, as decode_window does.
    """
    n = iface.n
    if omega.n != n:
        raise CorrectnessError(f"omega over {omega.n} variables, interface says {n}")
    rep = check_interface(beta, iface)
    if not rep:
        raise InterfaceError(rep.reason)

    z_vars = tuple(range(1, n + 1))
    fresh = VarAlloc(n + 1)
    pre = gen_lambda(n, fresh, z_vars)
    cells = pre[-1].base
    w_rows = tuple(tuple(fresh.fresh() for _ in range(output_width(n))) for _ in range(n))
    verdict = gen_delta(omega, n, fresh, z_vars, w_rows)
    copy_base = fresh.next_var

    ports = []
    for i in range(n):
        port = {x: cells + i * (n + 1) + j for j, x in enumerate(iface.inputs)}
        port.update(zip(iface.outputs, w_rows[i]))
        ports.append(port)
    carrier = assemble_carrier(z_vars, pre, beta, copy_base, ports, verdict)
    return CorrectnessBundle(carrier)


def serialize_sidecar(bundle: CorrectnessBundle) -> str:
    """The layout, read off the carrier: w_{i,m} is copy i's image of
    beta's m-th output."""
    cs = bundle.clauses
    lines = [f"zvar {i} {v}" for i, v in enumerate(cs.frees, start=1)]
    for i, copy in enumerate((c for c in cs.laid if isinstance(c, Copy)), start=1):
        lines += (f"wvar {i} {m} {copy.varmap[y]}" for m, y in enumerate(copy.circuit.outputs, 1))
    lines.append(f"delta {cs.delta}")
    lines.append(f"neg-delta-clause {cs.neg_delta_index}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SearchProblem:
    """A total search relation: the checker accepts (x, y) pairs, the
    algorithm proposes y from x; shared variables are exactly x and y."""

    n: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    algorithm: Circuit
    checker: Circuit


def check_search_problem(sp: SearchProblem) -> CircuitReport:
    """Both circuits are valid (gen_correct lays their gates, whose
    clause counts assume it) and share exactly the x and y blocks."""
    for name, c in (("algorithm", sp.algorithm), ("checker", sp.checker)):
        rep = validate_circuit(c)
        if not rep:
            return CircuitReport(False, f"invalid {name}: {rep.reason}")
    if len(sp.xs) != sp.n or len(set(sp.xs)) != sp.n:
        return CircuitReport(False, "bad input block")
    if tuple(sp.algorithm.free) != sp.xs:
        return CircuitReport(False, "algorithm frees are not the inputs")
    if tuple(sp.algorithm.outputs) != sp.ys:
        return CircuitReport(False, "algorithm outputs are not the y block")
    if set(sp.checker.free) != set(sp.xs) | set(sp.ys):
        return CircuitReport(False, "checker frees are not exactly inputs plus y block")
    if len(sp.checker.outputs) != 1:
        return CircuitReport(False, "checker must have a single verdict output")
    shared = set(sp.algorithm.variables()) & set(sp.checker.variables())
    if shared != set(sp.xs) | set(sp.ys):
        return CircuitReport(
            False, f"shared variables {sorted(shared)} beyond the interface"
        )
    return CircuitReport(True)


def gen_correct(sp: SearchProblem) -> Premises:
    """Clauses asserting the algorithm errs on some input: the
    algorithm's gate groups, the checker's, and the negated verdict,
    the view's ``neg_delta_index``.  Each gate's group sits at the
    view's ``gate_position``."""
    rep = check_search_problem(sp)
    if not rep:
        raise CorrectnessError(f"bad search problem: {rep.reason}")
    verdict = sp.checker.outputs[0]
    n = max(max_var(sp.algorithm), max_var(sp.checker), verdict)
    laid = (*sp.algorithm.gates, *sp.checker.gates, Clause((-verdict,)))
    return Premises(laid, n)
