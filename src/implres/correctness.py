"""Generators for the correctness clause sets.

The central artifact is the clause set C over a clause set Omega and a
tree-describing circuit: it is unsatisfiable exactly when every leaf
clause extracted from the circuit weakens some member of Omega, i.e.
when the described refutation is correct.

Canonical variable layout (normative for proof portability):
  1..n                      branch variables z_1..z_n
  lambda block              tt, then the window grid u_{i,j} row-major
  w grid                    w_{i,m} row-major (defined by copy outputs)
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
is stored: the delta block's gates, the unit {-delta}, the lambda
block's gates (gen_delta and gen_lambda return the gates they lay),
then the copies of beta, each read through its copy map off one table
of beta's group sizes.  A gate contributes one clause plus one per
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
    CircuitBuilder,
    CircuitReport,
    Copy,
    Gate,
    Premises,
    VarAlloc,
    assemble_carrier,
    max_var,
)
from .encoding import TreeInterface, bit, check_interface, output_width
from .formulas import Clause, ClauseSet


class CorrectnessError(ValueError):
    pass


class InterfaceError(CorrectnessError):
    """beta fails the port check against its interface."""

    stage = "interface"  # where implicit.verify_carrier reports it


def gen_delta(
    omega: ClauseSet,
    n: int,
    fresh: VarAlloc,
    x_vars: tuple[int, ...],
    y_vars: tuple[tuple[int, ...], ...],
) -> tuple[Gate, ...]:
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
    omega's order (NOT tt for an omega without clauses)."""
    width = output_width(n)
    b = CircuitBuilder(fresh)
    need_const = len(omega.clauses) == 0 or any(not c.literals for c in omega)
    const = b.const_true(x_vars[0]) if need_const else None

    s_vars: dict[tuple[int, int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in (0, 1):
                body = (x_vars[i - 1] if k == 0 else -x_vars[i - 1],) + tuple(
                    -y_vars[i - 1][m - 1] if bit(m, j) else y_vars[i - 1][m - 1]
                    for m in range(1, width + 1)
                )
                s_vars[(i, j, k)] = b.gate(body)
    l_vars: dict[tuple[int, int], int] = {}
    for j in range(1, n + 1):
        for k in (0, 1):
            l_vars[(j, k)] = b.gate(tuple(-s_vars[(i, j, k)] for i in range(1, n + 1)))
    w_list = []
    for c in omega:
        if not c.literals:
            w_list.append(b.not_(const))
            continue
        body = tuple(
            -l_vars[(abs(lit), 1 if lit > 0 else 0)] for lit in c
        )
        w_list.append(b.gate(body))
    if omega.clauses:
        b.gate(tuple(-w for w in w_list))
    else:
        b.not_(const)
    return tuple(b.gates)


def gen_lambda(n: int, fresh: VarAlloc, z_vars: tuple[int, ...]) -> tuple[tuple[Gate, ...], dict]:
    """The window grid over the branch variables z_vars: its gates on
    ids from fresh, tt first, and its cells, where row i of u_{i,j}
    spells the depth-i window: zeros, a one at column n-i+1, then z_1.."""
    b = CircuitBuilder(fresh)
    tt = b.const_true(z_vars[0])
    grid: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(0, n + 1):
            if j <= n - i:
                grid[(i, j)] = b.not_(tt)
            elif j == n - i + 1:
                grid[(i, j)] = b.gate((tt,))
            else:
                grid[(i, j)] = b.gate((z_vars[j - (n - i + 1) - 1],))
    return tuple(b.gates), grid


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
    lam_gates, cell = gen_lambda(n, fresh, z_vars)
    w_rows = tuple(tuple(fresh.fresh() for _ in range(output_width(n))) for _ in range(n))
    verdict = gen_delta(omega, n, fresh, z_vars, w_rows)
    copy_base = fresh.next_var

    ports = []
    for i in range(1, n + 1):
        port = {x: cell[(i, j)] for j, x in enumerate(iface.inputs)}
        port.update(zip(iface.outputs, w_rows[i - 1]))
        ports.append(port)
    carrier = assemble_carrier(z_vars, lam_gates, beta, copy_base, ports, verdict)
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
