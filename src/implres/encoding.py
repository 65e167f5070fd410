"""Circuit descriptions of balanced decision trees.

A described tree over clause variables p_1..p_n is addressed by
windows: length-(n+1) input vectors over x_0..x_n.  The root window
is 0^n 1; moving to a child drops x_0 and shifts the branch bit in
from the right (0 for the left child).  A depth-i window therefore
looks like 0^(n-i+1) 1 b_1..b_(i-1).  The circuit's output bits
y_1..y_w (w = bit length of n, y_1 the least significant) name the
variable queried at that node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .circuits import Circuit, CircuitBuilder, CircuitReport, VarAlloc, check_ports, evaluate
from .formulas import Clause
from .prover import DecisionTree, Leaf, Node


class EncodingError(ValueError):
    pass


def bit(m: int, j: int) -> int:
    """m-th least significant bit of j, m >= 1."""
    return (j >> (m - 1)) & 1


def output_width(n: int) -> int:
    return n.bit_length()


def window_bits(n: int, depth: int, prefix: Iterable[int]) -> tuple[int, ...]:
    prefix = tuple(prefix)
    if not 1 <= depth <= n or len(prefix) != depth - 1:
        raise EncodingError(f"bad window depth {depth} / prefix {prefix}")
    return (0,) * (n - depth + 1) + (1,) + prefix


@dataclass(frozen=True)
class TreeInterface:
    """Input/output contract of a tree-describing circuit."""

    n: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))


def check_interface(circuit: Circuit, iface: TreeInterface) -> CircuitReport:
    """Port check: n+1 window inputs, bit-length-of-n outputs, spare
    frees within 1..n and outside the outputs' fan-in."""
    if iface.n < 1:
        return CircuitReport(False, f"bad variable count {iface.n}")
    return check_ports(circuit, iface, iface.n + 1, output_width(iface.n), iface.n)


def interface_from_circuit(circuit: Circuit, n: int) -> TreeInterface:
    """Read the positional convention: first n+1 frees, all outputs."""
    if len(circuit.free) < n + 1:
        raise EncodingError("circuit has fewer frees than declared inputs")
    return TreeInterface(n, circuit.free[: n + 1], circuit.outputs)


def decode_window(circuit: Circuit, iface: TreeInterface, window: Iterable[int]) -> int:
    """Evaluate the circuit on a window.  Spare frees are set false,
    which changes no output of a circuit the port check passes."""
    window = tuple(window)
    if len(window) != iface.n + 1:
        raise EncodingError(f"window length {len(window)} != {iface.n + 1}")
    vals = {v: False for v in circuit.free}
    for var, w in zip(iface.inputs, window):
        vals[var] = bool(w)
    out = evaluate(circuit, vals)
    j = 0
    for m, y in enumerate(iface.outputs, start=1):
        if out[y]:
            j += 1 << (m - 1)
    return j


def canonical_tree_circuit(n: int):
    """The always-branch-on-p_depth tree: finds the leading 1 in the
    window and outputs that depth in binary.  The window has depth d
    when nd_d = OR(-x_(n-d+1), x_0..x_(n-d)) is false, and each output
    gate reads -nd_d as a negative body literal, so the circuit has
    2n + output_width(n) gates and no NOT gate.  Its ids start at
    n + 1, so the branch variables 1..n can be spare frees of the
    circuit translate.truthdef_translate lays an ER proof's
    auxiliaries on."""
    if n < 1:
        raise EncodingError("need at least one variable")
    b = CircuitBuilder(VarAlloc(n + 1))
    xs = [b.free() for _ in range(n + 1)]
    pre = [b.gate((xs[0],))]
    for j in range(1, n):
        pre.append(b.or_(pre[j - 1], xs[j]))
    nds = [b.or_(-xs[n - d + 1], pre[n - d]) for d in range(1, n + 1)]
    ys = []
    for m in range(1, output_width(n) + 1):
        body = [-nds[d - 1] for d in range(1, n + 1) if bit(m, d)]
        ys.append(b.gate(tuple(body)))
    circuit = b.build(ys)
    return circuit, TreeInterface(n, tuple(xs), tuple(ys))


def realizable_windows(tree: DecisionTree, n: int) -> list[tuple[tuple[int, ...], int]]:
    """(window, branching var) pairs, by depth then prefix, for a
    balanced tree: every path must reach depth exactly n."""

    def node_at(prefix: tuple[int, ...]):
        t = tree
        for b in prefix:
            if not isinstance(t, Node):
                return None
            t = t.left if b == 0 else t.right
        return t

    out = []
    for depth in range(1, n + 1):
        for prefix in itertools.product((0, 1), repeat=depth - 1):
            t = node_at(prefix)
            if t is None:
                raise EncodingError("tree is shallower than its declared depth")
            if not isinstance(t, Node):
                raise EncodingError(f"leaf at depth {depth}, tree not balanced")
            out.append((window_bits(n, depth, prefix), t.var))
    for prefix in itertools.product((0, 1), repeat=n):
        if not isinstance(node_at(prefix), Leaf):
            raise EncodingError("path deeper than the declared depth")
    return out


def tree_to_circuit(tree: DecisionTree, n: int):
    """Hardwire a balanced tree: equality comparator per realizable
    window, OR-combined into each output bit."""
    windows = realizable_windows(tree, n)
    b = CircuitBuilder(VarAlloc(1))
    xs = [b.free() for _ in range(n + 1)]
    eq_gates: list[tuple[int, int]] = []
    for window, var in windows:
        if not 1 <= var <= n:
            raise EncodingError(f"branch variable {var} out of range")
        neq = b.gate(tuple(-xs[j] if w else xs[j] for j, w in enumerate(window)))
        eq_gates.append((b.not_(neq), var))
    width = output_width(n)
    columns = [[eq for eq, var in eq_gates if bit(m, var)] for m in range(1, width + 1)]
    never = None
    if any(not col for col in columns):
        never = b.not_(b.const_true(xs[0]))
    ys = []
    for col in columns:
        ys.append(b.gate(tuple(col) if col else (never,)))
    circuit = b.build(ys)
    return circuit, TreeInterface(n, tuple(xs), tuple(ys))


@dataclass(frozen=True)
class InitialClause:
    clause: Clause
    anomalies: tuple[tuple[int, int], ...]  # (depth, decoded index) out of range


def compute_initial_clause(
    circuit: Circuit, iface: TreeInterface, x: Iterable[int]
) -> InitialClause:
    """Clause of the leaf addressed by branch bits x_1..x_n: the i-th
    disjunct is p_j signed by x_i, j decoded from the depth-i window."""
    x = tuple(x)
    n = iface.n
    if len(x) != n or any(b not in (0, 1) for b in x):
        raise EncodingError(f"need {n} branch bits")
    lits = []
    anomalies = []
    for depth in range(1, n + 1):
        j = decode_window(circuit, iface, window_bits(n, depth, x[: depth - 1]))
        if not 1 <= j <= n:
            anomalies.append((depth, j))
            continue
        lits.append(j if x[depth - 1] else -j)
    return InitialClause(Clause(tuple(lits)), tuple(anomalies))


def iter_initial_clauses(
    circuit: Circuit, iface: TreeInterface
) -> Iterator[tuple[tuple[int, ...], InitialClause]]:
    for x in itertools.product((0, 1), repeat=iface.n):
        yield x, compute_initial_clause(circuit, iface, x)


def enumerate_initial_clauses(circuit: Circuit, iface: TreeInterface) -> set[Clause]:
    if iface.n > 20:
        raise EncodingError("initial-clause enumeration capped at 20 variables")
    return {ic.clause for _, ic in iter_initial_clauses(circuit, iface)}
