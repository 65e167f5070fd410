"""Decision-tree refutations and the branching prover.

Tree convention: at a node branching on variable v, taking the left
child records path bit 0 and assigns v := 1, so clauses tracked on
the left may carry the literal -v; the right child records bit 1 and
assigns v := 0, matching literal v.  A leaf names a premise falsified
by its path assignment.  Reading a node off as a resolution step
therefore resolves the right subtree (positive side) against the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .circuits import CircuitReport
from .formulas import Clause, ClauseSet
from .proofs import ProofBuilder, ResolutionProof, UnitPropagation


class ProverError(ValueError):
    pass


@dataclass(frozen=True)
class Leaf:
    premise: int


@dataclass(frozen=True)
class Node:
    var: int
    left: "DecisionTree"
    right: "DecisionTree"


DecisionTree = Union[Leaf, Node]


def tree_size(tree: DecisionTree) -> int:
    stack, total = [tree], 0
    while stack:
        t = stack.pop()
        total += 1
        if isinstance(t, Node):
            stack.append(t.left)
            stack.append(t.right)
    return total


def check_decision_tree(premises: ClauseSet, tree: DecisionTree) -> CircuitReport:
    """Check every leaf premise is falsified by its path assignment and
    no path queries a variable twice."""
    stack: list[tuple[DecisionTree, dict[int, bool]]] = [(tree, {})]
    while stack:
        t, path = stack.pop()
        if isinstance(t, Leaf):
            if not 0 <= t.premise < len(premises.clauses):
                return CircuitReport(False, f"leaf premise {t.premise} out of range")
            clause = premises.clauses[t.premise]
            for lit in clause:
                val = path.get(abs(lit))
                if val is None or val == (lit > 0):
                    return CircuitReport(
                        False,
                        f"premise {t.premise} not falsified on path {path}",
                    )
        else:
            if t.var in path:
                return CircuitReport(False, f"variable {t.var} queried twice on a path")
            left = dict(path)
            left[t.var] = True
            right = dict(path)
            right[t.var] = False
            stack.append((t.left, left))
            stack.append((t.right, right))
    return CircuitReport(True)


def proof_from_tree(premises: ClauseSet, tree: DecisionTree) -> ResolutionProof:
    """Read the tree off as a tree-like regular refutation."""
    b = ProofBuilder(premises)
    work: list[tuple[str, object]] = [("visit", tree)]
    out: list[int] = []
    while work:
        op, arg = work.pop()
        if op == "visit":
            if isinstance(arg, Leaf):
                out.append(b.raw_axiom(arg.premise))
            else:
                work.append(("make", arg.var))
                work.append(("visit", arg.right))
                work.append(("visit", arg.left))
        else:
            right = out.pop()
            left = out.pop()
            out.append(b.resolve_opt(right, left, arg))
    final = out[-1]
    if b.clause(final).literals:
        raise ProverError(f"tree proof derives {b.clause(final)}, not the empty clause")
    return b.extract(final)


@dataclass(frozen=True)
class DpllOutcome:
    tree: Optional[DecisionTree]
    model: Optional[dict[int, bool]]
    nodes: int


def dpll_refute(
    cs: ClauseSet,
    order: Optional[Iterable[int]] = None,
    max_nodes: Optional[int] = None,
) -> DpllOutcome:
    """Branching search returning a decision-tree refutation or a model.

    Branch variable choice: a clause that is unit under the current
    assignment wins (one branch kills it immediately), otherwise the
    first unassigned variable from ``order`` occurring in a clause not
    yet satisfied.  Left branch assigns the variable true.  One
    ``UnitPropagation`` engine owns the search state (assignment,
    satisfied counts, open clauses, unit queue); the search only
    assigns, undoes and reads it.
    """
    if order is None:
        order = range(1, cs.n + 1)
    order = tuple(order)
    engine = UnitPropagation(cs)
    occur, n_sat = engine.occur, engine.n_sat

    def pick_order_var() -> Optional[int]:
        for v in order:
            if v not in engine.value and any(
                n_sat[idx] == 0 for lit in (v, -v) for idx in occur.get(lit, ())
            ):
                return v
        return None

    budget = float("inf") if max_nodes is None else max_nodes
    nodes = 1  # the root; each branch counts the child, leaf or not, it makes
    if nodes > budget:
        raise ProverError(f"node budget {max_nodes} exhausted")
    if engine.empty_conflict is not None:
        return DpllOutcome(Leaf(engine.empty_conflict), None, nodes)
    results: list[DecisionTree] = []
    stack: list[tuple] = [("enter",)]
    while stack:
        frame = stack.pop()
        if frame[0] == "enter":
            if engine.open == 0:
                model = {v: engine.value.get(v, False) for v in range(1, cs.n + 1)}
                return DpllOutcome(None, model, nodes)
            lit = engine.next_unit()
            var = abs(lit) if lit is not None else pick_order_var()
            if var is None:
                raise ProverError("branching order exhausted before refutation")
            stack.append(("combine", var))
            stack.append(("branch", -var))
            stack.append(("branch", var))
        elif frame[0] == "branch":
            nodes += 1
            if nodes > budget:
                raise ProverError(f"node budget {max_nodes} exhausted")
            lit = frame[1]
            mark = engine.mark()
            conflict = engine.assign(lit)
            if conflict is not None:
                results.append(Leaf(conflict))
                engine.undo(mark)
            else:
                stack.append(("undo", mark))
                stack.append(("enter",))
        elif frame[0] == "undo":
            engine.undo(frame[1])
        else:
            right = results.pop()
            left = results.pop()
            results.append(Node(frame[1], left, right))
    return DpllOutcome(results[-1], None, nodes)


def balance_tree(
    tree: DecisionTree, order: Iterable[int]
) -> DecisionTree:
    """Extend every path to query all of ``order`` exactly once.

    Below a leaf the missing variables are chained in order, with the
    leaf copied into both children; the input must be regular with
    path variables drawn from ``order``.
    """
    order = tuple(order)
    return _balance(tree, frozenset(), order, frozenset(order))


def _balance(
    t: DecisionTree, used: frozenset[int], order: tuple[int, ...], known: frozenset[int]
) -> DecisionTree:
    """``t`` balanced below a path that queried ``used``.

    A module-level function, not a closure over itself: a recursive
    closure is a reference cycle that outlives the call until the
    cyclic collector runs."""
    if isinstance(t, Node):
        if t.var not in known or t.var in used:
            raise ProverError(f"node variable {t.var} outside the order or repeated")
        below = used | {t.var}
        return Node(t.var, _balance(t.left, below, order, known),
                    _balance(t.right, below, order, known))
    out: DecisionTree = t
    for v in reversed([v for v in order if v not in used]):
        out = Node(v, out, out)
    return out


def serialize_dtree(premises: ClauseSet, tree: DecisionTree) -> str:
    lines = [f"dtree {premises.n}"]
    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            clause = premises.clauses[t.premise]
            lines.append(
                "l" + ("" if not clause.literals else " " + " ".join(map(str, clause))) + " 0"
            )
        else:
            lines.append(f"n {t.var}")
            stack.append(t.right)
            stack.append(t.left)
    return "\n".join(lines) + "\n"


def _dtree_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ProverError(f"bad number {tok!r} in dtree") from None


def parse_dtree(text: str, premises: ClauseSet) -> DecisionTree:
    """Rebuild a tree, anchoring each leaf to the first equal premise."""
    tokens: list[tuple] = []
    n = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dtree":
            if n is not None or len(parts) != 2:
                raise ProverError("malformed dtree header")
            n = _dtree_int(parts[1])
        elif parts[0] == "n" and len(parts) == 2:
            tokens.append(("n", _dtree_int(parts[1])))
        elif parts[0] == "l" and parts[-1] == "0":
            tokens.append(("l", Clause(tuple(_dtree_int(t) for t in parts[1:-1]))))
        else:
            raise ProverError(f"malformed dtree line {line!r}")
    if n is None:
        raise ProverError("missing dtree header")
    if n != premises.n:
        raise ProverError(f"dtree is over {n} variables, premises over {premises.n}")
    index_of = {}
    for idx, c in enumerate(premises.clauses):
        index_of.setdefault(c, idx)
    done: Optional[DecisionTree] = None
    open_nodes: list[list] = []
    for kind, payload in tokens:
        if kind == "n":
            if done is not None:
                raise ProverError("trailing dtree data")
            open_nodes.append([payload, None])
            continue
        if payload not in index_of:
            raise ProverError(f"leaf clause {payload} is not a premise")
        sub: DecisionTree = Leaf(index_of[payload])
        while True:
            if not open_nodes:
                if done is not None:
                    raise ProverError("trailing dtree data")
                done = sub
                break
            if open_nodes[-1][1] is None:
                open_nodes[-1][1] = sub
                break
            var, left = open_nodes.pop()
            sub = Node(var, left, sub)
    if done is None or open_nodes:
        raise ProverError("dtree ends early")
    return done
