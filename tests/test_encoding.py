import itertools

import pytest

from implres.circuits import Circuit, Gate, VarAlloc, validate_circuit
from implres.encoding import (
    EncodingError,
    TreeInterface,
    bit,
    canonical_tree_circuit,
    check_interface,
    compute_initial_clause,
    decode_window,
    enumerate_initial_clauses,
    interface_from_circuit,
    output_width,
    realizable_windows,
    tree_to_circuit,
    window_bits,
)
from implres.formulas import Clause
from implres.prover import Leaf, Node, balance_tree, dpll_refute


def test_bit_and_output_width():
    assert [bit(m, 5) for m in (1, 2, 3)] == [1, 0, 1]
    assert output_width(1) == 1
    assert output_width(2) == 2
    assert output_width(4) == 3
    assert output_width(7) == 3


def test_window_bits_layout():
    # n zeros-filled prefix window: leading zeros, a one, then the path bits
    assert window_bits(3, 1, ()) == (0, 0, 0, 1)
    assert window_bits(3, 2, (1,)) == (0, 0, 1, 1)
    assert window_bits(3, 3, (1, 0)) == (0, 1, 1, 0)
    with pytest.raises(EncodingError):
        window_bits(3, 4, (0, 0, 0))
    with pytest.raises(EncodingError):
        window_bits(3, 2, ())


def test_canonical_tree_circuit_decodes_depth():
    """2n + output_width(n) gates: the prefix ORs, the depth tests nd_d
    and the output bits, which read -nd_d as a body literal, so no gate
    but an output negates a single literal (no NOT gate)."""
    for n in range(1, 21):
        c, iface = canonical_tree_circuit(n)
        assert validate_circuit(c)
        assert check_interface(c, iface)
        assert len(c.gates) == 2 * n + output_width(n)
        assert not any(
            len(g.body) == 1 and g.body[0] < 0 for g in c.gates if g.var not in c.outputs
        )
        if n > 6:
            continue
        for depth in range(1, n + 1):
            for prefix in itertools.product((0, 1), repeat=depth - 1):
                w = window_bits(n, depth, prefix)
                assert decode_window(c, iface, w) == depth


def test_check_interface_rejections():
    c, iface = canonical_tree_circuit(2)
    assert not check_interface(c, TreeInterface(2, iface.inputs[:2], iface.outputs))
    assert not check_interface(c, TreeInterface(2, iface.inputs, iface.outputs[:1]))
    wrong_out = TreeInterface(2, iface.inputs, (iface.inputs[0], iface.outputs[1]))
    assert not check_interface(c, wrong_out)
    # spare frees need ids within 1..n and must stay out of the outputs' fan-in
    extra = Circuit(c.free + (99,), c.gates, c.outputs)
    assert not check_interface(extra, iface)
    spare = Circuit((10, 11, 12, 1), (Gate(15, (1,)), Gate(13, (10,)), Gate(14, (-11,))), (13, 14))
    assert check_interface(spare, interface_from_circuit(spare, 2))
    fed = Circuit((10, 11, 12, 1), (Gate(13, (1,)), Gate(14, (-1,))), (13, 14))
    rep = check_interface(fed, interface_from_circuit(fed, 2))
    assert not rep and "feed the outputs" in rep.reason


def test_interface_from_circuit_positional(omega2):
    c, iface = canonical_tree_circuit(2)
    assert interface_from_circuit(c, 2) == iface
    with pytest.raises(EncodingError):
        interface_from_circuit(Circuit((1,), (), ()), 3)


def test_realizable_windows_requires_balanced():
    t = Node(1, Node(2, Leaf(0), Leaf(0)), Node(2, Leaf(0), Leaf(1)))
    ws = realizable_windows(t, 2)
    assert len(ws) == 3  # one root window, two depth-2 windows
    assert ws[0] == (window_bits(2, 1, ()), 1)
    with pytest.raises(EncodingError):
        realizable_windows(Node(1, Leaf(0), Node(2, Leaf(0), Leaf(1))), 2)
    with pytest.raises(EncodingError):
        realizable_windows(Node(1, Leaf(0), Leaf(1)), 2)


def test_tree_to_circuit_matches_tree(omega2):
    out = dpll_refute(omega2)
    tree = balance_tree(out.tree, (1, 2))
    beta, iface = tree_to_circuit(tree, 2)
    assert validate_circuit(beta)
    assert check_interface(beta, iface)
    # every realizable window decodes to the branching variable it encodes
    for w, var in realizable_windows(tree, 2):
        assert decode_window(beta, iface, w) == var
    # unrealizable windows decode to 0 (no equality gate fires)
    assert decode_window(beta, iface, (1, 1, 1)) == 0


def test_initial_clauses_of_balanced_tree(omega2):
    out = dpll_refute(omega2)
    tree = balance_tree(out.tree, (1, 2))
    beta, iface = tree_to_circuit(tree, 2)
    got = enumerate_initial_clauses(beta, iface)
    assert all(not c.is_tautology() for c in got)


def test_compute_initial_clause_signs():
    c, iface = canonical_tree_circuit(2)
    # canonical circuit branches on the depth itself
    ic = compute_initial_clause(c, iface, (0, 1))
    assert ic.clause == Clause((-1, 2))
    assert ic.anomalies == ()
    ic = compute_initial_clause(c, iface, (1, 0))
    assert ic.clause == Clause((1, -2))
    with pytest.raises(EncodingError):
        compute_initial_clause(c, iface, (0,))
    with pytest.raises(EncodingError):
        compute_initial_clause(c, iface, (0, 2))


def test_initial_clause_anomalies_recorded():
    # a circuit whose output is stuck at zero decodes index 0 everywhere
    from implres.circuits import CircuitBuilder

    builder = CircuitBuilder(VarAlloc(1))
    xs = [builder.free() for _ in range(2)]
    tt = builder.const_true(xs[0])
    zero = builder.not_(tt)
    stuck = builder.build((zero,))
    ic = compute_initial_clause(stuck, TreeInterface(1, tuple(xs), stuck.outputs), (0,))
    assert ic.clause == Clause(())
    assert ic.anomalies == ((1, 0),)


def test_decode_window_extra_frees_default_false():
    c, iface = canonical_tree_circuit(2)
    extra = Circuit(c.free + (99,), c.gates, c.outputs)
    w = window_bits(2, 1, ())
    assert decode_window(extra, iface, w) == decode_window(c, iface, w)
