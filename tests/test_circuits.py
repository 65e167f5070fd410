import itertools

import pytest

from implres.circuits import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    Premises,
    VarAlloc,
    evaluate,
    gate_group,
    max_var,
    parse_circuit,
    serialize_circuit,
    validate_circuit,
)
from implres.formulas import Clause, FormulaError, brute_force_sat


def test_gate_rejects_empty_body_and_bad_vars():
    with pytest.raises(CircuitError):
        Gate(1, ())
    with pytest.raises(CircuitError):
        Gate(0, (1,))
    with pytest.raises(CircuitError):
        Gate(-2, (1,))
    with pytest.raises(CircuitError):
        Gate(True, (1,))  # its clauses are built unchecked, so bool is refused
    with pytest.raises(FormulaError):
        Gate(3, (1, True))


def test_validate_circuit_accepts_and_rejects():
    ok = Circuit((1, 2), (Gate(3, (1, -2)), Gate(4, (-3,))), (4,))
    assert validate_circuit(ok)
    # forward reference = cycle under topological reading
    assert not validate_circuit(Circuit((1,), (Gate(2, (3,)), Gate(3, (1,))), (3,)))
    assert not validate_circuit(Circuit((1, 1), (), ()))
    assert not validate_circuit(Circuit((1,), (Gate(1, (1,)),), ()))
    assert not validate_circuit(Circuit((1,), (), (5,)))


def test_gate_clauses_order_and_dedup():
    g = Gate(4, (1, -2, 1))
    cls = gate_group(g.var, g.body)
    # wide clause first, then one short clause per body literal in order
    assert cls[0] == Clause((-4, 1, -2))
    assert cls[1] == Clause((4, -1))
    assert cls[2] == Clause((4, 2))
    assert len(cls) == 3  # duplicate body literal collapses


def test_gate_clauses_define_the_or():
    g = Gate(3, (1, -2))
    c = Circuit((1, 2), (g,), (3,))
    cs = Premises(c.gates, max_var(c))
    for v1, v2, v3 in itertools.product((False, True), repeat=3):
        want = v1 or (not v2)
        holds = all(
            any(({1: v1, 2: v2, 3: v3}[abs(l)]) == (l > 0) for l in c) for c in cs
        )
        assert holds == (v3 == want)


def test_evaluate_matches_python_or():
    c = Circuit((1, 2), (Gate(3, (1, -2)), Gate(4, (-3, 2)), Gate(5, (3, 4))), (5,))
    for v1, v2 in itertools.product((False, True), repeat=2):
        vals = evaluate(c, {1: v1, 2: v2})
        g3 = v1 or not v2
        g4 = (not g3) or v2
        assert vals[3] == g3 and vals[4] == g4 and vals[5] == (g3 or g4)
    with pytest.raises(CircuitError):
        evaluate(c, {1: True})


def test_max_var_and_size():
    c = Circuit((1, 2), (Gate(3, (1, -2)), Gate(4, (-3, 2, 1))), (4,))
    assert max_var(c) == 4
    assert sum(len(g.body) for g in c.gates) == 5
    assert max_var(Circuit()) == 0


def test_var_alloc_is_monotone():
    al = VarAlloc(3)
    assert al.next_var == 3
    assert al.fresh() == 3
    assert al.fresh() == 4
    assert al.next_var == 5
    with pytest.raises(CircuitError):
        VarAlloc(0)


def test_builder_produces_valid_circuits():
    b = CircuitBuilder(VarAlloc(1))
    x = b.free()
    y = b.free()
    t = b.const_true(x)
    g = b.or_(x, -y)
    h = b.and_(g, t)
    c = b.build((h,))
    assert validate_circuit(c)
    for vx, vy in itertools.product((False, True), repeat=2):
        vals = evaluate(c, {x: vx, y: vy})
        assert vals[t] is True
        assert vals[h] == (vx or not vy)
    cnf = Premises(c.gates, max_var(c))
    assert brute_force_sat(cnf) is not None  # gate clauses alone are consistent


def test_serialize_parse_round_trip():
    c = Circuit((1, 2), (Gate(3, (1, -2)), Gate(4, (-3, 1))), (4, 3))
    text = serialize_circuit(c)
    assert parse_circuit(text) == c
    assert serialize_circuit(parse_circuit(text)) == text


def test_parse_circuit_rejects_garbage():
    for bad in (
        "",
        "circ x\nfree\nout\n",
        "circ 2\nfree 1\ngate 2 3 0\nout 2\n",  # body var out of bound
        "circ 3\nfree 1\ngate 2 1\nout 2\n",  # missing 0 terminator
        "circ 3\nfree 1\ngate 2 1 0\nbogus\nout 2\n",
    ):
        with pytest.raises(CircuitError):
            parse_circuit(bad)
