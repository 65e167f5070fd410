import gc
import os
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implres import circuits
from implres.circuits import Circuit, Gate
from implres.correctness import CorrectnessError, gen_C
from implres.encoding import (
    canonical_tree_circuit,
    compute_initial_clause,
    interface_from_circuit,
    output_width,
    tree_to_circuit,
)
from implres.families import tm_halt
from implres.formulas import Clause, ClauseSet, brute_force_sat
from implres.implicit import (
    ImplicitError,
    ImplicitRefutation,
    Manifest,
    implicit_from_tree,
    load_implicit,
    parse_manifest,
    save_implicit,
    serialize_manifest,
    synthesize_alpha,
    verify_implicit,
)
from implres.proofs import Axiom, OpenLeaf, Resolve, ResolutionProof
from implres.prover import Leaf, Node, balance_tree, dpll_refute
from implres.tableau import gen_tableau, refute_tableau, verify_pq


def make_ir(omega):
    out = dpll_refute(omega)
    return implicit_from_tree(omega, out.tree)


def test_synthesize_and_verify(omega1, omega2, tseitin4):
    for omega in (omega1, omega2, tseitin4):
        ir = make_ir(omega)
        rep = verify_implicit(ir)
        assert rep, (rep.stage, rep.reason)


def test_synthesize_alpha_fails_on_wrong_description(omega2):
    loose = ClauseSet(2, (Clause((1, 2)),))
    beta, iface = canonical_tree_circuit(2)
    with pytest.raises(OpenLeaf) as exc:
        synthesize_alpha(gen_C(loose, beta, iface))
    assert len(exc.value.bits) == 2
    # seeded wrong descriptions: the balanced dpll tree of a random
    # unsatisfiable set, read against that set with one member dropped
    # that leaves it satisfiable; the witness addresses a leaf whose
    # clause weakens no member
    rng = random.Random(2311)
    wrong = 0
    while wrong < 6:
        omega = ClauseSet(5, tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 6), 3))
            for _ in range(24)))
        out = dpll_refute(omega)
        if out.tree is None:
            continue
        beta, iface = tree_to_circuit(balance_tree(out.tree, range(1, 6)), 5)
        drop = rng.randrange(len(omega.clauses))
        dropped = ClauseSet(5, omega.clauses[:drop] + omega.clauses[drop + 1:])
        if brute_force_sat(dropped) is None:
            continue
        with pytest.raises(OpenLeaf) as exc:
            synthesize_alpha(gen_C(dropped, beta, iface))
        ic = compute_initial_clause(beta, iface, exc.value.bits)
        assert not any(set(c) <= set(ic.clause) for c in dropped)
        wrong += 1


def test_synthesize_alpha_branch_cap():
    """The cap stays, and its refusal names the graft route."""
    big = ClauseSet(17, ())
    beta, iface = canonical_tree_circuit(17)
    message = "capped at 16 branch variables, got 17; certify larger trees with translate-er"
    with pytest.raises(ImplicitError, match=message):
        synthesize_alpha(gen_C(big, beta, iface))


def test_synthesis_leaves_the_generated_set_collectable_without_gc(tseitin4):
    beta, iface = canonical_tree_circuit(tseitin4.n)
    bundle = gen_C(tseitin4, beta, iface)
    gc.disable()
    try:
        clauses = weakref.ref(bundle.clauses)
        alpha = synthesize_alpha(bundle)
        del bundle
        # freed by reference counting alone: synthesis made no cycle
        assert clauses() is None
    finally:
        gc.enable()
    assert alpha.steps


def test_verify_implicit_stage_reports(omega1, omega2):
    ir = make_ir(omega1)
    assert verify_implicit(ir).stage == "proof"
    # omega speaking beyond n
    bad = ImplicitRefutation(
        1, ClauseSet(2, ((2,),)), ir.alpha, ir.beta, ir.iface, ir.alpha_premises
    )
    assert verify_implicit(bad).stage == "interface"
    # interface/circuit mismatch
    beta2, iface2 = canonical_tree_circuit(2)
    assert verify_implicit(
        ImplicitRefutation(1, omega1, ir.alpha, beta2, ir.iface, ir.alpha_premises)
    ).stage == "interface"
    # broken proof
    wrong = ImplicitRefutation(
        1, omega1, ResolutionProof((Axiom(0),)), ir.beta, ir.iface, ir.alpha_premises
    )
    rep = verify_implicit(wrong)
    assert not rep and rep.stage == "proof"
    # declared premise count must match the generated clause set
    off = ImplicitRefutation(
        1, omega1, ir.alpha, ir.beta, ir.iface, alpha_premises=3
    )
    rep = verify_implicit(off)
    assert not rep and rep.stage == "proof" and "premises" in rep.reason


def test_verify_rejects_weakening_outside_carrier(omega1):
    ir = make_ir(omega1)
    from implres.proofs import Weaken

    padded = ResolutionProof(ir.alpha.steps + (Weaken(len(ir.alpha.steps) - 1, (10**6,)),))
    rep = verify_implicit(
        ImplicitRefutation(1, omega1, padded, ir.beta, ir.iface, ir.alpha_premises)
    )
    assert not rep and rep.stage == "proof"


def test_verify_rejects_a_gate_that_reads_itself():
    # omega is satisfiable.  Gate 15 sits outside the output cone and
    # reads itself; its copy 41 in C contributes the clauses {-41} and
    # {41}, which refute C on their own.
    c, iface = canonical_tree_circuit(2)
    beta = Circuit(c.free, c.gates + (Gate(15, (-15,)),), c.outputs)
    omega = ClauseSet(2, (Clause((1,)), Clause((-2,))))
    alpha = ResolutionProof((Axiom(86), Axiom(87), Resolve(1, 0, 41)))
    rep = verify_implicit(ImplicitRefutation(2, omega, alpha, beta, iface, 109))
    assert not rep and rep.stage == "interface"
    assert "cyclic" in rep.reason


@st.composite
def spare_free_instances(draw):
    """(omega, beta) over n <= 4 variables.  omega is random clauses or
    one random unit per variable.  beta's n+1 window inputs have ids
    above n, some of 1..n are spare frees, and its random gates read
    the spare frees alone or together with the window."""
    n = draw(st.integers(1, 4))
    lit = st.integers(-n, n).filter(bool)
    if draw(st.booleans()):
        clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=n), max_size=5))
    else:
        clauses = [[v if draw(st.booleans()) else -v] for v in range(1, n + 1)]
    omega = ClauseSet(n, tuple(Clause(tuple(c)) for c in clauses))
    spares = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    frees = tuple(range(n + 1, 2 * n + 2)) + tuple(spares)
    width = output_width(n)
    gates, known = [], list(frees if draw(st.booleans()) else spares)
    for v in range(2 * n + 2, 2 * n + 2 + draw(st.integers(width, width + 4))):
        reads = draw(st.lists(st.sampled_from(known), min_size=1, max_size=3))
        signs = draw(st.lists(st.booleans(), min_size=len(reads), max_size=len(reads)))
        gates.append(Gate(v, tuple(r if s else -r for r, s in zip(reads, signs))))
        known.append(v)
    outputs = draw(st.permutations([g.var for g in gates]))[:width]
    return omega, Circuit(frees, tuple(gates), tuple(outputs))


@settings(max_examples=400, deadline=None)
@given(spare_free_instances())
def test_an_accepted_synthesis_certifies_an_unsatisfiable_set(instance):
    omega, beta = instance
    iface = interface_from_circuit(beta, omega.n)
    try:
        bundle = gen_C(omega, beta, iface)
        alpha = synthesize_alpha(bundle)
    except (CorrectnessError, OpenLeaf):
        return
    ir = ImplicitRefutation(omega.n, omega, alpha, beta, iface, len(bundle.clauses.clauses))
    if verify_implicit(ir):
        assert brute_force_sat(omega) is None


def test_implicit_from_tree_rejects_bad_tree(omega1):
    with pytest.raises(ImplicitError):
        implicit_from_tree(omega1, Node(1, Leaf(0), Leaf(1)))


def test_manifest_round_trip():
    m = Manifest(3, "a.cnf", "b.circ", "c.rproof")
    assert parse_manifest(serialize_manifest(m)) == m


def test_manifest_parse_errors():
    for bad in (
        "",
        "n 1\n",
        "implicit-refutation\nn 1\nomega a\nbeta b\n",
        "implicit-refutation\nn x\nomega a\nbeta b\nalpha c\n",
        "implicit-refutation\nn 1\nn 2\nomega a\nbeta b\nalpha c\n",
        "implicit-refutation\nbogus line here\n",
    ):
        with pytest.raises(ImplicitError):
            parse_manifest(bad)


def test_save_load_verify_round_trip(tmp_path, omega2):
    ir = make_ir(omega2)
    manifest = save_implicit(ir, str(tmp_path), "case")
    back = load_implicit(manifest)
    assert back.n == ir.n
    assert back.omega == ir.omega
    assert back.beta == ir.beta
    assert back.alpha == ir.alpha
    assert back.alpha_premises is not None
    assert verify_implicit(back)
    # a second save writes byte-identical artifacts
    manifest2 = save_implicit(ir, str(tmp_path / "again"), "case")
    for name in ("case.cnf", "case.circ", "case.rproof", "case.manifest"):
        a = (tmp_path / name).read_bytes()
        b = (tmp_path / "again" / name).read_bytes()
        assert a == b


def test_failed_save_leaves_existing_refutation_intact(tmp_path, monkeypatch, omega1, omega2):
    manifest = save_implicit(make_ir(omega2), str(tmp_path), "case")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_implicit(make_ir(omega1), str(tmp_path), "case")
    monkeypatch.undo()
    for name, data in before.items():
        assert (tmp_path / name).read_bytes() == data
    assert verify_implicit(load_implicit(manifest))


def test_one_port_check_per_verdict(monkeypatch, tseitin4):
    """verify_implicit and verify_pq run circuits.check_ports once each,
    inside the generator, and still report its refusal at stage
    interface."""
    ir = make_ir(tseitin4)
    tm, tau, beta, iface = tm_halt()
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha = refute_tableau(bundle)
    calls = []
    real = circuits.check_ports

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("implres") and vars(module).get("check_ports") is real:
            monkeypatch.setattr(module, "check_ports", counted)
    assert verify_implicit(ir)
    assert calls == [ir.beta]
    calls.clear()
    assert verify_pq(tm, tau, beta, iface, alpha, len(bundle.clauses))
    assert calls == [beta]
    calls.clear()
    # the spare free 1 feeds both outputs
    fed = Circuit((10, 11, 12, 1), (Gate(13, (1,)), Gate(14, (-1,))), (13, 14))
    omega = ClauseSet(2, (Clause((1,)), Clause((-2,))))
    rep = verify_implicit(
        ImplicitRefutation(
            2, omega, ir.alpha, fed, interface_from_circuit(fed, 2), ir.alpha_premises
        )
    )
    assert not rep and rep.stage == "interface" and "feed the outputs" in rep.reason
    assert calls == [fed]
