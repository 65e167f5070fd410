import contextlib
import functools
import gc
import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import implres
from implres import cli
from implres.circuits import Circuit, Gate, serialize_circuit
from implres.cli import main
from implres.encoding import canonical_tree_circuit
from implres.families import not_search, php, tm_halt, tseitin_cycle, two_var_unsat
from implres.formulas import ClauseSet, FormulaError, parse_dimacs, serialize_dimacs
from implres.correctness import gen_correct
from implres.implicit import Manifest, serialize_manifest
from implres.proofs import (
    Axiom,
    ERProof,
    ResolutionProof,
    parse_proof,
    serialize_er,
    serialize_proof,
)
from implres.prover import dpll_refute, proof_from_tree
from implres.tableau import encode_tau, gen_tableau, refute_tableau, serialize_tm


@pytest.fixture
def cnf_file(tmp_path, omega2):
    p = tmp_path / "omega.cnf"
    p.write_text(serialize_dimacs(omega2))
    return str(p)


def run(argv):
    return main([str(a) for a in argv])


def test_prove_encode_gen_c_synth_verify_pipeline(tmp_path, cnf_file, capsys):
    out = tmp_path / "work"
    assert run(["prove", cnf_file, "-o", out]) == 0
    assert run(["encode", out / "omega.dtree", cnf_file, "-o", out]) == 0
    assert run(["gen-c", cnf_file, out / "omega.circ", "-o", out]) == 0
    assert run(["synth", cnf_file, out / "omega.circ", "-o", out]) == 0
    manifest = out / "omega.manifest"
    assert manifest.exists()
    assert run(["verify", manifest]) == 0
    captured = capsys.readouterr()
    assert "accepted" in captured.out
    for suffix in (".dtree", ".res.rproof", ".rproof", ".circ", ".gen.cnf", ".sidecar", ".cnf"):
        assert (out / ("omega" + suffix)).exists()


def test_prove_reports_model_on_satisfiable(tmp_path, capsys):
    p = tmp_path / "sat.cnf"
    p.write_text("p cnf 2 1\n1 -2 0\n")
    assert run(["prove", p, "-o", tmp_path]) == 1
    assert "satisfiable" in capsys.readouterr().err


def test_prove_has_no_variable_cap_and_reports_the_node_budget(tmp_path, capsys):
    p = tmp_path / "wide.cnf"
    p.write_text("p cnf 24 4\n1 24 0\n-1 24 0\n-24 12 0\n-24 -12 0\n")
    assert run(["prove", p, "-o", tmp_path]) == 0
    assert (tmp_path / "wide.dtree").exists()
    assert run(["prove", p, "-o", tmp_path, "--max-nodes", "1"]) == 2
    assert "node budget 1 exhausted" in capsys.readouterr().err


def test_malformed_input_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cnf"
    p.write_text("p cnf broken\n")
    assert run(["prove", p]) == 2
    assert run(["verify", tmp_path / "missing.manifest"]) == 2
    assert "error" in capsys.readouterr().err


# well-formed lines that parse_dtree must still refuse, against the
# set {1, 2}, {-1, 2}, {-2}, with the reason it gives
DTREE_REFUSALS = {
    "dtree 2\ndtree 2\nl -2 0\n": "malformed dtree header",
    "dtree 2\nl -2 0\nl -2 0\n": "trailing dtree data",  # a leaf after the root
    "dtree 2\nl -2 0\nn 1\n": "trailing dtree data",  # a node after the root
    "dtree 3\nl -2 0\n": "dtree is over 3 variables, premises over 2",
}


@pytest.mark.parametrize("command,text", [
    ("verify", "res-proof x\n"),
    ("encode", "dtree x\n"),
    ("encode", "dtree 2\nn x\n"),
    ("encode", "dtree 2\nn 1\nl 1 x 0\n"),
    *(("encode", text) for text in DTREE_REFUSALS),
])
def test_malformed_header_exits_2_without_traceback(tmp_path, cnf_file, command, text):
    if command == "encode":
        bad = tmp_path / "bad.dtree"
        bad.write_text(text)
        argv = ["encode", bad, cnf_file, "-o", tmp_path]
    else:
        beta, _ = canonical_tree_circuit(2)
        (tmp_path / "omega.circ").write_text(serialize_circuit(beta))
        (tmp_path / "omega.rproof").write_text(text)
        manifest = tmp_path / "omega.manifest"
        manifest.write_text(
            serialize_manifest(Manifest(2, "omega.cnf", "omega.circ", "omega.rproof"))
        )
        argv = ["verify", manifest]
    proc = run_subprocess(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert DTREE_REFUSALS.get(text, "") in proc.stderr


def run_subprocess(argv, preexec_fn=None):
    src = os.path.dirname(os.path.dirname(implres.__file__))
    return subprocess.run(
        [sys.executable, "-m", "implres.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=preexec_fn,
    )


@pytest.mark.parametrize("command", ["prove", "verify"])
def test_invalid_utf8_exits_2_without_traceback(tmp_path, omega2, command):
    if command == "prove":
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(serialize_dimacs(omega2).encode() + b"c \xff\n")
        argv = ["prove", bad, "-o", tmp_path]
    else:
        (tmp_path / "omega.cnf").write_text(serialize_dimacs(omega2))
        beta, _ = canonical_tree_circuit(2)
        (tmp_path / "omega.circ").write_text(serialize_circuit(beta))
        (tmp_path / "omega.rproof").write_bytes(b"res-proof 1\na 0\n\xff")
        manifest = tmp_path / "omega.manifest"
        manifest.write_text(
            serialize_manifest(Manifest(2, "omega.cnf", "omega.circ", "omega.rproof"))
        )
        argv = ["verify", manifest]
    proc = run_subprocess(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", ["tableau-gen", "tableau-verify"])
def test_wide_grid_circuit_exits_2_under_a_memory_limit(tmp_path, command):
    # 100 frees make a 2^50-column grid; the target word cannot have
    # the 2^48 hex digits it needs, and must be refused before any
    # 2^50-bit number is built
    tm, _, _, _ = tm_halt()
    tm_path, circ_path = tmp_path / "m.tm", tmp_path / "wide.circ"
    tm_path.write_text(serialize_tm(tm))
    frees = tuple(range(1, 101))
    outputs = (101, 102, 103)  # one cell of tm_halt's machine
    gates = tuple(Gate(v, (1,)) for v in outputs)
    circ_path.write_text(serialize_circuit(Circuit(frees, gates, outputs)))
    argv = [command, tm_path, "1", circ_path]
    if command == "tableau-gen":
        argv += ["-o", tmp_path]
    else:
        proof_path = tmp_path / "p.rproof"
        proof_path.write_text("res-proof 0\n")
        argv.append(proof_path)
    proc = run_subprocess(argv, preexec_fn=_limit_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "hex digits" in proc.stderr


def test_verify_rejects_tampered_artifact(tmp_path, cnf_file, capsys):
    out = tmp_path / "work"
    assert run(["prove", cnf_file, "-o", out]) == 0
    assert run(["encode", out / "omega.dtree", cnf_file, "-o", out]) == 0
    assert run(["synth", cnf_file, out / "omega.circ", "-o", out]) == 0
    proof_path = out / "omega.rproof"
    lines = proof_path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    proof_path.write_text("\n".join(lines) + "\n")
    assert run(["verify", out / "omega.manifest"]) == 1
    assert "rejected" in capsys.readouterr().err


def test_translate_er_roundtrip(tmp_path, omega2, cnf_file, capsys):
    outcome = dpll_refute(omega2)
    ep = ERProof(Circuit((), (), ()), proof_from_tree(omega2, outcome.tree))
    er_path = tmp_path / "omega.erproof"
    er_path.write_text(serialize_er(ep, len(omega2.clauses)))
    out = tmp_path / "er"
    assert run(["translate-er", cnf_file, er_path, "-o", out]) == 0
    assert run(["verify", out / "omega.manifest"]) == 0
    # prove's refutation is read as an ER proof with no auxiliary gates;
    # synth writes its certificate beside it without touching it
    work, direct = tmp_path / "work", tmp_path / "direct"
    assert run(["prove", cnf_file, "-o", work]) == 0
    refutation = (work / "omega.res.rproof").read_bytes()
    assert run(["encode", work / "omega.dtree", cnf_file, "-o", work]) == 0
    assert run(["synth", cnf_file, work / "omega.circ", "-o", work]) == 0
    assert (work / "omega.res.rproof").read_bytes() == refutation
    assert run(["translate-er", cnf_file, work / "omega.res.rproof", "-o", direct]) == 0
    assert run(["verify", direct / "omega.manifest"]) == 0


def test_verify_accepts_a_stand_in_era_certificate(capsys):
    """A certificate that translate-er wrote while the truth-definition
    step still laid a stand-in gate p' = OR(-p) per variable (the
    quick-start set refuted through e = OR(1, 2); its circuit has 11
    gates) still verifies: the format and the verifier did not change."""
    manifest = os.path.join(os.path.dirname(__file__), "data", "quick-via-e", "omega.manifest")
    assert run(["verify", manifest]) == 0
    assert "|beta|=11 gates" in capsys.readouterr().out


def test_translate_search(tmp_path, capsys):
    """An aux-free refutation leaves the algorithm file as it was, and
    the summary line gives rho's steps and the algorithm's gates."""
    sp = not_search(1)
    algo = tmp_path / "algo.circ"
    checker = tmp_path / "checker.circ"
    algo.write_text(serialize_circuit(sp.algorithm))
    checker.write_text(serialize_circuit(sp.checker))
    correct = gen_correct(sp)
    outcome = dpll_refute(correct, order=tuple(range(1, correct.n + 1)))
    ep = ERProof(Circuit((), (), ()), proof_from_tree(correct, outcome.tree))
    er_path = tmp_path / "correct.erproof"
    er_path.write_text(serialize_er(ep, len(correct.clauses)))
    out = tmp_path / "ts"
    capsys.readouterr()
    assert run(["translate-search", algo, checker, er_path, "-o", out]) == 0
    assert (out / "algo.grown.circ").read_text() == algo.read_text()
    rho, _ = parse_proof((out / "algo.rho.rproof").read_text())
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == f"steps {len(rho.steps)} algorithm-gates {len(sp.algorithm.gates)}"


@pytest.mark.parametrize("command", ["translate-er", "translate-search"])
@pytest.mark.parametrize("excess", [0, 999, -1])
def test_translate_checks_the_declared_premise_count(tmp_path, capsys, command, excess):
    if command == "translate-er":
        premises = tseitin_cycle(4)
        cnf = tmp_path / "omega.cnf"
        cnf.write_text(serialize_dimacs(premises))
        inputs = [cnf]
        order = None
    else:
        sp = not_search(4)
        premises = gen_correct(sp)
        inputs = [tmp_path / "algo.circ", tmp_path / "checker.circ"]
        inputs[0].write_text(serialize_circuit(sp.algorithm))
        inputs[1].write_text(serialize_circuit(sp.checker))
        order = tuple(range(1, premises.n + 1))
    tree = dpll_refute(premises, order=order).tree
    ep = ERProof(Circuit((), (), ()), proof_from_tree(premises, tree))
    er_path = tmp_path / "pi.erproof"
    er_path.write_text(serialize_er(ep, len(premises.clauses) + excess))
    out = tmp_path / "out"
    code = run([command, *inputs, er_path, "-o", out])
    if excess == 0:
        assert code == 0
    else:
        assert code == 1
        assert f"the set has {len(premises.clauses)}" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)


def negative_count_argv(command, tmp_path, count):
    """argv of ``command`` on a small genuine input whose proof header
    declares ``count`` premises."""
    if command == "verify":
        cnf, work = tmp_path / "omega.cnf", tmp_path / "work"
        cnf.write_text(serialize_dimacs(two_var_unsat()))
        assert run(["prove", cnf, "-o", work]) == 0
        assert run(["encode", work / "omega.dtree", cnf, "-o", work]) == 0
        assert run(["synth", cnf, work / "omega.circ", "-o", work]) == 0
        proof = work / "omega.rproof"
        steps = proof.read_text().split("\n", 1)[1]
        proof.write_text(f"res-proof {count}\n{steps}")
        return ["verify", work / "omega.manifest"]
    if command == "tableau-verify":
        tm, tau, beta, iface = tm_halt()
        tm_path, circ_path, proof = (tmp_path / f for f in ("m.tm", "g.circ", "g.rproof"))
        tm_path.write_text(serialize_tm(tm))
        circ_path.write_text(serialize_circuit(beta))
        alpha = refute_tableau(gen_tableau(tm, tau, beta, iface))
        proof.write_text(serialize_proof(alpha, count))
        return ["tableau-verify", tm_path, encode_tau(tau), circ_path, proof]
    if command == "translate-er":
        premises, order = two_var_unsat(), None
        inputs = [tmp_path / "omega.cnf"]
        inputs[0].write_text(serialize_dimacs(premises))
    else:
        sp = not_search(1)
        premises = gen_correct(sp)
        order = tuple(range(1, premises.n + 1))
        inputs = [tmp_path / "algo.circ", tmp_path / "checker.circ"]
        inputs[0].write_text(serialize_circuit(sp.algorithm))
        inputs[1].write_text(serialize_circuit(sp.checker))
    tree = dpll_refute(premises, order=order).tree
    ep = ERProof(Circuit((), (), ()), proof_from_tree(premises, tree))
    er_path = tmp_path / "pi.erproof"
    er_path.write_text(serialize_er(ep, count))
    return [command, *inputs, er_path, "-o", tmp_path / "out"]


@pytest.mark.parametrize("command,count", [
    ("verify", -5), ("tableau-verify", -5), ("translate-er", -1), ("translate-search", -1),
])
def test_negative_premise_count_is_malformed_input(tmp_path, capsys, command, count):
    """A proof header that declares a negative premise count is refused
    by the parser (exit 2), as parse_dimacs refuses negative counts, not
    judged against the set (exit 1)."""
    argv = negative_count_argv(command, tmp_path, count)
    capsys.readouterr()
    assert run(argv) == 2
    assert f"error: bad premise count '{count}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_translate_search_rejects_a_proof_check_er_refuses(tmp_path, capsys):
    """An ER proof that parses but does not refute the correctness
    clauses (it ends on a premise) is a rejection, exit 1, and nothing
    is written."""
    sp = not_search(1)
    algo, checker = tmp_path / "algo.circ", tmp_path / "checker.circ"
    algo.write_text(serialize_circuit(sp.algorithm))
    checker.write_text(serialize_circuit(sp.checker))
    ep = ERProof(Circuit((), (), ()), ResolutionProof((Axiom(0),)))
    er_path = tmp_path / "pi.erproof"
    er_path.write_text(serialize_er(ep, len(gen_correct(sp))))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["translate-search", algo, checker, er_path, "-o", out]) == 1
    assert "rejected: invalid proof" in capsys.readouterr().err
    assert not out.exists()


def test_translate_search_refuses_a_pair_that_is_not_a_search_problem(tmp_path, capsys):
    """A well-formed algorithm and checker whose checker has two
    outputs are no search problem: exit 2 with the reason, no
    traceback, and nothing is written."""
    sp = not_search(1)
    algo, checker = tmp_path / "algo.circ", tmp_path / "checker.circ"
    algo.write_text(serialize_circuit(sp.algorithm))
    two = Circuit(sp.checker.free, sp.checker.gates, sp.checker.outputs + sp.checker.free[:1])
    checker.write_text(serialize_circuit(two))
    ep = ERProof(Circuit((), (), ()), ResolutionProof((Axiom(0),)))
    er_path = tmp_path / "pi.erproof"
    er_path.write_text(serialize_er(ep, len(gen_correct(sp))))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["translate-search", algo, checker, er_path, "-o", out]) == 2
    err = capsys.readouterr().err
    assert "bad search problem: checker must have a single verdict output" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_rejects_a_tree_wrong_for_the_cnf(tmp_path, capsys):
    """A circuit describing a tree that does not refute the CNF is a
    rejection, exit 1, that names an unrefuted branch, and no manifest
    is written: php(3,2)'s balanced dpll tree, checked against php(3,2)
    with its first clause dropped."""
    omega = php(3, 2)
    full, dropped = tmp_path / "full.cnf", tmp_path / "dropped.cnf"
    full.write_text(serialize_dimacs(omega))
    dropped.write_text(serialize_dimacs(ClauseSet(omega.n, omega.clauses[1:])))
    work, out = tmp_path / "work", tmp_path / "out"
    assert run(["prove", full, "-o", work]) == 0
    assert run(["encode", work / "full.dtree", full, "-o", work]) == 0
    assert run(["synth", full, work / "full.circ", "-o", work]) == 0
    capsys.readouterr()
    assert run(["synth", dropped, work / "full.circ", "-o", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rejected: described tree leaves branch (") and "unrefuted" in err
    assert not out.exists()


def test_synth_refusal_names_the_graft_route(tmp_path, capsys):
    cnf, circ = tmp_path / "big.cnf", tmp_path / "big.circ"
    cnf.write_text("p cnf 17 0\n")
    circ.write_text(serialize_circuit(canonical_tree_circuit(17)[0]))
    capsys.readouterr()
    assert run(["synth", cnf, circ, "-o", tmp_path / "out"]) == 2
    assert "certify larger trees with translate-er" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_encode_refuses_past_the_synthesis_cap(tmp_path, capsys):
    """The dpll tree of the chain x1, xi -> xi+1, -x17 is a path, but
    balancing it lays 2^17 leaves: encode refuses it before balancing,
    naming the cap and the graft route, and writes nothing."""
    n = 17
    cnf = tmp_path / "chain.cnf"
    cnf.write_text(serialize_dimacs(ClauseSet(
        n, ((1,), *((-v, v + 1) for v in range(1, n)), (-n,)))))
    assert run(["prove", cnf, "-o", tmp_path]) == 0
    capsys.readouterr()
    assert run(["encode", tmp_path / "chain.dtree", cnf, "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: encode capped at 16 variables")
    assert "certify larger trees with translate-er" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,proof", [
    ("verify", "work/omega.rproof"), ("tableau-verify", "g.rproof"),
])
def test_weakening_literal_zero_is_malformed_input(tmp_path, capsys, command, proof):
    """A weakening line that adds literal 0 is refused by the parser
    (exit 2) with the line it read, not replayed."""
    argv = negative_count_argv(command, tmp_path, 1)
    with open(tmp_path / proof, "a") as f:
        f.write("w 0 0 0\n")
    capsys.readouterr()
    assert run(argv) == 2
    assert "error: bad weakening literal 0 in line 'w 0 0 0'" in capsys.readouterr().err


def test_tableau_commands(tmp_path, capsys):
    tm, tau, beta, iface = tm_halt()
    tm_path = tmp_path / "halt.tm"
    circ_path = tmp_path / "grid.circ"
    tm_path.write_text(serialize_tm(tm))
    circ_path.write_text(serialize_circuit(beta))
    hex_tau = encode_tau(tau)
    assert run(["tableau-gen", tm_path, hex_tau, circ_path, "-o", tmp_path]) == 0
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha = refute_tableau(bundle)
    proof_path = tmp_path / "halt.rproof"
    proof_path.write_text(serialize_proof(alpha, len(bundle.clauses.clauses)))
    assert run(["tableau-verify", tm_path, hex_tau, circ_path, proof_path]) == 0
    wrong = encode_tau((0, 1))
    assert run(["tableau-verify", tm_path, wrong, circ_path, proof_path]) == 1
    capsys.readouterr()


def test_oracle_cross_check(cnf_file, capsys):
    assert run(["oracle", cnf_file]) == 0
    assert "unsat" in capsys.readouterr().out


def test_gen_c_byte_deterministic(tmp_path, cnf_file):
    out = tmp_path / "work"
    assert run(["prove", cnf_file, "-o", out]) == 0
    assert run(["encode", out / "omega.dtree", cnf_file, "-o", out]) == 0
    for d in ("d1", "d2"):
        assert run(["gen-c", cnf_file, out / "omega.circ", "-o", tmp_path / d]) == 0
    for name in ("omega.gen.cnf", "omega.sidecar"):
        assert (tmp_path / "d1" / name).read_bytes() == (
            tmp_path / "d2" / name
        ).read_bytes()


def test_outputs_are_atomic_no_tmp_leftovers(tmp_path, cnf_file):
    out = tmp_path / "work"
    assert run(["prove", cnf_file, "-o", out]) == 0
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]


# A certificate for a satisfiable omega that synth wrote, and verify
# accepted, while the port check let beta's spare free 1 feed both
# outputs; it still replays against the C of that beta.
SPARE_FREE_ALPHA = (
    "res-proof 75\n"
    "a 67\na 8\nr 1 0 10\na 70\nr 3 2 11\na 39\nr 5 4 16\na 46\nr 6 7 24\n"
    "a 50\nr 9 8 27\na 51\nr 10 11 28\na 68\na 4\nr 13 14 10\na 69\n"
    "r 15 16 11\na 36\nr 18 17 15\na 44\nr 19 20 23\na 49\nr 22 21 26\n"
    "r 23 11 28\nr 12 24 1\n"
)


def test_spare_free_feeding_the_outputs_is_refused(tmp_path, capsys):
    # omega = {1}, {-2} is satisfiable.  Every copy of beta in C leaves
    # the spare free 1 in place, so the query at depth 1 would read the
    # branch bit z_1 instead of its window.
    (tmp_path / "b.cnf").write_text("p cnf 2 2\n1 0\n-2 0\n")
    (tmp_path / "b.circ").write_text(
        "circ 14\nfree 10 11 12 1\ngate 13 1 0\ngate 14 -1 0\nout 13 14\n"
    )
    (tmp_path / "b.rproof").write_text(SPARE_FREE_ALPHA)
    (tmp_path / "b.manifest").write_text(
        serialize_manifest(Manifest(2, "b.cnf", "b.circ", "b.rproof"))
    )
    assert run(["verify", tmp_path / "b.manifest"]) == 1
    err = capsys.readouterr().err
    assert "rejected at stage interface" in err and "feed the outputs" in err
    out = tmp_path / "out"
    assert run(["synth", tmp_path / "b.cnf", tmp_path / "b.circ", "-o", out]) == 2
    assert not (out / "b.manifest").exists()


def test_nul_byte_in_a_manifest_path_exits_2(tmp_path, capsys):
    manifest = tmp_path / "x.manifest"
    manifest.write_bytes(b"implicit-refutation\nn 2\nomega a\0.cnf\nbeta b.circ\nalpha c.rproof\n")
    assert run(["verify", manifest]) == 2
    assert "NUL" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, cnf_file, monkeypatch, capsys, enabled):
    def broken(path):
        raise RuntimeError("unexpected")

    out = tmp_path / "work"
    assert run(["prove", cnf_file, "-o", out]) == 0
    assert run(["encode", out / "omega.dtree", cnf_file, "-o", out]) == 0
    assert run(["synth", cnf_file, out / "omega.circ", "-o", out]) == 0
    (out / "omega.cnf").write_text("p cnf 2 1\n1 2 0\n")  # satisfiable: rejected
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(["oracle", cnf_file]) == 0
        assert gc.isenabled() is enabled
        assert run(["verify", out / "omega.manifest"]) == 1
        assert gc.isenabled() is enabled
        assert run(["verify", tmp_path / "missing.manifest"]) == 2
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "load_implicit", broken)
        with pytest.raises(RuntimeError, match="unexpected"):
            run(["verify", out / "omega.manifest"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_the_command_path_makes_no_cyclic_garbage(tmp_path, cnf_file, capsys):
    # The pause in main rests on this: what a command builds is acyclic,
    # so reference counting alone frees it.
    tm, tau, beta, iface = tm_halt()
    (tmp_path / "halt.tm").write_text(serialize_tm(tm))
    (tmp_path / "grid.circ").write_text(serialize_circuit(beta))
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha = refute_tableau(bundle)
    (tmp_path / "halt.rproof").write_text(serialize_proof(alpha, len(bundle.clauses.clauses)))
    sp = not_search(1)
    (tmp_path / "algo.circ").write_text(serialize_circuit(sp.algorithm))
    (tmp_path / "checker.circ").write_text(serialize_circuit(sp.checker))
    correct = gen_correct(sp)
    outcome = dpll_refute(correct, order=tuple(range(1, correct.n + 1)))
    ep = ERProof(Circuit((), (), ()), proof_from_tree(correct, outcome.tree))
    (tmp_path / "pi.erproof").write_text(serialize_er(ep, len(correct.clauses)))
    work, direct = tmp_path / "work", tmp_path / "direct"
    grid = [tmp_path / "halt.tm", encode_tau(tau), tmp_path / "grid.circ"]
    cli.build_parser()  # built once per process, before any command; its help formatters are cyclic
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(["prove", cnf_file, "-o", work]) == 0
        assert run(["encode", work / "omega.dtree", cnf_file, "-o", work]) == 0
        assert run(["gen-c", cnf_file, work / "omega.circ", "-o", work]) == 0
        assert run(["synth", cnf_file, work / "omega.circ", "-o", work]) == 0
        assert run(["verify", work / "omega.manifest"]) == 0
        assert run(["translate-er", cnf_file, work / "omega.res.rproof", "-o", direct]) == 0
        assert run(["verify", direct / "omega.manifest"]) == 0
        assert run(["tableau-gen", *grid, "-o", tmp_path]) == 0
        assert run(["tableau-verify", *grid, tmp_path / "halt.rproof"]) == 0
        assert run(["translate-search", tmp_path / "algo.circ", tmp_path / "checker.circ",
                    tmp_path / "pi.erproof", "-o", tmp_path / "ts"]) == 0
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert garbage == []
    capsys.readouterr()


def test_the_cached_parser_carries_no_state_between_calls(tmp_path, cnf_file, monkeypatch):
    budgets = []

    def spied(cs, max_nodes=None):
        budgets.append(max_nodes)
        return dpll_refute(cs, max_nodes=max_nodes)

    monkeypatch.setattr(cli, "dpll_refute", spied)
    assert run(["prove", cnf_file, "-o", tmp_path, "--stem", "x", "--max-nodes", "99"]) == 0
    assert run(["prove", cnf_file, "-o", tmp_path / "default"]) == 0
    assert (tmp_path / "x.dtree").exists()
    assert (tmp_path / "default" / "omega.dtree").exists()
    assert not (tmp_path / "default" / "x.dtree").exists()
    assert budgets == [99, None]


@functools.lru_cache(maxsize=None)
def contract_inputs():
    """Valid inputs of the commands in CONTRACT_CASES, as {name: bytes}."""
    with tempfile.TemporaryDirectory() as d:
        cnf = os.path.join(d, "omega.cnf")
        with open(cnf, "w") as fh:
            fh.write(serialize_dimacs(two_var_unsat()))
        for argv in (
            ["prove", cnf, "-o", d],
            ["encode", os.path.join(d, "omega.dtree"), cnf, "-o", d],
            ["synth", cnf, os.path.join(d, "omega.circ"), "-o", d],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        files = {}
        for name in ("omega.manifest", "omega.cnf", "omega.circ", "omega.rproof", "omega.dtree"):
            with open(os.path.join(d, name), "rb") as fh:
                files[name] = fh.read()
    tm, tau, beta, iface = tm_halt()
    bundle = gen_tableau(tm, tau, beta, iface)
    files["halt.tm"] = serialize_tm(tm).encode()
    files["grid.circ"] = serialize_circuit(beta).encode()
    files["halt.rproof"] = serialize_proof(
        refute_tableau(bundle), len(bundle.clauses.clauses)
    ).encode()
    sp = not_search(2)
    correct = gen_correct(sp)
    outcome = dpll_refute(correct, order=tuple(range(1, correct.n + 1)))
    ep = ERProof(Circuit((), (), ()), proof_from_tree(correct, outcome.tree))
    files["algo.circ"] = serialize_circuit(sp.algorithm).encode()
    files["checker.circ"] = serialize_circuit(sp.checker).encode()
    files["search.erproof"] = serialize_er(ep, len(correct.clauses)).encode()
    return files, encode_tau(tau)


# (mutated input, command that reads it)
CONTRACT_CASES = (
    ("omega.manifest", "verify"), ("omega.rproof", "verify"),
    ("omega.cnf", "verify"), ("omega.cnf", "prove"), ("omega.cnf", "gen-c"),
    ("omega.circ", "verify"), ("omega.circ", "gen-c"), ("omega.dtree", "encode"),
    ("halt.tm", "tableau-verify"), ("halt.tm", "tableau-gen"),
    ("grid.circ", "tableau-verify"), ("grid.circ", "tableau-gen"),
    ("halt.rproof", "tableau-verify"),
    ("omega.cnf", "synth"), ("omega.circ", "synth"), ("omega.cnf", "oracle"),
    ("algo.circ", "translate-search"), ("checker.circ", "translate-search"),
    ("search.erproof", "translate-search"),
)


def contract_argv(command, d, tau):
    path = functools.partial(os.path.join, d)
    out = ("-o", path("out"))
    return {
        "verify": ("verify", path("omega.manifest")),
        "prove": ("prove", path("omega.cnf"), *out),
        "gen-c": ("gen-c", path("omega.cnf"), path("omega.circ"), *out),
        "encode": ("encode", path("omega.dtree"), path("omega.cnf"), *out),
        "tableau-gen": ("tableau-gen", path("halt.tm"), tau, path("grid.circ"), *out),
        "tableau-verify": ("tableau-verify", path("halt.tm"), tau, path("grid.circ"),
                           path("halt.rproof")),
        "synth": ("synth", path("omega.cnf"), path("omega.circ"), *out),
        # a mutated header may declare many variables: keep brute force small
        "oracle": ("oracle", path("omega.cnf"), "--limit", "12"),
        "translate-search": ("translate-search", path("algo.circ"), path("checker.circ"),
                             path("search.erproof"), *out),
    }[command]

byte_edit = st.tuples(
    st.sampled_from(("replace", "insert", "delete", "truncate")),
    st.integers(0, 1 << 16),
    st.integers(0, 255),
)


def mutate(blob: bytes, edits) -> bytes:
    for op, pos, byte in edits:
        i = pos % (len(blob) + 1)
        if op == "replace" and i < len(blob):
            blob = blob[:i] + bytes((byte,)) + blob[i + 1:]
        elif op == "insert":
            blob = blob[:i] + bytes((byte,)) + blob[i:]
        elif op == "delete":
            blob = blob[:i] + blob[i + 1:]
        elif op == "truncate":
            blob = blob[:i]
    return blob


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CONTRACT_CASES), st.lists(byte_edit, min_size=1, max_size=3))
def test_byte_mutated_inputs_keep_the_exit_code_contract(case, edits):
    target, command = case
    files, tau = contract_inputs()
    files = dict(files)
    files[target] = mutate(files[target], edits)
    with tempfile.TemporaryDirectory() as d:
        for name, blob in files.items():
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(contract_argv(command, d, tau))
    assert code in (0, 1, 2), (code, err.getvalue())


# The README quick-start set and a plain ER refutation of it.
GRAFT_INPUTS = {
    "omega.cnf": b"p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n",
    "omega.erproof": (
        b"er-proof\ncirc 0\nfree\nout\nres-proof 4\n"
        b"a 3\na 2\nr 1 0 2\na 1\na 0\nr 4 3 2\nr 5 2 1\n"
    ),
}


def variable_count(blob: bytes) -> int:
    try:
        return parse_dimacs(blob.decode("utf-8")).n
    except (UnicodeDecodeError, FormulaError):
        return 0


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(GRAFT_INPUTS)), st.lists(byte_edit, min_size=1, max_size=3))
def test_byte_mutated_translate_er_inputs_keep_the_exit_code_contract(target, edits):
    """translate-er exits 0, 1 or 2 on byte-mutated inputs, and a graft
    it writes with exit 0 passes verify.  A header that declares many
    more variables is valid input, but the canonical carrier grows
    about as n^3 (n = 99 takes seconds and half a gigabyte), so the
    mutants keep n <= 12."""
    files = dict(GRAFT_INPUTS)
    files[target] = mutate(files[target], edits)
    assume(variable_count(files["omega.cnf"]) <= 12)
    with tempfile.TemporaryDirectory() as d:
        for name, blob in files.items():
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["translate-er", os.path.join(d, "omega.cnf"),
                         os.path.join(d, "omega.erproof"), "-o", os.path.join(d, "graft")])
            if code == 0:
                assert main(["verify", os.path.join(d, "graft", "omega.manifest")]) == 0, err.getvalue()
    assert code in (0, 1, 2), (code, err.getvalue())
