import os
import subprocess
import sys

import pytest

import implres
from implres.circuits import Circuit, Gate, serialize_circuit
from implres.cli import main
from implres.encoding import canonical_tree_circuit
from implres.families import not_search, tm_halt, tseitin_cycle
from implres.formulas import serialize_dimacs
from implres.correctness import gen_correct
from implres.implicit import Manifest, serialize_manifest
from implres.proofs import ERProof, serialize_er, serialize_proof
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
    for suffix in (".dtree", ".rproof", ".circ", ".gen.cnf", ".sidecar", ".cnf"):
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


@pytest.mark.parametrize("command,text", [
    ("verify", "res-proof x\n"),
    ("encode", "dtree x\n"),
    ("encode", "dtree 2\nn x\n"),
    ("encode", "dtree 2\nn 1\nl 1 x 0\n"),
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


def test_translate_search(tmp_path):
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
    assert run(["translate-search", algo, checker, er_path, "-o", out]) == 0
    assert (out / "algo.grown.circ").exists()
    assert (out / "algo.rho.rproof").exists()


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


def test_oracle_and_bench(tmp_path, cnf_file, capsys):
    assert run(["oracle", cnf_file]) == 0
    assert "unsat" in capsys.readouterr().out
    csv_path = tmp_path / "bench.csv"
    assert run(["bench", "--csv", "--output", csv_path]) == 0
    text = csv_path.read_text()
    assert text.startswith("family,size,steps,base,ratio")
    # deterministic across runs
    again = tmp_path / "bench2.csv"
    assert run(["bench", "--csv", "--output", again]) == 0
    assert again.read_text() == text


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
