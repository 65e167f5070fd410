"""Honesty checks for the benchmark's counters, spans and verdict gate,
on small instances of the real workloads.

Run from the repository root:  python -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
import time

import pytest

import oracle
import run
import spans
import workloads

LIB = run.load_program()


class SmallTree(workloads.TreeCertify):
    MUTANT_SETS = 1
    FIXED = (("tseitin4", "tseitin_cycle", (4,)), ("php32", "php", (3, 2)))
    RANDOM_VARS = 4
    RANDOM_CLAUSES = 30
    POOL = 2


class TinyTree(SmallTree):
    FIXED = (("tseitin4", "tseitin_cycle", (4,)),)
    POOL = 1


class SmallEr(workloads.ErSimulate):
    MUTANT_SETS = 1
    FORMULAS = (("tseitin5", "tseitin_cycle", (5,)),)


class SmallGrid(workloads.GridGraft):
    MUTANT_SETS = 1
    FIXTURES = ("tm_halt",)
    GRID_SIZES = (2,)
    SEARCH_SIZES = (2,)


def make(cls, root, seed=5):
    session = workloads.Session(LIB, lambda: run.CAL_REF_S, run.CAL_REF_S)
    wl = cls(seed, LIB, session)
    wl.setup(str(root))
    wl.prepare()
    return wl


def gen_c_clauses(wl, inst, tmp):
    """Clauses of the gen-c output for an instance's certificate."""
    out = os.path.join(inst.dir, "out")
    assert LIB.cli.main(["gen-c", os.path.join(out, "cert.cnf"),
                         os.path.join(out, "cert.circ"), "-o", str(tmp)]) == 0
    with open(os.path.join(tmp, "cert.gen.cnf")) as fh:
        return oracle.parse_cnf(fh.read())[1]


def proof_widths(premises, proof_path):
    with open(proof_path) as fh:
        declared, steps = oracle.parse_steps(fh.read())
    assert declared == len(premises)
    return oracle.replay_widths(premises, steps)


@pytest.mark.parametrize("cls", [SmallTree, SmallEr])
def test_cert_literals_match_widths_replayed_from_the_proof_file(cls, tmp_path, capsys):
    wl = make(cls, tmp_path / "w")
    rec = wl.run_pass(0)
    total = steps = 0
    for inst in wl.instances_for(0):
        premises = gen_c_clauses(wl, inst, tmp_path / inst.name)
        widths = proof_widths(premises, os.path.join(inst.dir, "out", "cert.rproof"))
        total += sum(widths)
        steps += len(widths)
    capsys.readouterr()
    assert rec["cert_literals"] == total
    assert rec["cert_steps"] == steps
    assert wl.s.failed == 0 and wl.s.false_accepts == 0


def test_grid_cert_literals_match_widths_replayed_from_the_proof_files(tmp_path):
    wl = make(SmallGrid, tmp_path / "w")
    rec = wl.run_pass(0)
    T = LIB.tableau
    total = 0
    for inst in wl.instances:
        if "n" in inst.inputs:
            sp, _ = wl._search_parts(os.path.join(inst.dir, "out"), inst)
            premises = [c.literals for c in LIB.correctness.gen_correct(sp).clauses]
            total += sum(proof_widths(premises, os.path.join(inst.dir, "out", "algo.rho.rproof")))
            continue
        m = inst.inputs["m"]
        with open(inst.inputs["tm"]) as fh:
            tm = T.parse_tm(fh.read())
        tau = T.decode_tau(inst.inputs["tau"], 1 << m)
        for circ_path, proof_path in wl._grid_certs(inst):
            with open(circ_path) as fh:
                beta = LIB.circuits.parse_circuit(fh.read())
            iface = T.tableau_interface_from_circuit(beta, m)
            premises = [c.literals for c in T.gen_tableau(tm, tau, beta, iface).clauses.clauses]
            total += sum(proof_widths(premises, proof_path))
    assert rec["cert_literals"] == total
    assert wl.s.failed == 0 and wl.s.false_accepts == 0


def test_counted_C_clauses_equal_the_gen_c_output(tmp_path, capsys):
    wl = make(SmallTree, tmp_path / "w")
    inst = wl.instances[0]
    tracer = spans.Tracer()
    with tracer.counting_pass():
        assert LIB.cli.main(["verify", os.path.join(inst.dir, "out", "cert.manifest")]) == 0
    premises = gen_c_clauses(wl, inst, tmp_path / "genc")
    capsys.readouterr()
    assert tracer.counts["correctness.gen_C_calls"] == 1
    assert tracer.counts["correctness.C_clauses"] == len(premises)
    assert tracer.counts["correctness.C_literals"] == sum(map(len, premises))
    widths = proof_widths(premises, os.path.join(inst.dir, "out", "cert.rproof"))
    assert tracer.counts["proofs.replayed_steps"] == len(widths)
    assert tracer.counts["proofs.replayed_literals"] == sum(widths)
    assert tracer.counts["proofs.max_width"] == max(widths)
    assert tracer.counts["formulas.clauses_built"] > 0


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    def counts(root):
        wl = make(TinyTree, root, seed=9)
        tracer = spans.Tracer()
        with tracer.counting_pass():
            rec = wl.run_pass(1)
        found = {k: rec[k] for k in ("cert_steps", "cert_literals", "cert_gates")}
        found.update((k, v) for k, v in tracer.counts.items() if k != "implicit.verify_peak_mb")
        return found

    first = counts(tmp_path / "a")
    assert first == counts(tmp_path / "b")
    assert first["prover.tree_nodes"] > 0 and first["encoding.beta_gates"] > 0


def test_spans_nest_and_self_times_add_up(tmp_path):
    wl = make(SmallTree, tmp_path / "w")
    tracer = spans.Tracer()
    wl.s.tracer = tracer
    t0 = time.perf_counter()
    with tracer.traced_pass():
        wl.run_pass(0)
    wall = time.perf_counter() - t0
    wl.s.tracer = None
    by_idx = tracer.spans
    parents = {(s[0], by_idx[s[3]][0] if s[3] >= 0 else None) for s in by_idx}
    assert ("correctness.gen_C", "implicit.verify_implicit") in parents
    assert ("proofs.check_proof", "implicit.verify_implicit") in parents
    assert ("implicit.synthesize_alpha", "cli.synth") in parents
    assert ("prover.dpll_refute", "cli.prove") in parents
    # self times never exceed the wall time and roots account for them exactly
    attributed = sum(tracer.self_time.values())
    roots = sum(s[2] - s[1] for s in by_idx if s[3] < 0)
    assert abs(attributed - roots) < 1e-6
    assert 0 < attributed <= wall
    # the wrappers are gone once the pass ends
    assert LIB.implicit.gen_C is LIB.correctness.gen_C
    assert not hasattr(LIB.correctness.gen_C, "__wrapped__")


def test_an_accepted_mutant_is_a_false_accept(tmp_path, capsys):
    wl = make(SmallTree, tmp_path / "w")
    inst = wl.instances[0]
    genuine = os.path.join(inst.dir, "out", "cert.manifest")
    inst.mutants[0].append(genuine)
    wl.run_pass(0)
    capsys.readouterr()
    assert wl.s.false_accepts == 1
    assert wl.s.failed == 1


def test_mutants_have_known_invalid_answers(tmp_path):
    wl = make(SmallTree, tmp_path / "w")
    inst = wl.instances[0]
    mdir = os.path.join(inst.dir, "mut0")
    with open(os.path.join(mdir, "flip.cnf")) as fh:
        n, omega = oracle.parse_cnf(fh.read())
    with open(os.path.join(mdir, "flip.circ")) as fh:
        assert not oracle.describes_refutation(n, omega, oracle.parse_circ(fh.read()))
    with open(os.path.join(inst.dir, "out", "cert.circ")) as fh:
        assert oracle.describes_refutation(n, omega, oracle.parse_circ(fh.read()))
    with open(os.path.join(mdir, "drop.cnf")) as fh:
        assert oracle.satisfiable(*oracle.parse_cnf(fh.read()))
    assert not oracle.satisfiable(n, omega)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
