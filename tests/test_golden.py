"""Byte-level guard on the certificate constructions.

Each case serializes what one construction produces on a fixed input
and compares its SHA-256 with a value recorded from an earlier build.
Acceptance item 9 checks that two runs in one process agree; this
checks that a change to the constructions keeps the exact bytes.  One
case hashes verdicts instead of bytes: the stage and reason that the
verifier's proof stage gives each proof mutant of the grafted, tableau
and search certificates, so a change to the replay fails at the same
step for the same reason.  Another hashes outcomes rather than
certificates: the trees, models and node counts of the branching
search, so a change to its search state keeps every branch it takes.
"""

import hashlib
import random

import pytest

from implres.circuits import Circuit, Gate, serialize_circuit
from implres.cli import main
from implres.correctness import gen_correct
from implres.families import (
    not_search,
    or_chain,
    php,
    tm_halt,
    tm_right_writer,
    tm_write_stay,
    tseitin_cycle,
)
from implres.formulas import Clause, ClauseSet, serialize_dimacs
from implres.implicit import proof_stage
from implres.proofs import Axiom, ERProof, Resolve, ResolutionProof, Weaken, serialize_proof
from implres.prover import ProverError, dpll_refute, proof_from_tree, serialize_dtree
from implres.tableau import encode_tau, gen_tableau, graft_pq, refute_tableau, serialize_tm
from implres.translate import emb_refute, er_to_implicit, search_translate

GOLDEN = {
    "er_to_implicit-tseitin4":
        "a701c5aa8f50380145cde449686b6388d9310273b8ed824ca7416c26bcac2916",
    "er_to_implicit-php32":
        "6d277be429d2e25d49d5c6bede407856579e34303321b376bd212c95c31d6cd5",
    "er_to_implicit-quick-via-e":
        "eaa88b75b1453826556ffbd3b14b9e80c3c9a3a5b94cfa92f2543a481fa8bef4",
    "er_to_implicit-empty-member":
        "03e23509213b2d2d0b864e795b7ddd484e93e6e7f068cf4dd387fc4fed88e8cc",
    "er_to_implicit-odd-clauses":
        "9abe7e3b3aea93fe8288dfe5bfcb11efa912e8d9ffb73713b0d7c33ca6836a39",
    "graft_pq-tm_halt-plain":
        "16b32a336e8526faa3f6011a6f91049062b300289517e5f45b5ff6155c954cfc",
    "graft_pq-tm_halt-spurious":
        "312c94814b383b0984f102f7e9bb8851b535f3034145a318f21d31cfd229a80d",
    "graft_pq-tm_write_stay-plain":
        "e4be576eecc18f5feda4eed548c4aa975c69b99fff1480f47d8456000a39bd7b",
    "graft_pq-tm_write_stay-spurious":
        "2b33774e157c2d71288926e3819007adca3f53156538cbead436464111456f71",
    "graft_pq-tm_right_writer-plain":
        "eecdd5fe5ddec9ed7e9d7e5da2174415b44b90148af5f101c24767be544b9733",
    "graft_pq-tm_right_writer-spurious":
        "f36c6e041cea880698cf00fbe9ce37cf4ba12498d660ca5e09dbe22eaf29e637",
    "search_translate-not4":
        "5d099fdb940904c9bd07eca915bf4fb2dc40a1eef23abd60473bee43a6e46be2",
    "search_translate-not6":
        "34a8f338700d9b0d118b25a7a4f7c6ed7fb50a8fa9d12e48ee95cccee64e30f6",
    "cli-synth-tseitin4":
        "07735f6d2948e585c5eebed007f5efe705ad14261165904e4953b02c71e83b12",
    "cli-synth-tseitin7":
        "04f3834dcb590c01bc365a906325fec7a3a2a14f74f79ee4d495350c848d2461",
    "cli-prove-tseitin4":
        "2649c2f33f55cf5d4eceedc2565e4d2d645fa6dd8f25888597f598743355e4d2",
    "cli-gen-c-tseitin4":
        "7554d6e50e16263d2174f6b27facc706e2bf77dc072e2f26d60aa21c7c2442fa",
    "cli-gen-c-php32":
        "8ae366846b11c24761cf4c13612d8c0bfeaed66556f7d23a189e80b8ec7fe955",
    "cli-gen-c-tseitin8":
        "5e5298af4190b6bf78ed1f6f47e37336ead4067dae0554dbc7c7882adb307a1d",
    "cli-tableau-gen-tm_halt":
        "9c6c834e8fac034c9561a897dba5bd68720bd184e5fcb865222c927d0877e685",
    "cli-tableau-gen-tm_write_stay":
        "52d0c4d7bf871f9c1fb2447ce09078d7df32f5f19513adf76530c3ebef8b6b1f",
    "cli-tableau-gen-tm_right_writer":
        "8bd8c8870a36d4786c072f8b65cfc99f4f0cc30f4618494587f8acb3c3f707e5",
    "emb_refute-or_chains":
        "fe7453c3bd34319fef915abd56a80d8a04d02602b363f15d1993907248107154",
    "proof_stage-mutant-reports":
        "d87426a17ba6a96387fe9b4d4dee681b0c24c799b00f2ea14ecdc96685c95c12",
    "dpll_refute-outcomes":
        "96a82b977d3bbcfda8331e77f279beb5baa775e9eac48943b3068b221f2a4ac6",
}

EMPTY = Circuit((), (), ())
FIXTURES = {f.__name__: f for f in (tm_halt, tm_write_stay, tm_right_writer)}


def er_to_implicit_text(omega, pi=None):
    if pi is None:
        pi = ERProof(EMPTY, proof_from_tree(omega, dpll_refute(omega).tree))
    ir = er_to_implicit(omega, pi)
    return (serialize_circuit(ir.beta) + serialize_proof(ir.alpha, ir.alpha_premises)
            + f"{ir.alpha_premises}\n")


# the quick-start set refuted through e = OR(1, 2), variable 3, whose
# gate clauses {-3, 1, 2}, {3, -1}, {3, -2} are premises 4-6: it cites
# the translation's copy of that gate, which reads the negated branch
# variables -z_1, -z_2 where e reads 1, 2
QUICK_VIA_E = (
    ClauseSet(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))),
    ERProof(Circuit((1, 2), (Gate(3, (1, 2)),), ()), ResolutionProof((
        Axiom(0), Axiom(6), Resolve(0, 1, 2), Axiom(4), Resolve(2, 3, 3),
        Axiom(1), Resolve(4, 5, 2), Axiom(2), Axiom(3), Resolve(7, 8, 2), Resolve(6, 9, 1),
    ))),
)
# a set holding the empty clause, refuted by citing it: its witness
# gate negates the constant gate
EMPTY_MEMBER = (ClauseSet(1, ((), (1,))), ERProof(EMPTY, ResolutionProof((Axiom(0),))))


def odd_clauses():
    """php(3, 2) behind a tautology, a repeat of its first clause and a
    clause written against its variable order: the witness loop reads
    one weakening-witness gate per clause, in omega's order, and one
    literal gate per literal, in the clause's order."""
    base = php(3, 2)
    return ClauseSet(base.n, (Clause((2, -2)), base.clauses[0], Clause((-6, 1)), *base.clauses))


def graft_pq_text(fixture, spurious):
    tm, tau, beta, iface = FIXTURES[fixture]()
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha = refute_tableau(bundle)
    # the spurious gate is the one acceptance item 8 grafts
    aux = Circuit((1,), (Gate(bundle.clauses.n + 1, (1, -1)),), ()) if spurious else EMPTY
    tr = graft_pq(tm, tau, beta, iface, ERProof(aux, alpha))
    return serialize_circuit(tr.beta) + serialize_proof(tr.alpha, tr.alpha_premises)


def search_translate_text(n):
    sp = not_search(n)
    correct = gen_correct(sp)
    tree = dpll_refute(correct, order=tuple(range(1, correct.n + 1))).tree
    ts = search_translate(sp, ERProof(EMPTY, proof_from_tree(correct, tree)))
    return (serialize_circuit(ts.problem.algorithm)
            + serialize_proof(ts.rho, len(gen_correct(ts.problem).clauses)))


def emb_refute_text():
    out = []
    for k in (10, 30, 100):
        c = or_chain(k, 1)
        f = {v: v for v in c.free} | {g.var: 2 * k + 10 + t for t, g in enumerate(c.gates)}
        for y in (c.outputs[0], c.gates[k // 2].var):
            for polarity in (True, False):
                out.append(serialize_proof(emb_refute(c, f, y, polarity), 0))
    c = Circuit((1, 2), (Gate(3, (1, 2)),), (3,))
    for polarity in (True, False):
        out.append(serialize_proof(emb_refute(c, {1: 1, 2: 2, 3: 4}, 3, polarity), 0))
    return "".join(out)


def synth_text(omega, tmp_path):
    """synth's certificate of encode's circuit of prove's tree: tseitin4
    resolves chains of a few hundred steps out per level, tseitin7 of
    a few thousand."""
    cnf = tmp_path / "omega.cnf"
    cnf.write_text(serialize_dimacs(omega))
    work, out = tmp_path / "work", tmp_path / "synth"
    assert main(["prove", str(cnf), "-o", str(work)]) == 0
    assert main(["encode", str(work / "omega.dtree"), str(cnf), "-o", str(work)]) == 0
    assert main(["synth", str(cnf), str(work / "omega.circ"), "-o", str(out)]) == 0
    return "".join((out / f"omega.{ext}").read_text()
                   for ext in ("manifest", "cnf", "circ", "rproof"))


def prove_text(tmp_path):
    """prove's tree-like refutation, read off dpll's tree: every step
    is cited at most once, so recording each distinct step once leaves
    it as it is."""
    cnf = tmp_path / "omega.cnf"
    cnf.write_text(serialize_dimacs(tseitin_cycle(4)))
    assert main(["prove", str(cnf), "-o", str(tmp_path)]) == 0
    return (tmp_path / "omega.res.rproof").read_text()


def gen_c_text(omega, tmp_path):
    """gen-c's clause set and then its sidecar, for encode's circuit of
    prove's tree and for translate-er's beta' of prove's refutation,
    whose branch variables are spare frees."""
    cnf = tmp_path / "omega.cnf"
    cnf.write_text(serialize_dimacs(omega))
    work, er = tmp_path / "work", tmp_path / "er"
    assert main(["prove", str(cnf), "-o", str(work)]) == 0
    assert main(["encode", str(work / "omega.dtree"), str(cnf), "-o", str(work)]) == 0
    assert main(["translate-er", str(cnf), str(work / "omega.res.rproof"), "-o", str(er)]) == 0
    out = []
    for circ in (work / "omega.circ", er / "omega.circ"):
        gen = circ.parent / "gen"
        assert main(["gen-c", str(cnf), str(circ), "-o", str(gen)]) == 0
        out += [(gen / f"omega.{ext}").read_text() for ext in ("gen.cnf", "sidecar")]
    return "".join(out)


def tableau_gen_text(fixture, tmp_path):
    tm, tau, beta, _ = FIXTURES[fixture]()
    tm_path, circ_path = tmp_path / "m.tm", tmp_path / "grid.circ"
    tm_path.write_text(serialize_tm(tm))
    circ_path.write_text(serialize_circuit(beta))
    assert main(["tableau-gen", str(tm_path), encode_tau(tau), str(circ_path),
                 "-o", str(tmp_path)]) == 0
    return (tmp_path / "grid.gen.cnf").read_text()


def fixed_mutants(alpha, n_vars):
    """(step index, step) pairs that reach every other rejection of
    the replay: bad pivots, a step read before it is made, premise
    positions out of range, weakening outside the set or off the
    empty clause."""
    last = len(alpha.steps) - 1
    return (
        (last, Resolve(last, 0, 0)), (last, Resolve(0, 1, 0)), (last, Resolve(0, 1, -3)),
        (last, Resolve(-1, 0, 1)), (1, Axiom(-1)), (1, Axiom(10**6)),
        (1, Weaken(1, ())), (last, Weaken(0, (n_vars + 1,))), (last, Weaken(last - 1, (1,))),
    )


def rejection_reports_text():
    """One ``stage|reason`` line per proof mutant, as
    tests/test_certificate_mutants.py makes them with a fixed seed, then
    per fixed mutant, an empty proof and a wrong premise count."""
    from test_certificate_mutants import (
        er_certificates,
        mutants,
        search_certificates,
        tableau_certificates,
    )

    rng = random.Random(331)
    out = []
    for _, bundle, alpha, declared in (
        *er_certificates(), *tableau_certificates(), *search_certificates()
    ):
        for _, i, step in mutants(alpha, bundle.clauses.n, rng):
            steps = alpha.steps[:i] + (step,) + alpha.steps[i + 1:]
            rep = proof_stage(bundle, ResolutionProof(steps), declared)
            out.append(f"{rep.stage}|{rep.reason}\n")
        for i, step in fixed_mutants(alpha, bundle.clauses.n):
            steps = alpha.steps[:i] + (step,) + alpha.steps[i + 1:]
            rep = proof_stage(bundle, ResolutionProof(steps), declared)
            out.append(f"{rep.stage}|{rep.reason}\n")
        for proof, count in ((ResolutionProof(()), declared), (alpha, declared + 1)):
            rep = proof_stage(bundle, proof, count)
            out.append(f"{rep.stage}|{rep.reason}\n")
    return "".join(out)


def random_3cnf(rng, n, m):
    return ClauseSet(n, tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)))


def smallest_budget(cs, order=None):
    """The least ``max_nodes`` under which the search completes."""
    lo, hi = 0, dpll_refute(cs, order).nodes
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            dpll_refute(cs, order, max_nodes=mid)
            hi = mid
        except ProverError:
            lo = mid + 1
    return lo


def dpll_outcome_text():
    """Tree (or model) and node count of the branching search on a
    fixed list: pigeonhole and parity sets, seeded random 3-CNFs on
    both sides of the threshold, one reversed order, the halting grids
    in address order, and the budgets at which the search runs out;
    then refute_tableau's refutations of those grids."""
    from test_tableau import halting_grid

    cases = [("php43", php(4, 3), None), ("php54", php(5, 4), None),
             ("tseitin12", tseitin_cycle(12), None),
             ("php43-reversed", php(4, 3), tuple(range(12, 0, -1)))]
    rng = random.Random(1013)
    for i in range(12):
        cases.append((f"random{i}", random_3cnf(rng, 10, 36 + 2 * i), None))
    grids = [gen_tableau(*halting_grid(m)) for m in (2, 3, 4)]
    for m, bundle in zip((2, 3, 4), grids):
        cases.append((f"halt{m}", bundle.clauses, bundle.clauses.frees))
    out, sides = [], set()
    for name, cs, order in cases:
        res = dpll_refute(cs, order)
        sides.add(res.tree is None)
        out.append(f"{name} nodes {res.nodes}\n")
        if res.tree is None:
            out.append(" ".join(str(v if res.model[v] else -v) for v in sorted(res.model)) + "\n")
        else:
            out.append(serialize_dtree(cs, res.tree))
    assert sides == {True, False}
    out.extend(serialize_proof(refute_tableau(bundle), 0) for bundle in grids)
    for name, cs, order in cases[:4]:
        out.append(f"{name} budget {smallest_budget(cs, order)}\n")
    return "".join(out)


PRODUCERS = {
    "er_to_implicit-tseitin4": lambda p: er_to_implicit_text(tseitin_cycle(4)),
    "er_to_implicit-php32": lambda p: er_to_implicit_text(php(3, 2)),
    "er_to_implicit-quick-via-e": lambda p: er_to_implicit_text(*QUICK_VIA_E),
    "er_to_implicit-empty-member": lambda p: er_to_implicit_text(*EMPTY_MEMBER),
    "er_to_implicit-odd-clauses": lambda p: er_to_implicit_text(odd_clauses()),
    "search_translate-not4": lambda p: search_translate_text(4),
    "search_translate-not6": lambda p: search_translate_text(6),
    "cli-synth-tseitin4": lambda p: synth_text(tseitin_cycle(4), p),
    "cli-synth-tseitin7": lambda p: synth_text(tseitin_cycle(7), p),
    "cli-prove-tseitin4": prove_text,
    "cli-gen-c-tseitin4": lambda p: gen_c_text(tseitin_cycle(4), p),
    "cli-gen-c-php32": lambda p: gen_c_text(php(3, 2), p),
    "cli-gen-c-tseitin8": lambda p: gen_c_text(tseitin_cycle(8), p),
    "emb_refute-or_chains": lambda p: emb_refute_text(),
    "proof_stage-mutant-reports": lambda p: rejection_reports_text(),
    "dpll_refute-outcomes": lambda p: dpll_outcome_text(),
}
for _name in FIXTURES:
    for _kind, _spurious in (("plain", False), ("spurious", True)):
        PRODUCERS[f"graft_pq-{_name}-{_kind}"] = (
            lambda p, f=_name, s=_spurious: graft_pq_text(f, s))
    PRODUCERS[f"cli-tableau-gen-{_name}"] = lambda p, f=_name: tableau_gen_text(f, p)


def digest(name, tmp_path) -> str:
    return hashlib.sha256(PRODUCERS[name](tmp_path).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_artifact_bytes_unchanged(name, tmp_path, capsys):
    got = digest(name, tmp_path)
    capsys.readouterr()
    assert got == GOLDEN[name]
