"""The three workloads: their inputs, one pass each, and known answers.

A pass is a closed loop on one thread: every step starts when the one
before it returns.  Steps that have a command run in-process through
``implres.cli.main`` on files; ``gen_tableau``, ``refute_tableau``,
``graft_pq`` and the search-proof check have none and run through the
library.  Each step is timed into one phase of the pass:

- produce: input files to saved certificates;
- verify: a verdict on each genuine certificate (must accept);
- reject: a verdict on each seeded mutant (must reject).

``prepare`` runs every instance once before timing starts.  It records
the bytes each certificate must have on later passes, builds the seeded
mutants, checks the expected verdicts against ``oracle`` (and the
machine simulator for grids), and measures the certificate sizes.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import oracle

PHASES = ("produce", "verify", "reject")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Session:
    """Runs steps, times them, and counts attempts, failures and false
    accepts.  ``tracer`` is set while a pass is traced.  After every step
    the calibration loop runs for about CAL_SHARE of the step's time (at
    least once) into ``cal``, so that a pass's timings can be scaled by
    the machine speed seen while it ran."""

    CAL_SHARE = 0.1

    def __init__(self, lib, calibrate, cal_ref: float):
        self.lib = lib
        self.calibrate = calibrate
        self.cal_ref = cal_ref
        self.cal: list[float] = []
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.false_accepts = 0
        self.errors: list[str] = []

    def _calibrate_after(self, dt: float) -> None:
        for _ in range(max(1, round(dt * self.CAL_SHARE / self.cal_ref))):
            self.cal.append(self.calibrate())

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def cli(self, argv, expect: int = 0) -> float:
        """Run one command; returns its wall seconds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if self.tracer is None:
                    code = self.lib.cli.main(argv)
                else:
                    with self.tracer.span("cli." + argv[0]):
                        code = self.lib.cli.main(argv)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            self.fail(f"{' '.join(argv)}: raised {exc!r}")
            code = None
        dt = time.perf_counter() - t0
        self._calibrate_after(dt)
        if code is not None and code != expect:
            if expect == 1 and code == 0:
                self.false_accepts += 1
            self.fail(f"{' '.join(argv)}: exit {code}, expected {expect}: {sink.getvalue()[-300:]}")
        return dt

    def call(self, what: str, fn, *args):
        """Run one library step; returns (result or None, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            self.fail(f"{what}: raised {exc!r}")
            out = None
        dt = time.perf_counter() - t0
        self._calibrate_after(dt)
        return out, dt


@dataclass
class Instance:
    name: str
    dir: str
    inputs: dict = field(default_factory=dict)
    digest: str = ""
    mutants: list = field(default_factory=list)  # one list of mutant manifests per set
    sizes: tuple = (0, 0, 0)  # (steps, literals, gates)


class Workload:
    name = ""
    # seeded mutant sets per instance; pass p rejects set p % MUTANT_SETS,
    # so the reported median does not hang on one mutant's position
    MUTANT_SETS = 4

    def __init__(self, seed: int, lib, session: Session):
        self.seed = seed
        self.lib = lib
        self.s = session
        self.instances: list[Instance] = []

    def rng(self, *key) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/" + "/".join(map(str, key)))

    def setup(self, root: str) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def instances_for(self, p: int) -> list[Instance]:
        return self.instances

    def run_pass(self, p: int) -> dict:
        rec = {k: 0.0 for k in PHASES}
        steps = literals = gates = 0
        for inst in self.instances_for(p):
            produced = self.run_instance(inst, rec, p)
            if _digest(produced) != inst.digest:
                self.s.fail(f"{inst.name}: certificate bytes differ from the first run")
            steps += inst.sizes[0]
            literals += inst.sizes[1]
            gates += inst.sizes[2]
        rec.update(cert_steps=steps, cert_literals=literals, cert_gates=gates)
        return rec

    def run_instance(self, inst: Instance, rec: dict, p: int) -> list[str]:
        """Time one instance's steps of pass p into rec; returns the
        files it produced."""
        raise NotImplementedError

    def _volume(self, premises, proof) -> int:
        return sum(len(c) for c in self.lib.proofs.proof_clauses(premises, proof))


class ManifestWorkload(Workload):
    """Workloads whose certificates are implicit-refutation manifests
    (out/cert.*), checked by ``verify``; ``produce`` makes them."""

    FLIP = False  # flip mutants need circuits without spare frees

    def all_instances(self) -> list[Instance]:
        return self.instances

    def prepare(self):
        for inst in self.all_instances():
            out = os.path.join(inst.dir, "out")
            inst.digest = _digest(self.run_instance(inst, {k: 0.0 for k in PHASES}, 0))
            self._manifest_mutants(inst, out)
            inst.sizes = self._manifest_sizes(os.path.join(out, "cert.manifest"))

    def produce(self, inst: Instance, out: str) -> float:
        """Make out/cert.*; returns the seconds it took."""
        raise NotImplementedError

    def run_instance(self, inst, rec, p):
        out = os.path.join(inst.dir, "out")
        rec["produce"] += self.produce(inst, out)
        rec["verify"] += self.s.cli(["verify", os.path.join(out, "cert.manifest")])
        for m in inst.mutants[p % len(inst.mutants)] if inst.mutants else ():
            rec["reject"] += self.s.cli(["verify", m], expect=1)
        return [os.path.join(out, f"cert.{ext}") for ext in ("circ", "rproof")]

    def _manifest_sizes(self, manifest: str) -> tuple:
        lib = self.lib
        ir = lib.implicit.load_implicit(manifest)
        omega = lib.formulas.ClauseSet(ir.n, ir.omega.clauses)
        bundle = lib.correctness.gen_C(omega, ir.beta, ir.iface)
        return len(ir.alpha.steps), self._volume(bundle.clauses, ir.alpha), len(ir.beta.gates)

    def _manifest_mutants(self, inst: Instance, out: str) -> None:
        """Seeded invalid variants of out/cert.*, each with its own
        manifest: a self-citing late step, a dropped premise that makes
        omega satisfiable, and (for circuits without spare frees) a
        gate-literal flip after which the tree is no refutation."""
        cnf = _read(os.path.join(out, "cert.cnf"))
        circ = _read(os.path.join(out, "cert.circ"))
        proof = _read(os.path.join(out, "cert.rproof"))
        n = int(_read(os.path.join(out, "cert.manifest")).split("\nn ")[1].split()[0])
        _, omega = oracle.parse_cnf(cnf)
        declared, steps = oracle.parse_steps(proof)
        parsed = oracle.parse_circ(circ)
        if self.FLIP and len(parsed[0]) != n + 1:
            raise RuntimeError(f"{inst.name}: circuit has spare frees, flip answer unknown")
        for k in range(self.MUTANT_SETS):
            mdir = os.path.join(inst.dir, f"mut{k}")
            os.makedirs(mdir, exist_ok=True)
            rng = self.rng(inst.name, "mutants", k)
            late = oracle.self_cite_late_step(steps, rng)
            variants = {
                "late": (cnf, circ, "\n".join([f"res-proof {declared}", *map(oracle.step_text, late)]) + "\n"),
                "drop": (oracle.write_cnf(n, oracle.drop_premise(n, omega, rng)), circ, proof),
            }
            if self.FLIP:
                variants["flip"] = (cnf, oracle.write_circ(*oracle.flip_gate_literal(n, omega, parsed, rng)), proof)
            manifests = []
            for kind, (c, b, a) in variants.items():
                for ext, text in (("cnf", c), ("circ", b), ("rproof", a)):
                    _write(os.path.join(mdir, f"{kind}.{ext}"), text)
                manifest = os.path.join(mdir, f"{kind}.manifest")
                _write(manifest, f"implicit-refutation\nn {n}\nomega {kind}.cnf\n"
                                 f"beta {kind}.circ\nalpha {kind}.rproof\n")
                manifests.append(manifest)
            inst.mutants.append(manifests)

class TreeCertify(ManifestWorkload):
    """prove -> encode -> synth -> verify on fixed formulas plus one
    seeded random unsatisfiable 3-CNF per pass, drawn from a pool."""

    name = "tree-certify"
    FLIP = True
    FIXED = (("tseitin7", "tseitin_cycle", (7,)), ("php32", "php", (3, 2)))
    RANDOM_VARS = 6
    RANDOM_CLAUSES = 50
    POOL = 8

    def setup(self, root):
        fam = self.lib.families
        self.instances = []
        for name, family, size in self.FIXED:
            cs = getattr(fam, family)(*size)
            self.instances.append(self._add(root, name, cs.n, [c.literals for c in cs.clauses]))
        formulas = oracle.random_unsat_3cnfs(self.RANDOM_VARS, self.RANDOM_CLAUSES,
                                             self.POOL, self.rng("cnf"))
        self.pool = [self._add(root, f"rand{i}", self.RANDOM_VARS, clauses)
                     for i, clauses in enumerate(formulas)]

    @staticmethod
    def _add(root, name, n, clauses) -> Instance:
        d = os.path.join(root, name)
        os.makedirs(d)
        inst = Instance(name, d, {"cnf": os.path.join(d, f"{name}.cnf")})
        _write(inst.inputs["cnf"], oracle.write_cnf(n, clauses))
        return inst

    def instances_for(self, p):
        return self.instances + [self.pool[p % self.POOL]]

    def all_instances(self):
        return self.instances + self.pool

    def produce(self, inst, out):
        cnf = inst.inputs["cnf"]
        s = self.s
        return (
            s.cli(["prove", cnf, "-o", out])
            + s.cli(["encode", os.path.join(out, f"{inst.name}.dtree"), cnf, "-o", out])
            + s.cli(["synth", cnf, os.path.join(out, f"{inst.name}.circ"), "-o", out, "--stem", "cert"])
        )


class ErSimulate(ManifestWorkload):
    """translate-er -> verify on extension-style refutations built in
    setup; the path never compiles a tree or synthesizes alpha."""

    name = "er-simulate"
    FORMULAS = (("tseitin12", "tseitin_cycle", (12,)), ("php43", "php", (4, 3)))

    def setup(self, root):
        lib = self.lib
        self.instances = []
        for name, family, size in self.FORMULAS:
            cs = getattr(lib.families, family)(*size)
            d = os.path.join(root, name)
            os.makedirs(d)
            tree = lib.prover.dpll_refute(cs).tree
            ep = lib.proofs.ERProof(lib.circuits.Circuit((), (), ()), lib.prover.proof_from_tree(cs, tree))
            inst = Instance(name, d, {"cnf": os.path.join(d, f"{name}.cnf"),
                                      "er": os.path.join(d, f"{name}.erproof")})
            _write(inst.inputs["cnf"], lib.formulas.serialize_dimacs(cs))
            _write(inst.inputs["er"], lib.proofs.serialize_er(ep, len(cs.clauses)))
            self.instances.append(inst)

    def produce(self, inst, out):
        return self.s.cli(["translate-er", inst.inputs["cnf"], inst.inputs["er"],
                           "-o", out, "--stem", "cert"])


def halting_grid(lib, m: int):
    """The one-state machine that accepts at once, on a 2^m grid whose
    every row is the start row 1 0 .. 0 with the head on column 0."""
    b = lib.circuits.CircuitBuilder(lib.circuits.VarAlloc(2 * m + 1))
    for v in range(1, 2 * m + 1):
        b.free(v)
    col0 = b.not_(b.or_(*range(m + 1, 2 * m + 1)))
    beta = b.build((b.or_(col0), b.or_(col0), b.or_(col0)))
    tm = lib.tableau.TMSpec(1, 2, {}, frozenset({0}))
    iface = lib.tableau.TableauInterface(m, tuple(range(1, 2 * m + 1)), beta.outputs)
    return tm, (1,) + (0,) * ((1 << m) - 1), beta, iface


class GridGraft(Workload):
    """gen_tableau -> refute_tableau -> graft_pq -> tableau-verify on
    machine grids, then translate-search on complement problems."""

    name = "grid-graft"
    FIXTURES = ("tm_halt", "tm_write_stay", "tm_right_writer")
    GRID_SIZES = (2, 3, 4, 5)
    SEARCH_SIZES = (6, 7, 8, 9)

    def setup(self, root):
        lib = self.lib
        fam = lib.families
        grids = [(name, getattr(fam, name)()) for name in self.FIXTURES]
        grids += [(f"halt{m}", halting_grid(lib, m)) for m in self.GRID_SIZES]
        self.instances = []
        for name, (tm, tau, beta, iface) in grids:
            d = os.path.join(root, name)
            os.makedirs(d)
            inst = Instance(name, d, {"tm": os.path.join(d, "machine.tm"),
                                      "circ": os.path.join(d, "grid.circ"),
                                      "tau": lib.tableau.encode_tau(tau), "m": iface.m})
            _write(inst.inputs["tm"], lib.tableau.serialize_tm(tm))
            _write(inst.inputs["circ"], lib.circuits.serialize_circuit(beta))
            self.instances.append(inst)
        for n in self.SEARCH_SIZES:
            sp = fam.not_search(n)
            correct = lib.correctness.gen_correct(sp)
            tree = lib.prover.dpll_refute(correct, order=tuple(range(1, correct.n + 1))).tree
            ep = lib.proofs.ERProof(lib.circuits.Circuit((), (), ()),
                                    lib.prover.proof_from_tree(correct, tree))
            d = os.path.join(root, f"not{n}")
            os.makedirs(d)
            inst = Instance(f"not{n}", d, {"algo": os.path.join(d, "algo.circ"),
                                           "checker": os.path.join(d, "checker.circ"),
                                           "er": os.path.join(d, "pi.erproof"), "n": n})
            _write(inst.inputs["algo"], lib.circuits.serialize_circuit(sp.algorithm))
            _write(inst.inputs["checker"], lib.circuits.serialize_circuit(sp.checker))
            _write(inst.inputs["er"], lib.proofs.serialize_er(ep, len(correct.clauses)))
            self.instances.append(inst)

    def prepare(self):
        lib = self.lib
        T = lib.tableau
        for inst in self.instances:
            produced = self.run_instance(inst, {k: 0.0 for k in PHASES}, 0)
            inst.digest = _digest(produced)
            out = os.path.join(inst.dir, "out")
            if "n" in inst.inputs:
                grown = oracle.parse_circ(_read(os.path.join(out, "algo.grown.circ")))
                if not oracle.computes_complement(inst.inputs["n"], grown):
                    raise RuntimeError(f"{inst.name}: grown algorithm is wrong")
                sp, rho = self._search_parts(out, inst)
                inst.sizes = (len(rho.steps), self._volume(lib.correctness.gen_correct(sp), rho),
                              len(grown[1]))
                continue
            m, tau_hex = inst.inputs["m"], inst.inputs["tau"]
            tm = T.parse_tm(_read(inst.inputs["tm"]))
            tau = T.decode_tau(tau_hex, 1 << m)
            certs = self._grid_certs(inst)
            beta = lib.circuits.parse_circuit(_read(inst.inputs["circ"]))
            iface = T.tableau_interface_from_circuit(beta, m)
            if not T.run_accepts(tm, tau, beta, iface):
                raise RuntimeError(f"{inst.name}: simulator rejects the genuine grid")
            inst.inputs["wrong"] = []
            for k in range(self.MUTANT_SETS):
                rng = self.rng(inst.name, "target", k)
                while True:
                    wrong = tuple(rng.randrange(2) for _ in tau)
                    if wrong != tau and not T.run_accepts(tm, wrong, beta, iface):
                        break
                inst.inputs["wrong"].append(T.encode_tau(wrong))
            # the grafted grid must read the same cells, so the simulator's
            # verdicts carry over to it
            cells = [oracle.grid_cells(m, c, c[0][: 2 * m], c[2])
                     for c in (oracle.parse_circ(_read(p)) for p, _ in certs)]
            if cells[0] != cells[1]:
                raise RuntimeError(f"{inst.name}: grafted grid reads other cells")
            steps = literals = 0
            for circ_path, proof_path in certs:
                beta = lib.circuits.parse_circuit(_read(circ_path))
                iface = T.tableau_interface_from_circuit(beta, m)
                alpha, _ = lib.proofs.parse_proof(_read(proof_path))
                steps += len(alpha.steps)
                literals += self._volume(T.gen_tableau(tm, tau, beta, iface).clauses, alpha)
            inst.sizes = (steps, literals, len(beta.gates))

    def _grid_certs(self, inst):
        out = os.path.join(inst.dir, "out")
        return [(inst.inputs["circ"], os.path.join(out, "orig.rproof")),
                (os.path.join(out, "graft.circ"), os.path.join(out, "graft.rproof"))]

    def _search_parts(self, out, inst):
        lib = self.lib
        grown = lib.circuits.parse_circuit(_read(os.path.join(out, "algo.grown.circ")))
        checker = lib.circuits.parse_circuit(_read(inst.inputs["checker"]))
        sp = lib.correctness.SearchProblem(len(grown.free), grown.free, grown.outputs, grown, checker)
        rho, _ = lib.proofs.parse_proof(_read(os.path.join(out, "algo.rho.rproof")))
        return sp, rho

    def run_instance(self, inst, rec, p):
        out = os.path.join(inst.dir, "out")
        if "n" in inst.inputs:
            return self._run_search(inst, out, rec)
        lib, s = self.lib, self.s
        T, P = lib.tableau, lib.proofs
        os.makedirs(out, exist_ok=True)
        m, tau_hex = inst.inputs["m"], inst.inputs["tau"]
        (circ, orig_proof), (graft_circ, graft_proof) = self._grid_certs(inst)

        t0 = time.perf_counter()
        tm = T.parse_tm(_read(inst.inputs["tm"]))
        beta = lib.circuits.parse_circuit(_read(circ))
        iface = T.tableau_interface_from_circuit(beta, m)
        tau = T.decode_tau(tau_hex, 1 << m)
        glue = time.perf_counter() - t0
        bundle, t1 = s.call(f"{inst.name} gen_tableau", T.gen_tableau, tm, tau, beta, iface)
        alpha, t2 = s.call(f"{inst.name} refute_tableau", T.refute_tableau, bundle)
        t0 = time.perf_counter()
        _write(orig_proof, P.serialize_proof(alpha, len(bundle.clauses.clauses)))
        aux = P.ERProof(lib.circuits.Circuit((), (), ()), alpha)
        glue += time.perf_counter() - t0
        tr, t3 = s.call(f"{inst.name} graft_pq", T.graft_pq, tm, tau, beta, iface, aux)
        t0 = time.perf_counter()
        _write(graft_circ, lib.circuits.serialize_circuit(tr.beta))
        _write(graft_proof, P.serialize_proof(tr.alpha, tr.alpha_premises))
        rec["produce"] += glue + time.perf_counter() - t0 + t1 + t2 + t3

        for c, proof in ((circ, orig_proof), (graft_circ, graft_proof)):
            rec["verify"] += s.cli(["tableau-verify", inst.inputs["tm"], tau_hex, c, proof])
            if "wrong" in inst.inputs:
                wrong = inst.inputs["wrong"][p % len(inst.inputs["wrong"])]
                rec["reject"] += s.cli(["tableau-verify", inst.inputs["tm"], wrong, c, proof], expect=1)
        return [orig_proof, graft_circ, graft_proof]

    def _run_search(self, inst, out, rec):
        lib, s = self.lib, self.s
        rec["produce"] += s.cli(["translate-search", inst.inputs["algo"], inst.inputs["checker"],
                                 inst.inputs["er"], "-o", out])
        t0 = time.perf_counter()
        sp, rho = self._search_parts(out, inst)
        t = time.perf_counter() - t0
        ok, t1 = s.call(f"{inst.name} check_search_problem", lib.correctness.check_search_problem, sp)
        correct, t2 = s.call(f"{inst.name} gen_correct", lib.correctness.gen_correct, sp)
        rep, t3 = s.call(f"{inst.name} check_proof", lib.proofs.check_proof, correct, rho)
        if not (ok and rep):
            s.fail(f"{inst.name}: genuine search proof rejected")
        rec["verify"] += t + t1 + t2 + t3
        return [os.path.join(out, "algo.grown.circ"), os.path.join(out, "algo.rho.rproof")]


WORKLOADS = {w.name: w for w in (TreeCertify, ErSimulate, GridGraft)}
