"""The implicit proof system: tuples (n, omega, alpha, beta), their
verifier, and a certificate synthesizer.

A tuple claims that beta describes a balanced tree-like refutation of
omega; alpha certifies the claim by refuting the generated clause set
C(omega, beta) in plain resolution, which the verifier replays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from .circuits import Circuit, parse_circuit, serialize_circuit
from .correctness import CorrectnessBundle, gen_C
from .encoding import TreeInterface, interface_from_circuit
from .formulas import ClauseSet, parse_dimacs, serialize_dimacs
from .proofs import (
    ResolutionProof,
    Weaken,
    branch_refute,
    check_proof,
    parse_proof,
    serialize_proof,
)
from .prover import DecisionTree, balance_tree, check_decision_tree


class ImplicitError(ValueError):
    pass


@dataclass(frozen=True)
class ImplicitRefutation:
    n: int
    omega: ClauseSet
    alpha: ResolutionProof
    beta: Circuit
    iface: TreeInterface
    alpha_premises: int  # declared count from the proof file


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    stage: str  # machine | decode | interface | generate | proof
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def proof_stage(bundle, alpha: ResolutionProof, declared: int) -> VerifyReport:
    """Judge a certificate against a generated clause set (any carrier
    bundle): the declared premise count must match, weakening may not
    leave the set's variables, and the replay must reach the empty
    clause.  It reads only the set's ``len``, ``n`` and the premises
    alpha cites, so a Carrier is never built in full here."""
    cs = bundle.clauses
    if declared != len(cs):
        return VerifyReport(
            False, "proof", f"proof declares {declared} premises, the set has {len(cs)}"
        )
    for step in alpha.steps:
        if type(step) is Weaken:
            for lit in step.literals:
                if abs(lit) > cs.n:
                    return VerifyReport(
                        False, "proof",
                        f"weakening introduces variable {abs(lit)} outside the set",
                    )
    pr = check_proof(cs, alpha)
    if not pr:
        return VerifyReport(False, "proof", f"step {pr.step}: {pr.reason}")
    return VerifyReport(True, "proof")


def verify_carrier(
    generate: Callable[[], object], alpha: ResolutionProof, declared: int
) -> VerifyReport:
    """The one verifier path: generate the carrier, then judge alpha
    against it (proof_stage).  A generator refuses with a ValueError;
    one that names its stage (TableauRefusal, InterfaceError) is
    reported there, any other at stage generate."""
    try:
        bundle = generate()
    except ValueError as exc:
        return VerifyReport(False, getattr(exc, "stage", "generate"), str(exc))
    return proof_stage(bundle, alpha, declared)


def verify_implicit(ir: ImplicitRefutation) -> VerifyReport:
    if ir.n < 1:
        return VerifyReport(False, "decode", f"bad variable count {ir.n}")
    occurring = set()
    for c in ir.omega:
        occurring.update(abs(l) for l in c)
    if occurring and max(occurring) > ir.n:
        return VerifyReport(
            False, "interface", f"omega uses variable {max(occurring)} > n"
        )
    if ir.iface.n != ir.n:
        return VerifyReport(False, "interface", "interface variable count differs")
    return verify_carrier(
        lambda: gen_C(ClauseSet(ir.n, ir.omega.clauses), ir.beta, ir.iface),
        ir.alpha, ir.alpha_premises,
    )


def synthesize_alpha(bundle: CorrectnessBundle) -> ResolutionProof:
    """Refute the generated set C(omega, beta) by branching its frees,
    the z variables, in ascending order (proofs.branch_refute); a leaf
    where propagation finds no conflict raises proofs.OpenLeaf, whose
    ``bits`` address a leaf clause that weakens no member of omega."""
    cs = bundle.clauses
    if len(cs.frees) > 16:
        raise ImplicitError(
            f"synthesis capped at 16 branch variables, got {len(cs.frees)}; "
            "certify larger trees with translate-er"
        )
    return branch_refute(cs, cs.frees)


def implicit_from_tree(omega: ClauseSet, tree: DecisionTree) -> ImplicitRefutation:
    """Balance the tree, compile it, and synthesize the certificate."""
    from .encoding import tree_to_circuit

    n = omega.n
    rep = check_decision_tree(omega, tree)
    if not rep:
        raise ImplicitError(f"bad decision tree: {rep.reason}")
    balanced = balance_tree(tree, tuple(range(1, n + 1)))
    beta, iface = tree_to_circuit(balanced, n)
    bundle = gen_C(omega, beta, iface)
    alpha = synthesize_alpha(bundle)
    return ImplicitRefutation(
        n, omega, alpha, beta, iface, alpha_premises=len(bundle.clauses)
    )


@dataclass(frozen=True)
class Manifest:
    n: int
    omega_path: str
    beta_path: str
    alpha_path: str


def serialize_manifest(m: Manifest) -> str:
    return (
        "implicit-refutation\n"
        f"n {m.n}\n"
        f"omega {m.omega_path}\n"
        f"beta {m.beta_path}\n"
        f"alpha {m.alpha_path}\n"
    )


def parse_manifest(text: str) -> Manifest:
    header = False
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header:
            if line != "implicit-refutation":
                raise ImplicitError("missing implicit-refutation header")
            header = True
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("n", "omega", "beta", "alpha"):
            raise ImplicitError(f"malformed manifest line {line!r}")
        if parts[0] in fields:
            raise ImplicitError(f"duplicate manifest key {parts[0]}")
        fields[parts[0]] = parts[1].strip()
    if not header:
        raise ImplicitError("missing implicit-refutation header")
    missing = [k for k in ("n", "omega", "beta", "alpha") if k not in fields]
    if missing:
        raise ImplicitError(f"manifest missing keys {missing}")
    for key in ("omega", "beta", "alpha"):
        if "\0" in fields[key]:
            raise ImplicitError(f"manifest {key} path contains a NUL byte")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ImplicitError("manifest n is not an integer") from None
    return Manifest(n, fields["omega"], fields["beta"], fields["alpha"])


def load_implicit(manifest_path: str) -> ImplicitRefutation:
    with open(manifest_path, "r", encoding="utf-8") as fh:
        m = parse_manifest(fh.read())
    base = os.path.dirname(os.path.abspath(manifest_path))

    def read(rel: str) -> str:
        with open(os.path.join(base, rel), "r", encoding="utf-8") as fh:
            return fh.read()

    omega = parse_dimacs(read(m.omega_path))
    beta = parse_circuit(read(m.beta_path))
    alpha, declared = parse_proof(read(m.alpha_path))
    iface = interface_from_circuit(beta, m.n)
    return ImplicitRefutation(m.n, omega, alpha, beta, iface, alpha_premises=declared)


def write_atomic(path: str, text: str) -> None:
    """Write through a temporary file renamed into place, so a reader
    never sees a partial file and a failed write keeps the old one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_implicit(
    ir: ImplicitRefutation, outdir: str, stem: str = "refutation"
) -> str:
    """Write omega/beta/alpha, then the manifest; returns its path.
    The proof file declares ``ir.alpha_premises``, which every producer
    records from the carrier it refuted."""
    os.makedirs(outdir, exist_ok=True)
    m = Manifest(ir.n, f"{stem}.cnf", f"{stem}.circ", f"{stem}.rproof")
    for name, text in (
        (m.omega_path, serialize_dimacs(ir.omega)),
        (m.beta_path, serialize_circuit(ir.beta)),
        (m.alpha_path, serialize_proof(ir.alpha, ir.alpha_premises)),
        (f"{stem}.manifest", serialize_manifest(m)),
    ):
        write_atomic(os.path.join(outdir, name), text)
    return os.path.join(outdir, f"{stem}.manifest")
