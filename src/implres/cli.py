"""Command-line pipelines binding the library into file-to-file steps.

Exit codes: 0 success, 1 semantic rejection (failed verification,
satisfiable input where a refutation was requested), 2 malformed
input or unusable flags.  Diagnostics go to standard error; artifact
paths and measurements go to standard output.  Every command is a
pure function of its input files and flags, and every artifact it
writes is re-readable by the matching parser.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import Optional, Sequence

from .circuits import CircuitError, parse_circuit, serialize_circuit
from .correctness import (
    CorrectnessError,
    SearchProblem,
    gen_C,
    serialize_sidecar,
)
from .encoding import EncodingError, interface_from_circuit, tree_to_circuit
from .formulas import FormulaError, brute_force_sat, parse_dimacs, serialize_dimacs
from .implicit import (
    SYNTH_MAX_VARS,
    ImplicitError,
    ImplicitRefutation,
    load_implicit,
    save_implicit,
    synthesize_alpha,
    verify_implicit,
    write_atomic,
)
from .proofs import OpenLeaf, ProofError, er_premises, parse_er, parse_proof, serialize_proof
from .prover import (
    ProverError,
    balance_tree,
    dpll_refute,
    proof_from_tree,
    serialize_dtree,
    parse_dtree,
)
from .tableau import (
    TableauError,
    decode_tau,
    gen_tableau,
    parse_tm,
    tableau_interface_from_circuit,
    verify_pq,
)
from .translate import TranslateError, er_to_implicit, search_translate

PARSE_ERRORS = (
    FormulaError,
    CircuitError,
    ProofError,
    ProverError,
    EncodingError,
    CorrectnessError,
    ImplicitError,
    TableauError,
    TranslateError,
    OSError,
    UnicodeDecodeError,
)


class Reject(Exception):
    """Semantic rejection: well-formed input, negative verdict."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _stem(args) -> str:
    if args.stem:
        return args.stem
    return os.path.splitext(os.path.basename(args.inputs0))[0]


def _out(args, suffix: str) -> str:
    os.makedirs(args.outdir, exist_ok=True)
    return os.path.join(args.outdir, _stem(args) + suffix)


def cmd_prove(args) -> int:
    cs = parse_dimacs(_read(args.cnf))
    args.inputs0 = args.cnf
    out = dpll_refute(cs, max_nodes=args.max_nodes)
    if out.model is not None:
        lits = " ".join(str(v if val else -v) for v, val in sorted(out.model.items()))
        print(f"satisfiable: {lits}", file=sys.stderr)
        return 1
    tree_path = _out(args, ".dtree")
    write_atomic(tree_path, serialize_dtree(cs, out.tree))
    proof = proof_from_tree(cs, out.tree)
    # .res.rproof, so that synth's certificate <stem>.rproof beside it
    # does not overwrite it
    proof_path = _out(args, ".res.rproof")
    write_atomic(proof_path, serialize_proof(proof, len(cs.clauses)))
    print(tree_path)
    print(proof_path)
    return 0


def cmd_encode(args) -> int:
    cs = parse_dimacs(_read(args.cnf))
    tree = parse_dtree(_read(args.dtree), cs)
    args.inputs0 = args.dtree
    if cs.n > SYNTH_MAX_VARS:
        raise ImplicitError(
            f"encode capped at {SYNTH_MAX_VARS} variables, synth's cap, got {cs.n}: "
            "the balanced tree has 2^n leaves; certify larger trees with translate-er"
        )
    balanced = balance_tree(tree, tuple(range(1, cs.n + 1)))
    beta, _ = tree_to_circuit(balanced, cs.n)
    path = _out(args, ".circ")
    write_atomic(path, serialize_circuit(beta))
    print(path)
    return 0


def cmd_gen_c(args) -> int:
    omega = parse_dimacs(_read(args.cnf))
    beta = parse_circuit(_read(args.circ))
    args.inputs0 = args.circ
    iface = interface_from_circuit(beta, omega.n)
    bundle = gen_C(omega, beta, iface)
    cnf_path = _out(args, ".gen.cnf")
    write_atomic(cnf_path, serialize_dimacs(bundle.clauses))
    side_path = _out(args, ".sidecar")
    write_atomic(side_path, serialize_sidecar(bundle))
    print(cnf_path)
    print(side_path)
    return 0


def cmd_verify(args) -> int:
    ir = load_implicit(args.manifest)
    rep = verify_implicit(ir)
    if not rep:
        print(f"rejected at stage {rep.stage}: {rep.reason}", file=sys.stderr)
        return 1
    print(f"accepted: n={ir.n} |alpha|={len(ir.alpha.steps)} |beta|={len(ir.beta.gates)} gates")
    return 0


def cmd_synth(args) -> int:
    omega = parse_dimacs(_read(args.cnf))
    beta = parse_circuit(_read(args.circ))
    args.inputs0 = args.circ
    iface = interface_from_circuit(beta, omega.n)
    bundle = gen_C(omega, beta, iface)
    try:
        alpha = synthesize_alpha(bundle)
    except OpenLeaf as exc:
        raise Reject(f"described tree leaves branch {exc.bits} unrefuted")
    ir = ImplicitRefutation(
        omega.n, omega, alpha, beta, iface,
        alpha_premises=len(bundle.clauses),
    )
    manifest = save_implicit(ir, args.outdir, _stem(args))
    print(manifest)
    return 0


def _check_declared(declared: int, have: int) -> None:
    if declared != have:
        raise Reject(f"proof declares {declared} premises, the set has {have}")


def cmd_translate_er(args) -> int:
    omega = parse_dimacs(_read(args.cnf))
    ep, declared = parse_er(_read(args.erproof))
    _check_declared(declared, len(er_premises(omega, ep.aux)))
    args.inputs0 = args.cnf
    try:
        ir = er_to_implicit(omega, ep)
    except TranslateError as exc:
        raise Reject(str(exc))
    manifest = save_implicit(ir, args.outdir, _stem(args))
    print(manifest)
    print(f"steps {len(ir.alpha.steps)} beta-gates {len(ir.beta.gates)}")
    return 0


def cmd_translate_search(args) -> int:
    algo = parse_circuit(_read(args.algo))
    checker = parse_circuit(_read(args.checker))
    sp = SearchProblem(len(algo.free), algo.free, algo.outputs, algo, checker)
    ep, declared = parse_er(_read(args.erproof))
    args.inputs0 = args.algo
    try:
        ts = search_translate(sp, ep)
    except TranslateError as exc:
        raise Reject(str(exc))
    _check_declared(declared, ts.pi_premises)
    circ_path = _out(args, ".grown.circ")
    write_atomic(circ_path, serialize_circuit(ts.problem.algorithm))
    proof_path = _out(args, ".rho.rproof")
    write_atomic(proof_path, serialize_proof(ts.rho, ts.rho_premises))
    print(circ_path)
    print(proof_path)
    print(f"steps {len(ts.rho.steps)} algorithm-gates {len(ts.problem.algorithm.gates)}")
    return 0


def _tableau_parts(args):
    tm = parse_tm(_read(args.tm))
    beta = parse_circuit(_read(args.circ))
    if len(beta.free) % 2 != 0 or not beta.free:
        raise TableauError("grid circuit needs an even, positive number of frees")
    m = len(beta.free) // 2
    iface = tableau_interface_from_circuit(beta, m)
    tau = decode_tau(args.tau, 1 << m)
    return tm, tau, beta, iface


def cmd_tableau_gen(args) -> int:
    tm, tau, beta, iface = _tableau_parts(args)
    args.inputs0 = args.circ
    bundle = gen_tableau(tm, tau, beta, iface)
    path = _out(args, ".gen.cnf")
    write_atomic(path, serialize_dimacs(bundle.clauses))
    print(path)
    return 0


def cmd_tableau_verify(args) -> int:
    tm, tau, beta, iface = _tableau_parts(args)
    alpha, declared = parse_proof(_read(args.proof))
    rep = verify_pq(tm, tau, beta, iface, alpha, alpha_premises=declared)
    if not rep:
        print(f"rejected at stage {rep.stage}: {rep.reason}", file=sys.stderr)
        return 1
    print(f"accepted: |alpha|={len(alpha.steps)}")
    return 0


def cmd_oracle(args) -> int:
    cs = parse_dimacs(_read(args.cnf))
    model = brute_force_sat(cs, limit=args.limit)
    out = dpll_refute(cs, max_nodes=args.max_nodes)
    brute_sat = model is not None
    dpll_sat = out.model is not None
    print(f"brute-force: {'sat' if brute_sat else 'unsat'}")
    print(f"dpll:        {'sat' if dpll_sat else 'unsat'}")
    if brute_sat != dpll_sat:
        print("verdicts disagree", file=sys.stderr)
        return 1
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--outdir", default=".", help="output directory")
    p.add_argument("--stem", default=None, help="output file stem")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="implres",
        description="Implicitly described tree-like resolution: proof search, "
        "circuit compression, certification, and proof translation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="refute a CNF, emitting decision tree and proof")
    p.add_argument("cnf")
    p.add_argument("--max-nodes", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("encode", help="compile a decision tree into a circuit")
    p.add_argument("dtree")
    p.add_argument("cnf", help="premise CNF the tree refers to")
    _add_common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("gen-c", help="emit the correctness clause set and layout sidecar")
    p.add_argument("cnf")
    p.add_argument("circ")
    _add_common(p)
    p.set_defaults(func=cmd_gen_c)

    p = sub.add_parser("verify", help="check an implicit-refutation manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="synthesize the certificate for a described tree")
    p.add_argument("cnf")
    p.add_argument("circ")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("translate-er", help="fold an ER refutation into an implicit one")
    p.add_argument("cnf")
    p.add_argument("erproof")
    _add_common(p)
    p.set_defaults(func=cmd_translate_er)

    p = sub.add_parser(
        "translate-search", help="transfer a correctness proof onto a grown algorithm"
    )
    p.add_argument("algo")
    p.add_argument("checker")
    p.add_argument("erproof")
    _add_common(p)
    p.set_defaults(func=cmd_translate_search)

    p = sub.add_parser("tableau-gen", help="emit machine-run constraint clauses")
    p.add_argument("tm")
    p.add_argument("tau", help="target word, hex")
    p.add_argument("circ", help="grid circuit")
    _add_common(p)
    p.set_defaults(func=cmd_tableau_gen)

    p = sub.add_parser("tableau-verify", help="check a machine-run refutation")
    p.add_argument("tm")
    p.add_argument("tau")
    p.add_argument("circ")
    p.add_argument("proof")
    p.set_defaults(func=cmd_tableau_verify)

    p = sub.add_parser("oracle", help="cross-check solver verdicts by brute force")
    p.add_argument("cnf")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--max-nodes", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # A command builds only acyclic objects (clauses, steps, carrier
    # groups), which reference counting frees as they die; the cyclic
    # collector's passes over them find nothing.  It is paused for the
    # command and left as the caller had it on every way out.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except Reject as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
