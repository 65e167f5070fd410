"""Machine-run grids as implicitly described clause sets.

A run of a deterministic single-tape machine is laid out on an n-by-n
grid (n = 2^m): row j is the tape after j steps, column k one cell.
A grid circuit maps a 2m-bit address (row bits then column bits,
least significant first) to one cell: symbol bits, a head flag, and a
one-hot state block.  The generated clause set leaves one address
pair free, reads the addressed cell and its three relevant
neighbours through four copies of the grid circuit, and raises a
verdict gate that is false exactly when something is locally wrong
there: a malformed cell, a bad start row, a next-row cell that
contradicts the transition table, a head walking off the tape, or a
last row that is not an accepting stop spelling the target bits.
With the negated verdict appended as a unit, the set is
unsatisfiable exactly when the grid is a valid accepting run with
the target output.  gen_tableau lays it as a circuits.Carrier and
returns it in a correctness.CorrectnessBundle, like gen_C, with no id
table beside it: delta is the verdict block's last gate.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Optional, Sequence

from .circuits import (
    Circuit,
    CircuitBuilder,
    CircuitReport,
    VarAlloc,
    assemble_carrier,
    check_ports,
    evaluate,
)
from .correctness import CorrectnessBundle
from .implicit import VerifyReport, verify_carrier
from .proofs import ERProof, OpenLeaf, ResolutionProof, branch_refute
from .translate import check_input, graft_fold


class TableauError(ValueError):
    pass


class TableauRefusal(TableauError):
    """gen_tableau's refusal at stage machine, decode or interface."""

    def __init__(self, stage: str, reason: str):
        super().__init__(reason)
        self.stage = stage


MOVES = ("L", "R", "S")


@dataclass(frozen=True)
class TMSpec:
    """Deterministic single-tape machine.  State 0 starts; a row whose
    head sits in an accepting state, or reads a pair with no table
    entry, repeats unchanged."""

    n_states: int
    n_symbols: int
    trans: dict[tuple[int, int], tuple[int, int, str]]
    accepting: frozenset[int]


def check_machine(tm: TMSpec) -> CircuitReport:
    if tm.n_states < 1:
        return CircuitReport(False, f"bad state count {tm.n_states}")
    if tm.n_symbols < 2:
        return CircuitReport(False, "alphabet must contain the two output symbols")
    for (q, s), (q2, s2, mv) in tm.trans.items():
        if not (0 <= q < tm.n_states and 0 <= s < tm.n_symbols):
            return CircuitReport(False, f"transition source ({q},{s}) out of range")
        if not (0 <= q2 < tm.n_states and 0 <= s2 < tm.n_symbols):
            return CircuitReport(False, f"transition target ({q2},{s2}) out of range")
        if mv not in MOVES:
            return CircuitReport(False, f"bad move {mv!r}")
    for q in tm.accepting:
        if not 0 <= q < tm.n_states:
            return CircuitReport(False, f"accepting state {q} out of range")
    return CircuitReport(True)


def parse_tm(text: str) -> TMSpec:
    n_states: Optional[int] = None
    n_symbols: Optional[int] = None
    trans: dict[tuple[int, int], tuple[int, int, str]] = {}
    accepting: set[int] = set()
    header = False

    def num(tok: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise TableauError(f"line {lineno}: bad number {tok!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not header:
            if parts != ["tm"]:
                raise TableauError(f"line {lineno}: expected 'tm' header")
            header = True
            continue
        kw = parts[0]
        if kw == "states" and len(parts) == 2:
            n_states = num(parts[1], lineno)
        elif kw == "alpha" and len(parts) == 2:
            n_symbols = num(parts[1], lineno)
        elif kw == "trans" and len(parts) == 6:
            q, s = num(parts[1], lineno), num(parts[2], lineno)
            q2, s2 = num(parts[3], lineno), num(parts[4], lineno)
            if (q, s) in trans:
                raise TableauError(f"line {lineno}: duplicate entry for ({q},{s})")
            trans[(q, s)] = (q2, s2, parts[5])
        elif kw == "accept" and len(parts) == 2:
            accepting.add(num(parts[1], lineno))
        else:
            raise TableauError(f"line {lineno}: cannot parse {line!r}")
    if not header:
        raise TableauError("missing 'tm' header")
    if n_states is None or n_symbols is None:
        raise TableauError("missing states/alpha declaration")
    tm = TMSpec(n_states, n_symbols, trans, frozenset(accepting))
    rep = check_machine(tm)
    if not rep:
        raise TableauError(rep.reason)
    return tm


def serialize_tm(tm: TMSpec) -> str:
    lines = ["tm", f"states {tm.n_states}", f"alpha {tm.n_symbols}"]
    for (q, s), (q2, s2, mv) in sorted(tm.trans.items()):
        lines.append(f"trans {q} {s} {q2} {s2} {mv}")
    for q in sorted(tm.accepting):
        lines.append(f"accept {q}")
    return "\n".join(lines) + "\n"


def decode_tau(text: str, n: int) -> tuple[int, ...]:
    """Hex-coded target word of n bits; leftmost bit is column 0.

    The word must have exactly the (n + 3) // 4 digits encode_tau
    writes, which is checked before n is used as a shift count."""
    text = text.strip()
    width = (n + 3) // 4
    if len(text) != width or not all(c in string.hexdigits for c in text):
        raise TableauError(f"target word {text!r} is not {width} hex digits")
    value = int(text, 16)
    if value >= 1 << n:
        raise TableauError(f"target word {text!r} does not fit {n} bits")
    return tuple((value >> (n - 1 - k)) & 1 for k in range(n))


def encode_tau(bits: Sequence[int]) -> str:
    n = len(bits)
    value = 0
    for k, b in enumerate(bits):
        if b not in (0, 1):
            raise TableauError(f"target bit {b!r} at column {k}")
        value |= b << (n - 1 - k)
    return format(value, f"0{(n + 3) // 4}x")


def symbol_bits(tm: TMSpec) -> int:
    return max(1, (tm.n_symbols - 1).bit_length())


def cell_width(tm: TMSpec) -> int:
    # symbol bits, head flag, one-hot state block
    return symbol_bits(tm) + 1 + tm.n_states


@dataclass(frozen=True)
class TableauInterface:
    """Input/output contract of a grid circuit: row address bits
    first (least significant first), then column bits; outputs are
    one cell in layout order."""

    m: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))


def check_tableau_interface(
    circuit: Circuit, iface: TableauInterface, tm: TMSpec
) -> CircuitReport:
    """Port check: the frees are exactly the 2m address inputs, the
    outputs one cell."""
    if iface.m < 1:
        return CircuitReport(False, f"bad address width {iface.m}")
    return check_ports(circuit, iface, 2 * iface.m, cell_width(tm), 0)


def tableau_interface_from_circuit(circuit: Circuit, m: int) -> TableauInterface:
    """Read the positional convention: first 2m frees, all outputs."""
    if len(circuit.free) < 2 * m:
        raise TableauError("circuit has fewer frees than declared address bits")
    return TableauInterface(m, circuit.free[: 2 * m], circuit.outputs)


# ---------------------------------------------------------------------------
# Direct simulation: the semantic reference the clause set must agree with.


def read_grid(
    tm: TMSpec, beta: Circuit, iface: TableauInterface
) -> tuple[tuple[tuple[bool, ...], ...], ...]:
    """Evaluate the grid circuit on every address."""
    m = iface.m
    n = 1 << m
    rows = []
    for j in range(n):
        row = []
        for k in range(n):
            vals = {}
            for i in range(m):
                vals[iface.inputs[i]] = bool((j >> i) & 1)
                vals[iface.inputs[m + i]] = bool((k >> i) & 1)
            out = evaluate(beta, vals)
            row.append(tuple(out[y] for y in iface.outputs))
        rows.append(tuple(row))
    return tuple(rows)


def _decode_cell(tm: TMSpec, bits: Sequence[bool]):
    sb = symbol_bits(tm)
    sym = sum(1 << i for i in range(sb) if bits[i])
    head = bool(bits[sb])
    states = [q for q in range(tm.n_states) if bits[sb + 1 + q]]
    return sym, head, states


def check_run(
    tm: TMSpec,
    tau_bits: Sequence[int],
    grid: Sequence[Sequence[Sequence[bool]]],
) -> CircuitReport:
    """Judge a grid directly: start row, stepwise evolution, halt in
    an accepting state, output equal to the target bits."""
    n = len(grid)
    cells = []
    for j in range(n):
        row = []
        for k in range(n):
            sym, head, states = _decode_cell(tm, grid[j][k])
            if len(states) > 1:
                return CircuitReport(False, f"cell ({j},{k}): several states set")
            if head and not states:
                return CircuitReport(False, f"cell ({j},{k}): head without a state")
            if not head and states:
                return CircuitReport(False, f"cell ({j},{k}): state without the head")
            row.append((sym, head, states[0] if states else None))
        cells.append(row)
    sym0, head0, state0 = cells[0][0]
    if not head0 or state0 != 0:
        return CircuitReport(False, "start row: head must sit on column 0 in state 0")
    for k in range(1, n):
        if cells[0][k][1]:
            return CircuitReport(False, f"start row: stray head at column {k}")
    for j in range(n):
        if sum(1 for k in range(n) if cells[j][k][1]) != 1:
            return CircuitReport(False, f"row {j} does not carry exactly one head")
    for j in range(n - 1):
        nxt = _step_row(tm, cells[j])
        if nxt is None:
            return CircuitReport(False, f"row {j}: head walks off the tape")
        if nxt != cells[j + 1]:
            return CircuitReport(False, f"row {j + 1} does not follow from row {j}")
    last = cells[n - 1]
    hk = next(k for k in range(n) if last[k][1])
    if last[hk][2] not in tm.accepting:
        return CircuitReport(False, "machine has not halted in an accepting state")
    for k in range(n):
        if last[k][0] != tau_bits[k]:
            return CircuitReport(False, f"output differs from the target at column {k}")
    return CircuitReport(True)


def _step_row(tm: TMSpec, row):
    """One machine step on a decoded row; None when the head would
    leave the tape.  Accepting or table-less pairs repeat the row."""
    n = len(row)
    hk = next(k for k in range(n) if row[k][1])
    sym, _, q = row[hk]
    if q in tm.accepting or (q, sym) not in tm.trans:
        return list(row)
    q2, s2, mv = tm.trans[(q, sym)]
    target = hk + {"L": -1, "R": 1, "S": 0}[mv]
    if target < 0 or target >= n:
        return None
    nxt = []
    for k in range(n):
        s = s2 if k == hk else row[k][0]
        if k == target:
            nxt.append((s, True, q2))
        else:
            nxt.append((s, False, None))
    return nxt


def run_accepts(tm: TMSpec, tau_bits: Sequence[int], beta: Circuit, iface: TableauInterface) -> bool:
    return bool(check_run(tm, tau_bits, read_grid(tm, beta, iface)))


# ---------------------------------------------------------------------------
# Clause-set generation.


def _xor(b: CircuitBuilder, x: int, y: int) -> int:
    return b.or_(b.and_(x, -y), b.and_(-x, y))


def _ripple(b: CircuitBuilder, bits: Sequence[int], sign: int) -> tuple[int, ...]:
    """Ripple add-one (sign 1) or subtract-one (sign -1), whose carry
    is the borrow; the top carry drops (addresses wrap, guards mask it)."""
    out = [b.not_(bits[0])]
    carry = sign * bits[0]
    for v in bits[1:]:
        out.append(_xor(b, v, carry))
        carry = b.and_(sign * v, carry)
    return tuple(out)


def gen_tableau(
    tm: TMSpec,
    tau_bits: Sequence[int],
    beta: Circuit,
    iface: TableauInterface,
) -> CorrectnessBundle:
    """Constraint clauses for 'the described grid is a valid accepting
    run with the target output'.

    Layout: address frees 1..2m, then arithmetic/flag gates, then a
    reserved block of four cell images, then the fault-detector ids,
    and the four grid-circuit copies laid by assemble_carrier on a stride
    of four from copy_base (copy 0 reads the addressed cell, copies
    1-3 its left, right and lower neighbours).  Gate and clause order
    follow circuits.assemble_carrier, with the arithmetic/flag gates
    as pre-block and the detectors as verdict block, delta last.  The
    bundle is the carrier alone: its frees are the row then column
    bits, and the cells are the copies' output images.  Everything but
    the copy region is independent of the grid circuit, so the bundle
    is a carrier for translate.graft_fold: a grid circuit rebased onto
    copy 0 and grown on the same stride regenerates a set containing
    this one.  The machine, target word and port checks run here only,
    and a refusal names the stage verify_pq reports."""
    rep = check_machine(tm)
    if not rep:
        raise TableauRefusal("machine", rep.reason)
    m = iface.m
    n = 1 << m if m >= 1 else 0
    tau = tuple(tau_bits)
    if len(tau) != n or any(b not in (0, 1) for b in tau):
        raise TableauRefusal("decode", f"target word must be {n} bits")
    rep = check_tableau_interface(beta, iface, tm)
    if not rep:
        raise TableauRefusal("interface", rep.reason)
    sb = symbol_bits(tm)
    cw = cell_width(tm)

    jv = tuple(range(1, m + 1))
    kv = tuple(range(m + 1, 2 * m + 1))
    b = CircuitBuilder(VarAlloc(2 * m + 1))
    tt = b.const_true(jv[0])
    j0 = b.not_(b.or_(*jv))
    jlast = b.not_(b.or_(*(-v for v in jv)))
    k0 = b.not_(b.or_(*kv))
    klast = b.not_(b.or_(*(-v for v in kv)))
    jp1 = _ripple(b, jv, 1)
    kp1 = _ripple(b, kv, 1)
    km1 = _ripple(b, kv, -1)

    cell: dict[tuple[int, int], int] = {}
    for c in range(4):
        for t in range(cw):
            cell[(c, t)] = b.fresh.fresh()

    # the fault block takes ids before the copy stride but sits after
    # it in gate order, so it collects its gates separately
    s = CircuitBuilder(b.fresh)
    false = s.not_(tt)

    def any_(terms: list[int]) -> int:
        return s.or_(*terms) if terms else false

    def sym(c: int, i: int) -> int:
        return cell[(c, i)]

    def head(c: int) -> int:
        return cell[(c, sb)]

    def state(c: int, q: int) -> int:
        return cell[(c, sb + 1 + q)]

    # Malformed addressed cell: states are one-hot under the head and
    # absent without it.
    shape_terms = []
    for a in range(tm.n_states):
        for c2 in range(a + 1, tm.n_states):
            shape_terms.append(s.and_(state(0, a), state(0, c2)))
    for a in range(tm.n_states):
        shape_terms.append(s.and_(-head(0), state(0, a)))
    shape_terms.append(s.and_(head(0), *(-state(0, a) for a in range(tm.n_states))))
    shape_viol = any_(shape_terms)

    # Start row: head on column 0 in state 0, bare cells elsewhere.
    bad_home = s.or_(-head(0), -state(0, 0))
    bad_far = s.or_(head(0), *(state(0, a) for a in range(tm.n_states)))
    frame_viol = s.or_(s.and_(j0, k0, bad_home), s.and_(j0, -k0, bad_far))

    # Applicable-move selectors on the addressed cell and its row
    # neighbours.  Accepting or table-less pairs have none and the
    # row repeats below.
    active = [
        (q, v, q2, s2, mv)
        for (q, v), (q2, s2, mv) in sorted(tm.trans.items())
        if q not in tm.accepting
    ]
    symeq: dict[tuple[int, int], int] = {}
    sel: dict[tuple[int, int, int], int] = {}
    for c in range(3):
        for v in sorted({v for (_, v, _, _, _) in active}):
            lits = [sym(c, i) if (v >> i) & 1 else -sym(c, i) for i in range(sb)]
            symeq[(c, v)] = s.and_(*lits)
        for (q, v, q2, s2, mv) in active:
            sel[(c, q, v)] = s.and_(head(c), state(c, q), symeq[(c, v)])
    act0 = any_([sel[(0, q, v)] for (q, v, _, _, _) in active])
    noact0 = s.not_(act0)
    inert0 = s.and_(head(0), noact0)

    # Head walking off the tape.
    off_l = any_([sel[(0, q, v)] for (q, v, _, _, mv) in active if mv == "L"])
    off_r = any_([sel[(0, q, v)] for (q, v, _, _, mv) in active if mv == "R"])
    off_viol = s.or_(s.and_(k0, off_l), s.and_(klast, off_r))

    # Expected next-row cell under this column.
    exp_sym = []
    for i in range(sb):
        terms = [sel[(0, q, v)] for (q, v, _, s2, _) in active if (s2 >> i) & 1]
        terms.append(s.and_(noact0, sym(0, i)))
        exp_sym.append(any_(terms))
    arrive: list[tuple[int, int]] = []
    for (q, v, q2, _, mv) in active:
        if mv == "R":
            arrive.append((s.and_(-k0, sel[(1, q, v)]), q2))
        elif mv == "L":
            arrive.append((s.and_(-klast, sel[(2, q, v)]), q2))
    stay = [sel[(0, q, v)] for (q, v, _, _, mv) in active if mv == "S"]
    exp_head = any_(stay + [inert0] + [g for g, _ in arrive])
    exp_state = []
    for bq in range(tm.n_states):
        terms = [
            sel[(0, q, v)] for (q, v, q2, _, mv) in active if mv == "S" and q2 == bq
        ]
        terms.append(s.and_(inert0, state(0, bq)))
        terms.extend(g for g, q2 in arrive if q2 == bq)
        exp_state.append(any_(terms))
    diffs = [_xor(s, cell[(3, i)], exp_sym[i]) for i in range(sb)]
    diffs.append(_xor(s, cell[(3, sb)], exp_head))
    diffs.extend(_xor(s, cell[(3, sb + 1 + bq)], exp_state[bq]) for bq in range(tm.n_states))
    trans_viol = s.and_(-jlast, s.or_(*diffs))

    # Last row: accepting stop spelling the target bits.
    eq_true = []
    for col in range(n):
        if tau[col]:
            eq_true.append(
                s.and_(*(kv[i] if (col >> i) & 1 else -kv[i] for i in range(m)))
            )
    tau_at_k = any_(eq_true)
    tau_diff = _xor(s, sym(0, 0), tau_at_k)
    high = [sym(0, i) for i in range(1, sb)]
    nonacc = any_([state(0, q) for q in range(tm.n_states) if q not in tm.accepting])
    last_viol = s.and_(jlast, s.or_(tau_diff, *high, s.and_(head(0), nonacc)))

    viol = s.or_(shape_viol, frame_viol, off_viol, trans_viol, last_viol)
    s.not_(viol)  # delta, the verdict block's last gate

    copy_base = b.fresh.next_var
    addr = (jv + kv, jv + km1, jv + kp1, jp1 + kv)
    ports = []
    for c in range(4):
        port = dict(zip(iface.inputs, addr[c]))
        port.update((y, cell[(c, t)]) for t, y in enumerate(iface.outputs))
        ports.append(port)
    return CorrectnessBundle(assemble_carrier(jv + kv, b.gates, beta, copy_base, ports, s.gates))


def address_sweep(bundle: CorrectnessBundle) -> tuple[bool, Optional[tuple[int, int]]]:
    """Exact satisfiability of the bundle by sweeping the free
    addresses: every other variable is gate-defined, so each address
    extends uniquely.  Returns (unsat, falsifying address)."""
    cs = bundle.clauses
    m = len(cs.frees) // 2
    jv, kv = cs.frees[:m], cs.frees[m:]
    for j in range(1 << m):
        for k in range(1 << m):
            vals = {}
            for i in range(m):
                vals[jv[i]] = bool((j >> i) & 1)
                vals[kv[i]] = bool((k >> i) & 1)
            out = evaluate(cs.circuit, vals)
            if not out[cs.delta]:
                return False, (j, k)
    return True, None


def refute_tableau(bundle: CorrectnessBundle) -> Optional[ResolutionProof]:
    """Branch on the address bits (proofs.branch_refute); unit
    propagation settles the gates.  None when the bundle is satisfiable."""
    try:
        return branch_refute(bundle.clauses, bundle.clauses.frees)
    except OpenLeaf:
        return None


# ---------------------------------------------------------------------------
# Verification and grafting.


@dataclass(frozen=True)
class TableauRefutation:
    tm: TMSpec
    tau_bits: tuple[int, ...]
    alpha: ResolutionProof
    beta: Circuit
    iface: TableauInterface
    alpha_premises: int


def verify_pq(
    tm: TMSpec,
    tau_bits: Sequence[int],
    beta: Circuit,
    iface: TableauInterface,
    alpha: ResolutionProof,
    alpha_premises: int,
) -> VerifyReport:
    return verify_carrier(
        lambda: gen_tableau(tm, tau_bits, beta, iface), alpha, alpha_premises
    )


def verify_refutation(tr: TableauRefutation) -> VerifyReport:
    return verify_pq(tr.tm, tr.tau_bits, tr.beta, tr.iface, tr.alpha, tr.alpha_premises)


def graft_pq(
    tm: TMSpec,
    tau_bits: Sequence[int],
    beta: Circuit,
    iface: TableauInterface,
    alpha_er: ERProof,
) -> TableauRefutation:
    """Fold an ER refutation of the constraint set into the grid
    circuit itself, by the same fold as for tree carriers
    (translate.graft_fold) on the four-copy stride: the grid circuit
    is rebased onto the addressed cell's copy, so the grown grid reads
    the same cells, and it carries a duplicate of the proof's aux
    cone, the generator gates its auxiliaries read, and of the
    auxiliaries (refute_tableau's refutations have none, so nothing is
    duplicated).  alpha_er is checked against the constraint set first,
    and the certificate is replayed against the grown constraint set
    before it is returned."""
    tau = tuple(tau_bits)
    bundle = gen_tableau(tm, tau, beta, iface)
    check_input(bundle.clauses, alpha_er)
    beta2, iface2, bundle2, alpha2 = graft_fold(
        bundle, beta, iface, alpha_er, lambda b2, i2: gen_tableau(tm, tau, b2, i2)
    )
    return TableauRefutation(
        tm, tau, alpha2, beta2, iface2,
        alpha_premises=len(bundle2.clauses),
    )
