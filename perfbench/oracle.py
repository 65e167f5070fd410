"""Known answers computed without the program under test.

Everything here reads the plain-text artifacts (DIMACS, circuit, proof)
with its own small parsers and decides questions by brute force, so a
verdict from the program can be checked against an answer it did not
help compute.  Circuits are evaluated bit-parallel: each free variable
holds a Python integer whose bit i is its value at point i, so one pass
over the gates evaluates every point at once.
"""

from __future__ import annotations

import itertools
import random


# ---------------------------------------------------------------------------
# Text formats.


def parse_cnf(text: str) -> tuple[int, list[tuple[int, ...]]]:
    n = None
    clauses, pending = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            n = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit:
                pending.append(lit)
            else:
                clauses.append(tuple(pending))
                pending = []
    if n is None or pending:
        raise ValueError("malformed DIMACS text")
    return n, clauses


def write_cnf(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def parse_circ(text: str) -> tuple[list[int], list[tuple[int, tuple[int, ...]]], list[int]]:
    """(frees, gates as (var, body), outputs)."""
    free, gates, outputs = [], [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "free":
            free += map(int, parts[1:])
        elif parts[0] == "gate":
            gates.append((int(parts[1]), tuple(int(t) for t in parts[2:-1])))
        elif parts[0] == "out":
            outputs += map(int, parts[1:])
    return free, gates, outputs


def write_circ(free, gates, outputs) -> str:
    top = max([*free, *(v for v, _ in gates)] + [abs(l) for _, b in gates for l in b])
    lines = [f"circ {top}", "free " + " ".join(map(str, free))]
    lines += [f"gate {v} " + " ".join(map(str, body)) + " 0" for v, body in gates]
    lines.append("out " + " ".join(map(str, outputs)))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def parse_steps(text: str) -> tuple[int, list[tuple]]:
    """(declared premise count, steps): ('a', i), ('r', l, r, p), ('w', s, lits)."""
    declared, steps = None, []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "res-proof":
            declared = int(parts[1])
        elif parts[0] == "a":
            steps.append(("a", int(parts[1])))
        elif parts[0] == "r":
            steps.append(("r", int(parts[1]), int(parts[2]), int(parts[3])))
        elif parts[0] == "w":
            steps.append(("w", int(parts[1]), tuple(int(t) for t in parts[2:-1])))
    if declared is None:
        raise ValueError("missing res-proof header")
    return declared, steps


def step_text(step: tuple) -> str:
    if step[0] == "a":
        return f"a {step[1]}"
    if step[0] == "r":
        return f"r {step[1]} {step[2]} {step[3]}"
    return "w " + " ".join(map(str, (step[1], *step[2], 0)))


# ---------------------------------------------------------------------------
# Brute force.


def bit_columns(variables, points: int) -> dict[int, int]:
    """Bitset per variable over the points 0..points-1: the i-th variable
    is set at point a exactly when bit i of a is set."""
    return {v: sum(1 << a for a in range(points) if (a >> i) & 1) for i, v in enumerate(variables)}


def satisfiable(n: int, clauses) -> bool:
    """Bit-parallel sweep over all 2^n assignments."""
    points = 1 << n
    full = (1 << points) - 1
    var = bit_columns(range(1, n + 1), points)
    alive = full
    for c in clauses:
        sat = 0
        for lit in c:
            sat |= var[lit] if lit > 0 else full ^ var[-lit]
        alive &= sat
        if not alive:
            return False
    return True


def evaluate(free_vals: dict[int, int], gates, full: int) -> dict[int, int]:
    """Bit-parallel OR-gate evaluation; frees missing from free_vals are 0."""
    val = dict(free_vals)
    for v, body in gates:
        acc = 0
        for lit in body:
            x = val.get(abs(lit), 0)
            acc |= x if lit > 0 else full ^ x
        val[v] = acc
    return val


def describes_refutation(n: int, omega, circ) -> bool:
    """True when every leaf clause of the tree the circuit describes
    contains a premise.  Windows are indexed by depth then prefix; a
    depth-d window is 0^(n-d+1) 1 b_1..b_(d-1) over inputs x_0..x_n and
    the outputs name the queried variable in binary, least significant
    first; extra frees read 0."""
    free, gates, outputs = circ
    windows = [
        (0,) * (n - d + 1) + (1,) + prefix
        for d in range(1, n + 1)
        for prefix in itertools.product((0, 1), repeat=d - 1)
    ]
    full = (1 << len(windows)) - 1
    inputs = {
        free[j]: sum(1 << w for w, bits in enumerate(windows) if bits[j])
        for j in range(n + 1)
    }
    val = evaluate(inputs, gates, full)
    queried = [
        sum(1 << m for m, y in enumerate(outputs) if (val[y] >> w) & 1)
        for w in range(len(windows))
    ]
    premises = [frozenset(c) for c in omega]
    for x in itertools.product((0, 1), repeat=n):
        lits = set()
        for d in range(1, n + 1):
            prefix = x[: d - 1]
            w = (1 << (d - 1)) - 1 + int("".join(map(str, prefix)) or "0", 2)
            j = queried[w]
            if 1 <= j <= n:
                lits.add(j if x[d - 1] else -j)
        if not any(c <= lits for c in premises):
            return False
    return True


def grid_cells(m: int, circ, inputs, outputs) -> list[int]:
    """One bitset per output over the 4^m addresses (row bits first)."""
    points = 1 << (2 * m)
    val = evaluate(bit_columns(inputs, points), circ[1], (1 << points) - 1)
    return [val[y] for y in outputs]


def computes_complement(n: int, circ) -> bool:
    """The algorithm circuit maps every n-bit input to its complement."""
    free, gates, outputs = circ
    points = 1 << n
    full = (1 << points) - 1
    free_vals = bit_columns(free, points)
    val = evaluate(free_vals, gates, full)
    return all(val[y] == full ^ free_vals[x] for x, y in zip(free, outputs))


def replay_widths(premises, steps) -> list[int]:
    """Width of every step clause, replayed over literal sets."""
    clauses: list[frozenset] = []
    for idx, step in enumerate(steps):
        if step[0] == "a":
            cl = frozenset(premises[step[1]])
        elif step[0] == "r":
            _, left, right, p = step
            if not (left < idx and right < idx and p in clauses[left] and -p in clauses[right]):
                raise ValueError(f"step {idx} is not a valid resolution")
            cl = (clauses[left] - {p}) | (clauses[right] - {-p})
        else:
            cl = clauses[step[1]] | frozenset(step[2])
        clauses.append(cl)
    return [len(c) for c in clauses]


# ---------------------------------------------------------------------------
# Seeded inputs and mutants.


def random_unsat_3cnfs(n: int, m: int, count: int, rng: random.Random,
                       candidates: int = 64) -> list[list[tuple[int, ...]]]:
    """The first ``count`` of ``candidates`` random sets of m 3-clauses
    over n variables that are unsatisfiable while some single clause
    drop makes them satisfiable.  A fixed m keeps the work per formula
    from varying with the seed as much as it does when clauses are
    added until unsatisfiable, and a fixed number of candidates, each
    checked in full, keeps the time spent here from varying with it."""
    found = []
    for _ in range(candidates):
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(sorted((v if rng.random() < 0.5 else -v for v in vs), key=abs)))
        if satisfiable(n, clauses):
            continue
        drops = [satisfiable(n, clauses[:i] + clauses[i + 1:]) for i in range(m)]
        if any(drops):
            found.append(clauses)
    if len(found) < count:
        raise RuntimeError(f"only {len(found)} of {candidates} candidates qualify")
    return found[:count]


def flip_gate_literal(n, omega, circ, rng: random.Random, attempts: int = 200):
    """Negate one seeded gate-body literal such that the described tree
    stops being a refutation; returns the mutated circuit."""
    free, gates, outputs = circ
    for _ in range(attempts):
        gi = rng.randrange(len(gates))
        var, body = gates[gi]
        li = rng.randrange(len(body))
        body2 = tuple(-l if i == li else l for i, l in enumerate(body))
        gates2 = gates[:gi] + [(var, body2)] + gates[gi + 1:]
        if not describes_refutation(n, omega, (free, gates2, outputs)):
            return free, gates2, outputs
    raise RuntimeError("no breaking gate flip found")


def drop_premise(n, omega, rng: random.Random):
    """Drop one seeded premise whose removal makes the set satisfiable."""
    order = list(range(len(omega)))
    rng.shuffle(order)
    for i in order:
        rest = omega[:i] + omega[i + 1:]
        if satisfiable(n, rest):
            return rest
    raise RuntimeError("every single drop leaves the set unsatisfiable")


def self_cite_late_step(steps, rng: random.Random):
    """Make one resolution step in the last tenth cite itself."""
    late = [i for i, s in enumerate(steps) if s[0] == "r" and i >= 9 * len(steps) // 10]
    i = rng.choice(late)
    _, left, right, p = steps[i]
    out = list(steps)
    out[i] = ("r", i, right, p) if rng.random() < 0.5 else ("r", left, i, p)
    return out
