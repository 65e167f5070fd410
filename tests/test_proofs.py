import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implres.circuits import Circuit, Gate, map_literal
from implres.formulas import EMPTY_CLAUSE, Clause, ClauseSet
from implres.proofs import (
    Axiom,
    ERProof,
    ProofBuilder,
    ProofError,
    Resolve,
    ResolutionProof,
    Weaken,
    check_er,
    check_proof,
    er_premises,
    parse_er,
    parse_proof,
    proof_clauses,
    resolve_clauses,
    serialize_er,
    serialize_proof,
)


def refutation_of(premises):
    """Tiny fixed refutation of {x}, {-x} premises."""
    return ResolutionProof((Axiom(0), Axiom(1), Resolve(0, 1, 1)))


def test_resolve_clauses_liberal_rule():
    out = resolve_clauses(Clause((1, 2)), Clause((-1, 3)), 1)
    assert out == Clause((2, 3))
    # the pivot may come back in through the other side
    out = resolve_clauses(Clause((1, 2)), Clause((-1, 1)), 1)
    assert out == Clause((1, 2))
    with pytest.raises(ProofError):
        resolve_clauses(Clause((2,)), Clause((-1,)), 1)
    with pytest.raises(ProofError):
        resolve_clauses(Clause((1,)), Clause((2,)), 1)


def test_check_proof_accepts_refutation(omega1):
    proof = refutation_of(omega1)
    assert check_proof(omega1, proof)
    assert proof_clauses(omega1, proof)[-1] == EMPTY_CLAUSE


def test_check_proof_rejections(omega1):
    assert not check_proof(omega1, ResolutionProof(()))
    assert not check_proof(omega1, ResolutionProof((Axiom(5),)))
    assert not check_proof(omega1, ResolutionProof((Axiom(0), Resolve(0, 1, 1))))
    assert not check_proof(omega1, ResolutionProof((Axiom(0), Axiom(1), Resolve(1, 0, 1))))
    # a valid derivation that is not a refutation
    rep = check_proof(omega1, ResolutionProof((Axiom(0),)))
    assert not rep and rep.step == 0 and rep.reason.startswith("final clause")
    assert proof_clauses(omega1, ResolutionProof((Axiom(0),)))[-1] == Clause((1,))


def test_check_proof_weakening_policies(omega2):
    p = ResolutionProof(
        (
            Axiom(0),
            Weaken(0, (-1,)),  # {1,2} + {-1}
            Axiom(1),
            Resolve(1, 2, 1),  # pivot 1: {-1, 2} stays after union? no: {2, -1} x {-1,2}
        )
    )
    assert proof_clauses(omega2, p)
    # weakening of a derived step is as admissible as of an axiom
    p2 = ResolutionProof((Axiom(0), Axiom(1), Resolve(0, 1, 1), Weaken(2, (1,))))
    assert proof_clauses(omega2, p2)[-1] == Clause((1, 2))


def test_check_proof_tree_like_and_regular(omega1):
    shared = ResolutionProof(
        (Axiom(0), Axiom(1), Resolve(0, 1, 1), Resolve(0, 1, 1))
    )
    # the checker takes dag-like proofs: a step may be used twice
    assert proof_clauses(omega1, shared)
    # resolving the same variable twice on a path violates regularity
    cs = ClauseSet(2, ((1, 2), (-1, 2), (1, -2), (-1,)))
    p = ResolutionProof(
        (
            Axiom(0),
            Axiom(1),
            Resolve(0, 1, 1),  # {2}, pivot 1 now used on this path
            Axiom(2),
            Resolve(2, 3, 2),  # {1}
            Axiom(3),
            Resolve(4, 5, 1),  # {} via pivot 1 a second time
        )
    )
    rep = check_proof(cs, p)
    assert rep


def test_proof_clauses_recomputes(omega1):
    cls = proof_clauses(omega1, refutation_of(omega1))
    assert cls == [Clause((1,)), Clause((-1,)), EMPTY_CLAUSE]
    with pytest.raises(ProofError):
        proof_clauses(omega1, ResolutionProof((Axiom(9),)))


def test_builder_axiom_caching_and_extract(omega2):
    b = ProofBuilder(omega2)
    a0 = b.axiom(0)
    assert b.axiom(0) == a0
    assert b.raw_axiom(0) != a0
    a1 = b.axiom(1)
    r = b.resolve(a0, a1, 1)
    assert b.clause(r) == Clause((2,))
    a2 = b.axiom(2)
    e = b.resolve(r, a2, 2)
    proof = b.extract(e)
    # the stray raw_axiom duplicate is pruned away
    assert len(proof.steps) == 5
    assert check_proof(omega2, proof)


def test_builder_resolve_opt_aliases(omega2):
    b = ProofBuilder(omega2)
    a0 = b.axiom(0)
    a1 = b.axiom(1)
    a2 = b.axiom(2)
    assert b.resolve_opt(a2, a0, 1) == a2  # pivot absent on the left
    assert b.resolve_opt(a0, a2, 1) == a2  # complement absent on the right
    r = b.resolve_opt(a0, a1, 1)
    assert r not in (a0, a1) and b.clause(r) == Clause((2,))
    # a negative literal: the holder a2 = {-2} goes right (resolve_lit)
    assert b.resolve_opt(a0, a2, -2) == a0  # literal absent on the holder
    r = b.resolve_opt(a2, a0, -2)
    assert b.steps[r] == Resolve(a0, a2, 2) and b.clause(r) == Clause((1,))


def test_builder_resolve_lit_puts_the_positive_side_left(omega2):
    """resolve_lit(holder, other, lit) records the same step and clause
    as the explicit resolve with the side holding the positive pivot
    on the left, for either sign of lit."""
    for lit, holder, other in ((1, 0, 1), (-1, 1, 0), (2, 0, 2), (-2, 2, 0)):
        explicit, by_lit = ProofBuilder(omega2), ProofBuilder(omega2)
        for b in (explicit, by_lit):
            for index in range(3):
                b.axiom(index)  # step ids are the premise indices
        left, right = (holder, other) if lit > 0 else (other, holder)
        r = explicit.resolve(left, right, abs(lit))
        s = by_lit.resolve_lit(holder, other, lit)
        assert by_lit.steps[s] == explicit.steps[r] == Resolve(left, right, abs(lit))
        assert by_lit.clause(s) == explicit.clause(r)


def test_builder_import_proof_with_varmap(omega1):
    renamed = ClauseSet(5, ((5,), (-5,)))
    b = ProofBuilder(renamed)
    final = b.import_proof(
        refutation_of(omega1), lambda i: b.axiom(i), varmap={1: 5}
    )
    assert b.clause(final) == EMPTY_CLAUSE
    assert check_proof(renamed, b.extract(final))


def identity(premises):
    return {v: v for v in range(1, premises.n + 1)}


def rewrite(premises, proof):
    """import_proof into a fresh builder over the same premises."""
    b = ProofBuilder(premises)
    return b.extract(b.import_proof(proof, b.raw_axiom, identity(premises)))


def test_strip_weakening(omega2):
    """import_proof aliases a weakening step to its source."""
    p = ResolutionProof(
        (
            Axiom(0),
            Axiom(1),
            Resolve(0, 1, 1),   # {2}
            Weaken(2, (-1,)),   # {-1, 2}, detour the checker must undo
            Axiom(2),
            Resolve(3, 4, 2),   # {-1}
            Axiom(0),
            Resolve(6, 5, 1),   # {2}
            Resolve(7, 4, 2),   # {}
        )
    )
    assert check_proof(omega2, p)
    s = rewrite(omega2, p)
    assert check_proof(omega2, s)
    assert not any(isinstance(step, Weaken) for step in s.steps)
    assert len(s.steps) <= len(p.steps)


def random_refutation(rng):
    """A premise set over at most 4 variables, made unsatisfiable by a
    unit {u} at a random index, and a checked refutation of it grown by
    random steps: axioms, weakenings by random literals (tautologies
    included) and resolutions on any pivot, so the proof is rarely
    regular and often carries dead steps.  None when 300 steps reach no
    empty clause."""
    n = rng.randint(2, 4)
    u = rng.choice((1, -1)) * rng.randint(1, n)

    def falsified(lits, a):
        return not any((lit > 0) == bool(a >> (abs(lit) - 1) & 1) for lit in lits)

    others: list[Clause] = []
    while any(
        not falsified((u,), a) and not any(falsified(c.literals, a) for c in others)
        for a in range(1 << n)
    ):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        others.append(Clause(tuple(rng.choice((1, -1)) * v for v in vs)))
    index = rng.randint(0, len(others))
    premises = ClauseSet(n, tuple(others[:index] + [Clause((u,))] + others[index:]))
    steps, derived, occurs = [], [], {}
    while len(steps) < 300:
        r = rng.random()
        if not steps or r < 0.2:
            q = rng.randrange(len(premises.clauses))
            step, clause = Axiom(q), premises.clauses[q]
        elif r < 0.3:
            src = rng.randrange(len(steps))
            lits = tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 2)))
            step, clause = Weaken(src, lits), derived[src].union(lits)
        else:
            # the narrowest of a few random resolvents
            best = None
            for _ in range(8):
                p = rng.randint(1, n)
                if p in occurs and -p in occurs:
                    i, j = rng.choice(occurs[p]), rng.choice(occurs[-p])
                    c = resolve_clauses(derived[i], derived[j], p)
                    if best is None or len(c) < len(best[1]):
                        best = (Resolve(i, j, p), c)
            if best is None:
                continue
            step, clause = best
        steps.append(step)
        derived.append(clause)
        for lit in clause.literals:
            occurs.setdefault(lit, []).append(len(steps) - 1)
        if clause == EMPTY_CLAUSE:
            proof = ResolutionProof(tuple(steps))
            assert check_proof(premises, proof)
            return premises, proof
    return None


def signed_varmap(rng, n):
    """An injective map of variables 1..n onto literals over 1..2n,
    each of random sign."""
    return {v: rng.choice((1, -1)) * t for v, t in zip(range(1, n + 1), rng.sample(range(1, 2 * n + 1), n))}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_import_proof_lifts_random_checked_refutations(seed):
    """On any refutation check_proof accepts, the rewrite replays to the
    empty clause, strips all weakening and adds no step, renamed by the
    identity or by a seeded injective signed map (the premises renamed
    by the same map): resolution is closed under substituting a
    literal for a variable."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < 300:
        case = random_refutation(rng)
        if case is not None:
            cases.append(case)
    assert sum(any(type(s) is Weaken for s in p.steps) for _, p in cases) > 100
    signs = set()
    for premises, proof in cases:
        rebuilt = rewrite(premises, proof)
        varmap = signed_varmap(rng, premises.n)
        signs.update(t > 0 for t in varmap.values())
        renamed = ClauseSet(2 * premises.n, tuple(
            Clause(tuple(map_literal(l, varmap) for l in c)) for c in premises.clauses))
        b = ProofBuilder(renamed)
        signed = b.extract(b.import_proof(proof, b.raw_axiom, varmap))
        for target, out in ((premises, rebuilt), (renamed, signed)):
            assert check_proof(target, out)
            assert proof_clauses(target, out)[-1] == EMPTY_CLAUSE
            assert not any(type(s) is Weaken for s in out.steps)
            assert len(out) <= len(proof)
    assert signs == {True, False}


class _Forgetful(dict):
    """A resolution map that keeps no key: a builder given one records
    every resolution afresh, the reference a shared build is measured
    against."""

    def __setitem__(self, key, value):
        pass


def resolution_keys(steps):
    return [(s.left, s.right, s.pivot) for s in steps if type(s) is Resolve]


def test_builder_records_each_resolution_once(omega2):
    b = ProofBuilder(omega2)
    x, y = b.axiom(0), b.axiom(2)
    first = b.resolve(x, y, 2)
    assert b.resolve(x, y, 2) == first
    assert b.resolve_lit(y, x, -2) == first
    assert b.resolve_opt(x, y, 2) == first
    assert len(b.steps) == 3
    # raw axioms stay fresh leaves, so a tree-like build shares nothing
    assert b.raw_axiom(0) != x
    assert b.resolve(b.raw_axiom(0), y, 2) != first


@pytest.mark.parametrize("seed", (4, 5, 6))
def test_import_proof_records_each_distinct_step_once(seed):
    """On random checked refutations imported with shared premise steps,
    renamed by the identity or a seeded signed map: the builder never
    holds two resolutions with the same (left, right, pivot), the
    result replays to the empty clause, and it is never longer than the
    same import recording every resolution afresh."""
    rng = random.Random(seed)
    shorter = 0
    for _ in range(200):
        case = random_refutation(rng)
        if case is None:
            continue
        premises, proof = case
        for varmap in (identity(premises), signed_varmap(rng, premises.n)):
            renamed = ClauseSet(2 * premises.n, tuple(
                Clause(tuple(map_literal(l, varmap) for l in c)) for c in premises.clauses))
            out = []
            for fresh in (False, True):
                b = ProofBuilder(renamed)
                if fresh:
                    b._resolutions = _Forgetful()
                final = b.import_proof(proof, b.axiom, varmap)
                if not fresh:
                    keys = resolution_keys(b.steps)
                    assert len(keys) == len(set(keys))
                out.append(b.extract(final))
            shared, afresh = out
            assert check_proof(renamed, shared)
            assert proof_clauses(renamed, shared)[-1] == EMPTY_CLAUSE
            keys = resolution_keys(shared.steps)
            assert len(keys) == len(set(keys))
            assert len(shared) <= len(afresh)
            shorter += len(shared) < len(afresh)
    assert shorter >= 10


def test_check_er_guards(omega1, omega2):
    aux = Circuit((1,), (Gate(2, (-1,)),), ())
    good = ERProof(aux, ResolutionProof((Axiom(0), Axiom(1), Resolve(0, 1, 1))))
    assert check_er(omega1, good)
    # aux free variable must occur in the premises
    bad_free = ERProof(Circuit((9,), (Gate(10, (9,)),), ()), good.proof)
    assert not check_er(omega1, bad_free)
    # aux extension variable must be fresh
    bad_ext = ERProof(Circuit((1,), (Gate(2, (1,)),), ()), good.proof)
    assert not check_er(omega2, bad_ext)
    # structurally broken aux is caught before the proof is replayed
    bad_circ = ERProof(Circuit((1, 1), (), ()), good.proof)
    assert not check_er(omega1, bad_circ)
    prem = er_premises(omega1, aux)
    assert prem.n == 2
    assert len(prem.clauses) == 4  # two units plus the 2-clause gate group


def test_proof_serialize_parse_round_trip(omega2):
    p = ResolutionProof(
        (Axiom(0), Weaken(0, (-2, 1)), Axiom(2), Resolve(1, 2, 2), Axiom(1))
    )
    text = serialize_proof(p, 3)
    q, declared = parse_proof(text)
    assert q == p and declared == 3
    assert serialize_proof(q, declared) == text


PARSE_ERRORS = (
    ("", "missing res-proof header"),
    ("# only a comment\n\n", "missing res-proof header"),
    ("a 0\n", "step data before res-proof header"),
    ("q x\nres-proof 1\n", "step data before res-proof header"),
    ("res-proof 1\nres-proof 1\n", "malformed res-proof header"),
    ("res-proof 1\nres-proof x\n", "malformed res-proof header"),
    ("res-proof\n", "malformed res-proof header"),
    ("res-proof 1 2\n", "malformed res-proof header"),
    ("res-proof x\n", "bad premise count 'x'"),
    ("res-proof -5\n", "bad premise count '-5'"),
    ("res-proof 1\nres-proof -1\n", "malformed res-proof header"),
    ("res-proof 1\nq 0\n", "malformed step line 'q 0'"),
    ("res-proof 1\nA 0\n", "malformed step line 'A 0'"),
    ("res-proof 1\na\n", "malformed step line 'a'"),
    ("res-proof 1\na 1 2\n", "malformed step line 'a 1 2'"),
    ("res-proof 1\nr 0 1\n", "malformed step line 'r 0 1'"),
    ("res-proof 1\nr 0 1 2 3\n", "malformed step line 'r 0 1 2 3'"),
    ("res-proof 1\nw 0 1\n", "malformed step line 'w 0 1'"),  # no 0 terminator
    ("res-proof 1\nw 0\n", "malformed step line 'w 0'"),
    ("res-proof 1\nw\n", "malformed step line 'w'"),
    ("res-proof 1\na x\n", "bad token in line 'a x'"),
    ("res-proof 1\nq x\n", "bad token in line 'q x'"),
    ("res-proof 1\n\t a 0x  # note\n", "bad token in line 'a 0x'"),
    ("res-proof 1\na 0 # c\r\nr 1\tx 2# c\r\n", "bad token in line 'r 1\\tx 2'"),
    ("res-proof 1\nw 0 1 y 0\n", "bad token in line 'w 0 1 y 0'"),
    ("res-proof 1\nw 0 0 0\n", "bad weakening literal 0 in line 'w 0 0 0'"),
    ("res-proof 1\nw 0 2 0 -1 0\n", "bad weakening literal 0 in line 'w 0 2 0 -1 0'"),
)


def test_parse_proof_errors():
    """Each malformed input names its fault; a quoted line is the one
    read, with its comment and surrounding blanks removed."""
    for text, message in PARSE_ERRORS:
        with pytest.raises(ProofError) as info:
            parse_proof(text)
        assert str(info.value) == message, text


def test_parse_proof_reads_what_int_reads():
    """Tokens are read by int(), signs and digit separators included."""
    proof, declared = parse_proof("res-proof +1\na +0\nr 1_0 2 -1\n")
    assert declared == 1
    assert proof.steps == (Axiom(0), Resolve(10, 2, -1))


_STEPS = st.one_of(
    st.builds(Axiom, st.integers(0, 500)),
    st.builds(Resolve, st.integers(0, 500), st.integers(0, 500), st.integers(1, 200)),
    st.builds(
        Weaken,
        st.integers(0, 500),
        st.lists(st.integers(-200, 200).filter(bool), max_size=5).map(tuple),
    ),
)
# comment text: anything but the characters str.splitlines breaks on
_COMMENT = st.text(
    st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")) | st.sampled_from("# \t"),
    max_size=12,
)


@st.composite
def _decorated(draw, text):
    """``text`` with comment lines, blank lines, trailing comments,
    tabs and runs of blanks between tokens, and LF or CRLF endings."""
    out = []
    for line in text.splitlines():
        for _ in range(draw(st.integers(0, 2))):
            extra = draw(st.sampled_from(("", " ", "\t", " \t ")))
            if draw(st.booleans()):
                extra += "#" + draw(_COMMENT)
            out.append(extra)
        sep = draw(st.sampled_from((" ", "\t", "  ", " \t")))
        lead = draw(st.sampled_from(("", " ", "\t")))
        tail = draw(st.sampled_from(("", " ", "\t", " #", "#", "\t# ")))
        if "#" in tail:
            tail += draw(_COMMENT)
        out.append(lead + sep.join(line.split(" ")) + tail)
    ends = [draw(st.sampled_from(("\n", "\r\n"))) for _ in out]
    return "".join(line + end for line, end in zip(out, ends))


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEPS, max_size=12), st.integers(0, 10**6), st.data())
def test_parse_proof_ignores_comments_blanks_tabs_and_crlf(steps, count, data):
    """Comments, blank lines, tabs and CRLF endings change nothing:
    the decorated text parses to the same proof and count as the plain
    text, and that is the proof that was written."""
    proof = ResolutionProof(tuple(steps))
    plain = serialize_proof(proof, count)
    decorated = data.draw(_decorated(plain))
    assert parse_proof(plain) == (proof, count)
    assert parse_proof(decorated) == (proof, count)


def test_er_serialize_parse_round_trip(omega1):
    aux = Circuit((1,), (Gate(2, (-1,)),), ())
    ep = ERProof(aux, ResolutionProof((Axiom(0), Axiom(2), Resolve(0, 2, 1))))
    text = serialize_er(ep, 4)
    ep2, declared = parse_er(text)
    assert ep2 == ep and declared == 4
    assert serialize_er(ep2, declared) == text
    # empty aux circuit round-trips too
    ep3 = ERProof(Circuit((), (), ()), ep.proof)
    assert parse_er(serialize_er(ep3, 2))[0] == ep3
    # so does a plain proof, the text prove writes
    assert parse_er("# from prove\n" + serialize_proof(ep.proof, 2)) == (ep3, 2)


def test_parse_er_errors():
    with pytest.raises(ProofError, match="missing er-proof header"):
        parse_er("a 0\nres-proof 1\n")
    with pytest.raises(ProofError, match="malformed res-proof header"):
        parse_er("res-proof\na 0\n")
    with pytest.raises(ProofError):
        parse_er("er-proof\ncirc 0\nfree\nout\n")
    with pytest.raises(ProofError):
        parse_er("")
