import random

import pytest

from implres import tableau, translate
from implres.circuits import Circuit, CircuitBuilder, Gate, VarAlloc, validate_circuit
from implres.families import tm_halt, tm_left_runner, tm_right_writer, tm_write_stay
from implres.formulas import Clause
from implres.proofs import Axiom, ERProof, Resolve, ResolutionProof, er_premises
from implres.tableau import (
    TableauError,
    TableauInterface,
    TMSpec,
    address_sweep,
    check_machine,
    check_run,
    check_tableau_interface,
    decode_tau,
    encode_tau,
    gen_tableau,
    graft_pq,
    parse_tm,
    read_grid,
    refute_tableau,
    run_accepts,
    serialize_tm,
    tableau_interface_from_circuit,
    verify_pq,
    verify_refutation,
)


def empty_aux(proof):
    return ERProof(Circuit((), (), ()), proof)


def test_check_machine():
    tm, _, _, _ = tm_write_stay()
    assert check_machine(tm)
    assert not check_machine(TMSpec(0, 2, {}, frozenset()))
    assert not check_machine(TMSpec(1, 1, {}, frozenset()))
    assert not check_machine(TMSpec(1, 2, {(0, 0): (0, 0, "X")}, frozenset()))
    assert not check_machine(TMSpec(1, 2, {(0, 2): (0, 0, "S")}, frozenset()))
    assert not check_machine(TMSpec(1, 2, {(0, 0): (5, 0, "S")}, frozenset()))
    assert not check_machine(TMSpec(1, 2, {}, frozenset({7})))


def test_tm_serialize_parse_round_trip():
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, _, _, _ = fixture()
        assert parse_tm(serialize_tm(tm)) == tm


def test_parse_tm_errors():
    with pytest.raises(TableauError):
        parse_tm("")
    with pytest.raises(TableauError):
        parse_tm("tm\nstates 1\nalpha 2\ntrans 0 0 0 0 S\ntrans 0 0 0 1 S\naccept 0\n")
    with pytest.raises(TableauError):
        parse_tm("tm\nstates 1\nbogus\n")


def test_tau_codec():
    assert decode_tau("2", 2) == (1, 0)
    assert decode_tau("3", 2) == (1, 1)
    assert encode_tau((1, 0)) == "2"
    assert decode_tau("a5", 8) == (1, 0, 1, 0, 0, 1, 0, 1)
    assert encode_tau(decode_tau("a5", 8)) == "a5"
    assert decode_tau(encode_tau((0,) * 4), 4) == (0, 0, 0, 0)
    with pytest.raises(TableauError):
        decode_tau("4", 2)  # value needs three bits
    with pytest.raises(TableauError):
        decode_tau("zz", 4)


def test_interface_helpers():
    tm, tau, beta, iface = tm_halt()
    assert tableau_interface_from_circuit(beta, 1) == iface
    assert check_tableau_interface(beta, iface, tm)
    short = TableauInterface(1, iface.inputs, iface.outputs[:2])
    assert not check_tableau_interface(beta, short, tm)
    with pytest.raises(TableauError):
        tableau_interface_from_circuit(Circuit((1,), (), ()), 1)


def test_simulator_accepts_and_rejects():
    tm, tau, beta, iface = tm_halt()
    grid = read_grid(tm, beta, iface)
    assert check_run(tm, tau, grid)
    assert not check_run(tm, (0, 1), grid)
    assert run_accepts(tm, tau, beta, iface)

    tm2, tau2, beta2, iface2 = tm_write_stay()
    grid2 = read_grid(tm2, beta2, iface2)
    assert check_run(tm2, tau2, grid2)
    assert not check_run(tm2, (1, 0), grid2)

    tm3, tau3, beta3, iface3 = tm_right_writer()
    assert check_run(tm3, tau3, read_grid(tm3, beta3, iface3))


def test_gen_tableau_unsat_only_for_true_target():
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        bundle = gen_tableau(tm, tau, beta, iface)
        unsat, witness = address_sweep(bundle)
        assert unsat, (fixture.__name__, witness)
        n_cells = 1 << iface.m
        for wrong in range(1 << n_cells):
            wrong_tau = tuple((wrong >> (n_cells - 1 - i)) & 1 for i in range(n_cells))
            if wrong_tau == tau:
                continue
            unsat, witness = address_sweep(gen_tableau(tm, wrong_tau, beta, iface))
            assert not unsat and witness is not None, (fixture.__name__, wrong_tau)


def test_gen_tableau_clause_layout_independent_of_grid():
    # same machine and target, structurally different grid circuits
    tm, tau, beta, iface = tm_halt()
    beta2 = Circuit(
        (1, 2),
        (Gate(3, (-2,)), Gate(4, (3,)), Gate(5, (-2,)), Gate(6, (-2,))),
        (4, 5, 6),
    )
    iface2 = tableau_interface_from_circuit(beta2, 1)
    b1 = gen_tableau(tm, tau, beta, iface)
    b2 = gen_tableau(tm, tau, beta2, iface2)
    assert len(beta2.gates) != len(beta.gates)
    c1, c2 = b1.clauses, b2.clauses
    assert c1.neg_delta_index == c2.neg_delta_index
    assert c1.delta == c2.delta
    assert c1.laid[:-4] == c2.laid[:-4]  # all but the four copies of the grid
    # each copy's cell bits, the images of the grid's outputs
    assert ([tuple(cm[y] for y in iface.outputs) for cm in c1.copy_maps]
            == [tuple(cm[y] for y in iface2.outputs) for cm in c2.copy_maps])
    assert c1.clauses[c1.neg_delta_index] == Clause((-c1.delta,))
    assert validate_circuit(b1.clauses.circuit)
    assert validate_circuit(b2.clauses.circuit)


def single_literal_variants(circ):
    """Flip one body literal, or pin a gate constant-true, one gate at
    a time."""
    for gi, g in enumerate(circ.gates):
        bodies = [
            tuple(l if i != li else -l for i, l in enumerate(g.body))
            for li in range(len(g.body))
        ]
        bodies.append((g.body[0], -g.body[0]))
        for body in bodies:
            gates = tuple(
                h if i != gi else Gate(h.var, body) for i, h in enumerate(circ.gates)
            )
            yield Circuit(circ.free, gates, circ.outputs)


def test_clause_set_tracks_simulator_under_mutation():
    cases = []
    tm1, tau1, beta1, iface1 = tm_halt()
    cases.append((tm1, beta1, iface1, tau1))
    cases.append((tm1, beta1, iface1, (0, 1)))
    tm2, tau2, beta2, iface2 = tm_write_stay()
    cases.append((tm2, beta2, iface2, tau2))
    cases.append((tm2, beta2, iface2, (1, 0)))
    checked = 0
    for tm, beta, iface, tau in cases:
        for variant in single_literal_variants(beta):
            # unsatisfiable exactly when the grid is a valid accepting run
            want_unsat = bool(check_run(tm, tau, read_grid(tm, variant, iface)))
            got_unsat, _ = address_sweep(gen_tableau(tm, tau, variant, iface))
            assert got_unsat == want_unsat, (tm, tau, variant)
            checked += 1
    assert checked >= 40


def test_off_tape_detector_is_load_bearing():
    # the left-walking machine admits no valid grid; without the
    # off-tape check the vanishing-head grid would satisfy everything
    for vanishing in (False, True):
        tm, tau, beta, iface = tm_left_runner(vanishing)
        assert not check_run(tm, tau, read_grid(tm, beta, iface))
        unsat, witness = address_sweep(gen_tableau(tm, tau, beta, iface))
        assert not unsat and witness is not None


def test_refute_and_verify():
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        bundle = gen_tableau(tm, tau, beta, iface)
        alpha = refute_tableau(bundle)
        assert alpha is not None
        rep = verify_pq(tm, tau, beta, iface, alpha,
                        alpha_premises=len(bundle.clauses.clauses))
        assert rep, (fixture.__name__, rep.stage, rep.reason)


def test_refute_tableau_returns_none_on_satisfiable():
    """None exactly when address_sweep finds a passing address, though
    the refuter skips the true side of a branch whose false side settles
    it: the genuine target word and four seeded wrong ones per fixture
    (drawn with repeats, as a fixture's word may have only two bits)."""
    tm, tau, beta, iface = tm_halt()
    assert refute_tableau(gen_tableau(tm, (0, 1), beta, iface)) is None
    rng = random.Random(2303)
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        words = [tau]
        while len(words) < 5:
            word = tuple(rng.randrange(2) for _ in tau)
            if word != tau:
                words.append(word)
        for word in words:
            bundle = gen_tableau(tm, word, beta, iface)
            unsat, _ = address_sweep(bundle)
            assert (refute_tableau(bundle) is None) == (not unsat), (fixture.__name__, word)


def test_verify_pq_rejections():
    tm, tau, beta, iface = tm_halt()
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha = refute_tableau(bundle)
    # corrupted proof: swap the sides of the first resolution
    steps = list(alpha.steps)
    for i, st in enumerate(steps):
        if isinstance(st, Resolve):
            steps[i] = Resolve(st.right, st.left, st.pivot)
            break
    count = len(bundle.clauses)
    rep = verify_pq(tm, tau, beta, iface, ResolutionProof(tuple(steps)), count)
    assert not rep and rep.stage == "proof"
    # right proof, wrong target word
    rep = verify_pq(tm, (0, 1), beta, iface, alpha, count)
    assert not rep and rep.stage == "proof"
    # declared premise count must match
    rep = verify_pq(tm, tau, beta, iface, alpha, alpha_premises=1)
    assert not rep and rep.stage == "proof"
    # broken machine is caught first
    rep = verify_pq(TMSpec(1, 1, {}, frozenset()), tau, beta, iface, alpha, count)
    assert not rep and rep.stage == "machine"


def test_grid_circuit_with_a_spare_free_is_refused():
    """A grid circuit's frees are its 2m address inputs: any other free
    is refused at the port check, and the reason names it.  Each grid
    is tm_halt's with address bits 3 (row) and 4 (column) and a spare
    free 1, read by a constant that feeds the cells (fed), by an
    extension gate alone (apart), or beside an address input whose
    image in copies 0-2 is the id 1 (address_image)."""
    tm, tau, beta, iface = tm_halt()
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha = refute_tableau(bundle)
    fed_cells = (Gate(7, (-4, 6)), Gate(8, (-4, 6)), Gate(9, (-4, 6)))
    cells = (Gate(7, (-4,)), Gate(8, (-4,)), Gate(9, (-4,)))
    grids = {
        "fed": Circuit((3, 4, 1), (Gate(5, (1, -1)), Gate(6, (-5,))) + fed_cells, (7, 8, 9)),
        "apart": Circuit((3, 4, 1), (Gate(5, (1,)),) + cells, (7, 8, 9)),
        "address_image": Circuit((3, 4, 1), cells + (Gate(10, (3, 1, 1)),), (7, 8, 9)),
    }
    for name, grid in grids.items():
        grid_iface = tableau_interface_from_circuit(grid, 1)
        rep = verify_pq(tm, tau, grid, grid_iface, alpha, len(bundle.clauses))
        assert not rep and rep.stage == "interface", name
        assert "spare free variables [1]" in rep.reason, name
        with pytest.raises(TableauError):
            gen_tableau(tm, tau, grid, grid_iface)


def test_graft_pq_round_trip():
    """Every grid graft verifies and reads the same cells.  By the cone
    rule's size oracle, refute_tableau's refutations and the spurious
    auxiliary gate read no generator gate, so the graft duplicates only
    the proof's auxiliaries and imports the refutation as it stands."""
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        bundle = gen_tableau(tm, tau, beta, iface)
        alpha = refute_tableau(bundle)
        spurious = Circuit((1,), (Gate(bundle.clauses.n + 1, (1, -1)),), ())
        for aux in (Circuit((), (), ()), spurious):
            tr = graft_pq(tm, tau, beta, iface, ERProof(aux, alpha))
            rep = verify_refutation(tr)
            assert rep, (fixture.__name__, rep.stage, rep.reason)
            # the grown grid computes the same tableau
            assert read_grid(tm, tr.beta, tr.iface) == read_grid(tm, beta, iface)
            assert len(tr.alpha.steps) <= len(alpha.steps)
            assert len(tr.beta.gates) == len(beta.gates) + len(aux.gates)


def test_graft_pq_rejects_a_certificate_the_grown_grid_does_not_replay(broken_fold):
    """The grid twin of the tree graft's self-check: graft_fold replays
    the folded certificate against the grown constraint set."""
    tm, tau, beta, iface = tm_halt()
    alpha = refute_tableau(gen_tableau(tm, tau, beta, iface))
    with pytest.raises(translate.TranslateError, match="grafted refutation rejected"):
        graft_pq(tm, tau, beta, iface, empty_aux(alpha))
    # the aux cone is empty: no duplicate of the generator gates
    [(host, dupmap, beta2)] = broken_fold
    assert all(dupmap[g.var] == g.var for g in host.gates)
    assert len(beta2.gates) == len(beta.gates)


def test_graft_pq_carries_spurious_aux_gate():
    tm, tau, beta, iface = tm_halt()
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha = refute_tableau(bundle)
    plain = graft_pq(tm, tau, beta, iface, empty_aux(alpha))
    junk = Circuit((1,), (Gate(bundle.clauses.n + 1, (1, -1)),), ())
    tr = graft_pq(tm, tau, beta, iface, ERProof(junk, alpha))
    assert verify_refutation(tr)
    assert len(tr.beta.gates) == len(plain.beta.gates) + 1


def test_gen_tableau_validates_inputs():
    tm, tau, beta, iface = tm_halt()
    with pytest.raises(TableauError):
        gen_tableau(TMSpec(1, 1, {}, frozenset()), tau, beta, iface)
    with pytest.raises(TableauError):
        gen_tableau(tm, (1, 0, 0), beta, iface)  # length mismatch
    with pytest.raises(TableauError):
        gen_tableau(tm, tau, beta, TableauInterface(1, (1, 2), (3, 4)))


def halting_grid(m):
    """The one-state machine that accepts at once, on a 2^m grid whose
    every row is the start row 1 0 .. 0 with the head on column 0."""
    b = CircuitBuilder(VarAlloc(2 * m + 1))
    for v in range(1, 2 * m + 1):
        b.free(v)
    col0 = b.not_(b.or_(*range(m + 1, 2 * m + 1)))
    beta = b.build((b.or_(col0), b.or_(col0), b.or_(col0)))
    tm = TMSpec(1, 2, {}, frozenset({0}))
    iface = TableauInterface(m, tuple(range(1, 2 * m + 1)), beta.outputs)
    return tm, (1,) + (0,) * ((1 << m) - 1), beta, iface


@pytest.mark.parametrize(
    "fixture",
    [tm_halt, tm_write_stay, tm_right_writer, lambda: halting_grid(2)],
    ids=["tm_halt", "tm_write_stay", "tm_right_writer", "halt2"],
)
def test_lazy_carrier_equals_the_materialized_set_on_grids(fixture, view_oracle):
    """The grid circuit and its graft: every clause read through the
    view is the one gen_tableau materializes."""
    tm, tau, beta, iface = fixture()
    alpha = refute_tableau(gen_tableau(tm, tau, beta, iface))
    tr = graft_pq(tm, tau, beta, iface, empty_aux(alpha))
    for b, i in ((beta, iface), (tr.beta, tr.iface)):
        view = view_oracle(lambda: gen_tableau(tm, tau, b, i).clauses)
        assert "clauses" not in vars(view)


@pytest.mark.parametrize(
    "fixture",
    [tm_halt, tm_write_stay, tm_right_writer],
    ids=["tm_halt", "tm_write_stay", "tm_right_writer"],
)
def test_gate_position_matches_the_materialized_set_on_grids(fixture, position_oracle):
    """Each grid and its graft: every gate's group sits where
    gate_position says, its body reads back through gate_body, and no
    carrier builds its clauses."""
    tm, tau, beta, iface = fixture()
    alpha = refute_tableau(gen_tableau(tm, tau, beta, iface))
    tr = graft_pq(tm, tau, beta, iface, empty_aux(alpha))
    for b, i in ((beta, iface), (tr.beta, tr.iface)):
        view = position_oracle(lambda: gen_tableau(tm, tau, b, i).clauses)
        assert "clauses" not in vars(view)


@pytest.mark.parametrize(
    "fixture",
    [tm_halt, tm_write_stay, tm_right_writer],
    ids=["tm_halt", "tm_write_stay", "tm_right_writer"],
)
def test_er_premises_read_a_grid_carrier_by_position(fixture, view_oracle, position_oracle):
    """The premises of graft_pq's spurious refutation, the grid carrier
    then the auxiliary gate's group: read by position and by gate
    through the view, and the carrier is never built in full."""
    tm, tau, beta, iface = fixture()

    def premises():
        carrier = gen_tableau(tm, tau, beta, iface).clauses
        spurious = Circuit((1,), (Gate(carrier.n + 1, (1, -1)),), ())
        return er_premises(carrier, spurious)

    for oracle in (view_oracle, position_oracle):
        view = oracle(premises)
        assert "clauses" not in vars(view)
    carrier = gen_tableau(tm, tau, beta, iface).clauses
    assert view.neg_delta_index == carrier.neg_delta_index
    assert view.gate_position(view.n) == len(carrier)


def test_graft_pq_never_materializes_the_grown_carrier(monkeypatch):
    bundles = []
    real = tableau.gen_tableau

    def spied(*args):
        bundles.append(real(*args))
        return bundles[-1]

    monkeypatch.setattr(tableau, "gen_tableau", spied)
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        bundle = real(tm, tau, beta, iface)
        alpha = refute_tableau(bundle)
        spurious = Circuit((1,), (Gate(bundle.clauses.n + 1, (1, -1)),), ())
        for aux in (Circuit((), (), ()), spurious):
            bundles.clear()
            tr = graft_pq(tm, tau, beta, iface, ERProof(aux, alpha))
            # the carrier of beta, then the grown one (the circuit copied last)
            assert [b.clauses.laid[-1].circuit for b in bundles] == [beta, tr.beta]
            grown = vars(bundles[-1].clauses)
            assert "clauses" not in grown and "circuit" not in grown
            # the input check replays alpha against the carrier itself and
            # reads an aux free's or gate's variables off its layout
            assert "clauses" not in vars(bundles[0].clauses)


def test_one_machine_check_per_verdict(monkeypatch):
    """verify_pq checks the machine and the target word once, inside
    gen_tableau, and still reports them at stages machine and decode."""
    tm, tau, beta, iface = tm_halt()
    bundle = gen_tableau(tm, tau, beta, iface)
    alpha, count = refute_tableau(bundle), len(bundle.clauses)
    calls = []
    real = tableau.check_machine

    def counted(machine):
        calls.append(machine)
        return real(machine)

    monkeypatch.setattr(tableau, "check_machine", counted)
    assert verify_pq(tm, tau, beta, iface, alpha, count)
    assert calls == [tm]
    broken = TMSpec(1, 1, {}, frozenset())
    rep = verify_pq(broken, tau, beta, iface, alpha, count)
    assert not rep and rep.stage == "machine"
    assert calls == [tm, broken]
    for word in (tau + (0,), (2,) + tau[1:]):
        rep = verify_pq(tm, word, beta, iface, alpha, count)
        assert not rep and rep.stage == "decode" and "target word" in rep.reason
    assert calls == [tm, broken, tm, tm]
