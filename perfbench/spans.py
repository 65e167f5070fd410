"""Spans and counters recorded from outside the program.

The tracer wraps public library functions at every name an ``implres``
module looks them up under, so a call made from any module opens a span
whose parent is the innermost span still open.  A span's self time is
its duration minus the durations of its direct children; self times of
all spans plus the time outside every span add up to the traced wall
time exactly.  Spans are kept in memory and written once, by ``dump``.

Counters come from a separate counting pass with probes on the same
wrappers, so the extra work they do (re-measuring clause widths,
counting clause constructions, tracemalloc around the verifier) never
lands in a traced timing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (module, function): each becomes a span named "<module>.<function>".
LAYERS = (
    ("prover", "dpll_refute"),
    ("prover", "balance_tree"),
    ("encoding", "tree_to_circuit"),
    ("correctness", "gen_C"),
    ("correctness", "gen_correct"),
    ("implicit", "synthesize_alpha"),
    ("implicit", "verify_implicit"),
    ("implicit", "load_implicit"),
    ("implicit", "save_implicit"),
    ("proofs", "check_proof"),
    ("proofs", "check_er"),
    ("formulas", "parse_dimacs"),
    ("circuits", "parse_circuit"),
    ("circuits", "validate_circuit"),
    ("translate", "truthdef_translate"),
    ("translate", "graft"),
    ("translate", "emb_refute"),
    ("translate", "er_to_implicit"),
    ("translate", "search_translate"),
    ("tableau", "gen_tableau"),
    ("tableau", "refute_tableau"),
    ("tableau", "graft_pq"),
    ("tableau", "verify_pq"),
)

COUNTERS = (
    "prover.tree_nodes",
    "encoding.beta_gates",
    "encoding.beta_max_fanin",
    "correctness.gen_C_calls",
    "correctness.C_clauses",
    "correctness.C_literals",
    "implicit.verify_peak_mb",
    "proofs.replayed_steps",
    "proofs.replayed_literals",
    "proofs.max_width",
    "formulas.clauses_built",
)


def _implres_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "implres" or name.startswith("implres.")) and m is not None]


class Tracer:
    """Installs span wrappers while ``active`` and records spans into
    the current pass; ``counting`` switches the probes on instead."""

    def __init__(self):
        import implres.formulas
        import implres.proofs
        import implres.prover

        self._formulas = implres.formulas
        self._proofs = implres.proofs
        self._prover = implres.prover
        self.spans: list[list] = []  # [name, start, end, parent, pass]
        self.pass_id = -1
        self._stack: list[int] = []
        self._child: dict[int, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.counting = False
        self._quiet = False  # set while a probe does its own measuring
        self._originals = {}
        for mod, fn in LAYERS:
            module = sys.modules[f"implres.{mod}"]
            self._originals[getattr(module, fn)] = self._wrap(f"{mod}.{fn}", getattr(module, fn))
        self._installed: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self):
        for module in _implres_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._originals.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    @contextmanager
    def traced_pass(self):
        """Spans of one pass; yields nothing, records into self.spans."""
        self.pass_id += 1
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.pass_id])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        dur = end - span[1]
        self.self_time[span[0]] += dur - self._child.pop(idx, 0.0)
        if span[3] >= 0:
            self._child[span[3]] += dur

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.counting:
                return tracer._probe(name, fn, args, kwargs)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def dump(self, path: str):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "pass"],
                "names": names,
                "spans": [[code[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                          for s in self.spans],
            }, fh)

    # -- counting ---------------------------------------------------------

    @contextmanager
    def counting_pass(self):
        """One pass with probes instead of spans: clause constructions,
        replay volume, generated-set sizes and verifier memory."""
        clause_cls = self._formulas.Clause
        post_init = clause_cls.__post_init__
        counts = self.counts

        def counted(clause_self):
            if not self._quiet:
                counts["formulas.clauses_built"] += 1
            post_init(clause_self)

        self.counting = True
        self.install()
        clause_cls.__post_init__ = counted
        try:
            yield
        finally:
            clause_cls.__post_init__ = post_init
            self.uninstall()
            self.counting = False

    def _probe(self, name, fn, args, kwargs):
        c = self.counts
        if name == "implicit.verify_implicit" and not tracemalloc.is_tracing():
            # peak of what the verifier allocates, traced only while it runs
            tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            c["implicit.verify_peak_mb"] = max(c["implicit.verify_peak_mb"], peak)
            return out
        out = fn(*args, **kwargs)
        if name == "prover.dpll_refute" and out.tree is not None:
            c["prover.tree_nodes"] += self._prover.tree_size(out.tree)
        elif name == "encoding.tree_to_circuit":
            gates = out[0].gates
            c["encoding.beta_gates"] += len(gates)
            c["encoding.beta_max_fanin"] = max(
                c["encoding.beta_max_fanin"], max(len(g.body) for g in gates))
        elif name == "correctness.gen_C":
            clauses = out.clauses.clauses
            c["correctness.gen_C_calls"] += 1
            c["correctness.C_clauses"] += len(clauses)
            c["correctness.C_literals"] += sum(len(cl) for cl in clauses)
        elif name == "proofs.check_proof":
            premises, proof = args[0], args[1]
            replayed = len(proof.steps) if out.ok else max(out.step, 0)
            # the prefix before a failing step is valid, so it replays
            self._quiet = True
            try:
                clauses = self._proofs.replay_steps(premises, proof.steps[:replayed])
            finally:
                self._quiet = False
            widths = [len(cl) for cl in clauses]
            c["proofs.replayed_steps"] += len(widths)
            c["proofs.replayed_literals"] += sum(widths)
            c["proofs.max_width"] = max([c["proofs.max_width"], *widths])
        return out
