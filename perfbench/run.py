"""Benchmark for the implres certificate pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload tree-certify --seed 1 --seconds 25 --trace 0

Workloads are described in ``workloads.py``, ``README.md`` and
``BENCHMARK.json``.  The program is imported from ``src/`` next to this
directory and never from anywhere else; without it the run exits with
code 2 and prints no result.

A run sets the inputs up ``SETUP_REPEATS`` times (``setup_s`` is the
median), runs every instance once untimed to record the expected
certificate bytes, mutants and known answers, then repeats passes for
``--seconds``.  With ``--trace 0`` the last line of standard output is
one JSON object holding the end-to-end metrics, medians over passes.
With ``--trace 1`` it holds the per-layer metrics, from passes that
alternate untraced and traced, plus one counting pass.  The lines
before it are a readable report that also gives raw wall seconds beside
the scaled ones, ``false_accepts`` and ``error_rate``.

Timings are scaled to a reference machine speed, because on a shared
machine raw wall time drifts by a third between processes running the
same code.  After every step a fixed pure-Python calibration loop runs
for about a tenth of the step's time, and a pass's seconds are
multiplied by ``CAL_REF_S`` over the mean loop time seen during that
pass.  The exit code is 0 when every verdict matched its known answer
and no step failed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
CAL_ITERS = 3000
CAL_REF_S = 0.025  # calibration loop time that counts as reference speed
_CAL_SMALL = list(range(64))
_CAL_BIG = array.array("i", range(1 << 19))  # 2 MB, past the core's own caches
MODULES = ("cli", "circuits", "correctness", "encoding", "families", "formulas",
           "implicit", "proofs", "prover", "tableau", "translate")


def calibration_loop() -> float:
    """Fixed pure-Python work, timed, in three parts: tuple sorting and
    dict updates shaped like clause canonicalisation, integer arithmetic
    over a small list, and scattered reads from a large list plus a sort
    of fresh tuples.  A busy machine slows each part differently and
    the program sits between them.  The collector is off so that the
    program's heap size does not leak into the measurement."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(CAL_ITERS):
            key = tuple(sorted((i % 97, -(i % 89), (i * 7) % 83), key=lambda l: (abs(l), l > 0)))
            seen[key] = seen.get(key, 0) + 1
        acc = 0
        for i in range(6 * CAL_ITERS):
            acc = (acc + _CAL_SMALL[(i * 40503) & 63] * i) & 0xFFFFF
        big, j = _CAL_BIG, 0
        for _ in range(10 * CAL_ITERS):
            j = (j * 1103515245 + 12345) & 0x7FFFF
            acc ^= big[j]
        fresh = [(i, i + 1) for i in range(3 * CAL_ITERS)]
        fresh.sort(key=lambda t: -t[0])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def load_program() -> SimpleNamespace:
    if not os.path.isfile(os.path.join(SRC, "implres", "__init__.py")):
        raise RuntimeError(f"no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    lib = {m: importlib.import_module(f"implres.{m}") for m in MODULES}
    for mod in lib.values():
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"{mod.__name__} was imported from {mod.__file__}")
    return SimpleNamespace(**lib)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def measure(lib, args, work: str) -> dict:
    session = workloads.Session(lib, calibration_loop, CAL_REF_S)
    wl = workloads.WORKLOADS[args.workload](args.seed, lib, session)

    # set-up, repeated; the last copy's inputs are the ones used
    setups = []
    cal = calibration_loop()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(os.path.join(work, f"setup{k}"))
        dt = time.perf_counter() - t0
        cal2 = calibration_loop()
        setups.append((dt, (cal + cal2) / 2))
        cal = cal2
    wl.prepare()

    tracer = spans.Tracer() if args.trace else None
    passes = []
    deadline = time.perf_counter() + args.seconds
    p = 0
    cal = calibration_loop()
    while True:
        for traced in ((False, True) if tracer else (False,)):
            session.tracer = tracer if traced else None
            session.cal = [cal]
            t0 = time.perf_counter()
            if traced:
                with tracer.traced_pass():
                    rec = wl.run_pass(p)
            else:
                rec = wl.run_pass(p)
            rec["wall"] = time.perf_counter() - t0
            cal = calibration_loop()
            rec["cal"] = mean(session.cal + [cal])
            rec["traced"] = traced
            passes.append(rec)
        session.tracer = None
        p += 1
        if time.perf_counter() >= deadline:
            break
    if tracer:
        with tracer.counting_pass():
            wl.run_pass(p)

    plain = [r for r in passes if not r["traced"]]
    res = {
        "workload": args.workload, "seed": args.seed, "passes": len(plain),
        "attempted": session.attempted, "failed": session.failed,
        "false_accepts": session.false_accepts, "errors": session.errors,
        "e2e": {}, "raw": {}, "layers": {},
    }
    e2e, raw = res["e2e"], res["raw"]
    for phase in workloads.PHASES:
        e2e[f"{phase}_s"] = median([r[phase] * CAL_REF_S / r["cal"] for r in plain])
        raw[f"{phase}_s"] = median([r[phase] for r in plain])
    e2e["setup_s"] = median([dt * CAL_REF_S / c for dt, c in setups])
    raw["setup_s"] = median([dt for dt, _ in setups])
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for k in ("cert_steps", "cert_literals", "cert_gates"):
        e2e[k] = median([r[k] for r in plain])
    raw["calib_loop_s"] = median([r["cal"] for r in plain])
    if tracer:
        res["layers"] = layer_metrics(tracer, passes, raw)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    return res


def layer_metrics(tracer, passes, raw) -> dict:
    """Per-layer metrics: self seconds per traced pass (means, so they
    add up to the traced wall time with the unattributed remainder),
    counts from the counting pass, and the tracing overhead."""
    traced = [r for r in passes if r["traced"]]
    plain = [r for r in passes if not r["traced"]]
    n = len(traced)
    out = {}
    for mod, fn in spans.LAYERS:
        out[f"{mod}.{fn}_s"] = tracer.self_time.get(f"{mod}.{fn}", 0.0) / n
    out["cli.self_s"] = sum(v for k, v in tracer.self_time.items() if k.startswith("cli.")) / n
    attributed = sum(tracer.self_time.values()) / n
    wall = mean([r["wall"] for r in traced])
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = mean([r["wall"] for r in plain])
    out["trace.unattributed_s"] = wall - attributed
    out["trace.overhead_s"] = wall - out["trace.untraced_wall_s"]
    out["trace.spans_per_pass"] = len(tracer.spans) / n
    for name in spans.COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    steps = out["proofs.replayed_steps"]
    out["formulas.clauses_per_replayed_step"] = out["formulas.clauses_built"] / steps if steps else 0.0
    for k, v in raw.items():
        out[f"raw.{k}"] = v
    return out


UNITS = {"produce_s": "s", "verify_s": "s", "reject_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "cert_steps": "count", "cert_literals": "count",
         "cert_gates": "count"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "formulas.clauses_per_replayed_step":
        return "ratio"
    return "count"


def report(res: dict, trace: bool) -> dict:
    """Print the readable report; return the result object."""
    error_rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"# {res['workload']} seed={res['seed']} timed passes={res['passes']}")
    for k, v in res["e2e"].items():
        raw = res["raw"].get(k)
        extra = f"   raw {raw:.4f} s" if raw is not None else ""
        print(f"{k:<16}{v:>14.4f} {unit_of(k):<6}{extra}")
    print(f"{'false_accepts':<16}{res['false_accepts']:>14d} count")
    print(f"{'error_rate':<16}{error_rate:>14.4f} ratio  ({res['failed']} of {res['attempted']} steps)")
    print(f"{'calib_loop_s':<16}{res['raw']['calib_loop_s']:>14.4f} s      (reference {CAL_REF_S} s)")
    for k, v in res["layers"].items():
        print(f"  {k:<40}{v:>14.6f} {unit_of(k)}")
    for e in res["errors"]:
        print(f"error: {e}", file=sys.stderr)
    if res["false_accepts"]:
        print(f"FALSE ACCEPTS: {res['false_accepts']} mutants were accepted", file=sys.stderr)
    metrics = res["layers"] if trace else res["e2e"]
    correct = res["failed"] == 0 and res["false_accepts"] == 0
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tree-certify", "er-simulate", "grid-graft"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        lib = load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        res = measure(lib, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(res, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
