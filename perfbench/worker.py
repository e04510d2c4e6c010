"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_OUT]

MODE is ``run`` (time the workload), ``trace`` (time it with every layer
wrapped by spans.Tracer) or ``setup`` (stop at the point where the workload
would be called).  Outputs are checked against perfbench/expected.json.
The last stdout line is one JSON object; ``setup_end``
is the CLOCK_MONOTONIC time just before the workload call, which the parent
compares with the time it started this process.  Run it with ``src`` on
PYTHONPATH, as perfbench/run.py does.

On a shared virtual machine the speed of the core a process gets changes
within seconds (by up to 1.6x on the 2-core host the bounds were measured
on, independently per core), so the worker also reports ``norm_s``: the call's time at a
reference speed.  Every PROBE_PERIOD_S a SIGALRM handler times a fixed
probe loop on the same core, in the same process; each interval between
probes is scaled by REF_PROBE_S / (that probe's time).  In ``setup`` mode
the worker times the probe loop right after the set-up and reports the
same scale as ``setup_scale``.
"""

import signal
import sys
import time
from fractions import Fraction

import sethopf  # noqa: F401  (part of the set-up being timed)
from sethopf import cells, verify

# The ten default acceptance suites, in scripts/run_acceptance.py order.
GATE = (
    ("hopf_suite", (4,)),
    ("tits_suite", (3,)),
    ("dimension_suite", (4,)),
    ("cells_suite", (5,)),
    ("dynkin_suite", (4,)),
    ("steinmann_suite", (4,)),
    ("lie_suite", (4,)),
    ("arrows_suite", (3,)),
    ("series_suite", (4,)),
    ("causal_suite", (4, 2)),
)
SEEDED = ("tits_suite", "arrows_suite", "series_suite")

PROBE_PERIOD_S = 0.02
REF_PROBE_S = 0.25e-3  # the probe's time in the host's fast state; about 1.5% of each period


def make_input(workload: str, seed: int):
    """The workload's input; the same seed gives the same input."""
    import random

    rng = random.Random(seed)
    if workload == "chambers":
        # an order-preserving relabelling of [5]: identical work, other labels
        return tuple(sorted(rng.sample(range(1, 1000), 5)))
    if workload == "lie5":
        return (1, 2, 3, 4, 5)
    if workload == "gate":
        return {name: rng.randrange(2**31) for name in SEEDED}
    raise ValueError(f"unknown workload {workload!r}")


def call(workload: str, inp):
    """The timed region: the public call a user of the workload waits for.

    Functions are looked up on their modules at call time, so that a traced
    run calls the wrappers spans.Tracer put there.
    """
    if workload == "chambers":
        return cells.enumerate_cells_with_witnesses(inp)
    if workload == "lie5":
        n, r, zdim = cells.dynkin_rank(inp)
        return {"cells": n, "rank": r, "zieDim": zdim, "status": "pass"}
    results = []
    for name, args in GATE:
        kwargs = {"seed": inp[name]} if name in SEEDED else {}
        results.append((name, getattr(verify, name)(*args, **kwargs)))
    return results


def probe_loop():
    """Fixed Fraction and dict work, the same kind the workloads do."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i)
    d = {}
    for i in range(200):
        d[(i, i + 1)] = s


def timed_call(workload: str, inp):
    """(output, wall s without the probes, time at the reference speed in s)."""
    clock = time.perf_counter
    probes = []

    def probe(signum, frame):
        t = clock()
        probe_loop()
        probes.append((t, clock() - t))

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = clock()
    try:
        out = call(workload, inp)
    finally:
        t1 = clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = t1 - t0 - sum(d for _, d in probes)
    if not probes:
        return out, wall, wall
    norm, start = 0.0, t0
    for t, d in probes:
        norm += (t - start) * REF_PROBE_S / d
        start = t + d
    norm += (t1 - start) * REF_PROBE_S / probes[-1][1]
    return out, wall, norm


def summarize(workload: str, inp, out):
    """(summary compared with expected.json, canonical text of the whole output)."""
    import json

    if workload == "chambers":
        text = json.dumps(
            [[sorted(map(list, c.positive)), [[k, str(v)] for k, v in sorted(w.items())]]
             for c, w in out])
        return {"cells": len(out)}, text
    if workload == "lie5":
        return out, json.dumps(out, sort_keys=True)
    summary = {name: {"passed": r.passed, "counters": r.counters, "payload": r.payload}
               for name, r in out}
    summary = json.loads(json.dumps(summary))  # int payload keys become strings
    return summary, json.dumps([summary, {n: r.failures for n, r in out}], sort_keys=True)


def witness_errors(ground, out) -> list[str]:
    """Re-check every chamber witness in Fraction: sum 0, every positive side > 0."""
    errors = []
    seen = set()
    for cell, w in out:
        if cell.ground != ground or set(w) != set(ground):
            errors.append(f"{cell}: wrong ground")
        elif not all(isinstance(v, Fraction) for v in w.values()):
            errors.append(f"{cell}: witness is not rational")
        elif sum(w.values(), Fraction(0)) != 0:
            errors.append(f"{cell}: witness does not sum to 0")
        elif not all(sum((w[x] for x in S), Fraction(0)) > 0 for S in cell.positive):
            errors.append(f"{cell}: witness fails a positive side")
        if cell in seen:
            errors.append(f"{cell}: repeated")
        seen.add(cell)
    return errors


def check(workload: str, inp, out, summary, expected: dict) -> list[str]:
    """Every way the output differs from the certified value; empty when correct."""
    errors = []
    if summary != expected[workload]:
        errors.append(f"summary {summary} != expected {expected[workload]}")
    if workload == "chambers":
        errors += witness_errors(inp, out)
    return errors


def main(argv) -> int:
    workload, seed, mode = argv[:3]
    inp = make_input(workload, int(seed))
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_end = time.monotonic()
    if mode == "setup":
        # the core's speed now, to scale the set-up time to the reference speed
        probes = []
        for _ in range(7):
            t = time.perf_counter()
            probe_loop()
            probes.append(time.perf_counter() - t)
        scale = REF_PROBE_S / sorted(probes)[3]
        print(f'{{"setup_end": {setup_end!r}, "setup_scale": {scale!r}}}')
        return 0

    out, wall, norm = timed_call(workload, inp)

    import hashlib
    import json
    import os
    import resource

    if tracer:
        tracer.uninstall()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as f:
        expected = json.load(f)
    summary, text = summarize(workload, inp, out)
    errors = check(workload, inp, out, summary, expected)
    record = {
        "setup_end": setup_end,
        "wall_s": wall,
        "norm_s": norm,
        "ok": not errors,
        "errors": errors[:5],
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = len(tracer.spans)
        if len(argv) > 3:
            write_spans(tracer, argv[3])
    print(json.dumps(record))
    return 0 if not errors else 1


def write_spans(tracer, path: str):
    """One JSON line per span: [id, parent id or -1, name, start ns, end ns]."""
    import gzip
    import json
    import os

    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    with gzip.open(path, "wt", compresslevel=1) as f:
        for sid, parent, name, start, end in sorted(tracer.spans):
            f.write(json.dumps([sid, parent, name, round((start - t0) * 1e9),
                                round((end - t0) * 1e9)]) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
