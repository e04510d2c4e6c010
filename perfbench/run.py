#!/usr/bin/env python3
"""sethopf benchmark: cold time to a certified result.

    python3 perfbench/run.py --workload {chambers,lie5,gate} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the code in ``src/``.
Every repetition runs in a fresh interpreter (perfbench/worker.py), since
the program's lru_caches live as long as the process and a CLI user pays
the cold cost on every call.  Repetitions start until the next one would
end after S seconds, with at least one.  Every output is checked exactly; a
wrong output or a non-zero exit counts as failed and is not timed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` one extra repetition runs with every
layer wrapped from outside (perfbench/spans.py) and the line reports its
per-layer metrics, plus the tracing overhead against the untraced
repetitions of the same run.  The traced output must equal the untraced
one.  The spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chambers", "lie5", "gate")
SETUP_PROBES = 15  # set-up-only interpreters per run; setup_s is their median
RUN_LIMIT_S = 170  # no repetition may push the run past this

END_TO_END = (("norm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("ok_frac", "frac"))
TRACE_RUN = (("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
             ("trace.spans", "count", "lower"))


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def spawn(args, mode: str, timeout: float, spans_out: Path | None = None) -> dict:
    """Run one worker; its record plus setup_s, elapsed and a final ok flag."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), mode] + \
        ([str(spans_out)] if spans_out else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"timed out after {timeout:.0f} s"],
                "elapsed": time.monotonic() - t_spawn, "setup_s": None}
    elapsed = time.monotonic() - t_spawn
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        rec = {}
    rec["elapsed"] = elapsed
    rec["setup_s"] = rec["setup_end"] - t_spawn if "setup_end" in rec else None
    if proc.returncode != 0:
        rec["ok"] = False
        rec.setdefault("errors", []).append(
            f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return rec


def median(xs):
    return statistics.median(xs) if xs else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sethopf" / "__init__.py").is_file():
        print(f"no sethopf sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    host = host_info()
    start = time.monotonic()
    deadline = start + args.seconds

    def remaining():
        left = RUN_LIMIT_S - (time.monotonic() - start)
        if left <= 0:
            print(f"out of time after {RUN_LIMIT_S} s", file=sys.stderr)
            sys.exit(2)
        return left

    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(args, "setup", timeout=remaining())
        if probe["setup_s"] is None:
            print(f"set-up failed: {probe.get('errors')}", file=sys.stderr)
            return 2
        setups.append(probe["setup_s"] * probe["setup_scale"])

    traced = None
    if args.trace:
        spans_out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        traced = spawn(args, "trace", timeout=remaining(), spans_out=spans_out)
    reps = []
    while True:
        reps.append(spawn(args, "run", timeout=remaining()))
        last = reps[-1]["elapsed"]
        now = time.monotonic()
        if now + last > deadline or (now - start) + last > RUN_LIMIT_S:
            break

    # one seed, one output: every repetition must produce the same one
    ok = [r for r in reps if r.get("ok")]
    digest = ok[0]["digest"] if ok else None
    for r in ok[1:] + ([traced] if traced and traced.get("ok") else []):
        if r["digest"] != digest:
            r["ok"] = False
            r.setdefault("errors", []).append("output differs from the first repetition's")
    runs = reps + ([traced] if traced else [])
    attempted = len(runs)
    failed = sum(not r.get("ok") for r in runs)
    walls = [r["wall_s"] for r in reps if r.get("ok")]
    norms = [r["norm_s"] for r in reps if r.get("ok")]
    rss = [r["maxrss_kib"] / 1024 for r in reps if r.get("ok")]
    norm = median(norms)

    print(f"host: {json.dumps(host)}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, {len(walls)} ok; "
          f"wall_s {[round(w, 3) for w in walls]}, median {median(walls)}; "
          f"norm_wall_s {[round(w, 3) for w in norms]}; setup_s n={len(setups)}")
    for r in runs:
        if not r.get("ok"):
            print(f"failed: {r.get('errors')}")

    if args.trace:
        layers = dict(traced.get("layers", {}))
        tn = traced.get("norm_s")
        layers["trace.wall_s"] = traced.get("wall_s")
        layers["trace.overhead_s"] = tn - norm if tn is not None and norm is not None else None
        layers["trace.spans"] = traced.get("spans")
        units = {name: unit for name, unit, _ in PER_LAYER + list(TRACE_RUN)}
        metrics = {name: {"value": layers.get(name), "unit": unit} for name, unit in units.items()}
        print(f"tracing overhead: {layers['trace.overhead_s']} s at reference speed, "
              f"on an untraced median of {norm} s")
    else:
        values = {"norm_wall_s": norm, "setup_s": median(setups), "peak_rss_mib": median(rss),
                  "ok_frac": (attempted - failed) / attempted}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
