#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10] [--out FILE] [--compare FILE]

Runs perfbench/run.py once per seed (1 to --seeds) and workload, for BENCHMARK.json's
run_seconds, with the seeds in the outer loop so that the workloads
interleave.  For every end-to-end metric it prints the median of the runs,
their quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound.  With --compare it also
prints how far each median moved from the medians saved by an earlier
--out, as a share of the earlier one.  This is how the bounds in
BENCHMARK.json were chosen; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    values: dict = {w: {} for w in workloads}
    hosts: list = []
    for seed in range(1, args.seeds + 1):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"seed {seed} {w}: exit {proc.returncode} correct {result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
            if not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
            for k, m in result["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            hosts.append([seed, w] + [ln[len("host: "):] for ln in proc.stdout.splitlines()
                                      if ln.startswith("host: ")])

    before = json.loads(args.compare.read_text()) if args.compare else None
    medians: dict = {}
    worst = 0.0
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            xs = values[w][name]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            medians.setdefault(w, {})[name] = med
            line = (f"{w:9s} {name:13s} median {med:10.5g}  Q1 {q1:10.5g}  Q3 {q3:10.5g}  "
                    f"spread {spread:6.3f}  bound {bound}")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            if before:
                old = before["medians"][w][name]
                worse = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                line += f"  worse than before by {worse:+.3f}"
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps({"values": values, "medians": medians, "hosts": hosts},
                                        indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
