"""Tests of the benchmark harness itself, not of sethopf.

    python3 -m pytest perfbench/tests -q

They run the real workloads through perfbench/run.py, so they take a few
minutes (the two traced lie5 runs dominate).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from spans import GATE_SUITES, PER_LAYER  # noqa: E402


def bench_run(workload, seed, trace, cwd=ROOT):
    """(exit code, parsed last stdout line or None, stdout) of one run.py call."""
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout


def exact(metrics):
    """The metrics that are counts or ratios of counts, not times."""
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "ratio")}


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_pair(request):
    return request.param, [bench_run(request.param, 7, 1) for _ in range(2)]


def test_traced_output_equals_untraced(traced_pair):
    # run.py fails a traced repetition whose output differs from the untraced one
    _, runs = traced_pair
    for code, result, stdout in runs:
        assert code == 0, stdout
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2


def test_traced_counts_repeat_exactly(traced_pair):
    workload, ((_, first, _), (_, second, _)) = traced_pair
    assert set(first["metrics"]) == {name for name, _, _ in PER_LAYER + list(run.TRACE_RUN)}
    counts = exact(first["metrics"])
    assert counts == exact(second["metrics"])
    assert counts["trace.spans"] > 0
    busy = {"chambers": ("lp.simplex_max", "cells.enumerate_cells_with_witnesses"),
            "lie5": ("hopf.delta_split", "cells.dynkin_rank", "linalg.rank_mod_prime"),
            "gate": ("linalg.kernel_basis", "verify.causal_suite")}[workload]
    for fn in busy:  # the workload's own entry points are traced, not only their callees
        assert first["metrics"][f"{fn}.self_s"]["value"] > 0


def test_relabelled_chambers_do_identical_work():
    code, other, _ = bench_run("chambers", 8, 1)
    assert code == 0
    first = bench_run("chambers", 7, 1)[1]
    assert exact(other["metrics"]) == exact(first["metrics"])
    assert worker.make_input("chambers", 7) != worker.make_input("chambers", 8)


def test_spans_nest_and_self_times_add_up():
    from sethopf import cells, verify
    from spans import Tracer

    cells._enumerate_cells_cached.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.cells_suite(4).passed
    finally:
        tracer.uninstall()
    assert not hasattr(verify.cells_suite, "__wrapped__")  # the originals are back
    spans = {sid: (parent, start, end) for sid, parent, _, start, end in tracer.spans}
    assert sorted(spans) == list(range(len(spans)))
    for parent, start, end in spans.values():
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    roots = sum(end - start for parent, start, end in spans.values() if parent < 0)
    assert sum(s[1] for s in tracer.stats.values()) == pytest.approx(roots)
    assert tracer.stats["verify.cells_suite"][0] == 1
    assert tracer.stats["lp.simplex_max"][0] > 0  # reached through cells' own binding


def test_speed_probes_leave_the_output_alone():
    out, wall, norm = worker.timed_call("chambers", (3, 4, 6, 8))
    assert len(out) == 32 and worker.witness_errors((3, 4, 6, 8), out) == []
    assert 0 < wall and 0.2 < norm / wall < 5


def copy_bench(dest):
    """A checkout in `dest` holding BENCHMARK.json and perfbench/ only."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_corrupted_expected_value_counts_as_failed(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["chambers"]["cells"] = 371
    path.write_text(json.dumps(expected))
    code, result, _ = bench_run("chambers", 3, 0, cwd=tmp_path)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0


def test_checks_reject_corrupted_outputs():
    expected = json.loads((BENCH / "expected.json").read_text())
    lie5 = dict(expected["lie5"], rank=149)
    assert worker.check("lie5", None, None, lie5, expected)
    gate = json.loads(json.dumps(expected["gate"]))
    gate["hopf_suite"]["counters"]["coassociativity"] += 1
    assert worker.check("gate", None, None, gate, expected)
    gate = json.loads(json.dumps(expected["gate"]))
    gate["causal_suite"]["passed"] = False
    assert worker.check("gate", None, None, gate, expected)
    assert not worker.check("gate", None, None, expected["gate"], expected)


def test_witness_recheck_catches_a_bad_witness():
    from fractions import Fraction

    from sethopf.cells import enumerate_cells_with_witnesses

    ground = (2, 5, 9)
    out = enumerate_cells_with_witnesses(ground)
    assert worker.witness_errors(ground, out) == []
    cell, w = out[0]
    shifted = {k: v + Fraction(1, 3) for k, v in w.items()}  # no longer sums to 0
    assert worker.witness_errors(ground, [(cell, shifted)] + out[1:])
    assert worker.witness_errors(ground, out + out[:1])  # a repeated cell


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    copy_bench(tmp_path)
    code, result, stdout = bench_run("chambers", 1, 0, cwd=tmp_path)
    assert code != 0
    assert result is None and stdout == ""


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        PER_LAYER + list(run.TRACE_RUN)
    assert tuple(name for name, _ in worker.GATE) == GATE_SUITES
