"""The suite results themselves: merging, the Lie suite as three suites, and
the size bounds the suites check before work."""

import subprocess
import sys

import pytest

from sethopf import verify
from sethopf.verify import SuiteResult

# lie_suite(4) counters, in their order of first appearance.
LIE_COUNTERS_N4 = {
    "ruelle": 62,
    "glz": 20,
    "tree-antisymmetry": 206,
    "tree-bracket-homomorphism": 206,
    "tree-jacobi": 108,
}


def test_merge_sums_counters_and_keeps_order():
    a = SuiteResult("a", {"x": 1, "y": 2}, ["x: bad"], {"p": 1})
    b = SuiteResult("b", {"z": 3, "x": 4}, ["z: bad"], {"p": 2, "q": 3})
    merged = SuiteResult.merge("ab", [a, b])
    assert merged.name == "ab"
    assert list(merged.counters.items()) == [("x", 5), ("y", 2), ("z", 3)]
    assert merged.failures == ["x: bad", "z: bad"]
    assert merged.payload == {"p": 2, "q": 3}
    assert a.counters == {"x": 1, "y": 2} and b.counters == {"z": 3, "x": 4}


def test_lie_suite_is_ruelle_glz_and_tree():
    parts = [verify.ruelle_suite(4), verify.glz_suite(4), verify.tree_suite(4)]
    assert [set(p.counters) for p in parts] == [
        {"ruelle"},
        {"glz"},
        {"tree-antisymmetry", "tree-bracket-homomorphism", "tree-jacobi"},
    ]
    lie = verify.lie_suite(4)
    assert lie.name == "lie" and lie.passed and lie.payload == {}
    assert list(lie.counters.items()) == list(LIE_COUNTERS_N4.items())
    assert lie.counters == SuiteResult.merge("lie", parts).counters


@pytest.mark.parametrize("call", ["hopf_suite(6)", "series_suite(7)"])
def test_suite_checks_its_bound_before_work(call):
    # one past the SIZE_BOUNDS entry; the sweep itself would take many minutes
    code = (
        "from sethopf import verify\n"
        "from sethopf.errors import SizeLimitError\n"
        "try:\n"
        f"    verify.{call}\n"
        "except SizeLimitError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
