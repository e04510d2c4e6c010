"""The suite results themselves: merging, the Lie suite as three suites, the
size bounds the suites check before work, and the failure details."""

import json
import subprocess
import sys

import pytest

from sethopf import cells as cells_module, cli, verify
from sethopf.compositions import Composition, fubini, zie_dimension
from sethopf.hopf import H, SigmaElem
from sethopf.verify import SuiteResult

# lie_suite(4) counters, in their order of first appearance.
LIE_COUNTERS_N4 = {
    "ruelle": 62,
    "glz": 20,
    "tree-antisymmetry": 206,
    "tree-bracket-homomorphism": 206,
    "tree-jacobi": 108,
}

# tree_suite(4) counters, the tree part of LIE_COUNTERS_N4.
TREE_COUNTERS_N4 = {k: v for k, v in LIE_COUNTERS_N4.items() if k.startswith("tree-")}

# arrows_suite(3) counters, as in the gate's perfbench/expected.json.
ARROWS_COUNTERS_N3 = {
    "biderivation-derivation": 42,
    "biderivation-coderivation": 118,
    "biderivation-coderivation-right": 118,
    "arrow-order-independence": 36,
    "arrow-updown-commutator": 18,
    "arrow-preserves-primitive": 18,
    "arrow-bracket-derivation": 9,
    "arrow-dynkin-down": 18,
    "arrow-dynkin-up": 18,
    "arrow-product-law": 58,
    "retarded-expansion": 34,
    "advanced-expansion": 34,
    "retarded-instance": 1,
    "advanced-instance": 1,
    "retarded-is-total-dynkin": 1,
}

# tits_suite(3) counters, as in the gate's perfbench/expected.json.
TITS_COUNTERS_N3 = {
    "tits-unit": 17,
    "tits-idempotent": 17,
    "tits-associativity": 2225,
    "tits-vs-hopf-power": 179,
    "tits-action-compat": 2225,
    "tits-associativity-n4": 25,
    "tits-vs-hopf-power-n4": 25,
    "tits-idempotent-n4": 75,
    "hopf-power-kills-primitive": 76,
}

# hopf_suite(3) counters, in their order of first appearance.
HOPF_COUNTERS_N3 = {
    "associativity": 118,
    "coassociativity": 382,
    "compatibility": 389,
    "unit": 18,
    "counit": 18,
    "cocommutativity": 119,
    "antipode-takeuchi": 18,
    "h-q-roundtrip": 18,
    "q-h-roundtrip": 18,
    "antipode-convolution": 17,
    "q-top-primitive": 3,
    "q-product": 20,
    "q-coproduct": 84,
}

# The failureSamples of `hopf check --n 2` when the product is scaled by
# 1 + |ground of the left factor|: associativity, compatibility, the unit law
# and the antipode identities fail.
FORCED_FAILURE_SAMPLES = [
    "associativity: (1)*H(1) (1)*H() (1)*H()",
    "compatibility: (1)*H(1) (1)*H() ()|(1,)",
    "compatibility: (1)*H(1) (1)*H() (1,)|()",
    "unit",
    "antipode-convolution: (1)*H(1)",
    "associativity: (1)*H(1) (1)*H() (1)*H(2)",
    "associativity: (1)*H(1) (1)*H(2) (1)*H()",
    "associativity: (1)*H(2) (1)*H() (1)*H(1)",
    "associativity: (1)*H(2) (1)*H(1) (1)*H()",
    "associativity: (1)*H(12) (1)*H() (1)*H()",
]


# The failures of hopf_suite(3) when delta_split doubles its value on
# H_(2)(13) split as (1,2)|(3,), and of tits_suite(3) when tits doubles its
# value on H_(1)(23) |> H_(3)(12); each as the suite gives them when every
# call is evaluated directly, so a memo hides no failure.
WRONG_SPLIT_FAILURES = [
    "coassociativity: (1)*H(2,13) (1,)|(2,)|(3,)",
    "coassociativity: (1)*H(2,13) (2,)|(1,)|(3,)",
    "compatibility: (1)*H(2) (1)*H(13) (1, 2)|(3,)",
    "antipode-convolution: (1)*H(2,13)",
    "cocommutativity",
    "cocommutativity",
    "q-coproduct",
]

# The failures of hopf_suite(3) when antipode doubles its value on H_(2)(13),
# which is not the first composition of its S_3 orbit, so the Takeuchi check
# sees it only through the relabelled value of H_(1)(23).
WRONG_ANTIPODE_FAILURES = [
    "antipode-convolution: (1)*H(2,13)",
    "antipode-takeuchi: (1)*H(2,13)",
]
WRONG_TITS_FAILURES = (
    ["tits-associativity"] * 22 + ["tits-vs-hopf-power"] + ["tits-action-compat"] * 13
)

# The failures of tree_suite(4) when tree_to_primitive doubles its value on
# one tree, keyed by the tree's repr: [1,2] is a factor of the bracket
# homomorphism; [[1,2],[3,4]] is a bracket of two trees and a Jacobi term.
WRONG_TREE_FAILURES = {
    "[1,2]": ["tree-bracket-homomorphism"] * 6,
    "[[1,2],[3,4]]": ["tree-antisymmetry", "tree-bracket-homomorphism", "tree-antisymmetry"]
    + ["tree-jacobi"] * 3,
}

# The failures of arrows_suite(3) when u_ab doubles its value on H_(2)(1),
# as a factor of the derivation law, as u(H_F) in the coderivation laws and
# as a restriction of a composition of [3].
WRONG_U_FAILURES = [
    "biderivation-derivation: (2,1) (3)",
    "biderivation-coderivation: (2,1) (1,)|(2,)",
    "biderivation-coderivation-right: (2,1) (1,)|(2,)",
    "biderivation-coderivation: (2,1) (2,)|(1,)",
    "biderivation-coderivation-right: (2,1) (2,)|(1,)",
    "biderivation-coderivation: (2,13) (1, 2)|(3,)",
    "biderivation-coderivation-right: (2,13) (3,)|(1, 2)",
    "biderivation-coderivation: (23,1) (1, 2)|(3,)",
    "biderivation-coderivation-right: (23,1) (3,)|(1, 2)",
    "biderivation-coderivation: (2,1,3) (1, 2)|(3,)",
    "biderivation-coderivation-right: (2,1,3) (3,)|(1, 2)",
    "biderivation-coderivation: (2,3,1) (1, 2)|(3,)",
    "biderivation-coderivation-right: (2,3,1) (3,)|(1, 2)",
    "biderivation-coderivation: (3,2,1) (1, 2)|(3,)",
    "biderivation-coderivation-right: (3,2,1) (3,)|(1, 2)",
]


def _exact_key(args):
    return tuple(
        (a.ground, a.basis, tuple(a.lc)) if isinstance(a, SigmaElem) else a for a in args
    )


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


def test_tits_suite_counters_at_three():
    res = verify.tits_suite(3)
    assert res.passed
    assert res.counters == TITS_COUNTERS_N3


def test_hopf_suite_counters_at_three():
    res = verify.hopf_suite(3)
    assert res.passed
    assert list(res.counters.items()) == list(HOPF_COUNTERS_N3.items())


@pytest.mark.parametrize("suite, n, names", [
    ("hopf_suite", 3, ["product_of", "split_of", "antipode_of", "q_of", "h_of_q", "convolution_of"]),
    ("tits_suite", 3, ["tits", "hopf_power_elem"]),
    ("tree_suite", 4, ["_all_trees", "image", "bracket_image", "jacobi_image"]),
    ("arrows_suite", 3, ["u_of", "retarded_element", "advanced_element", "primitive_part_basis"]),
])
def test_repeated_calls_are_evaluated_once_per_key_and_degree(monkeypatch, suite, n, names):
    real_once = verify._once
    memos = []

    def spying_once(f, **kwargs):
        calls, evaluated = [], []
        memos.append((f.__name__, calls, evaluated))

        def evaluate(*args):
            evaluated.append(_exact_key(args))
            return f(*args)

        memo = real_once(evaluate, **kwargs)

        def call(*args):
            calls.append(_exact_key(args))
            return memo(*args)

        return call

    monkeypatch.setattr(verify, "_once", spying_once)
    res = getattr(verify, suite)(n)
    expected = {"hopf_suite": HOPF_COUNTERS_N3, "tits_suite": TITS_COUNTERS_N3,
                "tree_suite": TREE_COUNTERS_N4, "arrows_suite": ARROWS_COUNTERS_N3}[suite]
    assert res.passed and res.counters == expected
    # hopf_suite and tits_suite wrap once per degree, the others once per call
    copies = {"hopf_suite": n + 1, "tits_suite": n}.get(suite, 1)
    assert [name for name, _, _ in memos] == names * copies
    for name, calls, evaluated in memos:
        assert len(set(evaluated)) == len(evaluated), name
        assert set(evaluated) == set(calls), name
    assert sum(len(c) for _, c, _ in memos) > 3 * sum(len(e) for _, _, e in memos)


def test_wrong_split_fails_the_same_checks(monkeypatch):
    real = verify.delta_split
    wrong_on = Composition(((2,), (1, 3)))

    def wrong(a, S, T):
        out = real(a, S, T)
        if a.basis == H and list(a.lc.keys()) == [wrong_on] and (S, T) == ((1, 2), (3,)):
            return out + out
        return out

    monkeypatch.setattr(verify, "delta_split", wrong)
    assert verify.hopf_suite(3).failures == WRONG_SPLIT_FAILURES


def test_wrong_antipode_off_an_orbit_representative_fails(monkeypatch):
    real = verify.antipode
    wrong_on = Composition(((2,), (1, 3)))

    def wrong(a):
        out = real(a)
        return out + out if list(a.lc.keys()) == [wrong_on] else out

    monkeypatch.setattr(verify, "antipode", wrong)
    assert verify.hopf_suite(3).failures == WRONG_ANTIPODE_FAILURES


def test_wrong_tits_fails_the_same_checks(monkeypatch):
    real = verify.tits
    pair = [Composition(((1,), (2, 3)))], [Composition(((3,), (1, 2)))]

    def wrong(a, b):
        out = real(a, b)
        return out + out if (list(a.lc.keys()), list(b.lc.keys())) == pair else out

    monkeypatch.setattr(verify, "tits", wrong)
    assert verify.tits_suite(3).failures == WRONG_TITS_FAILURES


@pytest.mark.parametrize("target", sorted(WRONG_TREE_FAILURES))
def test_wrong_tree_image_fails_the_same_checks(monkeypatch, target):
    real = verify.tree_to_primitive

    def wrong(t):
        out = real(t)
        return out + out if repr(t) == target else out

    monkeypatch.setattr(verify, "tree_to_primitive", wrong)
    assert verify.tree_suite(4).failures == WRONG_TREE_FAILURES[target]


def test_wrong_u_fails_the_same_checks(monkeypatch):
    real = verify.u_ab
    wrong_on = Composition(((2,), (1,)))

    def wrong(a, b, star, x):
        out = real(a, b, star, x)
        return out + out if x.basis == H and list(x.lc.keys()) == [wrong_on] else out

    monkeypatch.setattr(verify, "u_ab", wrong)
    assert verify.arrows_suite(3).failures == WRONG_U_FAILURES


def test_a_wrong_witness_fails_to_realize(monkeypatch):
    # label 1 of the first cell over [4] has the witness value 3; negated,
    # the witness no longer sums to 0
    real = verify.enumerate_cells_with_witnesses

    def wrong(labels):
        cells = real(labels)
        if len(labels) == 4:
            cell, w = cells[0]
            assert w[1] == 3
            cells[0] = cell, {**w, 1: -w[1]}
        return cells

    monkeypatch.setattr(verify, "enumerate_cells_with_witnesses", wrong)
    res = verify.cells_suite(4)
    assert res.counters == {"cell-count": 3, "cell-witnesses-realize": 3}
    assert res.failures == ["cell-witnesses-realize: n=4"]


def test_steinmann_suite_finds_the_quadruples_once(monkeypatch):
    calls = []
    original = cells_module.steinmann_quadruples

    def counting(ground):
        calls.append(ground)
        return original(ground)

    monkeypatch.setattr(verify, "steinmann_quadruples", counting)
    monkeypatch.setattr(cells_module, "steinmann_quadruples", counting)
    res = verify.steinmann_suite(4)
    assert calls == [(1, 2, 3, 4)]
    assert res.passed
    assert res.counters == {"steinmann-relation": 6, "relation-span": 1, "negative-control": 1}
    assert res.payload == {"quadruples": 6, "relationSpan": 6}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tits_suite_follows_its_size(n):
    # spot checks one size up, primitives in degrees 2..n
    res = verify.tits_suite(n)
    assert res.passed
    up = f"-n{n + 1}"
    assert {k for k in res.counters if k.startswith("tits-") and k[-3:-1] == "-n"} == {
        "tits-associativity" + up,
        "tits-vs-hopf-power" + up,
        "tits-idempotent" + up,
    }
    assert res.counters["tits-idempotent" + up] == fubini(n + 1)
    killed = sum(zie_dimension(m) * (fubini(m) - 1) for m in range(2, n + 1))
    assert res.counters.get("hopf-power-kills-primitive", 0) == killed


@pytest.mark.parametrize(
    "call",
    ["hopf_suite(7)", "series_suite(9)", "steinmann_suite(6)", "ruelle_suite(7)",
     "glz_suite(7)", "arrows_suite(6)", "dynkin_suite(7)", "cells_suite(7)",
     "dimension_suite(6)", "tits_suite(8)", "causal_suite(9, 2)", "causal_suite(2, 18)"],
)
def test_suite_checks_its_bound_before_work(call):
    # one past the SIZE_BOUNDS entry of the suite's CLI command or of what it
    # enumerates; the sweep itself would take many minutes.  Every suite's
    # work starts by building a ground set, or for dimension_suite by asking
    # for a primitive basis, so a canonical_set and a primitive_part_basis
    # that raise prove nothing ran first.
    code = (
        "from sethopf import verify\n"
        "from sethopf.errors import SizeLimitError\n"
        "def no_work(n):\n"
        "    raise AssertionError(f'work started on [{n}] before the size check')\n"
        "verify.canonical_set = verify.primitive_part_basis = no_work\n"
        "try:\n"
        f"    verify.{call}\n"
        "except SizeLimitError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_bump_formats_details_only_on_failure():
    class Unprintable:
        def __str__(self):
            raise AssertionError("detail formatted for a passing check")

    res = SuiteResult("r")
    res.bump("k", True, Unprintable(), Unprintable())
    res.bump("k", False, 1, (2, 3), "x|y")
    res.bump("k", False)
    assert res.counters == {"k": 3}
    assert res.failures == ["k: 1 (2, 3) x|y", "k"]


def test_hopf_suite_formats_no_split_on_a_pass(monkeypatch):
    def unprintable(self):
        raise AssertionError("split formatted for a passing check")

    assert str(verify._SplitDetail((1,), (), (2, 3))) == "(1,)|()|(2, 3)"
    monkeypatch.setattr(verify._SplitDetail, "__str__", unprintable)
    res = verify.hopf_suite(2)
    assert res.passed and res.counters["coassociativity"] and res.counters["compatibility"]


def test_failure_samples_of_a_forced_failure(monkeypatch, capsys):
    real_mu = verify.mu
    monkeypatch.setattr(verify, "mu", lambda a, b: real_mu(a, b).scale(1 + len(a.ground)))
    assert cli.run(["hopf", "check", "--n", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["counters"]["failures"] == 38
    assert out["failureSamples"] == FORCED_FAILURE_SAMPLES


def test_failure_details_name_cell_and_channel(monkeypatch):
    monkeypatch.setattr(verify, "tits", lambda a, b: a)
    res = verify.dynkin_suite(2)
    assert res.failures == [
        "tits-annihilation: Cell[12:1] (1,)",
        "tits-annihilation: Cell[12:2] (2,)",
    ]
