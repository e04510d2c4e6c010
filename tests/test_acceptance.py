"""The acceptance gate: every criterion as one test, all equalities exact.

Each test prints a single pass/fail line (visible with -s / -rA; the -v
test listing mirrors them).  Counter assertions guard against vacuous
sweeps: the suites must have checked the expected number of instances.
"""

import time

import pytest

from sethopf import verify
from sethopf.cells import dynkin, dynkin_rank, enumerate_cells, primitive_dimension_certified
from sethopf.compositions import canonical_set, fubini
from sethopf.hopf import is_primitive
from sethopf.linalg import rank


def _line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def hopf_suite_4():
    """One hopf_suite(4) run, shared by criteria 1-3, with its wall time."""
    t0 = time.time()
    res = verify.hopf_suite(4)
    return res, time.time() - t0


def test_criterion_01_hopf_axioms(hopf_suite_4):
    res, elapsed = hopf_suite_4
    expected_antipode_sweeps = sum(fubini(m) for m in range(1, 5))
    _line(
        "criterion 1: Hopf axiom suite (assoc/coassoc/compat/units/antipode), n<=4",
        res.passed
        and res.counters["antipode-convolution"] == expected_antipode_sweeps
        and res.counters["associativity"] > 0
        and res.counters["compatibility"] > 0,
        f"{res.checked} checks in {elapsed:.1f}s",
    )


def test_criterion_02_antipode_agreement(hopf_suite_4):
    res, _ = hopf_suite_4
    total = sum(fubini(m) for m in range(5))
    _line(
        "criterion 2: closed-form antipode equals Takeuchi on all of degree <= 4",
        res.passed and res.counters["antipode-takeuchi"] == total,
        f"{res.counters['antipode-takeuchi']} elements",
    )


def test_criterion_03_basis_change(hopf_suite_4):
    res, _ = hopf_suite_4
    total = sum(fubini(m) for m in range(5))
    _line(
        "criterion 3: to_h/to_q mutually inverse and Q_(I) primitive, n <= 4",
        res.passed
        and res.counters["h-q-roundtrip"] == total
        and res.counters["q-h-roundtrip"] == total
        and res.counters["q-top-primitive"] == 4,
    )


def test_criterion_04_dimension_ladder():
    res = verify.dimension_suite(4)
    _line(
        "criterion 4: primitive-part dimensions 1, 2, 6, 26 by exact kernel",
        res.passed and res.payload["dims"] == {1: 1, 2: 2, 3: 6, 4: 26},
        str(res.payload["dims"]),
    )


@pytest.mark.heavy
def test_criterion_04_dimension_ladder_n5():
    t0 = time.time()
    res = verify.dimension_suite(5)
    _line(
        "criterion 4 (heavy): primitive-part dimensions 1, 2, 6, 26, 150 by exact kernel",
        res.passed and res.payload["dims"] == {1: 1, 2: 2, 3: 6, 4: 26, 5: 150},
        f"{time.time()-t0:.1f}s",
    )


@pytest.mark.heavy
def test_criterion_04_certified_dimension_n5():
    # the tree-image certificate, which dynkin_rank does not run
    t0 = time.time()
    got = primitive_dimension_certified(5)
    _line(
        "criterion 4 (heavy): primitive dimension 150 at n=5 by the tree-image certificate",
        got == 150,
        f"{time.time()-t0:.1f}s",
    )


def test_criterion_05_cell_counts():
    t0 = time.time()
    res = verify.cells_suite(5)
    _line(
        "criterion 5: cell counts 2, 6, 32, 370 for n = 2..5 (OEIS A034997)",
        res.passed and res.payload["counts"] == {2: 2, 3: 6, 4: 32, 5: 370},
        f"{time.time()-t0:.1f}s",
    )


@pytest.mark.heavy
def test_criterion_05_cell_count_n6():
    t0 = time.time()
    res = verify.cells_suite(6)
    _line(
        "criterion 5 (heavy): 11292 cells at n=6",
        res.passed and res.payload["counts"][6] == 11292,
        f"{time.time()-t0:.1f}s",
    )


def test_criterion_06_dynkin_suite():
    res = verify.dynkin_suite(4)
    total_cells = 1 + 2 + 6 + 32
    _line(
        "criterion 6: Dynkin primitivity, Tits factorization, Tits annihilation, rank 26/32",
        res.passed
        and res.counters["dynkin-primitive"] == total_cells
        and res.counters["tits-factorization"] == total_cells
        and res.payload["rank"] == {"cells": 32, "rank": 26, "zieDim": 26},
    )


@pytest.mark.heavy
def test_criterion_06_dynkin_rank_n5():
    t0 = time.time()
    got = dynkin_rank(canonical_set(5))
    _line(
        "criterion 6 (heavy): n=5 Dynkin rank (370, 150, 150)",
        got == (370, 150, 150),
        f"{time.time()-t0:.1f}s",
    )


@pytest.mark.heavy
def test_criterion_06_dynkin_elements_primitive_n5():
    # the oracle for the orbit certificate: every element checked directly
    t0 = time.time()
    got = sum(is_primitive(dynkin(c)) for c in enumerate_cells(canonical_set(5)))
    _line(
        "criterion 6 (heavy): each of the 370 Dynkin elements at n=5 is primitive",
        got == 370,
        f"{time.time()-t0:.1f}s",
    )


@pytest.mark.heavy
def test_criterion_06_dynkin_rows_exact_rank_n5():
    # the oracle for the modular squeeze: exact elimination of the rows
    t0 = time.time()
    got = rank([dynkin(c).lc for c in enumerate_cells(canonical_set(5))])
    _line(
        "criterion 6 (heavy): exact rank of the 370 Dynkin rows at n=5 is 150",
        got == 150,
        f"{time.time()-t0:.1f}s",
    )


def test_criterion_07_steinmann_suite():
    res = verify.steinmann_suite(4)
    _line(
        "criterion 7: all Steinmann quadruples hold at n=4; span 6; negative control",
        res.passed
        and res.payload["quadruples"] == 6
        and res.payload["relationSpan"] == 6
        and res.counters["negative-control"] == 1,
    )


@pytest.mark.heavy
def test_criterion_07_steinmann_suite_n5():
    res = verify.steinmann_suite(5)
    _line(
        "criterion 7 (heavy): Steinmann relations at n=5 span 220 = 370 - 150",
        res.passed and res.payload["relationSpan"] == 220,
        f"span={res.payload['relationSpan']}",
    )


def test_criterion_08_lie_suite():
    res = verify.lie_suite(4)
    _line(
        "criterion 8: Ruelle (all admissible, n<=4), GLZ (all pairs, n<=4), tree Jacobi/antisymmetry",
        res.passed
        and res.counters["ruelle"] > 0
        and res.counters["glz"] == 2 + 6 + 12
        and res.counters["tree-jacobi"] > 0
        and res.counters["tree-antisymmetry"] > 0,
        f"ruelle={res.counters['ruelle']}",
    )


def test_criterion_09_arrow_suite():
    res = verify.arrows_suite(3)
    _line(
        "criterion 9: biderivation laws, order independence, up-down commutator, "
        "primitivity, cell compatibility, R/A expansions",
        res.passed
        and res.counters["biderivation-derivation"] > 0
        and res.counters["biderivation-coderivation"] > 0
        and res.counters["arrow-dynkin-down"] == 2 * (1 + 2 + 6)
        and res.counters["retarded-expansion"] > 0,
    )


def test_criterion_10_series_suite():
    res = verify.series_suite(4)
    _line(
        "criterion 10: convolution algebra, group-likes, T-exponential homomorphism, "
        "exponential splitting, classical exponential K=6",
        res.passed
        and res.counters["texp-homomorphism"] == 2
        and res.counters["classical-exponential"] == 1
        and res.counters["exponential-splitting"] == 1,
    )


def test_criterion_11_causal_suite():
    res = verify.causal_suite(4, order=2)
    _line(
        "criterion 11: causal factorization (n<=4), retarded support, Z factorization "
        "and Bogoliubov exact at order 2",
        res.passed
        and res.counters["causal-factorization"] > 0
        and res.counters["retarded-support"] == 4
        and res.counters["z-factorization"] == 1
        and res.counters["bogoliubov"] == 1,
        f"{res.checked} checks",
    )


@pytest.mark.heavy
def test_criterion_11_causal_order3():
    t0 = time.time()
    res = verify.causal_suite(2, order=3)
    _line(
        "criterion 11 (heavy): Z factorization and Bogoliubov exact at order 3",
        res.passed
        and res.counters["z-factorization"] == 1
        and res.counters["bogoliubov"] == 1,
        f"{time.time()-t0:.1f}s",
    )
