#!/usr/bin/env python3
"""Run every acceptance suite and print one pass/fail line per criterion,
with the wall time of that line after its status, then the total.

Default bounds keep this under a minute; --heavy runs the same suites one
step up (the Hopf axioms, the exact primitive kernel and the Dynkin rank at
n=5, with two oracles for its certificate: every n=5 Dynkin element checked
primitive directly, against the orbit representatives, and the exact rank
of the n=5 Dynkin rows, against the modular squeeze; the tree-image certificate
of the primitive dimension at n=5; the Steinmann span at n=5, n=6 cells with
their moved witnesses, the exact rank of the n=6 Steinmann relation vectors,
and the orbit walk at n=6 against the insertion
enumeration, its oracle; the Dynkin rank at n=6; Ruelle's identity on its
4822 configurations up to n=6; Z factorization and Bogoliubov at order 3
and at the `toy demo` bound; the series identities at their bound), which
takes minutes.
"""

import argparse
import sys
import time

from sethopf import verify
from sethopf.cells import (
    _cell_orbits,
    _insertion_enumeration,
    dynkin,
    dynkin_rank,
    enumerate_cells,
    primitive_dimension_certified,
    steinmann_quadruples,
    steinmann_relation_vectors,
)
from sethopf.compositions import canonical_set
from sethopf.errors import SIZE_BOUNDS
from sethopf.hopf import is_primitive
from sethopf.linalg import rank


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--heavy", action="store_true")
    args = parser.parse_args()

    failures = 0
    t0 = last = time.perf_counter()

    def line(name, res, extra=""):
        # called once the line's result is computed: the time since the
        # previous line is this line's own
        nonlocal failures, last
        now = time.perf_counter()
        ok = res.passed if hasattr(res, "passed") else bool(res)
        status = "PASS" if ok else "FAIL"
        detail = f" [{res.checked} checks]" if hasattr(res, "checked") else ""
        print(f"{status} {now - last:6.1f}s  {name}{detail}{extra}", flush=True)
        last = now
        if not ok:
            failures += 1

    line("criterion 1-3: Hopf axioms, antipode agreement, basis change (n<=4)", verify.hopf_suite(4))
    line("             : Tits algebra laws", verify.tits_suite(3))
    line("criterion 4  : primitive-part dimension ladder 1,2,6,26", verify.dimension_suite(4))
    line("criterion 5  : cell counts 2,6,32,370", verify.cells_suite(5))
    line("criterion 6  : Dynkin suite (primitivity/factorization/annihilation/rank)", verify.dynkin_suite(4))
    line("criterion 7  : Steinmann relations at n=4", verify.steinmann_suite(4))
    line("criterion 8  : Ruelle + GLZ + tree Jacobi/antisymmetry", verify.lie_suite(4))
    line("criterion 9  : Steinmann arrow suite", verify.arrows_suite(3))
    line("criterion 10 : series and T-exponential identities", verify.series_suite(4))
    line("criterion 11 : causal factorization, supports, Bogoliubov (order 2)", verify.causal_suite(4, 2))

    if args.heavy:
        line("heavy: Hopf axioms at n=5", verify.hopf_suite(5))
        line("heavy: primitive dimension 150 at n=5, exact kernel", verify.dimension_suite(5))
        got = dynkin_rank(canonical_set(5))
        line("heavy: Dynkin rank (370, 150, 150) at n=5", got == (370, 150, 150), f" -> {got}")
        got = primitive_dimension_certified(5)
        line("heavy: primitive dimension 150 at n=5, tree-image certificate", got == 150, f" -> {got}")
        dynkin5 = [dynkin(c) for c in enumerate_cells(canonical_set(5))]
        got = sum(map(is_primitive, dynkin5))
        line("heavy: each of the 370 Dynkin elements at n=5 is primitive", got == 370, f" -> {got}")
        got = rank([d.lc for d in dynkin5])
        line("heavy: exact rank of the 370 Dynkin rows at n=5 is 150", got == 150, f" -> {got}")
        stein5 = verify.steinmann_suite(5)
        span_ok = stein5.passed and stein5.payload["relationSpan"] == 220
        line("heavy: Steinmann relation span 220 at n=5", span_ok)
        line("heavy: 11292 cells at n=6", verify.cells_suite(6))
        got = rank(steinmann_relation_vectors(steinmann_quadruples(canonical_set(6))))
        line("heavy: Steinmann relation span 10210 at n=6, exact rank", got == 10210, f" -> {got}")
        walked = _cell_orbits(6)
        same = enumerate_cells(canonical_set(6)) == [c for c, _, _ in _insertion_enumeration(canonical_set(6))]
        line("heavy: 56 orbits at n=6 expand to the insertion enumeration's cells", same and len(walked) == 56,
             f" -> {len(walked)} orbits")
        got = dynkin_rank(canonical_set(6))
        line("heavy: Dynkin rank (11292, 1082, 1082) at n=6", got == (11292, 1082, 1082), f" -> {got}")
        ruelle6 = verify.ruelle_suite(6)
        line("heavy: Ruelle's identity on 4822 configurations at n<=6", ruelle6.passed and ruelle6.checked == 4822,
             f" [{ruelle6.checked} checks]")
        line("heavy: order-3 Z factorization and Bogoliubov", verify.causal_suite(2, 3))
        toy, order = SIZE_BOUNDS["toy demo"], SIZE_BOUNDS["series identities"]
        line(f"heavy: order-{toy} Z factorization and Bogoliubov", verify.causal_suite(2, toy))
        line(f"heavy: series and T-exponential identities at order {order}", verify.series_suite(order))

    print(f"total wall time: {time.perf_counter()-t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
