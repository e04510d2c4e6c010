"""Runnable verification suites: every structural identity as a counted sweep.

Each suite returns a ``SuiteResult`` with per-check counters and a list of
failure descriptions; the CLI and the acceptance tests both run these, one
suite per CLI command (``lie_suite`` merges the Ruelle, GLZ and tree suites
for the acceptance gate).  The
sweeps are exhaustive over the stated bounds, and the counters let callers
assert that the intended number of instances was actually exercised.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm

from .arrows import (
    arrow_cell_down,
    arrow_cell_up,
    arrow_down,
    arrow_down_single,
    arrow_up,
    arrow_up_single,
    retarded_element,
    advanced_element,
    u_ab,
)
from .compositions import (
    Composition,
    canonical_set,
    compositions_of,
    concat,
    one_lump,
    ordered_splits,
    proper_splits,
    restrict,
    zie_dimension,
)
from .causal import (
    CAUSAL_SYSTEM,
    TimedObservable,
    bogoliubov_check,
    causal_factorization_check,
    generalized_T,
    respects,
    retarded_product,
    reverse_T,
    time_ordered,
    z_factorization_check,
)
from .cells import (
    commutator,
    dynkin,
    dynkin_rank,
    dynkin_tits_factorization,
    enumerate_cells,
    enumerate_cells_with_witnesses,
    glz_check,
    leaf,
    node,
    ruelle_check,
    ruelle_configurations,
    steinmann_quadruples,
    steinmann_relation_holds,
    steinmann_relation_vectors,
    total_retarded_dynkin,
    tree_to_primitive,
)
from .errors import check_size
from .hopf import (
    H,
    Q,
    _tensor,
    antipode,
    basis_elem,
    delta_split,
    is_primitive,
    mu,
    mu_many,
    primitive_part_basis,
    q_elem,
    relabel,
    sigma_basis,
    takeuchi_antipode,
    to_h,
    to_q,
    unit_elem,
)
from .lincomb import LinComb, lincomb_sum
from .linalg import rank
from .series import (
    SigmaSeries,
    TruncSeries,
    convolve,
    eval_system,
    formal_diff,
    homomorphism_check,
    is_group_like,
    lump_shapes,
    perturb_arrow,
    perturb_coderivation,
    polynomial_system,
    series_antipode,
    shape_form,
    t_exponential,
    unit_series,
    universal_series,
    word_product,
)
from .hadamard import hopf_power, tits, tits_unit

CELL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 6, 4: 32, 5: 370, 6: 11292}  # OEIS A034997


@dataclass
class SuiteResult:
    name: str
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def bump(self, key: str, ok: bool, *detail):
        """Count one check of key; on a failure, record the detail parts
        joined by spaces.  The parts are formatted only then."""
        self.counters[key] = self.counters.get(key, 0) + 1
        if not ok:
            text = " ".join(map(str, detail))
            self.failures.append(f"{key}: {text}" if text else key)

    @property
    def checked(self) -> int:
        return sum(self.counters.values())

    @property
    def passed(self) -> bool:
        return not self.failures

    @classmethod
    def merge(cls, name: str, results) -> "SuiteResult":
        """One result with the counters summed, the failures concatenated and
        the payloads updated in the order of results."""
        out = cls(name)
        for r in results:
            for k, v in r.counters.items():
                out.counters[k] = out.counters.get(k, 0) + v
            out.failures.extend(r.failures)
            out.payload.update(r.payload)
        return out


def _once(f):
    """f evaluated once per distinct argument tuple, the value kept for every
    later call with an equal tuple.  The suites pass compositions, label
    tuples, degrees and trees (a ``Tree`` is its own key, by identity; a
    ``SigmaElem`` is not hashable, so the memo refuses one).  A suite wraps
    the operations it repeats when it is called, or once per degree for
    ``hopf_suite``, so a memo lives for one suite call at most."""
    memo = {}

    def once(*args):
        value = memo.get(args, memo)
        if value is memo:  # not yet evaluated
            value = memo[args] = f(*args)
        return value

    return once


class _SplitDetail:
    """The parts of a split, shown as S|T or S|T|U, formatted only when a
    check fails and ``SuiteResult.bump`` prints its detail."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = parts

    def __str__(self):
        return "|".join(map(str, self.parts))


# ---------------------------------------------------------------------------
# Hopf axioms (acceptance criteria 1-3)


def hopf_suite(n: int = 4) -> SuiteResult:
    check_size("hopf check", n)
    res = SuiteResult("hopf")
    for m in range(n + 1):
        ground = canonical_set(m)
        splits = list(ordered_splits(ground))
        comps = {S: compositions_of(S) for S, _ in splits}  # of every subset of the ground
        elem = {F: basis_elem(F, H) for S in comps for F in comps[S]}
        basis = comps[ground]
        proper = [(S, T) for S, T in splits if S and T]
        # every ordered 3-part decomposition (S, T, U), with S + T and T + U
        triples = [(S, T, U, tuple(sorted(S + T)), tuple(sorted(T + U)))
                   for S, rest in splits for T, U in ordered_splits(rest)]

        # every repeated operation on basis elements, keyed by composition and
        # evaluated once per degree; the operations are looked up at each
        # evaluation, so a patched module-level name is still seen
        @_once
        def product_of(F, G):
            return mu(elem[F], elem[G])

        @_once
        def split_of(F, S, T):
            return delta_split(elem[F], S, T)

        @_once
        def antipode_of(F):
            return antipode(elem[F])

        @_once
        def q_of(F):
            return to_q(elem[F])

        @_once
        def h_of_q(F):
            return to_h(basis_elem(F, Q))

        @_once
        def convolution_of(x, y):
            # the terms of both antipode convolution identities on H_x (x) H_y
            return mu(elem[x], antipode_of(y)), mu(antipode_of(x), elem[y])

        # associativity over all ordered 3-part decompositions
        for S, T, U, _, _ in triples:
            for F in comps[S]:
                for G in comps[T]:
                    for K in comps[U]:
                        ok = mu(product_of(F, G), elem[K]) == mu(elem[F], product_of(G, K))
                        res.bump("associativity", ok, elem[F], elem[G], elem[K])

        # coassociativity via nested splits of each leg
        for F in basis:
            for S, T, U, ST, TU in triples:
                left = {}
                for (x, y), cxy in split_of(F, ST, U):
                    for (x1, x2), cx in split_of(x, S, T):
                        c = cxy * cx
                        if c:
                            key = (x1, x2, y)
                            left[key] = left.get(key, 0) + c
                right = {}
                for (x, y), cxy in split_of(F, S, TU):
                    for (y1, y2), cy in split_of(y, T, U):
                        c = cxy * cy
                        if c:
                            key = (x, y1, y2)
                            right[key] = right.get(key, 0) + c
                ok = LinComb(left) == LinComb(right)
                res.bump("coassociativity", ok, elem[F], _SplitDetail(S, T, U))

        # bimonoid compatibility
        for A, B in splits:
            for S, T in splits:
                AS, AT = tuple(x for x in A if x in S), tuple(x for x in A if x in T)
                BS, BT = tuple(x for x in B if x in S), tuple(x for x in B if x in T)
                for Fx in comps[A]:
                    for Fy in comps[B]:
                        lhs = delta_split(product_of(Fx, Fy), S, T)
                        rhs = {}
                        for (xs, xt), cx in split_of(Fx, AS, AT):
                            for (ys, yt), cy in split_of(Fy, BS, BT):
                                key = (concat(xs, ys), concat(xt, yt))
                                c = cx * cy
                                if c:
                                    rhs[key] = rhs.get(key, 0) + c
                        ok = lhs == LinComb(rhs)
                        res.bump("compatibility", ok, elem[Fx], elem[Fy], _SplitDetail(S, T))

        # unit and counit laws
        for F in basis:
            a = elem[F]
            res.bump("unit", mu(unit_elem(), a) == a and mu(a, unit_elem()) == a)
            left = delta_split(a, (), ground)
            expected = _tensor(unit_elem(), a)
            right = delta_split(a, ground, ())
            expected_r = _tensor(a, unit_elem())
            res.bump("counit", left == expected and right == expected_r)

        # antipode convolution identities, both sides (m >= 1)
        if m >= 1:
            for F in basis:
                terms = [(x, y, c) for S, T in splits for (x, y), c in split_of(F, S, T)]
                left = lincomb_sum(convolution_of(x, y)[0].lc.scale(c) for x, y, c in terms)
                right = lincomb_sum(convolution_of(x, y)[1].lc.scale(c) for x, y, c in terms)
                res.bump("antipode-convolution", not left and not right, elem[F])
        del convolution_of  # its pairs are read by no later check of this degree

        # cocommutativity
        for F in basis:
            for S, T in splits:
                swapped = LinComb(
                    {(y, x): c for (x, y), c in split_of(F, T, S)}
                )
                res.bump("cocommutativity", split_of(F, S, T) == swapped)

        # Q-basis product/coproduct rules agree with conversion
        for S, T in proper:
            for F in comps[S]:
                for G in comps[T]:
                    direct = mu(basis_elem(F, Q), basis_elem(G, Q))
                    via_h = to_q(mu(h_of_q(F), h_of_q(G)))
                    res.bump("q-product", direct == via_h)
        for F in basis:
            aq = q_of(F)
            for S, T in proper:
                direct = delta_split(aq, S, T)
                converted = {}
                for (x, y), c in split_of(F, S, T):
                    for X, cx in q_of(x).lc:
                        for Y, cy in q_of(y).lc:
                            key = (X, Y)
                            w = converted.get(key, 0) + c * cx * cy
                            if w:
                                converted[key] = w
                            else:
                                converted.pop(key, None)
                res.bump("q-coproduct", direct == LinComb(converted))

        # antipode closed formula vs Takeuchi (criterion 2).  Both commute
        # with relabelling, so Takeuchi's sum is taken once per S_m orbit, on
        # its first composition R, and moved onto each F of the orbit by the
        # bijection that carries the lumps of R onto those of F.
        takeuchi = {}  # lump sizes -> (R, takeuchi_antipode(H_R))
        for F in basis:
            shape = tuple(map(len, F.lumps))
            if shape not in takeuchi:
                takeuchi[shape] = F, takeuchi_antipode(elem[F])
            R, value = takeuchi[shape]
            moved = relabel(value, dict(zip(itertools.chain(*R.lumps), itertools.chain(*F.lumps))))
            res.bump("antipode-takeuchi", antipode_of(F) == moved, elem[F])

        # basis change round trips and Q_(I) primitivity (criterion 3)
        for F in basis:
            res.bump("h-q-roundtrip", to_h(q_of(F)) == elem[F])
        for Fq in basis:
            res.bump("q-h-roundtrip", to_q(h_of_q(Fq)) == basis_elem(Fq, Q))
        if m >= 1:
            res.bump("q-top-primitive", is_primitive(h_of_q(one_lump(ground))))
    return res


# ---------------------------------------------------------------------------
# dimension ladder (criterion 4)


def dimension_suite(n: int = 4) -> SuiteResult:
    """The primitive dimensions by the exact kernel: the oracle for the
    elimination-free certificate of ``cells.primitive_dimension_certified``."""
    check_size("primitive part", n)
    res = SuiteResult("dimensions")
    dims = {}
    for m in range(1, n + 1):
        got = len(primitive_part_basis(m))
        dims[m] = got
        res.bump("primitive-dim", got == zie_dimension(m), f"n={m}: {got}")
    res.payload["dims"] = dims
    return res


# ---------------------------------------------------------------------------
# cells (criterion 5)


def cells_suite(n_max: int = 5) -> SuiteResult:
    check_size("cells", n_max)
    res = SuiteResult("cells")
    counts = {}
    for m in range(2, n_max + 1):
        cells = enumerate_cells_with_witnesses(canonical_set(m))
        counts[m] = len(cells)
        res.bump("cell-count", len(cells) == CELL_COUNTS[m], f"n={m}: {len(cells)}")
        # each witness on ints: every value times the lcm of its denominators;
        # that lcm is positive, so each sum keeps its sign and the test is exact
        realized = True
        for c, w in cells:
            scale = lcm(*[x.denominator for x in w.values()])
            v = {label: x.numerator * (scale // x.denominator) for label, x in w.items()}
            if sum(v.values()) or not all(sum([v[x] for x in S]) > 0 for S in c.positive):
                realized = False
                break
        res.bump("cell-witnesses-realize", realized, f"n={m}")
    res.payload["counts"] = counts
    return res


# ---------------------------------------------------------------------------
# Dynkin elements (criterion 6)


def dynkin_suite(n: int = 4) -> SuiteResult:
    check_size("dynkin rank", n)
    res = SuiteResult("dynkin")
    for m in range(1, n + 1):
        ground = canonical_set(m)
        for cell in enumerate_cells(ground):
            d = dynkin(cell)
            res.bump("dynkin-primitive", is_primitive(d), cell)
            res.bump(
                "tits-factorization", dynkin_tits_factorization(cell) == d, cell
            )
            for S, T in cell.channels():
                flipped = basis_elem(Composition((T, S)), H)
                res.bump("tits-annihilation", tits(d, flipped).is_zero(), cell, S)
    cells, r, zdim = dynkin_rank(canonical_set(n))
    expected = (CELL_COUNTS[n], zie_dimension(n), zie_dimension(n))
    res.bump("dynkin-rank", (cells, r, zdim) == expected)
    res.payload["rank"] = {"cells": cells, "rank": r, "zieDim": zdim}
    return res


# ---------------------------------------------------------------------------
# Steinmann relations (criterion 7)


def steinmann_suite(n: int = 4) -> SuiteResult:
    check_size("steinmann verify", n)
    res = SuiteResult("steinmann")
    ground = canonical_set(n)
    quads = steinmann_quadruples(ground)
    for quad in quads:
        res.bump("steinmann-relation", steinmann_relation_holds(quad))
    res.payload["quadruples"] = len(quads)
    if n >= 4:
        vectors = steinmann_relation_vectors(quads)
        span = rank(vectors)
        expected = len(enumerate_cells(ground)) - zie_dimension(n)
        res.bump("relation-span", span == expected, f"span={span}")
        res.payload["relationSpan"] = span
        # negative control: corrupt an unrelated channel of the first quadruple
        if quads:
            s1, s2, s3, s4 = quads[0]
            kept = [S for S in sorted(s1.positive) if s2.contains(S) and s4.contains(S)]
            control_ok = any(not steinmann_relation_holds((s1.flip(S), s2, s3, s4)) for S in kept)
            res.bump("negative-control", control_ok)
    return res


# ---------------------------------------------------------------------------
# Lie structure: Ruelle, GLZ, trees (criterion 8)


def _all_trees(ground: tuple) -> list:
    if not ground:
        return []
    out = [leaf(ground)]
    for S, T in proper_splits(ground):
        if min(S) != min(ground):
            continue  # avoid double-counting: left subtree keeps the minimum
        for t1 in _all_trees(S):
            for t2 in _all_trees(T):
                out.append(node(t1, t2))
                out.append(node(t2, t1))
    return out


def ruelle_suite(n: int = 4) -> SuiteResult:
    check_size("cells", n)
    res = SuiteResult("ruelle")
    for m in range(2, n + 1):
        for c1, c2, bridge in ruelle_configurations(canonical_set(m)):
            res.bump("ruelle", ruelle_check(c1, c2, bridge), c1, c2, bridge)
    return res


def glz_suite(n: int = 4) -> SuiteResult:
    check_size("cells", n)
    res = SuiteResult("glz")
    for m in range(2, n + 1):
        ground = canonical_set(m)
        for i1 in ground:
            for i2 in ground:
                if i1 != i2:
                    res.bump("glz", glz_check(ground, i1, i2), f"{i1},{i2}")
    return res


def tree_suite(n: int = 4) -> SuiteResult:
    res = SuiteResult("tree")
    ground = canonical_set(min(n, 4))
    # each subset's trees are built once, so a tree is its own key, and each
    # tree image is evaluated once per suite call
    trees = _once(_all_trees)

    @_once
    def image(t):
        return to_h(tree_to_primitive(t))

    @_once
    def bracket_image(t1, t2):
        return to_h(tree_to_primitive(node(t1, t2)))

    @_once
    def jacobi_image(t1, t2, t3):
        return to_h(tree_to_primitive(node(node(t1, t2), t3)))

    # antisymmetry and the bracket homomorphism on tree images
    for S, T in proper_splits(ground):
        for t1 in trees(S):
            for t2 in trees(T):
                img12 = bracket_image(t1, t2)
                img21 = bracket_image(t2, t1)
                res.bump("tree-antisymmetry", (img12 + img21).is_zero())
                bracket = commutator(image(t1), image(t2))
                res.bump("tree-bracket-homomorphism", img12 == bracket)

    # Jacobi identity on trees over ordered 3-part decompositions
    for S, rest in proper_splits(ground):
        for T, U in proper_splits(rest):
            for t1 in trees(S):
                for t2 in trees(T):
                    for t3 in trees(U):
                        total = (
                            jacobi_image(t1, t2, t3)
                            + jacobi_image(t3, t1, t2)
                            + jacobi_image(t2, t3, t1)
                        )
                        res.bump("tree-jacobi", total.is_zero())
    return res


def lie_suite(n: int = 4) -> SuiteResult:
    """The Ruelle, GLZ and tree suites as one result (the acceptance gate's)."""
    return SuiteResult.merge("lie", [ruelle_suite(n), glz_suite(n), tree_suite(n)])


# ---------------------------------------------------------------------------
# arrows (criterion 9)


def arrows_suite(n: int = 3, seed: int = 2024) -> SuiteResult:
    check_size("arrows verify", n)
    res = SuiteResult("arrows")
    rng = random.Random(seed)
    star = -1
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    # the operands the checks repeat, each evaluated once per suite call
    @_once
    def u_of(F):
        return u_ab(a, b, star, basis_elem(F, H))

    retarded_of, advanced_of = _once(retarded_element), _once(advanced_element)
    primitives = _once(primitive_part_basis)

    # biderivation: derivation law on products over disjoint grounds
    for m1 in range(0, n + 1):
        for m2 in range(0, n + 1 - m1):
            S = canonical_set(m1)
            T = tuple(range(m1 + 1, m1 + m2 + 1))
            for F in compositions_of(S):
                for G in compositions_of(T):
                    x = basis_elem(F, H)
                    y = basis_elem(G, H)
                    lhs = u_ab(a, b, star, mu(x, y))
                    rhs = mu(u_of(F), y) + mu(x, u_of(G))
                    res.bump("biderivation-derivation", lhs == rhs, F, G)

    # coderivation law: Delta_(*S,T)(u(H_F)) = u(H_F|S) (x) H_F|T
    for m in range(1, n + 1):
        ground = canonical_set(m)
        for F in compositions_of(ground):
            ux = u_of(F)
            for S, T in ordered_splits(ground):
                got = delta_split(ux, tuple(sorted(S + (star,))), T)
                expected = _tensor(u_of(restrict(F, S)), basis_elem(restrict(F, T), H))
                res.bump("biderivation-coderivation", got == expected, F, f"{S}|{T}")
                got_r = delta_split(ux, S, tuple(sorted(T + (star,))))
                expected_r = _tensor(basis_elem(restrict(F, S), H), u_of(restrict(F, T)))
                res.bump("biderivation-coderivation-right", got_r == expected_r, F, f"{S}|{T}")

    # order independence and the commutator identity
    for m in range(0, n + 1):
        ground = canonical_set(m)
        for F in compositions_of(ground):
            x = basis_elem(F, H)
            down12 = arrow_down_single(-2, arrow_down_single(-1, x))
            down21 = arrow_down_single(-1, arrow_down_single(-2, x))
            res.bump("arrow-order-independence", down12 == down21, F)
            up12 = arrow_up_single(-2, arrow_up_single(-1, x))
            up21 = arrow_up_single(-1, arrow_up_single(-2, x))
            res.bump("arrow-order-independence", up12 == up21, F)
            diff = arrow_up_single(star, x) - arrow_down_single(star, x)
            bracket = commutator(basis_elem(one_lump((star,)), H), x)
            res.bump("arrow-updown-commutator", diff == bracket, F)

    # primitivity preservation and the derivation law on the bracket
    for m in range(1, n + 1):
        for p in primitives(m):
            res.bump("arrow-preserves-primitive", is_primitive(arrow_down_single(star, p)))
            res.bump("arrow-preserves-primitive", is_primitive(arrow_up_single(star, p)))
    for m1 in range(1, 3):
        for m2 in range(1, 3):
            S = canonical_set(m1)
            T = tuple(range(m1 + 1, m1 + m2 + 1))
            for p in primitives(m1):
                for q0 in primitives(m2):
                    q = relabel(q0, {i + 1: m1 + i + 1 for i in range(m2)})
                    lhs = arrow_down_single(star, commutator(p, q))
                    rhs = commutator(arrow_down_single(star, p), q) + commutator(
                        p, arrow_down_single(star, q)
                    )
                    res.bump("arrow-bracket-derivation", lhs == rhs)

    # compatibility with Dynkin elements through cell arrows
    for m in range(1, n + 1):
        ground = canonical_set(m)
        for cell in enumerate_cells(ground):
            d = dynkin(cell)
            for Y in ((-1,), (-2, -1)):
                res.bump(
                    "arrow-dynkin-down",
                    arrow_down(Y, d) == dynkin(arrow_cell_down(Y, cell)),
                    cell,
                    Y,
                )
                res.bump(
                    "arrow-dynkin-up",
                    arrow_up(Y, d) == dynkin(arrow_cell_up(Y, cell)),
                    cell,
                    Y,
                )

    # the curried arrow family is multiplicative, degreewise in the arrow count
    for m1 in range(0, 3):
        for m2 in range(0, 3 - m1 + 1):
            if m1 + m2 > n:
                continue
            S = canonical_set(m1)
            T = tuple(range(m1 + 1, m1 + m2 + 1))
            for F in compositions_of(S):
                for G in compositions_of(T):
                    x, y = basis_elem(F, H), basis_elem(G, H)
                    prod = mu(x, y)
                    for Y in ((-1,), (-2, -1)):
                        expect = lincomb_sum(
                            mu(arrow_down(Y1, x), arrow_down(Y2, y)).lc
                            for Y1, Y2 in ordered_splits(Y)
                        )
                        res.bump("arrow-product-law", arrow_down(Y, prod).lc == expect, F, G, Y)

    # factorized expansion of iterated arrows into retarded/advanced elements
    for m in range(1, n + 1):
        ground = canonical_set(m)
        for Y in ((-1,), (-2, -1)):
            for F in compositions_of(ground):
                x = basis_elem(F, H)
                for name, arrow, element in (
                    ("retarded-expansion", arrow_down, retarded_of),
                    ("advanced-expansion", arrow_up, advanced_of),
                ):
                    products = (
                        mu_many([element(Yi, lump) if Yi else basis_elem(one_lump(lump), H)
                                 for Yi, lump in zip(assignment, F.lumps)])
                        for assignment in _ordered_partitions(Y, len(F.lumps))
                    )
                    res.bump(name, arrow(Y, x).lc == lincomb_sum(p.lc for p in products), F, Y)

    # pinned instances of the retarded/advanced elements
    res.bump(
        "retarded-instance",
        retarded_element((-1,), (1,))
        == arrow_down_single(-1, basis_elem(one_lump((1,)), H)),
    )
    res.bump(
        "advanced-instance",
        advanced_element((-1,), (1,))
        == arrow_up_single(-1, basis_elem(one_lump((1,)), H)),
    )
    res.bump(
        "retarded-is-total-dynkin",
        retarded_element((1,), (2,)) == total_retarded_dynkin((1, 2), 2),
    )
    return res


def _ordered_partitions(Y: tuple, k: int):
    """All ways to distribute the sorted labels of Y into k ordered (possibly
    empty) parts: one part index per label."""
    for places in itertools.product(range(k), repeat=len(Y)):
        yield tuple(tuple(y for y, i in zip(Y, places) if i == part) for part in range(k))


# ---------------------------------------------------------------------------
# series (criterion 10)


def _random_invariant_series(rng: random.Random, max_n: int) -> SigmaSeries:
    """A random series: one coefficient per lump shape of each degree m, in
    the order of ``lump_shapes``, which is the order in which
    ``compositions_of`` of [m] first meets the shapes."""
    return SigmaSeries({
        m: LinComb({a: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for a in lump_shapes(m)})
        for m in range(max_n + 1)
    }, max_n)


def series_suite(order: int = 4, seed: int = 7) -> SuiteResult:
    check_size("series identities", order)
    res = SuiteResult("series")
    rng = random.Random(seed)

    # convolution unit and associativity on random invariant series
    for trial in range(3):
        s = _random_invariant_series(rng, order)
        t = _random_invariant_series(rng, order)
        u = _random_invariant_series(rng, order)
        res.bump("convolution-unit", convolve(unit_series(order), s) == s)
        res.bump("convolution-unit", convolve(s, unit_series(order)) == s)
        res.bump(
            "convolution-associativity",
            convolve(convolve(s, t), u) == convolve(s, convolve(t, u)),
        )

    # the universal series is group-like and inverted by the antipode
    for c in (1, 2, Fraction(1, 3)):
        g = universal_series(c, order)
        res.bump("universal-group-like", is_group_like(g))
        res.bump(
            "universal-antipode-inverse",
            convolve(g, series_antipode(g)) == unit_series(order)
            and convolve(series_antipode(g), g) == unit_series(order),
        )
    res.bump("unit-group-like", is_group_like(unit_series(order)))
    qn = SigmaSeries(
        {m: shape_form(to_h(q_elem(canonical_set(m)))) for m in range(1, order + 1)}, order
    )
    res.bump("primitive-series-not-group-like", not is_group_like(qn))

    poly = polynomial_system({"A": Fraction(1), "B": Fraction(2), "A+B": Fraction(3)})
    times = {1: Fraction(0), 2: Fraction(1), 3: Fraction(2), 4: Fraction(3)}
    causal_dec = {i: TimedObservable(f"x{i}", t) for i, t in times.items()}
    res.bump("polynomial-homomorphism", homomorphism_check(poly, 3, {i: "A" for i in (1, 2, 3)}))
    res.bump("causal-homomorphism", homomorphism_check(CAUSAL_SYSTEM, 3, causal_dec))

    def broken(F, dec):  # the unit on degrees 0 and 1, zero above
        return LinComb.single((), 1) if len(F.ground) <= 1 else LinComb()

    res.bump("broken-system-detected", not homomorphism_check(broken, 2, {1: "A", 2: "A"}))

    # the series-to-function map is an algebra homomorphism (both systems)
    for sys_name, sys, A in (("poly", poly, "A"), ("causal", CAUSAL_SYSTEM, causal_dec[1])):
        s = _random_invariant_series(rng, order)
        t = _random_invariant_series(rng, order)
        lhs = t_exponential(sys, convolve(s, t), A, order)
        rhs = t_exponential(sys, s, A, order) * t_exponential(sys, t, A, order)
        res.bump("texp-homomorphism", lhs == rhs, sys_name)
        res.bump(
            "texp-unit",
            t_exponential(sys, unit_series(order), A, order) == TruncSeries.unit(order),
        )

    # group-like inverse at the function level
    for sys, A in ((poly, "A"), (CAUSAL_SYSTEM, causal_dec[1])):
        g = universal_series(1, order)
        inv = series_antipode(g)
        prod = t_exponential(sys, g, A, order) * t_exponential(sys, inv, A, order)
        res.bump("texp-inverse", prod == TruncSeries.unit(order))

    # exponential splitting in the commutative system
    g = universal_series(1, order)
    lhs = t_exponential(poly, g, "A+B", order)
    rhs = t_exponential(poly, g, "A", order) * t_exponential(poly, g, "B", order)
    res.bump("exponential-splitting", lhs == rhs)

    # classical exponential recovery at <A, Phi> = 1, K = 6
    sexp = t_exponential(poly, universal_series(1, 6), "A", 6)
    ok = all(
        sexp.coeff(0, k) == LinComb.single((), Fraction(1, factorial(k))) for k in range(7)
    )
    res.bump("classical-exponential", ok)

    # coderivation perturbation equals the binomial two-argument expansion
    for sys, S_dec, A_dec, c in (
        (poly, "B", "A", 1),
        (CAUSAL_SYSTEM, TimedObservable("s", Fraction(-1)), causal_dec[1], Fraction(-1, 3)),
    ):
        got = perturb_coderivation(sys, c, S_dec, A_dec, 3)
        expected_terms = {}
        for k in range(4):
            ground = canonical_set(k)
            for r in range(k + 1):
                nlab = k - r
                stars = tuple(range(-r, 0))
                dec = {**{s: S_dec for s in stars}, **{i: A_dec for i in canonical_set(nlab)}}
                full = tuple(sorted(stars + canonical_set(nlab)))
                val = eval_system(sys, basis_elem(one_lump(full), H), dec)
                coeff = c**k * Fraction(
                    1, factorial(k)
                ) * Fraction(factorial(k), factorial(r) * factorial(nlab))
                expected_terms[(r, nlab)] = val.scale(coeff)
        res.bump("coderivation-vs-binomial", got == TruncSeries(3, expected_terms))
        # the g^0 slice is the plain T-exponential
        g0 = t_exponential(sys, universal_series(c, 3), A_dec, 3)
        res.bump("coderivation-g0-slice", got.at_g_zero() == g0)

    # arrow perturbation: g^0 slice recovers the T-exponential
    s_obs = TimedObservable("s", Fraction(-1))
    a_obs = causal_dec[1]
    v = perturb_arrow(CAUSAL_SYSTEM, s_obs, a_obs, 2, "down")
    res.bump(
        "arrow-g0-slice",
        v.at_g_zero() == t_exponential(CAUSAL_SYSTEM, universal_series(1, 2), a_obs, 2),
    )

    # formal differentiation
    x = LinComb.single((), Fraction(5))
    ts = TruncSeries(3, {(0, 1): x, (0, 2): x.scale(Fraction(1, 2))})
    res.bump(
        "formal-diff",
        formal_diff(ts, "j") == TruncSeries(2, {(0, 0): x, (0, 1): x}),
    )
    return res


# ---------------------------------------------------------------------------
# the causal model (criterion 11)


def causal_suite(n: int = 4, order: int = 2) -> SuiteResult:
    check_size("compositions", n)
    check_size("toy demo", order)
    res = SuiteResult("causal")

    # symmetry of T under relabeling
    obs = [TimedObservable(x, t) for x, t in (("a", 0), ("b", 1), ("c", 2))]
    for perm in itertools.permutations(range(3)):
        permuted = [obs[i] for i in perm]
        res.bump("t-symmetry", time_ordered(permuted) == time_ordered(obs))

    # causal factorization, exhaustive over basis elements and respected splits
    for m in range(1, n + 1):
        ground = canonical_set(m)
        dec = {i: TimedObservable(f"x{i}", Fraction(i)) for i in ground}
        for G in compositions_of(ground):
            if not respects(dec, G):
                continue
            for x in sigma_basis(ground):
                res.bump(
                    "causal-factorization",
                    causal_factorization_check(x, G, dec),
                    x,
                    G,
                )
        # two-lump splits for every time assignment at small m
        if m <= 3:
            for perm in itertools.permutations(range(1, m + 1)):
                dec2 = {i: TimedObservable(f"x{i}", Fraction(perm[i - 1])) for i in ground}
                for S, T in proper_splits(ground):
                    G = Composition((S, T))
                    if respects(dec2, G):
                        res.bump(
                            "causal-factorization-2lump",
                            causal_factorization_check(
                                basis_elem(one_lump(ground), H), G, dec2
                            ),
                        )

    # retarded support vanishing: interactions strictly later than observables
    for ny in (1, 2):
        for ni in (1, 2):
            stars = tuple(range(-ny, 0))
            labels = canonical_set(ni)
            ydec = {s: TimedObservable(f"s{-s}", Fraction(10 - s)) for s in stars}
            idec = {i: TimedObservable(f"a{i}", Fraction(i)) for i in labels}
            res.bump(
                "retarded-support",
                retarded_product(ydec, idec).is_zero(),
                f"|Y|={ny} |I|={ni}",
            )
            # and a nonvanishing control with the interaction earliest
            ydec_early = {s: TimedObservable(f"s{-s}", Fraction(s - 10)) for s in stars}
            res.bump(
                "retarded-support-control",
                not retarded_product(ydec_early, idec).is_zero(),
            )

    # generalized retarded support through the Tits action
    for m in range(1, min(n, 3) + 1):
        ground = canonical_set(m)
        for cell in enumerate_cells(ground):
            d = dynkin(cell)
            for S, T in cell.channels():
                dec = {}
                for idx, i in enumerate(T):
                    dec[i] = TimedObservable(f"x{i}", Fraction(100 + idx))
                for idx, i in enumerate(S):
                    dec[i] = TimedObservable(f"x{i}", Fraction(idx))
                res.bump(
                    "generalized-retarded-support",
                    generalized_T(d, dec).is_zero(),
                    cell,
                    f"{S}|{T}",
                )

    # reverse products invert the products under convolution
    for m in range(1, min(n, 3) + 1):
        ground = canonical_set(m)
        dec = {i: TimedObservable(f"x{i}", Fraction(i)) for i in ground}
        for F in compositions_of(ground):
            products = (
                word_product(
                    generalized_T(basis_elem(restrict(F, S), H), {i: dec[i] for i in S}),
                    reverse_T(basis_elem(restrict(F, T), H), {i: dec[i] for i in T}),
                )
                for S, T in ordered_splits(ground)
            )
            res.bump("reverse-product-inverse", not lincomb_sum(products), F)

    # GLZ at the evaluated level
    for m in range(2, min(n, 3) + 1):
        ground = canonical_set(m)
        dec = {i: TimedObservable(f"x{i}", Fraction(i * i + 1)) for i in ground}
        for i1 in ground:
            for i2 in ground:
                if i1 == i2:
                    continue
                lhs = generalized_T(
                    total_retarded_dynkin(ground, i1) - total_retarded_dynkin(ground, i2), dec
                )
                acc = lincomb_sum(
                    generalized_T(
                        commutator(total_retarded_dynkin(S, i1), total_retarded_dynkin(T, i2)), dec
                    )
                    for S, T in proper_splits(ground)
                    if i1 in S and i2 in T
                )
                res.bump("glz-evaluated", lhs == acc, f"{i1},{i2}")

    # generating function factorization and Bogoliubov at the stated order
    a_obs = TimedObservable("a", Fraction(1))
    s_obs = TimedObservable("s", Fraction(0))
    res.bump("z-factorization", z_factorization_check(a_obs, s_obs, order))
    res.bump("bogoliubov", bogoliubov_check(a_obs, s_obs, order))
    return res


# ---------------------------------------------------------------------------
# Tits algebra checks (exercised by `hopf check` and the unit tests)


def _basis_index(x, index: dict):
    """index[F] when x is H_F with coefficient 1, else None."""
    if len(x.lc) != 1:
        return None
    ((F, c),) = x.lc
    return index.get(F) if c == 1 else None


def tits_suite(n: int = 3, seed: int = 11) -> SuiteResult:
    check_size("tits suite", n)  # below the compositions bound, so the spot checks one size up pass
    res = SuiteResult("tits")
    rng = random.Random(seed)
    for m in range(1, n + 1):
        ground = canonical_set(m)
        comps = compositions_of(ground)
        index = {F: i for i, F in enumerate(comps)}
        basis = sigma_basis(ground)
        # H_F |> H_G and the Hopf power of F on H_G, once per pair, as the index of
        # the basis element each equals, or None; a law through a None fails
        T = [[_basis_index(tits(a, b), index) for b in basis] for a in basis]
        P = [[_basis_index(hopf_power(F, b), index) for b in basis] for F in comps]
        u = _basis_index(tits_unit(ground), index)
        B = range(len(comps))
        for a, F in enumerate(comps):
            res.bump("tits-unit", T[u][a] == a and T[a][u] == a)
            res.bump("tits-idempotent", T[a][a] == a, F)
        for a, b, c in itertools.product(B, repeat=3):
            ab, bc = T[a][b], T[b][c]
            ok = ab is not None and bc is not None and T[ab][c] == T[a][bc] is not None
            res.bump("tits-associativity", ok)
        for a, b in itertools.product(B, repeat=2):
            res.bump("tits-vs-hopf-power", T[a][b] == P[a][b] is not None)
        for a, b, c in itertools.product(B, repeat=3):
            ab, bc = T[a][b], P[b][c]
            ok = ab is not None and bc is not None and P[a][bc] == P[ab][c] is not None
            res.bump("tits-action-compat", ok)
    # randomized spot checks one size up
    ground = canonical_set(n + 1)
    comps = compositions_of(ground)
    tag = f"-n{n + 1}"
    for _ in range(25):
        F = comps[rng.randrange(len(comps))]
        G = comps[rng.randrange(len(comps))]
        K = comps[rng.randrange(len(comps))]
        a, b, c = basis_elem(F, H), basis_elem(G, H), basis_elem(K, H)
        res.bump("tits-associativity" + tag, tits(tits(a, b), c) == tits(a, tits(b, c)))
        res.bump("tits-vs-hopf-power" + tag, tits(a, b) == hopf_power(F, b))
    for F in comps:
        a = basis_elem(F, H)
        res.bump("tits-idempotent" + tag, tits(a, a) == a)
    # proper Hopf powers annihilate primitives
    for m in range(2, n + 1):
        for p in primitive_part_basis(m):
            for F in compositions_of(canonical_set(m)):
                if len(F) >= 2:
                    res.bump("hopf-power-kills-primitive", hopf_power(F, p).is_zero())
    return res

