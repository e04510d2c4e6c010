import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from sethopf.arrows import _split_sum
from sethopf.compositions import (
    Composition,
    canonical_set,
    compositions_of,
    one_lump,
    ordered_splits,
    proper_splits,
    star_labels,
)
from sethopf.errors import SIZE_BOUNDS, DomainError, SizeLimitError
from sethopf.hopf import (
    H,
    SigmaElem,
    _tensor,
    antipode,
    basis_elem,
    delta_split,
    h_elem,
    mu,
    q_elem,
    relabel,
    to_h,
    unit_elem,
)
from sethopf.lincomb import LinComb
from sethopf.scalars import QI
from sethopf.series import (
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
    reverse_exponential,
    series_antipode,
    shape_form,
    t_exponential,
    unit_series,
    universal_series,
    word_product,
)
from sethopf.causal import CAUSAL_SYSTEM, TimedObservable
from sethopf.verify import _random_invariant_series

UNIT = LinComb.single((), 1)


def word(ids, coeff=1):
    return LinComb.single(tuple(ids), coeff)


def _embedding(side):
    return {i + 1: x for i, x in enumerate(side)}


def relabel_convolve(s, t):
    """Reference: convolution that relabels each factor onto its split side,
    read back through ``shape_form``."""
    out = {}
    for n in range(s.max_n + 1):
        acc = None
        for S, T in ordered_splits(canonical_set(n)):
            left, right = s.term(len(S)), t.term(len(T))
            if left.is_zero() or right.is_zero():
                continue
            piece = mu(relabel(left, _embedding(S)), relabel(right, _embedding(T)))
            acc = piece if acc is None else acc + piece
        if acc is not None:
            out[n] = shape_form(acc)
    return SigmaSeries(out, s.max_n)


def relabel_is_group_like(s):
    """Reference: the group-like test through relabelled factors."""
    if s.term(0) != unit_elem():
        return False
    for n in range(1, s.max_n + 1):
        for S, T in proper_splits(canonical_set(n)):
            left = relabel(s.term(len(S)), _embedding(S))
            right = relabel(s.term(len(T)), _embedding(T))
            if delta_split(s.term(n), S, T) != _tensor(left, right):
                return False
    return True


def fold_eval_system(sys, x, dec):
    """Reference: the linear extension of the evaluator as a fold of ``+``."""
    out = LinComb()
    for F, c in x.lc:
        out = out + sys(F, dec).scale(c)
    return out


class TestSigmaSeries:
    def test_universal_series_terms(self):
        g = universal_series(QI(1), 3)
        assert g.term(2) == h_elem((1, 2))
        z = universal_series(QI(0), 3)
        assert z.term(0) == unit_elem() and z.term(1).is_zero()

    def test_invariance_validated(self):
        # the reader rejects a missing composition of a shape and a shape
        # with two coefficients; the constructor takes only lump shapes
        for bad in (h_elem((1,), (2,)), h_elem((1,), (2,)) + h_elem((2,), (1,)).scale(3)):
            with pytest.raises(DomainError):
                shape_form(bad)
        assert shape_form(h_elem((1,), (2,)) + h_elem((2,), (1,)) + h_elem((1, 2)).scale(5)) == LinComb(
            {(1, 1): 1, (2,): 5}
        )
        for form in ({(1,): 1}, {(2, 0): 1}, {(1, 1.0): 1}, {"11": 1}):
            with pytest.raises(DomainError):
                SigmaSeries({2: LinComb(form)}, 2)
        with pytest.raises(DomainError):
            SigmaSeries({3: LinComb({(3,): 1})}, 2)

    def test_zero_degrees_not_stored(self):
        z = universal_series(0, 3)
        assert z.terms == {0: UNIT}
        assert z == SigmaSeries({0: UNIT, 1: LinComb({(1,): 0}), 2: LinComb()}, 3)
        assert series_antipode(universal_series(QI(0), 2)) == unit_series(2)

    def test_antipode_composition(self):
        g = universal_series(QI(2), 3)
        sg = series_antipode(g)
        expected = antipode(h_elem((1, 2))).scale(QI(4))
        assert sg.term(2) == expected


def lumpings(labels, shape):
    """The lumps of each composition of the sorted labels with the given
    lump sizes: successive combinations."""
    if not shape:
        yield ()
        return
    for first in combinations(labels, shape[0]):
        rest = tuple(x for x in labels if x not in first)
        yield from ((first,) + tail for tail in lumpings(rest, shape[1:]))


def random_form(rng, n, sparse):
    """Random nonzero coefficients on every lump shape of n, or on at most two."""
    shapes = lump_shapes(n)
    if sparse:
        shapes = rng.sample(shapes, min(2, len(shapes)))
    return LinComb({a: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for a in shapes})


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("n", range(7))
def test_expansion_matches_the_successive_combinations(n, sparse):
    rng = random.Random(10 * n + sparse)
    for _ in range(3):
        form = random_form(rng, n, sparse)
        for ground in (canonical_set(n), tuple(range(3, 3 + n))):
            want = SigmaElem(ground, LinComb(
                {Composition(lumps): c for shape, c in form for lumps in lumpings(ground, shape)}
            ), H)
            if ground == canonical_set(n):
                assert SigmaSeries({n: form}, n).term(n) == want
            assert shape_form(want) == form


def test_expansion_is_bounded_by_the_compositions_entry():
    # term(n) enumerates the compositions of [n], so it checks their bound first
    n = SIZE_BOUNDS["compositions"] + 1
    with pytest.raises(SizeLimitError):
        universal_series(1, n).term(n)


class TestConvolve:
    def test_unit(self):
        g = universal_series(QI(Fraction(1, 2)), 4)
        assert convolve(unit_series(4), g) == g
        assert convolve(g, unit_series(4)) == g

    def test_degree_one_doubling(self):
        c = QI(3)
        g = universal_series(c, 2)
        assert convolve(g, g).term(1) == h_elem((1,)).scale(QI(6))

    def test_group_inverse(self):
        g = universal_series(QI(5), 4)
        assert convolve(g, series_antipode(g)) == unit_series(4)
        assert convolve(series_antipode(g), g) == unit_series(4)

    def test_truncation_mismatch(self):
        with pytest.raises(DomainError):
            convolve(unit_series(2), unit_series(3))

    @pytest.mark.parametrize("order", range(6))
    def test_equals_the_relabel_convolution(self, order):
        # and the series antipode equals the termwise antipode
        for seed in range(3):
            rng = random.Random(10 * seed + order)
            s, t = _random_invariant_series(rng, order), _random_invariant_series(rng, order)
            assert convolve(s, t) == relabel_convolve(s, t)
            sa = series_antipode(s)
            assert all(sa.term(n) == antipode(s.term(n)) for n in range(order + 1))

    @pytest.mark.parametrize("order", range(6))
    def test_random_series_draws_shapes_in_first_seen_order(self, order):
        # one draw per shape, in the order compositions_of meets the shapes
        got = _random_invariant_series(random.Random(order), order)
        rng = random.Random(order)
        for m in range(order + 1):
            drawn = {}
            for F in compositions_of(canonical_set(m)):
                shape = tuple(map(len, F.lumps))
                if shape not in drawn:
                    drawn[shape] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert got.terms.get(m, LinComb()) == LinComb(drawn)


class TestGroupLike:
    def test_universal_is_group_like(self):
        assert is_group_like(universal_series(QI(2), 3))

    def test_unit_is_group_like(self):
        assert is_group_like(unit_series(3))

    def test_primitive_series_is_not(self):
        s = SigmaSeries({n: shape_form(to_h(q_elem(canonical_set(n)))) for n in (1, 2)}, 2)
        assert not is_group_like(s)

    @pytest.mark.parametrize("order", range(6))
    def test_equals_the_relabel_test(self, order):
        g = universal_series(Fraction(2, 3), order)
        bent = SigmaSeries({n: f.scale(2) if n == order > 0 else f for n, f in g.terms.items()}, order)
        cases = [g, bent, unit_series(order)]
        for seed in range(3):
            rng = random.Random(100 + 10 * seed + order)
            drawn = [_random_invariant_series(rng, order) for _ in range(2)]
            cases += drawn + [convolve(unit_series(order), c) for c in drawn]
        for s in cases:
            assert is_group_like(s) == relabel_is_group_like(s)
        assert is_group_like(g) and is_group_like(bent) == (order < 2)


class TestEvalSystem:
    def test_polynomial_spec_example(self):
        sys = polynomial_system({"g1": Fraction(2), "g2": Fraction(3)})
        got = eval_system(sys, h_elem((1, 2)), {1: "g1", 2: "g2"})
        assert got == word((), Fraction(6))

    def test_unit(self):
        sys = polynomial_system({})
        assert eval_system(sys, unit_elem(), {}) == UNIT

    @pytest.mark.parametrize("values", [
        {"A": 2, "B": -3},
        {"A": Fraction(2, 3), "B": Fraction(-5, 7)},
        {"A": QI(1, 2), "B": QI(Fraction(1, 3), -1)},
        {"A": 3, "B": QI(0, -1)},
        {"A": QI(0, 1), "B": Fraction(-1, 3)},
        {"A": Fraction(1, 2), "B": 0},
    ])
    def test_polynomial_equals_the_per_label_lift(self, values):
        sys = polynomial_system(values)
        for n in range(4):
            dec = {l: "AB"[l % 2] for l in canonical_set(n)}
            lifted = 1
            for l in canonical_set(n):
                lifted = lifted * values[dec[l]]
            for F in compositions_of(canonical_set(n)):
                assert sys(F, dec) == word((), lifted)

    @pytest.mark.parametrize("n", range(5))
    def test_equals_the_fold_in_key_order(self, n):
        rng = random.Random(n)
        ground = canonical_set(n)
        poly = polynomial_system({"A": Fraction(2, 3), "B": QI(0, -1)})
        poly_dec = {l: "AB"[l % 2] for l in ground}
        causal_dec = {l: TimedObservable(f"x{l}", Fraction(rng.randint(0, 2))) for l in ground}
        for sys, dec in ((poly, poly_dec), (CAUSAL_SYSTEM, causal_dec)):
            for _ in range(4):
                x = SigmaElem(ground, LinComb({
                    F: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                    for F in compositions_of(ground) if rng.random() < 0.6
                }))
                got, want = eval_system(sys, x, dec), fold_eval_system(sys, x, dec)
                assert got == want
                assert list(got.keys()) == list(want.keys())

    def test_causal_word(self):
        a = TimedObservable("a", 0)
        b = TimedObservable("b", 1)
        got = eval_system(CAUSAL_SYSTEM, h_elem((1,), (2,)), {1: a, 2: b})
        assert got == word(("a", "b"))

    def test_missing_decoration(self):
        with pytest.raises(DomainError):
            eval_system(CAUSAL_SYSTEM, h_elem((1, 2)), {1: TimedObservable("a", 0)})

    def test_equivariance(self):
        # relabeling the element and the decoration together changes nothing
        from sethopf.hopf import relabel

        a = TimedObservable("a", 0)
        b = TimedObservable("b", 1)
        x = h_elem((1, 2), (3,))
        dec = {1: a, 2: b, 3: TimedObservable("c", 2)}
        sigma = {1: 3, 2: 1, 3: 2}
        moved = relabel(x, sigma)
        moved_dec = {sigma[i]: v for i, v in dec.items()}
        assert eval_system(CAUSAL_SYSTEM, x, dec) == eval_system(CAUSAL_SYSTEM, moved, moved_dec)


class TestHomomorphismCheck:
    def test_polynomial_true(self):
        sys = polynomial_system({"A": Fraction(2)})
        assert homomorphism_check(sys, 3, {1: "A", 2: "A", 3: "A"})

    def test_causal_true(self):
        dec = {i: TimedObservable(f"x{i}", i) for i in (1, 2, 3)}
        assert homomorphism_check(CAUSAL_SYSTEM, 3, dec)

    def test_broken_detected(self):
        def broken(F, dec):
            return UNIT if len(F.ground) <= 1 else LinComb()

        assert not homomorphism_check(broken, 2, {1: "A", 2: "A"})


class TestTExponential:
    def test_unit_series_constant_one(self):
        sys = polynomial_system({"A": Fraction(1)})
        assert t_exponential(sys, unit_series(3), "A", 3) == TruncSeries.unit(3)

    def test_classical_exponential(self):
        sys = polynomial_system({"A": Fraction(1)})
        s = t_exponential(sys, universal_series(QI(1), 6), "A", 6)
        for k in range(7):
            assert s.coeff(0, k) == word((), Fraction(1, factorial(k)))

    def test_homomorphism_law(self):
        sys = polynomial_system({"A": Fraction(2)})
        s = universal_series(QI(1), 4)
        t = universal_series(QI(3), 4)
        lhs = t_exponential(sys, convolve(s, t), "A", 4)
        rhs = t_exponential(sys, s, "A", 4) * t_exponential(sys, t, "A", 4)
        assert lhs == rhs

    def test_inverse(self):
        a = TimedObservable("a", 0)
        g = universal_series(Fraction(-1, 3), 3)
        sinv = t_exponential(CAUSAL_SYSTEM, series_antipode(g), a, 3)
        s = t_exponential(CAUSAL_SYSTEM, g, a, 3)
        assert s * sinv == TruncSeries.unit(3)
        assert sinv * s == TruncSeries.unit(3)


class TestTruncSeries:
    def test_multiplication_matches_naive_convolution(self):
        rng = random.Random(12)

        def rand_series(order):
            terms = {}
            for r in range(order + 1):
                for n in range(order + 1 - r):
                    coeff = Fraction(rng.randint(-3, 3))
                    if coeff:
                        terms[(r, n)] = word(("w",), coeff)
            return TruncSeries(order, terms)

        for _ in range(5):
            u = rand_series(3)
            v = rand_series(3)
            got = u * v
            # independent naive double loop
            expected = {}
            for (r1, n1), a in u.terms.items():
                for (r2, n2), b in v.terms.items():
                    if r1 + r2 + n1 + n2 <= 3:
                        key = (r1 + r2, n1 + n2)
                        expected[key] = expected.get(key, LinComb()) + word_product(a, b)
            assert got == TruncSeries(3, expected)

    def test_unit(self):
        u = TruncSeries.unit(2)
        x = TruncSeries(2, {(1, 1): word(("a",))})
        assert u * x == x

    def test_formal_diff(self):
        x = UNIT
        ts = TruncSeries(3, {(0, 1): x, (0, 2): x.scale(Fraction(1, 2)), (1, 0): x})
        d = formal_diff(ts, "j")
        assert d.coeff(0, 0) == x
        assert d.coeff(0, 1) == x
        assert d.coeff(1, 0).is_zero()
        dg = formal_diff(ts, "g")
        assert dg.coeff(0, 0) == x

    def test_order_guard(self):
        with pytest.raises(DomainError):
            TruncSeries(1, {(1, 1): UNIT})


class TestPerturbations:
    def test_coderivation_zero_coupling_slice(self):
        sys = polynomial_system({"A": Fraction(1), "S": Fraction(1)})
        got = perturb_coderivation(sys, QI(1), "S", "A", 3)
        assert got.at_g_zero() == t_exponential(sys, universal_series(QI(1), 3), "A", 3)

    def test_coderivation_matches_binomial_expansion(self):
        sys = polynomial_system({"A": Fraction(2), "S": Fraction(3)})
        got = perturb_coderivation(sys, QI(1), "S", "A", 3)
        # S(gS + jA) expanded by hand: coefficient of g^r j^n is
        # C(r+n, r)/(r+n)! * 3^r * 2^n = 3^r 2^n / (r! n!)
        for r in range(4):
            for n in range(4 - r):
                expected = Fraction(3**r * 2**n, factorial(r) * factorial(n))
                assert got.coeff(r, n) == word((), expected)

    def test_arrow_g0_slice(self):
        a = TimedObservable("a", 1)
        s = TimedObservable("s", 0)
        v = perturb_arrow(CAUSAL_SYSTEM, s, a, 2, "down")
        assert v.at_g_zero() == t_exponential(
            CAUSAL_SYSTEM, universal_series(1, 2), a, 2
        )

    def test_arrow_down_equals_factorized_product(self):
        a = TimedObservable("a", 1)
        s = TimedObservable("s", 0)
        v = perturb_arrow(CAUSAL_SYSTEM, s, a, 2, "down")
        sinv = reverse_exponential(CAUSAL_SYSTEM, 1, s, 2)
        stwo = perturb_coderivation(CAUSAL_SYSTEM, 1, s, a, 2)
        assert v == sinv * stwo

    def test_arrow_up_mirror(self):
        a = TimedObservable("a", 1)
        s = TimedObservable("s", 0)
        w = perturb_arrow(CAUSAL_SYSTEM, s, a, 2, "up")
        sinv = reverse_exponential(CAUSAL_SYSTEM, 1, s, 2)
        stwo = perturb_coderivation(CAUSAL_SYSTEM, 1, s, a, 2)
        assert w == stwo * sinv

    def test_exponential_splitting(self):
        sys = polynomial_system({"A": Fraction(2), "B": Fraction(5), "A+B": Fraction(7)})
        g = universal_series(QI(1), 4)
        lhs = t_exponential(sys, g, "A+B", 4)
        rhs = t_exponential(sys, g, "A", 4) * t_exponential(sys, g, "B", 4)
        assert lhs == rhs


class TestCouplingIsAGrading:
    """At coupling c the g^r j^n coefficient of a causal series is c^(r+n)
    times its coefficient at c = 1, so the series layer runs at c = 1 and
    the encoder applies c = 1/(i hbar)."""

    S_INT = TimedObservable("s", Fraction(-1))
    A = TimedObservable("a", 1)

    @staticmethod
    def assert_graded(at_c, at_one, c):
        assert at_one.terms and set(at_c.terms) == set(at_one.terms)
        for (r, n), v in at_one.terms.items():
            assert at_c.coeff(r, n) == v.scale(c ** (r + n)), (r, n)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("c", [2, Fraction(-1, 3)])
    def test_t_exponential(self, c, k):
        def at(c):
            return t_exponential(CAUSAL_SYSTEM, universal_series(c, k), self.A, k)

        self.assert_graded(at(c), at(1), c)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("c", [2, Fraction(-1, 3)])
    def test_perturb_coderivation(self, c, k):
        def at(c):
            return perturb_coderivation(CAUSAL_SYSTEM, c, self.S_INT, self.A, k)

        self.assert_graded(at(c), at(1), c)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("c", [2, Fraction(-1, 3)])
    def test_reverse_exponential(self, c, k):
        def at(c):
            return reverse_exponential(CAUSAL_SYSTEM, c, self.S_INT, k)

        self.assert_graded(at(c), at(1), c)


# The composition path, the oracle of the shape forms: each g^r j^n
# coefficient as an H-basis element over r stars and n labels, evaluated
# composition by composition through ``eval_system``.

SYSTEMS = {
    # (evaluator, S decoration, A decoration): the causal evaluator on the
    # two toy models of the CLI tests, and a polynomial one over Q(i)
    "causal-toy": (CAUSAL_SYSTEM, TimedObservable("s", 0), TimedObservable("a", 1)),
    "causal-later": (CAUSAL_SYSTEM, TimedObservable("s", 2), TimedObservable("a", Fraction(-1, 2))),
    "poly": (polynomial_system({"S": QI(Fraction(1, 2), -1), "A": Fraction(-3, 2)}), "S", "A"),
}

ORACLE_ORDER = 6


def reference_series(sys, element, columns, S_dec, A_dec, c, order):
    """sum g^r j^n c^(r+n) / (r! n!)  eval_system(element(r, n)) over the
    (r, n) in columns, each element over stars -r..-1 and labels 1..n."""
    terms = {}
    for r, n in columns:
        dec = {**dict.fromkeys(star_labels(r), S_dec), **dict.fromkeys(canonical_set(n), A_dec)}
        scal = c ** (r + n) * Fraction(1, factorial(r) * factorial(n))
        terms[(r, n)] = eval_system(sys, element(r, n), dec).scale(scal)
    return TruncSeries(order, terms)


def all_columns(order):
    return [(r, n) for r in range(order + 1) for n in range(order + 1 - r)]


@pytest.mark.parametrize("system", sorted(SYSTEMS))
class TestAgainstTheCompositionPath:
    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("order", [ORACLE_ORDER, pytest.param(8, marks=pytest.mark.heavy)])
    def test_perturb_arrow(self, system, order, direction):
        sys, S, A = SYSTEMS[system]
        want = reference_series(
            sys,
            lambda r, n: _split_sum(star_labels(r), canonical_set(n), advanced=direction == "up"),
            all_columns(order), S, A, 1, order,
        )
        assert perturb_arrow(sys, S, A, order, direction) == want

    @pytest.mark.parametrize("c", [1, Fraction(-2, 3)])
    def test_reverse_exponential(self, system, c):
        sys, S, _ = SYSTEMS[system]
        want = reference_series(
            sys,
            lambda r, n: antipode(basis_elem(one_lump(star_labels(r)), H)),
            [(r, 0) for r in range(ORACLE_ORDER + 1)], S, None, c, ORACLE_ORDER,
        )
        assert reverse_exponential(sys, c, S, ORACLE_ORDER) == want

    @pytest.mark.parametrize("c", [1, Fraction(-2, 3)])
    def test_perturb_coderivation(self, system, c):
        sys, S, A = SYSTEMS[system]
        want = reference_series(
            sys,
            lambda r, n: basis_elem(one_lump(star_labels(r) + canonical_set(n)), H),
            all_columns(ORACLE_ORDER), S, A, c, ORACLE_ORDER,
        )
        assert perturb_coderivation(sys, c, S, A, ORACLE_ORDER) == want

    @pytest.mark.parametrize("series", ["universal", "antipode", "random"])
    def test_t_exponential(self, system, series):
        sys, _, A = SYSTEMS[system]
        s = {
            "universal": universal_series(Fraction(3, 2), ORACLE_ORDER),
            "antipode": series_antipode(universal_series(1, ORACLE_ORDER)),
            "random": _random_invariant_series(random.Random(system), ORACLE_ORDER),
        }[series]
        want = reference_series(
            sys, lambda r, n: s.term(n), [(0, n) for n in range(ORACLE_ORDER + 1)], None, A, 1, ORACLE_ORDER
        )
        assert t_exponential(sys, s, A, ORACLE_ORDER) == want


def first_filling(shape):
    """The composition with the given (stars, labels) count per lump whose
    lumps take stars -r..-1, then labels 1..n, in order."""
    stars = iter(star_labels(sum(a for a, _ in shape)))
    labels = iter(canonical_set(sum(b for _, b in shape)))
    return Composition([[next(stars) for _ in range(a)] + [next(labels) for _ in range(b)] for a, b in shape])


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("size", range(6))
def test_every_filling_of_a_shape_gives_one_word(system, size):
    # the naturality the shape forms rest on: under a decoration constant
    # on the stars and on the labels, a composition evaluates to the word
    # of its two-coloured shape's first filling
    sys, S, A = SYSTEMS[system]
    for r in range(size + 1):
        stars, labels = star_labels(r), canonical_set(size - r)
        dec = {**dict.fromkeys(stars, S), **dict.fromkeys(labels, A)}
        for F in compositions_of(stars + labels):
            shape = tuple((sum(l < 0 for l in lump), sum(l > 0 for l in lump)) for lump in F.lumps)
            assert sys(F, dec) == sys(first_filling(shape), dec), F


@pytest.mark.parametrize("m", range(7))
def test_lump_shapes_in_first_seen_order(m):
    seen = []
    for F in compositions_of(canonical_set(m)):
        shape = tuple(map(len, F.lumps))
        if shape not in seen:
            seen.append(shape)
    assert lump_shapes(m) == seen
