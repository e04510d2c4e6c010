import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sethopf.causal import (
    CausalModel,
    TimedObservable,
    bogoliubov_check,
    bogoliubov_extract,
    causal_factorization_check,
    generalized_T,
    generating_function,
    interacting_observable,
    respects,
    retarded_product,
    reverse_T,
    smatrix,
    time_ordered,
    z_factorization_check,
)
from sethopf.cells import dynkin, enumerate_cells
from sethopf.compositions import canonical_set, comp, compositions_of, ordered_splits, proper_splits, restrict
from sethopf.errors import DomainError
from sethopf.hopf import antipode, basis_elem, h_elem, sigma_basis
from sethopf.scalars import QI
from sethopf.lincomb import LinComb
from sethopf.series import TruncSeries, word_product

A0 = TimedObservable("a", 0)
B1 = TimedObservable("b", 1)
C2 = TimedObservable("c", 2)


def word(*ids):
    return LinComb.single(ids, 1)


class TestTimeOrdered:
    def test_spec_examples(self):
        assert time_ordered([A0]) == word("a")
        assert time_ordered([A0, B1]) == word("b", "a")
        assert time_ordered([A0, B1, C2]) == word("c", "b", "a")

    def test_symmetric(self):
        for perm in itertools.permutations([A0, B1, C2]):
            assert time_ordered(list(perm)) == time_ordered([A0, B1, C2])

    def test_tie_break_by_id(self):
        x = TimedObservable("x", 1)
        y = TimedObservable("y", 1)
        assert time_ordered([y, x]) == word("x", "y")


class TestGeneralizedT:
    def test_spec_examples(self):
        dec = {1: A0, 2: B1}
        assert generalized_T(h_elem((1,), (2,)), dec) == word("a", "b")
        assert generalized_T(h_elem((1, 2)), dec) == word("b", "a")
        # the antipode image evaluates to the reversed product
        assert generalized_T(antipode(h_elem((1, 2))), dec) == word("a", "b")

    def test_reverse_T(self):
        dec = {1: A0, 2: B1}
        assert reverse_T(h_elem((1, 2)), dec) == word("a", "b")


class TestRespects:
    def test_spec_examples(self):
        dec = {1: A0, 2: B1}
        assert respects(dec, comp((2,), (1,)))
        assert not respects(dec, comp((1,), (2,)))
        assert respects(dec, comp((1, 2)))

    def test_three_lumps(self):
        dec = {1: A0, 2: B1, 3: C2}
        assert respects(dec, comp((3,), (2,), (1,)))
        assert not respects(dec, comp((3,), (1,), (2,)))


class TestCausalFactorization:
    def test_spec_example(self):
        dec = {1: A0, 2: B1}
        assert causal_factorization_check(h_elem((1, 2)), comp((2,), (1,)), dec)

    def test_precondition(self):
        dec = {1: A0, 2: B1}
        with pytest.raises(DomainError):
            causal_factorization_check(h_elem((1, 2)), comp((1,), (2,)), dec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_all_time_orders(self, n):
        ground = canonical_set(n)
        for perm in itertools.permutations(range(n)):
            dec = {i: TimedObservable(f"x{i}", Fraction(perm[i - 1])) for i in ground}
            for G in compositions_of(ground):
                if not respects(dec, G):
                    continue
                for x in sigma_basis(ground):
                    assert causal_factorization_check(x, G, dec)

    def test_exhaustive_n4_canonical_times(self):
        ground = canonical_set(4)
        dec = {i: TimedObservable(f"x{i}", Fraction(i)) for i in ground}
        for G in compositions_of(ground):
            if not respects(dec, G):
                continue
            for x in sigma_basis(ground):
                assert causal_factorization_check(x, G, dec)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=16),
            min_size=4, max_size=4, unique=True,
        )
    )
    def test_randomized_times_n4(self, times):
        ground = canonical_set(4)
        dec = {i: TimedObservable(f"x{i}", times[i - 1]) for i in ground}
        import random

        rng = random.Random(hash(tuple(times)) & 0xFFFF)
        comps = compositions_of(ground)
        # a random linear combination against every respected split
        from sethopf.hopf import SigmaElem
        from sethopf.lincomb import LinComb

        terms = {comps[rng.randrange(len(comps))]: QI(rng.randint(-3, 3)) for _ in range(4)}
        x = SigmaElem(ground, LinComb(terms), "H")
        for S, T in proper_splits(ground):
            G = comp(S, T)
            if respects(dec, G):
                assert causal_factorization_check(x, G, dec)


class TestRetardedProduct:
    def test_commutator_shape(self):
        s = TimedObservable("s", Fraction(-1))
        got = retarded_product({-1: s}, {1: A0})
        assert got == word("a", "s") - word("s", "a")

    def test_support_vanishing(self):
        s_late = TimedObservable("s", Fraction(10))
        assert retarded_product({-1: s_late}, {1: A0}).is_zero()

    def test_empty_interactions(self):
        assert retarded_product({}, {1: A0, 2: B1}) == time_ordered([A0, B1])

    def test_support_vanishing_two_stars(self):
        s1 = TimedObservable("s1", Fraction(10))
        s2 = TimedObservable("s2", Fraction(11))
        assert retarded_product({-1: s1, -2: s2}, {1: A0, 2: B1}).is_zero()

    def test_generalized_support_via_cells(self):
        for n in (2, 3):
            ground = canonical_set(n)
            for cell in enumerate_cells(ground):
                d = dynkin(cell)
                for S, T in cell.channels():
                    dec = {}
                    for k, i in enumerate(T):
                        dec[i] = TimedObservable(f"x{i}", Fraction(100 + k))
                    for k, i in enumerate(S):
                        dec[i] = TimedObservable(f"x{i}", Fraction(k))
                    assert generalized_T(d, dec).is_zero()


class TestInteracting:
    def test_order_zero(self):
        s = TimedObservable("s", Fraction(-1))
        got = interacting_observable(A0, s, 0)
        assert got == TruncSeries(0, {(0, 0): word("a")})

    def test_order_one_commutator(self):
        s = TimedObservable("s", Fraction(-1))
        got = interacting_observable(A0, s, 1)
        com = word("a", "s") - word("s", "a")
        assert got.coeff(1, 0) == com  # at coupling 1

    def test_order_one_support(self):
        s_late = TimedObservable("s", Fraction(10))
        got = interacting_observable(A0, s_late, 1)
        assert got.coeff(1, 0).is_zero()


class TestGeneratingFunction:
    def test_g0_is_smatrix(self):
        s = TimedObservable("s", Fraction(-1))
        z = generating_function(A0, s, 2)
        assert z.at_g_zero() == smatrix(A0, 2)

    def test_factorization_order2(self):
        s = TimedObservable("s", Fraction(-1))
        assert z_factorization_check(A0, s, 2)

    @pytest.mark.heavy
    def test_factorization_order3(self):
        s = TimedObservable("s", Fraction(-1))
        assert z_factorization_check(A0, s, 3)

    def test_bogoliubov_order2(self):
        s = TimedObservable("s", Fraction(-1))
        assert bogoliubov_check(A0, s, 2)
        lhs = bogoliubov_extract(A0, s, 2)
        rhs = interacting_observable(A0, s, 1)
        assert lhs == rhs

    def test_bogoliubov_needs_order_one(self):
        # at order 0 the generating function has no j-term to extract
        s = TimedObservable("s", Fraction(-1))
        for order in (0, -1):
            with pytest.raises(DomainError, match="order >= 1"):
                bogoliubov_extract(A0, s, order)
            with pytest.raises(DomainError, match="order >= 1"):
                bogoliubov_check(A0, s, order)
        assert bogoliubov_check(A0, s, 1)
        assert bogoliubov_extract(A0, s, 1) == interacting_observable(A0, s, 0)

    def test_bogoliubov_detects_a_wrong_split_sum(self, monkeypatch):
        # the interacting series is evaluated from the split form at n = 1;
        # the extraction must not be, or a wrong split form would agree with
        # itself
        from sethopf import causal

        real = causal._split_form

        def doubled_at_one(r, n, advanced, reverse):
            form = real(r, n, advanced, reverse)
            return form.scale(2) if n == 1 else form

        monkeypatch.setattr(causal, "_split_form", doubled_at_one)
        s = TimedObservable("s", Fraction(-1))
        assert not bogoliubov_check(A0, s, 2)

    def test_reverse_product_inverse(self):
        for n in (1, 2, 3):
            ground = canonical_set(n)
            dec = {i: TimedObservable(f"x{i}", Fraction(i)) for i in ground}
            for F in compositions_of(ground):
                acc = LinComb()
                for S, T in ordered_splits(ground):
                    left = generalized_T(basis_elem(restrict(F, S)), {i: dec[i] for i in S})
                    right = reverse_T(basis_elem(restrict(F, T)), {i: dec[i] for i in T})
                    acc = acc + word_product(left, right)
                assert acc.is_zero()


class TestModel:
    def test_model_accessors(self):
        m = CausalModel([A0, B1, TimedObservable("s", Fraction(-1))], "s")
        assert m.interaction_observable.id == "s"
        assert m.first_field_observable() == A0

    def test_model_validation(self):
        with pytest.raises(DomainError):
            CausalModel([A0], "missing")
        with pytest.raises(DomainError):
            CausalModel([A0, TimedObservable("a", 5)], "a")
