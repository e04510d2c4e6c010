import pytest

from sethopf.arrows import (
    _split_sum,
    advanced_element,
    arrow_cell_down,
    arrow_cell_up,
    arrow_down,
    arrow_down_single,
    arrow_up,
    arrow_up_single,
    retarded_element,
    u_ab,
)
from sethopf.cells import Cell, commutator, dynkin, enumerate_cells, is_cell, total_retarded_dynkin
from sethopf.compositions import canonical_set, compositions_of, labelset, one_lump

from sethopf.errors import DomainError
from sethopf.hopf import H, antipode, basis_elem, h_elem, is_primitive, mu, sigma_basis, unit_elem
from sethopf.scalars import QI


class TestUab:
    def test_retarded_generator(self):
        assert u_ab(1, 0, -1, h_elem((1,))) == -h_elem((-1,), (1,)) + h_elem((-1, 1))

    def test_advanced_generator(self):
        assert u_ab(0, 1, -1, h_elem((1,))) == h_elem((-1, 1)) - h_elem((1,), (-1,))

    def test_two_lump_expansion(self):
        got = u_ab(1, 0, -1, h_elem((1,), (2,)))
        expected = (
            -h_elem((-1,), (1,), (2,))
            + h_elem((-1, 1), (2,))
            - h_elem((1,), (-1,), (2,))
            + h_elem((1,), (-1, 2))
        )
        assert got == expected

    def test_kills_unit(self):
        assert u_ab(1, 0, -1, unit_elem()).is_zero()

    def test_star_clash(self):
        with pytest.raises(DomainError):
            u_ab(1, 0, 1, h_elem((1,)))


class TestArrows:
    def test_empty_is_identity(self):
        x = h_elem((1, 2))
        assert arrow_down((), x) == x
        assert arrow_up((), x) == x

    def test_single_spec_instance(self):
        got = arrow_down((-1,), h_elem((1, 2)))
        assert got == -h_elem((-1,), (1, 2)) + h_elem((-1, 1, 2))

    def test_double_equals_retarded_element(self):
        assert arrow_down((-2, -1), h_elem((1,))) == retarded_element((-2, -1), (1,))
        assert arrow_up((-2, -1), h_elem((1,))) == advanced_element((-2, -1), (1,))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_order_independence(self, n):
        for a in sigma_basis(canonical_set(n)):
            assert arrow_down_single(-2, arrow_down_single(-1, a)) == arrow_down_single(
                -1, arrow_down_single(-2, a)
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_updown_commutator_identity(self, n):
        star = -1
        for a in sigma_basis(canonical_set(n)):
            diff = arrow_up_single(star, a) - arrow_down_single(star, a)
            assert diff == commutator(h_elem((star,)), a)

    def test_primitivity_preserved(self):
        from sethopf.hopf import primitive_part_basis

        for n in (1, 2, 3):
            for p in primitive_part_basis(n):
                assert is_primitive(arrow_down_single(-1, p))

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            arrow_down((1,), h_elem((1, 2)))


# The split sums of the retarded, advanced and reverse elements, each as its
# own loop over the splits Y1 | Y2 of Y, kept as references.


def subsets(Y):
    out = [()]
    for y in Y:
        out += [s + (y,) for s in out]
    return out


def lump(labels):
    return basis_elem(one_lump(labels), H) if labels else unit_elem(H)


def loop_retarded(Y, I):
    out = None
    for Y1 in subsets(Y):
        Y2 = tuple(sorted(set(Y) - set(Y1)))
        term = mu(antipode(lump(Y1)), lump(tuple(sorted(Y2 + I))))
        out = term if out is None else out + term
    return out


def loop_advanced(Y, I):
    out = None
    for Y1 in subsets(Y):
        Y2 = tuple(sorted(set(Y) - set(Y1)))
        term = mu(lump(tuple(sorted(Y1 + I))), antipode(lump(Y2)))
        out = term if out is None else out + term
    return out


def loop_reverse(Y, mirror):
    out = None
    for Y1 in subsets(Y):
        Y2 = tuple(sorted(set(Y) - set(Y1)))
        if mirror:
            term = mu(lump(Y1), antipode(lump(Y2)))
        else:
            term = mu(antipode(lump(Y1)), lump(Y2))
        out = term if out is None else out + term
    return out if out is not None else unit_elem(H)


class TestRetardedAdvanced:
    def test_spec_examples(self):
        assert retarded_element((-1,), (1,)) == h_elem((-1, 1)) - h_elem((-1,), (1,))
        assert advanced_element((-1,), (1,)) == h_elem((-1, 1)) - h_elem((1,), (-1,))
        assert retarded_element((1,), (2,)) == total_retarded_dynkin((1, 2), 2)

    def test_empty_interaction_set(self):
        assert retarded_element((), (1, 2)) == h_elem((1, 2))

    def test_reverse_convolution_vanishes(self):
        # the split sum with no observable labels, the j^0 column of the generating
        # function, whose shape form series._split_form cancels to the unit
        assert _split_sum((), (), advanced=False) == unit_elem()
        assert _split_sum((-1,), (), advanced=False).is_zero()
        assert _split_sum((-2, -1), (), advanced=False).is_zero()
        assert _split_sum((-1,), (), advanced=True).is_zero()

    def test_preconditions(self):
        with pytest.raises(DomainError):
            retarded_element((1,), (1, 2))
        with pytest.raises(DomainError):
            retarded_element((-1,), ())
        with pytest.raises(DomainError, match="disjoint"):
            advanced_element((1,), (1, 2))
        with pytest.raises(DomainError, match="nonempty"):
            advanced_element((-1,), ())

    @pytest.mark.parametrize("Y", subsets((-3, -2, -1)))
    def test_equal_the_split_loops(self, Y):
        # the one split sum against the three loops it replaced, in value and
        # in key order: subsets() lists the splits in position-mask order
        pairs = [(_split_sum(labelset(Y), (), advanced=m), loop_reverse(Y, m)) for m in (False, True)]
        for I in subsets((1, 2, 3))[1:]:
            pairs += [(retarded_element(Y, I), loop_retarded(Y, I))]
            pairs += [(advanced_element(Y, I), loop_advanced(Y, I))]
        for got, want in pairs:
            assert got == want
            assert list(got.lc.keys()) == list(want.lc.keys())


class TestCellArrows:
    def test_n1_spec_example(self):
        c = Cell((1,), [])
        down = arrow_cell_down((-1,), c)
        assert down.positive == frozenset({(1,)})  # the channel ({1}, {*})
        up = arrow_cell_up((-1,), c)
        assert up.positive == frozenset({(-1,)})

    def test_empty_arrow(self):
        c = Cell((1, 2), [(1,)])
        assert arrow_cell_down((), c) == c

    def test_results_are_cells(self):
        for c in enumerate_cells(canonical_set(2)):
            out = arrow_cell_down((-1,), c)
            ok, _ = is_cell(out.ground, out.positive)
            assert ok
            assert out.positive in {c2.positive for c2 in enumerate_cells(out.ground)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dynkin_compatibility(self, n):
        for c in enumerate_cells(canonical_set(n)):
            d = dynkin(c)
            for Y in ((-1,), (-2, -1)):
                assert arrow_down(Y, d) == dynkin(arrow_cell_down(Y, c))
                assert arrow_up(Y, d) == dynkin(arrow_cell_up(Y, c))


class TestBiderivation:
    def test_derivation_law(self):
        a, b = QI(3), QI(-2)
        x, y = h_elem((1, 2)), h_elem((3,))
        from sethopf.hopf import mu

        lhs = u_ab(a, b, -1, mu(x, y))
        rhs = mu(u_ab(a, b, -1, x), y) + mu(x, u_ab(a, b, -1, y))
        assert lhs == rhs

    def test_coderivation_law(self):
        from sethopf.compositions import restrict
        from sethopf.hopf import delta_split
        from sethopf.lincomb import LinComb

        a, b = QI(1), QI(2)
        for F in compositions_of(canonical_set(3)):
            x = basis_elem(F)
            ux = u_ab(a, b, -1, x)
            for S, T in (((1,), (2, 3)), ((1, 3), (2,)), ((), (1, 2, 3))):
                got = delta_split(ux, tuple(sorted(S + (-1,))), T)
                left = u_ab(a, b, -1, basis_elem(restrict(F, S)))
                right = basis_elem(restrict(F, T))
                expected = {}
                for K, c in left.lc:
                    for G, e in right.lc:
                        expected[(K, G)] = c * e
                assert got == LinComb(expected)

    def test_factorized_expansion_single_star(self):
        # *down H_F = sum over which lump receives the star
        from sethopf.hopf import mu

        F = ((1,), (2, 3))
        got = arrow_down((-1,), h_elem(*F))
        expected = mu(retarded_element((-1,), (1,)), h_elem((2, 3))) + mu(
            h_elem((1,)), retarded_element((-1,), (2, 3))
        )
        assert got == expected
