import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sethopf import compositions as compositions_module
from sethopf.compositions import (
    Composition,
    EMPTY_COMPOSITION,
    canonical_set,
    coarsens,
    comp,
    compositions_of,
    concat,
    deshuffle,
    fubini,
    labelset,
    one_lump,
    opposite,
    quotient_stats,
    refinements,
    restrict,
    ordered_splits,
    set_partitions,
    subsets_by_mask,
    zie_dimension,
)
from sethopf.errors import DomainError, OrderError, SizeLimitError


def brute_force_count(n):
    """Independent oracle: Fubini recurrence a(n) = sum C(n,k) a(n-k)."""
    from math import comb

    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


class TestEnumeration:
    def test_empty_set(self):
        assert list(compositions_of(())) == [EMPTY_COMPOSITION]

    def test_two_elements(self):
        got = compositions_of((1, 2))
        assert len(got) == 3
        assert got[0] == comp((1, 2))
        assert set(got) == {comp((1, 2)), comp((1,), (2,)), comp((2,), (1,))}

    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75), (5, 541)])
    def test_fubini_counts(self, n, count):
        assert fubini(n) == brute_force_count(n) == count
        assert len(compositions_of(canonical_set(n))) == count

    def test_no_duplicates_deterministic(self):
        got = compositions_of((1, 2, 3))
        assert len(set(got)) == 13
        assert list(got) == sorted(got, key=Composition.sort_key)

    def test_bound(self):
        with pytest.raises(SizeLimitError):
            compositions_of(tuple(range(1, 10)))

    def test_invalid_compositions(self):
        with pytest.raises(DomainError):
            Composition(((1,), ()))
        with pytest.raises(DomainError):
            Composition(((1, 2), (2,)))
        with pytest.raises(DomainError):
            Composition(((1, 1), (2,)))
        with pytest.raises(DomainError):
            comp((3,), (3,))


class TestRestrict:
    def test_spec_examples(self):
        assert restrict(comp((1, 2), (3,)), (1, 3)) == comp((1,), (3,))
        assert restrict(comp((1,), (2,)), (2,)) == comp((2,))
        assert restrict(comp((1, 2), (3,)), ()) == EMPTY_COMPOSITION

    def test_full_ground_identity(self):
        for F in compositions_of((1, 2, 3)):
            assert restrict(F, F.ground) == F

    def test_not_subset(self):
        with pytest.raises(DomainError):
            restrict(comp((1, 2)), (3,))


class TestConcat:
    def test_spec_examples(self):
        assert concat(comp((1,)), comp((2,))) == comp((1,), (2,))
        assert concat(EMPTY_COMPOSITION, comp((1, 2))) == comp((1, 2))
        assert concat(comp((1, 3), (2,)), comp((4,))) == comp((1, 3), (2,), (4,))

    def test_associative_with_unit(self):
        a, b, c = comp((1,)), comp((2, 3)), comp((4,), (5,))
        assert concat(concat(a, b), c) == concat(a, concat(b, c))
        assert concat(a, EMPTY_COMPOSITION) == a
        assert concat(EMPTY_COMPOSITION, a) == a
        assert concat(a, b).ground == (1, 2, 3)

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            concat(comp((1,)), comp((1, 2)))


class TestCoarsens:
    def test_spec_examples(self):
        assert coarsens(comp((1, 2, 3)), comp((1, 2), (3,)))
        assert not coarsens(comp((1, 3), (2,)), comp((1,), (2,), (3,)))
        F = comp((1,), (2, 3))
        assert coarsens(F, F)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partial_order(self, n):
        comps = compositions_of(canonical_set(n))
        for F in comps:
            assert coarsens(F, F)
        for F, G in itertools.permutations(comps, 2):
            if coarsens(F, G) and coarsens(G, F):
                assert F == G
        for F, G, K in itertools.product(comps, repeat=3):
            if coarsens(F, G) and coarsens(G, K):
                assert coarsens(F, K)

    def test_ground_mismatch(self):
        with pytest.raises(DomainError):
            coarsens(comp((1,)), comp((2,)))


class TestQuotientStats:
    def test_spec_examples(self):
        assert quotient_stats(comp((1,), (2,), (3,)), comp((1, 2), (3,))) == (2, 2)
        F = comp((1, 2), (3,))
        assert quotient_stats(F, F) == (1, 1)
        assert quotient_stats(comp((1,), (2,), (3,)), comp((1, 2, 3))) == (3, 6)

    def test_order_error(self):
        with pytest.raises(OrderError):
            quotient_stats(comp((1, 2), (3,)), comp((1,), (2,), (3,)))


class TestOpposite:
    def test_spec_examples(self):
        assert opposite(comp((1,), (2,))) == comp((2,), (1,))
        assert opposite(comp((1, 2))) == comp((1, 2))
        assert opposite(comp((1, 3), (2,), (4,))) == comp((4,), (2,), (1, 3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution_and_order_compat(self, n):
        comps = compositions_of(canonical_set(n))
        for F in comps:
            assert opposite(opposite(F)) == F
        for F, G in itertools.product(comps, repeat=2):
            assert coarsens(G, F) == coarsens(opposite(G), opposite(F))


class TestDeshuffle:
    def test_spec_examples(self):
        assert deshuffle(comp((1,), (2,)), (2,)) == comp((2,))
        assert deshuffle(comp((1, 2), (3,)), (1,)) is None
        F = comp((1, 2), (3,))
        assert deshuffle(F, (1, 2, 3)) == F

    def test_noncontiguous_union(self):
        assert deshuffle(comp((1,), (2,), (3,)), (1, 3)) == comp((1,), (3,))

    def test_not_subset(self):
        with pytest.raises(DomainError):
            deshuffle(comp((1,)), (2,))


class TestRefinements:
    def test_counts(self):
        # refinements of the one-lump composition are all compositions
        assert len(list(refinements(comp((1, 2, 3))))) == 13
        assert len(list(refinements(comp((1,), (2,))))) == 1

    def test_all_refine(self):
        F = comp((1, 2), (3, 4))
        for G in refinements(F):
            assert coarsens(F, G)


class TestPartitions:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15)])
    def test_bell_counts(self, n, count):
        assert len(list(set_partitions(canonical_set(n)))) == count

    @pytest.mark.parametrize("n,dim", [(1, 1), (2, 2), (3, 6), (4, 26), (5, 150)])
    def test_zie_dimension_formula(self, n, dim):
        assert zie_dimension(n) == dim


@pytest.mark.parametrize("ground", [canonical_set(n) for n in range(5)] + [(-3, -1, 4, 9)])
def test_subsets_by_mask(ground):
    # entry m holds the labels at the set bits of m, sorted; ordered_splits
    # walks the masks in order, with T the complement of S
    def at(m, bit):
        return tuple(x for i, x in enumerate(ground) if (m >> i & 1) == bit)

    masks = range(1 << len(ground))
    assert subsets_by_mask(ground) == [at(m, 1) for m in masks]
    assert list(ordered_splits(ground)) == [(at(m, 1), at(m, 0)) for m in masks]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6, unique=True))
def test_labelset_sorted(labels):
    assert labelset(labels) == tuple(sorted(labels))


def assert_as_validated(K):
    """K is the one composition of its lumps, over the ground the validating
    constructor derives.  The constructor returns an interned composition
    unchecked, so the ground is recomputed here."""
    labels = [x for l in K.lumps for x in l]
    assert all(K.lumps) and K.ground == labelset(labels), K
    assert Composition(K.lumps) is K, K


def subsets(ground):
    return [S for r in range(len(ground) + 1) for S in itertools.combinations(ground, r)]


GROUNDS = [canonical_set(n) for n in range(5)] + [(-2, 3, 7), (-3, -1, 4, 9)]


class TestTrustedConstructions:
    """The operations build their results unchecked; each must be a valid composition."""

    def test_enumeration(self):
        for ground in GROUNDS:
            for F in compositions_of(ground):
                assert_as_validated(F)

    def test_restrict_and_deshuffle(self):
        for ground in GROUNDS:
            for F in compositions_of(ground):
                for S in subsets(ground):
                    assert_as_validated(restrict(F, S[::-1]))
                    K = deshuffle(F, S[::-1])
                    if K is not None:
                        assert_as_validated(K)

    def test_concat(self):
        # every (S, T) split in both orders, so ground(F) + ground(G) is often unsorted
        for ground in GROUNDS:
            for S in subsets(ground):
                T = tuple(x for x in ground if x not in S)
                for F in compositions_of(S):
                    for G in compositions_of(T):
                        assert_as_validated(concat(F, G))

    def test_concat_builds_what_it_interns(self):
        # labels no other test uses and only proper splits, so no other
        # constructor has interned these lumps and concat builds each result
        ground = (601, 602, 603, 604)
        for S in subsets(ground)[1:-1]:
            T = tuple(x for x in ground if x not in S)
            for F in compositions_of(S):
                for G in compositions_of(T):
                    assert_as_validated(concat(F, G))

    def test_opposite_and_refinements(self):
        for ground in GROUNDS:
            for F in compositions_of(ground):
                assert_as_validated(opposite(F))
                for G in refinements(F):
                    assert_as_validated(G)


class TestInterning:
    """One Composition per lump tuple, so equality is identity."""

    def test_one_object_per_lump_tuple(self):
        for ground in GROUNDS:
            for F in compositions_of(ground):
                assert Composition(F.lumps) is F
                assert Composition(F.lumps[::-1]) is opposite(F)
                assert Composition._of(F.lumps, F.ground) is F
                assert comp(*F.lumps) is F

    def test_generator_input(self):
        # the constructor consumes the outer iterable once; lumps may be iterators too
        F = Composition(((1, 3), (2,)))
        assert Composition(l for l in [(3, 1), (2,)]) is F
        assert Composition(iter(l) for l in [[3, 1], [2]]) is F
        assert Composition(x for x in ()) is EMPTY_COMPOSITION

    def test_rejected_input_interns_nothing(self):
        # labels no other test uses, so the valid composition is built here first
        size = len(compositions_module._interned)
        bad_inputs = [((101, 102), ()), ((), (101,)), ((101,), (102, 101)), ((101, 101), (102,)),
                      ((102.0,), (101,)), ((102,), (True,))]
        for bad in bad_inputs:
            with pytest.raises(DomainError):
                Composition(bad)
        assert len(compositions_module._interned) == size
        F = Composition(((102,), (101,)))
        assert (F.lumps, F.ground, len(F)) == (((102,), (101,)), (101, 102), 2)
        assert Composition([(102,), (101,)]) is F
        with pytest.raises(DomainError):  # equal to F's lumps, but not int labels
            Composition([(102.0,), (101,)])
        assert len(compositions_module._interned) == size + 1

    @pytest.mark.parametrize(
        "setup,call",
        [
            ("F = comp((1, 2), (3,))", "restrict(F, (1.0, 3))"),
            ("", "compositions_of((1.0, 9))"),
            ("lc = LinComb({comp((1,), (7,)): 1})", "SigmaElem((1.0, 7), lc)"),
            ("x = h_elem((1,), (2,))", "relabel(x, {1: 5.0, 2: 6})"),
        ],
        ids=["restrict", "compositions_of", "SigmaElem", "relabel"],
    )
    def test_float_label_interns_nothing(self, setup, call):
        # in a fresh interpreter, so that a float ground interned by the
        # call could not be met first by an earlier test's int lumps
        code = (
            "from sethopf.compositions import _interned, comp, compositions_of, restrict\n"
            "from sethopf.errors import DomainError\n"
            "from sethopf.hopf import SigmaElem, h_elem, relabel\n"
            "from sethopf.lincomb import LinComb\n"
            f"{setup}\n"
            "size = len(_interned)\n"
            "try:\n"
            f"    {call}\n"
            "    raised = False\n"
            "except DomainError:\n"
            "    raised = True\n"
            "print(raised, len(_interned) - size,"
            " all(type(x) is int for F in _interned.values() for x in F.ground))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True 0 True\n"

    def test_empty(self):
        assert EMPTY_COMPOSITION is Composition(())
        assert EMPTY_COMPOSITION is comp() is one_lump(())

    def test_immutable(self):
        F = comp((1, 2), (3,))
        for name in ("lumps", "ground", "other"):
            with pytest.raises(AttributeError):
                setattr(F, name, ())
        assert F.lumps == ((1, 2), (3,))
