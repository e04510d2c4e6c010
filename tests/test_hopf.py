import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sethopf import compositions as compositions_module
from sethopf.arrows import arrow_down_single, u_ab
from sethopf.cells import Tree, tree_to_primitive
from sethopf.compositions import (
    Composition,
    _compositions_cached,
    canonical_set,
    comp,
    compositions_of,
    deshuffle,
    labelset,
    ordered_splits,
    restrict,
    set_partitions,
)
from sethopf.errors import DomainError
from sethopf.hadamard import _tits_basis, hopf_power, tits
from sethopf.hopf import (
    _SplitTable,
    _delta_iterated,
    _split_table,
    H,
    Q,
    SigmaElem,
    antipode,
    basis_elem,
    delta_split,
    h_elem,
    is_primitive,
    mu,
    primitive_part_basis,
    q_elem,
    relabel,
    sigma_basis,
    takeuchi_antipode,
    to_h,
    to_q,
    unit_elem,
    zero_elem,
)
from sethopf.lincomb import LinComb
from sethopf.scalars import QI


class TestMu:
    def test_spec_examples(self):
        assert mu(h_elem((1,)), h_elem((2,))) == h_elem((1,), (2,))
        assert mu(unit_elem(), h_elem((1, 2))) == h_elem((1, 2))
        a = h_elem((1,)) + h_elem((1,)).scale(QI(0))
        assert mu(a, h_elem((2, 3))) == h_elem((1,), (2, 3))

    def test_bilinear(self):
        a = h_elem((1,)).scale(QI(2)) + h_elem((1,)).scale(QI(3))
        assert mu(a, h_elem((2,))) == h_elem((1,), (2,)).scale(QI(5))

    @pytest.mark.parametrize("basis", [H, Q])
    def test_unit_multiples(self, basis):
        # a factor over the empty ground is c times the unit: the product is
        # the other factor scaled by c, in both orders, with its own ground
        x = basis_elem(comp((2,), (1, 3)), basis, Fraction(-2, 3)) + basis_elem(comp((1, 2, 3)), basis, 5)
        for c in (1, 3, Fraction(1, 2), QI(0, 1)):
            u = unit_elem(basis).scale(c)
            for got in (mu(u, x), mu(x, u)):
                assert got == x.scale(c) and got.ground == x.ground and got.basis == basis
        assert mu(zero_elem((), basis), x) == zero_elem(x.ground, basis)
        assert mu(x, zero_elem((), basis)).is_zero()
        assert mu(unit_elem(basis).scale(3), unit_elem(basis).scale(QI(2))) == unit_elem(basis).scale(6)
        with pytest.raises(DomainError):
            mu(unit_elem(H), q_elem((1,)))

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            mu(h_elem((1,)), h_elem((1, 2)))

    def test_mixed_basis_rejected(self):
        with pytest.raises(DomainError):
            mu(h_elem((1,)), q_elem((2,)))


class TestDelta:
    def test_spec_examples(self):
        # H_(12,3) with S={1,3}, T={2} -> H_(1,3) (x) H_(2)
        got = delta_split(h_elem((1, 2), (3,)), (1, 3), (2,))
        assert got == LinComb({(comp((1,), (3,)), comp((2,))): QI(1)})
        # counital case
        from sethopf.compositions import EMPTY_COMPOSITION

        got = delta_split(h_elem((1, 2)), (), (1, 2))
        assert got == LinComb({(EMPTY_COMPOSITION, comp((1, 2))): QI(1)})
        # Q-basis deshuffle: {1} is not a union of lumps of (12,3)
        assert delta_split(q_elem((1, 2), (3,)), (1,), (2, 3)).is_zero()

    def test_q_delta_deshuffle_hit(self):
        got = delta_split(q_elem((1,), (2,)), (2,), (1,))
        assert got == LinComb({(comp((2,)), comp((1,))): QI(1)})

    def test_bad_split(self):
        with pytest.raises(DomainError):
            delta_split(h_elem((1, 2)), (1,), (1, 2))

    @pytest.mark.parametrize("ground", [canonical_set(n) for n in range(5)] + [(-3, 2, 5, 9)])
    @pytest.mark.parametrize("basis", [H, Q])
    def test_one_term_matches_definition(self, ground, basis):
        # an int coefficient is one row lookup, the others the scatter-add
        for F in compositions_of(ground):
            for c in (1, -3, Fraction(-2, 3), QI(Fraction(1, 3))):
                a = basis_elem(F, basis, c)
                for S, T in ordered_splits(ground):  # proper and improper
                    assert delta_split(a, S, T) == reference_delta_split(a, S, T)
                if type(c) is int:
                    assert a._split_form is None

    @pytest.mark.parametrize("basis", [H, Q])
    def test_one_term_non_real_rejected(self, basis):
        ground = (1, 2, 3)
        for F in compositions_of(ground):
            for c in (QI(0, 2), QI(1, 1)):
                a = basis_elem(F, basis, c)
                for S, T in ordered_splits(ground):
                    with pytest.raises(DomainError):
                        delta_split(a, S, T)


def reference_delta_split(a, S, T):
    """Delta_{S,T}(a) straight from the definition, one term at a time."""
    terms = {}
    for F, c in a.lc:
        if a.basis == H:
            key = (restrict(F, S), restrict(F, T))
        else:
            key = (deshuffle(F, S), deshuffle(F, T))
            if None in key:
                continue
        terms[key] = terms.get(key, QI(0)) + c
    return LinComb(terms)


# Small values make cancellations between terms likely.
COEFFS = (
    QI(1), QI(-1), QI(Fraction(1, 2)), QI(Fraction(-2, 3)),
    QI(0, 1), QI(Fraction(1, 3), -1), QI(1, Fraction(-1, 4)),
)


def random_elem(rng, ground, basis, nterms):
    comps = compositions_of(ground)
    terms = {comps[rng.randrange(len(comps))]: rng.choice(COEFFS[:4]) for _ in range(nterms)}
    return SigmaElem(ground, LinComb(terms), basis)


def reference_split_row(ground, F, basis, ids, pairs):
    """The row of F in a basis, built on label tuples, one mask at a time.

    Pairs are interned in ids, keyed by their (left lumps, right lumps) as
    label tuples, and appended to pairs in first-seen order, as the split
    table must do on lump bitmasks.
    """
    bit = {x: 1 << i for i, x in enumerate(ground)}
    lumps = [(l, sum(bit[x] for x in l)) for l in F.lumps]
    row = []
    for m in range(1 << len(ground)):
        if basis == H:
            left = tuple(p for l, _ in lumps if (p := tuple(x for x in l if bit[x] & m)))
            right = tuple(p for l, _ in lumps if (p := tuple(x for x in l if not bit[x] & m)))
        elif all(lm & m in (0, lm) for _, lm in lumps):
            left = tuple(l for l, lm in lumps if lm & m)
            right = tuple(l for l, lm in lumps if not lm & m)
        else:
            row.append(-1)
            continue
        if (left, right) not in ids:
            ids[(left, right)] = len(pairs)
            pairs.append((Composition(left), Composition(right)))
        row.append(ids[(left, right)])
    return tuple(row)


SPLIT_GROUNDS = [canonical_set(n) for n in range(6)] + [(-3, 2, 5, 9), (-2, -1, 1, 2), (3, 7, 11, 20)]


class TestSplitTable:
    @pytest.mark.parametrize("ground", SPLIT_GROUNDS)
    @pytest.mark.parametrize("order", [(H, Q), (Q, H)])
    def test_rows_and_pairs_match_reference(self, ground, order):
        table = _SplitTable(ground)  # fresh, not the cached table
        ids, pairs = {}, []
        for basis in order:
            for F in compositions_of(ground):
                assert table.row(F, basis) == reference_split_row(ground, F, basis, ids, pairs)
        assert len(table.pairs) == len(pairs)
        for pid, (RL, RR) in enumerate(pairs):
            L, R = table.pair(pid)
            assert (L.lumps, L.ground, R.lumps, R.ground) == (RL.lumps, RL.ground, RR.lumps, RR.ground)

    @pytest.mark.parametrize("ground", SPLIT_GROUNDS)
    def test_h_row_of_the_complement_is_the_swapped_pair(self, ground):
        # an H row shares each restriction: the term of T = full - m is (F|T, F|S)
        table = _SplitTable(ground)
        for F in compositions_of(ground):
            row = table.row(F, H)
            for m in range(table.full + 1):
                left, right = table.pair(row[m])
                assert table.pair(row[table.full - m]) == (right, left)
                assert left.ground == table.labels[m] and right.ground == table.labels[table.full - m]

    def test_masks_are_the_lump_bitmasks(self):
        ground = (-3, 2, 5, 9)
        table = _SplitTable(ground)
        for F in compositions_of(ground):
            assert table.masks(F) == tuple(sum(1 << ground.index(x) for x in l) for l in F.lumps)
            assert table.masks(F) is table.masks(F)  # computed once per composition

    def test_primitivity_check_builds_no_composition(self):
        # every split of a Dynkin element cancels, so no pair is output and
        # none is built, even on a ground whose split table is new
        from sethopf.cells import dynkin, enumerate_cells

        ground = (-3, 2, 5, 9, 11)
        d = dynkin(enumerate_cells(ground)[7])
        size = len(compositions_module._interned)
        assert is_primitive(d)
        assert len(compositions_module._interned) == size
        assert _split_table(ground).pairs and not any(_split_table(ground).pairs)

    @pytest.mark.parametrize("ground", [(), (4,), (-3, 2, 5, 9)])
    def test_labels_of_each_mask(self, ground):
        labels = _SplitTable(ground).labels
        assert len(labels) == 1 << len(ground)
        for m, got in enumerate(labels):
            assert got == tuple(x for i, x in enumerate(ground) if m >> i & 1)

    @pytest.mark.parametrize("ground", [(1, 2, 3, 4), (3, 7, 11, 20), (-2, -1, 1, 2), (2, 5)])
    @pytest.mark.parametrize("basis", [H, Q])
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_matches_definition(self, ground, basis, complex_coeffs):
        import random

        if complex_coeffs:
            # splits are over Q: a complex coefficient is rejected
            comps = compositions_of(ground)
            for c in COEFFS[4:]:
                a = SigmaElem(ground, LinComb({comps[0]: QI(1), comps[-1]: c}), basis)
                with pytest.raises(DomainError):
                    is_primitive(a)
                for S, T in ordered_splits(ground):
                    with pytest.raises(DomainError):
                        delta_split(a, S, T)
            return
        rng = random.Random(f"{ground}{basis}{complex_coeffs}")
        for nterms in (1, 3, 12, 40):
            a = random_elem(rng, ground, basis, nterms)
            for S, T in ordered_splits(ground):  # proper and improper
                assert delta_split(a, S, T) == reference_delta_split(a, S, T)

    def test_cancelling_terms_give_zero(self):
        # H_(1,2) and H_(12) have the same proper splits, but not the improper ones
        a = h_elem((1,), (2,)) - h_elem((1, 2))
        assert delta_split(a, (1,), (2,)).is_zero()
        assert delta_split(a, (2,), (1,)).is_zero()
        expected = {(comp(), comp((1,), (2,))): QI(1), (comp(), comp((1, 2))): QI(-1)}
        assert delta_split(a, (), (1, 2)) == LinComb(expected)

    def test_empty_ground(self):
        pair = (comp(), comp())
        c = Fraction(-2, 3)
        assert delta_split(unit_elem(Q).scale(c), (), ()) == LinComb({pair: c})
        assert delta_split(zero_elem(()), (), ()).is_zero()
        with pytest.raises(DomainError):
            delta_split(unit_elem(Q).scale(QI(0, 2)), (), ())

    def test_sparse_element_over_large_ground(self):
        ground = canonical_set(7)
        S, T = (1, 2, 3), (4, 5, 6, 7)
        # [Q_(S), Q_(T)] is primitive; only its two terms need split rows
        a = q_elem(S, T) - q_elem(T, S)
        cached = _compositions_cached.cache_info().currsize
        assert is_primitive(a)
        assert not is_primitive(h_elem(S, T) - h_elem(T, S))
        assert _compositions_cached.cache_info().currsize == cached
        b = h_elem(S, T).scale(QI(Fraction(1, 3)))
        for U, V in ordered_splits(ground):
            assert delta_split(b, U, V) == reference_delta_split(b, U, V)


class TestAntipode:
    def test_singleton(self):
        assert antipode(h_elem((1,))) == -h_elem((1,))

    def test_two_singletons(self):
        # s(H_(1,2)) = H_(2,1): the only refinement of the reversal
        assert antipode(h_elem((1,), (2,))) == h_elem((2,), (1,))

    def test_one_lump(self):
        expected = -h_elem((1, 2)) + h_elem((1,), (2,)) + h_elem((2,), (1,))
        assert antipode(h_elem((1, 2))) == expected

    def test_unit_fixed(self):
        assert antipode(unit_elem()) == unit_elem()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.heavy)])
    def test_agrees_with_takeuchi(self, n):
        # element by element: the oracle for hopf_suite, which takes
        # Takeuchi's sum once per S_n orbit and relabels it
        for a in sigma_basis(canonical_set(n)):
            assert antipode(a) == takeuchi_antipode(a)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("antipode_of", [antipode, takeuchi_antipode])
    def test_commutes_with_relabelling(self, n, antipode_of):
        # every adjacent transposition, so every permutation of the labels:
        # what hopf_suite's orbit step relies on
        ground = canonical_set(n)
        for i in range(1, n):
            tau = {**dict(zip(ground, ground)), i: i + 1, i + 1: i}
            for a in sigma_basis(ground):
                assert antipode_of(relabel(a, tau)) == relabel(antipode_of(a), tau)

    def test_agrees_with_takeuchi_n5_spot(self):
        import random

        rng = random.Random(41)
        comps = compositions_of(canonical_set(5))
        for _ in range(3):
            a = basis_elem(comps[rng.randrange(len(comps))])
            assert antipode(a) == takeuchi_antipode(a)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_convolution_inverse(self, n):
        ground = canonical_set(n)
        from sethopf.compositions import ordered_splits

        for a in sigma_basis(ground):
            acc = zero_elem(ground)
            for S, T in ordered_splits(ground):
                for (x, y), c in delta_split(a, S, T):
                    acc = acc + mu(basis_elem(x), antipode(basis_elem(y))).scale(c)
            assert acc.is_zero()

    def test_q_basis_rejected(self):
        with pytest.raises(DomainError):
            antipode(q_elem((1,)))


class TestBasisChange:
    def test_q_in_h(self):
        expected = (
            h_elem((1, 2))
            + h_elem((1,), (2,)).scale(QI(Fraction(-1, 2)))
            + h_elem((2,), (1,)).scale(QI(Fraction(-1, 2)))
        )
        assert to_h(q_elem((1, 2))) == expected

    def test_finest_is_fixed(self):
        assert to_h(q_elem((1,), (2,))).lc == h_elem((1,), (2,)).lc

    def test_round_trip(self):
        a = h_elem((1, 2), (3,))
        assert to_h(to_q(a)) == a

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trips_all(self, n):
        for a in sigma_basis(canonical_set(n)):
            assert to_h(to_q(a)) == a
            aq = basis_elem(next(iter(a.lc.keys())), Q)
            assert to_q(to_h(aq)) == aq

    def test_randomized_round_trip_n5(self):
        import random

        rng = random.Random(99)
        comps = compositions_of(canonical_set(5))
        terms = {comps[rng.randrange(len(comps))]: QI(rng.randint(1, 9)) for _ in range(6)}
        a = SigmaElem(canonical_set(5), LinComb(terms), H)
        assert to_h(to_q(a)) == a

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_q_top_primitive(self, n):
        assert is_primitive(to_h(q_elem(canonical_set(n))))


class TestPrimitivePart:
    @pytest.mark.parametrize("n,dim", [(1, 1), (2, 2), (3, 6), (4, 26)])
    def test_dimensions(self, n, dim):
        basis = primitive_part_basis(n)
        assert len(basis) == dim
        for v in basis:
            assert is_primitive(v)

    def test_degree_one_span(self):
        (v,) = primitive_part_basis(1)
        assert v.lc.keys() == {comp((1,))}


class TestIteratedDelta:
    def test_three_parts_h_basis(self):
        a = h_elem((1, 3), (2,))
        got = _delta_iterated(a, ((1,), (2,), (3,)))
        assert got == LinComb({(comp((1,)), comp((2,)), comp((3,))): QI(1)})


class TestMisc:
    def test_relabel(self):
        a = h_elem((1, 2), (3,))
        b = relabel(a, {1: 5, 2: 7, 3: 6})
        assert b == h_elem((5, 7), (6,))

    @settings(max_examples=30, deadline=None)
    @given(st.permutations([1, 2, 3]))
    def test_mu_equivariance(self, perm):
        # species-morphism law: relabeling commutes with multiplication
        sigma = {1: perm[0], 2: perm[1], 3: perm[2]}
        a, b = h_elem((1,)), h_elem((2, 3))
        lhs = relabel(mu(a, b), sigma)
        rhs = mu(relabel(a, {1: sigma[1]}), relabel(b, {2: sigma[2], 3: sigma[3]}))
        assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_delta_split_equivariance(self, n):
        # the species axiom under dynkin_rank's orbit certificate: relabelling
        # commutes with every split of the coproduct, in both bases
        ground = canonical_set(n)
        for image in itertools.permutations(ground):
            sigma = dict(zip(ground, image))

            def move(pair):
                return tuple(Composition([sigma[x] for x in l] for l in F.lumps) for F in pair)

            for F in compositions_of(ground):
                for basis in (H, Q):
                    a = basis_elem(F, basis)
                    moved = relabel(a, sigma)
                    for S, T in ordered_splits(ground):
                        lhs = delta_split(moved, [sigma[x] for x in S], [sigma[x] for x in T])
                        assert lhs == delta_split(a, S, T).map_keys(move)

    def test_ground_mismatch_add(self):
        with pytest.raises(DomainError):
            h_elem((1,)) + h_elem((2,))


class TestBoundary:
    def test_bad_basis_tag(self):
        with pytest.raises(DomainError):
            basis_elem(comp((1,)), "X")
        with pytest.raises(DomainError):
            SigmaElem((1,), LinComb.single(comp((1,)), 1), "X")

    def test_term_off_the_ground(self):
        with pytest.raises(DomainError):
            SigmaElem((1, 2), LinComb.single(comp((1,)), 1), H)
        with pytest.raises(DomainError):
            SigmaElem((1, 1), LinComb.zero(), H)

    def test_bad_relabel(self):
        a = h_elem((1,), (2,))
        with pytest.raises(DomainError):
            relabel(a, {1: 5, 2: 5})
        with pytest.raises(DomainError):
            relabel(a, {1: 5})

    def test_invalid_lumps(self):
        with pytest.raises(DomainError):
            h_elem((1,), (1, 2))
        with pytest.raises(DomainError):
            q_elem((1,), ())

    @pytest.mark.parametrize("basis", [H, Q])
    @pytest.mark.parametrize("coeff", [1, Fraction(1, 2)])
    @pytest.mark.parametrize(
        "S, T, message",
        [
            ((1, 1), (1,), "duplicate label 1"),  # the bits sum to the split ({2}, {1})
            ((1,), (2, 2), "duplicate label 2"),
            ((2, 1, 1), (), "duplicate label 1"),
            ((1, 3), (2,), "decomposition"),  # off the ground
            ((1, 2), (2,), "decomposition"),  # overlapping sides
            ((1,), (), "decomposition"),  # a label missing
            ((1,), ("a",), "decomposition"),  # not a label
            ((1,), (None,), "decomposition"),
            ((1,), ([2],), "decomposition"),
        ],
    )
    def test_bad_splits(self, basis, coeff, S, T, message):
        a = basis_elem(comp((1,), (2,)), basis, coeff)
        with pytest.raises(DomainError, match=message):
            delta_split(a, S, T)

    @pytest.mark.parametrize("F", [comp((1,), (3,)), comp((1,)), comp((1,), (2,), (3,))])
    def test_hopf_power_other_ground(self, F):
        with pytest.raises(DomainError, match="ground"):
            hopf_power(F, h_elem((1,), (2,)))

    def test_split_sides_as_any_iterable(self):
        ground = (-3, 2, 5, 9)
        for basis in (H, Q):
            for a in (full_elem(ground, basis), basis_elem(comp((9, -3), (5,), (2,)), basis)):
                for S, T in ordered_splits(ground):
                    expected = delta_split(a, S, T)
                    assert delta_split(a, list(reversed(S)), list(reversed(T))) == expected
                    assert delta_split(a, (x for x in S), iter(T)) == expected


class TestScale:
    """scale(1) is free: the types are immutable, so the product is an equal element."""

    @pytest.mark.parametrize("c", [1, -1, Fraction(1, 2), 0])
    def test_lincomb(self, c):
        x = LinComb({comp((1,), (2,)): 3, comp((1, 2)): Fraction(-2, 5)})
        assert x.scale(c) == LinComb({k: c * v for k, v in x})
        assert LinComb().scale(c) == LinComb()

    @pytest.mark.parametrize("basis", [H, Q])
    @pytest.mark.parametrize("c", [1, -1, Fraction(1, 2), 0])
    def test_sigma_elem(self, basis, c):
        for x in (full_elem((-3, 2, 5), basis), zero_elem((1, 2), basis)):
            got = x.scale(c)
            assert (got.ground, got.basis) == (x.ground, x.basis)
            assert got == SigmaElem(x.ground, LinComb({F: c * v for F, v in x.lc}), basis)

    @pytest.mark.parametrize("c", [1, -1, Fraction(1, 2), 0])
    def test_word_elem(self, c):
        x = LinComb({("a", "b"): Fraction(-1, 3), (): QI(2, -1), ("s",): 1})
        expected = LinComb({w: c * v for w, v in x})
        assert x.scale(c) == expected
        assert LinComb().scale(c) == LinComb()

    def test_one_keeps_every_term(self):
        x = full_elem((1, 2, 3), H)
        assert x.scale(1) == x and x.scale(1).lc.t == x.lc.t
        assert x.scale(Fraction(1)) == x and x.scale(QI(1)) == x


def assert_as_validated(x):
    """x is what the validating constructors build from its ground, terms and basis."""
    assert type(x.ground) is tuple and x.ground == tuple(sorted(x.ground)), x.ground
    assert x == SigmaElem(x.ground, x.lc, x.basis)
    for K in x.lc.keys():  # the one composition of its lumps, with the ground recomputed
        assert all(K.lumps) and K.ground == labelset(y for l in K.lumps for y in l), K
        assert Composition(K.lumps) is K, K


def full_elem(ground, basis, shift=0):
    """Every basis element of ground, with distinct coefficients."""
    comps = compositions_of(ground)
    return SigmaElem(ground, LinComb({F: i + 1 + shift for i, F in enumerate(comps)}), basis)


TRUSTED_GROUNDS = [canonical_set(n) for n in range(5)] + [(-2, 3, 7)]


class TestTrustedConstructions:
    """Every operation builds its result unchecked; each must be a valid element."""

    @pytest.mark.parametrize("basis", [H, Q])
    def test_mu(self, basis):
        for ground in TRUSTED_GROUNDS:
            for S, T in ordered_splits(ground):
                a, b = full_elem(S, basis), full_elem(T, basis)
                assert_as_validated(mu(a, b))
                assert_as_validated(mu(b, a))

    def test_tits(self):
        for ground in TRUSTED_GROUNDS:
            comps = compositions_of(ground)
            table = _split_table(ground)
            for F in comps:
                for G in comps:
                    K = _tits_basis(table.masks(F), table.masks(G), table.labels)
                    assert_as_validated(basis_elem(K))
            assert_as_validated(tits(full_elem(ground, H), full_elem(ground, H, 3)))

    def test_antipode_and_basis_changes(self):
        for ground in TRUSTED_GROUNDS:
            for F in compositions_of(ground):
                for x in (basis_elem(F, H), basis_elem(F, H, Fraction(-2, 3))):
                    assert_as_validated(x)
                    assert_as_validated(antipode(x))
                    assert_as_validated(to_q(x))
                    assert_as_validated(to_h(to_q(x)))
                    assert_as_validated(to_h(basis_elem(F, Q)))
                assert_as_validated(takeuchi_antipode(basis_elem(F, H)))
            if len(ground) <= 3:
                assert_as_validated(takeuchi_antipode(full_elem(ground, H)))

    def test_linear_operations(self):
        for ground in TRUSTED_GROUNDS:
            a, b = full_elem(ground, H), full_elem(ground, H, 2)
            for x in (a + b, a - b, a - a, -a, a.scale(Fraction(1, 2)), a.scale(0), a.scale(1)):
                assert_as_validated(x)

    def test_arrows(self):
        for ground in TRUSTED_GROUNDS:
            inputs = [full_elem(ground, H)]
            inputs += [basis_elem(F, H, Fraction(-2, 3)) for F in compositions_of(ground)]
            for star in (-1, 5):  # below every label, and between the labels of (-2, 3, 7)
                for x in inputs:
                    assert_as_validated(u_ab(2, Fraction(-1, 3), star, x))
                    assert_as_validated(u_ab(1, 1, star, x))  # a + b = 2, -a = -b
                    assert_as_validated(arrow_down_single(star, x))

    def test_tree_to_primitive(self):
        for ground in TRUSTED_GROUNDS[1:]:
            for blocks in set_partitions(ground):
                # the left comb and the right comb over the blocks, in reverse order
                left = right = None
                for block in blocks:
                    left = Tree(block) if left is None else Tree(left=left, right=Tree(block))
                for block in blocks:
                    right = Tree(block) if right is None else Tree(left=Tree(block), right=right)
                for t in (left, right):
                    x = tree_to_primitive(t)
                    assert x.basis == Q and x.ground == ground
                    assert_as_validated(x)

    def test_hopf_power_and_takeuchi(self):
        for ground in TRUSTED_GROUNDS:
            comps = compositions_of(ground)
            a = full_elem(ground, H)
            for F in comps:
                assert_as_validated(hopf_power(F, a))
                for G in comps:
                    assert_as_validated(hopf_power(F, basis_elem(G, H, Fraction(-2, 3))))
                assert_as_validated(takeuchi_antipode(basis_elem(F, H, Fraction(-2, 3))))

    def test_relabel(self):
        import random

        rng = random.Random(7)
        for ground in TRUSTED_GROUNDS:
            for F in compositions_of(ground):
                for _ in range(3):
                    image = rng.sample([x for x in range(-9, 10) if x], len(ground))
                    x = relabel(basis_elem(F, rng.choice((H, Q))), dict(zip(ground, image)))
                    assert_as_validated(x)

    def test_split_table_pairs(self):
        for ground in ((1, 2, 3, 4), (-3, 2, 5, 9)):
            table = _split_table(ground)
            for F in compositions_of(ground):
                table.row(F, H)
                table.row(F, Q)
            for pid in range(len(table.pairs)):
                left, right = table.pair(pid)
                assert_as_validated(basis_elem(left))
                assert_as_validated(basis_elem(right))
