import hashlib
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from sethopf.compositions import canonical_set, compositions_of, proper_splits, restrict
from sethopf.errors import DomainError
from sethopf.hopf import primitive_part_basis, split_columns
from sethopf.lincomb import LinComb, default_sort_key, sparse_sum
from sethopf.linalg import P, _numerators, kernel_basis, rank, rank_mod_prime
from sethopf.scalars import QI, as_qi

QI_ZERO, QI_ONE = QI(0), QI(1)
fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def qis(draw):
    return QI(draw(fracs), draw(fracs))


class TestQI:
    @settings(max_examples=100, deadline=None)
    @given(qis(), qis())
    def test_ring_ops_against_componentwise(self, a, b):
        s = a + b
        assert (s.re, s.im) == (a.re + b.re, a.im + b.im)
        p = a * b
        assert (p.re, p.im) == (a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)

    @settings(max_examples=100, deadline=None)
    @given(qis(), qis())
    def test_division_inverts(self, a, b):
        if b:
            assert (a / b) * b == a

    def test_lowest_terms(self):
        x = QI(Fraction(2, 4), Fraction(-6, 9))
        assert x.re == Fraction(1, 2) and x.im == Fraction(-2, 3)
        assert x.re.denominator > 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-99, 99), st.integers(1, 99), st.integers(-99, 99), st.integers(1, 99))
    def test_fraction_sum_against_big_integer_crosscheck(self, a, b, c, d):
        # a/b + c/d == (a*d + c*b) / (b*d), computed with raw integers
        got = QI(Fraction(a, b)) + QI(Fraction(c, d))
        num, den = a * d + c * b, b * d
        from math import gcd

        g = gcd(num, den) or 1
        assert (got.re.numerator, got.re.denominator) == (num // g, den // g)

    def test_powers(self):
        i = QI(0, 1)
        assert i**2 == QI(-1)
        assert i**-1 == QI(0, -1)
        assert QI(2) ** 0 == QI(1)

    def test_coercions(self):
        assert as_qi("3/4") == QI(Fraction(3, 4))


class TestLinComb:
    def test_add_to_zero(self):
        v = LinComb({"H12": QI(1)})
        assert (v + (-v)).is_zero()
        assert len(v + (-v)) == 0  # no explicit zero entries survive

    def test_scale(self):
        v = LinComb({"H12": QI(1)})
        assert v.scale(QI(Fraction(1, 2))) == LinComb({"H12": QI(Fraction(1, 2))})
        assert v.scale(QI(0)).is_zero()

    def test_two_term_sum(self):
        a = LinComb({"H12": QI(1)})
        b = LinComb({"H1,2": QI(1)})
        s = a + b
        assert len(s) == 2 and s.coeff("H12") == QI(1) and s.coeff("H1,2") == QI(1)

    def test_sub_prunes(self):
        a = LinComb({"x": QI(2), "y": QI(1)})
        b = LinComb({"x": QI(2)})
        assert (a - b) == LinComb({"y": QI(1)})

    def test_public_constructor_drops_zeros_and_trusted_one_keeps_its_dict(self):
        terms = {"x": 0, "y": Fraction(1, 2), "z": QI(0)}
        assert LinComb(terms).t == {"y": Fraction(1, 2)} and LinComb(terms).t is not terms
        kept = {"y": 3}
        v = LinComb._of(kept)
        assert type(v) is LinComb and v.t is kept and v == LinComb({"y": 3})
        with pytest.raises(TypeError):
            LinComb(kept, _trusted=True)  # the private keyword is gone
        with pytest.raises(AttributeError):
            v.t = {}

    def test_sparse_sum_drops_zero_sums_and_zero_inputs(self):
        v = sparse_sum([("x", 2), ("y", 0), ("x", -2), ("z", Fraction(1, 2)), ("z", 0)])
        assert v.t == {"z": Fraction(1, 2)}
        assert sparse_sum([("x", 0), ("y", QI_ZERO)]).t == {}

    @staticmethod
    def loop_sum(pairs):
        """The zero-dropping loop that mu, tits and the word product used to copy."""
        terms = {}
        for k, c in pairs:
            if k in terms:
                c = terms[k] + c
            if c:
                terms[k] = c
            else:
                terms.pop(k, None)
        return terms

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-2, 2)), max_size=30))
    def test_sparse_sum_keeps_the_loops_insertion_order(self, pairs):
        assert list(sparse_sum(pairs).t.items()) == list(self.loop_sum(pairs).items())

    def test_sparse_sum_cancelled_key_comes_back_last(self):
        pairs = [("a", 1), ("b", 1), ("a", -1), ("c", 1), ("a", 3)]
        assert list(sparse_sum(pairs).t.items()) == [("b", 1), ("c", 1), ("a", 3)]
        assert list(self.loop_sum(pairs).items()) == [("b", 1), ("c", 1), ("a", 3)]

    def test_sparse_sum_owns_the_dict_handed_to_it(self):
        start = {"x": 1, "y": 2}
        v = sparse_sum([("y", -2), ("z", 5), ("x", 1)], start)
        assert v.t is start and list(start.items()) == [("x", 2), ("z", 5)]


def naive_rank(rows):
    """Independent oracle: plain rational Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rnk = 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        rnk += 1
        r += 1
        if r == len(rows):
            break
    return rnk


class TestRank:
    def test_collinear(self):
        v = LinComb({"x": QI(1), "y": QI(2)})
        assert rank([v, v.scale(QI(2))]) == 1

    def test_empty(self):
        assert rank([]) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(fracs, min_size=4, max_size=4), min_size=1, max_size=5))
    def test_matches_naive_elimination(self, mat):
        vectors = [
            LinComb({j: QI(x) for j, x in enumerate(row) if x}) for row in mat
        ]
        expected = naive_rank([[Fraction(x) for x in row] for row in mat])
        assert rank(vectors) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=2, max_size=4),
        st.permutations([0, 1, 2]),
        fracs.filter(bool),
    )
    def test_invariant_under_scaling_and_permutation(self, mat, perm, scalar):
        vectors = [LinComb({j: QI(x) for j, x in enumerate(row) if x}) for row in mat]
        scaled = [v.scale(QI(scalar)) for v in vectors]
        permuted = [
            LinComb({perm[j]: QI(x) for j, x in enumerate(row) if x}) for row in mat
        ]
        assert rank(vectors) == rank(scaled) == rank(permuted)

    def test_complex_coefficient_rejected(self):
        # elimination is over the rationals; no caller passes a value with i
        v = LinComb({"x": QI(1), "y": QI(0, 1)})
        with pytest.raises(DomainError):
            rank([v])
        with pytest.raises(DomainError):
            kernel_basis([("a", v), ("b", LinComb({"x": QI(1)}))], ["a", "b"])
        # also a float, and a bad value after a real row
        real = LinComb({"x": 1, "y": Fraction(1, 2)})
        for bad in (QI(1, 1), QI(0, -1), 0.5):
            with pytest.raises(DomainError, match=r"^expected a real coefficient, got "):
                rank([real, LinComb({"x": 2, "y": bad})])
            with pytest.raises(DomainError, match=r"^expected a real coefficient, got "):
                kernel_basis([("a", real), ("b", LinComb({"x": bad}))], ["a", "b"])

    def test_dynkin_span_n4(self):
        # oracle: dim of the primitive part by the partition-count formula
        from sethopf.cells import dynkin, enumerate_cells
        from sethopf.compositions import zie_dimension

        vectors = [dynkin(c).lc for c in enumerate_cells(canonical_set(4))]
        assert len(vectors) == 32
        assert rank(vectors) == zie_dimension(4) == 26

    def test_mod_prime_agrees_on_small_int_matrices(self):
        mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        vectors = [LinComb({j: x for j, x in enumerate(row)}) for row in mat]
        assert rank_mod_prime(vectors) == 2


def reference_rank_mod_prime(vectors):
    """Oracle: dense GF(P) elimination in column order over the sorted keys,
    each vector scaled by the lcm of its denominators."""
    keys = sorted({k for v in vectors for k in v.keys()}, key=default_sort_key)
    mat = []
    for v in vectors:
        den = lcm(*(Fraction(c).denominator for _, c in v))
        row = [0] * len(keys)
        for j, k in enumerate(keys):
            row[j] = int(Fraction(v.coeff(k) or 0) * den) % P
        mat.append(row)
    r = 0
    for j in range(len(keys)):
        piv = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][j], -1, P)
        mat[r] = [x * inv % P for x in mat[r]]
        for i in range(r + 1, len(mat)):
            f = mat[i][j]
            if f:
                mat[i] = [(x - f * y) % P for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


# mostly zero, sometimes a multiple of P, which vanishes mod P only
mod_fracs = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(P)),
    st.just(Fraction(-2 * P, 3)),
    fracs,
)


class TestRankModPrime:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.lists(mod_fracs, min_size=5, max_size=5), max_size=7),
        st.randoms(use_true_random=False),
    )
    def test_matches_reference(self, mat, rnd):
        vectors = []
        for row in mat:
            items = [(f"k{j}", x) for j, x in enumerate(row)]
            rnd.shuffle(items)  # the key order of a row must not matter
            vectors.append(LinComb(dict(items)))
        got = rank_mod_prime(vectors)
        assert got == reference_rank_mod_prime(vectors)
        assert got <= rank(vectors)

    def test_multiple_of_p_vanishes(self):
        # the direction the modular squeeze relies on: GF(P) rank <= exact rank
        vectors = [LinComb({"x": P})]
        assert rank_mod_prime(vectors) == 0
        assert rank(vectors) == 1

    def test_even_minor_drops_the_rank(self):
        # the minor is -2: nonzero over Q, zero over GF(2)
        vectors = [LinComb({"x": 1, "y": 1}), LinComb({"x": 1, "y": -1})]
        assert rank_mod_prime(vectors) == 1
        assert rank(vectors) == 2

    @pytest.mark.parametrize("n,expected", [(4, 6), (5, 220), pytest.param(6, 10210, marks=pytest.mark.heavy)])
    def test_steinmann_relation_rank(self, n, expected):
        # the Steinmann relations span the kernel of the map from cells to
        # their Dynkin elements, of dimension cells - dim P; the GF(2) rank
        # and the exact rank both reach it
        from sethopf.cells import enumerate_cells, steinmann_quadruples, steinmann_relation_vectors
        from sethopf.compositions import zie_dimension

        ground = canonical_set(n)
        vectors = steinmann_relation_vectors(steinmann_quadruples(ground))
        r = rank_mod_prime(vectors)
        assert r == len(enumerate_cells(ground)) - zie_dimension(n) == expected
        assert rank(vectors) == expected

    def test_complex_coefficient_rejected(self):
        with pytest.raises(DomainError):
            rank_mod_prime([LinComb({"x": QI(1), "y": QI(0, 1)})])

    def test_empty(self):
        assert rank_mod_prime([]) == 0

    def test_colliding_hashes_are_distinct_columns(self):
        assert hash(-1) == hash(-2)  # CPython reserves -1 as an error hash
        assert rank_mod_prime([LinComb({-1: 1}), LinComb({-2: 1})]) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rank_of_split_columns(self, n):
        columns = [v for _, v in split_columns(canonical_set(n))]
        assert all(type(k) is int and c == 1 for v in columns for k, c in v)  # pair ids
        assert rank_mod_prime(columns) == reference_rank_mod_prime(columns)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dynkin_rows_under_rekeying_and_reordering(self, n):
        from sethopf.cells import dynkin, enumerate_cells
        from sethopf.compositions import zie_dimension

        ground = canonical_set(n)
        rows = [dynkin(c).lc for c in enumerate_cells(ground)]
        number = {F: j for j, F in enumerate(compositions_of(ground))}
        as_ints = [LinComb({number[F]: c for F, c in v}) for v in rows]
        reordered = [LinComb(dict(reversed(list(v)))) for v in rows]
        r = rank_mod_prime(rows)
        assert r == rank_mod_prime(as_ints) == rank_mod_prime(reordered) == zie_dimension(n)


class TestNumerators:
    def test_ints_are_returned_over_one(self):
        assert _numerators(iter([3, -4, 0])) == ([3, -4, 0], 1)
        assert _numerators([]) == ([], 1)

    def test_fractions_and_real_qi_share_a_denominator(self):
        assert _numerators([1, Fraction(1, 2), QI(Fraction(-2, 3))]) == ([6, 3, -4], 6)
        assert _numerators([Fraction(4, 2), True]) == ([2, 1], 1)

    def test_non_real_rejected(self):
        with pytest.raises(DomainError, match=r"^expected a real coefficient, got "):
            _numerators([1, QI(0, 1)])
        with pytest.raises(DomainError, match=r"^expected a real coefficient, got "):
            _numerators([1.5])


class TestKernel:
    def test_zero_map(self):
        domain = ["a", "b", "c"]
        mapping = [(k, LinComb()) for k in domain]
        basis = kernel_basis(mapping, domain)
        assert len(basis) == 3

    def test_identity_map(self):
        domain = ["a", "b", "c"]
        mapping = [(k, LinComb({k: QI_ONE})) for k in domain]
        assert kernel_basis(mapping, domain) == []

    def test_missing_domain_key(self):
        with pytest.raises(DomainError):
            kernel_basis([("a", LinComb())], ["a", "b"])

    def test_stacked_deltas_on_sigma2(self):
        ground = canonical_set(2)
        domain = list(compositions_of(ground))
        mapping = []
        for F in domain:
            img = {}
            for S, T in proper_splits(ground):
                img[((S, T), restrict(F, S), restrict(F, T))] = QI_ONE
            mapping.append((F, LinComb(img)))
        basis = kernel_basis(mapping, domain)
        assert len(basis) == 2  # dim of the primitive part in degree 2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=1, max_size=4))
    def test_kernel_vectors_map_to_zero(self, mat):
        domain = list(range(3))
        mapping = []
        for j in domain:
            img = {i: QI(mat[i][j]) for i in range(len(mat)) if mat[i][j]}
            mapping.append((j, LinComb(img)))
        mapping_dict = dict(mapping)
        for vec in kernel_basis(mapping, domain):
            image = LinComb()
            for k, c in vec:
                image = image + mapping_dict[k].scale(c)
            assert image.is_zero()


def reference_kernel_basis(linear_map, domain):
    """Oracle: dense Gauss-Jordan over QI, the kernel_basis the integer
    elimination replaced.  Same contract and output form."""
    images = dict(linear_map)
    out_keys = sorted({k for v in images.values() for k in v.keys()}, key=default_sort_key)
    out_index = {k: i for i, k in enumerate(out_keys)}
    ncols = len(domain)
    nrows = len(out_keys)
    mat = [[QI_ZERO] * ncols for _ in range(nrows)]
    for j, k in enumerate(domain):
        for ok, c in images[k]:
            mat[out_index[ok]][j] = as_qi(c)

    pivot_cols = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][j]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = QI_ONE / mat[r][j]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][j]:
                f = mat[i][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(j)
        r += 1
        if r == nrows:
            break

    basis = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        vec = {domain[j]: QI_ONE}
        for rr, pc in enumerate(pivot_cols):
            if mat[rr][j]:
                vec[domain[pc]] = -mat[rr][j]
        basis.append(LinComb(vec))
    return basis


def _terms(basis):
    """Each vector's (key, coefficient) list in insertion order."""
    return [list(v) for v in basis]


# sha256 of repr(_terms(primitive_part_basis(n))) with each coefficient
# written as its str, which reads the same for an int, a Fraction and a real
# QI; keyed by n.  n <= 4 were computed with the QI Gauss-Jordan kernel, and
# n = 5 with the dense integer Gauss-Jordan that the sparse one replaced.
PRIMITIVE_BASIS_DIGESTS = {
    1: "d83abffaec1b5e7a015962931b383547caa653708b21eaf87861e833dcfbe5a1",
    2: "4689a52a3c73f6b8c447e1480558f0c32938a0c156615cdfdc51d6fda63d882a",
    3: "9647ea60dd23d24217e6c286d895ed43a561f195dd828e192b5dade2188e684f",
    4: "e69c3a41bfb500fc87fd4724dc8482f4c34ba45ee65b25b4d78bf934d8029f77",
    5: "d2fcebc46aa2c741e35b0a4aaf24552bb5766ffe56a4521486d46acbed5cbdff",
}

sparse_fracs = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fracs)


class TestKernelAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda ncols: st.lists(
                st.lists(sparse_fracs, min_size=ncols, max_size=ncols), max_size=6
            ).map(lambda mat: (ncols, mat))
        ),
        st.randoms(use_true_random=False),
    )
    def test_identical_basis(self, shape, rnd):
        ncols, mat = shape
        domain = [f"d{j}" for j in range(ncols)]

        def mapping(row_keys):
            return [
                (domain[j], LinComb({row_keys[i]: QI(row[j]) for i, row in enumerate(mat)}))
                for j in range(ncols)
            ]

        rows = list(range(len(mat)))
        expected = _terms(reference_kernel_basis(mapping(rows), domain))
        assert _terms(kernel_basis(mapping(rows), domain)) == expected
        # the elimination order follows the row keys; the basis must not
        rnd.shuffle(rows)
        got = kernel_basis(mapping(rows), domain)
        assert _terms(got) == expected
        assert all(type(c) in (int, Fraction) for v in got for _, c in v)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_primitive_part_basis_matches_reference(self, n):
        columns = split_columns(canonical_set(n))
        mapping = [(F, v.scale(QI_ONE)) for F, v in columns]
        expected = _terms(reference_kernel_basis(mapping, [F for F, _ in columns]))
        assert _terms(e.lc for e in primitive_part_basis(n)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.heavy)])
    def test_primitive_part_basis_pinned(self, n):
        basis = _terms(e.lc for e in primitive_part_basis(n))
        text = repr([[(k, str(c)) for k, c in v] for v in basis])
        assert hashlib.sha256(text.encode()).hexdigest() == PRIMITIVE_BASIS_DIGESTS[n]


# entries whose pivots are not +-1, so that the gcd steps of the row
# combinations run, and scalars that repeat a row or take a multiple of it
gcd_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -6, 9])
row_scalars = st.sampled_from([1, 1, -1, 2, -3, 6, Fraction(1, 6), Fraction(-3, 2)])
COEFFICIENT_FORMS = {"exact": lambda x: x, "fraction": Fraction, "qi": QI}


@st.composite
def repeated_rows(draw):
    """An int matrix, then copies of its rows, each times a scalar, in a
    shuffled row order, with one coefficient form for every entry."""
    ncols = draw(st.integers(1, 5))
    mat = draw(st.lists(st.lists(gcd_ints, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    copies = draw(st.lists(st.tuples(st.integers(0, 4), row_scalars), max_size=4))
    rows = mat + [[x * c for x in mat[i % len(mat)]] for i, c in copies]
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    form = COEFFICIENT_FORMS[draw(st.sampled_from(sorted(COEFFICIENT_FORMS)))]
    return ncols, [[form(x) if x else 0 for x in row] for row in rows]


class TestSparseElimination:
    """rank and kernel_basis against the rational eliminations of this file."""

    @settings(max_examples=150, deadline=None)
    @given(repeated_rows(), st.randoms(use_true_random=False))
    def test_rank_matches_naive_elimination(self, shape, rnd):
        _, rows = shape
        vectors = []
        for row in rows:
            items = [(f"k{j}", x) for j, x in enumerate(row) if x]
            rnd.shuffle(items)  # the key order of a vector must not matter
            vectors.append(LinComb(dict(items)))
        expected = naive_rank([[Fraction(as_qi(x).re) for x in row] for row in rows])
        assert rank(vectors) == expected

    @settings(max_examples=150, deadline=None)
    @given(repeated_rows())
    def test_kernel_matches_reference(self, shape):
        ncols, rows = shape
        domain = [f"d{j}" for j in range(ncols)]
        mapping = [
            (domain[j], LinComb({i: row[j] for i, row in enumerate(rows) if row[j]}))
            for j in range(ncols)
        ]
        got = kernel_basis(mapping, domain)
        assert _terms(got) == _terms(reference_kernel_basis(mapping, domain))
        assert all(type(c) in (int, Fraction) for v in got for _, c in v)

    def test_gcd_pivots(self):
        # rows x = (2, 6, 4, 0) and y = (3, 3, 6, 9): the step at column a
        # leaves 2y - 3x = (0, -12, 0, 18), divided by its gcd 6, and the
        # back-substitution clears the 6 of row x against the pivot -2
        # through gcd(-2, 6) = 2
        domain = ["a", "b", "c", "d"]
        mapping = [
            ("a", LinComb({"x": 2, "y": 3})),
            ("b", LinComb({"x": 6, "y": 3})),
            ("c", LinComb({"x": 4, "y": 6})),
            ("d", LinComb({"y": 9})),
        ]
        got = kernel_basis(mapping, domain)
        assert _terms(got) == _terms(reference_kernel_basis(mapping, domain))
        assert _terms(got) == [
            [("c", 1), ("a", Fraction(-2))],
            [("d", 1), ("a", Fraction(-9, 2)), ("b", Fraction(3, 2))],
        ]
        assert rank([v for _, v in mapping]) == 2
