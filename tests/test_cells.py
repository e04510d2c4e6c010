import itertools
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from sethopf import cells as cells_module, linalg as linalg_module, lp as lp_module, verify
from sethopf.cells import (
    Cell,
    channel_representatives,
    commutator,
    dynkin,
    dynkin_rank,
    dynkin_tits_factorization,
    enumerate_cells,
    enumerate_cells_with_witnesses,
    glz_check,
    is_cell,
    is_ruelle_bridge,
    leaf,
    node,
    primitive_dimension_certified,
    ruelle_check,
    ruelle_configurations,
    steinmann_quadruples,
    steinmann_relation_holds,
    steinmann_relation_vectors,
    total_retarded_cell,
    total_retarded_dynkin,
    tree_to_primitive,
)
from sethopf.cells import (
    _cell_orbits,
    _composition_permutations,
    _dynkin_masks,
    _dynkin_row,
    _enumerate_cells_cached,
    _insertion_enumeration,
    _left_normed_tree_images,
    _mask_permutations,
    _pivot_pairs,
    _refuted,
    _set_bits,
    _shuffle_nullity_bound,
    _side_index,
    _split_nullity,
)
from sethopf.compositions import (
    canonical_set,
    comp,
    compositions_of,
    labelset,
    opposite,
    ordered_splits,
    proper_splits,
    set_partitions,
    zie_dimension,
)
from sethopf.errors import DomainError, SizeLimitError
from sethopf.hadamard import tits
from sethopf.hopf import (
    H,
    Q,
    SigmaElem,
    _split_table,
    antipode,
    basis_elem,
    delta_split,
    h_elem,
    is_primitive,
    primitive_part_basis,
    q_elem,
    split_columns,
    to_h,
    to_q,
    unit_elem,
    zero_elem,
)
from sethopf.lincomb import LinComb, lincomb_sum
from sethopf.scalars import QI
from sethopf.linalg import _bitset, rank, rank_mod_prime


def brute_force_cells(ground):
    """Independent oracle: try every orientation of every channel pair."""
    reps = channel_representatives(ground)
    gset = set(ground)
    found = []
    for bits in itertools.product((0, 1), repeat=len(reps)):
        sides = [
            S if bit else tuple(sorted(gset - set(S))) for S, bit in zip(reps, bits)
        ]
        ok, _ = is_cell(ground, sides)
        if ok:
            found.append(frozenset(sides))
    return found


def two_lump_coarsenings(F):
    """The (S, T) with (S, T) <= F: prefix/suffix splits of the lump sequence."""
    for p in range(1, len(F.lumps)):
        S = labelset(x for l in F.lumps[:p] for x in l)
        T = labelset(x for l in F.lumps[p:] for x in l)
        yield (S, T)


def test_two_lump_coarsenings():
    F = comp((1,), (2,), (3,))
    assert list(two_lump_coarsenings(F)) == [((1,), (2, 3)), ((1, 2), (3,))]


@pytest.mark.parametrize("n", range(7))
def test_dynkin_masks_match_the_label_construction(n):
    # the sides of the reversed two-lump coarsenings, read from label tuples
    keys, sbs, coeffs = [], [], []
    for F in compositions_of(canonical_set(n)):
        keys.append(tuple([sum([1 << x - 1 for x in L]) for L in F.lumps]))
        sides = [sum([1 << x - 1 for x in S]) for S, _ in two_lump_coarsenings(opposite(F))]
        sbs.append(sum([1 << m for m in sides]))
        coeffs.append(-1 if len(F) % 2 == 0 else 1)
    assert _dynkin_masks(n) == (tuple(keys), tuple(sbs), tuple(coeffs))


def scan_dynkin_row(n, pb):
    """The Dynkin row by a scan of the whole table: {entry: coefficient} of
    every entry of ``_dynkin_masks(n)`` whose sides' bitset lies in pb."""
    _, sbs, coeffs = _dynkin_masks(n)
    return {j: coeffs[j] for j, sb in enumerate(sbs) if sb & pb == sb}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.heavy)])
def test_side_index_rows_match_the_scan(n):
    coeffs = _dynkin_masks(n)[2]
    for *_, orbit in _cell_orbits(n):
        for pb, _ in orbit:
            assert {j: coeffs[j] for j in _set_bits(_dynkin_row(n, pb))} == scan_dynkin_row(n, pb)


def test_set_bits_and_bitset_round_trip():
    for x in (0, 1, 2, 5, 1 << 70 | 3, (1 << 4683) - 1):
        bits = _set_bits(x)
        assert bits == [i for i in range(x.bit_length()) if x >> i & 1]
        assert _bitset(bits, max(x.bit_length(), 1)) == x
        assert _set_bits(x, "abcdefgh") == ["abcdefgh"[i] for i in bits if i < 8]


def test_side_index_holds_each_side_of_each_entry():
    for n in range(6):
        sbs = _dynkin_masks(n)[1]
        index = _side_index(n)
        assert len(index) == 1 << n and index[0] == index[-1] == 0  # no side is empty or whole
        for m, z in enumerate(index):
            assert _set_bits(z) == [j for j, sb in enumerate(sbs) if sb >> m & 1]


def shuffle_columns(k):
    """The index-form shuffle matrix Sh_k, one column per word w, a
    permutation of range(k) in ``itertools.permutations`` order: coefficient
    1 on the pair (w|A, w|A'), as two tuples, of every proper nonempty
    subset A of range(k), with A' its complement."""
    out = []
    for w in itertools.permutations(range(k)):
        pairs = (
            (tuple([x for x in w if A >> x & 1]), tuple([x for x in w if not A >> x & 1]))
            for A in range(1, (1 << k) - 1)
        )
        out.append(LinComb._of(dict.fromkeys(pairs, 1)))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_pivot_pairs_are_the_pivot_row_entries_of_each_column(k):
    # the walk of the minor check reads, of each column of Sh_k, exactly the
    # entries that lie in a pivot row (u, 0v), u nonempty
    words = list(itertools.permutations(range(k)))
    pivots = {(w[:i], w[i:]) for w in words if (i := w.index(0))}
    for x, column in zip(words, shuffle_columns(k), strict=True):
        walked = list(_pivot_pairs(x))
        assert len(walked) == len(set(walked))
        assert set(walked) == {pair for pair in column.keys() if pair in pivots}


def closed_form_dynkin(cell):
    """- sum over F whose reversed two-lump coarsenings all lie in the cell of (-1)^l(F) H_F."""
    terms = {}
    for F in compositions_of(cell.ground):
        if all(S in cell.positive for S, _ in two_lump_coarsenings(opposite(F))):
            terms[F] = QI(-1) if len(F) % 2 == 0 else QI(1)
    return SigmaElem(cell.ground, LinComb(terms), H)


class TestIsCell:
    def test_spec_examples(self):
        ok, w = is_cell((1, 2, 3), [(1,), (2,), (1, 2)])
        assert ok
        assert sum(w.values()) == 0 and w[1] > 0 and w[2] > 0
        ok, w = is_cell((1, 2, 3), [(1,), (2,), (3,)])
        assert not ok and w is None
        ok, w = is_cell((1, 2), [(1,)])
        assert ok

    def test_malformed_family(self):
        with pytest.raises(DomainError):
            is_cell((1, 2, 3), [(1,)])  # missing pairs
        with pytest.raises(DomainError):
            is_cell((1, 2), [(1,), (2,)])  # both orientations


class TestEnumerateCells:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 6), (4, 32)])
    def test_counts_match_brute_force(self, n, count):
        ground = canonical_set(n)
        cells = enumerate_cells(ground)
        assert len(cells) == count
        if n >= 2:
            assert {c.positive for c in cells} == {
                frozenset(p) for p in brute_force_cells(ground)
            }

    def test_n5_count(self):
        assert len(enumerate_cells(canonical_set(5))) == 370  # OEIS A034997

    def test_witnesses_realize(self):
        for c, w in enumerate_cells_with_witnesses(canonical_set(4)):
            assert sum(w.values()) == 0
            for S in c.positive:
                assert sum(w[x] for x in S) > 0

    def test_witnesses_are_fresh_and_keyed_by_label(self):
        ground = (2, 5, 9, 11)
        first = enumerate_cells_with_witnesses(ground)
        for c, w in first:
            assert sorted(w) == list(ground)
            assert all(type(x) is Fraction for x in w.values())
            assert sum(w.values()) == 0
            assert all(sum(w[x] for x in S) > 0 for S in c.positive)
        kept = [(c, dict(w)) for c, w in first]
        for _, w in first:
            w[2] += 1  # a caller's edit must not reach the cache
        assert enumerate_cells_with_witnesses(ground) == kept

    def test_deterministic_order(self):
        cells = enumerate_cells(canonical_set(3))
        assert [c.sort_key() for c in cells] == sorted(c.sort_key() for c in cells)

    def test_bound(self):
        with pytest.raises(SizeLimitError):
            enumerate_cells(canonical_set(7))


# Label-form references: a cell as its frozenset of sorted label tuples, and
# the label-set algebra the cells layer used before it kept side bitsets.


def label_repr(ground, positive):
    def fmt(labels):
        if all(1 <= x <= 9 for x in labels):
            return "".join(map(str, labels))
        return "{" + " ".join(map(str, labels)) + "}"

    return f"Cell[{fmt(ground)}:{','.join(fmt(S) for S in sorted(positive))}]"


def label_channels(ground, positive):
    return [(S, tuple(sorted(set(ground) - set(S)))) for S in sorted(positive)]


def label_flip(ground, positive, S):
    S = labelset(S)
    comp = tuple(sorted(set(ground) - set(S)))
    if S in positive:
        return Cell(ground, (positive - {S}) | {comp})
    if comp in positive:
        return Cell(ground, (positive - {comp}) | {S})
    raise DomainError(f"{S} is not a channel side of this ground set")


def label_is_ruelle_bridge(cell1, cell2, bridge):
    S, T = cell1.ground, cell2.ground
    positive1, positive2 = cell1.positive, cell2.positive
    if S not in bridge.positive:
        return False
    Sset, Tset = set(S), set(T)
    for U in bridge.positive:
        Uset = set(U)
        if Uset == Sset:
            continue
        A = tuple(sorted(Uset & Sset))
        C = tuple(sorted(Uset & Tset))
        if A and set(A) != Sset and A not in positive1:
            return False
        if C and set(C) != Tset and C not in positive2:
            return False
    return True


def label_ruelle_configurations(ground):
    bridges = enumerate_cells(ground)
    for S, T in proper_splits(ground):
        for c1 in enumerate_cells(S):
            for c2 in enumerate_cells(T):
                for bridge in bridges:
                    if label_is_ruelle_bridge(c1, c2, bridge):
                        yield c1, c2, bridge


def label_steinmann_quadruples(ground):
    cells = enumerate_cells(ground)
    present = {c.positive for c in cells}
    gset = set(ground)
    reps = channel_representatives(ground)
    quads = []
    for i, A in enumerate(reps):
        for B in reps[i + 1:]:
            if not (set(A) & set(B) and set(A) - set(B) and set(B) - set(A) and gset - set(A + B)):
                continue
            Ac = tuple(sorted(gset - set(A)))
            Bc = tuple(sorted(gset - set(B)))
            for c in cells:
                if A not in c.positive or B not in c.positive:
                    continue
                rest = c.positive - {A, B}
                s2, s3, s4 = rest | {Ac, B}, rest | {Ac, Bc}, rest | {A, Bc}
                if all(x in present for x in (s2, s3, s4)):
                    quads.append((c, Cell(ground, s2), Cell(ground, s3), Cell(ground, s4)))
    quads.sort(key=lambda q: tuple(c.sort_key() for c in q))
    return quads


BIT_GROUNDS = [canonical_set(n) for n in range(6)] + [(-3, 2, 5, 9)]


class TestCellBits:
    """A cell is its ground and one side bitset; the label form is read from it."""

    @pytest.mark.parametrize("ground", BIT_GROUNDS)
    def test_round_trip_and_label_queries(self, ground):
        full = (1 << len(ground)) - 1
        subsets = [tuple(x for i, x in enumerate(ground) if m >> i & 1) for m in range(full + 1)]
        off = min(ground, default=1) - 1
        off_ground = [(off,), (off,) + ground[:1]]
        for c in enumerate_cells(ground) + insertion_cells(ground):
            positive = c.positive
            assert positive == frozenset(subsets[m] for m in masks(c.bits))
            assert c.bits == side_bits(c)
            again = Cell(c.ground, positive)
            assert again == c and hash(again) == hash(c) and again.bits == c.bits
            assert list(c.channels()) == label_channels(ground, positive)
            assert c.sort_key() == (ground, tuple(sorted(positive)))
            assert repr(c) == label_repr(ground, positive)
            for S in subsets + off_ground:
                assert c.contains(S) is (S in positive)
                if 0 < len(S) < len(ground) and set(S) <= set(ground):
                    assert c.flip(S) == label_flip(ground, positive, S)
                else:
                    with pytest.raises(DomainError, match="is not a channel side"):
                        c.flip(S)

    @pytest.mark.parametrize("ground", BIT_GROUNDS)
    def test_enumerations_in_sort_key_order(self, ground):
        for cells in (enumerate_cells(ground), insertion_cells(ground)):
            keys = [c.sort_key() for c in cells]
            assert keys == sorted(set(keys))

    @pytest.mark.parametrize(
        "ground,positive,message",
        [
            ((1, 2, 3), [(1,), (2,), (1, 2), (1, 2, 3)], "is not a proper nonempty subset"),
            ((1, 2, 3), [(1,), (2,), ()], "is not a proper nonempty subset"),
            ((1, 2, 3), [(1,), (2,), (4,)], "is not a proper nonempty subset"),
            ((1, 2), [(1,), (2,)], "both orientations of channel"),
            ((1, 2, 3), [(1,), (2,)], "does not orient every complementary pair"),
            ((1, 2, 3), [(1,), (2,), (1, 1)], "duplicate label 1"),
            ((1, 1, 2), [(1,)], "duplicate label 1"),
        ],
    )
    def test_validation_messages(self, ground, positive, message):
        with pytest.raises(DomainError, match=message):
            Cell(ground, positive)

    def test_contains_rejects_repeated_labels(self):
        with pytest.raises(DomainError, match="duplicate label 1"):
            Cell((1, 2), [(1,)]).contains((1, 1))

    @pytest.mark.parametrize("ground", [(1,), (1, 2), (1, 2, 3), (-3, 2, 5, 9), canonical_set(5)])
    def test_total_cells_equal_their_validated_families(self, ground):
        sides = [S for r in range(1, len(ground)) for S in itertools.combinations(ground, r)]
        for i in ground:
            retarded = total_retarded_cell(ground, i)
            assert retarded == Cell(ground, [S for S in sides if i in S])


@pytest.fixture
def fresh_orbits():
    """Run the orbit walk anew, and drop whatever a patched run left."""
    _cell_orbits.cache_clear()
    yield
    _cell_orbits.cache_clear()


def insertion_cells(ground):
    return [c for c, _, _ in _insertion_enumeration(labelset(ground))]


def masks(bits):
    """The set bits of a side bitset: the position masks of its sides."""
    return [m for m in range(bits.bit_length()) if bits >> m & 1]


def rep_cell(ground, bits):
    """A side bitset of _cell_orbits as a Cell over ground, validated."""
    return Cell(ground, [[x for i, x in enumerate(ground) if m >> i & 1] for m in masks(bits)])


def side_bits(cell):
    """The positive sides of cell as one bitset over their position bitmasks."""
    at = {x: i for i, x in enumerate(cell.ground)}
    return sum(1 << sum(1 << at[x] for x in S) for S in cell.positive)


def relabelled(cell, sigma):
    """The cell moved label by label by the dict sigma, validated."""
    return Cell(cell.ground, [[sigma[x] for x in S] for S in cell.positive])


class TestCellOrbits:
    @pytest.mark.parametrize(
        "ground",
        [canonical_set(n) for n in range(6)] + [(-3, 2, 5, 9), (17, 203, 388, 512, 940)],
    )
    def test_equals_insertion_enumeration(self, ground):
        assert enumerate_cells(ground) == insertion_cells(ground)

    @pytest.mark.parametrize("n,orbits", [(0, 1), (1, 1), (2, 1), (3, 2), (4, 4), (5, 12)])
    def test_orbit_counts(self, n, orbits):
        found = _cell_orbits(n)
        assert len(found) == orbits
        assert sum(math.factorial(n) // stab for _, _, _, stab, _ in found) == verify.CELL_COUNTS[n]
        for bits, a, D, _, _ in found:  # each representative's witness, in Fraction
            x = [Fraction(v, D) for v in a]
            assert sum(x) == 0
            assert len(masks(bits)) == 2 ** n // 2 - 1 if n else bits == 0
            assert all(sum(v for i, v in enumerate(x) if m >> i & 1) > 0 for m in masks(bits))

    @pytest.mark.parametrize("ground", [canonical_set(n) for n in range(6)] + [(-3, 2, 5, 9)])
    def test_members_are_relabellings_of_the_representative(self, ground):
        # the k-th of itertools.permutations is the k-th mask permutation
        images = list(itertools.permutations(ground))
        assert len(images) == len(_mask_permutations(len(ground)))
        for bits, _, _, stab, members in _cell_orbits(len(ground)):
            rep = rep_cell(ground, bits)
            assert members[0] == (bits, 0)
            orbit = {relabelled(rep, dict(zip(ground, image))) for image in images}
            assert len(orbit) * stab == len(images)
            moved = [relabelled(rep, dict(zip(ground, images[k]))) for _, k in members]
            assert moved == [rep_cell(ground, member) for member, _ in members]
            assert set(moved) == orbit and len(moved) == len(orbit)

    @pytest.mark.parametrize("n", range(6))
    def test_every_cell_passes_validation(self, n):
        # both enumerations build their cells unchecked
        for c in enumerate_cells(canonical_set(n)) + insertion_cells(canonical_set(n)):
            assert Cell(c.ground, c.positive) == c
            assert all(S == tuple(sorted(S)) for S in c.positive)

    def test_orbit_size_check(self, fresh_orbits, monkeypatch):
        # without the identity every stabiliser loses one element
        original = cells_module._mask_permutations
        monkeypatch.setattr(cells_module, "_mask_permutations", lambda n: original(n)[1:])
        with pytest.raises(ArithmeticError, match="orbit and stabiliser sizes disagree"):
            _cell_orbits(4)

    def test_small_grounds_run_no_lp(self, fresh_orbits, monkeypatch):
        def no_lp(*args):
            raise AssertionError("an LP ran for fewer than two labels")

        monkeypatch.setattr(lp_module, "simplex_max", no_lp)
        assert enumerate_cells(()) == [Cell((), [])]
        assert enumerate_cells((7,)) == [Cell((7,), [])]
        assert _cell_orbits(1) == ((0, (0,), 1, 1, ((0, 0),)),)

    def test_bogus_multipliers_raise(self, fresh_orbits, monkeypatch):
        original = lp_module.simplex_max

        def bogus(c, A, b):
            value, x = original(c, A, b)
            return value, [x[0] + 1] + x[1:]

        monkeypatch.setattr(lp_module, "simplex_max", bogus)
        with pytest.raises(ArithmeticError, match="do not balance"):
            enumerate_cells(canonical_set(4))

    def test_non_witness_transfer_raises(self, fresh_orbits, monkeypatch):
        # the representative's own witness is negative on the flipped side
        monkeypatch.setattr(cells_module, "transfer_witness_across", lambda n, s, w, k: w)
        with pytest.raises(ArithmeticError, match="does not realise"):
            enumerate_cells(canonical_set(4))

    @pytest.mark.heavy
    def test_n6_against_insertion_enumeration(self):
        assert len(_cell_orbits(6)) == 56
        assert enumerate_cells(canonical_set(6)) == insertion_cells(canonical_set(6))


class TestMovedWitnesses:
    """Each cell's witness is its orbit representative's, moved by the
    member's permutation and checked on ints."""

    @pytest.mark.parametrize("ground", BIT_GROUNDS + [(17, 203, 388, 512, 940)])
    def test_each_witness_is_the_representatives_moved(self, ground):
        n = len(ground)
        images = list(itertools.permutations(range(n)))
        rep_witness = {bits: (a, D, k) for _, a, D, _, orbit in _cell_orbits(n) for bits, k in orbit}
        out = _enumerate_cells_cached(labelset(ground))
        assert [c for c, _, _ in out] == enumerate_cells(ground)
        for c, b, D in out:
            a, rep_D, k = rep_witness[c.bits]
            assert D == rep_D and [b[images[k][i]] for i in range(n)] == list(a)
            x = {label: Fraction(v, D) for label, v in zip(ground, b)}
            assert sum(x.values()) == 0
            assert all(sum(x[label] for label in S) > 0 for S in c.positive)

    @staticmethod
    def mutated(n, change):
        """_cell_orbits(n) with the first orbit of more than one member changed."""
        orbits = list(_cell_orbits(n))
        j = next(j for j, orbit in enumerate(orbits) if len(orbit[4]) > 1)
        orbits[j] = change(*orbits[j])
        return tuple(orbits)

    def test_wrong_permutation_index_raises(self, monkeypatch):
        # the second member keeps the representative's witness unmoved
        def identity_for_second(bits, a, D, stab, members):
            return bits, a, D, stab, (members[0], (members[1][0], 0)) + members[2:]

        wrong = self.mutated(4, identity_for_second)
        monkeypatch.setattr(cells_module, "_cell_orbits", lambda n: wrong)
        with pytest.raises(ArithmeticError, match="moved witness does not realise"):
            _enumerate_cells_cached.__wrapped__(canonical_set(4))

    def test_representative_witness_off_by_one_raises(self, monkeypatch):
        def off_by_one(bits, a, D, stab, members):
            return bits, (a[0] + 1,) + a[1:], D, stab, members

        wrong = self.mutated(4, off_by_one)
        monkeypatch.setattr(cells_module, "_cell_orbits", lambda n: wrong)
        with pytest.raises(ArithmeticError, match="moved witness does not realise"):
            _enumerate_cells_cached.__wrapped__(canonical_set(4))


def count_gordan_lps(monkeypatch):
    """The argument lists of every balanced_combination_exists call cells makes."""
    calls = []
    original = cells_module.balanced_combination_exists

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cells_module, "balanced_combination_exists", counting)
    return calls


class TestGordanReuse:
    def test_insertion_enumeration_reuses_certificates(self, monkeypatch):
        calls = count_gordan_lps(monkeypatch)
        _insertion_enumeration(canonical_set(5))
        assert len(calls) <= 100  # 645 with an LP per refutation

    def test_orbit_walk_reuses_certificates(self, fresh_orbits, monkeypatch):
        calls = count_gordan_lps(monkeypatch)
        _cell_orbits(5)
        assert len(calls) < 45

    def test_certificates_live_for_one_call(self, fresh_orbits, monkeypatch):
        # every enumeration call starts a memo of its own, empty at first use
        first_seen = {}  # id of a memo -> (the memo, kept alive; its size then)
        original = cells_module._refuted

        def recording(memo, *args):
            first_seen.setdefault(id(memo), (memo, len(memo)))
            return original(memo, *args)

        monkeypatch.setattr(cells_module, "_refuted", recording)
        for _ in range(2):
            _insertion_enumeration(canonical_set(4))
            _cell_orbits.cache_clear()
            _cell_orbits(5)
        assert [size for _, size in first_seen.values()] == [0, 0, 0, 0]

    def test_failed_recheck_raises(self, fresh_orbits, monkeypatch):
        monkeypatch.setattr(cells_module, "is_gordan_certificate", lambda *args: False)
        with pytest.raises(ArithmeticError, match="stored Gordan certificate"):
            _insertion_enumeration(canonical_set(4))
        with pytest.raises(ArithmeticError, match="stored Gordan certificate"):
            _cell_orbits(5)

    def test_certificate_without_the_new_side_raises(self, monkeypatch):
        # the singletons balance without the new side, so the prior sides
        # have no strict witness and the certificate refutes nothing new
        pos = (0, 1, 2)
        sides = [frozenset([0]), frozenset([1]), frozenset([2])]
        other = frozenset([0, 1])
        w = [Fraction(1, 3)] * 3 + [Fraction(0)]
        assert lp_module.is_gordan_certificate(pos, sides + [other], w)
        monkeypatch.setattr(cells_module, "balanced_combination_exists", lambda g, s: w)
        with pytest.raises(ArithmeticError, match="no weight on the new side"):
            _refuted({}, pos, sides, other)


class TestDynkin:
    def test_n1(self):
        assert dynkin(Cell((1,), [])) == h_elem((1,))

    def test_n2_cell(self):
        assert dynkin(Cell((1, 2), [(1,)])) == h_elem((1, 2)) - h_elem((2,), (1,))

    def test_total_retarded_spec_example(self):
        assert total_retarded_dynkin((1, 2), 2) == h_elem((1, 2)) - h_elem((1,), (2,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_primitive(self, n):
        for cell in enumerate_cells(canonical_set(n)):
            assert is_primitive(dynkin(cell))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_closed_form(self, n):
        for cell in enumerate_cells(canonical_set(n)):
            assert dynkin(cell) == closed_form_dynkin(cell)

    def test_matches_closed_form_relabelled_n5(self):
        move = {1: 9, 2: -1, 3: 4, 4: 6, 5: 2}
        for cell in enumerate_cells(canonical_set(5)):
            moved = Cell(move.values(), [[move[x] for x in S] for S in cell.positive])
            assert dynkin(moved) == closed_form_dynkin(moved)

    def test_perturbed_elements_not_primitive(self):
        candidates = [dynkin(c) for c in enumerate_cells(canonical_set(4))]
        trees = _left_normed_tree_images(4)
        assert {v.basis for v in trees} == {Q}
        for v in trees:
            assert is_primitive(to_h(v))
        candidates += trees
        comps = compositions_of(canonical_set(4))
        coeffs = (1, -1, Fraction(1, 2), -3)
        for k, v in enumerate(candidates):
            assert is_primitive(v)
            bump = basis_elem(comps[k % len(comps)], v.basis, coeffs[k % len(coeffs)])
            assert not is_primitive(v + bump)
            assert not is_primitive(v.scale(Fraction(2, 3)) - bump)

    def test_tits_factorization_single_factor(self):
        cell = Cell((1, 2), [(1,)])
        assert dynkin_tits_factorization(cell) == h_elem((1, 2)) - h_elem((2,), (1,))

    def test_tits_factorization_unit(self):
        assert dynkin_tits_factorization(Cell((1,), [])) == h_elem((1,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tits_factorization_all_cells(self, n):
        for cell in enumerate_cells(canonical_set(n)):
            assert dynkin_tits_factorization(cell) == dynkin(cell)

    def test_tits_factorization_n5_spot(self):
        cells = enumerate_cells(canonical_set(5))
        for cell in (cells[0], cells[17], cells[200]):
            assert dynkin_tits_factorization(cell) == dynkin(cell)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tits_annihilation(self, n):
        for cell in enumerate_cells(canonical_set(n)):
            d = dynkin(cell)
            for S, T in cell.channels():
                assert tits(d, basis_elem(comp(T, S))).is_zero()


class TestRealCoefficients:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_gaussian_rationals(self, n):
        # the Hopf and cell layers compute over Q: ints and Fractions only
        ground = canonical_set(n)
        comps = compositions_of(ground)
        elems = [dynkin(c) for c in enumerate_cells(ground)]
        elems += primitive_part_basis(n) + _left_normed_tree_images(n)
        elems += [antipode(basis_elem(F, H)) for F in comps]
        elems += [to_q(basis_elem(F, H)) for F in comps]
        elems += [to_h(basis_elem(F, Q)) for F in comps]
        coeffs = [c for a in elems for _, c in a.lc]
        for a in elems:
            for S, T in ordered_splits(ground):
                coeffs += [c for _, c in delta_split(a, S, T)]
        assert {type(c) for c in coeffs} <= {int, Fraction}


class TestDynkinRank:
    def test_n2(self):
        assert dynkin_rank(canonical_set(2)) == (2, 2, 2)

    def test_n4(self):
        assert dynkin_rank(canonical_set(4)) == (32, 26, 26)

    def test_n4_modular(self, monkeypatch):
        # the hot path is the certified squeeze: no exact elimination at all
        def no_exact(*args):
            raise AssertionError("dynkin_rank ran an exact elimination")

        monkeypatch.setattr(linalg_module, "_gauss_jordan", no_exact)
        assert dynkin_rank(canonical_set(4)) == (32, 26, 26)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_certified_dimension_against_exact_kernel(self, n):
        got = primitive_dimension_certified(n)
        assert type(got) is int
        assert got == len(primitive_part_basis(n))

    @pytest.mark.parametrize("ground", [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (-3, 2, 5, 9)])
    def test_rows_on_the_free_columns(self, ground, monkeypatch):
        # the free columns are the first-lump ones, N: the compositions whose
        # first lump holds the least label.  The rows restricted to N keep
        # the rank of the whole Dynkin span, which is the upper side.
        seen = []
        original = cells_module._dynkin_rows
        monkeypatch.setattr(
            cells_module, "_dynkin_rows", lambda g, columns: seen.append(original(g, columns)) or seen[-1]
        )
        n = len(ground)
        assert dynkin_rank(ground)[1] == zie_dimension(n)
        (rows,) = seen
        first = {
            tuple([sum([1 << ground.index(x) for x in L]) for L in F.lumps])
            for F in compositions_of(ground)
            if ground[0] in F.lumps[0]
        }
        assert {k for v in rows for k in v.keys()} <= first
        assert len(first) == zie_dimension(n)
        full = [dynkin(c).lc for c in enumerate_cells(ground)]
        assert rank(rows) == rank(full) == _split_nullity(n)

    def test_lost_free_column_raises(self, monkeypatch):
        # the rows lose one first-lump column and fall short of the
        # unchanged upper side
        original = cells_module._dynkin_rows
        monkeypatch.setattr(
            cells_module, "_dynkin_rows", lambda g, columns: original(g, columns ^ 1 << columns.bit_length() - 1)
        )
        with pytest.raises(ArithmeticError, match="modular bounds on the Dynkin rank disagree"):
            dynkin_rank(canonical_set(4))

    @pytest.mark.parametrize(
        "certify",
        [lambda: dynkin_rank(canonical_set(4)), lambda: primitive_dimension_certified(4)],
        ids=["dynkin_rank", "primitive_dimension_certified"],
    )
    def test_raised_nullity_raises(self, certify, monkeypatch):
        # the pivot row ((1,), (0, 2)) of the word (1, 0, 2) gains the column
        # of (1, 2, 0), whose 0 comes later: the minor of Sh_3 is no longer
        # triangular, and the upper side is refused
        original = cells_module._pivot_pairs

        def raised(x):
            yield from original(x)
            if x == (1, 2, 0):
                yield (1,), (0, 2)

        monkeypatch.setattr(cells_module, "_pivot_pairs", raised)
        with pytest.raises(
            ArithmeticError, match=r"Sh_3 is not unitriangular: column \(1, 2, 0\) in the pivot row of \(1, 0, 2\)"
        ):
            certify()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_shuffle_nullity_mod_p_is_the_minor_bound(self, k):
        # the GF(2) elimination of Sh_k, the oracle of the minor bound
        columns = shuffle_columns(k)
        assert len(columns) - rank_mod_prime(columns) == _shuffle_nullity_bound(k) == math.factorial(k - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.heavy)])
    def test_pivot_minor_is_unitriangular(self, k):
        # an index from every pair of Sh_k that can be a pivot row, (x|A,
        # x|A') with x|A nonempty and 0 first in x|A', to the words x whose
        # column holds it; A holds the letters of x before its 0 and any of
        # those after it
        holders = {}
        for x in itertools.permutations(range(k)):
            i = x.index(0)
            for keep in itertools.product((False, True), repeat=k - 1 - i):
                after = list(zip(x[i + 1:], keep))
                u = x[:i] + tuple([y for y, t in after if t])
                if u:
                    holders.setdefault((u, (0,) + tuple([y for y, t in after if not t])), []).append(x)
        pivots = 0
        for w in itertools.permutations(range(k)):
            i = w.index(0)
            if i:
                pivots += 1
                held = holders.pop((w[:i], w[i:]))
                assert held.count(w) == 1
                assert all(x.index(0) < i for x in held if x != w)
        assert pivots == math.factorial(k) - math.factorial(k - 1)

    def test_every_set_partition_holds_k_factorial_compositions(self):
        # the block structure of the Q-basis split matrix, on the lump masks
        # of the Dynkin table: each set partition with k parts holds its k!
        # lump orders
        for n in range(1, 7):
            sizes = Counter(tuple(sorted(key)) for key in _dynkin_masks(n)[0])
            partitions = {
                tuple(sorted([sum([1 << x - 1 for x in block]) for block in P]))
                for P in set_partitions(canonical_set(n))
            }
            assert set(sizes) == partitions
            assert all(size == math.factorial(len(lumps)) for lumps, size in sizes.items())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_tree_images_are_diagonal_on_the_first_lump_columns(self, n):
        # each image has one +-1 term whose first lump holds the least label,
        # a different one per image; the GF(2) rank of the images is their
        # count
        images = _left_normed_tree_images(n)
        on_n = []
        for v in images:
            (term,) = [(F, c) for F, c in v.lc if 1 in F.lumps[0]]
            assert term[1] in (1, -1)
            on_n.append(term[0])
        assert len(set(on_n)) == len(images) == zie_dimension(n)
        assert rank_mod_prime([v.lc for v in images]) == len(images)

    @pytest.mark.parametrize(
        "spoil",
        [lambda images: images + images[:1], lambda images: [images[0] + images[1]] + images[1:]],
        ids=["repeated-image", "second-first-lump-term"],
    )
    def test_tree_images_off_the_diagonal_raise(self, spoil, monkeypatch):
        original = cells_module._left_normed_tree_images
        monkeypatch.setattr(cells_module, "_left_normed_tree_images", lambda n: spoil(original(n)))
        with pytest.raises(ArithmeticError, match="not a signed permutation on the first-lump columns"):
            primitive_dimension_certified(4)

    def test_primitive_dimension_runs_no_elimination(self, monkeypatch):
        ranks = []
        real = cells_module.rank_mod_prime
        for module in (cells_module, linalg_module):
            monkeypatch.setattr(module, "rank_mod_prime", lambda vectors: ranks.append(vectors) or real(vectors))

        def no_exact(*args):
            raise AssertionError("an exact elimination ran")

        monkeypatch.setattr(linalg_module, "_gauss_jordan", no_exact)
        assert primitive_dimension_certified(5) == 150
        assert ranks == []
        # dynkin_rank keeps one elimination: the rank of its Dynkin rows
        rows = []
        original = cells_module._dynkin_rows
        monkeypatch.setattr(
            cells_module, "_dynkin_rows", lambda g, columns: rows.append(original(g, columns)) or rows[-1]
        )
        assert dynkin_rank(canonical_set(5)) == (370, 150, 150)
        assert len(ranks) == 1 and ranks[0] is rows[0]

    @pytest.mark.parametrize("ground", [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (-3, 2, 5, 9)])
    def test_shuffle_block_is_the_q_coproduct(self, ground):
        # each composition's deshuffle pairs in the library's Q-basis split
        # table, with the lumps numbered by their place in the sorted set
        # partition, are the pairs of its word's column of Sh_k
        table = _split_table(ground)
        for F in compositions_of(ground):
            k = len(F)
            number = {L: i for i, L in enumerate(sorted(F.lumps))}
            word = tuple([number[L] for L in F.lumps])
            column = shuffle_columns(k)[list(itertools.permutations(range(k))).index(word)]
            pairs = [table.pair(pid) for pid in table.row(F, Q)[1:-1] if pid >= 0]
            got = [tuple([tuple([number[L] for L in G.lumps]) for G in pair]) for pair in pairs]
            assert len(got) == 2**k - 2
            assert sorted(got) == sorted(column.keys())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.heavy)])
    def test_block_nullity_is_the_h_basis_nullity(self, n):
        columns = [v for _, v in split_columns(canonical_set(n))]
        assert _split_nullity(n) == len(columns) - rank_mod_prime(columns) == zie_dimension(n)

    def test_lower_side_is_the_dynkin_rows_alone(self, monkeypatch):
        checked = []
        original = cells_module.is_primitive
        monkeypatch.setattr(cells_module, "is_primitive", lambda a: checked.append(a) or original(a))
        trees = []
        original_trees = cells_module._left_normed_tree_images
        monkeypatch.setattr(
            cells_module, "_left_normed_tree_images", lambda n: trees.append(n) or original_trees(n)
        )
        assert dynkin_rank(canonical_set(5)) == (370, 150, 150)
        assert len(checked) == 12  # one per orbit representative
        assert trees == []

    def test_degree_zero_has_no_primitives(self):
        # the monoid is connected, so P[empty] = 0, as zie_dimension(0) says
        assert zie_dimension(0) == 0
        assert primitive_dimension_certified(0) == 0
        assert primitive_part_basis(0) == []
        assert not is_primitive(unit_elem())
        assert not is_primitive(unit_elem(Q).scale(Fraction(-2, 3)))
        assert is_primitive(zero_elem(()))

    def test_empty_ground_rejected_before_work(self, monkeypatch):
        # the empty cell's Dynkin element is the unit, which is not primitive
        def no_work(ground):
            raise AssertionError("dynkin_rank enumerated cells of the empty ground")

        monkeypatch.setattr(cells_module, "enumerate_cells", no_work)
        monkeypatch.setattr(cells_module, "_cell_orbits", no_work)
        with pytest.raises(DomainError, match="nonempty ground"):
            dynkin_rank(())
        with pytest.raises(DomainError, match="nonempty ground"):
            verify.dynkin_suite(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mod_prime_rank_is_exact_rank(self, n):
        # the GF(2) ranks of the modular squeeze, and of the H-basis split
        # matrix, against exact elimination
        columns = [v for _, v in split_columns(canonical_set(n))]
        dynkin_rows = [dynkin(c).lc for c in enumerate_cells(canonical_set(n))]
        shuffles = shuffle_columns(n)
        for vectors in (columns, dynkin_rows, shuffles):
            assert rank_mod_prime(vectors) == rank(vectors)
        assert len(columns) - rank(columns) == zie_dimension(n)
        assert len(shuffles) - rank(shuffles) == math.factorial(n - 1)

    def test_modular_path_leaves_numpy_unloaded(self):
        code = (
            "import sys, sethopf.cells as c\n"
            "assert c.dynkin_rank((1, 2, 3, 4)) == (32, 26, 26)\n"
            "print('numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_bound(self):
        with pytest.raises(SizeLimitError):
            dynkin_rank(canonical_set(7))


class TestRelabelOrbits:
    """The walk's orbit members, and the relabelling certificate of dynkin_rank."""

    @pytest.mark.parametrize(
        "ground,orbits",
        [((1,), 1), ((1, 2), 1), ((1, 2, 3), 2), ((1, 2, 3, 4), 4), ((-3, 2, 5, 9), 4), ((1, 2, 3, 4, 5), 12)],
    )
    def test_orbits_partition_the_cells(self, ground, orbits):
        n = len(ground)
        found = _cell_orbits(n)
        assert len(found) == orbits
        assert sum(math.factorial(n) // stab for _, _, _, stab, _ in found) == verify.CELL_COUNTS[n]
        covered = []
        for _, _, _, stab, members in found:
            assert len(members) * stab == math.factorial(n)
            covered += [rep_cell(ground, bits) for bits, _ in members]
        assert len(covered) == len(set(covered))  # the orbits are disjoint
        assert sorted(covered, key=Cell.sort_key) == enumerate_cells(ground)

    def test_relabelled_ground(self):
        assert dynkin_rank((-3, 2, 5, 9)) == (32, 26, 26)

    def test_corrupted_relabelled_row_raises(self, monkeypatch):
        ground = canonical_set(4)
        reps = {rep_cell(ground, bits) for bits, *_ in _cell_orbits(4)}
        victim = [c for c in enumerate_cells(ground) if c not in reps][-1]
        last = len(compositions_of(ground)) - 1
        original = cells_module._dynkin_row

        def corrupted(n, pb):
            row = original(n, pb)
            if pb == side_bits(victim):  # H_F for the last composition F comes or goes
                row ^= 1 << last
            return row

        monkeypatch.setattr(cells_module, "_dynkin_row", corrupted)
        assert not is_primitive(dynkin(victim))
        with pytest.raises(ArithmeticError, match="not a relabelling"):
            dynkin_rank(ground)

    def test_non_primitive_representative_raises(self, monkeypatch):
        # H_(I) is fixed by every relabelling, so the rows stay consistent
        # and only the representatives' own check can fail
        ground = canonical_set(4)
        assert compositions_of(ground)[0] == comp(ground)
        original = cells_module._dynkin_row

        def dropped(n, pb):
            row = original(n, pb)
            assert row & 1  # entry 0 is H_(I), a term of every Dynkin element
            return row & ~1

        monkeypatch.setattr(cells_module, "_dynkin_row", dropped)
        assert not is_primitive(dynkin(total_retarded_cell(ground, 1)))
        with pytest.raises(ArithmeticError, match="fails primitivity"):
            dynkin_rank(ground)

    @pytest.mark.parametrize("m", range(1, 15))
    @pytest.mark.parametrize(
        "spoil", [lambda z: z & z - 1, lambda z: z | 1], ids=["lost-first-entry", "gained-h-of-i"]
    )
    def test_corrupted_side_index_raises(self, m, spoil, monkeypatch):
        # Z_m loses its first entry, or gains entry 0, H_(I), which has no
        # side: the rows of the cells without m among their positive sides
        # gain or lose a term, and some row is then not primitive or not a
        # relabelling of its representative's
        original = cells_module._side_index
        index = list(original(4))
        index[m] = spoil(index[m])
        assert index[m] != original(4)[m]
        monkeypatch.setattr(cells_module, "_side_index", lambda n: tuple(index) if n == 4 else original(n))
        with pytest.raises(ArithmeticError, match="fails primitivity|not a relabelling"):
            dynkin_rank(canonical_set(4))

    def test_relabelling_that_swaps_coefficients_raises(self, monkeypatch):
        # the move of a member sends a +1 entry of its representative's row
        # where a -1 entry should go, and back: the moved entries are the
        # member's, but not their coefficients, which the check compares
        # apart
        n = 4
        (rep, _), (_, k) = _cell_orbits(n)[0][4][:2]  # the first orbit's representative and a member
        row, coeffs = _dynkin_row(n, rep), _dynkin_masks(n)[2]
        plus = next(j for j in _set_bits(row) if coeffs[j] == 1)
        minus = next(j for j in _set_bits(row) if coeffs[j] == -1)
        original = cells_module._composition_permutations

        def swapped(m):
            moves = original(m)
            moves[k][plus], moves[k][minus] = moves[k][minus], moves[k][plus]
            return moves

        monkeypatch.setattr(cells_module, "_composition_permutations", swapped)
        with pytest.raises(ArithmeticError, match="not a relabelling"):
            dynkin_rank(canonical_set(n))

    def test_one_dynkin_element_per_cell(self, monkeypatch):
        calls = []
        original = cells_module._dynkin_row
        monkeypatch.setattr(cells_module, "_dynkin_row", lambda n, pb: calls.append(pb) or original(n, pb))
        ground = canonical_set(5)
        assert dynkin_rank(ground) == (370, 150, 150)
        got = [rep_cell(ground, pb) for pb in calls]
        assert sorted(got, key=Cell.sort_key) == enumerate_cells(ground)

    @pytest.mark.parametrize(
        "ground", [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5), (-3, 2, 5, 9)]
    )
    def test_mask_rows_are_the_dynkin_elements(self, ground):
        n = len(ground)
        keys = _dynkin_masks(n)[0]
        bit = {x: 1 << i for i, x in enumerate(ground)}
        coeffs = _dynkin_masks(n)[2]
        for cell in enumerate_cells(ground):
            want = {tuple(sum(bit[x] for x in L) for L in F.lumps): c for F, c in dynkin(cell).lc}
            assert {keys[j]: coeffs[j] for j in _set_bits(_dynkin_row(n, side_bits(cell)))} == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_composition_permutations_move_every_lump(self, n):
        keys = _dynkin_masks(n)[0]
        moves = _composition_permutations(n)
        assert len(moves) == math.factorial(n)
        for img, move in zip(_mask_permutations(n), moves, strict=True):
            assert [keys[j] for j in move] == [tuple(img[m] for m in key) for key in keys]


class TestSteinmann:
    @pytest.mark.parametrize(
        "ground", [canonical_set(n) for n in range(5)] + [(-3, 2, 5, 9)]
        + [pytest.param(canonical_set(5), marks=pytest.mark.heavy)],
    )
    def test_equals_label_form(self, ground):
        assert steinmann_quadruples(ground) == label_steinmann_quadruples(ground)

    def test_n3_empty(self):
        assert steinmann_quadruples(canonical_set(3)) == []

    def test_n4_contains_s_u_channel_quadruple(self):
        quads = steinmann_quadruples(canonical_set(4))
        assert quads
        mandelstam = [{(1, 2), (3, 4)}, {(2, 3), (1, 4)}]
        found = False
        for q in quads:
            diff_first = {tuple(S) for S in q[0].positive - q[1].positive}
            diff_first |= {tuple(S) for S in q[1].positive - q[0].positive}
            diff_second = {tuple(S) for S in q[0].positive - q[3].positive}
            diff_second |= {tuple(S) for S in q[3].positive - q[0].positive}
            channels = [diff_first, diff_second]
            if all(any(ch <= m for m in mandelstam) for ch in channels) and len(channels) == 2:
                if {frozenset(c) for c in channels} == {
                    frozenset({(1, 2), (3, 4)}),
                    frozenset({(2, 3), (1, 4)}),
                }:
                    found = True
        assert found

    def test_all_relations_hold_n4(self):
        for q in steinmann_quadruples(canonical_set(4)):
            assert steinmann_relation_holds(q)

    def test_relation_span_dimension(self):
        quads = steinmann_quadruples(canonical_set(4))
        vectors = steinmann_relation_vectors(quads)
        assert vectors == [
            LinComb({s1: 1, s2: -1, s3: 1, s4: -1}) for s1, s2, s3, s4 in label_steinmann_quadruples(canonical_set(4))
        ]
        cells = len(enumerate_cells(canonical_set(4)))
        assert rank(vectors) == cells - zie_dimension(4) == 6

    def test_negative_control(self):
        quads = steinmann_quadruples(canonical_set(4))
        s1, s2, s3, s4 = quads[0]
        varying = (s1.positive ^ s2.positive) | (s1.positive ^ s4.positive)
        broken = None
        for S in sorted(s1.positive):
            if S in varying:
                continue
            candidate = (s1.flip(S), s2, s3, s4)
            if not steinmann_relation_holds(candidate):
                broken = candidate
                break
        assert broken is not None


class TestTrees:
    def test_leaf(self):
        assert tree_to_primitive(leaf((1, 2, 3))) == q_elem((1, 2, 3))

    def test_single_node(self):
        t = node(leaf((1,)), leaf((2,)))
        assert tree_to_primitive(t) == q_elem((1,), (2,)) - q_elem((2,), (1,))

    def test_nested(self):
        t = node(node(leaf((1,)), leaf((2,))), leaf((3,)))
        expected = (
            q_elem((1,), (2,), (3,))
            - q_elem((2,), (1,), (3,))
            - q_elem((3,), (1,), (2,))
            + q_elem((3,), (2,), (1,))
        )
        assert tree_to_primitive(t) == expected

    def test_images_primitive(self):
        t = node(leaf((1, 3)), leaf((2,)))
        assert is_primitive(to_h(tree_to_primitive(t)))

    def test_bracket_homomorphism(self):
        t1, t2 = leaf((1,)), leaf((2,))
        img = to_h(tree_to_primitive(node(t1, t2)))
        assert img == commutator(to_h(tree_to_primitive(t1)), to_h(tree_to_primitive(t2)))

    def test_disjointness_enforced(self):
        with pytest.raises(DomainError):
            node(leaf((1,)), leaf((1, 2)))


class TestCommutator:
    def test_singletons(self):
        assert commutator(h_elem((1,)), h_elem((2,))) == h_elem((1,), (2,)) - h_elem((2,), (1,))

    def test_two_routes_agree(self):
        lhs = commutator(to_h(q_elem((1,))), to_h(q_elem((2,))))
        rhs = to_h(tree_to_primitive(node(leaf((1,)), leaf((2,)))))
        assert lhs == rhs

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            commutator(h_elem((1,)), h_elem((1,)))

    def test_preserves_primitivity(self):
        import random

        from sethopf.hopf import primitive_part_basis, relabel

        rng = random.Random(3)
        for _ in range(5):
            p = rng.choice(primitive_part_basis(2))
            q0 = rng.choice(primitive_part_basis(2))
            q = relabel(q0, {1: 3, 2: 4})
            assert is_primitive(commutator(p, q))


class TestRuelle:
    @pytest.mark.parametrize(
        "ground", [canonical_set(n) for n in range(5)] + [(-3, 2, 5, 9)]
        + [pytest.param(canonical_set(5), marks=pytest.mark.heavy)],
    )
    def test_equals_label_form(self, ground):
        assert list(ruelle_configurations(ground)) == list(label_ruelle_configurations(ground))
        bridges = enumerate_cells(ground)
        for S, T in proper_splits(ground):
            for c1 in enumerate_cells(S):
                for c2 in enumerate_cells(T):
                    for bridge in bridges:
                        want = label_is_ruelle_bridge(c1, c2, bridge)
                        assert is_ruelle_bridge(c1, c2, bridge) is want

    def test_bridge_preconditions(self):
        c1, c2 = Cell((1, 2), [(1,)]), Cell((3,), [])
        with pytest.raises(DomainError, match="disjoint"):
            is_ruelle_bridge(c1, Cell((2,), []), Cell((1, 2), [(1,)]))
        with pytest.raises(DomainError, match="union"):
            is_ruelle_bridge(c1, c2, Cell((1, 2, 4), [(1, 2), (1,), (1, 4)]))

    def test_singleton_example(self):
        c1 = Cell((1,), [])
        c2 = Cell((2,), [])
        bridge = Cell((1, 2), [(1,)])
        assert ruelle_check(c1, c2, bridge)

    def test_hand_computed_n3(self):
        c1 = Cell((1, 2), [(1,)])
        c2 = Cell((3,), [])
        bridge = Cell((1, 2, 3), [(1, 2), (1,), (1, 3)])
        assert is_ruelle_bridge(c1, c2, bridge)
        assert ruelle_check(c1, c2, bridge)

    def test_bad_bridge_rejected(self):
        c1 = Cell((1, 2), [(1,)])
        c2 = Cell((3,), [])
        # orients the internal channel of S against cell1
        bad = Cell((1, 2, 3), [(1, 2), (2,), (2, 3)])
        assert not is_ruelle_bridge(c1, c2, bad)
        with pytest.raises(DomainError):
            ruelle_check(c1, c2, bad)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive(self, n):
        count = 0
        for c1, c2, bridge in ruelle_configurations(canonical_set(n)):
            assert ruelle_check(c1, c2, bridge)
            count += 1
        assert count > 0


def fold_glz_rhs(ground, i1, i2):
    """Reference: the right side of the GLZ relation as a fold of ``+``."""
    rhs = None
    for S, T in proper_splits(ground):
        if i1 in S and i2 in T:
            term = commutator(total_retarded_dynkin(S, i1), total_retarded_dynkin(T, i2))
            rhs = term if rhs is None else rhs + term
    return rhs


class TestGLZ:
    def test_n2(self):
        assert glz_check((1, 2), 1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_right_side_equals_the_fold_in_key_order(self, n, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cells_module, "lincomb_sum", lambda parts: seen.append(lincomb_sum(parts)) or seen[-1]
        )
        ground = canonical_set(n)
        for i1, i2 in itertools.permutations(ground, 2):
            assert glz_check(ground, i1, i2)
            want = fold_glz_rhs(ground, i1, i2).lc
            assert seen[-1] == want and list(seen[-1].keys()) == list(want.keys())
        assert len(seen) == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_pairs(self, n):
        ground = canonical_set(n)
        for i1 in ground:
            for i2 in ground:
                if i1 != i2:
                    assert glz_check(ground, i1, i2)

    def test_bad_labels(self):
        with pytest.raises(DomainError):
            glz_check((1, 2), 1, 3)

    def test_total_retarded_cell_structure(self):
        cell = total_retarded_cell((1, 2, 3), 2)
        assert all(2 in S for S in cell.positive)
        ok, _ = is_cell(cell.ground, cell.positive)
        assert ok
