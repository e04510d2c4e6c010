"""Cells of the adjoint braid arrangement, Dynkin elements, and the
Steinmann/Ruelle/GLZ identities of the primitive-part Lie algebra.

A cell over I orients every two-lump channel (S, I\\S) so that the chosen
positive sides are simultaneously realizable by a sum-zero rational vector
(a maximal unbalanced family).  Realizability is decided by exact linear
programming; a rejection may reuse a Gordan certificate, re-checked exactly,
that the same enumeration call found on a subset of the sides.
``_cell_orbits`` walks the flip graph one S_n orbit at a time and expands
each orbit once, keeping its members; ``enumerate_cells`` lists them,
``enumerate_cells_with_witnesses`` gives each the witness of its orbit's
representative moved by the member's permutation and checked on ints, and
``dynkin_rank`` builds its rows from them.  The insertion enumeration
(``_insertion_enumeration``), which adds one channel hyperplane at a time
and prunes infeasible sign prefixes, is the oracle for the walk; only the
tests and the heavy acceptance run call it.  Both decide a flipped side with
``_flip_witness``.
A cell is its ground and one int, its side bitset: bit m is set iff the
side at the positions of the set bits of m, in the sorted ground, is
positive.  The walk, the Dynkin elements, the Steinmann quadruples and the
Ruelle bridges read and write that int.  Label tuples are made only for
readers outside the layer (``Cell.positive``, ``channels``, ``sort_key``,
the repr), and the validating ``Cell(...)`` takes them at the boundary.
Dynkin elements are read from one table per n in mask form,
``_dynkin_masks``: a cell's element holds every composition whose reversed
coarsenings' sides lie in its side bitset, so its row, an int bitset over
the table, is every entry but those of Z_m (``_side_index``) for each mask
m outside the cell.
The primitive dimension is certified over Q with no elimination.  Above: on
the Q-basis, Delta_{S,T}(Q_F) is Q_{F|S} (x) Q_{F|T} when S is a union of
lumps of F, and 0 otherwise, so the split matrix, whose kernel is the
primitive part, is block-diagonal over set partitions; a block with k parts
is the shuffle matrix Sh_k.  A word w = u.0.v with u nonempty has the pivot
row (u, 0v), held by the columns x that shuffle u and 0v (``_pivot_pairs``):
0 comes after at most |u| letters of x, and after exactly |u| only for
x = w.  So the words not starting with 0 and their pivot rows form a
unitriangular minor, and Sh_k has nullity at most (k - 1)!.  Below: each
left-normed tree image has one +-1 term on the first-lump columns N, the
compositions whose first lump holds the least label, a different one per
image; so the images restricted to N are a signed permutation matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, lcm
from operator import or_
from typing import Iterable, Iterator, Sequence

from .compositions import (
    Composition,
    LabelSet,
    canonical_set,
    compositions_of,
    labelset,
    proper_splits,
    set_partitions,
    subsets_by_mask,
    zie_dimension,
)
from .errors import DomainError, check_size
from .hopf import (
    H,
    Q,
    SigmaElem,
    basis_elem,
    is_primitive,
    mu,
)
from .lincomb import LinComb, lincomb_sum, sparse_sum
from .linalg import _bitset, rank_mod_prime
from .lp import (
    balanced_combination_exists,
    is_gordan_certificate,
    partition_infeasible,
    strict_positive_witness,
    transfer_witness_across,
)
from .hadamard import tits, tits_unit

# ---------------------------------------------------------------------------
# cells


class Cell:
    """An orientation of all two-lump channels over a ground set, held as one
    int: bit m of ``bits`` is set iff the side at the positions of the set
    bits of m, in the sorted ground, is positive.  ``Cell(...)`` validates
    label sides; ``Cell._of`` takes the bitset unchecked."""

    __slots__ = ("ground", "bits")

    def __init__(self, ground: Iterable[int], positive: Iterable[Iterable[int]]):
        ground = labelset(ground)
        pos = frozenset(labelset(S) for S in positive)
        full = (1 << len(ground)) - 1
        masks = {S: _side_mask(ground, S) for S in pos}
        present = set(masks.values())
        for S, m in masks.items():
            if not 0 < m < full:
                raise DomainError(f"{S} is not a proper nonempty subset of the ground")
            if full ^ m in present:
                raise DomainError(f"both orientations of channel {S} present")
        if len(pos) != full // 2:
            raise DomainError("family does not orient every complementary pair")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "bits", sum([1 << m for m in present]))

    @classmethod
    def _of(cls, ground: LabelSet, bits: int) -> "Cell":
        """Unchecked: ground is sorted, bits holds one side of every channel."""
        self = object.__new__(cls)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "bits", bits)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Cell is immutable")

    def _sides(self) -> list[LabelSet]:
        labels = subsets_by_mask(self.ground)
        return sorted([labels[m] for m in _set_bits(self.bits)])

    @property
    def positive(self) -> frozenset:
        """The positive sides as sorted label tuples."""
        return frozenset(self._sides())

    def channels(self) -> Iterator[tuple[LabelSet, LabelSet]]:
        labels = subsets_by_mask(self.ground)
        full = len(labels) - 1
        for S, m in sorted([(labels[m], m) for m in _set_bits(self.bits)]):
            yield S, labels[full ^ m]

    def contains(self, S: Iterable[int]) -> bool:
        return bool(self.bits >> _side_mask(self.ground, labelset(S)) & 1)  # no cell sets bit 0 or bit full

    def flip(self, S: Iterable[int]) -> "Cell":
        """The family with the channel of S reoriented (may or may not be a cell)."""
        S = labelset(S)
        m, full = _side_mask(self.ground, S), (1 << len(self.ground)) - 1
        if not 0 < m < full:
            raise DomainError(f"{S} is not a channel side of this ground set")
        return Cell._of(self.ground, self.bits ^ (1 << m | 1 << (full ^ m)))

    def sort_key(self):
        return (self.ground, tuple(self._sides()))

    def __eq__(self, other):
        return isinstance(other, Cell) and self.ground == other.ground and self.bits == other.bits

    def __hash__(self):
        return hash((self.ground, self.bits))

    def __repr__(self):
        def fmt(labels):
            if all(1 <= x <= 9 for x in labels):
                return "".join(map(str, labels))
            return "{" + " ".join(map(str, labels)) + "}"

        sides = ",".join(fmt(S) for S in self._sides())
        return f"Cell[{fmt(self.ground)}:{sides}]"


def _side_mask(ground: LabelSet, S: Sequence[int]) -> int:
    """The bitmask of the positions in ground of the labels S, or 0 if one is off it."""
    return sum([1 << ground.index(x) for x in S]) if set(S) <= set(ground) else 0


def _sort_key_order(n: int):
    """A key on the side lists (``_set_bits``) of cells over one ground of
    size n that orders them as ``Cell.sort_key`` does: the sorted places of
    their sides in the order of position tuples, the order of label tuples."""
    place = [0] * (1 << n)
    for r, m in enumerate(sorted(range(1 << n), key=_set_bits)):
        place[m] = r
    return lambda sides: sorted([place[m] for m in sides])


_FLAG = bytes.maketrans(b"01", b"\0\1")


def _set_bits(x: int, items: Iterable | None = None) -> list:
    """The positions of the set bits of x >= 0, ascending; or, given items,
    the item at each of those positions."""
    flags = bin(x)[:1:-1].encode().translate(_FLAG)  # byte t is bit t of x
    return list(itertools.compress(itertools.count() if items is None else items, flags))


def channel_representatives(ground: LabelSet) -> list[LabelSet]:
    """One canonical side per complementary pair: the side missing max(ground)."""
    rest = labelset(ground)[:-1]  # ordered by (size, labels)
    return [S for r in range(1, len(rest) + 1) for S in itertools.combinations(rest, r)]


def is_cell(
    ground: Iterable[int], positive: Iterable[Iterable[int]]
) -> tuple[bool, dict[int, Fraction] | None]:
    """Decide realizability of an oriented family; returns (flag, witness)."""
    family = Cell(ground, positive)  # validates the pair structure
    if len(family.ground) < 2:
        return True, {l: Fraction(0) for l in family.ground}
    witness = strict_positive_witness(family.ground, sorted(family.positive))
    return (witness is not None), witness


def _int_witness(x: dict[int, Fraction] | None, n: int) -> tuple[list[int], int]:
    """An LP witness over positions 0..n-1 as (a, D), x = a / D in lowest terms."""
    if x is None:
        raise ArithmeticError("the LP found no strict witness where one must exist")
    D = lcm(*(q.denominator for q in x.values()))
    return [x[i].numerator * (D // x[i].denominator) for i in range(n)], D


def _refuted(memo: dict, pos: tuple[int, ...], sides: list[frozenset], other: frozenset) -> bool:
    """Whether sides + [other] has Gordan multipliers.  sides has a strict witness,
    so every certificate weighs other.  ``memo`` maps other to the (support,
    weights) found so far; one whose support lies among sides is re-checked exactly."""
    have = set(sides)
    for support, w in memo.setdefault(other, []):
        if have.issuperset(support):
            if is_gordan_certificate(pos, support + [other], w):
                return True
            raise ArithmeticError("a stored Gordan certificate does not balance the sides")
    w = balanced_combination_exists(pos, sides + [other])
    if w is not None:
        if not w[-1]:
            raise ArithmeticError("Gordan multipliers put no weight on the new side")
        memo[other].append(([S for S, x in zip(sides, w) if x], [x for x in w if x]))
    return w is not None


def _flip_witness(
    memo: dict, pos: tuple[int, ...], sides: list[frozenset], witness, kept, other
) -> tuple[list[int], int] | None:
    """A witness (a, D) of sides + [other], or None when that family is no
    cell, given the witness (a, D) of sides + [kept].  Decided in this order:
    rejected by ``partition_infeasible``, accepted with
    ``transfer_witness_across``, rejected by Gordan multipliers (``_refuted``),
    accepted with ``strict_positive_witness``."""
    n = len(pos)
    if partition_infeasible(n, sides, other):
        return None
    moved = transfer_witness_across(n, sides, witness, kept)
    if moved is not None or _refuted(memo, pos, sides, other):
        return moved
    return _int_witness(strict_positive_witness(pos, sides + [other]), n)


def _insertion_enumeration(ground: LabelSet) -> tuple[tuple[Cell, tuple[int, ...], int], ...]:
    """Each cell over ground with its witness (a, D), x[ground[i]] = a[i] / D,
    by the insertion enumeration.  It is the oracle for the orbit walk; only
    the tests and the heavy acceptance run call it.

    The enumeration runs on the positions 0..n-1, whose order is the labels'
    order, so every LP sees the rows it would see on the labels.  Its Gordan
    certificates are kept for this call only (``_refuted``).  Every state
    keeps a checked witness, so its cell is built unchecked (``Cell._of``).
    """
    n = len(ground)
    pos = tuple(range(n))
    reps = [(frozenset(S), frozenset(pos) - frozenset(S)) for S in channel_representatives(pos)]

    # states: (oriented sides chosen so far, as sets of positions; witness a, D)
    states: list[tuple[list[frozenset], list[int], int]] = [([], [0] * n, 1)]
    memo: dict[frozenset, list] = {}  # this call's Gordan certificates, see _refuted
    for S, comp in reps:
        nxt: list[tuple[list[frozenset], list[int], int]] = []
        for sides, a, D in states:
            val = sum([a[i] for i in S])
            kept, other = (S, comp) if val > 0 else (comp, S)
            if val == 0:
                # witness sits on the new hyperplane: the chamber is split or
                # lies on one side; find a strict witness for some side
                w0 = strict_positive_witness(pos, sides + [kept])
                if w0 is None:
                    kept, other = other, kept
                    w0 = strict_positive_witness(pos, sides + [kept])
                a, D = _int_witness(w0, n)
            nxt.append((sides + [kept], a, D))
            # the opposite side needs its own proof or refutation
            moved = _flip_witness(memo, pos, sides, (a, D), kept, other)
            if moved is not None:
                nxt.append((sides + [other], *moved))
        states = nxt
    out = [
        (Cell._of(ground, sum([1 << sum([1 << i for i in S]) for S in sides])), tuple(a), D)
        for sides, a, D in states
    ]
    order = _sort_key_order(n)
    out.sort(key=lambda c: order(_set_bits(c[0].bits)))
    return tuple(out)


def _mask_permutations(n: int) -> list[list[int]]:
    """For each permutation p of the positions 0..n-1, the image of every
    position mask under p: bit i of a mask moves to bit p[i].  The first is
    the identity."""
    out = []
    for p in itertools.permutations(range(n)):
        img = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            img[m] = img[m ^ low] | 1 << p[low.bit_length() - 1]
        out.append(img)
    return out


@lru_cache(maxsize=None)
def _cell_orbits(n: int) -> tuple[tuple, ...]:
    """The cells over the positions 0..n-1 up to relabelling, one entry per
    S_n orbit: (the representative's side bitset, as ``Cell.bits``, its
    witness a and D, x = a / D, the size of its stabiliser, its members).
    The members are the orbit's cells, each as (its side bitset, the index
    in ``_mask_permutations(n)`` of a permutation that carries the
    representative onto it); the representative comes first, with the
    identity, index 0.

    A walk over the flip graph, whose chambers are joined by wall flips, one
    representative at a time.  It starts from the total retarded cell of
    position 0, with the witness n - 1 at position 0 and -1 elsewhere.  Each
    side S of each representative R is flipped; a flipped family that no
    orbit found so far covers is decided by ``_flip_witness`` from R's
    witness.  An accepted family becomes a representative: its witness is
    checked on ints to sum to 0 and to be > 0 on every side, it is expanded
    once over all n! mask permutations, and its stabiliser, counted
    directly, must give n! / |Stab| distinct images, its members.  So
    sum n! / |Stab| counts the cells.  A failed check raises
    ArithmeticError.  Flips commute with relabelling, every flip of every
    representative is decided, and the flip graph is connected, so the walk
    reaches every orbit.
    """
    if n < 2:
        return ((0, (0,) * n, 1, 1, ((0, 0),)),)
    full = (1 << n) - 1
    pos = tuple(range(n))
    in_mask = [frozenset(i for i in pos if m >> i & 1) for m in range(full + 1)]
    perms = _mask_permutations(n)
    covered: set[int] = set()
    reps: list[tuple[int, list[int], int, int, dict]] = []
    memo: dict[frozenset, list] = {}  # this call's Gordan certificates, see _refuted

    def accept(bits: int, a: list[int], D: int) -> None:
        sides = _set_bits(bits)
        if D <= 0 or sum(a) != 0 or any(sum([a[i] for i in in_mask[m]]) <= 0 for m in sides):
            raise ArithmeticError("a representative's witness does not realise it")
        images = [sum([1 << img[m] for m in sides]) for img in perms]
        orbit: dict[int, int] = {}  # each image, with the first permutation reaching it
        for k, image in enumerate(images):
            orbit.setdefault(image, k)
        stab = images.count(bits)
        if len(orbit) * stab != len(perms):
            raise ArithmeticError("orbit and stabiliser sizes disagree")
        covered.update(orbit)
        reps.append((bits, a, D, stab, orbit))

    accept(sum([1 << m for m in range(1, full) if m & 1]), [n - 1] + [-1] * (n - 1), 1)
    for bits, a, D, _, _ in reps:  # grows as the walk finds new orbits
        sides = _set_bits(bits)
        for S in sides:
            flipped = bits ^ (1 << S | 1 << (full ^ S))
            if flipped in covered:
                continue
            rest = [in_mask[m] for m in sides if m != S]
            moved = _flip_witness(memo, pos, rest, (a, D), in_mask[S], in_mask[full ^ S])
            if moved is not None:
                accept(flipped, *moved)
    return tuple(
        (bits, tuple(a), D, stab, tuple(orbit.items())) for bits, a, D, stab, orbit in reps
    )


@lru_cache(maxsize=None)
def _enumerate_cells_cached(ground: LabelSet) -> tuple[tuple[Cell, tuple[int, ...], int], ...]:
    """Each cell over ground with its witness (a, D), x[ground[i]] = a[i] / D,
    from the orbits of ``_cell_orbits``, in the order of ``enumerate_cells``.

    A member reached from its representative by the permutation p of the
    positions takes the representative's witness moved by p, b[p[i]] = a[i],
    with the same D: side p(S) of the member sums to a(S).  Every moved
    witness is checked on ints, by its subset sums over all position masks:
    D > 0, the whole ground sums to 0 and every positive side to more than 0.
    A failed check raises ArithmeticError.
    """
    n = len(ground)
    full = (1 << n) - 1
    perms = list(itertools.permutations(range(n)))  # the order of _mask_permutations(n)
    order = _sort_key_order(n)
    out = []
    for _, a, D, _, orbit in _cell_orbits(n):
        for bits, k in orbit:
            b = [0] * n
            for i, x in zip(perms[k], a):
                b[i] = x
            sums = [0] * (full + 1)
            for m in range(1, full + 1):
                low = m & -m
                sums[m] = sums[m ^ low] + b[low.bit_length() - 1]
            sides = _set_bits(bits)  # listed once, for the check and the order
            if D <= 0 or sums[full] or any(sums[m] <= 0 for m in sides):
                raise ArithmeticError(f"the moved witness does not realise {Cell._of(ground, bits)}")
            out.append((order(sides), Cell._of(ground, bits), tuple(b), D))
    out.sort(key=lambda c: c[0])  # distinct cells have distinct keys
    return tuple([c[1:] for c in out])


def enumerate_cells(I: Iterable[int]) -> list[Cell]:
    """All cells over I, deterministically ordered: the members of every
    orbit of ``_cell_orbits``, on the labels of I."""
    ground = labelset(I)
    n = len(ground)
    check_size("cells", n)
    members = [bits for *_, orbit in _cell_orbits(n) for bits, _ in orbit]
    order = _sort_key_order(n)
    return [Cell._of(ground, bits) for bits in sorted(members, key=lambda bits: order(_set_bits(bits)))]


def enumerate_cells_with_witnesses(I: Iterable[int]) -> list[tuple[Cell, dict[int, Fraction]]]:
    """All cells over I with a strict rational witness each, as a fresh dict."""
    ground = labelset(I)
    check_size("cells", len(ground))
    return [
        (c, {l: Fraction(x, D) for l, x in zip(ground, a)})
        for c, a, D in _enumerate_cells_cached(ground)
    ]


# ---------------------------------------------------------------------------
# Dynkin elements


@lru_cache(maxsize=None)
def _dynkin_masks(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """The Dynkin table over the positions 0..n-1, one entry per composition
    F in the order of ``compositions_of``: F's lump bitmasks, the bitset over
    the 2^n side masks of the S-sides of the two-lump coarsenings of
    opposite(F), and the coefficient of H_F in a Dynkin element.  Those
    S-sides are the proper suffix unions of F's lump masks, so the table is
    built from the masks alone.  An order-preserving relabelling keeps the
    order, so entry j stands for the j-th composition of any ground of size
    n."""
    keys, sbs, coeffs = [], [], []
    for F in compositions_of(canonical_set(n)):  # label x is at position x - 1
        key = tuple([sum([1 << x - 1 for x in L]) for L in F.lumps])
        side = sb = 0
        for m in reversed(key[1:]):
            side |= m
            sb |= 1 << side
        keys.append(key)
        sbs.append(sb)
        coeffs.append(-1 if len(key) % 2 == 0 else 1)
    return tuple(keys), tuple(sbs), tuple(coeffs)


@lru_cache(maxsize=None)
def _side_index(n: int) -> tuple[int, ...]:
    """The side index of ``_dynkin_masks(n)``: for each side mask m over the
    positions 0..n-1, Z_m, the bitset of the entries that have m as a side."""
    sbs = _dynkin_masks(n)[1]
    return tuple([_bitset([j for j, sb in enumerate(sbs) if sb >> m & 1], len(sbs)) for m in range(1 << n)])


def _dynkin_row(n: int, pb: int) -> int:
    """The Dynkin element of the cell over the positions 0..n-1 whose
    positive side masks are the set bits of pb, as the bitset of its
    entries of ``_dynkin_masks(n)``, entry j with that table's coefficient:
    F is a term iff none of its sides is a mask outside pb, so the row is
    every entry but those of Z_m (``_side_index``) for each such m."""
    off = reduce(or_, [z for m, z in enumerate(_side_index(n)) if not pb >> m & 1], 0)
    return (1 << len(_dynkin_masks(n)[1])) - 1 & ~off


def dynkin(cell: Cell) -> SigmaElem:
    """- sum over compositions F whose reversed two-lump coarsenings lie in
    the cell of (-1)^(number of lumps) H_F, read from ``_dynkin_row``."""
    comps, coeffs = compositions_of(cell.ground), _dynkin_masks(len(cell.ground))[2]
    terms = {comps[j]: coeffs[j] for j in _set_bits(_dynkin_row(len(cell.ground), cell.bits))}
    return SigmaElem._of(cell.ground, LinComb._of(terms), H)


def dynkin_tits_factorization(cell: Cell) -> SigmaElem:
    """The same element as the Tits product of the factors H_(I) - H_(T,S)."""
    ground = cell.ground
    out = tits_unit(ground)
    for S, T in cell.channels():
        factor = tits_unit(ground) - basis_elem(Composition((T, S)), H)
        out = tits(out, factor)
    return out


def total_retarded_cell(I: Iterable[int], i: int) -> Cell:
    """The cell whose positive sides are exactly the subsets containing i."""
    ground = labelset(I)
    if i not in ground:
        raise DomainError(f"label {i} not in ground set")
    bit, full = 1 << ground.index(i), (1 << len(ground)) - 1
    return Cell._of(ground, sum([1 << m for m in range(1, full) if m & bit]))


def total_retarded_dynkin(I: Iterable[int], i: int) -> SigmaElem:
    return dynkin(total_retarded_cell(I, i))


# ---------------------------------------------------------------------------
# Steinmann relations


def steinmann_quadruples(I: Iterable[int]) -> list[tuple[Cell, Cell, Cell, Cell]]:
    """All quadruples of genuine cells differing only in the four orientation
    patterns of one fixed pair (A, B) of crossing channels, whose four
    mutual intersections are nonempty: A and B positive, A flipped, both
    flipped, B flipped.  A comes before B in ``channel_representatives``
    order.  Read on the side bitsets, and ordered as the cells are, by
    ``Cell.sort_key``."""
    ground = labelset(I)
    cells = enumerate_cells(ground)
    index = {c.bits: k for k, c in enumerate(cells)}
    n = len(ground)
    full = (1 << n) - 1
    reps = [sum([1 << i for i in S]) for S in channel_representatives(range(n))]
    quads = []
    for j, a in enumerate(reps):
        for b in reps[j + 1:]:
            if not (a & b and a & ~b and b & ~a and full & ~(a | b)):
                continue
            fa, fb = 1 << a | 1 << (full ^ a), 1 << b | 1 << (full ^ b)
            for bits, k in index.items():
                if bits >> a & 1 and bits >> b & 1:
                    q = (k, index.get(bits ^ fa), index.get(bits ^ fa ^ fb), index.get(bits ^ fb))
                    if None not in q:
                        quads.append(q)
    quads.sort()
    return [tuple([cells[k] for k in q]) for q in quads]


def steinmann_relation_holds(quad: Sequence[Cell]) -> bool:
    s1, s2, s3, s4 = quad
    total = dynkin(s1) - dynkin(s2) + dynkin(s3) - dynkin(s4)
    return total.is_zero()


def steinmann_relation_vectors(quads: Iterable[Sequence[Cell]]) -> list[LinComb]:
    """The alternating-sum vectors e1 - e2 + e3 - e4 in the span of cells,
    one per quadruple of four distinct cells, as ``steinmann_quadruples``
    gives them."""
    return [LinComb({s1: 1, s2: -1, s3: 1, s4: -1}) for s1, s2, s3, s4 in quads]


# ---------------------------------------------------------------------------
# trees and the embedding of the free Lie structure


class Tree:
    """A full binary tree whose leaves are disjoint nonempty label blocks."""

    __slots__ = ("block", "left", "right", "ground")

    def __init__(self, block=None, left=None, right=None):
        if block is not None:
            block = labelset(block)
            if not block:
                raise DomainError("tree leaves must be nonempty")
            object.__setattr__(self, "block", block)
            object.__setattr__(self, "left", None)
            object.__setattr__(self, "right", None)
            object.__setattr__(self, "ground", block)
            return
        if not isinstance(left, Tree) or not isinstance(right, Tree):
            raise DomainError("internal tree nodes need two subtrees")
        if set(left.ground) & set(right.ground):
            raise DomainError("tree subtrees must have disjoint grounds")
        object.__setattr__(self, "block", None)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "ground", tuple(sorted(left.ground + right.ground)))

    def __setattr__(self, *a):
        raise AttributeError("Tree is immutable")

    def is_leaf(self) -> bool:
        return self.block is not None

    def __repr__(self):
        if self.is_leaf():
            return "".join(map(str, self.block))
        return f"[{self.left!r},{self.right!r}]"


def leaf(labels: Iterable[int]) -> Tree:
    return Tree(block=labels)


def node(left: Tree, right: Tree) -> Tree:
    return Tree(left=left, right=right)


def _signed_debracketings(t: Tree) -> list[tuple[tuple, int]]:
    if t.is_leaf():
        return [((t.block,), 1)]
    out = []
    for la, sa in _signed_debracketings(t.left):
        for lb, sb in _signed_debracketings(t.right):
            out.append((la + lb, sa * sb))
            out.append((lb + la, -sa * sb))
    return out


def tree_to_primitive(t: Tree) -> SigmaElem:
    """The alternating sum over node flips, in the Q-basis."""
    # the debracketings concatenate the tree's disjoint sorted blocks
    lc = sparse_sum((Composition._of(lumps, t.ground), sign) for lumps, sign in _signed_debracketings(t))
    return SigmaElem._of(t.ground, lc, Q)


def commutator(a: SigmaElem, b: SigmaElem) -> SigmaElem:
    """The species commutator mu(a (x) b) - mu(b (x) a) over disjoint grounds."""
    return mu(a, b) - mu(b, a)


# ---------------------------------------------------------------------------
# Ruelle's identity


def _bridge_sides(ground: LabelSet, cell1: Cell, cell2: Cell) -> int:
    """The bitset, over the side masks of ground, of every side U a bridge of
    (cell1, cell2) may hold positive: each of U n S and U n T is empty, the
    whole part, or a positive side of cell1 (for U n S) or of cell2 (for
    U n T), lifted to ground.  S, the ground of cell1, passes."""
    parts = []
    for cell in (cell1, cell2):
        whole, labels = _side_mask(ground, cell.ground), subsets_by_mask(cell.ground)
        parts.append((whole, {0, whole, *[_side_mask(ground, labels[m]) for m in _set_bits(cell.bits)]}))
    (s, ok1), (t, ok2) = parts
    return sum([1 << u for u in range(1, s | t) if u & s in ok1 and u & t in ok2])


def is_ruelle_bridge(cell1: Cell, cell2: Cell, bridge: Cell) -> bool:
    """Whether bridge sits over the face spanned by cell1 and cell2, on the
    (S, T) side of the separating hyperplane: S, the ground of cell1, is
    positive in bridge, and every positive side of bridge is allowed by
    ``_bridge_sides``."""
    S, T = cell1.ground, cell2.ground
    if set(S) & set(T):
        raise DomainError("cell grounds must be disjoint")
    if bridge.ground != tuple(sorted(S + T)):
        raise DomainError("bridge ground must be the union of the cell grounds")
    if not bridge.bits >> _side_mask(bridge.ground, S) & 1:
        return False
    return not bridge.bits & ~_bridge_sides(bridge.ground, cell1, cell2)


def ruelle_check(cell1: Cell, cell2: Cell, bridge: Cell) -> bool:
    """[D_cell1, D_cell2] = D_bridge - D_(bridge with (S,T) flipped)."""
    S = cell1.ground
    if not is_ruelle_bridge(cell1, cell2, bridge):
        raise DomainError("bridge does not dominate the pair of cells on the (S,T) side")
    flipped = bridge.flip(S)
    ok, _ = is_cell(flipped.ground, flipped.positive)
    if not ok:
        raise DomainError("flipped bridge family is not realizable")
    lhs = commutator(dynkin(cell1), dynkin(cell2))
    rhs = dynkin(bridge) - dynkin(flipped)
    return lhs == rhs


def ruelle_configurations(I: Iterable[int]) -> Iterator[tuple[Cell, Cell, Cell]]:
    """All (cell1, cell2, bridge) triples satisfying the bridge condition."""
    ground = labelset(I)
    all_cells = enumerate_cells(ground)
    for S, T in proper_splits(ground):
        s = _side_mask(ground, S)
        over_s = [(b.bits, b) for b in all_cells if b.bits >> s & 1]
        cells_t = enumerate_cells(T)
        for c1 in enumerate_cells(S):
            for c2 in cells_t:
                outside = ~_bridge_sides(ground, c1, c2)
                for bits, bridge in over_s:
                    if not bits & outside:
                        yield c1, c2, bridge


# ---------------------------------------------------------------------------
# GLZ relation


def glz_check(I: Iterable[int], i1: int, i2: int) -> bool:
    """D_{i1} - D_{i2} = sum over (S,T) with i1 in S, i2 in T of the species
    commutators of the lump-internal total Dynkin elements."""
    ground = labelset(I)
    if i1 not in ground or i2 not in ground or i1 == i2:
        raise DomainError("need two distinct labels inside the ground set")
    lhs = total_retarded_dynkin(ground, i1) - total_retarded_dynkin(ground, i2)
    rhs = lincomb_sum(
        commutator(total_retarded_dynkin(S, i1), total_retarded_dynkin(T, i2)).lc
        for S, T in proper_splits(ground)
        if i1 in S and i2 in T
    )
    return lhs.lc == rhs


# ---------------------------------------------------------------------------
# rank of the Dynkin span / primitive-part dimensions


def _left_normed_tree_images(n: int) -> list[SigmaElem]:
    """Primitive elements from left-nested trees, one family per partition.

    For a partition with blocks b1 < ... < bk (ordered by minimum), the
    trees [[..[[b1, bs(2)], bs(3)]..], bs(k)] over all permutations s of the
    non-initial blocks give (k-1)! elements; over all partitions this
    matches the primitive-part dimension count.
    """
    out = []
    for P in set_partitions(canonical_set(n)):
        blocks = sorted(P, key=min)
        first, rest = blocks[0], blocks[1:]
        for perm in itertools.permutations(rest):
            t = leaf(first)
            for b in perm:
                t = node(t, leaf(b))
            out.append(tree_to_primitive(t))
    return out


def _pivot_pairs(x: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The entries, each 1, of the column of the word x in Sh_k that can lie
    in a pivot row (u, 0v): the pairs (x|A, x|A') whose A is nonempty, misses
    0 and holds every letter of x before its 0."""
    i = x.index(0)
    after = x[i + 1:]
    for A in range(1 << len(after)):
        u = x[:i] + tuple([y for b, y in enumerate(after) if A >> b & 1])
        if u:
            yield u, (0,) + tuple([y for b, y in enumerate(after) if not A >> b & 1])


def _shuffle_nullity_bound(k: int) -> int:
    """(k - 1)!, a bound over Q on the nullity of Sh_k: every entry of a
    column in a pivot row (``_pivot_pairs``) is its word's diagonal 1 or
    lies in a column whose 0 comes earlier, and every diagonal 1 is there.
    No other entry is built.  A failure raises ArithmeticError."""
    words = list(itertools.permutations(range(k)))
    pivot_of = {(w[:i], w[i:]): w for w in words if (i := w.index(0))}
    diagonal = 0
    for x in words:
        for pair in _pivot_pairs(x):
            w = pivot_of.get(pair)
            if w == x:
                diagonal += 1
            elif w is not None and x.index(0) >= w.index(0):
                raise ArithmeticError(f"Sh_{k} is not unitriangular: column {x} in the pivot row of {w}")
    if diagonal != len(pivot_of):
        raise ArithmeticError(f"Sh_{k} misses {len(pivot_of) - diagonal} diagonal ones of its minor")
    return factorial(k - 1)


def _split_nullity(n: int) -> int:
    """A bound over Q on the primitive dimension over n labels, the nullity
    of the Q-basis split matrix: the sum over set partitions with k parts of
    ``_shuffle_nullity_bound(k)``, ``zie_dimension(n)``, once the minor of
    every k <= n is checked."""
    for k in range(1, n + 1):
        _shuffle_nullity_bound(k)
    return zie_dimension(n)


def primitive_dimension_certified(n: int) -> int:
    """dim of the primitive part over [n], certified over Q with no
    elimination.  Below: the left-normed tree images, in the Q-basis, each
    checked primitive exactly and with its one +-1 term on N, a different
    one per image; their count is a lower bound.  Above: ``_split_nullity``.
    A failed check or unequal bounds raise ArithmeticError.  The tests
    compare the result with the exact kernel, ``hopf.primitive_part_basis``.
    The degree-0 part is 0, since the monoid is connected."""
    check_size("primitive part", n)
    if n == 0:
        return 0
    on_n = set()  # the one first-lump term of each tree image
    for v in _left_normed_tree_images(n):
        if not is_primitive(v):
            raise ArithmeticError("tree image unexpectedly fails primitivity")
        terms = [(F, c) for F, c in v.lc if 1 in F.lumps[0]]
        if len(terms) != 1 or abs(terms[0][1]) != 1 or terms[0][0] in on_n:
            raise ArithmeticError("tree images are not a signed permutation on the first-lump columns")
        on_n.add(terms[0][0])
    if len(on_n) != _split_nullity(n):
        raise ArithmeticError("certified bounds on the primitive dimension disagree")
    return len(on_n)


def _composition_permutations(n: int) -> list[list[int]]:
    """For each permutation p of the positions 0..n-1, in the order of
    ``_mask_permutations(n)``: the entry of ``_dynkin_masks(n)`` that each
    entry's composition moves to under p, bit i of every lump to bit p[i].

    Only the adjacent transpositions t_i = (i i+1) are moved lump by lump.
    Any other p has a first descent i; p with its places i and i+1 swapped
    is an earlier permutation a, and p = a t_i, so p's list is a's read
    through t_i's.  The first is the identity.
    """
    keys = _dynkin_masks(n)[0]
    index = {key: j for j, key in enumerate(keys)}
    swaps = []
    for i in range(n - 1):
        img = [m & ~(3 << i) | (m >> i & 1) << i + 1 | (m >> i + 1 & 1) << i for m in range(1 << n)]
        swaps.append([index[tuple([img[m] for m in key])] for key in keys])
    perms = list(itertools.permutations(range(n)))
    at = {p: k for k, p in enumerate(perms)}
    out = [list(range(len(keys)))]
    for p in perms[1:]:
        i = next(i for i in range(n - 1) if p[i] > p[i + 1])
        a = out[at[p[:i] + (p[i + 1], p[i]) + p[i + 2:]]]
        out.append([a[x] for x in swaps[i]])
    return out


def _dynkin_rows(ground: LabelSet, columns: int) -> list[LinComb]:
    """The Dynkin row of every cell over ground, orbit by orbit from
    ``_cell_orbits``, restricted to the entries of ``_dynkin_masks`` in the
    bitset columns, as a ``LinComb`` keyed on lump bitmasks; each certified
    primitive as ``dynkin_rank`` says, on the whole ``_dynkin_row`` bitsets.
    A failed check raises ArithmeticError."""
    n = len(ground)
    comps = compositions_of(ground)
    keys, _, coeffs = _dynkin_masks(n)
    terms = list(zip(keys, coeffs))  # the LinComb item of each entry
    odd = _bitset([j for j, c in enumerate(coeffs) if c == 1], len(keys))  # an odd number of lumps
    moves = _composition_permutations(n)
    rows = []
    for *_, orbit in _cell_orbits(n):
        for bits, k in orbit:  # the representative first, with the identity, k = 0
            row = _dynkin_row(n, bits)
            if not k:
                rep = bits
                parts = [(part, _set_bits(row & part)) for part in (odd, ~odd)]  # coefficients +1, -1
                d = SigmaElem._of(ground, LinComb._of({comps[j]: coeffs[j] for j in _set_bits(row)}), H)
                if not is_primitive(d):
                    raise ArithmeticError("Dynkin element unexpectedly fails primitivity")
            elif any(row & part != _bitset(map(moves[k].__getitem__, js), len(keys)) for part, js in parts):
                cell, rep_cell = (Cell._of(ground, b) for b in (bits, rep))
                raise ArithmeticError(f"the row of {cell} is not a relabelling of {rep_cell}'s")
            rows.append(LinComb._of(dict(_set_bits(row & columns, terms))))
    return rows


def dynkin_rank(I: Iterable[int]) -> tuple[int, int, int]:
    """(number of cells, rank of their Dynkin span, primitive-part dimension).

    Certified by a squeeze for every n.  Every Dynkin row is primitive: the
    rows are built orbit by orbit from ``_cell_orbits``, each an int bitset
    by ``_dynkin_row``; the element of each representative is built and
    checked primitive exactly, and the row of every other member is checked
    equal, coefficients included (its +1 and -1 entries apart), to the
    representative's row moved by the member's recorded permutation
    (``_composition_permutations``).  The coproduct commutes with
    relabelling, so relabelling keeps primitivity.  The rows reach the rank
    as ``LinComb``s on N, keyed on lump bitmasks.

    The upper side is up = ``_split_nullity(n)``.  The lower side, the one
    elimination, is the GF(2) rank of the Dynkin rows restricted to the
    first-lump columns N; there are up of them.  rank_2(D|N) <= rank_Q(D|N)
    <= rank_Q(D) <= dim P <= up holds for any N, since an odd minor is not
    zero; when the ends meet, all are equal.  They meet because the
    primitives project injectively onto N: H -> Q is unitriangular under
    refinement and N is closed under coarsening, and in each shuffle block
    the words that start with the least letter detect Lie(k).  That the
    projection stays injective mod 2 is not proved: the run checks it
    rather than assuming it, and a shortfall raises ArithmeticError.  The
    empty ground is rejected: its one cell's Dynkin element is the unit,
    which is not primitive.
    """
    ground = labelset(I)
    n = len(ground)
    check_size("dynkin rank", n)
    if n == 0:
        raise DomainError("dynkin rank needs a nonempty ground set")
    up = _split_nullity(n)
    keys = _dynkin_masks(n)[0]
    first = _bitset([j for j, key in enumerate(keys) if key[0] & 1], len(keys))
    rows = _dynkin_rows(ground, first)  # its n! index permutations are freed before the rank
    r = rank_mod_prime(rows)
    if r != up:
        raise ArithmeticError("modular bounds on the Dynkin rank disagree")
    return len(rows), r, up
