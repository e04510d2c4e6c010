"""The Hopf monoid of set compositions, in its H- and Q-bases.

Elements are exact linear combinations of compositions of a fixed ground
set, tagged with the basis they are expressed in.  Multiplication is the
linearization of concatenation, comultiplication the linearization of
restriction (deshuffling in the Q-basis), and the antipode has the closed
form  s(H_F) = sum over refinements G of the reversed composition of
(-1)^(number of lumps of G) H_G,  cross-checked against Takeuchi's
alternating-sum formula.

Coefficients are generic; the package passes ints and Fractions, the series
layer included (every closed form here is over Q).  Mixed-basis arithmetic
is rejected rather than silently converted.

``delta_split`` runs on integers and takes real coefficients only.  Each
ground set has a split table that interns the coproduct terms of its
compositions as pair ids.  A split depends only on which positions go to S,
so the table works on bitmasks: it interns each pair on the lump bitmasks of
its two sides, and builds the pair's compositions, from a table of the
sorted labels of every mask, the first time a split outputs the pair.  A
split whose terms all cancel, as every split of a primitive does, builds no
composition.  The split (S, T) itself is checked on masks: the label bits
of S and of T must be disjoint, cover the ground, and number len(S) +
len(T) labels, which rejects a repeated label.  A one-term element
with an int coefficient is then one row lookup.  Any other element clears
its denominators once, on its first split, into int numerators over one
denominator; a split is then one integer scatter-add over the element's
terms.  The iterated coproduct, the Takeuchi antipode and the Hopf powers
stay on the generic path, so the cross-checks against them stay independent
of this one.

Elements are validated once, at the boundary: ``SigmaElem(...)`` and
``zero_elem`` check the basis tag and that every term lives over the sorted
ground, and ``basis_elem`` checks the tag.  The operations check only what
their arguments can get wrong (the grounds, the basis, a bijective
relabelling) and build their results unchecked, with ``SigmaElem._of`` and
``Composition._of``, keeping every term a composition of the sorted ground.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, NoReturn, Sequence

from .compositions import (
    Composition,
    EMPTY_COMPOSITION,
    canonical_set,
    compositions_of,
    labelset,
    opposite,
    proper_splits,
    refinements,
    restrict,
    subsets_by_mask,
)
from .errors import DomainError, check_size
from .lincomb import LinComb, lincomb_sum, sparse_sum
from .linalg import _numerators, kernel_basis

H = "H"
Q = "Q"


@lru_cache(maxsize=None)
def _restrict_cached(F: Composition, S: tuple) -> Composition:
    return restrict(F, S)


class SigmaElem:
    """An element of the composition Hopf algebra over a fixed ground set."""

    __slots__ = ("ground", "basis", "lc", "_split_form")

    def __init__(self, ground: Iterable[int], lc: LinComb, basis: str = H):
        ground = labelset(ground)
        if basis not in (H, Q):
            raise DomainError(f"unknown basis tag {basis!r}")
        for F, _ in lc:
            if F.ground != ground:
                raise DomainError(f"term {F} does not live over ground {ground}")
        _set_ground(self, ground)
        _set_basis(self, basis)
        _set_lc(self, lc)
        _set_split_form(self, None)  # filled by _split_form on first split

    @classmethod
    def _of(cls, ground: tuple, lc: LinComb, basis: str) -> "SigmaElem":
        """Unchecked: ground is sorted, basis is H or Q, every key of lc composes ground."""
        self = _new(cls)
        _set_ground(self, ground)
        _set_basis(self, basis)
        _set_lc(self, lc)
        _set_split_form(self, None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("SigmaElem is immutable")

    def is_zero(self) -> bool:
        return self.lc.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, SigmaElem)
            and self.ground == other.ground
            and self.basis == other.basis
            and self.lc == other.lc
        )

    def __hash__(self):
        raise TypeError("SigmaElem is not hashable")

    def __add__(self, other: "SigmaElem") -> "SigmaElem":
        self._check_compatible(other)
        return SigmaElem._of(self.ground, self.lc + other.lc, self.basis)

    def __sub__(self, other: "SigmaElem") -> "SigmaElem":
        self._check_compatible(other)
        return SigmaElem._of(self.ground, self.lc - other.lc, self.basis)

    def __neg__(self):
        return SigmaElem._of(self.ground, -self.lc, self.basis)

    def scale(self, c) -> "SigmaElem":
        if type(c) is int and c == 1:  # immutable, so self is the product
            return self
        return SigmaElem._of(self.ground, self.lc.scale(c), self.basis)

    def _check_compatible(self, other: "SigmaElem"):
        if not isinstance(other, SigmaElem):
            raise DomainError("expected a SigmaElem")
        if self.ground != other.ground:
            raise DomainError("ground sets differ")
        if self.basis != other.basis:
            raise DomainError("mixed-basis arithmetic is not allowed; convert first")

    def __repr__(self):
        if self.lc.is_zero():
            return f"0[{self.basis};{self.ground}]"
        bits = []
        for F, c in self.lc.items_sorted():
            bits.append(f"({c})*{self.basis}{F}")
        return " + ".join(bits)


_new = object.__new__
_set_ground = SigmaElem.ground.__set__
_set_basis = SigmaElem.basis.__set__
_set_lc = SigmaElem.lc.__set__
_set_split_form = SigmaElem._split_form.__set__


def basis_elem(F: Composition, basis: str = H, coeff=1) -> SigmaElem:
    if basis not in (H, Q):
        raise DomainError(f"unknown basis tag {basis!r}")
    return SigmaElem._of(F.ground, LinComb.single(F, coeff), basis)


def h_elem(*lumps) -> SigmaElem:
    return basis_elem(Composition(lumps), H)


def q_elem(*lumps) -> SigmaElem:
    return basis_elem(Composition(lumps), Q)


def zero_elem(ground: Iterable[int], basis: str = H) -> SigmaElem:
    return SigmaElem(ground, LinComb.zero(), basis)


def unit_elem(basis: str = H) -> SigmaElem:
    return basis_elem(EMPTY_COMPOSITION, basis)


def sigma_basis(I: Iterable[int], basis: str = H) -> list[SigmaElem]:
    return [basis_elem(F, basis) for F in compositions_of(I)]


def relabel(a: SigmaElem, mapping: dict[int, int]) -> SigmaElem:
    """Push a along a label bijection (applied lump-wise to every term)."""
    if set(mapping.keys()) != set(a.ground):
        raise DomainError("relabel mapping must be defined exactly on the ground set")
    ground = labelset(mapping.values())  # rejects a repeated or non-int target

    def move(F: Composition) -> Composition:
        lumps = tuple(tuple(sorted(mapping[x] for x in l)) for l in F.lumps)
        return Composition._of(lumps, ground)

    return SigmaElem._of(ground, a.lc.map_keys(move), a.basis)


def mu(a: SigmaElem, b: SigmaElem) -> SigmaElem:
    """Bilinear concatenation product; the same rule serves both bases."""
    if not set(a.ground).isdisjoint(b.ground):
        raise DomainError("mu requires disjoint ground sets")
    if a.basis != b.basis:
        raise DomainError("mixed-basis mu; convert first")
    if not a.ground or not b.ground:  # one factor is c times the unit: scale the other
        unit, x = (a, b) if not a.ground else (b, a)
        return x.scale(unit.lc.coeff(EMPTY_COMPOSITION) or 0)
    ground = tuple(sorted(a.ground + b.ground))
    # no two terms merge: concatenation over disjoint grounds is injective,
    # and a product of nonzero exact coefficients is nonzero
    lc = LinComb._of({
        Composition._of(F.lumps + G.lumps, ground): cf * cg
        for F, cf in a.lc.t.items() for G, cg in b.lc.t.items()
    })
    return SigmaElem._of(ground, lc, a.basis)


def mu_many(parts: Sequence[SigmaElem]) -> SigmaElem:
    if not parts:
        return unit_elem(H)
    out = parts[0]
    for p in parts[1:]:
        out = mu(out, p)
    return out


class _SplitTable:
    """Integer ids for the coproduct terms of the compositions of one ground set.

    A split (S, T) of the ground is its mask: bit i is set when the i-th
    label goes to S.  labels[m] is the sorted tuple of the labels in mask m.
    ``masks(F)`` is the tuple of the lump bitmasks of F, computed once per
    composition and kept as long as the table.  A pair id names one pair
    (left, right) of compositions of (S, T), interned on the lump bitmasks
    of its two sides, which ``sides`` keeps.  The row of a composition F in
    a basis holds, for every mask, the pair id of its (S, T) term: (F|S,
    F|T) in the H-basis, the deshuffle pair in the Q-basis, or -1 where the
    deshuffle is undefined.  Rows are built one composition at a time, on
    first use.  An H row forms the restriction F|S of every mask once and
    shares it: F|T is the restriction to the complement, full - m.  The
    pair of compositions is built only when ``pair`` is first asked for it,
    so a split whose terms all cancel builds none.
    """

    __slots__ = ("bit", "full", "labels", "pairs", "sides", "ids", "rows", "lump_masks")

    def __init__(self, ground: tuple):
        self.bit = {x: 1 << i for i, x in enumerate(ground)}
        self.full = (1 << len(ground)) - 1  # the mask of the whole ground
        self.labels: list[tuple] = subsets_by_mask(ground)  # mask -> its sorted labels
        self.pairs: list = []  # pair id -> its pair of compositions, None until built
        self.sides: list[tuple] = []  # pair id -> (left lump masks, right lump masks)
        self.ids: dict[tuple, int] = {}  # (left lump masks, right lump masks) -> pair id
        self.rows: dict[str, dict[Composition, tuple[int, ...]]] = {H: {}, Q: {}}
        self.lump_masks: dict[Composition, tuple[int, ...]] = {}

    def masks(self, F: Composition) -> tuple[int, ...]:
        """The bitmask of each lump of F, in lump order."""
        lms = self.lump_masks.get(F)
        if lms is None:
            get = self.bit.__getitem__
            lms = self.lump_masks[F] = tuple([sum(map(get, l)) for l in F.lumps])
        return lms

    def row(self, F: Composition, basis: str) -> tuple[int, ...]:
        rows = self.rows[basis]
        row = rows.get(F)
        if row is None:
            row = rows[F] = self._build_row(F, basis)
        return row

    def pair(self, pid: int) -> tuple[Composition, Composition]:
        """The pair (left, right) of compositions that pid names."""
        p = self.pairs[pid]
        if p is None:
            labels = self.labels
            left, right = self.sides[pid]
            m = sum(left)
            p = self.pairs[pid] = (
                Composition._of(tuple([labels[l] for l in left]), labels[m]),
                Composition._of(tuple([labels[l] for l in right]), labels[self.full ^ m]),
            )
        return p

    def _build_row(self, F: Composition, basis: str) -> tuple[int, ...]:
        full = self.full
        lms = self.masks(F)
        if basis == H:
            # F|S for every mask m; mask m takes (F|S, F|T), T = full - m
            sub = [tuple([x for l in lms if (x := l & m)]) for m in range(full + 1)]
            keys = zip(sub, reversed(sub))
        else:
            keys = []
            for m in range(full + 1):
                left = tuple([l for l in lms if l & m])
                if sum(left) != m:  # a lump meets both S and T
                    keys.append(None)
                else:
                    keys.append((left, tuple([l for l in lms if not l & m])))
        ids, sides, pairs = self.ids, self.sides, self.pairs
        row = []
        for key in keys:
            if key is None:
                row.append(-1)
                continue
            pid = ids.get(key)
            if pid is None:
                pid = ids[key] = len(sides)
                sides.append(key)
                pairs.append(None)
            row.append(pid)
        return tuple(row)


@lru_cache(maxsize=None)
def _split_table(ground: tuple) -> _SplitTable:
    return _SplitTable(ground)


def _split_form(a: SigmaElem, table: _SplitTable) -> tuple:
    """a with its denominators cleared, computed once per element.

    Returns (the split row of each term in table, the int numerators, their
    common denominator).  Raises DomainError on a non-real coefficient.
    """
    form = a._split_form
    if form is None:
        nums, den = _numerators(c for _, c in a.lc)
        form = ([table.row(F, a.basis) for F in a.lc.keys()], nums, den)
        _set_split_form(a, form)
    return form


def _bad_split(S: tuple, T: tuple) -> NoReturn:
    """Raise the DomainError that names what is wrong with the split (S, T):
    a repeated label when every label is an int, else the decomposition."""
    if all(type(x) is int for x in S + T):
        labelset(S)
        labelset(T)
    raise DomainError("(S, T) must be an ordered disjoint decomposition of the ground set")


def delta_split(a: SigmaElem, S: Iterable[int], T: Iterable[int]) -> LinComb:
    """Delta_{S,T}(a) as a LinComb over pairs (left composition, right composition)."""
    table = _split_table(a.ground)
    S = tuple(S)
    T = tuple(T)
    bit = table.bit
    try:
        m = sum(map(bit.__getitem__, S))
        mt = sum(map(bit.__getitem__, T))
    except (KeyError, TypeError):  # a label off the ground
        _bad_split(S, T)
    # k label bits sum to a mask of k bits only when they are distinct, so
    # the length test rejects a repeated label
    if m & mt or m | mt != table.full or len(S) + len(T) != len(a.ground):
        _bad_split(S, T)
    if len(a.lc) == 1:
        ((F, c),) = a.lc
        if type(c) is int:  # the scatter-add over one term
            p = table.row(F, a.basis)[m]
            return LinComb._of({table.pair(p): c}) if p >= 0 else LinComb()
    rows, nums, den = _split_form(a, table)
    acc: dict[int, int] = {}
    for row, x in zip(rows, nums):
        p = row[m]
        if p >= 0:
            acc[p] = acc.get(p, 0) + x
    pair = table.pair
    terms = {pair(p): x if den == 1 else Fraction(x, den) for p, x in acc.items() if x}
    return LinComb._of(terms)


def _delta_iterated(a: SigmaElem, parts: Sequence[tuple]) -> LinComb:
    """Iterated coproduct of an H-basis element: simultaneous restriction.

    Unchecked: parts are sorted label tuples that decompose a.ground.
    Returns a LinComb over tuples of compositions, one entry per part.
    """
    return sparse_sum((tuple(_restrict_cached(F, P) for P in parts), c) for F, c in a.lc)


@lru_cache(maxsize=None)
def _antipode_of_comp(F: Composition) -> LinComb:
    return LinComb._of({G: 1 if len(G) % 2 == 0 else -1 for G, _ in refinements(opposite(F))})


def antipode(a: SigmaElem) -> SigmaElem:
    """Closed-form antipode on the H-basis."""
    if a.basis != H:
        raise DomainError("antipode expects the H-basis; convert first")
    parts = [_antipode_of_comp(F).scale(c) for F, c in a.lc]
    return SigmaElem._of(a.ground, lincomb_sum(parts), H)


def takeuchi_antipode(a: SigmaElem) -> SigmaElem:
    """Antipode via the alternating sum over all Hopf-power composites."""
    if a.basis != H:
        raise DomainError("takeuchi_antipode expects the H-basis; convert first")
    if not a.ground:
        return a
    pairs = (
        (Composition._of(tuple(l for piece in key for l in piece.lumps), a.ground), -c if len(F) % 2 else c)
        for F in compositions_of(a.ground)
        for key, c in _delta_iterated(a, F.lumps)
    )
    return SigmaElem._of(a.ground, sparse_sum(pairs), H)


@lru_cache(maxsize=None)
def _h_in_q(F: Composition) -> LinComb:
    """H_F = sum over G >= F of Q_G / (G/F)!, where (G/F)! is the product of
    k! over the lumps of F, each split into k lumps of G."""
    return LinComb._of({G: Fraction(1, prod(map(factorial, ks))) for G, ks in refinements(F)})


@lru_cache(maxsize=None)
def _q_in_h(F: Composition) -> LinComb:
    """Q_F = sum over G >= F of (-1)^(l(G) - l(F)) H_G / l(G/F), where
    l(G/F) is the product of the number k of lumps of G in each lump of F."""
    return LinComb._of({G: Fraction((-1) ** (len(G) - len(F)), prod(ks)) for G, ks in refinements(F)})


def to_q(a: SigmaElem) -> SigmaElem:
    """Express a in the Q-basis (identity if already there)."""
    if a.basis == Q:
        return a
    parts = [_h_in_q(F).scale(c) for F, c in a.lc]
    return SigmaElem._of(a.ground, lincomb_sum(parts), Q)


def to_h(a: SigmaElem) -> SigmaElem:
    """Express a in the H-basis (identity if already there)."""
    if a.basis == H:
        return a
    parts = [_q_in_h(F).scale(c) for F, c in a.lc]
    return SigmaElem._of(a.ground, lincomb_sum(parts), H)


def is_primitive(a: SigmaElem) -> bool:
    """True iff every proper comultiplication split kills a.

    Over the empty ground only zero is primitive: the monoid is connected.
    """
    if not a.ground:
        return a.is_zero()
    for S, T in proper_splits(a.ground):
        if not delta_split(a, S, T).is_zero():
            return False
    return True


def _tensor(left: SigmaElem, right: SigmaElem) -> LinComb:
    """left (x) right over (F, G) pairs; nonzero exact coefficients have nonzero products."""
    return LinComb._of({(F, G): a * b for F, a in left.lc for G, b in right.lc})


def split_columns(ground: Iterable[int]) -> list[tuple[Composition, LinComb]]:
    """The stacked proper-split map on the H-basis of ground, as 0/1 columns.

    For each composition F, its column: coefficient 1 on the pair id of each
    of its proper (S, T) terms (every mask but the empty and the full one).
    Distinct splits give distinct pair ids.
    """
    table = _split_table(labelset(ground))
    return [(F, LinComb._of(dict.fromkeys(table.row(F, H)[1:-1], 1))) for F in compositions_of(ground)]


def primitive_part_basis(n: int) -> list[SigmaElem]:
    """Exact basis of the intersection of the kernels of all proper splits.

    Empty at n = 0: the monoid is connected, so its degree-0 part has no
    primitives.
    """
    check_size("primitive part", n)
    if n == 0:
        return []
    ground = canonical_set(n)
    columns = split_columns(ground)
    vectors = kernel_basis(columns, [F for F, _ in columns])
    return [SigmaElem(ground, v, H) for v in vectors]

