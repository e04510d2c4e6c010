"""Finite label sets and set compositions, with their order combinatorics.

Labels are integers.  Positive integers are ordinary labels (the canonical
set [n] is ``{1, ..., n}``); negative integers ``-1, -2, ...`` encode the
adjoined marker labels used by the raising operators, so a single
composition type serves both colours.

A composition of a finite label set is an ordered sequence of disjoint
nonempty subsets ("lumps") covering it.  The empty composition ``()`` is
the unique composition of the empty set.

Input is validated once, at the boundary: ``labelset`` sorts a label set
and rejects repeated and non-int labels, and every constructor that takes
labels from outside goes through it.  ``Composition(...)``, ``comp`` and
``one_lump`` also reject empty lumps and a label in two lumps; ``concat``,
``restrict`` and ``deshuffle`` check their grounds.
Past those checks the operations build their results unchecked, with
``Composition._of``, from lumps they keep sorted, disjoint and nonempty.
Both constructors return the one composition of the given lumps, kept in
``_interned`` for the life of the process: equal compositions are one object.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator

from .errors import DomainError, check_size

LabelSet = tuple  # sorted tuple of distinct ints


def labelset(labels: Iterable[int]) -> LabelSet:
    """Canonical (sorted, duplicate-checked) form of a finite label set.

    Every label must be an int (a bool is not): 1.0 == 1, so a float label
    would otherwise intern a composition that every later constructor of
    the int lumps returns.
    """
    out = tuple(sorted(labels))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DomainError(f"duplicate label {a}")
    for x in out:
        if type(x) is not int:
            raise DomainError(f"label {x!r} is not an int")
    return out


def canonical_set(n: int) -> LabelSet:
    return tuple(range(1, n + 1))


def star_labels(r: int) -> LabelSet:
    """The first r adjoined marker labels, encoded as -1..-r (sorted)."""
    return tuple(range(-r, 0))


class Composition:
    """An ordered sequence of disjoint nonempty label sets covering its ground (interned)."""

    __slots__ = ("lumps", "ground")

    def __new__(cls, lumps: Iterable[Iterable[int]]):
        ls = tuple(labelset(l) for l in lumps)
        if ls in _interned:
            return _interned[ls]
        seen: set[int] = set()
        for l in ls:
            if not l:
                raise DomainError("empty lump in composition")
            if not seen.isdisjoint(l):
                raise DomainError(f"label {min(seen.intersection(l))} appears in two lumps")
            seen.update(l)
        return cls._of(ls, tuple(sorted(seen)))

    @classmethod
    def _of(cls, lumps: tuple, ground: LabelSet) -> "Composition":
        """Unchecked: lumps are sorted, disjoint, nonempty tuples, ground their sorted union."""
        self = _interned.get(lumps)
        if self is None:
            self = _interned[lumps] = _new(cls)
            _set_lumps(self, lumps)
            _set_ground(self, ground)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Composition is immutable")

    def __len__(self):
        return len(self.lumps)

    def sort_key(self):
        return (len(self.lumps), self.lumps)

    def __repr__(self):
        if not self.lumps:
            return "()"

        def lump_str(l):
            if all(1 <= x <= 9 for x in l):
                return "".join(map(str, l))
            return "{" + " ".join(map(str, l)) + "}"

        return "(" + ",".join(lump_str(l) for l in self.lumps) + ")"


_interned: dict[tuple, Composition] = {}  # lump tuple -> its one composition, never evicted
_new = object.__new__
_set_lumps = Composition.lumps.__set__
_set_ground = Composition.ground.__set__

EMPTY_COMPOSITION = Composition(())


def comp(*lumps) -> Composition:
    """Shorthand constructor: comp((1,2),(3,)) == the composition (12,3)."""
    return Composition(lumps)


def one_lump(I: Iterable[int]) -> Composition:
    ls = labelset(I)
    return Composition((ls,)) if ls else EMPTY_COMPOSITION


def _ordered_set_partitions(items: tuple) -> Iterator[tuple]:
    """All ordered set partitions (as tuples of tuples) of the given items."""
    if not items:
        yield ()
        return
    rest, last = items[:-1], items[-1]
    for smaller in _ordered_set_partitions(rest):
        for i, lump in enumerate(smaller):
            yield smaller[:i] + (lump + (last,),) + smaller[i + 1 :]
        for i in range(len(smaller) + 1):
            yield smaller[:i] + ((last,),) + smaller[i:]


@lru_cache(maxsize=None)
def _compositions_cached(ground: LabelSet) -> tuple[Composition, ...]:
    comps = [Composition._of(p, ground) for p in _ordered_set_partitions(ground)]
    comps.sort(key=Composition.sort_key)
    return tuple(comps)


def compositions_of(I: Iterable[int]) -> tuple[Composition, ...]:
    """Every composition of I, ordered by length then lexicographically."""
    ground = labelset(I)
    check_size("compositions", len(ground))
    return _compositions_cached(ground)


def restrict(F: Composition, S: Iterable[int]) -> Composition:
    """(F|_S)_+ : intersect lumps with S in order and drop the empties."""
    ground = labelset(S)
    Sset = frozenset(ground)
    if not Sset <= set(F.ground):
        raise DomainError(f"{sorted(Sset)} is not a subset of the ground set")
    lumps = tuple(l2 for l in F.lumps if (l2 := tuple(x for x in l if x in Sset)))
    return Composition._of(lumps, ground)


def concat(F: Composition, G: Composition) -> Composition:
    if set(F.ground) & set(G.ground):
        raise DomainError("concat requires disjoint ground sets")
    return Composition._of(F.lumps + G.lumps, tuple(sorted(F.ground + G.ground)))


def opposite(F: Composition) -> Composition:
    return Composition._of(F.lumps[::-1], F.ground)


def coarsens(G: Composition, F: Composition) -> bool:
    """True iff G <= F, i.e. G is obtained from F by merging contiguous lumps."""
    if G.ground != F.ground:
        raise DomainError("coarsens requires equal ground sets")
    i = 0
    for lump in G.lumps:
        target = set(lump)
        merged: set[int] = set()
        while merged != target:
            if i >= len(F.lumps) or not set(F.lumps[i]) <= target:
                return False
            merged |= set(F.lumps[i])
            i += 1
    return i == len(F.lumps)


def deshuffle(F: Composition, S: Iterable[int]) -> Composition | None:
    """F|_S when S is a union of (not necessarily contiguous) lumps of F, else None."""
    ground = labelset(S)
    Sset = frozenset(ground)
    if not Sset <= set(F.ground):
        raise DomainError(f"{sorted(Sset)} is not a subset of the ground set")
    picked = []
    covered: set[int] = set()
    for l in F.lumps:
        ls = set(l)
        if ls <= Sset:
            picked.append(l)
            covered |= ls
        elif ls & Sset:
            return None
    if covered != Sset:
        return None
    return Composition._of(tuple(picked), ground)


def refinements(F: Composition) -> Iterator[tuple[Composition, tuple[int, ...]]]:
    """All G >= F: refine each lump independently and concatenate in order.
    Each G comes with the number of lumps of G inside each lump of F."""
    per_lump = [_compositions_cached(l) for l in F.lumps]
    for choice in itertools.product(*per_lump):
        yield Composition._of(tuple(l for c in choice for l in c.lumps), F.ground), tuple(map(len, choice))


def subsets_by_mask(ground: LabelSet) -> list[LabelSet]:
    """The labels of the sorted ground at the set bits of m, as a sorted
    tuple, for every position mask m (bit i is the i-th label)."""
    out = [()]
    for x in ground:
        out += [S + (x,) for S in out]
    return out


def ordered_splits(I: Iterable[int]) -> Iterator[tuple[LabelSet, LabelSet]]:
    """All ordered pairs (S, T) with S disjoint-union T = I (empties allowed),
    S in position-mask order."""
    labels = subsets_by_mask(labelset(I))
    full = len(labels) - 1
    for m in range(full + 1):
        yield (labels[m], labels[full ^ m])


def proper_splits(I: Iterable[int]) -> Iterator[tuple[LabelSet, LabelSet]]:
    for S, T in ordered_splits(I):
        if S and T:
            yield (S, T)


def fubini(n: int) -> int:
    """Number of compositions of an n-set, via a(n) = sum_k C(n,k) a(n-k)."""
    a = [1]
    for m in range(1, n + 1):
        total = 0
        binom = 1
        for k in range(1, m + 1):
            binom = binom * (m - k + 1) // k
            total += binom * a[m - k]
        a.append(total)
    return a[n]


def set_partitions(items: tuple) -> Iterator[tuple[tuple, ...]]:
    """All set partitions of items, as tuples of sorted blocks."""
    if not items:
        yield ()
        return
    rest, last = items[:-1], items[-1]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + (tuple(sorted(block + (last,))),) + smaller[i + 1 :]
        yield smaller + ((last,),)


def zie_dimension(n: int) -> int:
    """dim of the primitive part in degree n: sum over partitions of (#blocks-1)!."""
    return sum(factorial(len(p) - 1) for p in set_partitions(canonical_set(n))) if n else 0
