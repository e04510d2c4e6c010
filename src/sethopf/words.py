"""The free word algebra: noncommutative polynomials in observable ids.

Coefficients are exact ring elements: ints and Fractions in the series and
causal layers.  Concatenation is the product and the empty word is the
unit, so scalars embed as multiples of the empty word.  No relations are imposed: any
identity that holds here holds for purely combinatorial reasons.
"""

from __future__ import annotations

from typing import Iterable

from .lincomb import LinComb, sparse_sum


class WordElem:
    """A finite linear combination of words (tuples of id strings)."""

    __slots__ = ("lc",)

    def __init__(self, lc: LinComb | None = None):
        object.__setattr__(self, "lc", lc if lc is not None else LinComb())

    def __setattr__(self, *a):
        raise AttributeError("WordElem is immutable")

    @staticmethod
    def zero() -> "WordElem":
        return WordElem()

    @staticmethod
    def unit() -> "WordElem":
        return WordElem(LinComb.single((), 1))

    @staticmethod
    def word(ids: Iterable[str], coeff=1) -> "WordElem":
        return WordElem(LinComb.single(tuple(ids), coeff))

    @staticmethod
    def scalar(coeff) -> "WordElem":
        return WordElem.word((), coeff)

    def is_zero(self) -> bool:
        return self.lc.is_zero()

    def __eq__(self, other):
        return isinstance(other, WordElem) and self.lc == other.lc

    def __hash__(self):
        raise TypeError("WordElem is not hashable")

    def __add__(self, other: "WordElem") -> "WordElem":
        if not isinstance(other, WordElem):
            return NotImplemented
        return WordElem(self.lc + other.lc)

    def __sub__(self, other: "WordElem") -> "WordElem":
        if not isinstance(other, WordElem):
            return NotImplemented
        return WordElem(self.lc - other.lc)

    def __neg__(self):
        return WordElem(-self.lc)

    def scale(self, c) -> "WordElem":
        return WordElem(self.lc.scale(c))

    def __mul__(self, other: "WordElem") -> "WordElem":
        if not isinstance(other, WordElem):
            return NotImplemented
        return WordElem(sparse_sum((w1 + w2, c1 * c2) for w1, c1 in self.lc for w2, c2 in other.lc))

    def __repr__(self):
        if self.lc.is_zero():
            return "0"
        bits = []
        for w, c in self.lc.items_sorted():
            name = ".".join(w) if w else "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)
