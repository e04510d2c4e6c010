"""Sparse exact linear combinations over an arbitrary basis-key type.

Keys are opaque hashable values; coefficients are any exact ring elements
supporting ``+``, ``*``, unary ``-``, ``==`` and truthiness as a zero test.
Every layer uses ints and Fractions.  Zero coefficients are never stored.

Every linear extension of a map on basis keys -- the sum and ``map_keys``
here, the products ``tits`` and ``series.word_product``, the iterated
coproduct, the Takeuchi antipode, the arrows' insertions and the tree
images -- sums its images through ``sparse_sum``: equal keys merge, zero
sums drop, and keys keep the order of their first insertion (a key that
cancels and comes back goes to the end), so every pass over a sum is
deterministic.  A sum of whole elements is one ``lincomb_sum`` over their
``LinComb``s, in the key order of a pass of ``+`` over the same parts.

Three sums stay apart on purpose: ``hopf.mu``, one dict comprehension,
since concatenation over disjoint grounds is injective and no two of its
terms can merge; ``hopf.delta_split``'s int scatter-add over pair ids; and
the expected sides that ``verify.hopf_suite`` builds by hand, which keep its
checks independent of the code they check.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable


def default_sort_key(key):
    """Deterministic ordering for the key types used in this package."""
    sk = getattr(key, "sort_key", None)
    if sk is not None:
        return sk() if callable(sk) else sk
    if isinstance(key, tuple):
        return tuple(default_sort_key(k) for k in key)
    return key


class LinComb:
    """A finite formal sum  sum_k  c_k * k  with nonzero exact coefficients."""

    __slots__ = ("t",)

    def __init__(self, terms: dict | None = None):
        t = {}
        if terms:
            for k, v in terms.items():
                if v:
                    t[k] = v
        object.__setattr__(self, "t", t)

    @classmethod
    def _of(cls, terms: dict) -> "LinComb":
        """Unchecked: terms holds no zero coefficient and is owned by the result."""
        self = _new(cls)
        _set_t(self, terms)
        return self

    def __setattr__(self, *a):
        raise AttributeError("LinComb is immutable")

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def single(key, coeff) -> "LinComb":
        return LinComb._of({key: coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.t

    def __bool__(self):
        return bool(self.t)

    def __len__(self):
        return len(self.t)

    def __iter__(self):
        return iter(self.t.items())

    def coeff(self, key):
        return self.t.get(key)

    def keys(self):
        return self.t.keys()

    def items_sorted(self, key: Callable = default_sort_key):
        return sorted(self.t.items(), key=lambda kv: key(kv[0]))

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return sparse_sum(other.t.items(), dict(self.t))

    def __neg__(self):
        return LinComb._of({k: -v for k, v in self.t.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "LinComb":
        if type(c) is int and c == 1:  # immutable, so self is the product
            return self
        if not c:
            return LinComb()
        return LinComb({k: c * v for k, v in self.t.items()})

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.t == other.t

    def __hash__(self):
        raise TypeError("LinComb is not hashable")

    def map_keys(self, f: Callable[[Any], Any]) -> "LinComb":
        """Apply an injective key transform; colliding images are summed."""
        return sparse_sum((f(k), v) for k, v in self.t.items())

    def map_coeffs(self, f) -> "LinComb":
        return LinComb({k: f(v) for k, v in self.t.items()})

    def __repr__(self):
        if not self.t:
            return "0"
        bits = []
        for k, v in self.items_sorted():
            bits.append(f"({v})*{k}")
        return " + ".join(bits)


_new = object.__new__
_set_t = LinComb.t.__set__


def sparse_sum(pairs: Iterable[tuple], terms: dict | None = None) -> LinComb:
    """Add the (key, coefficient) pairs into terms, or into a new dict, and
    return the LinComb that owns it.  Zero sums are dropped and zero inputs
    never stored; terms must hold no zero and is not copied."""
    t = {} if terms is None else terms
    get = t.get
    for k, v in pairs:
        w = get(k)
        if w is not None:
            v = w + v
        if v:
            t[k] = v
        elif w is not None:
            del t[k]
    return LinComb._of(t)


def lincomb_sum(parts: Iterable[LinComb]) -> LinComb:
    return sparse_sum(chain.from_iterable(p.t.items() for p in parts))
