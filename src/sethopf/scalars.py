"""Exact scalars for the layers where i or hbar appears.

The Hopf, cell and elimination layers compute over Q with ints and
Fractions.  The imaginary unit enters only through the causal prefactor
1/(i*hbar), so two rings serve the series and causal layers:

* ``QI`` -- the field Q(i) of Gaussian rationals: the coefficient ring of
  ``HbarPoly`` and the JSON scalar encoding.  Functions that take real
  coefficients also accept a QI with a zero imaginary part.
* ``HbarPoly`` -- Laurent polynomials in the formal symbol hbar with QI
  coefficients.  Only integer powers of hbar occur (negative powers come
  from the 1/(i*hbar) prefactors of the causal constructions), so this
  ring is exact and closed under every operation we need.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


class QI:
    """A Gaussian rational re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = as_qi(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = as_qi(other)
        if other is NotImplemented:
            return NotImplemented
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        other = as_qi(other)
        if other is NotImplemented:
            return NotImplemented
        return QI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_qi(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, HbarPoly):
            return NotImplemented
        other = as_qi(other)
        if other is NotImplemented:
            return NotImplemented
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_qi(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return as_qi(other).__truediv__(self)

    def __pow__(self, k: int):
        if k < 0:
            return QI(1) / self ** (-k)
        out = QI(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def as_qi(x):
    """Coerce an int, Fraction, string or QI to QI; NotImplemented otherwise."""
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction, str)):
        return QI(_frac(x))
    return NotImplemented


QI_ZERO = QI(0)
QI_ONE = QI(1)


class HbarPoly:
    """Laurent polynomial in hbar over QI, stored sparsely as {power: QI}."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = as_qi(v)
                if v:
                    c[int(k)] = v
        object.__setattr__(self, "c", c)

    def __setattr__(self, *a):
        raise AttributeError("HbarPoly is immutable")

    @staticmethod
    def const(v) -> "HbarPoly":
        return HbarPoly({0: as_qi(v)})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        other = as_hbar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        other = as_hbar(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self.c)
        for k, v in other.c.items():
            w = c.get(k, QI_ZERO) + v
            if w:
                c[k] = w
            else:
                c.pop(k, None)
        return HbarPoly(c)

    __radd__ = __add__

    def __neg__(self):
        return HbarPoly({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        other = as_hbar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return as_hbar(other).__sub__(self)

    def __mul__(self, other):
        other = as_hbar(other)
        if other is NotImplemented:
            return NotImplemented
        c: dict[int, QI] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                w = c.get(k, QI_ZERO) + v1 * v2
                if w:
                    c[k] = w
                else:
                    c.pop(k, None)
        return HbarPoly(c)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = HBAR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "HbarPoly":
        """Inverse of a monomial; general Laurent polynomials are not invertible here."""
        if len(self.c) != 1:
            raise ZeroDivisionError("only hbar-monomials are invertible")
        ((k, v),) = self.c.items()
        return HbarPoly({-k: QI_ONE / v})

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c):
            v = self.c[k]
            if k == 0:
                parts.append(f"({v})")
            elif k == 1:
                parts.append(f"({v})*hbar")
            else:
                parts.append(f"({v})*hbar^{k}")
        return " + ".join(parts)


def as_hbar(x):
    """Coerce an int, Fraction, QI or HbarPoly into HbarPoly."""
    if isinstance(x, HbarPoly):
        return x
    q = as_qi(x)
    if q is NotImplemented:
        return NotImplemented
    return HbarPoly.const(q)


HBAR_ONE = HbarPoly.const(1)
# 1/(i*hbar) = -i * hbar^(-1), the coupling used by the causal constructions.
C_QFT = HbarPoly({-1: QI(0, -1)})
I_HBAR = HbarPoly({1: QI(0, 1)})
