"""Gaussian rationals, the scalar form of the JSON series encoding.

Every layer computes over Q with ints and Fractions, the series and causal
layers included: they run at coupling 1, and ``jsonio.truncseries_to_json``
applies the causal prefactor 1/(i*hbar) to each coefficient as it writes it.

* ``QI`` -- the field Q(i) of Gaussian rationals, re + im*i with Fraction
  components.  Functions that take real coefficients also accept a QI with
  a zero imaginary part.
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
