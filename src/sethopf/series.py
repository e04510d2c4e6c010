"""Series of the composition algebra, evaluators and T-exponentials.

A ``SigmaSeries`` assigns to each degree n an element over the canonical
set [n] (validated to be invariant under relabeling); convolution sums the
concatenation products over ordered splits.

The target of evaluation is the free word algebra: an element is a
``LinComb`` keyed by words, tuples of observable ids, with the empty word
as the unit and ``word_product`` (concatenation) as the product.  No
relations are imposed, so any identity that holds there holds for purely
combinatorial reasons.  An evaluator is a function ``(F, dec) -> LinComb``
of one basis composition F and one decoration per ground label;
``eval_system`` is its linear extension.  Whether an evaluator is
multiplicative is checked by ``homomorphism_check``, not assumed.
T-exponentials and their coderivation/arrow perturbations assemble those
evaluations into truncated formal power series in the symbols g and j with
word coefficients over the rationals.  Each g^r j^n coefficient of each of
them is one ``_gj_term``: an element over r interaction labels and n
observable labels, evaluated with S on the first and A on the second and
scaled by c^(r+n) / (r! n!).

The causal constructions run at coupling c = 1, over ints and Fractions;
the causal coupling c = 1/(i*hbar) is applied once, when
``jsonio.truncseries_to_json`` writes a series.  That is exact because
every series involved is homogeneous: its g^r j^n coefficient carries
c^(r+n) and nothing else depends on c.  A product of two such series is
again one, since it adds the degrees, and so the c-powers, of the
coefficients it multiplies.  Two such series are equal at c = 1/(i*hbar)
exactly when they are equal at c = 1, since each coefficient of either is
its value at c = 1 times the same invertible c^(r+n).  In Bogoliubov's
formula, i*hbar * d/dj at j = 0 takes the g^r j^1 coefficient, which
carries c^(r+1), to g^r, and i*hbar * c = 1 leaves c^r there: at c = 1 the
extraction is plain d/dj at j = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Any, Callable, Mapping

from .arrows import _split_sum
from .compositions import (
    Composition,
    canonical_set,
    compositions_of,
    one_lump,
    ordered_splits,
    proper_splits,
    star_labels,
)
from .errors import DomainError
from .hopf import (
    H,
    SigmaElem,
    _tensor,
    antipode,
    basis_elem,
    delta_split,
    mu,
    relabel,
    unit_elem,
    zero_elem,
)
from .lincomb import LinComb, lincomb_sum, sparse_sum


# ---------------------------------------------------------------------------
# series of the composition algebra


def _onto(x: SigmaElem, side: tuple) -> SigmaElem:
    """Unchecked: x is an H-basis element over [k] and side a sorted k-tuple.
    Moves x onto side by the order embedding i -> side[i - 1], which keeps
    every lump sorted."""
    def move(F: Composition) -> Composition:
        return Composition._of(tuple(tuple(side[i - 1] for i in l) for l in F.lumps), side)

    return SigmaElem._of(side, x.lc.map_keys(move), H)


class SigmaSeries:
    """Degreewise elements over [n], 0 <= n <= max_n, H-basis, S_n-invariant.

    ``SigmaSeries(...)`` checks every term, relabeling invariance included;
    the builders here, whose terms are invariant by construction, use the
    unchecked ``SigmaSeries._of``.  Zero terms are not stored."""

    __slots__ = ("terms", "max_n")

    def __init__(self, terms: Mapping[int, SigmaElem], max_n: int):
        for n, elem in terms.items():
            if n < 0 or n > max_n:
                raise DomainError(f"degree {n} outside truncation 0..{max_n}")
            if elem.basis != H:
                raise DomainError("series terms must be in the H-basis")
            if elem.ground != canonical_set(n):
                raise DomainError(f"degree-{n} term must live over [{n}]")
            for i in range(1, n):
                swap = {j: j for j in elem.ground}
                swap[i], swap[i + 1] = i + 1, i
                if relabel(elem, swap) != elem:
                    raise DomainError(f"degree-{n} term is not relabeling-invariant")
        self._store(terms, max_n)

    @classmethod
    def _of(cls, terms: Mapping[int, SigmaElem], max_n: int) -> "SigmaSeries":
        """Unchecked: each term is an S_n-invariant H-basis element over [n], n <= max_n."""
        self = object.__new__(cls)
        self._store(terms, max_n)
        return self

    def _store(self, terms: Mapping[int, SigmaElem], max_n: int) -> None:
        object.__setattr__(self, "terms", {n: t for n, t in terms.items() if not t.is_zero()})
        object.__setattr__(self, "max_n", max_n)

    def __setattr__(self, *a):
        raise AttributeError("SigmaSeries is immutable")

    def term(self, n: int) -> SigmaElem:
        if n in self.terms:
            return self.terms[n]
        return zero_elem(canonical_set(n), H)

    def __eq__(self, other):
        return (
            isinstance(other, SigmaSeries)
            and self.max_n == other.max_n
            and self.terms == other.terms
        )

    def map_terms(self, f: Callable[[SigmaElem], SigmaElem]) -> "SigmaSeries":
        return SigmaSeries._of({n: f(t) for n, t in self.terms.items()}, self.max_n)

    def __repr__(self):
        return "SigmaSeries{" + ", ".join(f"{n}: {t}" for n, t in sorted(self.terms.items())) + "}"


def unit_series(max_n: int) -> SigmaSeries:
    return SigmaSeries._of({0: unit_elem(H)}, max_n)


def universal_series(c, max_n: int) -> SigmaSeries:
    """Degree n |-> c^n * H_([n]) (the group-like exponential-type series)."""
    terms = {}
    for n in range(max_n + 1):
        terms[n] = basis_elem(one_lump(canonical_set(n)), H, c**n)
    return SigmaSeries._of(terms, max_n)


def series_antipode(s: SigmaSeries) -> SigmaSeries:
    return s.map_terms(antipode)


def convolve(s: SigmaSeries, t: SigmaSeries) -> SigmaSeries:
    """Degreewise sum over ordered splits of the concatenation products."""
    if s.max_n != t.max_n:
        raise DomainError("convolution requires matching truncation orders")
    out: dict[int, SigmaElem] = {}
    for n in range(s.max_n + 1):
        ground = canonical_set(n)
        pieces = (
            mu(_onto(s.terms[len(S)], S), _onto(t.terms[len(T)], T)).lc
            for S, T in ordered_splits(ground)
            if len(S) in s.terms and len(T) in t.terms
        )
        out[n] = SigmaElem._of(ground, lincomb_sum(pieces), H)
    return SigmaSeries._of(out, s.max_n)


def is_group_like(s: SigmaSeries) -> bool:
    """Delta_{S,T}(s_n) = s_(|S|) (x) s_(|T|) under canonical relabeling, all splits."""
    if s.term(0) != unit_elem(H):
        return False
    for n in range(1, s.max_n + 1):
        ground = canonical_set(n)
        sn = s.term(n)
        for S, T in proper_splits(ground):
            if delta_split(sn, S, T) != _tensor(_onto(s.term(len(S)), S), _onto(s.term(len(T)), T)):
                return False
    return True


# ---------------------------------------------------------------------------
# evaluators into the word algebra


def polynomial_system(pairings: Mapping[Any, object]) -> Callable:
    """Pointwise products of linear functionals evaluated at a fixed point.

    ``pairings`` maps decoration symbols to the exact value of their pairing
    with the chosen point (an int, Fraction or QI); evaluation multiplies
    the values of all labels and lifts the product to a multiple of the
    empty word once, so the target is commutative and the evaluator is
    algebraic.
    """

    def eval_comp(F: Composition, dec: Mapping[int, Any]) -> LinComb:
        return LinComb.single((), prod(pairings[dec[l]] for l in F.ground))

    return eval_comp


def eval_system(sys: Callable, x: SigmaElem, dec: Mapping[int, Any]) -> LinComb:
    """Linear extension of the evaluator over the H-basis: x decorated by dec."""
    if x.basis != H:
        raise DomainError("eval_system expects an H-basis element")
    missing = [l for l in x.ground if l not in dec]
    if missing:
        raise DomainError(f"decoration missing for labels {missing}")
    return lincomb_sum(sys(F, dec).scale(c) for F, c in x.lc)


def homomorphism_check(sys: Callable, n: int, decorations: Mapping[int, Any]) -> bool:
    """eta(mu(x,y) (x) A_S A_T) = eta(x (x) A_S) * eta(y (x) A_T) on basis inputs."""
    ground = canonical_set(n)
    for l in ground:
        if l not in decorations:
            raise DomainError(f"decoration missing for label {l}")
    if sys(Composition(()), {}) != LinComb.single((), 1):
        return False
    for m in range(0, n + 1):
        sub = canonical_set(m)
        for S, T in ordered_splits(sub):
            dec_s = {l: decorations[l] for l in S}
            dec_t = {l: decorations[l] for l in T}
            dec = {**dec_s, **dec_t}
            for F in compositions_of(S):
                for G in compositions_of(T):
                    lhs = eval_system(sys, mu(basis_elem(F, H), basis_elem(G, H)), dec)
                    rhs = word_product(
                        eval_system(sys, basis_elem(F, H), dec_s), eval_system(sys, basis_elem(G, H), dec_t)
                    )
                    if lhs != rhs:
                        return False
    return True


# ---------------------------------------------------------------------------
# truncated bivariate series with word-algebra coefficients


def word_product(x: LinComb, y: LinComb) -> LinComb:
    """The concatenation product of two word-algebra elements."""
    return sparse_sum((w1 + w2, c1 * c2) for w1, c1 in x for w2, c2 in y)


class TruncSeries:
    """Truncated formal power series in (g, j) with word-algebra coefficients."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[tuple[int, int], LinComb] | None = None):
        store: dict[tuple[int, int], LinComb] = {}
        if terms:
            for (r, n), v in terms.items():
                if r < 0 or n < 0:
                    raise DomainError("negative exponents are not allowed")
                if r + n > order:
                    raise DomainError(f"term g^{r} j^{n} beyond truncation order {order}")
                if not v.is_zero():
                    store[(r, n)] = v
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", store)

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    @staticmethod
    def unit(order: int) -> "TruncSeries":
        return TruncSeries(order, {(0, 0): LinComb.single((), 1)})

    def coeff(self, r: int, n: int) -> LinComb:
        return self.terms.get((r, n), LinComb())

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.terms == other.terms
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise DomainError("truncation orders differ")
        terms: dict[tuple[int, int], LinComb] = {}
        for (r1, n1), v1 in self.terms.items():
            for (r2, n2), v2 in other.terms.items():
                r, n = r1 + r2, n1 + n2
                if r + n > self.order:
                    continue
                prod = word_product(v1, v2)
                if (r, n) in terms:
                    terms[(r, n)] = terms[(r, n)] + prod
                else:
                    terms[(r, n)] = prod
        return TruncSeries(self.order, terms)

    def at_g_zero(self) -> "TruncSeries":
        return TruncSeries(self.order, {k: v for k, v in self.terms.items() if k[0] == 0})

    def at_j_zero(self) -> "TruncSeries":
        return TruncSeries(self.order, {k: v for k, v in self.terms.items() if k[1] == 0})

    def __repr__(self):
        if not self.terms:
            return f"0 (order {self.order})"
        bits = []
        for (r, n) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0])):
            bits.append(f"g^{r} j^{n} [{self.terms[(r, n)]}]")
        return " + ".join(bits)


def formal_diff(ts: TruncSeries, symbol: str) -> TruncSeries:
    """The degree-lowering derivative d/dg or d/dj with the (n+1) shift."""
    if symbol not in ("g", "j"):
        raise DomainError("symbol must be 'g' or 'j'")
    terms: dict[tuple[int, int], LinComb] = {}
    for (r, n), v in ts.terms.items():
        if symbol == "g" and r >= 1:
            terms[(r - 1, n)] = v.scale(Fraction(r))
        elif symbol == "j" and n >= 1:
            terms[(r, n - 1)] = v.scale(Fraction(n))
    return TruncSeries(max(ts.order - 1, 0), terms)


# ---------------------------------------------------------------------------
# T-exponentials and perturbations


def _gj_term(
    sys: Callable, x: SigmaElem, stars: tuple, labels: tuple, S_dec, A_dec, c
) -> LinComb:
    """c^(r+n) / (r! n!)  eta(x (x) S^r A^n), r = |stars|, n = |labels|: the
    evaluation of x with S_dec on the stars and A_dec on the labels, scaled.
    Every g^r j^n coefficient built below is one such term."""
    r, n = len(stars), len(labels)
    dec = {**dict.fromkeys(stars, S_dec), **dict.fromkeys(labels, A_dec)}
    scal = c ** (r + n) * Fraction(1, factorial(r) * factorial(n))
    return eval_system(sys, x, dec).scale(scal)


def t_exponential(sys: Callable, s: SigmaSeries, A, order: int) -> TruncSeries:
    """sum_n j^n / n!  eta(s_n (x) A^n), truncated at the given order; the
    coupling, if any, is inside the series."""
    if s.max_n < order:
        raise DomainError("series truncation is below the requested order")
    terms = {
        (0, n): _gj_term(sys, s.term(n), (), canonical_set(n), None, A, 1)
        for n in range(order + 1)
    }
    return TruncSeries(order, terms)


def _universal_coupling(s: SigmaSeries):
    """Extract c from a universal series, validating every degree."""
    c1 = s.term(1).lc.coeff(one_lump((1,)))
    c = c1 if c1 is not None else 0
    for n in range(s.max_n + 1):
        expected = basis_elem(one_lump(canonical_set(n)), H, c**n)
        if s.term(n) != expected and not (s.term(n).is_zero() and expected.is_zero()):
            raise DomainError("perturbation requires the universal series G(c)")
    return c


def perturb_coderivation(
    sys: Callable, s: SigmaSeries, S_dec, A_dec, order: int
) -> TruncSeries:
    """The double series  sum g^r j^n c^(r+n) / (r! n!)  T^r_n(S^r A^n).

    The r adjoined interaction labels extend the single lump, which is the
    up-coderivation perturbation of the one-lump products; the result
    equals the two-argument expansion of the T-exponential at g S + j A.
    """
    c = _universal_coupling(s)
    terms: dict[tuple[int, int], LinComb] = {}
    for r in range(order + 1):
        stars = star_labels(r)
        for n in range(order + 1 - r):
            labels = canonical_set(n)
            x = basis_elem(one_lump(stars + labels), H)
            terms[(r, n)] = _gj_term(sys, x, stars, labels, S_dec, A_dec, c)
    return TruncSeries(order, terms)


def reverse_exponential(sys: Callable, c, S_dec, order: int) -> TruncSeries:
    """S^{-1}(g S): the T-exponential of the antipode-composed universal series."""
    terms: dict[tuple[int, int], LinComb] = {}
    for r in range(order + 1):
        stars = star_labels(r)
        x = antipode(basis_elem(one_lump(stars), H))
        terms[(r, 0)] = _gj_term(sys, x, stars, (), S_dec, None, c)
    return TruncSeries(order, terms)


def perturb_arrow(
    sys: Callable,
    S_dec,
    A_dec,
    order: int,
    direction: str = "down",
) -> TruncSeries:
    """sum g^r j^n / (r! n!)  eta(R_(r;n) (x) S^r A^n)  (or A_(r;n) up), at
    c = 1 like every causal construction (see the module docstring).
    At n = 0 the split sum is the reverse convolution element of the stars."""
    if direction not in ("down", "up"):
        raise DomainError("direction must be 'down' or 'up'")
    terms: dict[tuple[int, int], LinComb] = {}
    for r in range(order + 1):
        stars = star_labels(r)
        for n in range(order + 1 - r):
            labels = canonical_set(n)
            x = _split_sum(stars, labels, advanced=direction == "up")
            terms[(r, n)] = _gj_term(sys, x, stars, labels, S_dec, A_dec, 1)
    return TruncSeries(order, terms)
