"""Series of the composition algebra, evaluators and T-exponentials.

A ``SigmaSeries`` assigns to each degree n an S_n-invariant H-basis
element over [n].  Its coefficient on H_F depends only on F's shape, the
tuple of its lump sizes, so a term is stored in shape form: a ``LinComb``
keyed by the compositions of the integer n.  That is the term's image under
the bosonic Fock functor, which sends set compositions to noncommutative
symmetric functions (Aguiar and Mahajan 2010, Part III), and there
convolution is the word product of shapes: a composition F of [n] arises
in the sum of mu(s_S, t_T) over ordered splits once per cut of its lumps
into a prefix, over S, and a suffix, so its coefficient is the sum over
the cuts of s's coefficient on the prefix shape times t's on the suffix
shape.  ``SigmaSeries.term`` expands a shape form, one composition per
filling of each stored shape; ``shape_form`` reads an invariant element back.

The target of evaluation is the free word algebra: an element is a
``LinComb`` keyed by words, tuples of observable ids, with the empty word
as the unit and ``word_product`` (concatenation) as the product.  No
relations are imposed, so any identity that holds there holds for purely
combinatorial reasons.  An evaluator is a function ``(F, dec) -> LinComb``
of one basis composition F and one decoration per ground label;
``eval_system`` is its linear extension.  Whether an evaluator is
multiplicative is checked by ``homomorphism_check``, not assumed.
T-exponentials and their coderivation/arrow perturbations are truncated
formal power series in the symbols g and j with word coefficients over the
rationals.  Their g^r j^n coefficient is c^(r+n) / (r! n!) times the
evaluation of an element over r stars (interaction labels, decorated by S)
and n labels (decorated by A), whose coefficient on H_F depends only on the
two-coloured shape of F, its (stars, labels) count per lump.  So each is
given as a two-coloured shape form, a ``LinComb`` keyed by tuples of such
pairs, and ``_form_series`` evaluates each shape once, on its first
filling, for all r! n! / prod a_i! b_i! of its fillings.  That needs the
evaluator to be natural, a morphism of species: relabelling F and its
decoration together leaves the word unchanged.  ``CAUSAL_SYSTEM`` and
``polynomial_system`` are, and relabelling stars among stars and labels
among labels keeps the decoration, so every filling gives the same word.

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
from itertools import combinations
from math import factorial, prod
from typing import Any, Callable, Iterable, Mapping

from .compositions import Composition, canonical_set, compositions_of, ordered_splits, star_labels
from .errors import DomainError
from .hopf import H, SigmaElem, _tensor, antipode, basis_elem, delta_split, mu, unit_elem
from .lincomb import LinComb, lincomb_sum, sparse_sum


# ---------------------------------------------------------------------------
# series of the composition algebra


def _lumpings(labels: tuple, shape: tuple):
    """The sorted lumps of each composition of the sorted labels with the
    given lump sizes: successive combinations."""
    if not shape:
        yield ()
        return
    for first in combinations(labels, shape[0]):
        rest = tuple(x for x in labels if x not in first)
        yield from ((first,) + tail for tail in _lumpings(rest, shape[1:]))


def lump_shapes(m: int) -> list[tuple]:
    """The lump shapes of degree m, the compositions of the integer m, by
    length and then by cut points: the order in which ``compositions_of``
    of [m] first meets them."""
    if not m:
        return [()]
    return [
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (m,)))
        for k in range(m)
        for cuts in combinations(range(1, m), k)
    ]


def _expand(form: LinComb, ground: tuple) -> SigmaElem:
    """The H-basis element over the sorted ground with form's coefficient
    on the shape of F as its coefficient on each H_F."""
    terms = {Composition._of(lumps, ground): c for shape, c in form for lumps in _lumpings(ground, shape)}
    return SigmaElem._of(ground, LinComb._of(terms), H)


def shape_form(x: SigmaElem) -> LinComb:
    """The coefficients of an S_n-invariant H-basis element keyed by lump
    shapes.  A DomainError if x is not invariant: if it has two
    coefficients on one shape, or lacks a composition of a shape it has."""
    form = LinComb._of({tuple(map(len, F.lumps)): c for F, c in x.lc})
    if x.basis != H or _expand(form, x.ground) != x:
        raise DomainError("not a relabeling-invariant H-basis element")
    return form


class SigmaSeries:
    """Degreewise S_n-invariant H-basis elements over [n], 0 <= n <= max_n,
    in shape form: ``terms[n]`` is a LinComb keyed by lump shapes, the
    compositions of the integer n, and its coefficient on a shape is the
    coefficient of every H_F of that shape.  The constructor checks that
    each key is a shape of its degree.  Zero terms are not stored."""

    __slots__ = ("terms", "max_n")

    def __init__(self, terms: Mapping[int, LinComb], max_n: int):
        for n, form in terms.items():
            if n < 0 or n > max_n:
                raise DomainError(f"degree {n} outside truncation 0..{max_n}")
            for shape, _ in form:
                parts = type(shape) is tuple and all(type(a) is int and a > 0 for a in shape)
                if not parts or sum(shape) != n:
                    raise DomainError(f"degree-{n} key {shape!r} is not a lump shape of {n}")
        object.__setattr__(self, "terms", {n: f for n, f in terms.items() if f})
        object.__setattr__(self, "max_n", max_n)

    def __setattr__(self, *a):
        raise AttributeError("SigmaSeries is immutable")

    def term(self, n: int) -> SigmaElem:
        """The degree-n term as an element over [n]."""
        return _expand(self.terms.get(n, LinComb()), canonical_set(n))

    def __eq__(self, other):
        return (
            isinstance(other, SigmaSeries)
            and self.max_n == other.max_n
            and self.terms == other.terms
        )

    def __repr__(self):
        return "SigmaSeries{" + ", ".join(f"{n}: {t}" for n, t in sorted(self.terms.items())) + "}"


def unit_series(max_n: int) -> SigmaSeries:
    return SigmaSeries({0: LinComb.single((), 1)}, max_n)


def universal_series(c, max_n: int) -> SigmaSeries:
    """Degree n |-> c^n * H_([n]) (the group-like exponential-type series)."""
    return SigmaSeries({n: LinComb.single((n,) if n else (), c**n) for n in range(max_n + 1)}, max_n)


def series_antipode(s: SigmaSeries) -> SigmaSeries:
    """The antipode termwise, read back through ``shape_form``."""
    return SigmaSeries({n: shape_form(antipode(s.term(n))) for n in s.terms}, s.max_n)


def convolve(s: SigmaSeries, t: SigmaSeries) -> SigmaSeries:
    """Degreewise sum over ordered splits of the concatenation products: in
    shape form, the sum over k of the word products of s_k and t_(n-k)."""
    if s.max_n != t.max_n:
        raise DomainError("convolution requires matching truncation orders")
    zero = LinComb()
    return SigmaSeries({
        n: lincomb_sum(word_product(s.terms.get(k, zero), t.terms.get(n - k, zero)) for k in range(n + 1))
        for n in range(s.max_n + 1)
    }, s.max_n)


def is_group_like(s: SigmaSeries) -> bool:
    """Delta_{S,T}(s_n) = s_(|S|) (x) s_(|T|), each side over its own labels,
    on every proper split.  Relabelling the split moves both sides alike and
    fixes s_n, so one split per size k is enough: [k] and [n] - [k]."""
    if s.term(0) != unit_elem(H):
        return False
    zero = LinComb()
    for n in range(1, s.max_n + 1):
        ground, sn = canonical_set(n), s.term(n)
        for k in range(1, n):
            S, T = ground[:k], ground[k:]
            left, right = _expand(s.terms.get(k, zero), S), _expand(s.terms.get(n - k, zero), T)
            if delta_split(sn, S, T) != _tensor(left, right):
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
# T-exponentials and perturbations, on two-coloured shape forms


def _reverse_form(r: int) -> LinComb:
    """The two-coloured shape form of s(H_(r stars)) = sum_F (-1)^l(F) H_F:
    (-1)^l on every shape of r stars."""
    return LinComb({tuple((a, 0) for a in shape): (-1) ** len(shape) for shape in lump_shapes(r)})


def _split_form(r: int, n: int, advanced: bool, reverse: list[LinComb]) -> LinComb:
    """The two-coloured shape form of ``arrows._split_sum`` over r stars and
    n labels: for each k, the reverse form of k stars before the lump
    (r - k, n), or after it when advanced, that lump dropped when empty.  At
    n = 0 they cancel but for the unit at r = 0: the reverse convolution.
    reverse[k] is ``_reverse_form(k)``, which the caller builds once for
    every k up to its order."""
    pairs = []
    for k in range(r + 1):
        lump = ((r - k, n),) if k < r or n else ()
        pairs += [(lump + shape if advanced else shape + lump, q) for shape, q in reverse[k]]
    return sparse_sum(pairs)


def _form_series(
    sys: Callable, forms: Iterable[tuple[tuple[int, int], LinComb]], S_dec, A_dec, c, order: int
) -> TruncSeries:
    """sum g^r j^n c^(r+n) / (r! n!)  eta(x (x) S^r A^n) over the pairs
    ((r, n), form) of forms, taken one at a time, where x is the element
    over r stars and n labels whose two-coloured shape form is form.  Each
    shape is evaluated once, on its first filling: stars -r..-1, then labels
    1..n, dealt to its lumps in order.  Its r! n! / prod a_i! b_i! fillings
    all give that word, since sys is natural, so the word is scaled by
    c^(r+n) q / prod a_i! b_i!."""
    terms = {}
    for (r, n), form in forms:
        stars, labels, cn = star_labels(r), canonical_set(n), c ** (r + n)
        ground, dec = stars + labels, {**dict.fromkeys(stars, S_dec), **dict.fromkeys(labels, A_dec)}
        parts = []
        for shape, q in form:
            lumps, i, j, w = [], 0, 0, 1
            for a, b in shape:
                lumps.append(stars[i : i + a] + labels[j : j + b])
                i, j, w = i + a, j + b, w * factorial(a) * factorial(b)
            parts.append(sys(Composition._of(tuple(lumps), ground), dec).scale(cn * q * Fraction(1, w)))
        terms[(r, n)] = lincomb_sum(parts)
    return TruncSeries(order, terms)


def t_exponential(sys: Callable, s: SigmaSeries, A, order: int) -> TruncSeries:
    """sum_n j^n / n!  eta(s_n (x) A^n), truncated at the given order; the
    coupling, if any, is inside the series.  A shape b of s_n is the
    two-coloured shape ((0, b_1), (0, b_2), ...)."""
    if s.max_n < order:
        raise DomainError("series truncation is below the requested order")
    forms = (
        ((0, n), f.map_keys(lambda b: tuple((0, a) for a in b))) for n, f in s.terms.items() if n <= order
    )
    return _form_series(sys, forms, None, A, 1, order)


def perturb_coderivation(sys: Callable, c, S_dec, A_dec, order: int) -> TruncSeries:
    """The double series  sum g^r j^n c^(r+n) / (r! n!)  T^r_n(S^r A^n),
    the perturbation of the universal series at coupling c.

    The r adjoined interaction labels extend the single lump, the one shape
    ((r, n),), which is the up-coderivation perturbation of the one-lump
    products; the result equals the two-argument expansion of the
    T-exponential at g S + j A.
    """
    pairs = ((r, n) for r in range(order + 1) for n in range(order + 1 - r))
    forms = (((r, n), LinComb.single(((r, n),) if r + n else (), 1)) for r, n in pairs)
    return _form_series(sys, forms, S_dec, A_dec, c, order)


def reverse_exponential(sys: Callable, c, S_dec, order: int) -> TruncSeries:
    """S^{-1}(g S): the T-exponential of the antipode-composed universal series."""
    return _form_series(sys, (((r, 0), _reverse_form(r)) for r in range(order + 1)), S_dec, None, c, order)


def perturb_arrow(sys: Callable, S_dec, A_dec, order: int, direction: str = "down") -> TruncSeries:
    """sum g^r j^n / (r! n!)  eta(R_(r;n) (x) S^r A^n)  (or A_(r;n) up), at
    c = 1 like every causal construction (see the module docstring), each
    coefficient from the split form of r stars and n labels."""
    if direction not in ("down", "up"):
        raise DomainError("direction must be 'down' or 'up'")
    pairs = ((r, n) for r in range(order + 1) for n in range(order + 1 - r))
    reverse = [_reverse_form(k) for k in range(order + 1)]
    forms = (((r, n), _split_form(r, n, direction == "up", reverse)) for r, n in pairs)
    return _form_series(sys, forms, S_dec, A_dec, 1, order)
