"""Exact sparse linear algebra over arbitrary basis keys.

One exact elimination, ``_gauss_jordan``: a sparse fraction-free forward
pass over int rows ``{column: int}``.  The rows are cleared of
denominators one by one by ``_numerators``, the package's one
denominator-clearing function (``hopf.delta_split`` uses it too); the
coefficients must be real: ints, Fractions, or QI with a zero imaginary
part.  The pass walks the columns in order, with an index from each column
to the live rows that hold it, so a pivot touches only those rows.  The
pivot of a column is the live row with the fewest entries, the lowest index
on a tie (Markowitz 1957).  Every other holder becomes a * row - b * prow,
where p and f are the pivot row's and the holder's entries in the column,
g = gcd(p, f), a = p / g and b = f / g, and is then divided by the gcd of
its entries.  So every row step is exact over the integers, as in Bareiss
(1968), and no common divisor is carried.  ``rank`` counts the pivots.
``kernel_basis`` adds one back-substitution pass, which leaves each pivot
row a multiple of its row of the reduced echelon form, and reads the kernel
off it as int and Fraction coefficients.  The reduced echelon form is
unique, so the basis depends neither on the row order nor on the pivots.

``rank_mod_prime`` is the rank over GF(2) of the same ``LinComb`` input,
each row one int bitset of its odd numerators: a lower bound only, so its
callers certify every conclusion drawn from it.
``cells.dynkin_rank`` takes the lower side of its squeeze from it, the
rank of the Dynkin rows; the upper side, from the unitriangular minors of
the shuffle blocks, runs no elimination.

The module never inspects key structure: keys only need to be hashable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError
from .lincomb import LinComb
from .scalars import QI

P = 2  # the field of rank_mod_prime is GF(P)


def _bitset(positions: Iterable[int], size: int) -> int:
    """The int whose set bits are the given positions, each below size."""
    digits = bytearray(b"0") * size  # digit t, read reversed: bit t
    for t in positions:
        digits[t] = 49  # ord("1")
    return int(digits[::-1], 2)


def _combine(row: dict[int, int], prow: dict[int, int], s: int) -> dict[int, int]:
    """a * row - b * prow divided by the gcd of its entries, which is zero
    in column s; row is consumed.

    With p = prow[s], f = row[s] and g = gcd(p, f): a = p / g, b = f / g,
    both negated when p < 0 so that a > 0, and row is not copied when a = 1.
    """
    p, f = prow[s], row[s]
    g = gcd(p, f) if p > 0 else -gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        row = {c: a * x for c, x in row.items()}
    get = row.get
    for c, y in prow.items():
        x = get(c, 0) - b * y
        if x:
            row[c] = x
        else:
            del row[c]
    g = gcd(*row.values())
    if g > 1:
        row = {c: x // g for c, x in row.items()}
    return row


def _gauss_jordan(rows: list[dict[int, int]], ncols: int) -> list[tuple[int, dict[int, int]]]:
    """The sparse forward pass over rows, which it consumes; returns the
    pivot rows as (pivot column, row), in column order.

    A pivot row holds its pivot column and later columns only.
    """
    index: list[set[int]] = [set() for _ in range(ncols)]  # column -> the live rows that hold it
    for i, row in enumerate(rows):
        for c in row:
            index[c].add(i)
    pivots = []
    for s, holders in enumerate(index):
        if not holders:
            continue
        r = min(holders, key=lambda i: (len(rows[i]), i))
        prow = rows[r]
        for c in prow:
            index[c].discard(r)
        for h in holders:
            rows[h] = row = _combine(rows[h], prow, s)
            for c in prow:
                if c in row:
                    index[c].add(h)
                elif c != s:
                    index[c].discard(h)
        holders.clear()
        pivots.append((s, prow))
    return pivots


def _numerators(coeffs: Iterable) -> tuple[list[int], int]:
    """The int numerators of real coefficients over their least common
    denominator, and that denominator.

    Accepts ints, Fractions and QI with a zero imaginary part; raises
    DomainError on anything else.  All-int coefficients are returned as
    they are, over 1.
    """
    coeffs = list(coeffs)
    if all(type(c) is int for c in coeffs):
        return coeffs, 1
    fracs = []
    for c in coeffs:
        if isinstance(c, QI) and not c.im:
            c = c.re
        elif not isinstance(c, (int, Fraction)):
            raise DomainError(f"expected a real coefficient, got {c!r}")
        fracs.append(c)
    den = lcm(*(c.denominator for c in fracs))
    return [c.numerator * (den // c.denominator) for c in fracs], den


def integer_rows(vectors: Sequence[LinComb]) -> tuple[list[dict[int, int]], list]:
    """The sparse int rows of rational-valued vectors, each over the lcm of
    its own denominators, and their column keys in first-seen order.

    Raises DomainError on a non-real coefficient.
    """
    index: dict = {}
    rows = [
        {index.setdefault(k, len(index)): x for k, x in zip(v.keys(), _numerators(c for _, c in v)[0])}
        for v in vectors
    ]
    return rows, list(index)


def rank(vectors: Sequence[LinComb]) -> int:
    """Exact rank of the span of the given vectors."""
    rows, keys = integer_rows(vectors)
    return len(_gauss_jordan(rows, len(keys)))


def rank_mod_prime(vectors: Sequence[LinComb]) -> int:
    """Rank over GF(P), P = 2, of the span of the given vectors: a sound
    lower bound on the exact rank, so callers must certify what they
    conclude from it.

    Each vector's ``_numerators`` are an int row with the same rational
    span, and a minor that is odd is not zero, so the GF(2) rank of the
    rows is at most their rank over Q.  The field is 2 because a row is
    then one int bitset: bit i is set when the numerator in column i is
    odd, with the columns numbered in first-seen order.  Each row's odd
    columns are listed first and its bitset built once, by ``_bitset``.
    The elimination is an XOR basis keyed by each row's highest set bit; a
    row that XORs down to zero adds nothing.  The rank does not depend on
    the numbering.
    """
    index: dict = {}
    basis: dict[int, int] = {}  # highest set bit -> the basis row that holds it
    for v in vectors:
        terms = v.t
        nums = _numerators(terms.values())[0]
        odd = [index.setdefault(k, len(index)) for k, x in zip(terms, nums) if x & 1]
        row = _bitset(odd, len(index)) if odd else 0
        while row:
            top = row.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = row
                break
            row ^= b
    return len(basis)


def kernel_basis(
    linear_map: Iterable[tuple[object, LinComb]],
    domain: Sequence[object],
) -> list[LinComb]:
    """Exact basis of the kernel of the map sending each domain key to its image.

    The result vectors are LinCombs over the domain keys with int and
    Fraction coefficients, echelonized against the domain order: the vector
    of a free key has coefficient 1 there, then the pivot keys in domain
    order.  Raises DomainError on a key the map misses and on a non-real
    coefficient.
    """
    images = dict(linear_map)
    for k in domain:
        if k not in images:
            raise DomainError(f"linear map not defined on domain key {k!r}")
    # one row per output key, over the columns j of the images of domain[j];
    # equal rows, such as those of the splits (S, T) and (T, S), are kept once
    entries: dict[object, list] = {}
    for j, k in enumerate(domain):
        for ok, c in images[k]:
            entries.setdefault(ok, []).append((j, c))
    rows = dict.fromkeys(
        tuple(zip([j for j, _ in e], _numerators(c for _, c in e)[0])) for e in entries.values()
    )
    pivots = _gauss_jordan([dict(row) for row in rows], len(domain))

    # back-substitution, last pivot first: each row is cleared in the pivot
    # columns after its own against rows that are already reduced
    reduced: dict[int, dict[int, int]] = {}
    for s, row in reversed(pivots):
        for c in [c for c in row if c in reduced]:
            row = _combine(row, reduced[c], c)
        reduced[s] = row

    # free column j gives e_j - sum over pivot rows of row[j] / row[s] * e_s
    free: dict[int, dict] = {j: {key: 1} for j, key in enumerate(domain) if j not in reduced}
    for s, _ in pivots:
        row = reduced[s]
        p = row[s]
        for j, x in row.items():
            if j != s:
                free[j][domain[s]] = Fraction(-x, p)
    return [LinComb._of(vec) for vec in free.values()]
