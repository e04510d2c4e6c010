"""Exact sparse linear algebra over arbitrary basis keys.

One exact elimination: integer Gauss-Jordan over one common divisor D, with
the fraction-free pivot that ``lp.simplex_max`` also runs, there on the
compact simplex tableau ``[A | b]`` plus its objective row.  The matrix is an
int matrix M standing for M / D.  A pivot at (r, s) with p = M[r][s] maps
every other row to (M[i][j] * p - M[i][s] * M[r][j]) // D and then sets
D = p; the division is exact by Sylvester's identity, so every entry stays a
minor of the starting matrix and no Fraction is ever built.  ``rank`` counts
the pivots; ``kernel_basis`` reads the kernel off the reduced echelon form,
as int and Fraction coefficients.  Inputs are cleared of denominators row by
row by ``_numerators``, the package's one denominator-clearing function
(``hopf.delta_split`` uses it too); they must be real: ints, Fractions, or
QI with a zero imaginary part.

``rank_mod_prime`` is the rank over GF(2) of the same ``LinComb`` input,
each row one int bitset of its odd numerators: a lower bound only, so its
callers certify every conclusion drawn from it.
``cells.dynkin_rank`` takes the lower side of its squeeze from it, the
rank of the Dynkin rows; the upper side, from the unitriangular minors of
the shuffle blocks, runs no elimination.

The module never inspects key structure: keys only need to be hashable and
deterministically sortable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DomainError
from .lincomb import LinComb, default_sort_key
from .scalars import QI

P = 2  # the field of rank_mod_prime is GF(P)


def _pivot(rows: list[list[int]], r: int, s: int, D: int) -> int:
    """Fraction-free pivot of rows = M (over divisor D) at (r, s); returns p.

    Every row but r becomes (M[i] * p - M[i][s] * M[r]) // D with
    p = M[r][s], rows with a zero in column s included: they still scale by
    p / D, which keeps later divisions exact.  The new divisor is p.
    """
    prow = rows[r]
    p = prow[s]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[s]
        if f:
            rows[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
        elif p != D:
            rows[i] = [x * p // D for x in row]
    return p


def _gauss_jordan(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Reduce rows in place; returns (pivot columns, final divisor D).

    Row k of the result has its pivot, equal to D, in column pivots[k] and a
    zero in every other pivot column.  Zero rows are dropped as they appear,
    so the rows past the pivots are gone.
    """
    rows[:] = [row for row in rows if any(row)]
    pivots: list[int] = []
    D = 1
    for s in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][s]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        D = _pivot(rows, r, s, D)
        pivots.append(s)
        rows[r + 1 :] = [row for row in rows[r + 1 :] if any(row)]
    return pivots, D


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


def _clear_denominators(
    row_entries: Iterable[Sequence[tuple[int, object]]], ncols: int
) -> list[list[int]]:
    """Dense int rows from sparse (column, coefficient) rows, each scaled by
    the lcm of its own denominators.  Raises DomainError on a non-real value."""
    rows = []
    for entries in row_entries:
        row = [0] * ncols
        for (j, _), x in zip(entries, _numerators(c for _, c in entries)[0]):
            row[j] = x
        rows.append(row)
    return rows


def integer_rows(vectors: Sequence[LinComb]) -> tuple[list[list[int]], list]:
    """Denominator-cleared integer row matrix for rational-valued vectors,
    and its column keys."""
    keys = sorted({k for v in vectors for k in v.keys()}, key=default_sort_key)
    index = {k: i for i, k in enumerate(keys)}
    return _clear_denominators(([(index[k], c) for k, c in v] for v in vectors), len(keys)), keys


def rank(vectors: Sequence[LinComb]) -> int:
    """Exact rank of the span of the given vectors."""
    rows, keys = integer_rows(vectors)
    return len(_gauss_jordan(rows, len(keys))[0])


def rank_mod_prime(vectors: Sequence[LinComb]) -> int:
    """Rank over GF(P), P = 2, of the span of the given vectors: a sound
    lower bound on the exact rank, so callers must certify what they
    conclude from it.

    Each vector's ``_numerators`` are an int row with the same rational
    span, and a minor that is odd is not zero, so the GF(2) rank of the
    rows is at most their rank over Q.  The field is 2 because a row is
    then one int bitset: bit i is set when the numerator in column i is
    odd, with the columns numbered in first-seen order.  The elimination
    is an XOR basis keyed by each row's highest set bit; a row that XORs
    down to zero adds nothing.  The rank does not depend on the numbering.
    """
    index: dict = {}
    basis: dict[int, int] = {}  # highest set bit -> the basis row that holds it
    for v in vectors:
        row = 0
        for k, x in zip(v.keys(), _numerators(c for _, c in v)[0]):
            if x & 1:
                row |= 1 << index.setdefault(k, len(index))
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
    Fraction coefficients, echelonized against the domain order (each has a
    leading coefficient 1).
    """
    images = dict(linear_map)
    for k in domain:
        if k not in images:
            raise DomainError(f"linear map not defined on domain key {k!r}")
    out_keys = sorted({k for v in images.values() for k in v.keys()}, key=default_sort_key)
    out_index = {k: i for i, k in enumerate(out_keys)}
    # row i is output key i; column j is the image of domain[j]
    entries: list[list[tuple[int, object]]] = [[] for _ in out_keys]
    for j, k in enumerate(domain):
        for ok, c in images[k]:
            entries[out_index[ok]].append((j, c))
    rows = _clear_denominators(entries, len(domain))
    pivots, D = _gauss_jordan(rows, len(domain))

    # the reduced echelon form is rows / D, so free column j gives
    # e_j - sum_k rows[k][j] / D * e_pivots[k]
    pivot_set = set(pivots)
    basis = []
    for j, key in enumerate(domain):
        if j in pivot_set:
            continue
        vec = {key: 1}
        for row, pc in zip(rows, pivots):
            if row[j]:
                vec[domain[pc]] = Fraction(-row[j], D)
        basis.append(LinComb(vec))
    return basis
