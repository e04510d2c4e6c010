"""Exact sparse linear algebra over arbitrary basis keys.

Rank uses fraction-free (Bareiss) elimination after clearing denominators,
which keeps intermediate entries as exact minors and avoids rational blowup
on the large Dynkin-span computations.  Kernel bases are computed by
Gauss-Jordan elimination over the Gaussian rationals.

The module never inspects key structure: keys only need to be hashable and
deterministically sortable.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import DomainError
from .lincomb import LinComb, default_sort_key
from .scalars import HbarPoly, QI, QI_ONE, QI_ZERO, as_qi


def _to_qi(v) -> QI:
    if isinstance(v, HbarPoly):
        return v.as_qi()
    q = as_qi(v)
    if q is NotImplemented:
        raise TypeError(f"cannot use coefficient {v!r} in linear algebra")
    return q


def _integer_matrix(
    vectors: Sequence[LinComb],
) -> tuple[list[list[int]], list[list[int]] | None, list]:
    """Each vector scaled to Gaussian integers by its own common denominator.

    Returns (real rows, imaginary rows or None when every entry is real,
    column keys).  Only the non-zero entries are visited.
    """
    keys = sorted({k for v in vectors for k in v.keys()}, key=default_sort_key)
    index = {k: i for i, k in enumerate(keys)}
    re_rows, im_rows = [], []
    is_complex = False
    for v in vectors:
        entries = [(index[k], _to_qi(c)) for k, c in v]
        den = lcm(*(f.denominator for _, c in entries for f in (c.re, c.im)))
        re = [0] * len(keys)
        im = [0] * len(keys)
        for j, c in entries:
            re[j] = c.re.numerator * (den // c.re.denominator)
            if c.im:
                im[j] = c.im.numerator * (den // c.im.denominator)
                is_complex = True
        re_rows.append(re)
        im_rows.append(im)
    return re_rows, (im_rows if is_complex else None), keys


def _gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gi_divexact(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    return (re // n, im // n)


def _bareiss_rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by single-step Bareiss elimination."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if f:
                for j in range(col + 1, ncols):
                    row[j] = (row[j] * p - f * prow[j]) // prev
                row[col] = 0
            else:
                # the Sylvester update degenerates to scaling, which must
                # still happen to keep later divisions exact
                for j in range(col + 1, ncols):
                    if row[j]:
                        row[j] = row[j] * p // prev
        prev = p
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


def _bareiss_rank_gauss(rows: list[list[tuple[int, int]]]) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = (1, 0)
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != (0, 0):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if f != (0, 0):
                for j in range(col + 1, ncols):
                    row[j] = _gi_divexact(_gi_sub(_gi_mul(row[j], p), _gi_mul(f, prow[j])), prev)
                row[col] = (0, 0)
            else:
                for j in range(col + 1, ncols):
                    if row[j] != (0, 0):
                        row[j] = _gi_divexact(_gi_mul(row[j], p), prev)
        prev = p
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


def rank(vectors: Sequence[LinComb]) -> int:
    """Exact rank of the span of the given vectors."""
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return 0
    re, im, _ = _integer_matrix(vectors)
    if im is None:
        return _bareiss_rank_int(re)
    return _bareiss_rank_gauss([list(zip(r, i)) for r, i in zip(re, im)])


def rank_mod_prime(int_rows: Sequence[Sequence[int]], p: int = 46337) -> int:
    """Rank of an integer matrix over GF(p).

    Internal fast path only: callers must certify any conclusion drawn from
    it with exact arithmetic (rank over GF(p) never exceeds the exact rank).
    """
    import numpy as np

    if not int_rows:
        return 0
    m = np.array(int_rows, dtype=np.int64) % p
    nrows, ncols = m.shape
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, col]), p - 2, p)
        m[r] = (m[r] * inv) % p
        rows = np.nonzero(m[r + 1 :, col])[0] + r + 1
        if rows.size:
            m[rows] = (m[rows] - np.outer(m[rows, col], m[r])) % p
        r += 1
    return r


def integer_rows(vectors: Sequence[LinComb]) -> tuple[list[list[int]], list]:
    """Denominator-cleared integer row matrix for rational-valued vectors."""
    re, im, keys = _integer_matrix(vectors)
    if im is not None:
        raise DomainError("integer_rows requires rational (non-complex) coefficients")
    return re, keys


def kernel_basis(
    linear_map: Iterable[tuple[object, LinComb]],
    domain: Sequence[object],
) -> list[LinComb]:
    """Exact basis of the kernel of the map sending each domain key to its image.

    The result vectors are LinCombs over the domain keys with QI coefficients,
    echelonized against the domain order (each has a leading coefficient 1).
    """
    images = dict(linear_map)
    for k in domain:
        if k not in images:
            raise DomainError(f"linear map not defined on domain key {k!r}")
    out_keys = sorted({k for v in images.values() for k in v.keys()}, key=default_sort_key)
    out_index = {k: i for i, k in enumerate(out_keys)}
    ncols = len(domain)
    # column j of the matrix is the image of domain[j]
    columns: list[dict[int, QI]] = []
    for k in domain:
        col = {}
        for ok, c in images[k]:
            col[out_index[ok]] = _to_qi(c)
        columns.append(col)

    # Gauss-Jordan over QI, dense in the rows that actually occur.
    nrows = len(out_keys)
    mat = [[QI_ZERO] * ncols for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            mat[i][j] = c

    pivot_cols: list[int] = []
    r = 0
    for j in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][j]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = QI_ONE / mat[r][j]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][j]:
                f = mat[i][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(j)
        r += 1
        if r == nrows:
            break

    pivot_set = set(pivot_cols)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = {domain[j]: QI_ONE}
        for rr, pc in enumerate(pivot_cols):
            c = mat[rr][j]
            if c:
                vec[domain[pc]] = -c
        basis.append(LinComb(vec))
    return basis
