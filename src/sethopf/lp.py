"""Exact rational linear programming, sized for cell-feasibility queries.

The only consumer is the chamber machinery: decide whether a family of
subset-sum inequalities  sum_{i in S} x_i > 0  admits a sum-zero rational
solution, and produce a witness when it does.  Strictness is handled by the
bounded-slack trick: maximize the common slack t of the constraints under a
norm bound; the system is strictly feasible iff the optimum is positive.

The sum-zero condition is eliminated by centering: a nonnegative variable
vector x represents the witness x - avg(x), which shrinks the tableau.
Infeasibility is decided by checked Gordan multipliers from a second LP,
one variable per side, that equates each label's coverage with the first
label's; ``cells`` reuses them, re-checked, within one enumeration call.

Both LPs run on ``simplex_max``, an integer primal simplex on the compact
tableau ``[A | b]``: one column per nonbasic variable, no slack identity
block.  Its pivot is ``_pivot``, a dense fraction-free step over one common
divisor; after it, the pivot column takes the leaving variable's column,
and ties are broken by variable index, so the pivot sequence is that of the
full ``[A | I | b]`` tableau.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Collection, Sequence

_BLAND_AFTER = 64  # pivot-rule switch that guarantees termination


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


def simplex_max(
    c: Sequence[int], A: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to A x <= b, x >= 0, where b >= 0, on integer data.

    Primal simplex from the slack basis; largest-coefficient pivoting with a
    switch to Bland's rule to rule out cycling.  Returns (value, argmax).
    Raises on an unbounded program.

    Variables 0..n-1 are the columns of A and n..n+m-1 the slacks.  The
    tableau is the compact (dictionary) one: ``[A | b]`` with the objective
    row last, one column per nonbasic variable, no identity block.  It is an
    int matrix M over one positive common divisor D, tableau = M / D.
    ``basis[i]`` is the variable of row i, ``nonbasic[j]`` that of column j.
    A pivot at (r, s) with p = M[r][s] is ``_pivot``: it maps every other
    row to (M[i][j] * p - M[i][s] * M[r][j]) // D and then D = p; the division
    is exact by Sylvester's identity: D is the determinant of the current
    basis and every entry of M a minor of the starting integer tableau.
    Column s then takes the leaving variable, whose full-tableau column
    would have been D e_r before the pivot: -M[i][s] in every other row and
    the old D in row r.  So every column holds exactly what the full
    ``[A | I | b]`` tableau holds for its variable.  Ties go to the smallest
    variable index, entering and leaving, as in the full tableau, so the
    pivot sequence, and every argmax, is that of the rational tableau.
    Comparisons run on the integers (D > 0 throughout).
    """
    m = len(A)
    n = len(c)
    rows = [[*A[i], b[i]] for i in range(m)]
    rows.append([*c, 0])
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        rows = [[_integer(x) for x in row] for row in rows]
    obj = rows[m] = [-x for x in rows[m]]
    basis = list(range(n, n + m))
    nonbasic = list(range(n))
    D = 1

    iteration = 0
    while True:
        iteration += 1
        if iteration <= _BLAND_AFTER:
            best_c = min(obj[:n], default=0)
            if best_c >= 0:
                break
            ties = [j for j in range(n) if obj[j] == best_c]
        else:
            ties = [j for j in range(n) if obj[j] < 0]
            if not ties:
                break
        enter = min(ties, key=nonbasic.__getitem__)
        # ratio test M[i][-1] / M[i][enter], compared by cross-multiplying
        leave = -1
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                r = rows[i][-1]
                if leave < 0:
                    best_r, best_a, leave = r, a, i
                    continue
                lhs, rhs = r * best_a, best_r * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    best_r, best_a, leave = r, a, i
        if leave < 0:
            raise ArithmeticError("unbounded linear program")
        col = [row[enter] for row in rows]
        D_old = D
        D = _pivot(rows, leave, enter, D)
        for i, f in enumerate(col):
            if f:
                rows[i][enter] = -f
        rows[leave][enter] = D_old
        obj = rows[m]
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(rows[i][-1], D)
    return Fraction(obj[-1], D), x


def _integer(v) -> int:
    """v as an int; integral Fractions are accepted, anything else raises."""
    if type(v) is int:
        return v
    q = Fraction(v)
    if q.denominator != 1:
        raise ValueError(f"simplex_max needs integer data, got {v!r}")
    return q.numerator


def strict_positive_witness(
    ground: Sequence[int], sides: Sequence[Collection[int]]
) -> dict[int, Fraction] | None:
    """A rational x with sum(x) = 0 and x(S) > 0 for every S, or None.

    Encodes the witness as y - avg(y) for y >= 0 with sum(y) <= |ground|,
    then maximizes the common slack t of the constraints.
    """
    labels = list(ground)
    if not (sides and labels):  # no side: x = 0 holds; no label: every side is empty
        return None if sides else dict.fromkeys(labels, Fraction(0))
    n = len(labels)
    pos = {l: i for i, l in enumerate(labels)}
    c = [0] * n + [1]

    A: list[list[int]] = []
    b: list[int] = []
    for S in sides:
        # t + (|S|/n) sum(y) - y(S) <= 0, scaled by n to integers
        row = [len(S)] * n + [n]
        for l in S:
            row[pos[l]] -= n
        A.append(row)
        b.append(0)
    A.append([1] * n + [0])  # sum(y) <= n
    b.append(n)

    value, x = simplex_max(c, A, b)
    if value <= 0:
        return None
    avg = sum(x[:n]) / n
    return {l: x[pos[l]] - avg for l in labels}


def balanced_combination_exists(
    ground: Sequence[int], sides: Sequence[Collection[int]]
) -> list[Fraction] | None:
    """Gordan multipliers for the sides, or None when there are none.

    The multipliers are w >= 0, one per side, whose combination
    sum_A w_A 1_A is the same positive constant on every label.  By
    Gordan's alternative on the sum-zero subspace they exist iff the strict
    system x(S) > 0, sum(x) = 0 is infeasible, so this is the exact
    complement of strict feasibility, decided on a smaller tableau (rows
    scale with the ground, not with the number of sides).  With
    cov(l) = sum_{A containing l} w_A and l0 the first label, the LP is

        maximize cov(l0)  subject to  +-(cov(l) - cov(l0)) <= 0 for l != l0,
                                      sum(w) <= 1,  w >= 0:

    2(n - 1) + 1 rows over one column per side.  The constant is cov(l0),
    so multipliers exist iff the optimum is positive.  The LP's argmax is
    returned only after ``is_gordan_certificate`` has checked it;
    ArithmeticError when it fails.  An empty ground has no label to carry a
    positive constant: None.
    """
    labels = list(ground)
    if not labels:
        return None
    side_sets = [set(S) for S in sides]
    l0 = labels[0]
    cov0 = [1 if l0 in s else 0 for s in side_sets]
    A: list[list[int]] = []
    for label in labels[1:]:
        # cov(label) - cov(l0) = 0, encoded as two <= 0 rows
        row = [(label in s) - u for s, u in zip(side_sets, cov0)]
        A.append(row)
        A.append([-x for x in row])
    A.append([1] * len(sides))  # sum w <= 1
    b = [0] * (len(A) - 1) + [1]
    value, w = simplex_max(cov0, A, b)
    if value <= 0:
        return None
    if not is_gordan_certificate(ground, sides, w):
        raise ArithmeticError("the LP's multipliers do not balance the sides")
    return w


def is_gordan_certificate(
    ground: Sequence[int], sides: Sequence[Collection[int]], w: Sequence[Fraction]
) -> bool:
    """Whether w >= 0, one entry per side, and sum_A w_A 1_A is one positive
    constant on every label of ground.

    Then no sum-zero x has x(S) > 0 on every side S: sum_A w_A x(A) equals
    c * sum(x) = 0, but it would be > 0, since some w_A > 0.  Checked
    exactly, on the int numerators over the common denominator of w.
    """
    if len(w) != len(sides):
        return False
    D = lcm(*[x.denominator for x in w])
    totals = dict.fromkeys(ground, 0)
    for S, x in zip(sides, w):
        u = x.numerator
        if u < 0:
            return False
        if u:
            u *= D // x.denominator
            for label in S:
                totals[label] += u
    values = set(totals.values())
    return len(values) == 1 and values.pop() > 0


def transfer_witness_across(
    n: int,
    sides: Sequence[Collection[int]],
    witness: tuple[Sequence[int], int],
    new_side: Collection[int],
) -> tuple[list[int], int] | None:
    """Try to move a strict witness to the other side of the new hyperplane.

    Labels are the positions 0..n-1.  The witness (a, D) is x = a / D with
    D > 0, and x(S) > 0 for every prior side S and for the new side K.  The
    walk x(tau) = (a - tau W) / D, W = n - |K| on K and -|K| off it, leaves
    K's halfspace at tau = a(K) / W(K); if that comes before every bound
    a(S) / W(S) with W(S) > 0, the midpoint (twice the crossing when none
    bounds the walk) is a witness for the flipped orientation.  All in ints,
    with tau = p / q; the result is fully re-checked.  Returns None when the
    straight walk fails, else the new witness in lowest terms, D > 0.
    """
    a, D = witness
    size = len(new_side)
    W = [-size] * n
    for i in new_side:
        W[i] = n - size
    a_new = sum([a[i] for i in new_side])
    w_new = size * (n - size)  # W(K) > 0
    p_max = q_max = 0  # the smallest bound a(S) / W(S), none while q_max == 0
    for S in sides:
        wS = sum([W[i] for i in S])
        if wS > 0:
            aS = sum([a[i] for i in S])
            if not q_max or aS * q_max < p_max * wS:
                p_max, q_max = aS, wS
    if not q_max:
        p, q = 2 * a_new, w_new
    elif p_max * w_new <= a_new * q_max:
        return None
    else:
        p, q = a_new * q_max + p_max * w_new, 2 * w_new * q_max
    c = [q * x - p * y for x, y in zip(a, W)]
    if sum(c) != 0:
        return None
    if sum([c[i] for i in new_side]) >= 0:
        return None
    for S in sides:
        if sum([c[i] for i in S]) <= 0:
            return None
    E = q * D
    g = gcd(*c, E)
    return [x // g for x in c], E // g


def partition_infeasible(
    ground_size: int, side_sets: Sequence[frozenset], new_side: frozenset
) -> bool:
    """Cheap sufficient test: the new side plus one or two already-chosen
    disjoint sides partitioning the ground forces the sum of strictly
    positive quantities to be zero."""
    rest = ground_size - len(new_side)
    if rest == 0:
        return False
    for A in side_sets:
        if len(A) == rest and not (A & new_side):
            # does A equal the complement?  sizes and disjointness suffice
            return True
        if len(A) < rest and not (A & new_side):
            need = rest - len(A)
            for B in side_sets:
                if len(B) == need and not (B & new_side) and not (B & A):
                    return True
    return False
