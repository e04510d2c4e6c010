"""Exact rational linear programming, sized for cell-feasibility queries.

The only consumer is the chamber machinery: decide whether a family of
subset-sum inequalities  sum_{i in S} x_i > 0  admits a sum-zero rational
solution, and produce a witness when it does.  Strictness is handled by the
bounded-slack trick: maximize the common slack t of the constraints under a
norm bound; the system is strictly feasible iff the optimum is positive.

The sum-zero condition is eliminated by centering: a nonnegative variable
vector x represents the witness x - avg(x), which shrinks the tableau.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Sequence

from .linalg import _pivot

_BLAND_AFTER = 64  # pivot-rule switch that guarantees termination


def simplex_max(
    c: Sequence[int], A: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to A x <= b, x >= 0, where b >= 0, on integer data.

    Primal simplex from the slack basis; largest-coefficient pivoting with a
    switch to Bland's rule to rule out cycling.  Returns (value, argmax).
    Raises on an unbounded program.

    Integer-preserving (Edmonds / Bareiss): the tableau, objective row last,
    is an int matrix M over one positive common divisor D, tableau = M / D.
    A pivot at (r, s) with p = M[r][s] is ``linalg._pivot``, the elimination
    step shared with ``rank`` and ``kernel_basis``: it maps every other row
    to (M[i][j] * p - M[i][s] * M[r][j]) // D and then D = p; the division
    is exact by Sylvester's identity: D is the determinant of the current
    basis and every entry of M a minor of the starting integer tableau.
    Comparisons run on the integers (D > 0 throughout), so the pivot
    sequence is that of the rational tableau.
    """
    m = len(A)
    n = len(c)
    width = n + m
    rows = []
    for i in range(m):
        row = [_integer(a) for a in A[i]] + [0] * m + [_integer(b[i])]
        row[n + i] = 1
        rows.append(row)
    rows.append([-_integer(cj) for cj in c] + [0] * (m + 1))
    obj = rows[m]
    basis = [n + i for i in range(m)]
    D = 1

    iteration = 0
    while True:
        iteration += 1
        enter = -1
        if iteration <= _BLAND_AFTER:
            best_c = 0
            for j in range(width):
                if obj[j] < best_c:
                    best_c = obj[j]
                    enter = j
        else:
            for j in range(width):
                if obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            break
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
        D = _pivot(rows, leave, enter, D)
        obj = rows[m]
        basis[leave] = enter

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
    scale with the ground, not with the number of sides).  The LP's argmax
    is returned only after ``is_gordan_certificate`` has checked it;
    ArithmeticError when it fails.
    """
    side_sets = [set(S) for S in sides]
    k = len(sides)
    obj = [0] * k + [1]
    A: list[list[int]] = []
    b: list[int] = []
    for label in ground:
        # sum_A w_A 1_A(label) - c = 0, encoded as two <= 0 rows
        row = [1 if label in s else 0 for s in side_sets] + [-1]
        A.append(row)
        b.append(0)
        A.append([-x for x in row])
        b.append(0)
    A.append([1] * k + [0])  # sum w <= 1
    b.append(1)
    value, x = simplex_max(obj, A, b)
    if value <= 0:
        return None
    w = x[:k]
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
