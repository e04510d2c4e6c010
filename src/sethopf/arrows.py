"""Raising biderivations and the retarded/advanced arrows.

``u_ab`` adjoins one fresh marker label to every lump position of every
term, with weights (-a, a+b, -b) for the three insertion modes; the
retarded arrow is u_{1,0}, the advanced arrow u_{0,1}.  Iterating over a
set of fresh labels is order-independent (a tested property), which is
what makes the arrows an action of the exponential species.

The retarded, advanced and reverse-convolution elements are one split sum,
``_split_sum``: over the splits Y1 | Y2 of the interaction labels Y, of
s(H_(Y1)) H_(Y2 u I), or H_(Y1 u I) s(H_(Y2)) for the advanced side.  With
I empty it is the reverse convolution.

Fresh labels are always chosen by the caller (negative integers by
convention); no operation invents names.
"""

from __future__ import annotations

from typing import Iterable

from .compositions import Composition, labelset, one_lump, ordered_splits
from .cells import Cell, is_cell
from .errors import DomainError
from .hopf import H, SigmaElem, antipode, basis_elem, mu, unit_elem
from .lincomb import LinComb, lincomb_sum, sparse_sum


def _insertions(F: Composition, star: int, a, b, ground: tuple) -> LinComb:
    """Unchecked: star is off F.ground, and ground is the sorted F.ground + (star,)."""
    lumps, ab = F.lumps, a + b
    pairs = []
    for m, lump in enumerate(lumps):
        before, after = lumps[:m], lumps[m + 1 :]
        pairs += [
            (before + ((star,), lump) + after, -a),
            (before + (tuple(sorted(lump + (star,))),) + after, ab),
            (before + (lump, (star,)) + after, -b),
        ]
    return sparse_sum((Composition._of(K, ground), c) for K, c in pairs if c)


def u_ab(a, b, star: int, x: SigmaElem) -> SigmaElem:
    """The biderivation with u(H_(I)) = -a H_(*,I) + (a+b) H_(*I) - b H_(I,*)."""
    if x.basis != H:
        raise DomainError("u_ab expects an H-basis element")
    if star in x.ground:
        raise DomainError(f"label {star} already occurs in the ground set")
    ground = tuple(sorted(x.ground + (star,)))
    parts = [_insertions(F, star, a, b, ground).scale(c) for F, c in x.lc]
    return SigmaElem._of(ground, lincomb_sum(parts), H)


def arrow_down_single(star: int, x: SigmaElem) -> SigmaElem:
    return u_ab(1, 0, star, x)


def arrow_up_single(star: int, x: SigmaElem) -> SigmaElem:
    return u_ab(0, 1, star, x)


def _arrow(Y: Iterable[int], x: SigmaElem, a, b) -> SigmaElem:
    Y = labelset(Y)
    if set(Y) & set(x.ground):
        raise DomainError("arrow labels must be disjoint from the ground set")
    out = x
    for y in Y:
        out = u_ab(a, b, y, out)
    return out


def arrow_down(Y: Iterable[int], x: SigmaElem) -> SigmaElem:
    """Iterated retarded arrow over a fresh label set (order-independent)."""
    return _arrow(Y, x, 1, 0)


def arrow_up(Y: Iterable[int], x: SigmaElem) -> SigmaElem:
    """Iterated advanced arrow over a fresh label set (order-independent)."""
    return _arrow(Y, x, 0, 1)


def _lump_elem(labels) -> SigmaElem:
    return basis_elem(one_lump(labels), H) if labels else unit_elem(H)


def _split_sum(Y: tuple, I: tuple, advanced: bool) -> SigmaElem:
    """The sum over the splits Y1 | Y2 of Y of  s(H_(Y1)) H_(Y2 u I), or of
    H_(Y1 u I) s(H_(Y2)) when advanced, with Y1 in position-mask order.
    Y and I are sorted label sets; they must be disjoint.  The retarded,
    advanced and reverse-convolution elements are all this one sum."""
    if set(Y) & set(I):
        raise DomainError("Y and I must be disjoint")
    terms = (
        mu(_lump_elem(tuple(sorted(Y1 + I))), antipode(_lump_elem(Y2)))
        if advanced
        else mu(antipode(_lump_elem(Y1)), _lump_elem(tuple(sorted(Y2 + I))))
        for Y1, Y2 in ordered_splits(Y)
    )
    return SigmaElem._of(tuple(sorted(Y + I)), lincomb_sum(t.lc for t in terms), H)


def retarded_element(Y: Iterable[int], I: Iterable[int]) -> SigmaElem:
    """R_(Y;I) = sum over splits Y1 | Y2 of Y of  s(H_(Y1)) H_(Y2 u I)."""
    Y, I = labelset(Y), labelset(I)
    if not I:
        raise DomainError("retarded elements need a nonempty observable set")
    return _split_sum(Y, I, advanced=False)


def advanced_element(Y: Iterable[int], I: Iterable[int]) -> SigmaElem:
    """A_(Y;I) = sum over splits Y1 | Y2 of Y of  H_(Y1 u I) s(H_(Y2))."""
    Y, I = labelset(Y), labelset(I)
    if not I:
        raise DomainError("advanced elements need a nonempty observable set")
    return _split_sum(Y, I, advanced=True)


def _arrow_cell(Y: Iterable[int], c: Cell, down: bool) -> Cell:
    Y = labelset(Y)
    if set(Y) & set(c.ground):
        raise DomainError("arrow labels must be disjoint from the cell ground")
    full = tuple(sorted(Y + c.ground))
    I = c.ground
    sides = set()
    channels = list(c.channels())
    if down:
        channels.append((I, ()))
    else:
        channels.append(((), I))
    for Y1, Y2 in ordered_splits(Y):
        for S, T in channels:
            U = tuple(sorted(Y1 + S))
            V = tuple(sorted(Y2 + T))
            if U and V:
                sides.add(U)
    out = Cell(full, sides)
    ok, _ = is_cell(out.ground, out.positive)
    if not ok:
        raise RuntimeError("internal invariant violation: arrowed family is not a cell")
    return out


def arrow_cell_down(Y: Iterable[int], c: Cell) -> Cell:
    """The cell of the arrowed Dynkin element: adds (Y1 u S, Y2 u T) for each
    oriented channel, plus every channel with the old ground on the left."""
    return _arrow_cell(Y, c, down=True)


def arrow_cell_up(Y: Iterable[int], c: Cell) -> Cell:
    """The same with every channel with the old ground on the right."""
    return _arrow_cell(Y, c, down=False)
