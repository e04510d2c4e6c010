"""The Tits product: the Hadamard-monoid action of compositions on themselves.

``tits`` implements the closed lump-intersection formula; ``hopf_power``
composes comultiplication and multiplication explicitly, so the agreement
of the two is a meaningful regression test rather than a tautology.

The Tits kernel ``_tits_basis`` intersects lump masks: with each lump a
bitmask over the ground, as ``hopf._SplitTable.masks`` gives it, the lumps
of the product are the nonzero s & t for the lumps s of F and t of G, in
F-then-G order, and the table's ``labels`` turns each back into its sorted
labels.  ``tits`` looks up the masks of each term of b once per call.  The
kernel shares no code with ``hopf_power``, which restricts a to each lump
of F through the iterated coproduct and concatenates the pieces with
``mu``, so the two stay independent; the split table lends ``tits`` only
its mask and label tables, not its rows.  ``hopf_power`` hands the lumps
of F to the unchecked ``hopf._delta_iterated``, since it has already
checked that F composes the ground of a.
"""

from __future__ import annotations

from .compositions import Composition, one_lump
from .errors import DomainError
from .hopf import H, SigmaElem, _delta_iterated, _split_table, basis_elem, mu_many, zero_elem
from .lincomb import sparse_sum


def _tits_basis(fs: tuple[int, ...], gs: tuple[int, ...], labels: list[tuple]) -> Composition:
    # (T_1 cap S_1, ..., T_kG cap S_1, ......, T_1 cap S_kF, ...)_+ on the lump
    # masks fs of F and gs of G, over one ground whose mask table is labels;
    # labels[-1], the labels of the full mask, is that ground
    return Composition._of(tuple([labels[x] for s in fs for t in gs if (x := s & t)]), labels[-1])


def tits(a: SigmaElem, b: SigmaElem) -> SigmaElem:
    """Bilinear extension of H_F |> H_G = mu_F(Delta_F(H_G))."""
    if a.ground != b.ground:
        raise DomainError("tits requires equal ground sets")
    if a.basis != H or b.basis != H:
        raise DomainError("tits expects H-basis elements")
    table = _split_table(a.ground)
    labels, masks = table.labels, table.masks
    gterms = [(masks(G), cg) for G, cg in b.lc]
    lc = sparse_sum(
        (_tits_basis(fs, gs, labels), cf * cg)
        for F, cf in a.lc for fs in (masks(F),) for gs, cg in gterms
    )
    return SigmaElem._of(a.ground, lc, H)


def tits_unit(ground) -> SigmaElem:
    return basis_elem(one_lump(ground), H)


def hopf_power(F: Composition, a: SigmaElem) -> SigmaElem:
    """mu_F(Delta_F(a)), built from the actual (co)multiplication composites."""
    if F.ground != a.ground:
        raise DomainError("hopf_power requires ground(F) = ground(a)")
    if a.basis != H:
        raise DomainError("hopf_power expects an H-basis element")
    if not F.lumps:
        return a
    pieces = _delta_iterated(a, F.lumps)  # F.lumps decompose a.ground, checked above
    # a fold, as in hopf_power_elem: tits_suite's one-term inputs build no sum (lincomb_sum was slower)
    out = None
    for key, c in pieces:
        prod = mu_many([basis_elem(piece, H) for piece in key]).scale(c)
        out = prod if out is None else out + prod
    if out is None:
        return zero_elem(a.ground, H)
    return out


def hopf_power_elem(x: SigmaElem, a: SigmaElem) -> SigmaElem:
    """Linear extension of hopf_power in its first argument."""
    if x.basis != H:
        raise DomainError("hopf_power_elem expects an H-basis element")
    out = None
    for F, c in x.lc:
        term = hopf_power(F, a).scale(c)
        out = term if out is None else out + term
    if out is None:
        return zero_elem(a.ground, H)
    return out
