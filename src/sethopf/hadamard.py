"""The Tits product: the Hadamard-monoid action of compositions on themselves.

``tits`` implements the closed lump-intersection formula; ``hopf_power``
composes comultiplication and multiplication explicitly, so the agreement
of the two is a meaningful regression test rather than a tautology.

The Tits kernel ``_tits_basis`` never intersects sets: it indexes the labels
by their lump of G once, then sorts each lump S of F by (lump of G, label)
and cuts it into runs, which are the nonempty T_j cap S in order.  It shares
no code with ``hopf_power``, which restricts a to each lump of F through the
iterated coproduct and concatenates the pieces with ``mu``, so the two stay
independent.  ``hopf_power`` hands the lumps of F to the unchecked
``hopf._delta_iterated``, since it has already checked that F composes the
ground of a.
"""

from __future__ import annotations

from .compositions import Composition, one_lump
from .errors import DomainError
from .hopf import H, SigmaElem, _delta_iterated, basis_elem, mu_many, zero_elem
from .lincomb import sparse_sum


def _tits_basis(F: Composition, G: Composition) -> Composition:
    # (T_1 cap S_1, ..., T_kG cap S_1, ......, T_1 cap S_kF, ...)_+
    # F and G compose one ground set: the nonempty T_j cap S are the runs of
    # S sorted by (j, label), and together they are disjoint and cover it.
    where = {x: j for j, T in enumerate(G.lumps) for x in T}
    lumps = []
    for S in F.lumps:
        if len(S) == 1:
            lumps.append(S)
            continue
        keyed = sorted([(where[x], x) for x in S])
        j0 = keyed[0][0]
        run = []
        for j, x in keyed:
            if j != j0:
                lumps.append(tuple(run))
                run = []
                j0 = j
            run.append(x)
        lumps.append(tuple(run))
    return Composition._of(tuple(lumps), G.ground)


def tits(a: SigmaElem, b: SigmaElem) -> SigmaElem:
    """Bilinear extension of H_F |> H_G = mu_F(Delta_F(H_G))."""
    if a.ground != b.ground:
        raise DomainError("tits requires equal ground sets")
    if a.basis != H or b.basis != H:
        raise DomainError("tits expects H-basis elements")
    lc = sparse_sum((_tits_basis(F, G), cf * cg) for F, cf in a.lc for G, cg in b.lc)
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
