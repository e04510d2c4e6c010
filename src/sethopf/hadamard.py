"""The Tits product: the Hadamard-monoid action of compositions on themselves.

``tits`` implements the closed lump-intersection formula; ``hopf_power``
composes comultiplication and multiplication explicitly, so the agreement
of the two is a meaningful regression test rather than a tautology.
"""

from __future__ import annotations

from .compositions import Composition, one_lump
from .errors import DomainError
from .hopf import H, SigmaElem, basis_elem, delta_iterated, mu_many, zero_elem
from .lincomb import LinComb


def _tits_basis(F: Composition, G: Composition) -> Composition:
    # (T_1 cap S_1, ..., T_kG cap S_1, ......, T_1 cap S_kF, ...)_+
    # F and G compose one ground set, so the nonempty intersections are
    # sorted, disjoint and cover it.
    lumps = []
    for S in F.lumps:
        Sset = set(S)
        for T in G.lumps:
            inter = tuple(x for x in T if x in Sset)
            if inter:
                lumps.append(inter)
    return Composition._of(tuple(lumps), G.ground)


def tits(a: SigmaElem, b: SigmaElem) -> SigmaElem:
    """Bilinear extension of H_F |> H_G = mu_F(Delta_F(H_G))."""
    if a.ground != b.ground:
        raise DomainError("tits requires equal ground sets")
    if a.basis != H or b.basis != H:
        raise DomainError("tits expects H-basis elements")
    terms: dict[Composition, object] = {}
    for F, cf in a.lc:
        for G, cg in b.lc:
            K = _tits_basis(F, G)
            c = cf * cg
            if K in terms:
                c = terms[K] + c
            if c:
                terms[K] = c
            else:
                terms.pop(K, None)
    return SigmaElem._of(a.ground, LinComb._of(terms), H)


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
    pieces = delta_iterated(a, F.lumps)
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
