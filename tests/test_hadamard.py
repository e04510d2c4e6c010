import itertools

import pytest

from sethopf.compositions import Composition, canonical_set, comp, compositions_of
from sethopf.errors import DomainError
from sethopf import hadamard as hadamard_module
from sethopf.hadamard import _tits_basis, hopf_power, hopf_power_elem, tits, tits_unit
from sethopf.hopf import (
    H,
    SigmaElem,
    _SplitTable,
    basis_elem,
    h_elem,
    primitive_part_basis,
    q_elem,
    sigma_basis,
    to_h,
)
from sethopf.lincomb import LinComb


class TestTits:
    def test_unit(self):
        a = h_elem((1,), (2, 3))
        assert tits(tits_unit((1, 2, 3)), a) == a
        assert tits(a, tits_unit((1, 2, 3))) == a

    def test_spec_examples(self):
        assert tits(h_elem((1, 3), (2,)), h_elem((1, 2), (3,))) == h_elem((1,), (3,), (2,))
        assert tits(h_elem((1,), (2,)), h_elem((2,), (1,))) == h_elem((1,), (2,))

    def test_ground_mismatch(self):
        with pytest.raises(DomainError):
            tits(h_elem((1,)), h_elem((2,)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_idempotents(self, n):
        for F in compositions_of(canonical_set(n)):
            a = basis_elem(F)
            assert tits(a, a) == a

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_associativity_exhaustive(self, n):
        basis = sigma_basis(canonical_set(n))
        for a, b, c in itertools.product(basis, repeat=3):
            assert tits(tits(a, b), c) == tits(a, tits(b, c))

    def test_associativity_randomized_n4(self):
        import random

        rng = random.Random(5)
        comps = compositions_of(canonical_set(4))
        for _ in range(40):
            a, b, c = (basis_elem(comps[rng.randrange(len(comps))]) for _ in range(3))
            assert tits(tits(a, b), c) == tits(a, tits(b, c))


def tits_reference(F, G):
    """The literal formula (T_1 cap S_1, ..., T_kG cap S_1, ......, T_1 cap S_kF, ...)_+."""
    lumps = []
    for S in F.lumps:
        for T in G.lumps:
            inter = set(T) & set(S)
            if inter:
                lumps.append(inter)
    return Composition(lumps)


def swapped_kernel(fs, gs, labels):
    """A wrong Tits kernel: the loops over the lumps of F and G swapped."""
    return _tits_basis(gs, fs, labels)


def kernel_mismatches(kernel, ground):
    """The pairs (F, G) of compositions of ground where kernel, on the lump
    masks of a fresh split table, differs from tits_reference."""
    table = _SplitTable(ground)
    comps = compositions_of(ground)
    out = []
    for F in comps:
        for G in comps:
            got, ref = kernel(table.masks(F), table.masks(G), table.labels), tits_reference(F, G)
            if (got.lumps, got.ground) != (ref.lumps, ref.ground):
                out.append((F, G))
    return out


@pytest.mark.parametrize("ground", [canonical_set(n) for n in range(5)] + [(-3, 2, 5, 9)])
def test_tits_kernel_is_the_lump_intersection_formula(ground):
    assert kernel_mismatches(_tits_basis, ground) == []


@pytest.mark.parametrize("ground", [canonical_set(3), (-3, 2, 5, 9)])
def test_swapped_kernel_fails_the_reference(ground):
    # mutation control: F-then-G order matters once both have two lumps
    assert kernel_mismatches(swapped_kernel, ground)


def multi_term_pair(ground):
    """Two H-basis elements with several terms and positive coefficients,
    so no coefficient of their Tits product cancels."""
    comps = compositions_of(ground)
    a = SigmaElem(ground, LinComb({F: i + 1 for i, F in enumerate(comps[::7])}), H)
    b = SigmaElem(ground, LinComb({G: 2 * i + 3 for i, G in enumerate(comps[3::5])}), H)
    return a, b


def reference_tits(a, b):
    """The bilinear sum of tits_reference, keys in first-seen order."""
    terms = {}
    for F, cf in a.lc:
        for G, cg in b.lc:
            K = tits_reference(F, G)
            terms[K] = terms.get(K, 0) + cf * cg
    return terms


class TestTitsOfSums:
    ground = (-3, 2, 5, 9)

    def test_equals_the_bilinear_reference_in_key_order(self):
        a, b = multi_term_pair(self.ground)
        assert len(a.lc) > 10 and len(b.lc) > 10
        got, want = tits(a, b), reference_tits(a, b)
        assert list(got.lc.t.items()) == list(want.items())
        assert got.ground == self.ground

    def test_swapped_kernel_breaks_it(self, monkeypatch):
        a, b = multi_term_pair(self.ground)
        monkeypatch.setattr(hadamard_module, "_tits_basis", swapped_kernel)
        assert list(tits(a, b).lc.t.items()) != list(reference_tits(a, b).items())


class TestHopfPower:
    def test_one_lump_is_identity(self):
        a = h_elem((2,), (1,), (3,))
        assert hopf_power(comp((1, 2, 3)), a) == a

    def test_spec_example(self):
        assert hopf_power(comp((1,), (2,)), h_elem((2,), (1,))) == h_elem((1,), (2,))

    def test_kills_primitives(self):
        a = to_h(q_elem((1, 2, 3)))
        assert hopf_power(comp((1,), (2, 3)), a).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_tits(self, n):
        basis = sigma_basis(canonical_set(n))
        for a in basis:
            F = next(iter(a.lc.keys()))
            for b in basis:
                assert hopf_power(F, b) == tits(a, b)

    def test_agrees_with_tits_n4_sample(self):
        import random

        rng = random.Random(17)
        comps = compositions_of(canonical_set(4))
        for _ in range(30):
            F = comps[rng.randrange(len(comps))]
            G = comps[rng.randrange(len(comps))]
            assert hopf_power(F, basis_elem(G)) == tits(basis_elem(F), basis_elem(G))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_action_compatibility(self, n):
        basis = sigma_basis(canonical_set(n))
        for a, b, c in itertools.product(basis, repeat=3):
            lhs = hopf_power_elem(a, hopf_power_elem(b, c))
            rhs = hopf_power_elem(tits(a, b), c)
            assert lhs == rhs

    def test_primitives_annihilated_exhaustive(self):
        for n in (2, 3):
            for p in primitive_part_basis(n):
                for F in compositions_of(canonical_set(n)):
                    if len(F) >= 2:
                        assert hopf_power(F, p).is_zero()

    def test_ground_mismatch(self):
        with pytest.raises(DomainError):
            hopf_power(comp((1,)), h_elem((2,)))
