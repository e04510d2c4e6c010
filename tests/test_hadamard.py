import itertools

import pytest

from sethopf.compositions import Composition, canonical_set, comp, compositions_of
from sethopf.errors import DomainError
from sethopf.hadamard import _tits_basis, hopf_power, hopf_power_elem, tits, tits_unit
from sethopf.hopf import basis_elem, h_elem, primitive_part_basis, q_elem, sigma_basis, to_h


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


@pytest.mark.parametrize("ground", [canonical_set(n) for n in range(5)] + [(-3, 2, 5, 9)])
def test_tits_kernel_is_the_lump_intersection_formula(ground):
    comps = compositions_of(ground)
    for F in comps:
        for G in comps:
            got, ref = _tits_basis(F, G), tits_reference(F, G)
            assert (got.lumps, got.ground) == (ref.lumps, ref.ground), (F, G)


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
