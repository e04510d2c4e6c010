import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sethopf import lp
from sethopf.cells import _insertion_enumeration, channel_representatives
from sethopf.lp import (
    balanced_combination_exists,
    is_gordan_certificate,
    partition_infeasible,
    simplex_max,
    strict_positive_witness,
    transfer_witness_across,
)


def reference_simplex_max(c, A, b, bland_after):
    """The rational-tableau simplex that the integer one must reproduce:
    same slack basis, pivot rules and tie-break, on Fraction entries."""
    m = len(A)
    n = len(c)
    tab = [[Fraction(A[i][j]) for j in range(n)]
           + [Fraction(int(k == i)) for k in range(m)]
           + [Fraction(b[i])]
           for i in range(m)]
    obj = [Fraction(-c[j]) for j in range(n)] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]

    iteration = 0
    while True:
        iteration += 1
        enter = -1
        if iteration <= bland_after:
            best_c = Fraction(0)
            for j in range(n + m):
                if obj[j] < best_c:
                    best_c = obj[j]
                    enter = j
        else:
            for j in range(n + m):
                if obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ArithmeticError("unbounded linear program")
        piv = tab[leave][enter]
        prow = tab[leave]
        if piv != 1:
            prow = [x / piv for x in prow]
            tab[leave] = prow
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                if f:
                    row = tab[i]
                    tab[i] = [x - f * y for x, y in zip(row, prow)]
        f = obj[enter]
        if f:
            obj = [x - f * y for x, y in zip(obj, prow)]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x


@st.composite
def integer_lps(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    c = draw(st.lists(entry, min_size=n, max_size=n))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    return c, A, b


@st.composite
def degenerate_lps(draw):
    """Up to 9 rows over up to 8 columns, most with b = 0: lone rows, +-row
    pairs as in the Gordan encoding, and a few positive bounds."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    c = draw(row)
    A: list = []
    b: list = []
    for kind in draw(st.lists(st.sampled_from(("pair", "zero", "bound")), min_size=1, max_size=9)):
        r = draw(row)
        if kind == "pair":
            A += [r, [-x for x in r]]
            b += [0, 0]
        else:
            A.append(r)
            b.append(0 if kind == "zero" else draw(st.integers(1, 4)))
    return c, A[:9], b[:9]


def _outcome(solve, c, A, b):
    try:
        return solve(c, A, b)
    except ArithmeticError as e:
        return str(e)


class TestSimplex:
    def test_small_lp(self):
        # max x + y  s.t. x <= 2, y <= 3, x + y <= 4
        value, x = simplex_max(
            [Fraction(1), Fraction(1)],
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]],
            [Fraction(2), Fraction(3), Fraction(4)],
        )
        assert value == 4

    def test_degenerate_origin(self):
        # optimum at the origin
        value, x = simplex_max(
            [Fraction(-1)], [[Fraction(1)]], [Fraction(5)]
        )
        assert value == 0 and x == [Fraction(0)]

    def test_rejects_fractional_data(self):
        with pytest.raises(ValueError):
            simplex_max([1], [[Fraction(1, 2)]], [1])


class TestAgainstRationalReference:
    @pytest.mark.parametrize("bland_after", [lp._BLAND_AFTER, 0, 1])
    @settings(max_examples=150, deadline=None)
    @given(lp_data=integer_lps())
    @example(lp_data=([2, -1, 2], [[3, -1, 2], [3, 1, 0]], [2, 2]))  # tie-break decides x
    def test_same_value_and_argmax(self, bland_after, lp_data):
        c, A, b = lp_data
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_BLAND_AFTER", bland_after)
            got = _outcome(simplex_max, c, A, b)
        want = _outcome(lambda *a: reference_simplex_max(*a, bland_after), c, A, b)
        assert got == want

    @pytest.mark.parametrize("bland_after", [lp._BLAND_AFTER, 0, 1])
    @settings(max_examples=150, deadline=None)
    @given(lp_data=degenerate_lps())
    # a slack in a column left of a structural variable with the same
    # entering coefficient, where the variable index, not the column, decides:
    # under the largest-coefficient rule, Bland's from the first pivot, and
    # Bland's from the second
    @example(lp_data=([2, 1, 0], [[1, 0, 0], [1, -1, 2], [1, -1, 1], [-2, 2, 0]], [1, 2, 0, 2]))
    @example(lp_data=([1, 2, 1], [[1, -2, 2], [2, 2, 1]], [0, 2]))
    @example(lp_data=([2, 1, 0], [[2, -1, -1], [2, 2, 2], [1, 0, -1]], [0, 2, 0]))
    def test_degenerate_same_value_and_argmax(self, bland_after, lp_data):
        # ties in the ratio test and in the entering column after the compact
        # tableau has swapped variables between rows and columns
        c, A, b = lp_data
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_BLAND_AFTER", bland_after)
            got = _outcome(simplex_max, c, A, b)
        want = _outcome(lambda *a: reference_simplex_max(*a, bland_after), c, A, b)
        assert got == want

    def test_calls_of_the_insertion_enumeration(self, monkeypatch):
        # every LP the insertion enumeration makes, Gordan and strict ones alike
        calls = []

        def recording(c, A, b):
            calls.append((list(c), [list(r) for r in A], list(b)))
            return original(c, A, b)

        original = lp.simplex_max
        monkeypatch.setattr(lp, "simplex_max", recording)
        per_ground = []
        for ground in [(1, 2, 3, 4), (-3, 2, 5, 9)]:
            calls.clear()
            _insertion_enumeration(ground)
            assert calls
            for c, A, b in calls:
                assert original(c, A, b) == reference_simplex_max(c, A, b, lp._BLAND_AFTER)
            per_ground.append(list(calls))
        assert per_ground[0] == per_ground[1]  # the enumeration runs on positions


class TestStrictWitness:
    def test_cell_family(self):
        w = strict_positive_witness((1, 2, 3), [(1,), (2,), (1, 2)])
        assert w is not None
        assert sum(w.values()) == 0
        for S in [(1,), (2,), (1, 2)]:
            assert sum(w[x] for x in S) > 0

    def test_balanced_family_infeasible(self):
        assert strict_positive_witness((1, 2, 3), [(1,), (2,), (3,)]) is None

    def test_two_point(self):
        w = strict_positive_witness((1, 2), [(1,)])
        assert w is not None and w[1] > 0 and w[1] + w[2] == 0

    @pytest.mark.parametrize("ground", [(), (7,), (1, 2, 3)])
    def test_no_sides(self, ground):
        # the empty system holds at x = 0; an empty side never holds
        assert strict_positive_witness(ground, []) == {l: Fraction(0) for l in ground}
        assert strict_positive_witness(ground, [()]) is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sets(st.integers(1, 4), min_size=1, max_size=3), min_size=1, max_size=6))
    def test_witness_always_satisfies(self, families):
        ground = (1, 2, 3, 4)
        sides = [tuple(sorted(s)) for s in families]
        w = strict_positive_witness(ground, sides)
        if w is not None:
            assert sum(w.values()) == 0
            for S in sides:
                assert sum(w[x] for x in S) > 0


def oriented_families(ground):
    """Every orientation of every channel over ground, as lists of sides."""
    reps = channel_representatives(ground)
    for bits in itertools.product((0, 1), repeat=len(reps)):
        yield [S if bit else tuple(x for x in ground if x not in S) for S, bit in zip(reps, bits)]


class TestGordanCertificate:
    @pytest.mark.parametrize("ground", [(1, 2), (1, 2, 3), (1, 2, 3, 4), (-3, 2, 5, 9)])
    def test_exactly_one_of_witness_and_multipliers(self, ground):
        for sides in oriented_families(ground):
            w = balanced_combination_exists(ground, sides)
            x = strict_positive_witness(ground, sides)
            assert (w is None) != (x is None), sides
            if w is not None:
                assert is_gordan_certificate(ground, sides, w)
                assert all(type(v) is Fraction for v in w)

    @pytest.mark.parametrize("sides", [[(7,)], [(7,), (7,)]])
    def test_one_label_ground(self, sides):
        # sum(x) = 0 forces x = 0, so the side cannot be positive
        w = balanced_combination_exists((7,), sides)
        assert w is not None and is_gordan_certificate((7,), sides, w)
        assert strict_positive_witness((7,), sides) is None

    @pytest.mark.parametrize("ground", [(), (7,), (1, 2), (1, 2, 3), (-3, 2, 5, 9)])
    def test_zero_sides_family(self, ground):
        # no side to weigh: nothing is covered, so no positive constant
        assert balanced_combination_exists(ground, []) is None

    def test_random_families_over_five_labels(self):
        ground = (1, 2, 3, 4, 5)
        reps = channel_representatives(ground)
        rng = random.Random(1873)
        for _ in range(300):
            chosen = rng.sample(reps, rng.randint(1, len(reps)))
            sides = [S if rng.random() < 0.5 else tuple(x for x in ground if x not in S)
                     for S in chosen]
            w = balanced_combination_exists(ground, sides)
            x = strict_positive_witness(ground, sides)
            assert (w is None) != (x is None), sides
            if w is not None:
                assert is_gordan_certificate(ground, sides, w)

    def test_hand_example(self):
        # the three singletons: 1_1 + 1_2 + 1_3 is the constant 1
        sides = [(1,), (2,), (3,)]
        w = balanced_combination_exists((1, 2, 3), sides)
        assert w is not None and w[0] == w[1] == w[2] > 0
        assert is_gordan_certificate((1, 2, 3), sides, [1, 1, 1])
        assert balanced_combination_exists((1, 2, 3), [(1,), (2,), (1, 2)]) is None

    def test_corrupted_multipliers_fail(self):
        sides = [(1,), (2,), (3,), (1, 2)]
        w = balanced_combination_exists((1, 2, 3), sides)
        assert w is not None and is_gordan_certificate((1, 2, 3), sides, w)
        bumped = list(w)
        bumped[0] += Fraction(1, 7)  # label 1 now gets more than the others
        assert not is_gordan_certificate((1, 2, 3), sides, bumped)
        assert not is_gordan_certificate((1, 2, 3), sides, [-x for x in w])  # negative
        assert not is_gordan_certificate((1, 2, 3), sides, [0] * 4)  # constant 0
        assert not is_gordan_certificate((1, 2, 3), sides, w[:3])  # one per side
        assert not is_gordan_certificate((1, 2, 3), sides[:3], [1, 1, -1])

    def test_bogus_argmax_raises(self, monkeypatch):
        original = lp.simplex_max

        def bogus(c, A, b):
            value, x = original(c, A, b)
            return value, [x[0] + 1] + x[1:]

        monkeypatch.setattr(lp, "simplex_max", bogus)
        with pytest.raises(ArithmeticError, match="do not balance"):
            balanced_combination_exists((1, 2, 3), [(1,), (2,), (3,)])


class TestPartitionPrefilter:
    def test_two_part(self):
        assert partition_infeasible(3, [frozenset({1, 2})], frozenset({3}))

    def test_three_part(self):
        assert partition_infeasible(4, [frozenset({1}), frozenset({2, 3})], frozenset({4}))

    def test_no_partition(self):
        assert not partition_infeasible(3, [frozenset({1, 2})], frozenset({2, 3}))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sets(st.integers(1, 4), min_size=1, max_size=3), min_size=1, max_size=5),
           st.sets(st.integers(1, 4), min_size=1, max_size=3))
    def test_sound_versus_lp(self, families, new):
        # whenever the prefilter fires, the exact LP must agree it is infeasible
        ground = (1, 2, 3, 4)
        sides = [frozenset(s) for s in families]
        if partition_infeasible(4, sides, frozenset(new)):
            all_sides = [tuple(sorted(s)) for s in families] + [tuple(sorted(new))]
            assert strict_positive_witness(ground, all_sides) is None


def reference_transfer_witness_across(ground, sides, witness, new_side):
    """The Fraction transfer that the int one must reproduce: the same walk
    along minus the centered indicator of the new side, on label dicts."""
    n = len(ground)
    size = len(new_side)
    new_set = set(new_side)
    w = {l: (Fraction(n - size, n) if l in new_set else Fraction(-size, n)) for l in ground}
    val_new = sum(witness[l] for l in new_side)
    w_new = sum(w[l] for l in new_side)  # = size (n - size) / n > 0
    t_flip = val_new / w_new
    t_max = None
    for S in sides:
        wS = sum(w[l] for l in S)
        if wS > 0:
            bound = sum(witness[l] for l in S) / wS
            if t_max is None or bound < t_max:
                t_max = bound
    if t_max is not None and t_max <= t_flip:
        return None
    t = t_flip * 2 if t_max is None else (t_flip + t_max) / 2
    candidate = {l: witness[l] - t * w[l] for l in ground}
    if sum(candidate.values()) != 0:
        return None
    if sum(candidate[l] for l in new_side) >= 0:
        return None
    for S in sides:
        if sum(candidate[l] for l in S) <= 0:
            return None
    return candidate


def _int_form(ground, x):
    """A label-keyed rational vector as (a, D) over positions, D the lcm."""
    D = math.lcm(*(x[l].denominator for l in ground))
    return [int(x[l] * D) for l in ground], D


def _assert_same_transfer(ground, sides, x, new_side):
    """Both transfers on one state: positions for the int one, labels for the oracle."""
    pos = {l: i for i, l in enumerate(ground)}
    got = transfer_witness_across(
        len(ground),
        [tuple(pos[l] for l in S) for S in sides],
        _int_form(ground, x),
        tuple(pos[l] for l in new_side),
    )
    want = reference_transfer_witness_across(ground, sides, x, new_side)
    if want is None:
        assert got is None
        return None
    assert got is not None
    c, E = got
    assert E > 0 and math.gcd(*c, E) == 1  # lowest terms, positive denominator
    assert {l: Fraction(c[pos[l]], E) for l in ground} == want
    return want


@st.composite
def transfer_states(draw):
    """(ground, sides, a, D, new side) with x = a / D; a sums to 0 up to a small shift."""
    n = draw(st.integers(2, 5))
    ground = tuple(range(1, n + 1))
    side = st.sets(st.sampled_from(ground), min_size=1, max_size=n - 1).map(sorted).map(tuple)
    a = draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1))
    a.append(draw(st.integers(-1, 1)) - sum(a))
    return ground, draw(st.lists(side, max_size=6)), tuple(a), draw(st.integers(1, 12)), draw(side)


class TestTransferAgainstFractionReference:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5), data=st.data())
    def test_states_of_the_enumeration(self, n, data):
        # one random branch of the enumeration, hyperplanes in random order;
        # every state on it is a strict witness of its sides
        ground = tuple(sorted(data.draw(st.sets(st.integers(-9, 30), min_size=n, max_size=n))))
        order = data.draw(st.permutations(channel_representatives(ground)))
        sides = []
        x = {l: Fraction(0) for l in ground}
        for S in order:
            comp = tuple(l for l in ground if l not in S)
            val = sum(x[l] for l in S)
            kept, other = (S, comp) if val > 0 else (comp, S)
            if val == 0:
                x = strict_positive_witness(ground, sides + [kept])
                if x is None:
                    kept, other = other, kept
                    x = strict_positive_witness(ground, sides + [kept])
            moved = _assert_same_transfer(ground, sides, x, kept)
            if data.draw(st.booleans()):
                if moved is None:
                    moved = strict_positive_witness(ground, sides + [other])
                if moved is not None:
                    kept, x = other, moved
            sides.append(kept)

    @settings(max_examples=300, deadline=None)
    @given(state=transfer_states())
    @example(state=((1, 2, 3, 4, 5), [(3,)], (5, -5, -4, -1, 5), 1, (1, 4)))  # side (3,) stays <= 0
    @example(state=((1, 2, 3), [], (-1, 2, -1), 1, (1,)))  # the walk runs away from the new side
    def test_arbitrary_states(self, state):
        # states no enumeration reaches: x need not sum to 0 nor be positive
        # on the sides, so each of the candidate's re-checks can decide
        ground, sides, a, D, new_side = state
        _assert_same_transfer(ground, sides, {l: Fraction(v, D) for l, v in zip(ground, a)}, new_side)

    def test_walk_without_bound_doubles_the_crossing(self):
        # x = (1, -1): the only side is the new one, so t = 2 t_flip
        assert transfer_witness_across(2, [], ([1, -1], 1), (0,)) == ([-1, 1], 1)

    def test_blocked_walk_misses(self):
        # the prior side {0, 1} is crossed before the new side {0} is
        ground = (1, 2, 3)
        x = {1: Fraction(5), 2: Fraction(-3), 3: Fraction(-2)}
        assert _assert_same_transfer(ground, [(1, 2)], x, (1,)) is None
