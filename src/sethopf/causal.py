"""A desk-scale causal model: timed observables in a free word algebra.

Observables carry a single rational time instant; "later" means causally
not-earlier, and the time-ordered product writes later factors to the left
(ties broken by ascending id, a documented convention that makes every
output deterministic).  The ambient algebra is the free word algebra of
``series``: an element is a ``LinComb`` keyed by tuples of ids, with no
relations imposed, so any identity verified here holds by Hopf/causal
combinatorics alone.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .arrows import retarded_element
from .compositions import Composition, labelset
from .errors import DomainError
from .hopf import SigmaElem, antipode, basis_elem
from .lincomb import LinComb
from .series import (
    TruncSeries, _form_series, _reverse_form, _split_form, eval_system, formal_diff, perturb_arrow,
    perturb_coderivation, reverse_exponential, t_exponential, universal_series,
)
from .hadamard import tits


class TimedObservable:
    """A symbolic local observable supported at a single rational time."""

    __slots__ = ("id", "time")

    def __init__(self, id: str, time):
        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "time", Fraction(time))

    def __setattr__(self, *a):
        raise AttributeError("TimedObservable is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TimedObservable)
            and self.id == other.id
            and self.time == other.time
        )

    def __hash__(self):
        return hash((self.id, self.time))

    def __repr__(self):
        return f"{self.id}@{self.time}"


def _sorted_ids(obs: Iterable[TimedObservable]) -> tuple[str, ...]:
    """Ids by decreasing time, ties by ascending id: two stable sorts, so no
    negated time is built per comparison key."""
    ordered = sorted(obs, key=attrgetter("id"))
    ordered.sort(key=attrgetter("time"), reverse=True)
    return tuple(o.id for o in ordered)


def time_ordered(observables: Sequence[TimedObservable]) -> LinComb:
    """The single word with ids sorted by strictly decreasing time (later left)."""
    return LinComb.single(_sorted_ids(observables), 1)


def CAUSAL_SYSTEM(F: Composition, dec: Mapping[int, TimedObservable]) -> LinComb:
    """The causal evaluator: lumpwise time-ordering followed by
    concatenation across lumps."""
    ids: tuple[str, ...] = ()
    for lump in F.lumps:
        ids = ids + _sorted_ids(dec[l] for l in lump)
    return LinComb.single(ids, 1)


def generalized_T(x: SigmaElem, dec: Mapping[int, TimedObservable]) -> LinComb:
    return eval_system(CAUSAL_SYSTEM, x, dec)


def respects(dec: Mapping[int, TimedObservable], G: Composition) -> bool:
    """Every label in an earlier (left) lump is at a time >= every later one."""
    for p in range(len(G.lumps)):
        for q in range(p + 1, len(G.lumps)):
            for i1 in G.lumps[p]:
                for i2 in G.lumps[q]:
                    if dec[i1].time < dec[i2].time:
                        return False
    return True


def causal_factorization_check(
    x: SigmaElem, G: Composition, dec: Mapping[int, TimedObservable]
) -> bool:
    """T_I(a (x) A_I) = T_I(a |> H_G (x) A_I) whenever the decoration respects G."""
    if not respects(dec, G):
        raise DomainError("decoration does not respect the composition")
    lhs = generalized_T(x, dec)
    rhs = generalized_T(tits(x, basis_elem(G)), dec)
    return lhs == rhs


def reverse_T(x: SigmaElem, dec: Mapping[int, TimedObservable]) -> LinComb:
    """The reverse product: evaluation after the antipode."""
    return generalized_T(antipode(x), dec)


def retarded_product(
    Y_dec: Mapping[int, TimedObservable], I_dec: Mapping[int, TimedObservable]
) -> LinComb:
    """Evaluation of the retarded element on interaction copies over Y; with
    no interactions, the time-ordered product of I."""
    if set(Y_dec) & set(I_dec):
        raise DomainError("interaction and observable labels must be disjoint")
    elem = retarded_element(labelset(Y_dec), labelset(I_dec))
    return generalized_T(elem, {**Y_dec, **I_dec})


def interacting_observable(
    A: TimedObservable, S_int: TimedObservable, order: int
) -> TruncSeries:
    """sum_r (g^r / r!) c^r R_(r;1)(S^r; A), a series in g alone, at c = 1;
    the encoder applies c = 1/(i hbar) (see ``series``).  Its g^r term is
    the g^r j^1 coefficient of the retarded split form of r stars and the
    one label of A, evaluated once per two-coloured shape."""
    reverse = [_reverse_form(k) for k in range(order + 1)]
    forms = (((r, 1), _split_form(r, 1, False, reverse)) for r in range(order + 1))
    z = _form_series(CAUSAL_SYSTEM, forms, S_int, A, 1, order + 1)
    return TruncSeries(order, {(r, 0): v for (r, _), v in z.terms.items()})


def smatrix(A: TimedObservable, order: int) -> TruncSeries:
    """The T-exponential for the universal series at coupling c = 1."""
    return t_exponential(CAUSAL_SYSTEM, universal_series(1, order), A, order)


def generating_function(
    A: TimedObservable, S_int: TimedObservable, order: int, direction: str = "down"
) -> TruncSeries:
    """Z_(gS)(jA): the arrow-perturbed T-exponential (retarded by default)."""
    return perturb_arrow(CAUSAL_SYSTEM, S_int, A, order, direction=direction)


def z_factorization_check(A: TimedObservable, S_int: TimedObservable, order: int) -> bool:
    """Z = S^(-1)(gS) * S(gS + jA)  and the advanced mirror, exactly."""
    return _z_factorization_holds(generating_function(A, S_int, order, "down"), A, S_int, order)


def _z_factorization_holds(z: TruncSeries, A: TimedObservable, S_int: TimedObservable, order: int) -> bool:
    """``z_factorization_check`` on z, the retarded generating function at
    this order, already built."""
    w = generating_function(A, S_int, order, "up")
    # S^(-1)(gS), the reverse T-exponential of the interaction alone, and
    # S(gS + jA), expanded exactly as a (g, j) double series
    sinv = reverse_exponential(CAUSAL_SYSTEM, 1, S_int, order)
    stwo = perturb_coderivation(CAUSAL_SYSTEM, 1, S_int, A, order)
    return z == sinv * stwo and w == stwo * sinv


def bogoliubov_extract(A: TimedObservable, S_int: TimedObservable, order: int) -> TruncSeries:
    """i hbar * d/dj at j = 0 of the generating function, to order - 1: at
    coupling c = 1, where i hbar * c = 1, plain d/dj at j = 0.  It is read
    from Z = S^(-1)(gS) * S(gS + jA), not from the arrows that build Z and
    the interacting series.  S^(-1)(gS) has no j, so this is S^(-1)(gS)
    times d/dj at j = 0 of S(gS + jA), both to order - 1.

    Below order 1 the generating function has no j-term, so there is nothing
    to extract and the formula says nothing: a DomainError."""
    if order < 1:
        raise DomainError(f"Bogoliubov's formula needs order >= 1, got {order}")
    sinv = reverse_exponential(CAUSAL_SYSTEM, 1, S_int, order - 1)
    stwo = perturb_coderivation(CAUSAL_SYSTEM, 1, S_int, A, order)
    return sinv * formal_diff(stwo, "j").at_j_zero()


def bogoliubov_check(A: TimedObservable, S_int: TimedObservable, order: int) -> bool:
    """Bogoliubov's formula: the extraction equals the interacting series."""
    lhs = bogoliubov_extract(A, S_int, order)
    return lhs == interacting_observable(A, S_int, order - 1)


class CausalModel:
    """A named family of timed observables with a distinguished interaction."""

    __slots__ = ("observables", "interaction")

    def __init__(self, observables: Iterable[TimedObservable], interaction: str):
        table = {}
        for o in observables:
            if o.id in table:
                raise DomainError(f"duplicate observable id {o.id!r}")
            table[o.id] = o
        if interaction not in table:
            raise DomainError(f"interaction id {interaction!r} is not an observable")
        object.__setattr__(self, "observables", table)
        object.__setattr__(self, "interaction", interaction)

    def __setattr__(self, *a):
        raise AttributeError("CausalModel is immutable")

    @property
    def interaction_observable(self) -> TimedObservable:
        return self.observables[self.interaction]

    def first_field_observable(self) -> TimedObservable:
        for oid in sorted(self.observables):
            if oid != self.interaction:
                return self.observables[oid]
        raise DomainError("model needs at least one non-interaction observable")
