"""Stable JSON encodings of the values the CLI prints, and the decoder of
the model files it reads.

All orderings are canonical so that repeated runs produce byte-identical
output: cells by their positive sides, series terms by total degree then
g-degree then word.

``truncseries_to_json`` applies the causal coupling c = 1/(i*hbar): the
series layer computes at c = 1, so the rational coefficient q at g^r j^n is
written as q * c^(r+n), that is q * (-i)^(r+n) at the hbar power -(r+n)
(``series`` says why that is exact).
"""

from __future__ import annotations

from fractions import Fraction

from .causal import CausalModel, TimedObservable
from .cells import Cell
from .errors import DomainError
from .scalars import QI, as_qi
from .series import TruncSeries


def frac_to_json(x: Fraction) -> str:
    x = Fraction(x)
    return str(x)


def qi_to_json(x) -> dict:
    q = as_qi(x)
    if q is NotImplemented:
        raise DomainError(f"cannot serialize {x!r} as a scalar")
    return {"re": frac_to_json(q.re), "im": frac_to_json(q.im)}


def _coupled_to_json(q, k: int) -> list:
    """q * (1/(i*hbar))^k = q * (-i)^k * hbar^(-k), for a rational q."""
    re, im = ((q, 0), (0, -q), (-q, 0), (0, q))[k % 4]
    return [{"pow": -k, "coeff": qi_to_json(QI(re, im))}]


def cell_to_json(cell: Cell, witness: dict | None = None) -> dict:
    out = {
        "ground": list(cell.ground),
        "positive": [list(S) for S in sorted(cell.positive, key=lambda S: (len(S), S))],
    }
    if witness is not None:
        out["witness"] = {str(l): frac_to_json(witness[l]) for l in sorted(witness)}
    return out


def truncseries_to_json(ts: TruncSeries) -> dict:
    terms = []
    for (r, n) in sorted(ts.terms, key=lambda k: (k[0] + k[1], k[0])):
        for word, coeff in ts.terms[(r, n)].items_sorted():
            terms.append(
                {"g": r, "j": n, "hbar": _coupled_to_json(coeff, r + n), "value": list(word)}
            )
    return {"order": ts.order, "terms": terms}


def model_from_json(data: dict) -> CausalModel:
    obs = []
    for d in data["observables"]:
        if isinstance(d["time"], bool):  # Fraction(True) is 1
            raise DomainError(f"time of observable {d['id']!r} is a boolean, not a rational number")
        if isinstance(d["time"], float):  # Fraction(0.1) is not 1/10
            raise DomainError(f"time of observable {d['id']!r} is a float, not a rational number")
        obs.append(TimedObservable(d["id"], Fraction(d["time"])))
    return CausalModel(obs, data["interaction"])
