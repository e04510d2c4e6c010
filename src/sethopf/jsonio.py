"""Stable JSON encodings of the values the CLI prints, and the decoder of
the model files it reads.

All orderings are canonical so that repeated runs produce byte-identical
output: cells by their positive sides, series terms by total degree then
g-degree then word.
"""

from __future__ import annotations

from fractions import Fraction

from .causal import CausalModel, TimedObservable
from .cells import Cell
from .errors import DomainError
from .scalars import HbarPoly, as_qi
from .series import TruncSeries
from .words import WordElem


def frac_to_json(x: Fraction) -> str:
    x = Fraction(x)
    return str(x)


def qi_to_json(x) -> dict:
    q = as_qi(x)
    if q is NotImplemented:
        raise DomainError(f"cannot serialize {x!r} as a scalar")
    return {"re": frac_to_json(q.re), "im": frac_to_json(q.im)}


def hbar_to_json(p: HbarPoly) -> list:
    return [{"pow": k, "coeff": qi_to_json(p.c[k])} for k in sorted(p.c)]


def cell_to_json(cell: Cell, witness: dict | None = None) -> dict:
    out = {
        "ground": list(cell.ground),
        "positive": [list(S) for S in sorted(cell.positive, key=lambda S: (len(S), S))],
    }
    if witness is not None:
        out["witness"] = {str(l): frac_to_json(witness[l]) for l in sorted(witness)}
    return out


def word_to_json(w) -> list:
    return list(w)


def truncseries_to_json(ts: TruncSeries) -> dict:
    terms = []
    for (r, n) in sorted(ts.terms, key=lambda k: (k[0] + k[1], k[0])):
        value: WordElem = ts.terms[(r, n)]
        for word, coeff in value.lc.items_sorted():
            terms.append(
                {"g": r, "j": n, "hbar": hbar_to_json(coeff), "value": word_to_json(word)}
            )
    return {"order": ts.order, "terms": terms}


def model_from_json(data: dict) -> CausalModel:
    obs = [TimedObservable(d["id"], Fraction(d["time"])) for d in data["observables"]]
    return CausalModel(obs, data["interaction"])
