from fractions import Fraction

import pytest

from sethopf.cells import Cell
from sethopf.jsonio import (
    cell_to_json,
    model_from_json,
    qi_to_json,
    truncseries_to_json,
)
from sethopf.lincomb import LinComb
from sethopf.scalars import QI
from sethopf.series import TruncSeries


def test_scalar_round_trip():
    x = QI(Fraction(3, 4), Fraction(-1, 2))
    assert qi_to_json(x) == {"re": "3/4", "im": "-1/2"}


def test_cell_json_sorted():
    cell = Cell((1, 2, 3), [(1, 2), (1,), (1, 3)])
    d = cell_to_json(cell, {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1)})
    assert d["positive"] == [[1], [1, 2], [1, 3]]
    assert d["witness"] == {"1": "1", "2": "0", "3": "-1"}


def test_truncseries_json():
    ts = TruncSeries(
        2,
        {
            (0, 0): LinComb.single((), 1),
            (1, 1): LinComb.single(("a", "s"), 1),
        },
    )
    d = truncseries_to_json(ts)
    assert d["order"] == 2
    assert d["terms"][0] == {
        "g": 0,
        "j": 0,
        "hbar": [{"pow": 0, "coeff": {"re": "1", "im": "0"}}],
        "value": [],
    }
    assert d["terms"][1] == {
        "g": 1,
        "j": 1,
        "hbar": [{"pow": -2, "coeff": {"re": "-1", "im": "0"}}],
        "value": ["a", "s"],
    }


@pytest.mark.parametrize("r, n, re, im", [
    (0, 0, "3/4", "0"),
    (1, 0, "0", "-3/4"),
    (1, 1, "-3/4", "0"),
    (0, 3, "0", "3/4"),
    (2, 2, "3/4", "0"),
    (4, 1, "0", "-3/4"),
])
def test_truncseries_json_applies_the_coupling(r, n, re, im):
    # the coefficient q at g^r j^n is written as q (1/(i hbar))^(r+n),
    # that is q (-i)^(r+n) at the hbar power -(r+n)
    ts = TruncSeries(5, {(r, n): LinComb.single(("a",), Fraction(3, 4))})
    (term,) = truncseries_to_json(ts)["terms"]
    assert term == {"g": r, "j": n, "hbar": [{"pow": -(r + n), "coeff": {"re": re, "im": im}}], "value": ["a"]}
    for q in (1, -2, Fraction(-5, 3)):
        ts = TruncSeries(5, {(r, n): LinComb.single(("a",), q)})
        (term,) = truncseries_to_json(ts)["terms"]
        assert term["hbar"] == [{"pow": -(r + n), "coeff": qi_to_json(QI(0, -1) ** (r + n) * q)}]


def test_model_round_trip():
    d = {"observables": [{"id": "a", "time": "1/2"}, {"id": "s", "time": "0"}], "interaction": "s"}
    m = model_from_json(d)
    assert m.observables["a"].time == Fraction(1, 2)
    assert m.interaction == "s"
