#!/usr/bin/env python3
"""End-to-end walkthrough of the causal word model.

Builds a two-observable model (an interaction s at time 0 and a field
observable a at time 1), prints the S-matrix scheme, the interacting
observable series, the generating function, and verifies Bogoliubov's
formula and the factorization identity, all exactly.
"""

import argparse
import json
import sys
from fractions import Fraction

from sethopf.causal import (
    TimedObservable,
    bogoliubov_check,
    generating_function,
    interacting_observable,
    retarded_product,
    smatrix,
    z_factorization_check,
)
from sethopf.errors import SizeLimitError, check_size
from sethopf.jsonio import truncseries_to_json


def _order(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"Bogoliubov's formula needs order >= 1, got {value}")
    return value


def _time(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational time, got {text!r}") from None


TIME_OPTIONS = ("--interaction-time", "--observable-time")


def _word_sum(x) -> str:
    """The terms of a word-algebra element as ``((c))*a.s``, with each
    coefficient in double parentheses, or 0."""
    terms = (f"(({c}))*{'.'.join(w) or '1'}" for w, c in x.items_sorted())
    return " + ".join(terms) or "0"


def _joined_times(argv: list) -> list:
    """argv with each time option joined to the value after it, as
    --interaction-time=-1/2: argparse reads a separate -1/2 as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in TIME_OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=_order, default=2)
    parser.add_argument("--interaction-time", type=_time, default="0")
    parser.add_argument("--observable-time", type=_time, default="1")
    args = parser.parse_args(_joined_times(sys.argv[1:]))
    try:
        check_size("toy demo", args.order)
    except SizeLimitError as e:
        parser.exit(2, f"size limit: {e}\n")

    s = TimedObservable("s", args.interaction_time)
    a = TimedObservable("a", args.observable_time)

    print(f"# model: interaction {s}, observable {a}, order {args.order}\n")

    print("retarded product R(s; a):")
    print("   ", _word_sum(retarded_product({-1: s}, {1: a})))

    print("\nS-matrix scheme S(jA):")
    print(json.dumps(truncseries_to_json(smatrix(a, args.order)), indent=1))

    print("\ninteracting observable series:")
    print(json.dumps(truncseries_to_json(interacting_observable(a, s, args.order)), indent=1))

    z = generating_function(a, s, args.order)
    print("\ngenerating function Z_(gS)(jA):")
    print(json.dumps(truncseries_to_json(z), indent=1))

    print("\nZ = S^(-1)(gS) * S(gS + jA):", z_factorization_check(a, s, args.order))
    print("Bogoliubov extraction matches:", bogoliubov_check(a, s, args.order))


if __name__ == "__main__":
    main()
