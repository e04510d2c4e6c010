"""Exception types shared across the package, and the size bounds."""


class DomainError(ValueError):
    """An argument breaks a structural precondition (wrong ground set, overlap, ...)."""


class SizeLimitError(ValueError):
    """A ground-set size exceeds its entry in SIZE_BOUNDS."""


# The largest ground-set size n each enumeration accepts.  Every bounded
# function checks its entry before any work, and so does every CLI command.
# The command entries bound runs that enumerate far less than they compute:
# each is the largest --n or --order whose default run took under 5 minutes
# on a 2-core machine, or for `toy` under 3 minutes and 1 GB.  "tits suite"
# bounds `verify.tits_suite` alike: n = 5 takes about 2 minutes, 6 about a day.
SIZE_BOUNDS = {
    "compositions": 8,
    "cells": 6,
    "dynkin rank": 6,
    "primitive part": 5,
    "tits suite": 5,
    "arrows verify": 5,
    "hopf check": 6,
    "steinmann verify": 5,
    "series identities": 8,
    "toy demo": 17,
    "toy bogoliubov": 19,
}


def check_size(kind: str, n: int) -> None:
    """Raise SizeLimitError when n exceeds the SIZE_BOUNDS entry for kind."""
    limit = SIZE_BOUNDS[kind]
    if n > limit:
        raise SizeLimitError(f"ground-set size {n} exceeds the {kind} bound {limit}")
