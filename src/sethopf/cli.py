"""Command-line interface with stable JSON output.

Verification subcommands emit a run report
``{"command", "parameters", "status", "counters", "payload"}`` and exit 0
on pass, 1 on a verification failure; a run that checks no instance is a
usage error, not a pass.  Data subcommands (``cells count``,
``dynkin rank``) emit their documented compact payloads.  Usage errors,
exceeded size bounds and bad input (a domain error, a malformed or missing
model file) exit 2 with one line on stderr.  Each command names the
``errors.SIZE_BOUNDS`` entry that bounds its ``--n`` or ``--order``, and
``run`` checks it before the command does any work.
"""

from __future__ import annotations

import argparse
import json
import sys

from .causal import (
    CausalModel,
    _z_factorization_holds,
    bogoliubov_extract,
    generating_function,
    interacting_observable,
    smatrix,
)
from .compositions import canonical_set
from .cells import _cell_orbits, dynkin_rank, enumerate_cells, enumerate_cells_with_witnesses
from .errors import SizeLimitError, check_size
from .jsonio import (
    cell_to_json,
    model_from_json,
    truncseries_to_json,
)
from . import verify


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, separators=(",", ":"))
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _report(args, command: str, parameters: dict, *results) -> int:
    res = verify.SuiteResult.merge(command, results)
    if not res.checked:
        where = ", ".join(f"{k}={v}" for k, v in parameters.items())
        raise ValueError(f"{command} checked no instances at {where}")
    status = "pass" if res.passed else "fail"
    out = {
        "command": command,
        "parameters": parameters,
        "status": status,
        "counters": {
            "checked": res.checked,
            "failures": len(res.failures),
            **res.counters,
        },
        "payload": res.payload,
    }
    if res.failures:
        out["failureSamples"] = res.failures[:10]
    _emit(args, out)
    return 0 if status == "pass" else 1


def _cmd_hopf_check(args) -> int:
    suites = verify.hopf_suite(args.n), verify.tits_suite(min(args.n, 3))
    return _report(args, "hopf check", {"n": args.n}, *suites)


def _cmd_cells_count(args) -> int:
    count = sum(len(members) for *_, members in _cell_orbits(args.n))
    _emit(args, {"n": args.n, "count": count})
    return 0


def _cmd_cells_enumerate(args) -> int:
    ground = canonical_set(args.n)
    if args.witnesses:
        cells = [cell_to_json(c, w) for c, w in enumerate_cells_with_witnesses(ground)]
    else:
        cells = [cell_to_json(c) for c in enumerate_cells(ground)]
    payload = {"n": args.n, "count": len(cells), "cells": cells}
    _emit(args, payload)
    return 0


def _cmd_dynkin_rank(args) -> int:
    try:
        cells, r, zdim = dynkin_rank(canonical_set(args.n))
        status = "pass"
    except ArithmeticError as e:
        _emit(args, {"n": args.n, "status": "fail", "error": str(e)})
        return 1
    _emit(args, {"cells": cells, "rank": r, "zieDim": zdim, "status": status})
    return 0


def _cmd_steinmann(args) -> int:
    return _report(args, "steinmann verify", {"n": args.n}, verify.steinmann_suite(args.n))


def _cmd_ruelle(args) -> int:
    return _report(args, "ruelle verify", {"n": args.n}, verify.ruelle_suite(args.n))


def _cmd_glz(args) -> int:
    return _report(args, "glz verify", {"n": args.n}, verify.glz_suite(args.n))


def _cmd_arrows(args) -> int:
    return _report(args, "arrows verify", {"n": args.n}, verify.arrows_suite(args.n))


def _cmd_series(args) -> int:
    return _report(
        args, "series identities", {"order": args.order}, verify.series_suite(args.order)
    )


def _load_model(path: str) -> CausalModel:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return model_from_json(data)
    except (KeyError, TypeError, ArithmeticError) as e:  # "1/0" and Infinity times
        raise ValueError(f"malformed model file {path}: {e!r}") from e


def _cmd_toy_demo(args) -> int:
    model = _load_model(args.model)
    A = model.first_field_observable()
    S = model.interaction_observable
    z = generating_function(A, S, args.order)
    payload = {
        "model": {"interaction": model.interaction, "observable": A.id},
        "order": args.order,
        "smatrix": truncseries_to_json(smatrix(A, args.order)),
        "generatingFunction": truncseries_to_json(z),
        "factorizationHolds": _z_factorization_holds(z, A, S, args.order),
    }
    _emit(args, payload)
    return 0 if payload["factorizationHolds"] else 1


def _cmd_toy_bogoliubov(args) -> int:
    model = _load_model(args.model)
    A = model.first_field_observable()
    S = model.interaction_observable
    extracted = bogoliubov_extract(A, S, args.order)  # refuses order 0
    interacting = interacting_observable(A, S, args.order - 1)
    ok = extracted == interacting  # the comparison bogoliubov_check makes
    payload = {
        "model": {"interaction": model.interaction, "observable": A.id},
        "order": args.order,
        "interacting": truncseries_to_json(interacting),
        "extracted": truncseries_to_json(extracted),
        "bogoliubovHolds": ok,
    }
    _emit(args, payload)
    return 0 if ok else 1


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sethopf",
        description="exact verification suites for the composition Hopf algebra "
        "and its causal-product constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *, n=None, order=None, model=False):
        p.add_argument("--out", help="write JSON output to a file instead of stdout")
        if n is not None:
            p.add_argument("--n", type=_nonnegative_int, default=n)
        if order is not None:
            p.add_argument("--order", type=_nonnegative_int, default=order)
        if model:
            p.add_argument("--model", required=True, help="path to a model JSON file")
        return p

    hopf = sub.add_parser("hopf").add_subparsers(dest="action", required=True)
    add(hopf.add_parser("check"), n=3).set_defaults(fn=_cmd_hopf_check, limit="hopf check")

    cells = sub.add_parser("cells").add_subparsers(dest="action", required=True)
    add(cells.add_parser("count"), n=4).set_defaults(fn=_cmd_cells_count, limit="cells")
    enum_p = add(cells.add_parser("enumerate"), n=4)
    enum_p.add_argument("--witnesses", action="store_true")
    enum_p.set_defaults(fn=_cmd_cells_enumerate, limit="cells")

    dyn = sub.add_parser("dynkin").add_subparsers(dest="action", required=True)
    add(dyn.add_parser("rank"), n=4).set_defaults(fn=_cmd_dynkin_rank, limit="dynkin rank")

    st = sub.add_parser("steinmann").add_subparsers(dest="action", required=True)
    add(st.add_parser("verify"), n=4).set_defaults(fn=_cmd_steinmann, limit="steinmann verify")

    ru = sub.add_parser("ruelle").add_subparsers(dest="action", required=True)
    add(ru.add_parser("verify"), n=3).set_defaults(fn=_cmd_ruelle, limit="cells")

    gl = sub.add_parser("glz").add_subparsers(dest="action", required=True)
    add(gl.add_parser("verify"), n=3).set_defaults(fn=_cmd_glz, limit="cells")

    ar = sub.add_parser("arrows").add_subparsers(dest="action", required=True)
    add(ar.add_parser("verify"), n=3).set_defaults(fn=_cmd_arrows, limit="arrows verify")

    se = sub.add_parser("series").add_subparsers(dest="action", required=True)
    add(se.add_parser("identities"), order=4).set_defaults(
        fn=_cmd_series, limit="series identities"
    )

    toy = sub.add_parser("toy").add_subparsers(dest="action", required=True)
    for name, fn in (("demo", _cmd_toy_demo), ("bogoliubov", _cmd_toy_bogoliubov)):
        add(toy.add_parser(name), order=2, model=True).set_defaults(fn=fn, limit=f"toy {name}")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_size(args.limit, args.n if "n" in vars(args) else args.order)
        return args.fn(args)
    except SizeLimitError as e:
        sys.stderr.write(f"size limit: {e}\n")
        return 2
    except (ValueError, OSError) as e:  # DomainError is a ValueError
        message = str(e).replace("\n", " ")
        sys.stderr.write(f"error: {message}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
