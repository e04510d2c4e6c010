"""Outside-in tracing of sethopf's layers for the benchmark's traced run.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
every public function of the span layers with a timing wrapper, in the
defining module and in every other ``sethopf`` module that imported it by
name (``cells`` binds the ``lp`` functions, ``verify`` binds the ``hopf``
and ``cells`` ones), so internal calls are traced too.  Each call records a
span ``(id, parent id, name, start, end)``; a span's self time is its
duration minus the time covered by its traced children.

The scalar and ``LinComb`` layers are counted, not timed: they run millions
of times per workload, and a span each would swamp the run.  The
``compositions`` layer is neither timed nor counted, for the same reason;
its cache hit ratio is reported instead.
"""

from __future__ import annotations

import functools
import sys
import time
import types

SPAN_LAYERS = ("lp", "cells", "hopf", "hadamard", "linalg", "verify")

CACHED = (
    ("compositions", "_compositions_cached"),
    ("cells", "_enumerate_cells_cached"),
    ("hopf", "_restrict_cached"),
    ("hopf", "_antipode_of_comp"),
    ("hopf", "_h_in_q"),
    ("hopf", "_q_in_h"),
)

QI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__")
LINCOMB_OPS = ("__add__", "__sub__", "__neg__", "scale", "map_keys", "map_coeffs")

GATE_SUITES = ("hopf_suite", "tits_suite", "dimension_suite", "cells_suite",
               "dynkin_suite", "steinmann_suite", "lie_suite", "arrows_suite",
               "series_suite", "causal_suite")


def _tableau_entries(args, result):
    c, A = args[0], args[1]
    return len(A) * (len(c) + len(A) + 1)


def _kernel_entries(args, result):
    images, domain = args[0], args[1]
    rows = {k for _, v in images for k in v.keys()}
    return len(rows) * len(domain)


def _mod_prime_entries(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# Extra counters per traced function: (counter name, f(positional args, result)).
# Every caller in sethopf passes these arguments positionally.  kernel_basis
# reads its linear map after the call, so the map must be a sequence, as it
# is at its only caller (hopf.primitive_part_basis).
HOOKS = {
    "lp.simplex_max": ("tableau_entries", _tableau_entries),
    "lp.transfer_witness_across": ("hits", lambda a, r: r is not None),
    "lp.partition_infeasible": ("hits", lambda a, r: bool(r)),
    "hopf.delta_split": ("terms_in", lambda a, r: len(a[0].lc)),
    "linalg.kernel_basis": ("matrix_entries", _kernel_entries),
    "linalg.rank_mod_prime": ("matrix_entries", _mod_prime_entries),
    **{f"verify.{s}": ("checked", lambda a, r: r.checked) for s in GATE_SUITES},
}


def _calls_self(fn):
    return [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]


# The per-layer metrics a traced run reports, as (name, unit, better).
PER_LAYER = [
    *_calls_self("lp.simplex_max"),
    ("lp.simplex_max.tableau_entries", "count", "lower"),
    *_calls_self("lp.balanced_combination_exists"),
    *_calls_self("lp.strict_positive_witness"),
    ("lp.transfer_witness_across.calls", "count", "lower"),
    ("lp.transfer_witness_across.hit_ratio", "ratio", "higher"),
    ("lp.partition_infeasible.calls", "count", "lower"),
    ("lp.partition_infeasible.hit_ratio", "ratio", "higher"),
    ("cells.enumerate_cells.self_s", "s", "lower"),
    ("cells.enumerate_cells_with_witnesses.self_s", "s", "lower"),
    *_calls_self("cells.dynkin"),
    ("cells.dynkin_rank.self_s", "s", "lower"),
    ("cells.primitive_dimension_certified.self_s", "s", "lower"),
    ("cells.steinmann_quadruples.self_s", "s", "lower"),
    *_calls_self("cells.ruelle_check"),
    *_calls_self("hopf.delta_split"),
    ("hopf.delta_split.terms_in", "count", "lower"),
    *_calls_self("hopf.is_primitive"),
    *[m for f in ("mu", "antipode", "takeuchi_antipode", "to_h", "to_q",
                  "primitive_part_basis") for m in _calls_self(f"hopf.{f}")],
    *_calls_self("hadamard.tits"),
    *_calls_self("hadamard.hopf_power"),
    *_calls_self("linalg.kernel_basis"),
    ("linalg.kernel_basis.matrix_entries", "count", "lower"),
    *_calls_self("linalg.rank"),
    *_calls_self("linalg.rank_mod_prime"),
    ("linalg.rank_mod_prime.matrix_entries", "count", "lower"),
    ("linalg.integer_rows.self_s", "s", "lower"),
    *[(f"cache.{fn}.hit_ratio", "ratio", "higher") for _, fn in CACHED],
    *[m for s in GATE_SUITES for m in
      ((f"verify.{s}.self_s", "s", "lower"), (f"verify.{s}.checked", "count", "higher"))],
    ("scalars.QI.ops", "count", "lower"),
    ("lincomb.LinComb.ops", "count", "lower"),
]


class Tracer:
    """Wraps sethopf's layers in place; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, self s]
        self.counters: dict[str, int] = {}  # "name.counter" -> value
        self.ops = {"scalars.QI": 0, "lincomb.LinComb": 0}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, stats, counters = self.spans, self._stack, self.stats, self.counters
        stat = stats.setdefault(name, [0, 0.0])
        hook = HOOKS.get(name)
        if hook:
            key = f"{name}.{hook[0]}"
            counters[key] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, name, start, end))
                stat[0] += 1
                stat[1] += dur - frame[1]
            if hook:
                counters[key] += hook[1](args, result)
            return result

        return wrapper

    def _count_wrapper(self, layer: str, fn):
        ops = self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ops[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, replace: dict):
        """Point every sethopf module attribute bound to a key of `replace` at its wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname != "sethopf" and not modname.startswith("sethopf."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in replace:
                    self._set(mod, attr, replace[id(value)][1])

    def install(self):
        import sethopf.lincomb
        import sethopf.scalars

        for layer in SPAN_LAYERS:
            __import__(f"sethopf.{layer}")
        replace = {}
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"sethopf.{layer}"]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    replace[id(value)] = (value, self._span_wrapper(f"{layer}.{attr}", value))
        total = sethopf.lincomb.lincomb_sum
        replace[id(total)] = (total, self._count_wrapper("lincomb.LinComb", total))
        self._rebind(replace)
        for cls, names, layer in ((sethopf.scalars.QI, QI_OPS, "scalars.QI"),
                                  (sethopf.lincomb.LinComb, LINCOMB_OPS, "lincomb.LinComb")):
            for attr in names:
                self._set(cls, attr, self._count_wrapper(layer, vars(cls)[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the run-level ``trace.*`` ones."""
        out = {}
        for name, _, _ in PER_LAYER:
            fn, kind = name.rsplit(".", 1)
            if fn.startswith("cache."):
                mod, attr = next((m, a) for m, a in CACHED if a == fn[len("cache."):])
                info = getattr(sys.modules[f"sethopf.{mod}"], attr).cache_info()
                looked = info.hits + info.misses
                out[name] = info.hits / looked if looked else 0.0
            elif kind == "ops":
                out[name] = self.ops[fn]
            elif kind == "calls":
                out[name] = self.stats[fn][0]
            elif kind == "self_s":
                out[name] = self.stats[fn][1]
            elif kind == "hit_ratio":
                calls = self.stats[fn][0]
                out[name] = self.counters[f"{fn}.hits"] / calls if calls else 0.0
            else:
                out[name] = self.counters[name]
        return out
