"""Spans around mmw's public functions, installed by rebinding names.

``install`` wraps each function listed in ``TARGETS`` and rebinds every
name in every loaded ``mmw`` module that refers to it, so a call is traced
both where the workload makes it and where one mmw module calls another
(``axiom.system_of`` -> ``normalize``/``collapse``, ``lattice.collapse`` ->
``apply_minmatrix``).  Nothing in ``src/`` changes, and only the traced run
calls ``install``.

A span is ``[name, start, end, parent, op_id, extra]``; ``extra`` is a
count taken at the same boundary (AST nodes, frames checked, ...).  The
counts are worked out after the op's root span closes, so they are not
inside any span.
"""

from __future__ import annotations

import sys
from statistics import quantiles
from time import perf_counter


def _tree_stats(root) -> tuple[int, int]:
    """(tree nodes, distinct subterms) of an mmw formula, without recursion."""
    ids: dict = {}        # structural key -> id
    memo: dict = {}       # id(obj) -> (node id, tree size)
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        kids = [getattr(node, a) for a in ("child", "left", "right") if hasattr(node, a)]
        if not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in memo)
            continue
        key = (type(node).__name__, getattr(node, "index", None),
               tuple(memo[id(k)][0] for k in kids))
        nid = ids.setdefault(key, len(ids))
        memo[id(node)] = (nid, 1 + sum(memo[id(k)][1] for k in kids))
    return memo[id(root)][1], len(ids)


def _formula_stats(args, kwargs, result):
    return _tree_stats(args[0])


def _parse_nodes(args, kwargs, result):
    return _tree_stats(result)[0]


def _fixpoint(args, kwargs, result):
    return int(result == args[0])


def _substitution(args, kwargs, result):
    s = args[1]
    return f"{s.v}:{','.join(map(str, s.tables))}"


def _frames(args, kwargs, result):
    return result.frames_checked


def _found(args, kwargs, result):
    return int(result is not None)


# span name -> (defining module, attribute, count taken at the boundary)
TARGETS = {
    "formula.parse": ("mmw.formula", "parse", _parse_nodes),
    "minmatrix.normalize": ("mmw.minmatrix", "normalize", _formula_stats),
    "substitution.apply_minmatrix": ("mmw.substitution", "apply_minmatrix", _substitution),
    "substitution.classify": ("mmw.substitution", "classify", None),
    "substitution.enumerate_primes": ("mmw.substitution", "enumerate_primes", None),
    "orbit.orbit_map": ("mmw.orbit", "orbit_map", None),
    "orbit.compute_orbits": ("mmw.orbit", "compute_orbits", None),
    "lattice.collapse": ("mmw.lattice", "collapse", _fixpoint),
    "axiom.alpha": ("mmw.axiom", "alpha_for", None),
    "axiom.system_of": ("mmw.axiom", "system_of", None),
    "axiom.variant_collapse": ("mmw.axiom", "variant_collapse", None),
    "kripke.correspondence_check": ("mmw.kripke", "correspondence_check", _frames),
    "kripke.find_countermodel": ("mmw.kripke", "find_countermodel", _found),
}


class Tracer:
    """Spans kept in memory: one list per process, written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self.op_id = -1

    def wrap(self, name: str, fn, count=None):
        spans, stack, pending = self.spans, self._stack, self._pending

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                pending.append((rec, count, args, kwargs, result))
            return result
        return traced

    def run_op(self, op_id: int, slice_: str, fn):
        """Run one op under a root span ``op.<slice>``; sets ``last_op_s``."""
        self.op_id = op_id
        first = len(self.spans)
        try:
            return self.wrap("op." + slice_, fn)()
        finally:
            root = self.spans[first]
            self.last_op_s = root[2] - root[1]
            self.flush()

    def flush(self) -> None:
        for rec, count, args, kwargs, result in self._pending:
            rec[5] = count(args, kwargs, result)
        self._pending.clear()


def install(tracer: Tracer):
    """Rebind every mmw name that refers to a traced function, and Context.__init__.

    Returns a function that puts the original bindings back.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "mmw" or n.startswith("mmw."))]
    undo = []
    for name, (modname, attr, count) in TARGETS.items():
        orig = getattr(sys.modules[modname], attr)
        traced = tracer.wrap(name, orig, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
                    undo.append((mod, key, orig))
    context_cls = sys.modules["mmw.context"].Context
    undo.append((context_cls, "__init__", context_cls.__init__))
    context_cls.__init__ = tracer.wrap("context.build", context_cls.__init__)

    def restore() -> None:
        for owner, key, orig in undo:
            setattr(owner, key, orig)
    return restore


# -- per-layer report ----------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _p99_ms(durations: list[float]) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return quantiles(durations, n=100, method="inclusive")[98] * 1e3


def layer_table(span_sets) -> dict[str, dict]:
    """name -> calls, self_s, total_s, durations, counts, over several span lists."""
    table: dict[str, dict] = {}
    for spans in span_sets:
        selfs = self_times(spans)
        for s, own in zip(spans, selfs):
            row = table.setdefault(s[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                          "durations": [], "counts": []})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += s[2] - s[1]
            row["durations"].append(s[2] - s[1])
            if s[5] is not None:
                row["counts"].append(s[5])
    return table


def layer_metrics(table: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from a layer table."""
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": [], "counts": []}

    def row(name):
        return table.get(name, empty)

    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(name):
        out[f"{name}.calls"] = (row(name)["calls"], "count")
        out[f"{name}.s"] = (row(name)["self_s"], "s")

    calls_and_self("formula.parse")
    out["formula.parse.nodes"] = (sum(row("formula.parse")["counts"]), "count")
    out["context.build.s"] = (row("context.build")["self_s"], "s")

    norm = row("minmatrix.normalize")
    calls_and_self("minmatrix.normalize")
    out["minmatrix.normalize.p99_ms"] = (_p99_ms(norm["durations"]), "ms")
    nodes = sum(c[0] for c in norm["counts"])
    distinct = sum(c[1] for c in norm["counts"])
    out["minmatrix.normalize.ns_per_node"] = (norm["total_s"] * 1e9 / nodes if nodes else 0.0, "ns")
    out["minmatrix.input.sharing"] = (distinct / nodes if nodes else 0.0, "1")

    calls_and_self("substitution.apply_minmatrix")
    out["substitution.distinct_subs"] = (len(set(row("substitution.apply_minmatrix")["counts"])),
                                         "count")
    out["substitution.classify.s"] = (row("substitution.classify")["self_s"], "s")
    out["substitution.enumerate_primes.s"] = (row("substitution.enumerate_primes")["self_s"], "s")
    out["orbit.orbit_map.s"] = (row("orbit.orbit_map")["self_s"], "s")
    out["orbit.compute_orbits.s"] = (row("orbit.compute_orbits")["self_s"], "s")

    coll = row("lattice.collapse")
    calls_and_self("lattice.collapse")
    out["lattice.collapse.p99_ms"] = (_p99_ms(coll["durations"]), "ms")
    out["lattice.collapse.fixpoint_ratio"] = (
        sum(coll["counts"]) / coll["calls"] if coll["calls"] else 0.0, "1")

    out["axiom.alpha.s"] = (row("axiom.alpha")["self_s"], "s")
    calls_and_self("axiom.system_of")
    out["axiom.variant_collapse.s"] = (row("axiom.variant_collapse")["self_s"], "s")

    corr = row("kripke.correspondence_check")
    calls_and_self("kripke.correspondence_check")
    frames = sum(corr["counts"])
    out["kripke.frames_checked"] = (frames, "count")
    out["kripke.frames_per_s"] = (frames / corr["total_s"] if corr["total_s"] else 0.0, "1/s")
    cm = row("kripke.find_countermodel")
    calls_and_self("kripke.find_countermodel")
    out["kripke.countermodel.found_ratio"] = (
        sum(cm["counts"]) / cm["calls"] if cm["calls"] else 0.0, "1")
    return out


def summary(values: list[int]) -> dict[str, int]:
    """p10/p50/p90/max of a list of counts."""
    values = sorted(values)
    if not values:
        return {}
    pick = lambda q: values[min(len(values) - 1, int(q * len(values)))]
    return {"p10": pick(0.1), "p50": pick(0.5), "p90": pick(0.9), "max": values[-1]}


def node_quantiles(table: dict[str, dict]) -> dict[str, int]:
    """AST nodes of the formulas normalize saw."""
    return summary([c[0] for c in table.get("minmatrix.normalize", {"counts": []})["counts"]])
