"""Tracing from outside the program: wrap relcon's public functions in place.

Modules bind names at import (``from .syntax import match`` in treeproof),
so a wrapper is installed under every module global that holds the original
function, not just in the defining module; methods are wrapped on their
class.  Two kinds of wrapper are used:

* span wrappers keep a stack of open spans, so each span knows its parent
  and its self time (its duration minus the time its child spans cover);
  each call also becomes a ``(name, start, end, parent)`` record kept in
  memory and written out when the run ends;
* counting wrappers only count calls.  They go on the small functions and
  dunder methods that run millions of times per query (formula hashing,
  ``numeral_value``), where a timed span would swamp what it measures.

The benchmark's own checks run with the tracer paused, so only the work of
the queries is counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("multiset", "syntax", "oracles", "treeproof", "symmetric",
           "semantics", "laws", "theory", "cli")

# public functions that only get a counting wrapper: tiny helpers called
# from inside the hot loops of search and printing
COUNT_ONLY = {"numeral_value", "formula_size", "subformulas", "atoms",
              "metavars", "print_schema", "substitute_partial", "numeral",
              "verdict", "premise_leaf", "axiom_leaf", "int_eval",
              "linear_form", "matrix_eval", "partition_count"}

FORMULA_CLASSES = ("Atom", "Var", "Const", "Neg", "Imp", "Fusion", "Conj", "Disj")

THEORY_OPS = ("theory", "th_zero", "th_contains", "th_add", "th_leq", "th_eq",
              "interderivable")

SPAN_CAP = 200_000

# the oracles whose entails calls are reported, by metric-name key
ORACLES = ("z", "p", "zsym", "ex54", "p_s", "identity", "matrix_T4")


def oracle_key(name: str) -> str:
    """An oracle name as a metric-name component (p^s -> p_s)."""
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []        # open spans: [name, start, child_s]
        self.active = Counter()            # open spans per name
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)   # outermost spans only
        self.outcomes = Counter()          # (name, outcome) -> count
        self.under = Counter()             # (name, parent) for oracle calls
        self.seen: dict[str, set] = defaultdict(set)
        self.repeats = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.paused = 0
        self._undo: list[tuple] = []

    # -- bookkeeping -----------------------------------------------------------

    @contextmanager
    def pause(self):
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1

    def reset_stack(self) -> None:
        """Between queries: drop what a query interrupted by its limit left open."""
        self.stack.clear()
        self.active.clear()
        self.paused = 0

    def _open(self, name: str):
        frame = [name, perf_counter(), 0.0]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame) -> None:
        end = perf_counter()
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        name, start, child = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if self.active[name] <= 0:
            self.busy_s[name] += dur
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, parent[0] if parent else None))
        else:
            self.dropped += 1

    # -- wrapper factories -------------------------------------------------------

    def span(self, name, fn, on_result=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            tr.calls[name] += 1
            frame = tr._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(frame)
            if on_result is not None:
                with tr.pause():
                    on_result(tr, name, result)
            return result
        return wrapper

    def span_generator(self, name, fn):
        """Spans for a generator function: one span per resumption."""
        tr = self

        def drive(gen):
            while True:
                frame = None if tr.paused else tr._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        tr._close(frame)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.paused:
                tr.calls[name] += 1
            return drive(fn(*args, **kwargs))
        return wrapper

    def counter(self, name, fn):
        tr, calls = self, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.paused:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def entails(self, fn):
        """Span wrapper for an oracle's entails, keyed by the oracle's name."""
        tr = self

        @functools.wraps(fn)
        def wrapper(oracle, premises, conclusion):
            if tr.paused:
                return fn(oracle, premises, conclusion)
            key = oracle_key(oracle.name)
            name = "oracles.entails." + key
            tr.calls[name] += 1
            parent = tr.stack[-1][0] if tr.stack else None
            tr.under[("entails", parent)] += 1
            with tr.pause():
                # keyed by the oracle object: a memo can only save repeats
                # on the instance that answered first
                seen = tr.seen[key]
                item = (oracle, premises, conclusion)
                if item in seen:
                    tr.repeats[key] += 1
                else:
                    seen.add(item)
            frame = tr._open(name)
            try:
                return fn(oracle, premises, conclusion)
            finally:
                tr._close(frame)
        return wrapper

    # -- installation ---------------------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, R) -> None:
        """Wrap relcon's public functions and the layer methods in place."""
        # by import path: the package attribute ``theory`` is the function
        mods = {short: importlib.import_module(f"{R.__name__}.{short}")
                for short in MODULES}
        namespaces = [R] + list(mods.values())
        hooks = {"syntax.match": _success, "syntax.unify": _success,
                 "treeproof.search": _success,
                 "symmetric.derive_search": _status,
                 "laws.check_law": _law_result}
        for short, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{fname}"
                if fname in COUNT_ONLY:
                    wrapper = self.counter(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self.span_generator(name, fn)
                else:
                    wrapper = self.span(name, fn, hooks.get(name))
                self._replace_everywhere(namespaces, fn, wrapper)

        ms = mods["multiset"].FMultiset
        for attr, stem in (("__init__", "new"), ("__add__", "add_sub"),
                           ("__sub__", "add_sub"), ("__le__", "le"),
                           ("__hash__", "hash"), ("distinct", "distinct")):
            self._patch_method(ms, attr, self.counter(f"multiset.FMultiset.{stem}",
                                                      ms.__dict__[attr]))
        # iteration is lazy; time the full canonical order as one span
        ordered = ms.__iter__
        eager = self.span("multiset.FMultiset.iter", lambda m: list(ordered(m)))
        self._patch_method(ms, "__iter__", lambda m: iter(eager(m)))

        for cname in FORMULA_CLASSES:
            cls = getattr(mods["syntax"], cname)
            for attr, stem in (("__init__", "new"), ("__hash__", "hash"), ("__str__", "str")):
                self._patch_method(cls, attr, self.counter(f"syntax.formula.{stem}",
                                                           cls.__dict__[attr]))

        for mod in mods.values():
            for cls in list(vars(mod).values()):
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and "entails" in cls.__dict__
                        and hasattr(cls, "symmetric")
                        and cls.__name__ not in ("ConsequenceOracle", "SymmetricOracle")):
                    self._patch_method(cls, "entails", self.entails(cls.__dict__["entails"]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    # -- the per-layer metrics ----------------------------------------------------

    def ratio(self, name: str, outcome: str) -> float:
        calls = self.calls[name]
        return self.outcomes[(name, outcome)] / calls if calls else 0.0

    def metrics(self) -> dict[str, float]:
        c, s, b = self.calls, self.self_s, self.busy_s
        out: dict[str, float] = {}
        for stem in ("iter", "distinct", "new", "add_sub", "le", "hash"):
            out[f"multiset.FMultiset.{stem}.calls"] = c[f"multiset.FMultiset.{stem}"]
        out["multiset.FMultiset.iter.self_s"] = s["multiset.FMultiset.iter"]

        out["syntax.match.calls"] = c["syntax.match"]
        out["syntax.match.self_s"] = s["syntax.match"]
        out["syntax.match.success_ratio"] = self.ratio("syntax.match", "ok")
        out["syntax.unify.calls"] = c["syntax.unify"]
        out["syntax.unify.success_ratio"] = self.ratio("syntax.unify", "ok")
        for fname in ("substitute", "match_into", "parse_formula"):
            out[f"syntax.{fname}.calls"] = c[f"syntax.{fname}"]
            out[f"syntax.{fname}.self_s"] = s[f"syntax.{fname}"]
        for stem in ("hash", "str", "new"):
            out[f"syntax.formula.{stem}.calls"] = c[f"syntax.formula.{stem}"]
        out["syntax.print_formula.calls"] = c["syntax.print_formula"]

        out["treeproof.search.calls"] = c["treeproof.search"]
        out["treeproof.search.busy_s"] = b["treeproof.search"]
        out["treeproof.search.found_ratio"] = self.ratio("treeproof.search", "ok")
        out["treeproof.verify.calls"] = c["treeproof.verify"]
        out["treeproof.verify.self_s"] = s["treeproof.verify"]
        out["treeproof.deduction_transform.self_s"] = s["treeproof.deduction_transform"]
        out["treeproof.cut_compose.self_s"] = s["treeproof.cut_compose"]

        out["symmetric.derive_search.busy_s"] = b["symmetric.derive_search"]
        for status in ("found", "exhausted", "truncated"):
            out[f"symmetric.derive_search.{status}"] = \
                self.outcomes[("symmetric.derive_search", status)]
        sq = "symmetric.symmetrize_query"
        out[f"{sq}.calls"] = c[sq]
        out[f"{sq}.self_s"] = s[sq]
        out[f"{sq}.base_calls_per_query"] = (
            self.under[("entails", sq)] / c[sq] if c[sq] else 0.0)
        out["symmetric.check_derivation.self_s"] = s["symmetric.check_derivation"]
        out["symmetric.extract_tree.self_s"] = s["symmetric.extract_tree"]

        for key in ORACLES:
            name = "oracles.entails." + key
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
            out[f"{name}.repeat_ratio"] = (self.repeats[key] / c[name]
                                           if c[name] else 0.0)
        out["semantics.int_eval.calls"] = c["semantics.int_eval"]
        out["semantics.linear_form.calls"] = c["semantics.linear_form"]
        out["semantics.countermodel_search.calls"] = c["semantics.countermodel_search"]
        out["semantics.countermodel_search.self_s"] = s["semantics.countermodel_search"]

        busy = b["laws.check_law"]
        checked = self.outcomes[("laws.check_law", "checked")]
        out["laws.check_law.calls"] = c["laws.check_law"]
        out["laws.check_law.busy_s"] = busy
        out["laws.instances.checked"] = checked
        out["laws.instances_per_s"] = checked / busy if busy else 0.0
        out["laws.sampled_share"] = (self.outcomes[("laws.check_law", "sampled")]
                                     / checked if checked else 0.0)

        out["theory.quotient_check.busy_s"] = b["theory.quotient_check"]
        out["theory.th_ops.calls"] = sum(c[f"theory.{op}"] for op in THEORY_OPS)
        out["cli.main.calls"] = c["cli.main"]
        out["cli.main.busy_s"] = b["cli.main"]
        return out



def _success(tr, name, result) -> None:
    if result is not None:
        tr.outcomes[(name, "ok")] += 1


def _status(tr, name, result) -> None:
    tr.outcomes[(name, result.status)] += 1


def _law_result(tr, name, result) -> None:
    tr.outcomes[(name, "checked")] += result.checked
    if not result.exhaustive:
        tr.outcomes[(name, "sampled")] += result.checked
