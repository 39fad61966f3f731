import inspect
import itertools
import sys

import pytest

from relcon import FAILS, HOLDS, UNKNOWN, parse_formula, parse_multiset
from relcon.oracles import (
    ConsequenceOracle,
    SymmetricOracle,
    all3,
    any3,
    memoised,
)
import relcon.laws
import relcon.oracles
import relcon.semantics
import relcon.symmetric

VERDICTS = (HOLDS, FAILS, UNKNOWN)
ms = parse_multiset


def _and(x, y):
    if FAILS in (x, y):
        return FAILS
    return UNKNOWN if UNKNOWN in (x, y) else HOLDS


def _or(x, y):
    if HOLDS in (x, y):
        return HOLDS
    return UNKNOWN if UNKNOWN in (x, y) else FAILS


class _Reader:
    """An iterator over verdicts that records how many it handed out."""

    def __init__(self, values):
        self.values = list(values)
        self.read = 0

    def __iter__(self):
        for v in self.values:
            self.read += 1
            yield v


# -- the Kleene folds ------------------------------------------------------------


def test_fold_units():
    assert all3([]) is HOLDS
    assert any3([]) is FAILS


@pytest.mark.parametrize("x, y", list(itertools.product(VERDICTS, repeat=2)))
def test_fold_truth_tables(x, y):
    assert all3([x, y]) is _and(x, y)
    assert any3([x, y]) is _or(x, y)
    assert all3([x]) is x and any3([x]) is x


def test_all3_reads_past_unknown_and_stops_at_fails():
    reader = _Reader([UNKNOWN, FAILS])
    assert all3(reader) is FAILS
    assert reader.read == 2
    reader = _Reader([HOLDS, FAILS, UNKNOWN, HOLDS])
    assert all3(reader) is FAILS
    assert reader.read == 2


def test_any3_reads_past_unknown_and_stops_at_holds():
    reader = _Reader([UNKNOWN, HOLDS])
    assert any3(reader) is HOLDS
    assert reader.read == 2
    reader = _Reader([FAILS, HOLDS, UNKNOWN, FAILS])
    assert any3(reader) is HOLDS
    assert reader.read == 2


# -- the memo ------------------------------------------------------------------------


class _Counting(ConsequenceOracle):
    name = "counting"

    def __init__(self):
        self.decisions = 0

    @memoised
    def entails(self, premises, conclusion):
        self.decisions += 1
        return HOLDS if conclusion in premises.support else FAILS


def test_memoised_repeat_skips_the_decision():
    o = _Counting()
    p, q = parse_formula("p"), parse_formula("q")
    assert o.entails(ms("[p]"), p) is HOLDS
    assert o.entails(ms("[p]"), p) is HOLDS
    assert o.decisions == 1
    assert o.entails(ms("[p]"), q) is FAILS
    assert o.decisions == 2


def test_memoised_tables_are_per_instance():
    first, second = _Counting(), _Counting()
    p = parse_formula("p")
    first.entails(ms("[p]"), p)
    second.entails(ms("[p]"), p)
    assert (first.decisions, second.decisions) == (1, 1)
    assert first._memo is not second._memo


def test_a_fresh_oracles_first_memoised_calls_raise_nothing():
    # the memo makes its tables without raising and catching an exception,
    # which would cost every fresh oracle more than the lookups it saves
    raised = []

    def trace(frame, event, arg):
        if event == "exception":
            raised.append(arg[0])
        return trace
    counting, z = _Counting(), relcon.semantics.AbelianOracle("z")
    premises, p = ms("[p, q]"), parse_formula("p")
    assert counting._memo is None and z._memo is None
    outer = sys.gettrace()  # a coverage tracer, say, runs on afterwards
    sys.settrace(trace)
    try:
        counting.entails(premises, p)
        z.entails(premises, p)
    finally:
        sys.settrace(outer)
    assert raised == []
    assert set(counting._memo) == {"entails"} and set(z._memo) == {"_side"}


def _oracle_classes():
    seen = set()
    for module in (relcon.oracles, relcon.semantics, relcon.symmetric, relcon.laws):
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and issubclass(cls, (ConsequenceOracle, SymmetricOracle))):
                seen.add(cls)
    return seen


def test_memoised_oracles_define_their_own_entails():
    # the memo wraps methods of each class's own: entails, or the per-side
    # and per-query tables that the integer oracles' entails reads, so a
    # per-class tracer or profiler hook on entails still sees every query
    memoising = {cls.__name__: {name for name, fn in vars(cls).items()
                                if hasattr(fn, "__wrapped__")}
                 for cls in _oracle_classes()}
    memoising = {name: methods for name, methods in memoising.items() if methods}
    assert memoising == {"AbelianOracle": {"_side", "_grid"},
                         **dict.fromkeys(["Symmetrization", "DerivationOracle",
                                          "TreeSearchOracle", "MonotonicCompanion"],
                                         {"entails"})}
    for cls in _oracle_classes():
        if cls.__name__ in memoising:
            assert "entails" in cls.__dict__, cls
    # zsym is z between multisets: it reads AbelianOracle's entails and tables
    zsym_class = relcon.semantics.AbelianSymmetricOracle
    assert not {"entails", "_side", "_grid"} & zsym_class.__dict__.keys()
    zsym = zsym_class()
    assert isinstance(zsym, SymmetricOracle) and zsym.symmetric and zsym.name == "zsym"


def test_only_holds_is_true():
    assert [bool(v) for v in VERDICTS] == [True, False, False]


def test_an_oracle_that_defines_no_entails_raises_on_a_query():
    class Bare(ConsequenceOracle):
        name = "bare"

    with pytest.raises(NotImplementedError):
        Bare().entails(ms("[p]"), parse_formula("p"))
