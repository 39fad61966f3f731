"""Consequence oracles: three-valued decision procedures for entailment.

An asymmetric oracle decides premise-multiset |- formula queries, a symmetric
one, a ConsequenceOracle marked ``symmetric``, multiset |- multiset queries.
UNKNOWN is reserved for honestly bound-limited answers; everything else is
exact.  ``all3`` and ``any3`` are the Kleene AND and OR over such answers.

Oracles may declare a finite theorem basis or a sound decision hook for the
"entails every theorem" test that empty-conclusion symmetrization needs, and
may declare themselves monotone_contractive (Tarskian), which switches the
symmetrization to the componentwise rule appropriate for that case.

An oracle may also say what its verdicts read of a side, with a method
``image(side)``: a hashable value, or None when it promises nothing for
that side.  The contract: two sides whose images are equal and not None get
the same verdict against any side that has an image, on either side of the
turnstile, and the same ``entails_all_theorems``; a formula's image is that
of its lone multiset.  Images add: if two sides A and A' have equal images,
neither None, and a third side B has an image, then A+B and A'+B have
equal images, neither None (a formula side read as its lone multiset).  The
law battery and ``theory.quotient_check`` read verdicts through one table,
``laws._Table``, that asks such an oracle once per pair of images: in a
full walk only where both sides have one, and in a walk of one value per
image class for every side, sums included.  AbelianOracle's image is its
memoised reading of the side: for z the affine form of its sum, and forms
add; for p whether its least value is negative and for leq that value, and
least values add as a minimum.  A
Symmetrization over a monotone_contractive base with images pairs the
base's image of the side with the set of its members' images, which add as
an OR and a union.  The images are derived on demand, and ``entails`` does
no work for them.

Oracles are pure, so an oracle whose queries repeat memoises a method of
its own with ``memoised``: each instance keeps one table per such method,
made on its first call without raising an exception, and computes each
answer once.  The tables belong to the instance, so a fresh oracle starts
cold.  Symmetrization, DerivationOracle, TreeSearchOracle and
MonotonicCompanion memoise ``entails``, one verdict per (premises,
conclusion).  AbelianOracle, and
with it zsym's AbelianSymmetricOracle, which adds no method of its own,
memoises what its ``entails`` reads instead: each side's affine form or
least value, so the table grows with the distinct sides and not with the
distinct pairs, and per query only the verdicts of queries decided on the
grid.  MatrixOracle, SingleAtomThresholdOracle and IdentityOracle decide
every query afresh, and AsymmetricPart hands each query to its base.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from enum import Enum
from typing import Iterable, Optional, Sequence

from .multiset import FMultiset
from .syntax import Formula


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value

    def __bool__(self) -> bool:
        return self is Verdict.HOLDS


HOLDS = Verdict.HOLDS
FAILS = Verdict.FAILS
UNKNOWN = Verdict.UNKNOWN


def verdict(b: bool) -> Verdict:
    return HOLDS if b else FAILS


def _fold3(stop: Verdict, out: Verdict, values: Iterable[Verdict]) -> Verdict:
    for v in values:
        if v is stop:
            return stop
        if v is UNKNOWN:
            out = UNKNOWN
    return out


# Kleene AND and OR, read left to right: each stops at its absorbing verdict
# (FAILS for AND, HOLDS for OR) and reads on past UNKNOWN, which it answers
# if nothing absorbing follows.
all3 = functools.partial(_fold3, FAILS, HOLDS)
any3 = functools.partial(_fold3, HOLDS, FAILS)


_MISSING = object()  # a memo's miss: None is an answer a method may give


def memoised(method):
    """Decorate a ConsequenceOracle's method: each instance computes each
    answer once.

    An instance keeps one table per memoised method, in its dict ``_memo``
    under the method's name, keyed by the lone argument itself or else by
    the tuple of arguments.  ``_memo`` reads as the class's None until the
    instance's first memoised call makes it, a defaultdict that makes each
    table on its first read: no call raises and catches an exception, and
    an oracle made but never asked makes no tables."""
    name = method.__name__

    # a lone argument is its own key, with no tuple packed per call: the
    # integer oracles' per-side tables are read twice per query
    if method.__code__.co_argcount == 2:  # self and one argument
        @functools.wraps(method)
        def memo_method(self, key):
            memo = self._memo
            if memo is None:
                memo = self._memo = defaultdict(dict)
            memo = memo[name]
            value = memo.get(key, _MISSING)
            if value is _MISSING:
                value = memo[key] = method(self, key)
            return value
    else:
        @functools.wraps(method)
        def memo_method(self, *key):
            memo = self._memo
            if memo is None:
                memo = self._memo = defaultdict(dict)
            memo = memo[name]
            value = memo.get(key, _MISSING)
            if value is _MISSING:
                value = memo[key] = method(self, *key)
            return value
    return memo_method


class ConsequenceOracle:
    """Base for asymmetric oracles: entails(premises, conclusion) -> Verdict."""

    name = "oracle"
    symmetric = False
    monotone_contractive = False
    theorem_basis: Optional[Sequence[Formula]] = None
    _memo: Optional[defaultdict] = None  # the memoised methods' tables, once one is called

    def entails(self, premises: FMultiset, conclusion: Formula) -> Verdict:
        raise NotImplementedError

    def entails_all_theorems(self, premises: FMultiset) -> Verdict:
        """Decide 'premises entail every theorem'; UNKNOWN when undecided.

        The default folds over a declared finite theorem basis and is exact
        only relative to that declaration.
        """
        if self.theorem_basis is None:
            return UNKNOWN
        return all3(self.entails(premises, t) for t in self.theorem_basis)


class SymmetricOracle(ConsequenceOracle):
    """Base for symmetric oracles: entails(premises, conclusions) -> Verdict,
    with a multiset of conclusions."""

    symmetric = True
