"""Consequence oracles: three-valued decision procedures for entailment.

An asymmetric oracle decides premise-multiset |- formula queries, a symmetric
one decides multiset |- multiset queries.  UNKNOWN is reserved for honestly
bound-limited answers; everything else is exact.  ``all3`` and ``any3`` are
the Kleene AND and OR over such answers.

Oracles may declare a finite theorem basis or a sound decision hook for the
"entails every theorem" test that empty-conclusion symmetrization needs, and
may declare themselves monotone_contractive (Tarskian), which switches the
symmetrization to the componentwise rule appropriate for that case.

Oracles are pure, so an oracle whose queries repeat decorates its own
``entails`` with ``memoised``: each instance keeps a dict from
(premises, conclusion) to the verdict, made on its first query, and decides
each query once.  The table belongs to the instance, so a fresh oracle starts
cold.  AbelianOracle, AbelianSymmetricOracle, Symmetrization,
DerivationOracle, TreeSearchOracle and MonotonicCompanion memoise.
MatrixOracle, SingleAtomThresholdOracle and IdentityOracle decide every query
afresh, and AsymmetricPart hands each query to its base.
"""

from __future__ import annotations

import functools
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


def memoised(entails):
    """Decorate an oracle's own ``entails``: each instance answers each query once."""

    @functools.wraps(entails)
    def memo_entails(self, premises, conclusion):
        try:
            memo = self._memo
        except AttributeError:
            memo = self._memo = {}
        key = (premises, conclusion)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = entails(self, premises, conclusion)
        return hit
    return memo_entails


class ConsequenceOracle:
    """Base for asymmetric oracles: entails(premises, conclusion) -> Verdict."""

    name = "oracle"
    symmetric = False
    monotone_contractive = False
    theorem_basis: Optional[Sequence[Formula]] = None

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


class SymmetricOracle:
    """Base for symmetric oracles: entails(premises, conclusions) -> Verdict."""

    name = "oracle"
    symmetric = True
    monotone_contractive = False

    def entails(self, premises: FMultiset, conclusions: FMultiset) -> Verdict:
        raise NotImplementedError

