"""A law battery for consequence oracles.

The laws are the consecution templates of ``_ASYM_TABLE`` (oracles between
multisets and formulas) and ``_SYM_TABLE`` (oracles between multisets), each
written as the paper states it.  Each law is checked instance-by-instance
over a finite sample domain, exhaustively when the instance count fits the
cap and by seeded sampling above it.  A counterexample is a fully concrete
violating instance; UNKNOWN oracle answers make a check inconclusive rather
than failed, and so does a check on no instances at all.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .multiset import EMPTY, FMultiset, submultisets
from .oracles import (
    FAILS,
    HOLDS,
    UNKNOWN,
    ConsequenceOracle,
    Verdict,
    all3,
    any3,
    memoised,
)
from .syntax import Formula, print_formula, print_multiset


@dataclass
class SampleDomain:
    """A finite formula universe with a multiset size bound.

    Enumeration is canonical (sizes ascending, elements in universe order)
    and reproducible; sampling above the cap draws from the seeded generator.
    """

    formulas: tuple[Formula, ...]
    max_size: int = 3
    seed: int = 0
    exhaustive_cap: int = 100_000
    sample_count: int = 4000

    def multisets(self) -> list[FMultiset]:
        out = []
        for size in range(self.max_size + 1):
            for combo in itertools.combinations_with_replacement(self.formulas, size):
                out.append(FMultiset(combo))
        return out


@dataclass
class LawResult:
    law: str
    status: str  # "passed" | "counterexample" | "inconclusive"
    witness: Optional[dict] = None
    exhaustive: bool = True
    checked: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def witness_str(self) -> str:
        if not self.witness:
            return ""
        return "; ".join(f"{k}={_show_part(v)}" for k, v in self.witness.items())


def _show_part(v) -> str:
    if isinstance(v, FMultiset):
        return print_multiset(v)
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_show_part(x) for x in v) + ")"
    return print_formula(v)


# Each law as the paper states it: its name, its bound variables in the
# order the canonical instance stream nests them, and its statement
# "antecedent and antecedent => conclusion".  A capital letter is a multiset
# and a lowercase letter a formula; "D:T" ranges over multisets of declared
# theorems, "G:N" over nonempty multisets, and "Ds:G" is a family of
# multisets, one per element of G.  A side of a consecution is a "+"-sum of
# multiset variables and bracketed formula lists; a family antecedent
# "Ds |- G" holds pointwise, and a family on a side stands for its sum.

_ASYM_TABLE = (
    ("Reflexivity", "f", "[f] |- f"),
    ("Cut", "G D f g", "G+[g] |- f and D |- g => G+D |- f"),
    ("Monotonicity", "G f D", "G |- f => G+D |- f"),
    ("Contraction", "G g f", "G+[g,g] |- f => G+[g] |- f"),
    ("GeneralizedReflexivity", "G f", "G+[f] |- f"),
    ("RelevantCut", "G:N f Ds:G", "G |- f and Ds |- G => Ds |- f"),
    ("TheoremRemoval", "G D:T f", "G+D |- f => G |- f"),
)

_SYM_TABLE = (
    ("Reflexivity", "G", "G |- G"),
    ("Transitivity", "G D P", "G |- D and D |- P => G |- P"),
    ("Compatibility", "G D P", "G |- D => G+P |- D+P"),
    ("Monotonicity", "G D P", "G |- D => G+P |- D"),
    ("Contraction", "G g D", "G+[g,g] |- D => G+[g] |- D"),
    ("rContraction", "G g D", "G |- D+[g,g] => G |- D+[g]"),
    ("GeneralizedReflexivity", "G D", "G+D |- G"),
    ("TheoremReflexivity", "G", "G |- []"),
    ("MultiCut", "G D P F", "G |- D and D+P |- F => G+P |- F"),
    ("TheoremRemoval", "D P F", "[] |- D and D+P |- F => P |- F"),
)

# the pools a variable can range over; any other kind names the variable
# that a family is indexed by
_POOLS = ("M", "F", "N", "T")

# a query maps the oracle's entails and an instance tuple to a Verdict
_Query = Callable[[Callable, tuple], Verdict]


@dataclass(frozen=True)
class LawSpec:
    name: str
    names: tuple[str, ...]  # the bound variables, in stream order
    kinds: tuple[str, ...]  # per variable: a pool or a family's index
    antecedents: tuple[_Query, ...]
    conclusion: _Query


def _side(text: str, names: list[str], kinds: list[str]) -> Callable[[tuple], object]:
    """A reader of one side of a consecution from the instance tuple."""
    readers = []
    for term in text.split("+"):
        if term.startswith("["):
            at = [names.index(x) for x in term[1:-1].split(",") if x]
            readers.append(
                (lambda t, at=at: FMultiset(map(t.__getitem__, at))) if at
                else (lambda t: EMPTY))
        elif kinds[names.index(term)] not in _POOLS:  # a family, summed
            family = itemgetter(names.index(term))
            readers.append(lambda t: reduce(add, family(t), EMPTY))
        else:
            readers.append(itemgetter(names.index(term)))
    reader = readers[0]
    for term in readers[1:]:
        reader = (lambda a, b: lambda t: a(t) + b(t))(reader, term)
    return reader


def _query(text: str, names: list[str], kinds: list[str]) -> _Query:
    """The query of one consecution "left |- right" of a statement."""
    left, right = (side.strip() for side in text.split("|-"))
    if left in names and kinds[names.index(left)] == right:
        # Ds |- G: each multiset of the family entails its element of G
        family, core = itemgetter(names.index(left)), itemgetter(names.index(right))
        return lambda entails, t: all3(map(entails, family(t), core(t)))
    lhs, rhs = _side(left, names, kinds), _side(right, names, kinds)
    return lambda entails, t: entails(lhs(t), rhs(t))


def _compile(table) -> dict[str, LawSpec]:
    laws = {}
    for name, variables, statement in table:
        names, kinds = [], []
        for var in variables.split():
            var, _, kind = var.partition(":")
            names.append(var)
            kinds.append(kind or ("M" if var[0].isupper() else "F"))
        premises, _, conclusion = statement.rpartition(" => ")
        antecedents = premises.split(" and ") if premises else []
        laws[name] = LawSpec(
            name, tuple(names), tuple(kinds),
            tuple(_query(a, names, kinds) for a in antecedents),
            _query(conclusion, names, kinds))
    return laws


ASYM_LAWS: dict[str, LawSpec] = _compile(_ASYM_TABLE)
SYM_LAWS: dict[str, LawSpec] = _compile(_SYM_TABLE)


def _holds(law: LawSpec, entails, instance: tuple) -> Verdict:
    """Truth value of one instance of a law.

    Antecedents are read left to right: a failing one settles the instance
    (vacuously fine) without touching the conclusion, and an UNKNOWN one
    leaves it UNKNOWN unless the conclusion holds.
    """
    ante = HOLDS
    for query in law.antecedents:
        v = query(entails, instance)
        if v is FAILS:
            return HOLDS
        if v is UNKNOWN:
            ante = UNKNOWN
    out = law.conclusion(entails, instance)
    return out if ante is HOLDS or out is HOLDS else UNKNOWN


def law_names(symmetric: bool) -> list[str]:
    return list((SYM_LAWS if symmetric else ASYM_LAWS).keys())


def _instances(law: LawSpec, oracle, dom: SampleDomain
               ) -> tuple[Iterator[tuple], int, Callable[[random.Random], tuple]]:
    """A law's instances over the domain, with every pool built once.

    Returns the canonical instance stream, its length, and a sampler that
    draws one instance from a seeded generator.
    """
    multisets = dom.multisets()
    pools = {"M": multisets, "F": list(dom.formulas),
             "N": [G for G in multisets if G.size]}
    if "T" in law.kinds:  # an empty basis still has the empty multiset of theorems
        basis = tuple(getattr(oracle, "theorem_basis", None) or ())
        pools["T"] = SampleDomain(basis, dom.max_size).multisets()
    *head, last = law.kinds
    if last in _POOLS:
        fixed = [pools[k] for k in law.kinds]

        def draw(rng: random.Random) -> tuple:
            return tuple(rng.choice(pool) for pool in fixed)
        return itertools.product(*fixed), math.prod(map(len, fixed)), draw
    # the last variable is a family: one multiset per element of an earlier one
    fixed = [pools[k] for k in head]
    at = law.names.index(last)

    def stream() -> Iterator[tuple]:
        for start in itertools.product(*fixed):
            for family in itertools.product(multisets, repeat=start[at].size):
                yield start + (family,)

    def draw_family(rng: random.Random) -> tuple:
        start = tuple(rng.choice(pool) for pool in fixed)
        return start + (tuple(rng.choice(multisets) for _ in range(start[at].size)),)
    count = sum(len(multisets) ** start[at].size for start in itertools.product(*fixed))
    return stream(), count, draw_family


def check_law(oracle, law_name: str, dom: SampleDomain) -> LawResult:
    """Test one law over the domain; returns the first violating instance."""
    registry = SYM_LAWS if getattr(oracle, "symmetric", False) else ASYM_LAWS
    if law_name not in registry:
        raise KeyError(f"no law named {law_name!r} for this oracle kind")
    law = registry[law_name]
    if "T" in law.kinds and getattr(oracle, "theorem_basis", None) is None:
        return LawResult(law.name, "inconclusive", None, True, 0)  # nothing sampled
    stream, count, draw = _instances(law, oracle, dom)
    exhaustive = count <= dom.exhaustive_cap or not count  # nothing to sample
    if not exhaustive:
        rng = random.Random(dom.seed)
        stream = (draw(rng) for _ in range(dom.sample_count))
    checked = 0
    sawunknown = False
    entails = oracle.entails
    for instance in stream:
        checked += 1
        v = _holds(law, entails, instance)
        if v is FAILS:
            witness = dict(zip(law.names, instance))
            return LawResult(law.name, "counterexample", witness, exhaustive, checked)
        if v is UNKNOWN:
            sawunknown = True
    if sawunknown or not checked:
        return LawResult(law.name, "inconclusive", None, exhaustive, checked)
    return LawResult(law.name, "passed", None, exhaustive, checked)


def check_laws(oracle, dom: SampleDomain,
               names: Optional[Sequence[str]] = None) -> dict[str, LawResult]:
    selected = names or law_names(getattr(oracle, "symmetric", False))
    return {n: check_law(oracle, n, dom) for n in selected}


# -- the monotonic companion ------------------------------------------------------


def monotonic_companion(oracle, premises: FMultiset, conclusion) -> Verdict:
    """The least monotone extension: some submultiset of the premises entails.

    The oracle may be of either kind; the conclusion is passed through.
    """
    return any3(oracle.entails(sub, conclusion) for sub in submultisets(premises))


class MonotonicCompanion(ConsequenceOracle):
    """The monotonic companion of an oracle, of the same kind as its base."""

    def __init__(self, base):
        self.base = base
        self.name = f"{base.name}_m"
        self.symmetric = base.symmetric
        self.theorem_basis = getattr(base, "theorem_basis", None)

    @memoised
    def entails(self, premises: FMultiset, conclusion) -> Verdict:
        return monotonic_companion(self.base, premises, conclusion)


# -- classification -----------------------------------------------------------------


# the laws each property of a relation rests on: (asymmetric, symmetric)
_PROPERTY_LAWS = {
    "consequence": (("Reflexivity", "Cut"),
                    ("Reflexivity", "Transitivity", "Compatibility")),
    "monotone": (("Monotonicity",), ("Monotonicity",)),
    "contractive": (("Contraction",), ("Contraction", "rContraction")),
}
_STATUS_VERDICT = {"passed": HOLDS, "counterexample": FAILS, "inconclusive": UNKNOWN}
_ANSWER = {HOLDS: "yes", FAILS: "no", UNKNOWN: "unknown"}


@dataclass
class ClassifyReport:
    oracle_name: str
    symmetric: bool
    results: dict[str, LawResult]
    consistency_errors: list[str] = field(default_factory=list)

    def _verdict(self, prop: str) -> Verdict:
        """Whether the relation has a property ("consequence", "monotone",
        "contractive" or "tarskian", all three): HOLDS when every law it rests
        on passed, FAILS when one has a counterexample, UNKNOWN otherwise."""
        props = _PROPERTY_LAWS if prop == "tarskian" else (prop,)
        names = [n for p in props for n in _PROPERTY_LAWS[p][self.symmetric]]
        return all3(_STATUS_VERDICT[self.results[n].status] if n in self.results
                    else UNKNOWN for n in names)

    @property
    def is_consequence_relation(self) -> bool:
        return self._verdict("consequence") is HOLDS

    @property
    def is_monotone(self) -> bool:
        return self._verdict("monotone") is HOLDS

    @property
    def is_contractive(self) -> bool:
        return self._verdict("contractive") is HOLDS

    @property
    def is_tarskian(self) -> bool:
        return self._verdict("tarskian") is HOLDS

    def summary(self) -> str:
        kind = "SCR" if self.symmetric else "CR"
        return ", ".join(f"{label}: {_ANSWER[self._verdict(prop)]}" for label, prop in (
            (kind, "consequence"), ("monotone", "monotone"),
            ("contractive", "contractive"), ("tarskian", "tarskian")))


# The derived-law network: each entry says the conjunction of the premise
# laws forces the conclusion law.  Used as an internal cross-check.
SYM_IMPLICATIONS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("Reflexivity", "Monotonicity"), "GeneralizedReflexivity"),
    (("GeneralizedReflexivity", "Transitivity"), "Monotonicity"),
    (("TheoremReflexivity", "Compatibility"), "GeneralizedReflexivity"),
    (("MultiCut",), "Transitivity"),
    (("MultiCut",), "TheoremRemoval"),
    (("MultiCut", "Reflexivity"), "Compatibility"),
    (("Transitivity", "Compatibility"), "MultiCut"),
)

ASYM_IMPLICATIONS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("Reflexivity", "Cut", "Monotonicity"), "GeneralizedReflexivity"),
    (("Reflexivity", "Cut", "GeneralizedReflexivity"), "Monotonicity"),
    (("Reflexivity", "Cut"), "RelevantCut"),
    (("Reflexivity", "Cut"), "TheoremRemoval"),
)


def classify(oracle, dom: SampleDomain) -> ClassifyReport:
    """Run the full battery and cross-check the derived-law network."""
    symmetric = bool(getattr(oracle, "symmetric", False))
    results = check_laws(oracle, dom)
    report = ClassifyReport(getattr(oracle, "name", "oracle"), symmetric, results)
    network = SYM_IMPLICATIONS if symmetric else ASYM_IMPLICATIONS
    for premises_names, conclusion_name in network:
        rs = [results[n] for n in premises_names if n in results]
        conc = results.get(conclusion_name)
        if conc is None or len(rs) != len(premises_names):
            continue
        if all(r.passed for r in rs) and conc.status == "counterexample":
            report.consistency_errors.append(
                f"{' & '.join(premises_names)} passed but {conclusion_name} "
                f"failed at {conc.witness_str()}")
    return report
