"""A law battery for consequence oracles.

Asymmetric laws (oracle between multisets and formulas):

    Reflexivity              [f] |- f
    Cut                      G+[g] |- f  and  D |- g   =>   G+D |- f
    Monotonicity             G |- f   =>   G+D |- f
    Contraction              G+[g,g] |- f   =>   G+[g] |- f
    GeneralizedReflexivity   G+[f] |- f
    RelevantCut              [c1..cn] |- f and Di |- ci  =>  D1+..+Dn |- f
    TheoremRemoval           G+D |- f  =>  G |- f   (D a multiset of theorems)

Symmetric laws (oracle between multisets):

    Reflexivity              G |- G
    Transitivity             G |- D and D |- P   =>   G |- P
    Compatibility            G |- D   =>   G+P |- D+P
    Monotonicity             G |- D   =>   G+P |- D
    Contraction              G+[g,g] |- D   =>   G+[g] |- D
    rContraction             G |- D+[g,g]   =>   G |- D+[g]
    GeneralizedReflexivity   G+D |- G
    TheoremReflexivity       G |- []
    MultiCut                 G |- D and D+P |- F   =>   G+P |- F
    TheoremRemoval           [] |- D and D+P |- F   =>   P |- F

Each law is checked instance-by-instance over a finite sample domain,
exhaustively when the instance count fits the cap and by seeded sampling
above it.  A counterexample is a fully concrete violating instance; UNKNOWN
oracle answers make a check inconclusive rather than failed, and so does a
check on no instances at all.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from types import FunctionType
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


# A law is a quantifier prefix plus a predicate mapping the bound values and
# the oracle to HOLDS / FAILS / UNKNOWN.  Each prefix letter names the pool of
# one bound variable: "M" multisets, "F" formulas, "T" multisets of the
# oracle's declared theorems.  "NFD" is RelevantCut's dependent prefix: a
# nonempty multiset, a formula, and one multiset per element of the first.


@dataclass(frozen=True)
class LawSpec:
    name: str
    symmetric: bool
    prefix: str  # e.g. "MMFF": one letter per bound variable
    names: tuple[str, ...]
    predicate: Callable


def _law(registry, name, symmetric, prefix, names):
    def wrap(fn):
        registry[name] = LawSpec(name, symmetric, prefix, tuple(names), fn)
        return fn
    return wrap


ASYM_LAWS: dict[str, LawSpec] = {}
SYM_LAWS: dict[str, LawSpec] = {}


# calls a thunk from C, with no generator frame around it: _implies runs
# once per law instance, and a generator there costs several percent
_force = FunctionType.__call__


def _implies(*antecedents, conclusion) -> Verdict:
    """Truth value of an instance of a conditional law.

    Antecedents are thunks evaluated left to right; a failing antecedent
    settles the instance without touching the conclusion.
    """
    ante = all3(map(_force, antecedents))
    if ante is FAILS:
        return HOLDS  # antecedent fails, instance vacuously fine
    out = conclusion()
    return out if ante is HOLDS or out is HOLDS else UNKNOWN


@_law(ASYM_LAWS, "Reflexivity", False, "F", ("f",))
def _refl(o, f):
    return o.entails(FMultiset([f]), f)


@_law(ASYM_LAWS, "Cut", False, "MMFF", ("G", "D", "f", "g"))
def _cut(o, G, D, f, g):
    return _implies(lambda: o.entails(G + FMultiset([g]), f),
                    lambda: o.entails(D, g),
                    conclusion=lambda: o.entails(G + D, f))


@_law(ASYM_LAWS, "Monotonicity", False, "MFM", ("G", "f", "D"))
def _mono(o, G, f, D):
    return _implies(lambda: o.entails(G, f),
                    conclusion=lambda: o.entails(G + D, f))


@_law(ASYM_LAWS, "Contraction", False, "MFF", ("G", "g", "f"))
def _contr(o, G, g, f):
    return _implies(lambda: o.entails(G + FMultiset([g, g]), f),
                    conclusion=lambda: o.entails(G + FMultiset([g]), f))


@_law(ASYM_LAWS, "GeneralizedReflexivity", False, "MF", ("G", "f"))
def _genrefl(o, G, f):
    return o.entails(G + FMultiset([f]), f)


@_law(ASYM_LAWS, "RelevantCut", False, "NFD", ("G", "f", "Ds"))
def _relcut(o, G, f, Ds):
    # G = [c1..cn] nonempty, Ds = one multiset per ci (in canonical order)
    parts = list(G)
    ants = [lambda: o.entails(G, f)]
    total = EMPTY
    for Di, ci in zip(Ds, parts):
        ants.append(lambda Di=Di, ci=ci: o.entails(Di, ci))
        total = total + Di
    return _implies(*ants, conclusion=lambda total=total: o.entails(total, f))


@_law(ASYM_LAWS, "TheoremRemoval", False, "MTF", ("G", "D", "f"))
def _thremoval(o, G, D, f):
    # D ranges over multisets drawn from the declared theorem basis
    return _implies(lambda: o.entails(G + D, f),
                    conclusion=lambda: o.entails(G, f))


@_law(SYM_LAWS, "Reflexivity", True, "M", ("G",))
def _srefl(o, G):
    return o.entails(G, G)


@_law(SYM_LAWS, "Transitivity", True, "MMM", ("G", "D", "P"))
def _strans(o, G, D, P):
    return _implies(lambda: o.entails(G, D), lambda: o.entails(D, P),
                    conclusion=lambda: o.entails(G, P))


@_law(SYM_LAWS, "Compatibility", True, "MMM", ("G", "D", "P"))
def _scompat(o, G, D, P):
    return _implies(lambda: o.entails(G, D),
                    conclusion=lambda: o.entails(G + P, D + P))


@_law(SYM_LAWS, "Monotonicity", True, "MMM", ("G", "D", "P"))
def _smono(o, G, D, P):
    return _implies(lambda: o.entails(G, D),
                    conclusion=lambda: o.entails(G + P, D))


@_law(SYM_LAWS, "Contraction", True, "MFM", ("G", "g", "D"))
def _scontr(o, G, g, D):
    return _implies(lambda: o.entails(G + FMultiset([g, g]), D),
                    conclusion=lambda: o.entails(G + FMultiset([g]), D))


@_law(SYM_LAWS, "rContraction", True, "MFM", ("G", "g", "D"))
def _srcontr(o, G, g, D):
    return _implies(lambda: o.entails(G, D + FMultiset([g, g])),
                    conclusion=lambda: o.entails(G, D + FMultiset([g])))


@_law(SYM_LAWS, "GeneralizedReflexivity", True, "MM", ("G", "D"))
def _sgenrefl(o, G, D):
    return o.entails(G + D, G)


@_law(SYM_LAWS, "TheoremReflexivity", True, "M", ("G",))
def _sthrefl(o, G):
    return o.entails(G, EMPTY)


@_law(SYM_LAWS, "MultiCut", True, "MMMM", ("G", "D", "P", "F"))
def _smulticut(o, G, D, P, F):
    return _implies(lambda: o.entails(G, D), lambda: o.entails(D + P, F),
                    conclusion=lambda: o.entails(G + P, F))


@_law(SYM_LAWS, "TheoremRemoval", True, "MMM", ("D", "P", "F"))
def _sthremoval(o, D, P, F):
    return _implies(lambda: o.entails(EMPTY, D),
                    lambda: o.entails(D + P, F),
                    conclusion=lambda: o.entails(P, F))


def law_names(symmetric: bool) -> list[str]:
    return list((SYM_LAWS if symmetric else ASYM_LAWS).keys())


def _instances(law: LawSpec, oracle, dom: SampleDomain
               ) -> tuple[Iterator[tuple], int, Callable[[random.Random], tuple]]:
    """A law's instances over the domain, with every pool built once.

    Returns the canonical instance stream, its length, and a sampler that
    draws one instance from a seeded generator.
    """
    multisets = dom.multisets()
    formulas = list(dom.formulas)
    if law.prefix == "NFD":
        cores = [G for G in multisets if G.size]

        def stream() -> Iterator[tuple]:
            for G in cores:
                for f in formulas:
                    for Ds in itertools.product(multisets, repeat=G.size):
                        yield (G, f, Ds)

        def draw(rng: random.Random) -> tuple:
            G = rng.choice(cores)
            f = rng.choice(formulas)
            return (G, f, tuple(rng.choice(multisets) for _ in range(G.size)))
        count = sum(len(formulas) * len(multisets) ** G.size for G in cores)
        return stream(), count, draw
    pools = []
    for c in law.prefix:
        if c == "M":
            pools.append(multisets)
        elif c == "F":
            pools.append(formulas)
        else:  # "T"; an empty basis still has the empty multiset of theorems
            basis = tuple(getattr(oracle, "theorem_basis", None) or ())
            pools.append(SampleDomain(basis, dom.max_size).multisets())
    count = 1
    for pool in pools:
        count *= len(pool)

    def draw(rng: random.Random) -> tuple:
        return tuple(rng.choice(pool) for pool in pools)
    return itertools.product(*pools), count, draw


def check_law(oracle, law_name: str, dom: SampleDomain) -> LawResult:
    """Test one law over the domain; returns the first violating instance."""
    registry = SYM_LAWS if getattr(oracle, "symmetric", False) else ASYM_LAWS
    if law_name not in registry:
        raise KeyError(f"no law named {law_name!r} for this oracle kind")
    law = registry[law_name]
    if (law.name == "TheoremRemoval" and not law.symmetric
            and getattr(oracle, "theorem_basis", None) is None):
        return LawResult(law.name, "inconclusive", None, True, 0)  # nothing sampled
    stream, count, draw = _instances(law, oracle, dom)
    exhaustive = count <= dom.exhaustive_cap or not count  # nothing to sample
    if not exhaustive:
        rng = random.Random(dom.seed)
        stream = (draw(rng) for _ in range(dom.sample_count))
    checked = 0
    sawunknown = False
    for instance in stream:
        checked += 1
        v = law.predicate(oracle, *instance)
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
