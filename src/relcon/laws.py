"""A law battery for consequence oracles.

The laws are the consecution templates of ``_ASYM_TABLE`` (oracles between
multisets and formulas) and ``_SYM_TABLE`` (oracles between multisets), each
written as the paper states it.  Each law is checked instance-by-instance
over a finite sample domain, exhaustively when the instance count fits the
cap and by seeded sampling above it.  A counterexample is a fully concrete
violating instance; UNKNOWN oracle answers make a check inconclusive rather
than failed, and so does a check on no instances at all.

How a check runs:

* **Plans, once, at import.**  ``_compile`` turns each statement into a
  ``LawSpec`` that holds its whole plan as data: each side that is not a
  lone variable gets a slot of its own, and each variable level lists the
  sides it computes and the antecedents it tests, each as the item getter
  of the slots it reads.
* **Pools and tables, per check.**  ``_Check`` builds only these: each pool
  once, interning every value it meets into one list, so an instance is a
  list of ints; one sum table per side shape, keyed by operand indices; and
  one verdict table, keyed by the sides' indices.  Each table is filled on
  first use, so the oracle sees each distinct query once per check, through
  its own memo.  Nothing the check holds refers back to it.
* **Pushdown.**  The exhaustive instances are a loop nest in the canonical
  order, and each antecedent is tested (and each side computed) at the
  shallowest level that binds it (Selinger et al., *Access Path Selection*,
  1979).  A FAILS antecedent settles its whole subtree, whose instances
  count as checked by arithmetic; an UNKNOWN one is carried down to the
  leaf.  Sampling walks the same nest, one drawn instance at a time, with
  the draws taken over index lists as long as the pools.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter
from typing import NamedTuple, Optional, Sequence

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


class LawSpec(NamedTuple):
    """A law compiled to a plan over instance slots.

    An instance holds one slot per variable, in stream order, then one per
    side that is not a lone variable.  Each level of the plan (one per
    variable) lists the sides computed before its tests, the tests in
    statement order, and the sides computed after them.  A side is ``(slot,
    key, shape, terms)``: ``key`` reads its operands' slots, ``shape``
    numbers its sum table, and each term is a variable's position (a family
    is summed) or a tuple of positions (a bracket list).  A test, like the
    conclusion, is the key of its two sides' slots; a pointwise "Ds |- G"
    reads the family's and G's.  A side "[]" has no step: its slot keeps the
    empty multiset's index, 0, from the start.
    """

    name: str
    names: tuple[str, ...]  # the bound variables, in stream order
    kinds: tuple[str, ...]  # per variable: a pool or a family's index
    slots: int  # the length of an instance
    shapes: int  # the number of sum tables
    levels: tuple[tuple[tuple, tuple, tuple], ...]  # per variable: early, tests, late
    conclusion: itemgetter


def _positions(terms: tuple) -> tuple[int, ...]:
    """The variable positions a side reads, in term order."""
    return tuple(p for t in terms for p in (t if isinstance(t, tuple) else (t,)))


def _compile(table) -> dict[str, LawSpec]:
    laws = {}
    for name, variables, statement in table:
        names, kinds = [], []
        for var in variables.split():
            var, _, kind = var.partition(":")
            names.append(var)
            kinds.append(kind or ("M" if var[0].isupper() else "F"))
        n = len(names)
        sides: list[tuple] = []  # the sides past the variables, in slot order

        def slot(text: str) -> int:
            """A lone variable's position, or the slot of a side past them."""
            terms = tuple(tuple(names.index(x) for x in term[1:-1].split(",") if x)
                          if term.startswith("[") else names.index(term)
                          for term in text.split("+"))
            if len(terms) == 1 and type(terms[0]) is int and kinds[terms[0]] in _POOLS:
                return terms[0]
            if terms not in sides:
                sides.append(terms)
            return n + sides.index(terms)

        def consecution(text: str) -> tuple[int, int]:
            left, right = (side.strip() for side in text.split("|-"))
            if left in names and kinds[names.index(left)] == right:  # Ds |- G
                return names.index(left), names.index(right)
            return slot(left), slot(right)

        def level(*slots: int) -> int:
            """The deepest variable position the slots read."""
            return max((p for s in slots
                        for p in (_positions(sides[s - n]) if s >= n else (s,))), default=0)

        premises, _, conclusion = statement.rpartition(" => ")
        tests = [consecution(c) for c in premises.split(" and ")] if premises else []
        last = consecution(conclusion)
        early = {s for q in tests for s in q if s >= n and level(s) == level(*q)}
        plan: list[tuple[list, list, list]] = [([], [], []) for _ in range(n)]
        shapes: list[tuple] = []
        for at, terms in enumerate(sides, n):
            read = _positions(terms)
            if not read:
                continue
            shape = tuple(len(t) if isinstance(t, tuple) else "v" if kinds[t] in _POOLS
                          else "s" for t in terms)  # bracket lengths, variables, families
            if shape not in shapes:
                shapes.append(shape)
            step = (at, itemgetter(*read), shapes.index(shape), terms)
            plan[max(read)][0 if at in early else 2].append(step)
        for q in tests:
            plan[level(*q)][1].append(itemgetter(*q))
        laws[name] = LawSpec(name, tuple(names), tuple(kinds), n + len(sides), len(shapes),
                             tuple(tuple(map(tuple, steps)) for steps in plan),
                             itemgetter(*last))
    return laws


ASYM_LAWS: dict[str, LawSpec] = _compile(_ASYM_TABLE)
SYM_LAWS: dict[str, LawSpec] = _compile(_SYM_TABLE)


def law_names(symmetric: bool) -> list[str]:
    return list((SYM_LAWS if symmetric else ASYM_LAWS).keys())


class _Check:
    """One law over one domain, on interned values.

    Every value the check meets (pool elements, sums, bracket lists) is
    interned once into ``values``, so an instance is a list of ints: one
    index per variable (a tuple of them for a family), then one per side
    that is not a lone variable.  The instances are the canonical loop nest,
    one level per variable, and each level runs its steps of the law's plan.
    Sums are looked up by their operands' indices and verdicts by their
    sides', each table filled on first use, so the oracle sees each distinct
    query once, through its own memo.  The check holds only its pools and
    tables, none of which refers back to it.
    """

    def __init__(self, law: LawSpec, oracle, dom: SampleDomain):
        self.law, self.dom, self.oracle = law, dom, oracle
        self.values: list = [EMPTY]  # index 0, the value of every side "[]"
        self.index: dict = {EMPTY: 0}  # value -> its index in values
        kinds, n = law.kinds, len(law.kinds)

        # the pools, each built once, as index lists; a family, always last,
        # has one multiset per element of the multiset at position ``at``
        self.multisets = [self.intern(m) for m in dom.multisets()]
        pools = {"M": self.multisets, "F": [self.intern(f) for f in dom.formulas],
                 "N": [i for i in self.multisets if self.values[i]]}
        if "T" in kinds:  # an empty basis still has the empty multiset of theorems
            basis = tuple(oracle.theorem_basis)
            pools["T"] = [self.intern(m)
                          for m in SampleDomain(basis, dom.max_size).multisets()]
        self.family = kinds[-1] not in _POOLS
        self.fixed = [pools[k] for k in kinds[:n - self.family]]
        self.at = law.names.index(kinds[-1]) if self.family else n
        self.sums: list[dict] = [{} for _ in range(law.shapes)]  # operands -> sum
        # (left, right) indices -> Verdict; a family's key is (its indices, G)
        self.verdicts: dict = {}

    def intern(self, value) -> int:
        i = self.index.get(value)
        if i is None:
            i = self.index[value] = len(self.values)
            self.values.append(value)
        return i

    def place(self, steps: tuple) -> None:
        """Compute sides into the instance, each through its shape's table."""
        inst, values, kinds = self.inst, self.values, self.law.kinds
        for at, key, shape, terms in steps:
            x = key(inst)
            table = self.sums[shape]
            i = table.get(x)
            if i is None:
                parts = [FMultiset([values[inst[p]] for p in t]) if type(t) is tuple
                         else values[inst[t]] if kinds[t] in _POOLS
                         else reduce(add, map(values.__getitem__, inst[t]), EMPTY)
                         for t in terms]
                i = table[x] = self.intern(reduce(add, parts, EMPTY))
            inst[at] = i

    def ask(self, key: tuple) -> Verdict:
        """The verdict on a pair of indices; a family's holds when each of
        its multisets entails its element of G."""
        v = self.verdicts.get(key)
        if v is None:
            left, right = key
            if type(left) is tuple:
                v = all3(map(self.ask, zip(left, map(self.intern, self.values[right]))))
            else:
                v = self.oracle.entails(self.values[left], self.values[right])
            self.verdicts[key] = v
        return v

    # -- the loop nest --------------------------------------------------------------

    def run(self) -> LawResult:
        law, dom, n = self.law, self.dom, len(self.law.kinds)
        sizes = [len(pool) for pool in self.fixed]
        if self.family:  # G's choices, each weighed by its families
            m = len(self.multisets)
            sizes[self.at] = sum(m ** self.values[g].size for g in self.fixed[self.at])
        count = math.prod(sizes)
        exhaustive = count <= dom.exhaustive_cap or not count  # nothing to sample
        # per level, the instances a FAILS there skips: one per draw when
        # sampling; None from G's level to the family's, where G's size
        # decides it
        self.tails = [math.prod(sizes[k + 1:]) for k in range(n)]
        skips = ([None if self.at <= k < len(self.fixed) else self.tails[k] for k in range(n)]
                 if exhaustive else [1] * n)
        pools = self.fixed + [None] * self.family  # the family's, per choice of G
        self.levels = list(zip(pools, law.levels, skips))
        self.inst = [0] * law.slots
        self.checked, self.sawunknown, self.drawn = 0, False, None
        if exhaustive:
            found = self.walk(0, False)
        else:
            # one instance per draw, drawn whole before any test, so the draws
            # follow the pools whatever the verdicts
            rng, found = random.Random(dom.seed), False
            for _ in range(dom.sample_count):
                self.drawn = [rng.choice(pool) for pool in self.fixed]
                if self.family:
                    size = self.values[self.drawn[self.at]].size
                    self.drawn.append(tuple(rng.choice(self.multisets) for _ in range(size)))
                if self.walk(0, False):
                    found = True
                    break
        if found:
            get = self.values.__getitem__
            witness = {name: get(i) if kind in _POOLS else tuple(map(get, i))
                       for name, kind, i in zip(law.names, law.kinds, self.inst)}
            return LawResult(law.name, "counterexample", witness, exhaustive, self.checked)
        status = "inconclusive" if self.sawunknown or not self.checked else "passed"
        return LawResult(law.name, status, None, exhaustive, self.checked)

    def below(self, k: int) -> int:
        """The instances below the current choice at level k, which binds
        the family's size."""
        return self.tails[k] * len(self.multisets) ** self.values[self.inst[self.at]].size

    def walk(self, k: int, unknown: bool) -> bool:
        """Run the instances below level k; True at the first violating one.

        A FAILS antecedent settles its whole subtree (vacuously fine), and an
        UNKNOWN one is carried down: it leaves an instance UNKNOWN unless the
        conclusion holds.
        """
        inst, get = self.inst, self.verdicts.get
        pool, (early, tests, late), skip = self.levels[k]
        if self.drawn:
            pool = (self.drawn[k],)
        elif pool is None:  # the family: one multiset per element of G
            pool = itertools.product(self.multisets, repeat=self.values[inst[self.at]].size)
        leaf, conclusion = k == len(self.levels) - 1, self.law.conclusion
        checked, found = 0, False
        for i in pool:
            inst[k] = i
            if early:
                self.place(early)
            u = unknown
            for key in tests:
                x = key(inst)
                v = get(x)
                if v is None:
                    v = self.ask(x)
                if v is FAILS:
                    checked += self.below(k) if skip is None else skip
                    break
                if v is UNKNOWN:
                    u = True
            else:
                if late:
                    self.place(late)
                if not leaf:
                    if self.walk(k + 1, u):
                        found = True
                        break
                    continue
                checked += 1
                x = conclusion(inst)
                v = get(x)
                if v is None:
                    v = self.ask(x)
                if v is FAILS and not u:
                    found = True
                    break
                if v is not HOLDS:
                    self.sawunknown = True
        self.checked += checked
        return found


def check_law(oracle, law_name: str, dom: SampleDomain) -> LawResult:
    """Test one law over the domain; returns the first violating instance."""
    registry = SYM_LAWS if getattr(oracle, "symmetric", False) else ASYM_LAWS
    if law_name not in registry:
        raise KeyError(f"no law named {law_name!r} for this oracle kind")
    law = registry[law_name]
    if "T" in law.kinds and getattr(oracle, "theorem_basis", None) is None:
        return LawResult(law.name, "inconclusive", None, True, 0)  # nothing sampled
    return _Check(law, oracle, dom).run()


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
