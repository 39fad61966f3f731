"""Symmetric consecutions: multiset derivations, bounded derivation search,
symmetrization of asymmetric oracles, and proof-tree extraction.

A derivation of D from G in a symmetric system is a sequence of multisets
starting at G in which every step replaces an instantiated rule's left
multiset by its right multiset, in context:

    steps[i] = (steps[i-1] - P) + P'      for a rule instance P |- P'
    with P <= steps[i-1].

Axioms are rules with empty left side, so they may fire in any context.  The
derivation establishes D plainly when D <= last step, and *relevantly* when
the last step equals D: nothing was derived and then dropped.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Mapping, Optional

from .multiset import EMPTY, FMultiset, submultisets
from .oracles import (
    FAILS,
    HOLDS,
    UNKNOWN,
    ConsequenceOracle,
    SymmetricOracle,
    Verdict,
    all3,
    any3,
    memoised,
)
from .syntax import (
    AxiomaticSystem,
    Formula,
    NamedRule,
    Var,
    _rule_step,
    _walk_nodes,
    formula_size,
    match_into,
    parse_multiset,
    print_formula,
    print_multiset,
    subformulas,
    substitute,
)
from .treeproof import (
    AxiomJust,
    PremiseJust,
    ProofTree,
    RuleJust,
    _json_loads,
    _just_to_data,
    _subst_from,
    _walk,
    search,
)


class DerivationVerdict(IntEnum):
    INVALID = 0
    PLAIN = 1
    RELEVANT = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class RuleApp:
    rule: str
    subst: Optional[Mapping[str, Formula]] = None


@dataclass(frozen=True)
class Derivation:
    """A nonempty multiset sequence with one rule application per transition."""

    steps: tuple[FMultiset, ...]
    step_rules: tuple[RuleApp, ...] = ()

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a derivation has at least one step")
        if len(self.step_rules) != len(self.steps) - 1:
            raise ValueError("need exactly one rule application per transition")

    def __str__(self) -> str:
        parts = [print_multiset(self.steps[0])]
        for app, step in zip(self.step_rules, self.steps[1:]):
            parts.append(f"--{app.rule}--> {print_multiset(step)}")
        return " ".join(parts)


# -- checking -------------------------------------------------------------------


def check_derivation(derivation: Derivation, system: AxiomaticSystem,
                     premises: FMultiset, conclusions: FMultiset) -> DerivationVerdict:
    """Validate every transition and classify the derivation.

    PLAIN: starts at the premises, every transition is a legal rule
    application, and the conclusion multiset is contained in the last step.
    RELEVANT: additionally the last step *equals* the conclusion multiset.
    """
    return _replay(derivation, system, premises, conclusions)[0]


def _replay(derivation: Derivation, system: AxiomaticSystem, premises: FMultiset,
            conclusions: FMultiset) -> tuple[DerivationVerdict, list[tuple]]:
    """The derivation's verdict, and each valid step's rule and substitution."""
    steps, uses = derivation.steps, []
    if steps[0] != premises:
        return DerivationVerdict.INVALID, uses
    for i, app in enumerate(derivation.step_rules, start=1):
        try:
            rule = system.get(app.rule)
        except KeyError:
            return DerivationVerdict.INVALID, uses
        sigma = _rule_step(rule.left, rule.right, steps[i - 1], steps[i], app.subst)
        if sigma is None:
            return DerivationVerdict.INVALID, uses
        uses.append((rule, sigma))
    last = steps[-1]
    verdict = (DerivationVerdict.RELEVANT if last == conclusions else
               DerivationVerdict.PLAIN if conclusions <= last else DerivationVerdict.INVALID)
    return verdict, uses


# -- bounded search ----------------------------------------------------------------


@dataclass
class DeriveResult:
    derivation: Optional[Derivation]
    status: str  # "found" | "exhausted" | "truncated"
    pruned_by: frozenset = frozenset()

    @property
    def found(self) -> bool:
        return self.derivation is not None


def derive_search(system: AxiomaticSystem, premises: FMultiset,
                  conclusions: FMultiset, max_steps: int = 12,
                  max_formula_size: int = 12,
                  max_multiset_size: Optional[int] = None,
                  max_states: int = 200_000) -> DeriveResult:
    """Breadth-first search for a relevant derivation of the conclusions.

    States are multisets, deduplicated, explored level by level.  The search
    space is the fragment in which every formula has size at most
    ``max_formula_size``, metavariables introduced by a rule's right side
    (axiom instantiations in particular) range over the subformula closure of
    the endpoints, and intermediate multisets stay within
    ``max_multiset_size``.  Both size caps are checked by arithmetic on sizes
    before a formula or multiset is built, so nothing over a cap is ever
    made.  ``exhausted`` means the whole fragment was explored without
    finding the target: a genuine negative for the fragment; ``pruned_by``
    records which caps actually cut anything off.  ``truncated`` means the
    step or state budget ran out first and decides nothing.
    """
    sym = system.lifted()
    if max_multiset_size is None:
        max_multiset_size = max(premises.size, conclusions.size) + 2

    universe: set[Formula] = set()
    for f in list(premises) + list(conclusions):
        universe |= subformulas(f)
    cands = sorted((f for f in universe if formula_size(f) <= max_formula_size),
                   key=lambda f: (formula_size(f), str(f)))
    plans = [_RightPlan(rule) for rule in sym.rules]

    pruned: set[str] = set()
    visited = {premises}
    parent: dict[FMultiset, tuple[FMultiset, RuleApp]] = {}
    frontier = deque([premises])
    depth = 0
    found = premises == conclusions
    truncated = False
    while frontier and not found and not truncated:
        if depth >= max_steps:
            pruned.add("steps")
            truncated = True
            break
        depth += 1
        for _ in range(len(frontier)):
            state = frontier.popleft()
            for nxt, app in _moves(plans, state, cands, max_formula_size,
                                   max_multiset_size, pruned):
                if nxt in visited:
                    continue
                if len(visited) >= max_states:
                    pruned.add("states")
                    truncated = True
                    break
                visited.add(nxt)
                parent[nxt] = (state, app)
                if nxt == conclusions:
                    found = True
                    break
                frontier.append(nxt)
            if found or truncated:
                break

    if found:
        steps = [conclusions]
        apps: list[RuleApp] = []
        cur = conclusions
        while cur != premises:
            prev, app = parent[cur]
            apps.append(app)
            steps.append(prev)
            cur = prev
        steps.reverse()
        apps.reverse()
        return DeriveResult(Derivation(tuple(steps), tuple(apps)), "found")
    status = "truncated" if truncated else "exhausted"
    return DeriveResult(None, status, frozenset(pruned))


class _RightPlan:
    """A lifted rule's right side, measured once per search: for each
    distinct right schema its size and metavariable occurrence counts, and
    the metavariables of the whole right side.  An instance of a schema has
    the schema's size plus, per metavariable occurrence, the size of the
    bound formula minus one (the metavariable's own node)."""

    __slots__ = ("rule", "shapes", "metavars")

    def __init__(self, rule: NamedRule):
        shapes = []
        for schema in rule.right.distinct():
            occ = Counter(v.name for v in _walk_nodes(schema) if type(v) is Var)
            shapes.append((formula_size(schema), dict(occ)))
        self.rule = rule
        self.shapes = tuple(shapes)
        self.metavars = frozenset(v for _, occ in shapes for v in occ)


def _moves(plans: list[_RightPlan], state: FMultiset, cands: list[Formula],
           max_formula_size: int, max_multiset_size: int,
           pruned: set) -> Iterator[tuple[FMultiset, RuleApp]]:
    """Every rule application to state whose products fit both caps, rules in
    system order, each match's free right metavariables ranging over cands
    (sorted by size) in product order.  An application that does not fit is
    never built: its sizes are worked out first.  ``pruned`` gains a cap's
    name once the enumeration passes an application that the cap cuts off,
    never earlier; the multiset cap counts only applications that fit the
    formula cap."""
    smallest = formula_size(cands[0]) if cands else 0
    extras = [formula_size(c) - smallest for c in cands]
    spread = extras[-1] if cands else 0
    for plan in plans:
        rule = plan.rule
        for sigma, consumed in match_into(rule.left, state):
            free = sorted(plan.metavars - sigma.keys())
            if free and not cands:
                continue
            # per schema: the instance size with every free metavariable at
            # the smallest candidate, and each free metavariable's count
            lows, coeffs = [], []
            for size, occ in plan.shapes:
                for v, n in occ.items():
                    size += n * ((formula_size(sigma[v]) if v in sigma else smallest) - 1)
                lows.append(size)
                coeffs.append([occ.get(v, 0) for v in free])
            fits = max(lows, default=0) <= max_formula_size
            if state.size - consumed.size + rule.right.size > max_multiset_size:
                if fits:
                    pruned.add("multiset-size")
                if any(low + sum(co) * spread > max_formula_size
                       for low, co in zip(lows, coeffs)):
                    pruned.add("formula-size")
                continue
            if not fits:
                pruned.add("formula-size")
                continue
            rest = state - consumed
            for values in _fitting(cands, extras, lows, coeffs, len(free),
                                   max_formula_size, pruned):
                full = dict(sigma)
                full.update(zip(free, values))
                produced = FMultiset(substitute(s, full) for s in rule.right)
                yield rest + produced, RuleApp(rule.name, full)


def _fitting(cands: list[Formula], extras: list[int], bounds: list[int],
             coeffs: list[list[int]], k: int, cap: int, pruned: set,
             values: tuple[Formula, ...] = ()) -> Iterator[tuple[Formula, ...]]:
    """The k-tuples over cands that extend ``values``, in product order, whose
    instances all fit the cap; ``extras[j]`` is cands[j]'s size over the
    smallest candidate's, and ``bounds`` the instance sizes with the
    metavariables not yet in ``values`` at the smallest candidate.  A value
    that is over the cap with the later metavariables at the smallest
    candidate stays over for every later value of its metavariable (cands is
    sorted by size), so the loop breaks there.  The recursion is the
    function itself, not a nested closure, which would leave a reference
    cycle per call."""
    i = len(values)
    if i == k:
        yield values
        return
    for c, extra in zip(cands, extras):
        if extra:
            nb = [b + co[i] * extra for b, co in zip(bounds, coeffs)]
            if max(nb) > cap:
                pruned.add("formula-size")
                break
        else:
            nb = bounds  # bounds fit already
        yield from _fitting(cands, extras, nb, coeffs, k, cap, pruned, values + (c,))


# -- symmetrization ------------------------------------------------------------------


def _ordered_partitions(gamma: FMultiset, n: int) -> Iterator[tuple[FMultiset, ...]]:
    """The n-tuples of multisets summing to gamma, first part outermost."""
    if n == 1:
        yield (gamma,)
        return
    for first in submultisets(gamma):
        for rest in _ordered_partitions(gamma - first, n - 1):
            yield (first,) + rest


def partition_count(gamma: FMultiset, n: int) -> int:
    total = 1
    for x in gamma.support:
        total *= math.comb(gamma.count(x) + n - 1, n - 1)
    return total


def symmetrize_query(oracle: ConsequenceOracle, premises: FMultiset,
                     conclusions: FMultiset, partition_cap: int = 10 ** 6) -> Verdict:
    """Decide the symmetrization of an asymmetric oracle at one consecution.

    Nonempty conclusions: some ordered partition of the premises proves the
    conclusions componentwise.  For oracles declared monotone_contractive the
    componentwise rule uses the whole premise multiset for every conclusion
    (the appropriate definition for that case).  Empty conclusions delegate to
    the oracle's entails-every-theorem test.  Partitions are enumerated first
    part outermost, each part's submultisets smallest first.  Exceeding the
    partition cap is reported as UNKNOWN, never guessed.
    """
    if conclusions.is_empty():
        return oracle.entails_all_theorems(premises)
    targets = list(conclusions)
    if oracle.monotone_contractive:
        return all3(oracle.entails(premises, chi) for chi in targets)
    n = len(targets)
    if partition_count(premises, n) > partition_cap:
        return UNKNOWN
    return any3(all3(oracle.entails(part, chi) for part, chi in zip(parts, targets))
                for parts in _ordered_partitions(premises, n))


class Symmetrization(SymmetricOracle):
    """The symmetrized relation of an asymmetric oracle, as an oracle."""

    def __init__(self, base: ConsequenceOracle):
        self.base = base
        self.name = f"{base.name}^s"
        self.monotone_contractive = base.monotone_contractive

    @memoised
    def entails(self, premises: FMultiset, conclusions: FMultiset) -> Verdict:
        return symmetrize_query(self.base, premises, conclusions)


def asymmetric_query(oracle: SymmetricOracle, premises: FMultiset,
                     conclusion: Formula) -> Verdict:
    """The asymmetric part: premises |- [conclusion]."""
    return oracle.entails(premises, FMultiset([conclusion]))


class AsymmetricPart(ConsequenceOracle):
    """The asymmetric part of a symmetric oracle, as an oracle.

    The entails-every-theorem test needs extra knowledge: either a declared
    finite theorem basis, or ``empty_via_base=True`` for relations whose
    empty-right-side clause *is* that test (symmetrized relations are built
    that way); otherwise it reports UNKNOWN.
    """

    def __init__(self, base: SymmetricOracle,
                 theorem_basis: Optional[list[Formula]] = None,
                 empty_via_base: bool = False):
        self.base = base
        self.name = f"{base.name}^a"
        self.monotone_contractive = base.monotone_contractive
        self.theorem_basis = theorem_basis
        self.empty_via_base = empty_via_base

    def entails(self, premises: FMultiset, conclusion: Formula) -> Verdict:
        return self.base.entails(premises, FMultiset([conclusion]))

    def entails_all_theorems(self, premises: FMultiset) -> Verdict:
        if self.theorem_basis is not None:
            return super().entails_all_theorems(premises)
        if self.empty_via_base:
            return self.base.entails(premises, EMPTY)
        return UNKNOWN


class DerivationOracle(SymmetricOracle):
    """Relevant derivability in an axiomatic system, within search bounds."""

    def __init__(self, system: AxiomaticSystem, max_steps: int = 10):
        self.system = system
        self.max_steps = max_steps
        self.name = f"derive:{system.name}"

    @memoised
    def entails(self, premises: FMultiset, conclusions: FMultiset) -> Verdict:
        result = derive_search(self.system, premises, conclusions, self.max_steps)
        if result.found:
            return HOLDS
        return FAILS if result.status == "exhausted" else UNKNOWN


class TreeSearchOracle(ConsequenceOracle):
    """Relevant tree-provability in a single-conclusion system, within
    ``max_nodes`` proof-tree nodes, the search's only bound.

    Positive answers are exact (the witness verifies); negatives are UNKNOWN,
    because finding no proof within the node bound is not a disproof.
    """

    def __init__(self, system: AxiomaticSystem, max_nodes: int = 9):
        self.system = system
        self.max_nodes = max_nodes
        self.name = f"search:{system.name}"

    @memoised
    def entails(self, premises: FMultiset, conclusion: Formula) -> Verdict:
        tree = search(self.system, premises, conclusion, self.max_nodes)
        return HOLDS if tree is not None else UNKNOWN


# -- tree extraction -------------------------------------------------------------


class ExtractionError(Exception):
    pass


@dataclass
class Extraction:
    premises_used: FMultiset      # premises feeding the extracted tree
    tree: ProofTree               # relevant proof of the chosen formula
    premises_rest: FMultiset      # the remaining premises
    residual: Derivation          # relevant derivation of the rest


def extract_tree(derivation: Derivation, system: AxiomaticSystem,
                 premises: FMultiset, conclusions: FMultiset,
                 phi: Formula) -> Extraction:
    """Split a relevant derivation at one conclusion occurrence.

    Replays the derivation over a forest: for each label, the proof trees
    whose roots stand in the current step, oldest first, starting with one
    premise leaf per premise occurrence.  Each step takes, for every formula
    its rule consumes (in canonical order), the oldest tree of that label,
    and puts the produced formula's tree last among its label: a rule node
    over the taken trees, or an axiom leaf when nothing was consumed.  The
    oldest final tree of ``phi`` is a relevant tree proof of phi from the
    premise leaves under it; deleting its nodes from every step and dropping
    stuttering steps leaves a relevant derivation of the remaining
    conclusions from the remaining premises.
    """
    verdict, uses = _replay(derivation, system, premises, conclusions)
    if verdict is not DerivationVerdict.RELEVANT:
        raise ExtractionError("extraction needs a relevant derivation")
    if phi not in conclusions.support:
        raise ExtractionError(
            f"{print_formula(phi)} is not among the conclusions")
    if system.symmetric:
        raise ExtractionError("extraction expects a single-conclusion system")

    steps = derivation.steps
    forest: dict[Formula, list[ProofTree]] = {}
    for f in steps[0]:
        forest.setdefault(f, []).append(ProofTree(f, PremiseJust()))
    snapshots = [[t for trees in forest.values() for t in trees]]
    for (rule, sigma), app in zip(uses, derivation.step_rules):
        taken = tuple(forest[f].pop(0)
                      for f in FMultiset(substitute(s, sigma) for s in rule.left))
        label = substitute(rule.right, sigma)
        by = RuleJust(rule.name, app.subst) if taken else AxiomJust(rule.name, app.subst)
        forest.setdefault(label, []).append(ProofTree(label, by, taken))
        snapshots.append([t for trees in forest.values() for t in trees])

    tree = forest[phi][0]
    in_tree = {id(node) for _, node in _walk(tree)}

    used = FMultiset(t.formula for t in snapshots[0] if id(t) in in_tree)
    rest = premises - used
    residual_steps = [rest]
    residual_apps: list[RuleApp] = []
    for app, snapshot in zip(derivation.step_rules, snapshots[1:]):
        step = FMultiset(t.formula for t in snapshot if id(t) not in in_tree)
        if step != residual_steps[-1]:
            residual_steps.append(step)
            residual_apps.append(app)
    residual = Derivation(tuple(residual_steps), tuple(residual_apps))
    return Extraction(used, tree, rest, residual)


# -- derivation files ---------------------------------------------------------------


def derivation_to_data(derivation: Derivation) -> list[dict]:
    out = [{"multiset": print_multiset(derivation.steps[0])}]
    for app, step in zip(derivation.step_rules, derivation.steps[1:]):
        out.append({"multiset": print_multiset(step),
                    "by": _just_to_data(RuleJust(app.rule, app.subst))})
    return out


def derivation_from_data(data: list[dict]) -> Derivation:
    if not isinstance(data, list) or not data:
        raise ValueError("a derivation file needs a nonempty list of records")
    for rec in data:
        if not isinstance(rec, dict) or not isinstance(rec.get("multiset"), str):
            raise ValueError(
                'each derivation record must be an object with a "multiset" string')
    steps = [parse_multiset(rec["multiset"]) for rec in data]
    apps: list[RuleApp] = []
    for rec in data[1:]:
        by = rec.get("by")
        if not isinstance(by, dict) or not isinstance(by.get("rule"), str):
            raise ValueError(f"record {rec!r} is missing its rule")
        apps.append(RuleApp(by["rule"], _subst_from(by.get("subst"))))
    if "by" in data[0]:
        raise ValueError("the first record carries no rule")
    return Derivation(tuple(steps), tuple(apps))


def dump_derivation(derivation: Derivation) -> str:
    return json.dumps(derivation_to_data(derivation), indent=2)


def load_derivation(text: str) -> Derivation:
    return derivation_from_data(_json_loads(text))
