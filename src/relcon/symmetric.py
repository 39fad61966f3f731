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
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional

from .multiset import EMPTY, FMultiset, _default_key, submultisets
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
    _lift,
    _rule_step,
    _walk_nodes,
    formula_size,
    match,
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


RuleApp = RuleJust  # a derivation step names its rule as a proof node does


@dataclass(frozen=True)
class Derivation:
    """A nonempty multiset sequence with one rule application per transition."""

    steps: tuple[FMultiset, ...]
    step_rules: tuple[RuleJust, ...] = ()

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a derivation has at least one step")
        if len(self.step_rules) != len(self.steps) - 1:
            raise ValueError("need exactly one rule application per transition")

    def __str__(self) -> str:
        parts = [print_multiset(self.steps[0])]
        for app, step in zip(self.step_rules, self.steps[1:]):
            parts.append(f"--{app.name}--> {print_multiset(step)}")
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
            rule = system.get(app.name)
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
    pruned_by: frozenset = frozenset()

    @property
    def found(self) -> bool:
        return self.derivation is not None

    @property
    def status(self) -> str:
        """``found``, else ``truncated`` when a budget ran out, else ``exhausted``."""
        if self.found:
            return "found"
        return "truncated" if {"steps", "states"} & self.pruned_by else "exhausted"


def derive_search(system: AxiomaticSystem, premises: FMultiset,
                  conclusions: FMultiset, max_steps: int = 12,
                  max_formula_size: int = 12,
                  max_multiset_size: Optional[int] = None,
                  max_states: int = 200_000) -> DeriveResult:
    """Breadth-first search for a relevant derivation of the conclusions.

    States are multisets, explored level by level, each kept once with the
    step that first reached it.  The search space is the fragment in which
    every formula has size at most ``max_formula_size``, metavariables
    introduced by a rule's right side (axiom instantiations in particular)
    range over the subformula closure of the endpoints, and intermediate
    multisets stay within ``max_multiset_size``.  Both size caps are checked
    by arithmetic on sizes before a formula or multiset is built, so nothing
    over a cap is ever made.  ``exhausted`` means the whole fragment was
    explored without finding the target: a genuine negative for the
    fragment; ``pruned_by`` records which caps actually cut anything off.
    ``truncated`` means the step or state budget ran out first and decides
    nothing; the state budget ends the search at once.  The instances a
    match of a rule's left side yields are built on its first use and kept
    for the rest of this search, which meets most matches in many states;
    the next search builds its own.  A state's matches are worked out from
    its parent's (see _matches), which a level keeps until it is expanded;
    the premises' parent is the empty state, where only axioms match.
    """
    if max_multiset_size is None:
        max_multiset_size = max(premises.size, conclusions.size) + 2

    universe = set().union(*map(subformulas, [*premises, *conclusions]))
    cands = sorted((f for f in universe if formula_size(f) <= max_formula_size),
                   key=lambda f: (formula_size(f), str(f)))
    plans = [_RightPlan(_lift(rule)) for rule in system.rules]

    pruned: set[str] = set()
    parent: dict[FMultiset, Optional[tuple[FMultiset, RuleJust]]] = {premises: None}
    empty = (EMPTY, [[] if plan.pins else [plan.record({}, EMPTY)] for plan in plans])
    level = [(premises, empty)]  # (state, origin)
    for _ in range(max_steps):
        if not level or conclusions in parent:
            break
        frontier, level = level, []
        for state, origin in frontier:
            found = _matches(plans, state, origin)
            carried = (state, found)  # the origin of each child
            for nxt, app in _moves(plans, found, state, cands, max_formula_size,
                                   max_multiset_size, pruned):
                if nxt in parent:
                    continue
                if len(parent) >= max_states:
                    return DeriveResult(None, frozenset(pruned | {"states"}))
                parent[nxt] = (state, app)
                if nxt == conclusions:
                    break
                level.append((nxt, carried))
            if conclusions in parent:
                break

    if conclusions not in parent:
        if level:
            pruned.add("steps")  # a level was left to expand
        return DeriveResult(None, frozenset(pruned))
    steps, apps = [conclusions], []
    while parent[steps[-1]] is not None:
        state, app = parent[steps[-1]]
        steps.append(state)
        apps.append(app)
    return DeriveResult(Derivation(tuple(reversed(steps)), tuple(reversed(apps))))


class _RightPlan:
    """A rule lifted by syntax._lift, and its sides read once per search:
    for each distinct right schema its size and metavariable occurrence
    counts, and the metavariables of the whole right side.  An instance of
    a schema has the schema's size plus, per metavariable occurrence, the
    size of the bound formula minus one (its own node).  ``growth`` is how
    much an application adds to a state's size.  ``schemas`` lists
    the left side in canonical order, and ``pins`` pairs each distinct left
    schema with the rest of the left side (see _matches).  ``records``
    keeps one record per match met in this search."""

    __slots__ = ("rule", "shapes", "metavars", "growth", "schemas", "pins", "records")

    def __init__(self, rule: NamedRule):
        shapes = []
        for schema in rule.right.distinct():
            occ = Counter(v.name for v in _walk_nodes(schema) if type(v) is Var)
            shapes.append((formula_size(schema), dict(occ)))
        self.rule = rule
        self.shapes = tuple(shapes)
        self.metavars = frozenset(v for _, occ in shapes for v in occ)
        self.growth = rule.right.size - rule.left.size
        self.schemas = list(rule.left)
        self.pins = [(s, rule.left - FMultiset([s])) for s in rule.left.distinct()]
        self.records: dict[tuple, list] = {}

    def record(self, sigma: dict, consumed: FMultiset) -> list:
        """The match's one record in this search: ``[key, sigma, consumed,
        made]``, where ``key`` holds the canonical key of the formula each
        left schema consumes, schemas in canonical order, and ``made`` is
        the match's ``(products, cut)`` once _moves has worked them out (see
        _instances).  match_into yields a state's matches in the order of
        their keys, and a key fixes its match."""
        key = tuple(_default_key(substitute(s, sigma)) for s in self.schemas)
        return self.records.setdefault(key, [key, sigma, consumed, None])


def _matches(plans: list[_RightPlan], state: FMultiset,
             origin: tuple) -> list[list[list]]:
    """Each plan's matches of its left side in state, as records (see
    _RightPlan.record) in match_into's order.  ``origin`` is the parent
    state and its lists, the premises' being the empty state with each
    axiom's one match, and the matches are carried over (semi-naive
    evaluation, Bancilhon and Ramakrishnan 1986): a parent's match stays
    while what it consumed is still in state, and a match that consumes
    more of some formula than the parent held consumes an added one, so it
    is found with that formula pinned to one left schema and the rest of
    the left side matched onto the state.  The two kinds are merged by key."""
    before, lists = origin
    added = [(f, FMultiset([f])) for f, _ in (state - before).items()]
    removed = not before <= state
    out = []
    for plan, old in zip(plans, lists):
        if not plan.pins:  # an axiom's one match consumes nothing and stays
            out.append(old)
            continue
        kept = [m for m in old if m[2] <= state] if removed else old
        new = {}
        for f, one in added:
            for schema, rest in plan.pins:
                sigma0 = match(schema, f)
                if sigma0 is None:
                    continue
                # the rest may take the pinned occurrence again: the first test drops that
                for sigma, used in match_into(rest, state, sigma0):
                    consumed = used + one
                    if consumed <= state and not consumed <= before:
                        m = plan.record(sigma, consumed)
                        new[m[0]] = m
        out.append(sorted(kept + list(new.values())) if new else kept)
    return out


def _moves(plans: list[_RightPlan], matches: list[list[list]], state: FMultiset,
           cands: list[Formula], max_formula_size: int, max_multiset_size: int,
           pruned: set) -> Iterator[tuple[FMultiset, RuleJust]]:
    """Every rule application to state whose products fit both caps, rules in
    system order, each match's free right metavariables ranging over cands
    (sorted by size) in product order.  An application that does not fit is
    never built: its sizes are worked out first.  ``pruned`` gains a cap's
    name once the enumeration passes an application that the cap cuts off,
    never earlier; the multiset cap counts only applications that fit the
    formula cap.  ``matches`` lists each plan's matches of its rule's left
    side in state (see _matches), and a match's products and first cut are
    worked out on its first use and kept in its record (see _instances)."""
    room = max_multiset_size - state.size
    for plan, plan_matches in zip(plans, matches):
        grows = plan.growth > room
        for m in plan_matches:
            if m[3] is None:
                m[3] = _instances(plan, m[1], cands, max_formula_size)
            products, cut = m[3]
            if grows:
                if products:
                    pruned.add("multiset-size")
                if cut is not None:
                    pruned.add("formula-size")
                continue
            if products:
                rest = state - m[2]
            for i, (produced, app) in enumerate(products):
                if i == cut:
                    pruned.add("formula-size")
                yield rest + produced, app
            if cut == len(products):
                pruned.add("formula-size")


def _instances(plan: _RightPlan, sigma: dict, cands: list[Formula],
               cap: int) -> tuple[list[tuple[FMultiset, RuleJust]], Optional[int]]:
    """One match of a rule's left side, worked out once per search: the
    products that fit the formula cap, with their steps, in _fitting's
    order, and how many come before the place where the cap first cuts one
    off (None when it cuts none).  A free right metavariable with no
    candidate to range over gives no products and names no cap, ``([],
    None)``; an instance with every free metavariable at the smallest
    candidate over the cap gives ``([], 0)``, since every other instance is
    at least as large."""
    free = sorted(plan.metavars - sigma.keys())
    if free and not cands:
        return [], None
    smallest = formula_size(cands[0]) if cands else 0
    extras = [formula_size(c) - smallest for c in cands]
    # per schema: the instance size with every free metavariable at the
    # smallest candidate, and each free metavariable's count
    lows, coeffs = [], []
    for size, occ in plan.shapes:
        for v, n in occ.items():
            size += n * ((formula_size(sigma[v]) if v in sigma else smallest) - 1)
        lows.append(size)
        coeffs.append([occ.get(v, 0) for v in free])
    if max(lows, default=0) > cap:
        return [], 0
    rule, products, cut = plan.rule, [], None
    for values in _fitting(cands, extras, lows, coeffs, len(free), cap):
        if values is None:
            if cut is None:
                cut = len(products)
            continue
        full = dict(sigma)
        full.update(zip(free, values))
        products.append((FMultiset(substitute(s, full) for s in rule.right),
                         RuleJust(rule.name, full)))
    return products, cut


def _fitting(cands: list[Formula], extras: list[int], bounds: list[int],
             coeffs: list[list[int]], k: int, cap: int,
             values: tuple[Formula, ...] = ()) -> Iterator[Optional[tuple[Formula, ...]]]:
    """The k-tuples over cands that extend ``values``, in product order, whose
    instances all fit the cap, with None yielded where the cap cuts tuples
    off; ``extras[j]`` is cands[j]'s size over the smallest candidate's, and
    ``bounds`` the instance sizes with the metavariables not yet in
    ``values`` at the smallest candidate.  A value that is over the cap with
    the later metavariables at the smallest candidate stays over for every
    later value of its metavariable (cands is sorted by size), so the loop
    breaks there.  The recursion is the function itself, not a nested
    closure, which would leave a reference cycle per call."""
    i = len(values)
    if i == k:
        yield values
        return
    for c, extra in zip(cands, extras):
        if extra:
            nb = [b + co[i] * extra for b, co in zip(bounds, coeffs)]
            if max(nb) > cap:
                yield None
                break
        else:
            nb = bounds  # bounds fit already
        yield from _fitting(cands, extras, nb, coeffs, k, cap, values + (c,))


# -- symmetrization ------------------------------------------------------------------


def partition_count(gamma: FMultiset, n: int) -> int:
    """The number of ordered partitions of gamma into n parts."""
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
    (the appropriate definition for that case), so it asks the oracle once
    for every distinct conclusion: Kleene AND is commutative and idempotent.
    Empty conclusions delegate to the oracle's entails-every-theorem test.

    Otherwise the partitions are not listed.  Kleene AND and OR are min and
    max in the order FAILS < UNKNOWN < HOLDS, and min distributes over max,
    so a table ``rests`` from what the parts so far leave to the best AND of
    their verdicts gives the OR over all partitions.  It starts as
    {premises: HOLDS}; each conclusion but the last takes every submultiset
    of every rest, dropping a way whose AND is FAILS, and the last takes the
    whole rest.  It is a loop over the conclusions, so any number of them
    runs without recursion.  The cap bounds the table's work: one step
    visits at most ``partition_count(premises, 3)`` (rest, part) pairs, each
    a split of the premises into what earlier parts took, the part and what
    it leaves.  So past the cap on ``partition_count(premises, min(n, 3))``,
    n the number of conclusions, the answer is UNKNOWN, never guessed, and
    within it the oracle is asked at most n times the cap.  The count never
    decreases with its part count, so no query whose ordered partitions
    number within the cap is cut off.
    """
    if conclusions.is_empty():
        return oracle.entails_all_theorems(premises)
    if oracle.monotone_contractive:
        return all3(oracle.entails(premises, chi) for chi, _ in conclusions.items())
    *firsts, last = conclusions
    if partition_count(premises, min(len(firsts) + 1, 3)) > partition_cap:
        return UNKNOWN
    rests = {premises: HOLDS}  # what the parts so far leave -> the best AND
    for chi in firsts:
        nxt: dict[FMultiset, Verdict] = {}
        for rest, v in rests.items():
            for part in submultisets(rest):
                left = rest - part
                have = nxt.get(left, FAILS)  # the AND is at most v: only a rest below v rises
                if have is not HOLDS and have is not v and (
                        w := all3((v, oracle.entails(part, chi)))) is not FAILS:
                    nxt[left] = any3((have, w))
        rests = nxt
    return any3(all3((v, oracle.entails(rest, last))) for rest, v in rests.items())


class Symmetrization(SymmetricOracle):
    """The symmetrized relation of an asymmetric oracle, as an oracle."""

    def __init__(self, base: ConsequenceOracle):
        self.base = base
        self.name = f"{base.name}^s"
        self.monotone_contractive = base.monotone_contractive

    @memoised
    def entails(self, premises: FMultiset, conclusions: FMultiset) -> Verdict:
        return symmetrize_query(self.base, premises, conclusions)

    def image(self, side: FMultiset | Formula):
        """Over a monotone_contractive base with images: the base's image of
        the side and the frozenset of its members' images, which are all
        that the componentwise rule reads of the premises and of the
        conclusions, a lone formula read as [side].  None otherwise, or when
        one of those images is None."""
        image = getattr(self.base, "image", None) if self.monotone_contractive else None
        if image is None or (whole := image(side)) is None:
            return None
        members = frozenset([image(f) for f, _ in side.items()] if type(side) is FMultiset
                            else [whole])
        return None if None in members else (whole, members)


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
        if self.empty_via_base and self.theorem_basis is None:
            return self.base.entails(premises, EMPTY)
        return super().entails_all_theorems(premises)


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
    tree: ProofTree               # relevant proof of the chosen formula
    residual: Derivation          # relevant derivation of the rest

    @property
    def premises_used(self) -> FMultiset:
        """The premises feeding the tree: its premise leaves."""
        return FMultiset(leaf.formula for leaf in self.tree.leaves()
                         if isinstance(leaf.by, PremiseJust))

    @property
    def premises_rest(self) -> FMultiset:
        """The remaining premises, where the residual starts."""
        return self.residual.steps[0]


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
    premise leaves under it.  Each step's tree, with all the trees it took,
    lies wholly inside that tree or wholly outside it, so replaying the
    steps outside it on the remaining premises, less stutters, leaves a
    relevant derivation of the remaining conclusions.
    """
    verdict, uses = _replay(derivation, system, premises, conclusions)
    if verdict is not DerivationVerdict.RELEVANT:
        raise ExtractionError("extraction needs a relevant derivation")
    if phi not in conclusions.support:
        raise ExtractionError(
            f"{print_formula(phi)} is not among the conclusions")
    if system.symmetric:
        raise ExtractionError("extraction expects a single-conclusion system")

    premise_leaves = [ProofTree(f, PremiseJust()) for f in premises]
    forest: dict[Formula, list[ProofTree]] = {}
    for leaf in premise_leaves:
        forest.setdefault(leaf.formula, []).append(leaf)
    made: list[tuple[FMultiset, ProofTree]] = []  # each step's consumed formulas and tree
    for (rule, sigma), app in zip(uses, derivation.step_rules):
        consumed = FMultiset(substitute(s, sigma) for s in rule.left)
        taken = tuple(forest[f].pop(0) for f in consumed)
        label = substitute(rule.right, sigma)
        by = app if taken else AxiomJust(app.name, app.subst)
        forest.setdefault(label, []).append(ProofTree(label, by, taken))
        made.append((consumed, forest[label][-1]))

    tree = forest[phi][0]
    in_tree = {id(node) for _, node in _walk(tree)}
    residual_steps = [FMultiset(leaf.formula for leaf in premise_leaves
                                if id(leaf) not in in_tree)]
    residual_apps: list[RuleJust] = []
    for app, (consumed, node) in zip(derivation.step_rules, made):
        if id(node) in in_tree:
            continue
        step = residual_steps[-1] - consumed + FMultiset([node.formula])
        if step != residual_steps[-1]:
            residual_steps.append(step)
            residual_apps.append(app)
    residual = Derivation(tuple(residual_steps), tuple(residual_apps))
    return Extraction(tree, residual)


# -- derivation files ---------------------------------------------------------------


def derivation_to_data(derivation: Derivation) -> list[dict]:
    out = [{"multiset": print_multiset(derivation.steps[0])}]
    for app, step in zip(derivation.step_rules, derivation.steps[1:]):
        out.append({"multiset": print_multiset(step), "by": _just_to_data(app)})
    return out


def derivation_from_data(data: list[dict]) -> Derivation:
    if not isinstance(data, list) or not data:
        raise ValueError("a derivation file needs a nonempty list of records")
    for rec in data:
        if not isinstance(rec, dict) or not isinstance(rec.get("multiset"), str):
            raise ValueError(
                'each derivation record must be an object with a "multiset" string')
    steps = [parse_multiset(rec["multiset"]) for rec in data]
    apps: list[RuleJust] = []
    for rec in data[1:]:
        by = rec.get("by")
        if not isinstance(by, dict) or not isinstance(by.get("rule"), str):
            raise ValueError(f"record {rec!r} is missing its rule")
        apps.append(RuleJust(by["rule"], _subst_from(by.get("subst"))))
    if "by" in data[0]:
        raise ValueError("the first record carries no rule")
    return Derivation(tuple(steps), tuple(apps))


def dump_derivation(derivation: Derivation) -> str:
    return json.dumps(derivation_to_data(derivation), indent=2)


def load_derivation(text: str) -> Derivation:
    return derivation_from_data(_json_loads(text))
