"""Tree proofs: verification with relevance classification, Cut composition,
the weakening pump, bounded backward search, and the implication-discharge
transformer for BCI-style systems.

A proof of ``goal`` from a premise multiset ``premises`` in a
single-conclusion system is a finite formula-labelled tree such that

  1. the root is labelled by ``goal``;
  2. every leaf label is an axiom instance or lies in the premise support;
  3. every internal node instantiates a rule, and every leaf justified by
     an axiom instantiates that axiom: the node's label is the instantiated
     conclusion and its children's labels form the instantiated premise
     multiset.  Each node is checked as one application of its rule with no
     context, the same check that derivation steps get;
  4. every formula that is *not* an axiom instance labels at most
     ``premises(f)`` leaves.

Writing ``leaves`` for the leaf-label multiset, the tree is additionally

  - weakly relevant  if every element of premises - leaves is an axiom
    instance (non-axiom premises are used exactly as often as listed);
  - relevant         if premises <= leaves (every listed occurrence is used);
  - strongly relevant if premises == leaves.

``verify`` reports the strongest class that holds.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from .multiset import EMPTY, FMultiset
from .syntax import (
    AxiomaticSystem,
    Formula,
    Imp,
    NamedRule,
    Var,
    _TOO_DEEP,
    _freeze,
    _larger_first,
    _map_vars,
    _renaming,
    _resolve,
    _rule_schemata,
    _rule_step,
    alpha_variant,
    formula_size,
    match,
    metavars,
    parse_formula,
    print_formula,
    print_multiset,
    subformulas,
    substitute,
    substitute_partial,
    unify,
)


class RelevanceVerdict(IntEnum):
    INVALID = 0
    PLAIN = 1
    WEAKLY_RELEVANT = 2
    RELEVANT = 3
    STRONGLY_RELEVANT = 4

    def __str__(self) -> str:
        return self.name.lower()


class NoPremiseLeafError(Exception):
    """cut_compose found no premise leaf labelled by the cut formula."""


class RulesAbsentError(Exception):
    """The system lacks a rule of the shape an operation requires."""


class UnsupportedSystemError(Exception):
    """The system is not of the BCI(+fusion) form the transformer handles."""


class NotRelevantError(Exception):
    """An operation required a relevant input proof."""


# -- proof trees ---------------------------------------------------------------


@dataclass(frozen=True)
class PremiseJust:
    def __str__(self) -> str:
        return "premise"


@dataclass(frozen=True)
class AxiomJust:
    name: str
    subst: Optional[Mapping[str, Formula]] = None

    def __str__(self) -> str:
        return f"axiom {self.name}"


@dataclass(frozen=True)
class RuleJust:
    name: str
    subst: Optional[Mapping[str, Formula]] = None

    def __str__(self) -> str:
        return f"rule {self.name}"


Justification = PremiseJust | AxiomJust | RuleJust


@dataclass(frozen=True, eq=False)
class ProofTree:
    formula: Formula
    by: Justification
    children: tuple["ProofTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other) -> bool:
        """Structural equality: the two walks agree node by node on formula,
        justification and arity, which fixes each tree's shape."""
        if not isinstance(other, ProofTree):
            return NotImplemented
        return self is other or all(
            a.formula == b.formula and a.by == b.by and len(a.children) == len(b.children)
            for (_, a), (_, b) in zip(_walk(self), _walk(other)))

    def __hash__(self) -> int:
        # the root only: equal trees agree on it, and it costs no walk
        return hash((self.formula, self.by, len(self.children)))

    def node_count(self) -> int:
        # its own loop, not the walk: search calls it per subtree, and the walk costs throughput
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def leaves(self) -> Iterator["ProofTree"]:
        """The leaves, left to right."""
        return (node for _, node in _walk(self) if not node.children)


# Every walk over a proof tree of unbounded depth is one of the two below,
# which use explicit stacks: a tree loaded from a file can be nested deeper
# than the interpreter's recursion limit.


def _walk(tree: ProofTree, into: Optional[Callable[[ProofTree], bool]] = None
          ) -> Iterator[tuple[tuple, ProofTree]]:
    """Each node with its path from the root, depth first and left to right;
    below a node only when ``into(node)`` holds, if given.  A path is () at
    the root and (the parent's path, child index) below it, one pair per
    node at any depth; ``_indexes`` spells it out."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        children = node.children
        if children and (into is None or into(node)):
            i = len(children)
            while i:
                i -= 1
                stack.append(((path, i), children[i]))


def _indexes(path: tuple) -> tuple[int, ...]:
    """A walk's path as the child indexes from the root."""
    indexes = []
    while path:
        path, i = path
        indexes.append(i)
    return tuple(reversed(indexes))


def _fold(root, expand: Callable, make: Callable):
    """Fold a tree children first: ``expand(node)`` gives ``(value, children)``
    and is called in pre-order, which is file order, so the first node it
    rejects is the first in the file; then ``make(value, results)`` is called
    on each node's value and the list of its children's results."""
    order = []
    stack = [root]
    while stack:
        value, children = expand(stack.pop())
        order.append((value, len(children)))
        stack.extend(reversed(children))
    done: list = []  # results of finished subtrees, the leftmost last
    for value, arity in reversed(order):
        split = len(done) - arity
        results = done[split:][::-1]
        del done[split:]
        done.append(make(value, results))
    return done[0]


def premise_leaf(f: Formula) -> ProofTree:
    return ProofTree(f, PremiseJust())


def axiom_leaf(f: Formula, name: str, subst: Optional[dict] = None) -> ProofTree:
    return ProofTree(f, AxiomJust(name, subst))


def leaf_multiset(tree: ProofTree) -> FMultiset:
    """The multiset of leaf labels, counted with multiplicity."""
    return FMultiset(leaf.formula for leaf in tree.leaves())


# -- verification ---------------------------------------------------------------


@dataclass
class VerifyReport:
    verdict: RelevanceVerdict
    problems: list[str] = field(default_factory=list)
    leaf_labels: FMultiset = EMPTY
    surplus: FMultiset = EMPTY  # leaves - premises, shown in diagnostics


def _applies(system: AxiomaticSystem, node: ProofTree, before: FMultiset) -> bool:
    """Whether the node is one application of its named axiom or rule with
    no context: the step from ``before`` (its children's labels) to its own
    label, the check a derivation step gets.  An axiom consumes nothing and a
    rule something, so neither passes for the other."""
    try:
        rule = system.get(node.by.name)
    except KeyError:
        return False
    return (not isinstance(rule.right, FMultiset) and _rule_step(
        rule.left, rule.right, before, FMultiset([node.formula]), node.by.subst) is not None)


def verify_report(tree: ProofTree, system: AxiomaticSystem,
                  premises: FMultiset, goal: Formula) -> VerifyReport:
    """Check the four proof conditions and classify the relevance of the tree."""
    if system.symmetric:
        raise ValueError("verify expects a single-conclusion system")
    problems: list[str] = []
    leaves = leaf_multiset(tree)
    # each leaf label and each unused premise, classified once
    axiomatic = {f for f in leaves.support | (premises - leaves).support
                 if system.is_axiom_instance(f)}

    if tree.formula != goal:
        problems.append(
            f"root is {print_formula(tree.formula)}, goal is {print_formula(goal)}")

    # below a node that is not a rule application nothing is checked
    for _, node in _walk(tree, into=lambda n: isinstance(n.by, RuleJust)):
        if node.is_leaf:
            if isinstance(node.by, RuleJust):
                problems.append(
                    f"leaf {print_formula(node.formula)} carries a rule justification")
            elif isinstance(node.by, AxiomJust) and not _applies(system, node, EMPTY):
                problems.append(
                    f"leaf {print_formula(node.formula)} is not an instance "
                    f"of axiom {node.by.name}")
            elif not (node.formula in axiomatic or node.formula in premises):
                problems.append(
                    f"leaf {print_formula(node.formula)} is neither an axiom "
                    f"instance nor a premise")
        elif not isinstance(node.by, RuleJust):
            problems.append(
                f"internal node {print_formula(node.formula)} lacks a rule justification")
        else:
            child_labels = FMultiset(c.formula for c in node.children)
            if not _applies(system, node, child_labels):
                problems.append(
                    f"node {print_formula(node.formula)} does not instantiate rule "
                    f"{node.by.name} from {print_multiset(child_labels)}")

    # condition 4: non-axiom formulas label at most premises(f) leaves
    for f in leaves.distinct():
        if f not in axiomatic and leaves.count(f) > premises.count(f):
            problems.append(
                f"{print_formula(f)} labels {leaves.count(f)} leaves but occurs "
                f"{premises.count(f)} times among the premises")

    surplus = leaves - premises
    if problems:
        return VerifyReport(RelevanceVerdict.INVALID, problems, leaves, surplus)

    verdict = RelevanceVerdict.PLAIN
    if all(f in axiomatic for f in (premises - leaves).support):
        verdict = RelevanceVerdict.WEAKLY_RELEVANT
        if premises <= leaves:
            verdict = RelevanceVerdict.RELEVANT
            if premises == leaves:
                verdict = RelevanceVerdict.STRONGLY_RELEVANT
    return VerifyReport(verdict, [], leaves, surplus)


def verify(tree: ProofTree, system: AxiomaticSystem,
           premises: FMultiset, goal: Formula) -> RelevanceVerdict:
    return verify_report(tree, system, premises, goal).verdict


# -- Cut composition and the weakening pump -------------------------------------


def cut_compose(tree: ProofTree, sub: ProofTree, system: AxiomaticSystem,
                cut_formula: Formula) -> ProofTree:
    """Replace a premise leaf labelled ``cut_formula`` in ``tree`` by ``sub``.

    For relevant inputs for (G + [f], goal) and (D, f) the result is a
    relevant proof for (G + D, goal): the leaf multiset loses one occurrence
    of the cut formula and gains all of sub's leaves.
    """
    for path, node in _walk(tree):
        if (not node.children and isinstance(node.by, PremiseJust)
                and node.formula == cut_formula):
            return _graft(tree, _indexes(path), sub)
    raise NoPremiseLeafError(
        f"no premise leaf labelled {print_formula(cut_formula)}")


def _graft(tree: ProofTree, path: tuple[int, ...], sub: ProofTree) -> ProofTree:
    """The tree with the node at ``path`` replaced by ``sub``."""
    # one path down and back up: not a walk
    spine = []
    for i in path:
        spine.append((tree, i))
        tree = tree.children[i]
    for node, i in reversed(spine):
        sub = ProofTree(node.formula, node.by,
                        node.children[:i] + (sub,) + node.children[i + 1:])
    return sub


# shapes used to recognise the rules pump_use and deduction_transform need
_V0, _V1, _V2 = Var("\x01a"), Var("\x01b"), Var("\x01c")
MP_SHAPE = (FMultiset([Imp(_V0, _V1), _V0]), _V1)
WEAKENING_SHAPE = (FMultiset([_V0]), Imp(_V1, _V0))
I_SHAPE = Imp(_V0, _V0)
B_SHAPE = Imp(Imp(_V0, _V1), Imp(Imp(_V2, _V0), Imp(_V2, _V1)))
C_SHAPE = Imp(Imp(_V0, Imp(_V1, _V2)), Imp(_V1, Imp(_V0, _V2)))


def rule_has_shape(rule, shape: tuple[FMultiset, Formula]) -> bool:
    """Whether a single-conclusion rule equals the shape up to renaming: the
    shape, applied with no context, turns the rule's frozen premises into its
    frozen conclusion by a renaming."""
    if isinstance(rule.right, FMultiset):
        return False
    frozen_left = FMultiset(_freeze(f) for f in rule.left)
    return _renaming(_rule_step(*shape, frozen_left, FMultiset([_freeze(rule.right)])))


def axiom_has_shape(rule, shape: Formula) -> bool:
    return (rule.is_axiom and not isinstance(rule.right, FMultiset)
            and alpha_variant(rule.right, shape))


def _find_rule(system: AxiomaticSystem, shape, axiom: bool, what: str) -> str:
    """The name of the system's first axiom or rule of the shape, looked up
    once per system; RulesAbsentError on every call when there is none."""
    names = _rule_tables(system).names
    key = (shape, axiom)
    if key not in names:
        names[key] = next((r.name for r in system.rules
                           if (axiom_has_shape(r, shape) if axiom
                               else not r.is_axiom and rule_has_shape(r, shape))), None)
    name = names[key]
    if name is None:
        raise RulesAbsentError(f"system {system.name} has no {what}")
    return name


def _instance(system: AxiomaticSystem, name: str, f: Formula) -> ProofTree:
    sigma = match(system.get(name).right, f)
    return axiom_leaf(f, name, sigma)


def pump_use(tree: ProofTree, extra: Formula, system: AxiomaticSystem) -> ProofTree:
    """Grow a proof so that it also uses one new premise occurrence ``extra``.

    Requires modus ponens and weakening rules.  The root proves the same
    formula; the leaf multiset gains exactly one occurrence of ``extra``.
    """
    mp = _find_rule(system, MP_SHAPE, False, "modus ponens rule")
    wk = _find_rule(system, WEAKENING_SHAPE, False, "weakening rule")
    goal = tree.formula
    weakened = ProofTree(Imp(extra, goal), RuleJust(wk), (tree,))
    return ProofTree(goal, RuleJust(mp), (weakened, premise_leaf(extra)))


# -- the implication-discharge transformer --------------------------------------


def deduction_transform(tree: ProofTree, system: AxiomaticSystem,
                        premises: FMultiset, phi: Formula) -> ProofTree:
    """Turn a relevant proof of psi from G + [phi] into one of phi -> psi from G.

    Follows the proof-complexity induction: walk to the distinguished premise
    occurrence of phi (leftmost in depth-first order) and rebuild along the
    modus ponens spine.  When the occurrence sits below the minor premise the
    prefixing axiom composes the recursive result with the untouched major
    subtree; when it sits below the major premise the permutation axiom
    re-orders the discharged antecedent past the minor premise.  The base case
    phi = psi is the identity axiom.
    """
    if system.symmetric:
        raise UnsupportedSystemError("transformer expects a single-conclusion system")
    if premises.count(phi) < 1:
        raise ValueError(f"{print_formula(phi)} does not occur among the premises")
    report = verify_report(tree, system, premises, tree.formula)
    if report.verdict < RelevanceVerdict.RELEVANT:
        raise NotRelevantError(
            f"input proof verifies as {report.verdict}; surplus {report.surplus}")
    mp = _find_rule(system, MP_SHAPE, False, "modus ponens rule")
    ax_i = _find_rule(system, I_SHAPE, True, "identity axiom")
    ax_b = _find_rule(system, B_SHAPE, True, "prefixing axiom")
    ax_c = _find_rule(system, C_SHAPE, True, "permutation axiom")
    for rule in system.inference_rules:
        if rule.name != mp:
            raise UnsupportedSystemError(
                f"system {system.name} has a rule beyond modus ponens: {rule.name}")

    path = _leftmost_occurrence(tree, phi)
    if path is None:
        raise NotRelevantError(f"no leaf labelled {print_formula(phi)}")

    # descend to the occurrence (one path: not a walk), then rebuild the path
    # bottom-up; ``out`` is the rebuilt subtree last finished, proving
    # phi -> its node's formula
    spine = []
    node = tree
    for branch in path:
        spine.append((node, *_split_mp(node), branch))
        node = node.children[branch]
    out = None  # still at the occurrence itself
    for node, major_ix, minor_ix, branch in reversed(spine):
        major, minor = node.children[major_ix], node.children[minor_ix]
        chi, psi = minor.formula, node.formula
        if branch == minor_ix and out is None:
            # identity case: the discharged occurrence is the whole minor
            # premise, so the major subtree already proves phi -> psi
            out = major
        elif branch == minor_ix:
            # phi is used to prove the minor premise chi; out proves phi -> chi
            b_inst = _instance(
                system, ax_b,
                Imp(Imp(chi, psi), Imp(Imp(phi, chi), Imp(phi, psi))))
            step = ProofTree(Imp(Imp(phi, chi), Imp(phi, psi)),
                             RuleJust(mp), (b_inst, major))
            out = ProofTree(Imp(phi, psi), RuleJust(mp), (step, out))
        else:
            # phi is used to prove the major premise chi -> psi
            if out is None:
                out = _instance(system, ax_i, Imp(phi, phi))
            c_inst = _instance(
                system, ax_c,
                Imp(Imp(phi, Imp(chi, psi)), Imp(chi, Imp(phi, psi))))
            step = ProofTree(Imp(chi, Imp(phi, psi)), RuleJust(mp), (c_inst, out))
            out = ProofTree(Imp(phi, psi), RuleJust(mp), (step, minor))
    return out if out is not None else _instance(system, ax_i, Imp(phi, phi))


def _leftmost_occurrence(tree: ProofTree, phi: Formula) -> Optional[tuple[int, ...]]:
    """The path to the leftmost premise leaf labelled phi, or failing that
    to the leftmost leaf labelled phi."""
    fallback = None
    for path, node in _walk(tree):
        if not node.children and node.formula == phi:
            if isinstance(node.by, PremiseJust):
                return _indexes(path)
            if fallback is None:
                fallback = _indexes(path)
    return fallback


def _split_mp(node: ProofTree) -> tuple[int, int]:
    """Indexes of (major, minor) among an mp node's two children."""
    if len(node.children) != 2:
        raise UnsupportedSystemError("modus ponens node must have two children")
    a, b = node.children
    if a.formula == Imp(b.formula, node.formula):
        return 0, 1
    if b.formula == Imp(a.formula, node.formula):
        return 1, 0
    raise UnsupportedSystemError(
        f"node {print_formula(node.formula)} is not a modus ponens application")


# -- bounded backward search -----------------------------------------------------


def search(system: AxiomaticSystem, premises: FMultiset, goal: Formula,
           max_nodes: int = 16) -> Optional[ProofTree]:
    """Bounded search for a proof that verifies as relevant for (premises, goal).

    Iterative deepening over the tree node count, which is the only bound.
    A rule metavariable the goal leaves open, such as the minor premise of
    modus ponens, is a logic variable renamed apart for each rule use and
    bound by unification when its subgoal closes against a premise, an axiom
    or another rule's conclusion.  A use is renamed apart only once its
    conclusion unifies with the goal, and the axiom and rule tables this
    reads are built once per system, on its first search.  A variable still
    open when a proof closes is grounded with the least subformula of the
    premises and goal (by size, then text).  The first witness under the
    canonical branch order is returned, so the result is deterministic and
    node-minimal.  ``None`` means no proof within ``max_nodes``; it is not a
    disproof.
    """
    if system.symmetric:
        raise ValueError("search expects a single-conclusion system")
    if premises.size > max_nodes:
        return None  # every premise occurrence needs its own leaf
    closure = subformulas(goal).union(*map(subformulas, premises.support))
    state = _SearchState(system, min(closure, key=lambda f: (formula_size(f), str(f))))
    for budget in range(1, max_nodes + 1):
        for tree, used, theta in state.prove(goal, premises, budget, {}):
            if used == premises and tree.node_count() == budget:
                return state.ground(tree, theta)
    return None


def _rename_vars(schema: Formula, tag: str = "") -> Formula:
    """Push a schema's metavariables into a private namespace before unifying;
    a distinct ``tag`` per rule use renames the uses apart."""
    return _map_vars(schema, lambda v: Var("\x02" + v.name + tag))


_HOLE = Var("?")


def _masked(f: Formula) -> str:
    # the printed form with every variable shown alike, so that a size tie
    # between subgoals never turns on a fresh variable's name
    return str(_map_vars(f, lambda v: _HOLE))


def _vars_of(rule: NamedRule) -> list[Var]:
    """The distinct metavariables of a rule, by name."""
    return [Var(name) for name in sorted(set().union(*map(metavars, _rule_schemata(rule))))]


# A rule table entry: the rule, its metavariables, and its conclusion with
# them renamed into the private namespace untagged.  Every goal variable
# carries a use tag, so a goal shares no variable with a head, and a goal
# unifies with a head exactly when it unifies with a renamed-apart copy.
_Entry = tuple[NamedRule, list[Var], Formula]


class _Tables(NamedTuple):
    """What is worked out once per system: the search's single-conclusion
    axioms and inference rules as table entries, and, per (shape, axiom)
    asked of _find_rule, the name of the first rule of that shape, or None
    when the system has none."""

    axioms: list[_Entry]
    rules: list[_Entry]
    names: dict[tuple, Optional[str]]


# one record per live system, dropped with the system
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _rule_tables(system: AxiomaticSystem) -> _Tables:
    """The system's record, built on first use and kept while the system lives."""
    tables = _TABLES.get(system)
    if tables is None:
        def entries(rules):
            return [(rule, _vars_of(rule), _rename_vars(rule.right)) for rule in rules
                    if not isinstance(rule.right, FMultiset)]

        tables = _TABLES[system] = _Tables(
            entries(system.axioms), entries(system.inference_rules), {})
    return tables


class _SearchState:
    """Proof search over one system; ``fruitless`` remembers, per ground
    (goal, available premises), the largest budget that found nothing.

    The axiom and rule tables are the system's, built once.  A use is
    renamed apart only after the goal unifies with the rule's untagged head,
    so the ``#n`` tags count the uses that unify."""

    def __init__(self, system: AxiomaticSystem, filler: Formula):
        self.filler = filler
        self.fruitless: dict[tuple, int] = {}
        self._uses = 0
        self._axioms, self._rules, _ = _rule_tables(system)

    def _fresh(self, variables: list[Var]) -> dict[str, Formula]:
        """Each variable renamed apart from every earlier rule or axiom use."""
        self._uses += 1
        tag = "#" + str(self._uses)
        return {v.name: _rename_vars(v, tag) for v in variables}

    def _uses_of(self, table: list[_Entry], goal: Formula
                 ) -> Iterator[tuple[NamedRule, dict[str, Formula], dict]]:
        """Each entry whose head unifies with the goal, renamed apart, with
        the renaming and the goal's unifier with the renamed conclusion.

        That unifier is the head's, renamed the same way: the renaming is
        a bijection onto names no goal holds, so unifying again would bind
        the same variables to the same terms in the same order."""
        for rule, variables, head in table:
            mgu = unify(goal, head)
            if mgu is not None:
                sigma = self._fresh(variables)
                ren = {"\x02" + name: v for name, v in sigma.items()}
                yield rule, sigma, {ren[k].name if k in ren else k: substitute_partial(f, ren)
                                    for k, f in mgu.items()}

    def ground(self, tree: ProofTree, theta: dict) -> ProofTree:
        """The tree under ``theta``, with every variable left open filled."""
        # recursive, not the fold: its depth is at most max_nodes, and the fold costs search time
        def fix(f: Formula) -> Formula:
            return _map_vars(_resolve(f, theta), lambda v: self.filler)

        by = tree.by
        if not isinstance(by, PremiseJust):
            by = type(by)(by.name, {v: fix(f) for v, f in by.subst.items()})
        return ProofTree(fix(tree.formula), by,
                         tuple(self.ground(c, theta) for c in tree.children))

    def prove(self, goal: Formula, avail: FMultiset, budget: int,
              theta: dict) -> Iterator[tuple[ProofTree, FMultiset, dict]]:
        """Proofs of ``goal`` under ``theta`` from part of ``avail`` within
        ``budget`` nodes, each with the premises it uses and the bindings."""
        if budget < 1:
            return
        goal = _resolve(goal, theta)
        if not goal._ground:
            # the failure table speaks only for ground goals
            yield from self._prove_raw(goal, avail, budget, theta)
            return
        key = (goal, avail)
        if self.fruitless.get(key, 0) >= budget:
            return
        yielded = False
        for result in self._prove_raw(goal, avail, budget, theta):
            yielded = True
            yield result
        if not yielded:
            self.fruitless[key] = max(self.fruitless.get(key, 0), budget)

    def _prove_raw(self, goal, avail, budget, theta):
        """Close the goal against a premise, an axiom or a rule's conclusion,
        in that order, binding variables by unification."""
        for f in avail.distinct():
            mgu = unify(goal, f)
            if mgu is not None:
                yield premise_leaf(f), FMultiset([f]), {**theta, **mgu}
        for ax, sigma, mgu in self._uses_of(self._axioms, goal):
            yield axiom_leaf(goal, ax.name, sigma), EMPTY, {**theta, **mgu}
        if budget < 2:
            return
        for rule, sigma, mgu in self._uses_of(self._rules, goal):
            bound = {**theta, **mgu}
            # most-constrained (largest) subgoal first fails fastest
            subgoals = _larger_first(
                [_resolve(substitute(s, sigma), bound) for s in rule.left], text=_masked)
            for children, used, theta2 in self._prove_seq(subgoals, avail, budget - 1, bound):
                yield ProofTree(goal, RuleJust(rule.name, sigma), children), used, theta2

    def _prove_seq(self, subgoals: list[Formula], avail: FMultiset, budget: int,
                   theta: dict) -> Iterator[tuple[tuple[ProofTree, ...], FMultiset, dict]]:
        if not subgoals:
            yield (), EMPTY, theta
            return
        head, rest = subgoals[0], subgoals[1:]
        # reserve at least one node per remaining subgoal
        for t1, u1, th1 in self.prove(head, avail, budget - len(rest), theta):
            n1 = t1.node_count()
            for ts, u2, th2 in self._prove_seq(rest, avail - u1, budget - n1, th1):
                yield (t1,) + ts, u1 + u2, th2


# -- proof files -----------------------------------------------------------------


def proof_to_data(tree: ProofTree) -> dict:
    """The file form of a proof tree: formula, by and children, in that order."""
    def make(node: ProofTree, children: list) -> dict:
        out = {"formula": print_formula(node.formula), "by": _just_to_data(node.by)}
        if children:
            out["children"] = children
        return out

    return _fold(tree, lambda node: (node, node.children), make)


def _just_to_data(by: Justification):
    """A justification's file form: "premise" or {"axiom"|"rule": name, "subst": ...}."""
    if isinstance(by, PremiseJust):
        return "premise"
    entry: dict = {"axiom" if isinstance(by, AxiomJust) else "rule": by.name}
    if by.subst is not None:
        entry["subst"] = {v: print_formula(f) for v, f in sorted(by.subst.items())}
    return entry


def proof_from_data(data: dict) -> ProofTree:
    """Build a proof tree from its file form; the first malformed node in
    file order is the one reported."""
    return _fold(data, _node_from_data,
                 lambda node, children: ProofTree(*node, tuple(children)))


def _node_from_data(data) -> tuple[tuple[Formula, Justification], list]:
    """One proof node's formula and justification, and its children's data."""
    if not isinstance(data, dict) or not isinstance(data.get("formula"), str):
        raise ValueError('each proof node must be an object with a "formula" string')
    formula = parse_formula(data["formula"])
    by = data.get("by", "premise")
    if by == "premise":
        just: Justification = PremiseJust()
    elif isinstance(by, dict) and isinstance(by.get("axiom"), str):
        just = AxiomJust(by["axiom"], _subst_from(by.get("subst")))
    elif isinstance(by, dict) and isinstance(by.get("rule"), str):
        just = RuleJust(by["rule"], _subst_from(by.get("subst")))
    else:
        raise ValueError(f"bad justification entry: {by!r}")
    children = data.get("children", [])
    if not isinstance(children, list):
        raise ValueError('"children" must be a list of proof nodes')
    return (formula, just), children


def _subst_from(entry) -> Optional[dict]:
    """A stored substitution: an object from metavariable to formula text."""
    if entry is None:
        return None
    if not isinstance(entry, dict) or not all(isinstance(s, str) for s in entry.values()):
        raise ValueError('"subst" must be an object of formula strings')
    return {v: parse_formula(s) for v, s in entry.items()}


def dump_proof(tree: ProofTree) -> str:
    """The proof file text; nesting past json's limit is a ValueError, as on loading."""
    try:
        return json.dumps(proof_to_data(tree), indent=2)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def _json_loads(text: str):
    """json.loads, reporting nesting past the recursion limit as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def load_proof(text: str) -> ProofTree:
    return proof_from_data(_json_loads(text))
