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

from .multiset import EMPTY, FMultiset, _trusted
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
    surplus: FMultiset = EMPTY  # leaves - premises, shown in diagnostics


def _applies(system: AxiomaticSystem, node: ProofTree) -> bool:
    """Whether the node is one application of its named axiom or rule, the
    step with no context from its children's labels to its own label that a
    derivation step gets: an axiom consumes nothing and a rule something."""
    try:
        rule = system.get(node.by.name)
    except KeyError:
        return False
    return _rule_step(rule.left, rule.right, tuple(c.formula for c in node.children),
                      node.formula, node.by.subst) is not None


def verify_report(tree: ProofTree, system: AxiomaticSystem,
                  premises: FMultiset, goal: Formula) -> VerifyReport:
    """Check the four proof conditions and classify the relevance of the tree.

    One pre-order walk counts the leaves and checks each node against its
    rule, below a node only while it is a rule application.  Problems: the
    root, the nodes in walk order, then condition 4 in canonical order.  An
    axiom-instance test runs only on a premise leaf's label that is no
    premise, a formula on more leaves than the premises list, and, on a valid
    tree, each unused premise; an axiom leaf that passes its check needs none.
    """
    if system.symmetric:
        raise ValueError("verify expects a single-conclusion system")
    problems: list[str] = []
    if tree.formula != goal:
        problems.append(
            f"root is {print_formula(tree.formula)}, goal is {print_formula(goal)}")
    counts: dict[Formula, int] = {}  # leaf label -> how many leaves it labels
    axioms = set()  # the labels of axiom leaves that passed their check
    for _, node in _walk(tree, into=lambda n: isinstance(n.by, RuleJust)):
        f, by = node.formula, node.by
        if not node.children:
            counts[f] = counts.get(f, 0) + 1
            if isinstance(by, RuleJust):
                problems.append(f"leaf {print_formula(f)} carries a rule justification")
            elif isinstance(by, AxiomJust) and _applies(system, node):
                axioms.add(f)
            elif isinstance(by, AxiomJust):
                problems.append(f"leaf {print_formula(f)} is not an instance of axiom {by.name}")
            elif f not in premises and not system.is_axiom_instance(f):
                problems.append(
                    f"leaf {print_formula(f)} is neither an axiom instance nor a premise")
        elif not isinstance(by, RuleJust):
            problems.append(f"internal node {print_formula(f)} lacks a rule justification")
            for leaf in node.leaves():
                counts[leaf.formula] = counts.get(leaf.formula, 0) + 1
        elif not _applies(system, node):
            problems.append(f"node {print_formula(f)} does not instantiate rule {by.name} "
                            f"from {print_multiset(FMultiset(c.formula for c in node.children))}")

    # condition 4: non-axiom formulas label at most premises(f) leaves
    over = [f for f, n in counts.items() if n > premises.count(f)
            and f not in axioms and not system.is_axiom_instance(f)]
    for f in FMultiset(over).distinct():
        problems.append(f"{print_formula(f)} labels {counts[f]} leaves but occurs "
                        f"{premises.count(f)} times among the premises")
    leaves = _trusted(counts)
    surplus, unused = leaves - premises, premises - leaves
    if problems:
        return VerifyReport(RelevanceVerdict.INVALID, problems, surplus)
    weak = all(f in axioms or system.is_axiom_instance(f) for f, _ in unused.items())
    return VerifyReport(RelevanceVerdict.PLAIN if not weak else
                        RelevanceVerdict.WEAKLY_RELEVANT if unused else
                        RelevanceVerdict.RELEVANT if surplus else
                        RelevanceVerdict.STRONGLY_RELEVANT, [], surplus)


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
    return _renaming(_rule_step(*shape, tuple(map(_freeze, rule.left)), _freeze(rule.right)))


def axiom_has_shape(rule, shape: Formula) -> bool:
    """Whether an axiom, a rule with no premises, equals the shape up to renaming."""
    return rule_has_shape(rule, (EMPTY, shape))


def _find_rule(system: AxiomaticSystem, shape: tuple[FMultiset, Formula], what: str) -> str:
    """The name of the system's first rule of the shape, looked up once per
    system; RulesAbsentError on every call when there is none.  A shape with
    no premises finds only axioms, and any other only inference rules."""
    names = _rule_tables(system).names
    if shape not in names:
        names[shape] = next((r.name for r in system.rules if rule_has_shape(r, shape)), None)
    name = names[shape]
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
    mp = _find_rule(system, MP_SHAPE, "modus ponens rule")
    wk = _find_rule(system, WEAKENING_SHAPE, "weakening rule")
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
    mp = _find_rule(system, MP_SHAPE, "modus ponens rule")
    ax_i = _find_rule(system, (EMPTY, I_SHAPE), "identity axiom")
    ax_b = _find_rule(system, (EMPTY, B_SHAPE), "prefixing axiom")
    ax_c = _find_rule(system, (EMPTY, C_SHAPE), "permutation axiom")
    for rule in system.inference_rules:
        if rule.name != mp:
            raise UnsupportedSystemError(
                f"system {system.name} has a rule beyond modus ponens: {rule.name}")

    # a relevant tree has premises <= leaves, so some leaf is labelled phi
    path = _leftmost_occurrence(tree, phi)

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
    """Indexes of (major, minor) among a verified mp node's two children,
    which are A -> B and A."""
    a, b = node.children
    return (0, 1) if a.formula == Imp(b.formula, node.formula) else (1, 0)


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
    premises and goal (by size, then text), worked out the first time a
    variable is met.  The first witness under the canonical branch order is
    returned, so the result is deterministic and node-minimal.  ``None``
    means no proof within ``max_nodes``; it is not a disproof.

    Resources are managed input/output style (Hodas and Miller, 1994): the
    root asks for proofs that use exactly ``premises``; a rule's subgoals but
    the last may take any part of what their goal has, and the last must use
    exactly what they leave.  An exact premise leaf needs its one formula
    and nothing else, and an exact axiom leaf needs nothing.  An exact goal
    below its floor (see _floor) fails at once, and the deepening starts at
    the root's floor; a rule with more premises than nodes left is skipped
    before its conclusion is unified.  The branch order is the one that
    lets every subgoal take any part and checks ``used == premises`` at the
    root; each prune drops only branches whose proofs could not pass that
    check or the node bound, and none reorders the rest, so the first
    witness, which is the node-minimal one, is the same.
    """
    if system.symmetric:
        raise ValueError("search expects a single-conclusion system")
    state = _SearchState(system, premises, goal)
    for budget in range(_floor(premises.size), max_nodes + 1):
        for tree, _, theta in state.prove(goal, premises, budget, {}, exact=True):
            if tree.node_count() == budget:
                return state.ground(tree, theta)
    return None


def _floor(n: int) -> int:
    """The fewest nodes of a proof that uses exactly n premise occurrences:
    each labels a leaf of its own, and two or more leaves hang below at
    least one rule node."""
    return n + 1 if n >= 2 else max(n, 1)


def _rename_vars(schema: Formula) -> Formula:
    """Push a schema's metavariables into a private namespace before unifying
    (``_SearchState._fresh`` renames each use further apart)."""
    return _map_vars(schema, lambda v: Var("\x02" + v.name))


_HOLE = Var("?")


def _masked(f: Formula) -> str:
    # the printed form with every variable shown alike, so that a size tie
    # between subgoals never turns on a fresh variable's name
    return str(_map_vars(f, lambda v: _HOLE))


def _vars_of(rule: NamedRule) -> list[str]:
    """The names of a rule's distinct metavariables, sorted."""
    return sorted(set().union(*map(metavars, _rule_schemata(rule))))


# A rule table entry: the rule, its metavariables' names, and its conclusion
# with them renamed into the private namespace untagged.  Every goal variable
# carries a use tag, so a goal shares no variable with a head, and a goal
# unifies with a head exactly when it unifies with a renamed-apart copy.
_Entry = tuple[NamedRule, list[str], Formula]


class _Tables(NamedTuple):
    """What is worked out once per system: the search's single-conclusion
    axioms and inference rules as table entries, and, per shape asked of
    _find_rule, the name of the first rule of that shape, or None when the
    system has none."""

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
            return [] if system.symmetric else [
                (rule, _vars_of(rule), _rename_vars(rule.right)) for rule in rules]

        tables = _TABLES[system] = _Tables(
            entries(system.axioms), entries(system.inference_rules), {})
    return tables


class _SearchState:
    """Proof search over one system; ``fruitless`` remembers, per ground
    (goal, available premises, exact), the largest budget that found nothing.

    The axiom and rule tables are the system's, built once.  A use is
    renamed apart only after the goal unifies with the rule's untagged head,
    so the ``#n`` tags count the uses that unify."""

    def __init__(self, system: AxiomaticSystem, premises: FMultiset, goal: Formula):
        self._premises, self._goal = premises, goal
        self._filler: Optional[Formula] = None
        self.fruitless: dict[tuple, int] = {}
        self._uses = 0
        self._axioms, self._rules, _ = _rule_tables(system)

    def _fresh(self, names: list[str]) -> dict[str, Formula]:
        """Each named variable renamed apart from every earlier rule or axiom use."""
        self._uses += 1
        tag = "#" + str(self._uses)
        return {name: Var("\x02" + name + tag) for name in names}

    def _uses_of(self, table: list[_Entry], goal: Formula, room: Optional[int] = None
                 ) -> Iterator[tuple[NamedRule, dict[str, Formula], dict]]:
        """Each entry whose head unifies with the goal, renamed apart, with
        the renaming and the goal's unifier with the renamed conclusion; an
        entry with more left-side schemas than ``room`` nodes, one per
        subgoal, is skipped before its head is unified.

        That unifier is the head's, renamed the same way: the renaming is
        a bijection onto names no goal holds, so unifying again would bind
        the same variables to the same terms in the same order."""
        for rule, names, head in table:
            if room is not None and rule.left.size > room:
                continue
            mgu = unify(goal, head)
            if mgu is not None:
                sigma = self._fresh(names)
                ren = {"\x02" + name: v for name, v in sigma.items()}
                yield rule, sigma, {ren[k].name if k in ren else k: substitute_partial(f, ren)
                                    for k, f in mgu.items()}

    def _fill(self, _: Var) -> Formula:
        """The least subformula of the premises and goal, by size and then
        text, which fills every open variable; found on first use."""
        if self._filler is None:
            closure = subformulas(self._goal).union(*map(subformulas, self._premises.support))
            self._filler = min(closure, key=lambda f: (formula_size(f), str(f)))
        return self._filler

    def ground(self, tree: ProofTree, theta: dict) -> ProofTree:
        """The tree under ``theta``, with every variable left open filled."""
        # recursive, not the fold: its depth is at most max_nodes, and the fold costs search time
        def fix(f: Formula) -> Formula:
            return _map_vars(_resolve(f, theta), self._fill)

        by = tree.by
        if not isinstance(by, PremiseJust):
            by = type(by)(by.name, {v: fix(f) for v, f in by.subst.items()})
        return ProofTree(fix(tree.formula), by,
                         tuple(self.ground(c, theta) for c in tree.children))

    def prove(self, goal: Formula, avail: FMultiset, budget: int, theta: dict,
              exact: bool) -> Iterator[tuple[ProofTree, FMultiset, dict]]:
        """Proofs of ``goal`` under ``theta`` from part of ``avail``, or from
        all of it when ``exact``, within ``budget`` nodes, each with the
        premises it uses and the bindings; only a ground goal reads and
        writes ``fruitless``."""
        if budget < (_floor(avail.size) if exact else 1):
            return
        goal = _resolve(goal, theta)
        key = (goal, avail, exact) if goal._ground else None
        if key is not None and self.fruitless.get(key, 0) >= budget:
            return
        yielded = False
        for result in self._prove_raw(goal, avail, budget, theta, exact):
            yielded = True
            yield result
        if key is not None and not yielded:
            self.fruitless[key] = budget

    def _prove_raw(self, goal, avail, budget, theta, exact):
        """Close the goal against a premise, an axiom or a rule's conclusion,
        in that order, binding variables by unification."""
        if not exact or avail.size == 1:
            for f in avail.distinct():
                mgu = unify(goal, f)
                if mgu is not None:
                    yield premise_leaf(f), FMultiset([f]), {**theta, **mgu}
        if not (exact and avail):
            for ax, sigma, mgu in self._uses_of(self._axioms, goal):
                yield axiom_leaf(goal, ax.name, sigma), EMPTY, {**theta, **mgu}
        if budget < 2:
            return
        for rule, sigma, mgu in self._uses_of(self._rules, goal, budget - 1):
            bound = {**theta, **mgu}
            # most-constrained (largest) subgoal first fails fastest
            subgoals = _larger_first(
                [_resolve(substitute(s, sigma), bound) for s in rule.left], text=_masked)
            for children, used, theta2 in self._prove_seq(subgoals, avail, budget - 1,
                                                          bound, exact):
                yield ProofTree(goal, RuleJust(rule.name, sigma), children), used, theta2

    def _prove_seq(self, subgoals: list[Formula], avail: FMultiset, budget: int,
                   theta: dict, exact: bool
                   ) -> Iterator[tuple[tuple[ProofTree, ...], FMultiset, dict]]:
        """Proofs of the subgoals in turn; when ``exact``, the last uses
        exactly what the others leave."""
        if not subgoals:
            if not (exact and avail):
                yield (), EMPTY, theta
            return
        head, rest = subgoals[0], subgoals[1:]
        # reserve at least one node per remaining subgoal
        for t1, u1, th1 in self.prove(head, avail, budget - len(rest), theta,
                                      exact and not rest):
            n1 = t1.node_count()
            for ts, u2, th2 in self._prove_seq(rest, avail - u1, budget - n1, th1, exact):
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
