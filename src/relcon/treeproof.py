"""Tree proofs: verification with relevance classification, Cut composition,
the weakening pump, bounded backward search, and the implication-discharge
transformer for BCI-style systems.

A proof of ``goal`` from a premise multiset ``premises`` in a
single-conclusion system is a finite formula-labelled tree such that

  1. the root is labelled by ``goal``;
  2. every leaf label is an axiom instance or lies in the premise support;
  3. every internal node instantiates a rule: its label is the instantiated
     conclusion and its children's labels form the instantiated premise
     multiset;
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
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Mapping, Optional

from .multiset import EMPTY, FMultiset
from .syntax import (
    Atom,
    AxiomaticSystem,
    Formula,
    Imp,
    MissingBindingError,
    NamedRule,
    Var,
    _TOO_DEEP,
    _larger_first,
    _map_vars,
    _rule_schemata,
    alpha_variant,
    formula_size,
    match,
    match_multiset,
    metavars,
    parse_formula,
    print_formula,
    print_multiset,
    subformulas,
    substitute,
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


@dataclass(frozen=True)
class ProofTree:
    formula: Formula
    by: Justification
    children: tuple["ProofTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # the walks below are iterative: a tree loaded from a file can be
    # nested deeper than the interpreter's recursion limit

    def node_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def leaves(self) -> Iterator["ProofTree"]:
        """The leaves, left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                yield node


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


def _rule_instance(system: AxiomaticSystem, just: AxiomJust | RuleJust,
                   conclusion: Formula, child_labels: FMultiset) -> Optional[dict]:
    """A substitution making the named axiom or rule produce this node, if
    any; an axiom produces a leaf, so its child labels are EMPTY."""
    try:
        rule = system.get(just.name)
    except KeyError:
        return None
    if rule.is_axiom != isinstance(just, AxiomJust) or isinstance(rule.right, FMultiset):
        return None
    if just.subst is not None:
        sigma = dict(just.subst)
        try:
            if substitute(rule.right, sigma) != conclusion:
                return None
            if FMultiset(substitute(s, sigma) for s in rule.left) != child_labels:
                return None
        except MissingBindingError:
            return None
        return sigma
    sigma0 = match(rule.right, conclusion)
    if sigma0 is None:
        return None
    return next(match_multiset(rule.left, child_labels, sigma0), None)


def verify_report(tree: ProofTree, system: AxiomaticSystem,
                  premises: FMultiset, goal: Formula) -> VerifyReport:
    """Check the four proof conditions and classify the relevance of the tree."""
    if system.symmetric:
        raise ValueError("verify expects a single-conclusion system")
    problems: list[str] = []
    leaves = leaf_multiset(tree)

    if tree.formula != goal:
        problems.append(
            f"root is {print_formula(tree.formula)}, goal is {print_formula(goal)}")

    def check(node: ProofTree) -> bool:
        """Report the node's own problems; whether to check its children."""
        if node.is_leaf:
            if isinstance(node.by, RuleJust):
                problems.append(
                    f"leaf {print_formula(node.formula)} carries a rule justification")
                return False
            if (isinstance(node.by, AxiomJust)
                    and _rule_instance(system, node.by, node.formula, EMPTY) is None):
                problems.append(
                    f"leaf {print_formula(node.formula)} is not an instance "
                    f"of axiom {node.by.name}")
                return False
            if not (system.is_axiom_instance(node.formula)
                    or node.formula in premises.support):
                problems.append(
                    f"leaf {print_formula(node.formula)} is neither an axiom "
                    f"instance nor a premise")
            return False
        if not isinstance(node.by, RuleJust):
            problems.append(
                f"internal node {print_formula(node.formula)} lacks a rule justification")
            return False
        child_labels = FMultiset(c.formula for c in node.children)
        if _rule_instance(system, node.by, node.formula, child_labels) is None:
            problems.append(
                f"node {print_formula(node.formula)} does not instantiate rule "
                f"{node.by.name} from {print_multiset(child_labels)}")
        return True

    # depth first, left to right, without recursion
    stack = [tree]
    while stack:
        node = stack.pop()
        if check(node):
            stack.extend(reversed(node.children))

    # condition 4: non-axiom formulas label at most premises(f) leaves
    for f in leaves.distinct():
        if not system.is_axiom_instance(f) and leaves.count(f) > premises.count(f):
            problems.append(
                f"{print_formula(f)} labels {leaves.count(f)} leaves but occurs "
                f"{premises.count(f)} times among the premises")

    surplus = leaves - premises
    if problems:
        return VerifyReport(RelevanceVerdict.INVALID, problems, leaves, surplus)

    verdict = RelevanceVerdict.PLAIN
    if all(system.is_axiom_instance(f) for f in (premises - leaves).support):
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
    done = False

    def go(node: ProofTree) -> ProofTree:
        nonlocal done
        if done:
            return node
        if node.is_leaf:
            if isinstance(node.by, PremiseJust) and node.formula == cut_formula:
                done = True
                return sub
            return node
        new_children = []
        for c in node.children:
            new_children.append(go(c))
        return ProofTree(node.formula, node.by, tuple(new_children))

    out = go(tree)
    if not done:
        raise NoPremiseLeafError(
            f"no premise leaf labelled {print_formula(cut_formula)}")
    return out


# shapes used to recognise the rules pump_use and deduction_transform need
_V0, _V1, _V2 = Var("\x01a"), Var("\x01b"), Var("\x01c")
MP_SHAPE = (FMultiset([Imp(_V0, _V1), _V0]), _V1)
WEAKENING_SHAPE = (FMultiset([_V0]), Imp(_V1, _V0))
I_SHAPE = Imp(_V0, _V0)
B_SHAPE = Imp(Imp(_V0, _V1), Imp(Imp(_V2, _V0), Imp(_V2, _V1)))
C_SHAPE = Imp(Imp(_V0, Imp(_V1, _V2)), Imp(_V1, Imp(_V0, _V2)))


# marks a rule's conclusion among its premises; no parsed atom has this name
_CONCLUSION = Atom("\x03")


def _rule_as_multiset(left: FMultiset, right: Formula) -> FMultiset:
    """A rule's schemata as one multiset, the conclusion marked, so that a
    match can pair the conclusion with no premise."""
    return FMultiset([*left, Imp(_CONCLUSION, right)])


def rule_has_shape(rule, shape: tuple[FMultiset, Formula]) -> bool:
    """Whether a single-conclusion rule equals the shape up to renaming."""
    if isinstance(rule.right, FMultiset):
        return False
    return alpha_variant(_rule_as_multiset(rule.left, rule.right),
                         _rule_as_multiset(*shape))


def axiom_has_shape(rule, shape: Formula) -> bool:
    return (rule.is_axiom and not isinstance(rule.right, FMultiset)
            and alpha_variant(rule.right, shape))


def _find_rule(system: AxiomaticSystem, shape, axiom: bool, what: str) -> str:
    for r in system.rules:
        if axiom and axiom_has_shape(r, shape):
            return r.name
        if not axiom and not r.is_axiom and rule_has_shape(r, shape):
            return r.name
    raise RulesAbsentError(f"system {system.name} has no {what}")


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

    def rebuild(node: ProofTree, path: tuple[int, ...]) -> ProofTree:
        if not path:
            return _instance(system, ax_i, Imp(phi, phi))
        major_ix, minor_ix = _split_mp(node)
        major, minor = node.children[major_ix], node.children[minor_ix]
        chi, psi = minor.formula, node.formula
        branch, rest = path[0], path[1:]
        if branch == minor_ix and not rest:
            # identity case: the discharged occurrence is the whole minor
            # premise, so the major subtree already proves phi -> psi
            return major
        if branch == minor_ix:
            # phi is used to prove the minor premise chi
            lifted = rebuild(minor, rest)  # proves phi -> chi
            b_inst = _instance(
                system, ax_b,
                Imp(Imp(chi, psi), Imp(Imp(phi, chi), Imp(phi, psi))))
            step = ProofTree(Imp(Imp(phi, chi), Imp(phi, psi)),
                             RuleJust(mp), (b_inst, major))
            return ProofTree(Imp(phi, psi), RuleJust(mp), (step, lifted))
        # phi is used to prove the major premise chi -> psi
        lifted = rebuild(major, rest)  # proves phi -> (chi -> psi)
        c_inst = _instance(
            system, ax_c,
            Imp(Imp(phi, Imp(chi, psi)), Imp(chi, Imp(phi, psi))))
        step = ProofTree(Imp(chi, Imp(phi, psi)), RuleJust(mp), (c_inst, lifted))
        return ProofTree(Imp(phi, psi), RuleJust(mp), (step, minor))

    return rebuild(tree, path)


def _leftmost_occurrence(tree: ProofTree, phi: Formula) -> Optional[tuple[int, ...]]:
    best_any = None

    def go(node: ProofTree, path: tuple[int, ...]):
        nonlocal best_any
        if node.is_leaf:
            if node.formula == phi:
                if isinstance(node.by, PremiseJust):
                    return path
                if best_any is None:
                    best_any = path
            return None
        for i, c in enumerate(node.children):
            hit = go(c, path + (i,))
            if hit is not None:
                return hit
        return None

    found = go(tree, ())
    return found if found is not None else best_any


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
    or another rule's conclusion.  A variable still open when a proof closes
    is grounded with the least subformula of the premises and goal (by size,
    then text).  The first witness under the canonical branch order is
    returned, so the result is deterministic and node-minimal.  ``None``
    means no proof within ``max_nodes``; it is not a disproof.
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


def _resolve(f: Formula, theta: dict) -> Formula:
    """The formula under the bindings ``theta``, followed to the end."""
    if not theta:
        return f
    return _map_vars(f, lambda v: _resolve(theta[v.name], theta) if v.name in theta else v)


class _SearchState:
    """Proof search over one system; ``fruitless`` remembers, per ground
    (goal, available premises), the largest budget that found nothing."""

    def __init__(self, system: AxiomaticSystem, filler: Formula):
        self.filler = filler
        self.fruitless: dict[tuple, int] = {}
        self._uses = 0
        self._axioms = [(ax, _vars_of(ax)) for ax in system.axioms
                        if not isinstance(ax.right, FMultiset)]
        self._rules = [(rule, _vars_of(rule)) for rule in system.inference_rules
                       if not isinstance(rule.right, FMultiset)]

    def _fresh(self, variables: list[Var]) -> dict[str, Formula]:
        """Each variable renamed apart from every earlier rule or axiom use."""
        self._uses += 1
        tag = "#" + str(self._uses)
        return {v.name: _rename_vars(v, tag) for v in variables}

    def ground(self, tree: ProofTree, theta: dict) -> ProofTree:
        """The tree under ``theta``, with every variable left open filled."""
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
        for ax, variables in self._axioms:
            sigma = self._fresh(variables)
            mgu = unify(goal, substitute(ax.right, sigma))
            if mgu is not None:
                yield axiom_leaf(goal, ax.name, sigma), EMPTY, {**theta, **mgu}
        if budget < 2:
            return
        for rule, variables in self._rules:
            sigma = self._fresh(variables)
            mgu = unify(goal, substitute(rule.right, sigma))
            if mgu is None:
                continue
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
    out: dict = {"formula": print_formula(tree.formula)}
    by = tree.by
    if isinstance(by, PremiseJust):
        out["by"] = "premise"
    elif isinstance(by, AxiomJust):
        entry: dict = {"axiom": by.name}
        if by.subst is not None:
            entry["subst"] = {v: print_formula(f) for v, f in sorted(by.subst.items())}
        out["by"] = entry
    else:
        entry = {"rule": by.name}
        if by.subst is not None:
            entry["subst"] = {v: print_formula(f) for v, f in sorted(by.subst.items())}
        out["by"] = entry
    if tree.children:
        out["children"] = [proof_to_data(c) for c in tree.children]
    return out


def proof_from_data(data: dict) -> ProofTree:
    """Build a proof tree from its file form, without recursion.

    Nodes are checked in file order (depth first), so the first malformed
    node is the one reported; the tree is then assembled bottom-up.
    """
    parsed: list[tuple[Formula, Justification, int]] = []
    stack = [data]
    while stack:
        formula, just, children = _node_from_data(stack.pop())
        parsed.append((formula, just, len(children)))
        stack.extend(reversed(children))
    built: list[ProofTree] = []
    for formula, just, arity in reversed(parsed):
        children = tuple(built.pop() for _ in range(arity))
        built.append(ProofTree(formula, just, children))
    return built[0]


def _node_from_data(data) -> tuple[Formula, Justification, list]:
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
    return formula, just, children


def _subst_from(entry) -> Optional[dict]:
    """A stored substitution: an object from metavariable to formula text."""
    if entry is None:
        return None
    if not isinstance(entry, dict) or not all(isinstance(s, str) for s in entry.values()):
        raise ValueError('"subst" must be an object of formula strings')
    return {v: parse_formula(s) for v, s in entry.items()}


def dump_proof(tree: ProofTree) -> str:
    return json.dumps(proof_to_data(tree), indent=2)


def _json_loads(text: str):
    """json.loads, reporting nesting past the recursion limit as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def load_proof(text: str) -> ProofTree:
    return proof_from_data(_json_loads(text))
