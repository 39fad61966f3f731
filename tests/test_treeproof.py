import gc
import hashlib
import itertools
import json
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from relcon import (
    Atom,
    AxiomJust,
    AxiomaticSystem,
    FMultiset,
    Imp,
    Fusion,
    NoPremiseLeafError,
    NotRelevantError,
    PremiseJust,
    ProofTree,
    RelevanceVerdict,
    RuleJust,
    RulesAbsentError,
    TRUTH,
    UnsupportedSystemError,
    Var,
    axiom_leaf,
    cut_compose,
    deduction_transform,
    dump_proof,
    leaf_multiset,
    load_proof,
    load_system,
    parse_formula,
    parse_multiset,
    parse_system,
    premise_leaf,
    print_formula,
    print_multiset,
    pump_use,
    search,
    verify,
    verify_report,
)
from relcon import treeproof
from relcon.multiset import EMPTY
from relcon.oracles import FAILS, HOLDS
from relcon.semantics import MatrixOracle, load_matrix
from relcon.syntax import (
    MissingBindingError,
    _larger_first,
    _rule_schemata,
    _rule_step,
    formula_size,
    match,
    match_into,
    match_multiset,
    metavars,
    subformulas,
    substitute,
    unify,
)
from relcon.treeproof import (
    VerifyReport,
    _graft,
    _indexes,
    _masked,
    _resolve,
    _walk,
    proof_from_data,
    proof_to_data,
)
from conftest import FIXTURES, random_formula, random_relevant_proof

p, q, r = Atom("p"), Atom("q"), Atom("r")
x, y, z = Atom("x"), Atom("y"), Atom("z")
ms = parse_multiset


def mp_tree():
    return ProofTree(q, RuleJust("mp"), (premise_leaf(Imp(p, q)), premise_leaf(p)))


# -- leaf multisets -----------------------------------------------------------


def test_leaf_multiset_single_node():
    assert leaf_multiset(premise_leaf(x)) == FMultiset([x])


def test_leaf_multiset_mp():
    assert leaf_multiset(mp_tree()) == FMultiset([Imp(p, q), p])


def test_leaf_multiset_counts_add():
    sub = mp_tree()
    two = ProofTree(q, RuleJust("fake"), (premise_leaf(p), premise_leaf(p)))
    assert leaf_multiset(two).count(p) == 2


# -- verification: the toy system of the four verdict classes ------------------


@pytest.mark.parametrize("premises,expected", [
    ("[x, z]", RelevanceVerdict.PLAIN),
    ("[x, y]", RelevanceVerdict.WEAKLY_RELEVANT),
    ("[]", RelevanceVerdict.RELEVANT),
    ("[x]", RelevanceVerdict.STRONGLY_RELEVANT),
])
def test_toy_system_verdicts(toy_xy, premises, expected):
    tree = axiom_leaf(x, "ax")
    assert verify(tree, toy_xy, ms(premises), x) is expected


def test_toy_system_any_premises_plain(toy_xy):
    tree = axiom_leaf(x, "ax")
    for premises in ("[z, z, z]", "[x, x, y, z]"):
        assert verify(tree, toy_xy, ms(premises), x) >= RelevanceVerdict.PLAIN


def test_verdict_chain_is_ordered():
    assert (RelevanceVerdict.STRONGLY_RELEVANT > RelevanceVerdict.RELEVANT
            > RelevanceVerdict.WEAKLY_RELEVANT > RelevanceVerdict.PLAIN
            > RelevanceVerdict.INVALID)


def test_verify_mp(bci):
    assert verify(mp_tree(), bci, ms("[p->q, p]"), q) is RelevanceVerdict.STRONGLY_RELEVANT


def test_single_premise_node_strongly_relevant(bci):
    rng = random.Random(1)
    for _ in range(25):
        f = random_relevant_proof(rng, bci)[0].formula
        tree = premise_leaf(f)
        assert verify(tree, bci, FMultiset([f]), f) is RelevanceVerdict.STRONGLY_RELEVANT


def test_verify_wrong_root(bci):
    report = verify_report(mp_tree(), bci, ms("[p->q, p]"), p)
    assert report.verdict is RelevanceVerdict.INVALID
    assert any("root" in msg for msg in report.problems)


def test_verify_condition_four(bci):
    # q is not an axiom instance and not among the premises often enough
    two = ProofTree(q, RuleJust("mp"),
                    (premise_leaf(Imp(p, q)), premise_leaf(p)))
    report = verify_report(two, bci, ms("[p->q]"), q)
    assert report.verdict is RelevanceVerdict.INVALID
    assert report.surplus == FMultiset([p])


def test_verify_unknown_rule(bci):
    bad = ProofTree(q, RuleJust("nope"), (premise_leaf(Imp(p, q)), premise_leaf(p)))
    assert verify(bad, bci, ms("[p->q, p]"), q) is RelevanceVerdict.INVALID


def test_verify_bad_rule_instance(bci):
    bad = ProofTree(q, RuleJust("mp"), (premise_leaf(Imp(p, r)), premise_leaf(p)))
    assert verify(bad, bci, ms("[p->r, p]"), q) is RelevanceVerdict.INVALID


def test_verify_leaf_with_rule_justification(bci):
    bad = ProofTree(q, RuleJust("mp"))
    assert verify(bad, bci, ms("[q]"), q) is RelevanceVerdict.INVALID


def test_verify_axiom_name_checked(bci):
    bad = axiom_leaf(Imp(p, p), "B")
    assert verify(bad, bci, ms("[]"), Imp(p, p)) is RelevanceVerdict.INVALID
    good = axiom_leaf(Imp(p, p), "I")
    assert verify(good, bci, ms("[]"), Imp(p, p)) is RelevanceVerdict.RELEVANT


def test_verify_ignores_child_order(bci):
    flipped = ProofTree(q, RuleJust("mp"), (premise_leaf(p), premise_leaf(Imp(p, q))))
    assert verify(flipped, bci, ms("[p->q, p]"), q) is RelevanceVerdict.STRONGLY_RELEVANT


def test_verify_stored_subst_checked(bci):
    wrong = ProofTree(q, RuleJust("mp", {"p": r, "q": q}),
                      (premise_leaf(Imp(p, q)), premise_leaf(p)))
    assert verify(wrong, bci, ms("[p->q, p]"), q) is RelevanceVerdict.INVALID
    right = ProofTree(q, RuleJust("mp", {"p": p, "q": q}),
                      (premise_leaf(Imp(p, q)), premise_leaf(p)))
    assert verify(right, bci, ms("[p->q, p]"), q) >= RelevanceVerdict.RELEVANT


def test_no_axioms_collapses_relevance_classes():
    # with no axioms the weak/plain/strong distinctions collapse
    system = parse_system("system MpOnly\nrule mp : p -> q, p |- q\n")
    rng = random.Random(3)
    for _ in range(60):
        tree, premises = random_relevant_proof(rng, system)
        verdict = verify(tree, system, premises, tree.formula)
        if verdict >= RelevanceVerdict.WEAKLY_RELEVANT:
            assert verdict is RelevanceVerdict.STRONGLY_RELEVANT


def _substitute_atoms(f, mapping):
    from relcon import Atom as A, Neg, Imp as I, Fusion as F, Conj, Disj

    if isinstance(f, A):
        return mapping.get(f.name, f)
    if isinstance(f, Neg):
        return Neg(_substitute_atoms(f.body, mapping))
    if isinstance(f, (I, F, Conj, Disj)):
        return type(f)(_substitute_atoms(f.left, mapping),
                       _substitute_atoms(f.right, mapping))
    return f


def _substitute_tree(tree, mapping):
    by = tree.by
    if isinstance(by, (AxiomJust, RuleJust)) and by.subst is not None:
        by = type(by)(by.name, {v: _substitute_atoms(f, mapping)
                                for v, f in by.subst.items()})
    return ProofTree(_substitute_atoms(tree.formula, mapping), by,
                     tuple(_substitute_tree(c, mapping) for c in tree.children))


def test_relevant_proofs_closed_under_substitution(bci):
    # replacing atoms by formulas throughout keeps a relevant proof relevant,
    # even when the substitution collapses distinct premises
    rng = random.Random(41)
    targets = [parse_formula(s) for s in ["q -> q", "p", "r -> (p -> q)"]]
    for _ in range(60):
        tree, premises = random_relevant_proof(rng, bci)
        mapping = {name: rng.choice(targets) for name in "pqr"}
        mapped_tree = _substitute_tree(tree, mapping)
        mapped_premises = FMultiset(_substitute_atoms(f, mapping) for f in premises)
        goal = _substitute_atoms(tree.formula, mapping)
        assert verify(mapped_tree, bci, mapped_premises, goal) \
            >= RelevanceVerdict.RELEVANT


def test_deduction_with_axiom_instance_premise(bci):
    # a premise that happens to be an axiom instance can still be discharged
    identity = Imp(p, p)
    tree = axiom_leaf(identity, "I", {"p": p})
    assert verify(tree, bci, ms("[p -> p]"), identity) is RelevanceVerdict.STRONGLY_RELEVANT
    out = deduction_transform(tree, bci, ms("[p -> p]"), identity)
    assert verify(out, bci, ms("[]"), Imp(identity, identity)) \
        >= RelevanceVerdict.RELEVANT


# -- cut composition ------------------------------------------------------------


def test_cut_identity(bci):
    out = cut_compose(mp_tree(), premise_leaf(p), bci, p)
    assert out == mp_tree()


def test_cut_leaf_bookkeeping(bci):
    # leaves of the composite: counts add, minus one for the cut formula
    t = mp_tree()
    s = premise_leaf(p)
    out = cut_compose(t, s, bci, p)
    lt, ls, lo = leaf_multiset(t), leaf_multiset(s), leaf_multiset(out)
    for f in (lt + ls).support:
        expected = lt.count(f) + ls.count(f) - (1 if f == p else 0)
        assert lo.count(f) == expected


def test_cut_no_leaf_error(bci):
    with pytest.raises(NoPremiseLeafError):
        cut_compose(mp_tree(), premise_leaf(r), bci, r)


def test_cut_compose_preserves_relevance(bci):
    rng = random.Random(5)
    composed = 0
    for _ in range(200):
        t, prem_t = random_relevant_proof(rng, bci)
        s, prem_s = random_relevant_proof(rng, bci)
        psi = s.formula
        if prem_t.count(psi) == 0:
            continue
        out = cut_compose(t, s, bci, psi)
        target = (prem_t - FMultiset([psi])) + prem_s
        assert verify(out, bci, target, t.formula) >= RelevanceVerdict.RELEVANT
        composed += 1
    assert composed >= 5


# -- the weakening pump ----------------------------------------------------------


def test_pump_extends_by_three_nodes(bci_weak):
    base = axiom_leaf(Imp(p, p), "I", {"p": p})
    out = pump_use(base, q, bci_weak)
    assert out.node_count() == base.node_count() + 3
    assert out.formula == Imp(p, p)
    assert verify(out, bci_weak, ms("[q]"), Imp(p, p)) is RelevanceVerdict.RELEVANT


def test_pump_twice_counts(bci_weak):
    base = axiom_leaf(Imp(p, p), "I", {"p": p})
    out = pump_use(pump_use(base, q, bci_weak), q, bci_weak)
    assert leaf_multiset(out).count(q) == 2
    assert verify(out, bci_weak, ms("[q, q]"), Imp(p, p)) is RelevanceVerdict.RELEVANT


def test_pump_requires_rules(bci):
    base = axiom_leaf(Imp(p, p), "I", {"p": p})
    with pytest.raises(RulesAbsentError):
        pump_use(base, q, bci)  # plain BCI has no weakening rule


def test_pump_verifies_at_least_as_well(bci_weak):
    tree = mp_tree()
    out = pump_use(tree, r, bci_weak)
    assert (verify(out, bci_weak, ms("[p->q, p, r]"), q)
            >= verify(tree, bci_weak, ms("[p->q, p]"), q))


def test_pump_closes_the_gap_between_plain_and_relevant(bci_weak):
    # with modus ponens and weakening around, a proof that merely tolerates
    # extra premises can be pumped into one that uses every occurrence
    tree = axiom_leaf(Imp(p, p), "I", {"p": p})
    premises = ms("[q, q, r]")
    assert verify(tree, bci_weak, premises, Imp(p, p)) is RelevanceVerdict.PLAIN
    for extra in premises:
        tree = pump_use(tree, extra, bci_weak)
    assert verify(tree, bci_weak, premises, Imp(p, p)) is RelevanceVerdict.RELEVANT


# -- bounded search ---------------------------------------------------------------


def test_search_mp(bci):
    tree = search(bci, ms("[p->q, p]"), q)
    assert tree is not None and tree.node_count() == 3
    assert verify(tree, bci, ms("[p->q, p]"), q) >= RelevanceVerdict.RELEVANT


def test_search_axiom(bci):
    tree = search(bci, ms("[]"), parse_formula("p -> p"))
    assert tree is not None and tree.node_count() == 1
    assert isinstance(tree.by, AxiomJust) and tree.by.name == "I"


def test_search_none_within_bounds(bci):
    assert search(bci, ms("[p]"), q, max_nodes=6) is None


def assert_ground(tree):
    """No metavariable is left in any formula or substitution of the tree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        subst = getattr(node.by, "subst", None) or {}
        assert not any(metavars(f) for f in [node.formula, *subst.values()]), node
        stack.extend(node.children)


def test_search_returns_relevant_witnesses(bci):
    rng = random.Random(9)
    for _ in range(20):
        tree, premises = random_relevant_proof(rng, bci, max_nodes=7)
        found = search(bci, premises, tree.formula, max_nodes=tree.node_count())
        assert found is not None and found.node_count() <= tree.node_count()
        assert verify(found, bci, premises, tree.formula) >= RelevanceVerdict.RELEVANT
        assert_ground(found)


def test_search_three_link_chain(bci):
    premises, goal = ms("[p->q, q->r, r->s]"), parse_formula("p -> s")
    tree = search(bci, premises, goal, max_nodes=11)
    assert tree is not None and tree.node_count() == 9
    assert verify(tree, bci, premises, goal) >= RelevanceVerdict.RELEVANT
    assert_ground(tree)


def test_search_closes_subgoals_against_premises_in_canonical_order(bci):
    # two 5-node witnesses: the one found first closes the major premise of
    # the root against the first premise in canonical order
    premises = ms("[(((r -> p) -> p) -> ((r -> p) -> p)) -> p, p -> p]")
    tree = search(bci, premises, p)
    assert [(str(leaf.formula), str(leaf.by)) for leaf in tree.leaves()] == [
        ("(((r -> p) -> p) -> ((r -> p) -> p)) -> p", "premise"),
        ("(p -> p) -> (((r -> p) -> p) -> ((r -> p) -> p))", "axiom B"),
        ("p -> p", "premise")]


def test_search_grounds_an_open_variable_with_the_least_subformula():
    # r's premise is open, and the identity axiom closes it for any value
    detour = parse_system("system Detour\naxiom I : p -> p\nrule r : p |- 'b'\n")
    goal = Atom("b")
    tree = search(detour, ms("[]"), goal, max_nodes=4)
    assert tree == ProofTree(goal, RuleJust("r", {"p": Imp(goal, goal)}),
                             (axiom_leaf(Imp(goal, goal), "I", {"p": goal}),))
    assert verify(tree, detour, ms("[]"), goal) >= RelevanceVerdict.RELEVANT


def test_search_fills_an_open_variable_by_size_then_text_not_with_the_goal():
    # lift's premise p -> p is open; a is the least subformula of b -> a
    bare = parse_system("system Bare\naxiom I : p -> p\nrule k : p, q |- p\n"
                        "rule lift : p -> p |- q\n")
    goal, a = parse_formula("b -> a"), Atom("a")
    assert search(bare, ms("[]"), goal, max_nodes=4) == ProofTree(
        goal, RuleJust("lift", {"p": a, "q": goal}), (axiom_leaf(Imp(a, a), "I", {"p": a}),))


def _enumerate_conclusions(system, premises, max_nodes, instance_values):
    """Independent oracle: all (formula, premises-used) provable with <= n nodes.

    Dynamic programming over exact node counts; axiom instances range over the
    given instantiation values.  Used to confirm search minimality.
    """
    instances = []
    for ax in system.axioms:
        names = sorted({v for v in _schema_var_names(ax.right)})
        for values in itertools.product(instance_values, repeat=len(names)):
            from relcon import substitute
            instances.append(substitute(ax.right, dict(zip(names, values))))
    layers = {1: set()}
    for f in premises.support:
        layers[1].add((f, FMultiset([f])))
    for inst in instances:
        layers[1].add((inst, FMultiset()))
    for n in range(2, max_nodes + 1):
        layer = set()
        for i in range(1, n - 1):
            j = n - 1 - i
            for (maj, u1) in layers.get(i, ()):
                if not isinstance(maj, Imp):
                    continue
                for (minor, u2) in layers.get(j, ()):
                    if maj.left == minor:
                        used = u1 + u2
                        if used <= premises:
                            layer.add((maj.right, used))
        layers[n] = layer
    return layers


def _schema_var_names(schema):
    from relcon import Var, Neg, Imp, Fusion, Conj, Disj
    if isinstance(schema, Var):
        return {schema.name}
    if isinstance(schema, Neg):
        return _schema_var_names(schema.body)
    if isinstance(schema, (Imp, Fusion, Conj, Disj)):
        return _schema_var_names(schema.left) | _schema_var_names(schema.right)
    return set()


def test_search_fusion_intro_minimal(bcio):
    # p o p from [p, p]: the minimal relevant proof has 7 nodes
    goal = parse_formula("p o p")
    premises = ms("[p, p]")
    tree = search(bcio, premises, goal, max_nodes=8)
    assert tree is not None
    assert tree.node_count() == 7
    assert verify(tree, bcio, premises, goal) >= RelevanceVerdict.RELEVANT
    assert search(bcio, premises, goal, max_nodes=6) is None
    # independent enumeration over small instantiation values agrees
    values = [p, Fusion(p, p), Imp(p, p), Imp(Fusion(p, p), Fusion(p, p))]
    layers = _enumerate_conclusions(bcio, premises, 7, values)
    hits = {n for n, layer in layers.items()
            if any(f == goal and used == premises for f, used in layer)}
    assert hits == {7}


# -- the implication-discharge transformer ------------------------------------------


def test_deduction_identity_case(bci):
    out = deduction_transform(mp_tree(), bci, ms("[p->q, p]"), p)
    assert out == premise_leaf(Imp(p, q))
    assert verify(out, bci, ms("[p->q]"), Imp(p, q)) >= RelevanceVerdict.RELEVANT


def test_deduction_on_an_mp_node_that_lists_its_minor_premise_first(bci):
    tree = ProofTree(q, RuleJust("mp"), (premise_leaf(p), premise_leaf(Imp(p, q))))
    premises = ms("[p -> q, p]")
    assert verify(tree, bci, premises, q) >= RelevanceVerdict.RELEVANT
    for phi in (p, Imp(p, q)):
        out = deduction_transform(tree, bci, premises, phi)
        rest = premises - FMultiset([phi])
        assert verify(out, bci, rest, Imp(phi, q)) >= RelevanceVerdict.RELEVANT


def test_deduction_base_case(bci):
    out = deduction_transform(premise_leaf(p), bci, ms("[p]"), p)
    assert isinstance(out.by, AxiomJust) and out.by.name == "I"
    assert verify(out, bci, ms("[]"), Imp(p, p)) >= RelevanceVerdict.RELEVANT


def test_deduction_double_mp(bci):
    inner = ProofTree(Imp(p, q), RuleJust("mp"),
                      (premise_leaf(parse_formula("p -> (p -> q)")), premise_leaf(p)))
    tree = ProofTree(q, RuleJust("mp"), (inner, premise_leaf(p)))
    premises = ms("[p -> (p -> q), p, p]")
    assert verify(tree, bci, premises, q) >= RelevanceVerdict.RELEVANT
    out = deduction_transform(tree, bci, premises, p)
    rest = ms("[p -> (p -> q), p]")
    assert verify(out, bci, rest, Imp(p, q)) >= RelevanceVerdict.RELEVANT
    # cross-check existence by bounded search
    assert search(bci, rest, Imp(p, q), max_nodes=9) is not None


def test_deduction_requires_relevant_input(bci):
    plain = axiom_leaf(Imp(p, p), "I", {"p": p})
    with pytest.raises(NotRelevantError):
        deduction_transform(plain, bci, ms("[q]"), q)


def test_deduction_requires_supported_system(bci_weak, toy_xy):
    with pytest.raises(UnsupportedSystemError):
        # the weakening rule is not part of the supported format
        deduction_transform(mp_tree(), bci_weak, ms("[p->q, p]"), p)
    with pytest.raises(RulesAbsentError):
        deduction_transform(premise_leaf(x), toy_xy, ms("[x]"), x)


def test_deduction_requires_premise(bci):
    with pytest.raises(ValueError):
        deduction_transform(mp_tree(), bci, ms("[p->q, p]"), r)


def test_deduction_roundtrip_random(bci, bcio):
    rng = random.Random(17)
    done = 0
    for _ in range(120):
        fusion = rng.random() < 0.4
        system = bcio if fusion else bci
        tree, premises = random_relevant_proof(rng, system, fusion=fusion)
        if premises.size == 0:
            continue
        phi = rng.choice(premises.distinct())
        out = deduction_transform(tree, system, premises, phi)
        rest = premises - FMultiset([phi])
        goal = Imp(phi, tree.formula)
        assert verify(out, system, rest, goal) >= RelevanceVerdict.RELEVANT
        # reattach: modus ponens with a fresh premise leaf restores the input shape
        back = ProofTree(tree.formula, RuleJust("mp"), (out, premise_leaf(phi)))
        assert verify(back, system, premises, tree.formula) >= RelevanceVerdict.RELEVANT
        done += 1
    assert done >= 60


# -- proof files --------------------------------------------------------------------


def test_proof_json_roundtrip(bci):
    tree = mp_tree()
    text = dump_proof(tree)
    again = load_proof(text)
    assert again == tree
    assert dump_proof(again) == text


def test_proof_json_with_subst(bcio):
    tree = axiom_leaf(Imp(p, p), "I", {"p": p})
    text = dump_proof(tree)
    again = load_proof(text)
    assert again.by.subst == {"p": p}
    assert dump_proof(again) == text


@pytest.mark.parametrize("text", [
    '["q"]',
    '{"by": "premise"}',
    '{"formula": 1}',
    '{"formula": "q", "by": {"rule": "mp"}, "children": {"formula": "p"}}',
    '{"formula": "q", "by": {"rule": "mp"}, "children": [{"formula": "p"}, "p"]}',
    '{"formula": "p", "by": {"axiom": ["I"]}}',
    '{"formula": "q", "by": {"rule": "mp", "subst": ["p"]}}',
    '{"formula": "q", "by": {"rule": "mp", "subst": {"p": 1}}}',
])
def test_proof_json_shape_errors(text):
    with pytest.raises(ValueError):
        load_proof(text)


def test_proof_json_shape(bci):
    data = dump_proof(mp_tree())
    assert '"by": "premise"' in data
    assert '"rule": "mp"' in data


# -- search witnesses --------------------------------------------------------------

# The first witness of each 5-node BCIo shape, as ``dump_proof`` printed it
# before formula nodes cached their printed form and size: the subgoal order
# (largest first, ties by text) and so the witness must not move.
FIVE_NODE_WITNESSES = [
    ("[p->q, q->r, p]", "r", """\
{
  "formula": "r",
  "by": {
    "rule": "mp",
    "subst": {
      "p": "q",
      "q": "r"
    }
  },
  "children": [
    {
      "formula": "q -> r",
      "by": "premise"
    },
    {
      "formula": "q",
      "by": {
        "rule": "mp",
        "subst": {
          "p": "p",
          "q": "q"
        }
      },
      "children": [
        {
          "formula": "p -> q",
          "by": "premise"
        },
        {
          "formula": "p",
          "by": "premise"
        }
      ]
    }
  ]
}"""),
    ("[p->(q->r), p, q]", "r", """\
{
  "formula": "r",
  "by": {
    "rule": "mp",
    "subst": {
      "p": "q",
      "q": "r"
    }
  },
  "children": [
    {
      "formula": "q -> r",
      "by": {
        "rule": "mp",
        "subst": {
          "p": "p",
          "q": "q -> r"
        }
      },
      "children": [
        {
          "formula": "p -> (q -> r)",
          "by": "premise"
        },
        {
          "formula": "p",
          "by": "premise"
        }
      ]
    },
    {
      "formula": "q",
      "by": "premise"
    }
  ]
}"""),
    ("[p->q, q->r]", "p->r", """\
{
  "formula": "p -> r",
  "by": {
    "rule": "mp",
    "subst": {
      "p": "p -> q",
      "q": "p -> r"
    }
  },
  "children": [
    {
      "formula": "(p -> q) -> (p -> r)",
      "by": {
        "rule": "mp",
        "subst": {
          "p": "q -> r",
          "q": "(p -> q) -> (p -> r)"
        }
      },
      "children": [
        {
          "formula": "(q -> r) -> ((p -> q) -> (p -> r))",
          "by": {
            "axiom": "B",
            "subst": {
              "p": "q",
              "q": "r",
              "r": "p"
            }
          }
        },
        {
          "formula": "q -> r",
          "by": "premise"
        }
      ]
    },
    {
      "formula": "p -> q",
      "by": "premise"
    }
  ]
}"""),
    ("[p->(q->r), q]", "p->r", """\
{
  "formula": "p -> r",
  "by": {
    "rule": "mp",
    "subst": {
      "p": "q",
      "q": "p -> r"
    }
  },
  "children": [
    {
      "formula": "q -> (p -> r)",
      "by": {
        "rule": "mp",
        "subst": {
          "p": "p -> (q -> r)",
          "q": "q -> (p -> r)"
        }
      },
      "children": [
        {
          "formula": "(p -> (q -> r)) -> (q -> (p -> r))",
          "by": {
            "axiom": "C",
            "subst": {
              "p": "p",
              "q": "q",
              "r": "r"
            }
          }
        },
        {
          "formula": "p -> (q -> r)",
          "by": "premise"
        }
      ]
    },
    {
      "formula": "q",
      "by": "premise"
    }
  ]
}"""),
]


@pytest.mark.parametrize("premises, goal, expected", FIVE_NODE_WITNESSES)
def test_search_witness_text_is_pinned(bcio, premises, goal, expected):
    tree = search(bcio, ms(premises), parse_formula(goal))
    assert dump_proof(tree) == expected


# -- deep trees ------------------------------------------------------------------


def _chain_system():
    return parse_system("system Chain\nrule id : p |- p\n")


def test_deep_tree_walks_do_not_recurse():
    tree = premise_leaf(p)
    for _ in range(5000):
        tree = ProofTree(p, RuleJust("id"), (tree,))
    assert tree.node_count() == 5001
    assert [leaf.formula for leaf in tree.leaves()] == [p]
    assert verify(tree, _chain_system(), FMultiset([p]), p) is RelevanceVerdict.STRONGLY_RELEVANT
    broken = ProofTree(p, RuleJust("id"), (tree, premise_leaf(q)))
    report = verify_report(broken, _chain_system(), FMultiset([p]), p)
    assert report.verdict is RelevanceVerdict.INVALID
    assert report.problems[0].startswith("node p does not instantiate rule id")


def test_leaves_and_node_count_keep_their_order():
    tree = ProofTree(r, RuleJust("mp"), (
        ProofTree(q, RuleJust("mp"), (premise_leaf(x), premise_leaf(y))),
        premise_leaf(z)))
    assert [leaf.formula for leaf in tree.leaves()] == [x, y, z]
    assert tree.node_count() == 5


# the walks against recursive references, on trees that share subtrees

_WALK_LABELS = (p, q, Imp(p, q))
_WALK_JUSTS = (PremiseJust(), AxiomJust("I"), AxiomJust("I", {"p": q}), RuleJust("mp"),
               RuleJust("mp", {"p": p, "q": q}))


@st.composite
def _shared_trees(draw):
    """A tree whose nodes take 0-3 children among the earlier nodes, so that
    one subtree can stand in several places."""
    nodes: list[ProofTree] = []
    for _ in range(draw(st.integers(1, 7))):
        children = draw(st.lists(st.sampled_from(nodes), max_size=3)) if nodes else []
        nodes.append(ProofTree(draw(st.sampled_from(_WALK_LABELS)),
                               draw(st.sampled_from(_WALK_JUSTS)), tuple(children)))
    return nodes[-1]


def _ref_nodes(tree, path=()):
    yield path, tree
    for i, child in enumerate(tree.children):
        yield from _ref_nodes(child, path + (i,))


def _ref_equal(a, b):
    return (a.formula == b.formula and a.by == b.by and len(a.children) == len(b.children)
            and all(map(_ref_equal, a.children, b.children)))


def _ref_data(tree):
    out = {"formula": str(tree.formula), "by": treeproof._just_to_data(tree.by)}
    if tree.children:
        out["children"] = [_ref_data(c) for c in tree.children]
    return out


def _ref_replace(tree, path, node):
    if not path:
        return node
    i = path[0]
    return ProofTree(tree.formula, tree.by, tree.children[:i]
                     + (_ref_replace(tree.children[i], path[1:], node),)
                     + tree.children[i + 1:])


@settings(max_examples=300, deadline=None)
@given(_shared_trees(), st.data())
def test_walks_agree_with_recursive_references(bci, tree, data):
    nodes = list(_ref_nodes(tree))
    assert [(treeproof._indexes(path), id(n)) for path, n in treeproof._walk(tree)] == [
        (path, id(n)) for path, n in nodes]
    assert [id(leaf) for leaf in tree.leaves()] == [id(n) for _, n in nodes if not n.children]

    copy = proof_from_data(proof_to_data(tree))
    assert json.dumps(proof_to_data(tree)) == json.dumps(_ref_data(tree))
    assert _ref_equal(copy, tree) and copy == tree and tree == copy

    path, node = data.draw(st.sampled_from(nodes))
    change = data.draw(st.sampled_from(["label", "by", "arity"]))
    if change == "label":
        node = ProofTree(data.draw(st.sampled_from(_WALK_LABELS)), node.by, node.children)
    elif change == "by":
        node = ProofTree(node.formula, data.draw(st.sampled_from(_WALK_JUSTS)), node.children)
    else:
        node = ProofTree(node.formula, node.by, node.children[:-1] or (premise_leaf(q),))
    changed = _ref_replace(copy, path, node)
    assert (tree == changed) is (changed == tree) is _ref_equal(tree, changed)

    cut = data.draw(st.sampled_from(_WALK_LABELS))
    sub = axiom_leaf(r, "marker")
    at = next((path for path, n in nodes if not n.children
               and isinstance(n.by, PremiseJust) and n.formula == cut), None)
    if at is None:
        with pytest.raises(NoPremiseLeafError):
            cut_compose(tree, sub, bci, cut)
    else:
        assert _ref_equal(cut_compose(tree, sub, bci, cut), _ref_replace(tree, at, sub))


def test_deep_proof_data_loads_without_recursion():
    data = {"formula": "p"}
    for _ in range(5000):
        data = {"formula": "p", "by": {"rule": "id"}, "children": [data]}
    tree = proof_from_data(data)
    assert tree.node_count() == 5001
    assert verify(tree, _chain_system(), FMultiset([p]), p) is RelevanceVerdict.STRONGLY_RELEVANT


def _mp_chain(depth):
    """An mp chain proving p from [p, (p->p) x depth]: each node's minor
    premise is the node below it."""
    tree = premise_leaf(p)
    for _ in range(depth):
        tree = ProofTree(p, RuleJust("mp"), (premise_leaf(Imp(p, p)), tree))
    return tree


def test_deep_proofs_transform_without_recursion(bci):
    identity = Imp(p, p)
    tree = _mp_chain(2000)
    premises = FMultiset([p] + [identity] * 2000)
    assert verify(tree, bci, premises, p) is RelevanceVerdict.STRONGLY_RELEVANT
    out = deduction_transform(tree, bci, premises, p)
    assert verify(out, bci, FMultiset([identity] * 2000), identity) \
        >= RelevanceVerdict.RELEVANT
    composed = cut_compose(_mp_chain(3000), _mp_chain(1), bci, p)
    assert verify(composed, bci, FMultiset([p] + [identity] * 3001), p) \
        is RelevanceVerdict.STRONGLY_RELEVANT


def test_deep_json_is_a_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        load_proof("[" * 100_000 + "]" * 100_000)


def test_deep_proofs_compare_and_hash_without_recursion():
    assert 3000 > sys.getrecursionlimit()
    a, b = _mp_chain(3000), _mp_chain(3000)
    assert a is not b and a == b and hash(a) == hash(b)
    # the same chain over another bottom leaf
    other = premise_leaf(q)
    for _ in range(3000):
        other = ProofTree(p, RuleJust("mp"), (premise_leaf(Imp(p, p)), other))
    assert a != other and other != a


def test_proof_tree_equality_and_hash_on_small_trees():
    assert mp_tree() == mp_tree() and hash(mp_tree()) == hash(mp_tree())
    assert mp_tree() != ProofTree(q, RuleJust("mp"), (premise_leaf(p), premise_leaf(Imp(p, q))))
    assert mp_tree() != ProofTree(q, RuleJust("mp2"), mp_tree().children)
    assert mp_tree() != ProofTree(q, RuleJust("mp"), mp_tree().children[:1])
    assert mp_tree() != q
    # a stored substitution is a dict, so the tree has no hash, as before
    with pytest.raises(TypeError):
        hash(ProofTree(q, RuleJust("mp", {"p": p}), mp_tree().children))


def test_deep_proof_data_round_trips_and_dump_reports_too_deep():
    tree = _mp_chain(3000)
    assert proof_from_data(proof_to_data(tree)) == tree
    with pytest.raises(ValueError, match="nested too deeply"):
        dump_proof(tree)
    shallow = _mp_chain(400)
    assert load_proof(dump_proof(shallow)) == shallow


# -- search against the search that generated and tested premise use -------------


class _ReferenceState(treeproof._SearchState):
    """The search before resources were managed: every subgoal may take any
    part of ``avail``, only the root checks that a proof uses every premise,
    and the filler is found before the search starts."""

    def __init__(self, system, premises, goal):
        super().__init__(system, premises, goal)
        closure = subformulas(goal).union(*map(subformulas, premises.support))
        self._filler = min(closure, key=lambda f: (formula_size(f), str(f)))

    def prove(self, goal, avail, budget, theta, exact=False):
        if budget < 1:
            return
        goal = _resolve(goal, theta)
        key = (goal, avail) if goal._ground else None
        if key is not None and self.fruitless.get(key, 0) >= budget:
            return
        yielded = False
        for result in self._prove_raw(goal, avail, budget, theta):
            yielded = True
            yield result
        if key is not None and not yielded:
            self.fruitless[key] = budget

    def _prove_raw(self, goal, avail, budget, theta):
        # before the head filter too: every axiom and rule use is renamed
        # apart and its conclusion built before it is unified with the goal
        for f in avail.distinct():
            mgu = unify(goal, f)
            if mgu is not None:
                yield premise_leaf(f), FMultiset([f]), {**theta, **mgu}
        for ax, variables, _ in self._axioms:
            sigma = self._fresh(variables)
            mgu = unify(goal, substitute(ax.right, sigma))
            if mgu is not None:
                yield axiom_leaf(goal, ax.name, sigma), EMPTY, {**theta, **mgu}
        if budget < 2:
            return
        for rule, variables, _ in self._rules:
            sigma = self._fresh(variables)
            mgu = unify(goal, substitute(rule.right, sigma))
            if mgu is None:
                continue
            bound = {**theta, **mgu}
            subgoals = _larger_first(
                [_resolve(substitute(s, sigma), bound) for s in rule.left], text=_masked)
            for children, used, theta2 in self._prove_seq(subgoals, avail, budget - 1, bound):
                yield ProofTree(goal, RuleJust(rule.name, sigma), children), used, theta2

    def _prove_seq(self, subgoals, avail, budget, theta):
        if not subgoals:
            yield (), EMPTY, theta
            return
        head, rest = subgoals[0], subgoals[1:]
        for t1, u1, th1 in self.prove(head, avail, budget - len(rest), theta):
            n1 = t1.node_count()
            for ts, u2, th2 in self._prove_seq(rest, avail - u1, budget - n1, th1):
                yield (t1,) + ts, u1 + u2, th2


def _reference_search(system, premises, goal, max_nodes):
    if premises.size > max_nodes:
        return None
    state = _ReferenceState(system, premises, goal)
    for budget in range(1, max_nodes + 1):
        for tree, used, theta in state.prove(goal, premises, budget, {}):
            if used == premises and tree.node_count() == budget:
                return state.ground(tree, theta)
    return None


def _assert_same_witness(system, premises, goal, max_nodes=16):
    got = search(system, premises, goal, max_nodes=max_nodes)
    want = _reference_search(system, premises, goal, max_nodes)
    assert (got and dump_proof(got)) == (want and dump_proof(want)), (system.name, premises, goal)
    return got


def test_search_matches_the_reference_on_random_goals(bci, bcio):
    rng = random.Random(10)
    found = 0
    for system, fusion in ((bci, False), (bcio, True)):
        # one-step goals (3-node proofs), then two-step goals (5 nodes)
        for max_nodes, count in ((3, 60), (5, 20)):
            for _ in range(count):
                tree, premises = random_relevant_proof(rng, system, fusion, max_nodes)
                found += _assert_same_witness(
                    system, premises, tree.formula, tree.node_count()) is not None
    assert found == 160


def test_search_matches_the_reference_on_goals_without_proof(bci, bcio):
    rng = random.Random(11)
    for system, fusion in ((bci, False), (bcio, True)):
        for max_nodes in (3, 5):
            for _ in range(10):
                tree, premises = random_relevant_proof(rng, system, fusion, max_nodes)
                goal, bound = tree.formula, tree.node_count()
                # z occurs in no generated formula: a premise z cannot be used
                # (z is free in the integer-sum model, which BCI and BCIo
                # satisfy), and neither can the premises prove a goal z
                assert _assert_same_witness(system, premises + FMultiset([z]), goal,
                                            bound + 2) is None
                assert _assert_same_witness(system, premises, z, bound + 2) is None
                # nor is there a proof below the bound of the smallest one
                smallest = search(system, premises, goal, bound).node_count()
                assert _assert_same_witness(system, premises, goal, smallest - 1) is None


def test_search_matches_the_reference_on_every_small_goal(bci):
    # every goal over a, b and their implications, from up to two premises:
    # in K a rule's conclusion is its first premise, so a subgoal repeats its
    # goal over the same premises, once as the root and once as a part
    k = parse_system("system K\naxiom I : p -> p\nrule k : p, q |- p\n"
                     "rule mp : p -> q, p |- q\n")
    bare = parse_system("system Bare\naxiom I : p -> p\nrule k : p, q |- p\n"
                        "rule lift : p -> p |- q\n")
    pair = [Atom("a"), Atom("b")]
    formulas = pair + [Imp(f, g) for f in pair for g in pair]
    found = 0
    for system in (bci, k, bare):
        for size in range(3):
            for premises in itertools.combinations_with_replacement(formulas, size):
                for goal in formulas:
                    for max_nodes in (3, 5):
                        found += _assert_same_witness(
                            system, FMultiset(premises), goal, max_nodes) is not None
    assert found > 100


def test_search_records_a_fruitless_goal_only_when_it_yielded_nothing():
    # the k-rooted witness proves a -> b again below itself, from part of the
    # premises; a fruitless record made for a goal that had yielded proofs
    # cuts that branch, and the search returns a lift-rooted witness instead
    bare = parse_system("system Bare\naxiom I : p -> p\nrule k : p, q |- p\n"
                        "rule lift : p -> p |- q\n")
    tree = _assert_same_witness(bare, ms("[a, a]"), parse_formula("a -> b"), 7)
    assert tree.by == RuleJust("k", {"p": parse_formula("a -> b"), "q": Atom("a")})
    assert tree.node_count() == 6


def test_search_below_the_floor_unifies_nothing(bci, monkeypatch):
    # each of n >= 2 premise occurrences labels a leaf of its own, below at
    # least one rule node: no proof has n nodes, and the search does not
    # look for one (the goals of the small-goal enumeration above)
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return unify(a, b)

    monkeypatch.setattr(treeproof, "unify", counting)
    k = parse_system("system K\naxiom I : p -> p\nrule k : p, q |- p\n"
                     "rule mp : p -> q, p |- q\n")
    bare = parse_system("system Bare\naxiom I : p -> p\nrule k : p, q |- p\n"
                        "rule lift : p -> p |- q\n")
    pair = [Atom("a"), Atom("b")]
    formulas = pair + [Imp(f, g) for f in pair for g in pair]
    goals = 0
    for system in (bci, k, bare):
        for premises in itertools.combinations_with_replacement(formulas, 2):
            for goal in formulas:
                premises_ms = FMultiset(premises)
                assert search(system, premises_ms, goal, max_nodes=premises_ms.size) is None
                goals += 1
    assert goals == 3 * 21 * 6 and calls == []
    # one node more is the floor: [a, a -> b] |- b has its 3-node proof
    assert search(bci, ms("[a, a -> b]"), Atom("b"), max_nodes=3) is not None
    assert calls
    # with two nodes to spend, modus ponens (two premises) is neither
    # unified nor renamed apart: only the three axiom heads are tried
    calls.clear()
    state = treeproof._SearchState(bci, EMPTY, Atom("b"))
    assert list(state.prove(Atom("b"), EMPTY, 2, {}, exact=False)) == []
    assert len(calls) == 3 and state._uses == 0
    # and an exact subgoal below its floor returns at once, though a
    # one-premise rule would fit its two nodes
    calls.clear()
    state = treeproof._SearchState(bare, ms("[a, b]"), Atom("b"))
    assert list(state.prove(Atom("b"), ms("[a, b]"), 2, {}, exact=True)) == []
    assert calls == []


def test_t4_refutes_no_theorem_search_proves_in_its_sub_system(t_fusion, bci):
    # T4's sub-system of To: T4 validates each axiom kept, and mp keeps
    # its designated value, so it is sound for every theorem found
    t4 = load_matrix(FIXTURES / "t4.mat")
    oracle = MatrixOracle(t4)

    def closed(schema):
        return substitute(schema, {v: Atom(v) for v in metavars(schema)})

    kept = [t_fusion.get(name) for name in ("I", "B", "Bp", "W", "Res1", "mp")]
    sub = AxiomaticSystem("T4sub", kept)
    for rule in kept[:-1]:
        assert oracle.entails(EMPTY, closed(rule.right)) is HOLDS, rule.name
    for v in t4.values:
        for w in t4.values:
            if v in t4.designated and t4.tables["->"][v, w] in t4.designated:
                assert w in t4.designated
    # T4 refutes the axioms left out, so they stay out
    for rule in (t_fusion.get("Res2"), bci.get("C")):
        assert oracle.entails(EMPTY, closed(rule.right)) is FAILS, rule.name
    # every formula over p, q with -> and o of size 3, 5 or 7
    by_size = {1: [p, q]}
    for size in range(3, 8, 2):
        by_size[size] = [op(f, g) for left in range(1, size - 1, 2)
                         for f in by_size[left] for g in by_size[size - 1 - left]
                         for op in (Imp, Fusion)]
    goals = [f for size in (3, 5, 7) for f in by_size[size]]
    assert len(goals) == 712
    found = [goal for goal in goals if search(sub, EMPTY, goal, max_nodes=5) is not None]
    assert len(found) >= 20
    assert [goal for goal in found if oracle.entails(EMPTY, goal) is not HOLDS] == []


def test_search_matches_the_reference_on_open_variables():
    detour = parse_system("system Detour\naxiom I : p -> p\nrule r : p |- 'b'\n")
    assert _assert_same_witness(detour, ms("[]"), Atom("b"), 4) is not None
    # conclusions that are bare metavariables unify with every goal
    bare = parse_system("system Bare\naxiom I : p -> p\nrule k : p, q |- p\n"
                        "rule lift : p -> p |- q\n")
    for premises, goal in [("[]", "q"), ("[q]", "q"), ("[p, q]", "p"), ("[p -> q, r]", "r")]:
        _assert_same_witness(bare, ms(premises), parse_formula(goal), 4)


def test_search_renames_a_head_variable_bound_to_another():
    # the subgoal v -> v meets the head p -> q: the unifier binds p to q, so
    # both stand for q's fresh variable, which the premise c then binds
    toy = parse_system("system Toy\naxiom a : p -> q\nrule r : p -> p, p |- 'b'\n")
    c = Atom("c")
    tree = _assert_same_witness(toy, ms("[c]"), Atom("b"), 3)
    assert tree.children[0] == axiom_leaf(Imp(c, c), "a", {"p": c, "q": c})
    assert verify(tree, toy, ms("[c]"), Atom("b")) is RelevanceVerdict.RELEVANT


@pytest.mark.parametrize("premises, goal, expected", FIVE_NODE_WITNESSES)
def test_search_matches_the_reference_on_the_pinned_witnesses(bcio, premises, goal, expected):
    assert dump_proof(_assert_same_witness(bcio, ms(premises), parse_formula(goal))) == expected


def test_rule_tables_are_built_once_per_system(monkeypatch):
    system = parse_system("system Fresh\naxiom I : p -> p\nrule mp : p -> q, p |- q\n")
    calls = []

    def counting(rule):
        calls.append(rule.name)
        return vars_of(rule)

    vars_of = treeproof._vars_of
    monkeypatch.setattr(treeproof, "_vars_of", counting)
    for _ in range(2):
        assert search(system, ms("[p -> q, p]"), q) is not None
    assert sorted(calls) == ["I", "mp"]
    # the table does not keep its system alive
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


# -- first witnesses, pinned -----------------------------------------------------


def _first_witnesses(bci, bcio):
    """search's first witness, as dump_proof text, on 200 seeded one-step
    goals and 50 two-step goals in BCI and BCIo, and on the 3-link chain at
    11 nodes and the 4-link chain at 13."""
    rng = random.Random(12)
    goals = []
    for system, fusion in ((bci, False), (bcio, True)):
        for nodes, count in ((3, 100), (5, 25)):
            drawn = 0
            while drawn < count:
                tree, premises = random_relevant_proof(rng, system, fusion, nodes)
                if tree.node_count() == nodes:
                    goals.append((system, premises, tree.formula, nodes))
                    drawn += 1
    goals.append((bci, ms("[p->q, q->r, r->s]"), parse_formula("p -> s"), 11))
    goals.append((bci, ms("[p->q, q->r, r->s, s->t]"), parse_formula("p -> t"), 13))
    return [dump_proof(search(system, premises, goal, max_nodes))
            for system, premises, goal, max_nodes in goals]


def test_search_first_witnesses_are_pinned(bci, bcio):
    # the reference differential shares ground, _fresh and the rule tables
    # with search, so only a pinned text sees a fault in them
    witnesses = _first_witnesses(bci, bcio)
    assert len(witnesses) == 252
    assert hashlib.sha256("\n".join(witnesses).encode()).hexdigest() == (
        "8afb2296dae7759521c8e8500e7344c86f8d6dca9b73abcf70a0fd9694507dde")


# -- the node check that a derivation step's check replaced ----------------------
#
# A reference for the differential property below: the proof-node check as it
# stood before a node was checked as a derivation step with no context, the
# conclusion matched first and the premises onto the child labels.


def _ref_rule_instance(system, just, conclusion, child_labels):
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


_NODE_SYSTEMS = [load_system(FIXTURES / name) for name in
                 ("bci.rcs", "bci_fusion.rcs", "t_fusion.rcs", "toy_xy.rcs", "bci_weak.rcs")]
_node_formulas = st.recursive(
    st.sampled_from([p, q, x]),
    lambda c: st.one_of(st.builds(Imp, c, c), st.builds(Fusion, c, c)),
    max_leaves=3)


@st.composite
def _rule_nodes(draw):
    """A node built from a fixture system's rule: a correct instance, or one
    with a child label or the conclusion perturbed, a child dropped or added,
    the rule misnamed, or a stored substitution missing, right or wrong."""
    system = draw(st.sampled_from(_NODE_SYSTEMS))
    # half the draws take an inference rule: the fixtures are mostly axioms
    rule = draw(st.sampled_from(draw(st.booleans()) and system.inference_rules
                                or system.rules))
    names = sorted(set().union(*(metavars(s) for s in _rule_schemata(rule))))
    sigma = {v: draw(_node_formulas) for v in names}
    conclusion = substitute(rule.right, sigma)
    children = [substitute(s, sigma) for s in rule.left]
    change = draw(st.sampled_from(["none"] * 4 + ["conclusion", "child", "drop", "add", "swap"]))
    if change == "conclusion":
        conclusion = draw(st.sampled_from([Imp(conclusion, p), p, draw(_node_formulas)]))
    elif change == "child" and children:
        children[draw(st.integers(0, len(children) - 1))] = draw(_node_formulas)
    elif change == "drop" and children:
        children.pop(draw(st.integers(0, len(children) - 1)))
    elif change == "add":
        children.append(draw(st.sampled_from([conclusion, p, draw(_node_formulas)])))
    elif change == "swap" and children:
        conclusion, children[0] = children[0], conclusion
    stored = draw(st.sampled_from([None, None, "right", "right", "wrong", "missing", "extra"]))
    if stored == "right":
        stored = dict(sigma)
    elif stored == "wrong":
        stored = {**sigma, **({names[0]: Imp(sigma[names[0]], q)} if names else {})}
    elif stored == "missing":
        stored = dict(list(sigma.items())[1:])
    elif stored == "extra":
        stored = {**sigma, "unused": q}
    name = draw(st.sampled_from([rule.name] * 4 + ["nope"]
                                + [r.name for r in system.rules]))
    by = RuleJust(name, stored) if children else AxiomJust(name, stored)
    return system, ProofTree(conclusion, by, tuple(premise_leaf(c) for c in children))


@given(_rule_nodes())
@settings(max_examples=400)
def test_node_check_agrees_with_the_conclusion_first_reference(case):
    system, node = case
    labels = FMultiset(c.formula for c in node.children)
    want = _ref_rule_instance(system, node.by, node.formula, labels) is not None
    assert treeproof._applies(system, node) == want
    report = verify_report(node, system, labels, node.formula)
    node_problems = [m for m in report.problems
                     if "does not instantiate" in m or "is not an instance of axiom" in m]
    assert bool(node_problems) != want


_PQ = {"p": p, "q": q}
_ODD_NODES = [
    ProofTree(q, RuleJust("mp"), (premise_leaf(p), premise_leaf(p))),
    ProofTree(q, RuleJust("mp", _PQ), (premise_leaf(p),)),  # a premise missing
    ProofTree(q, RuleJust("mp", _PQ), (premise_leaf(Imp(p, q)), premise_leaf(p),
                                      premise_leaf(q))),  # and one too many
    ProofTree(q, AxiomJust("mp", _PQ)),  # a rule as an axiom
    ProofTree(Imp(p, p), RuleJust("I"), (premise_leaf(Imp(p, p)),)),  # and converse
    ProofTree(Imp(p, p), RuleJust("I", {"p": p}), (premise_leaf(Imp(p, p)),)),
]


@pytest.mark.parametrize("node", _ODD_NODES)
def test_node_check_rejects_what_no_rule_instance_makes(bci, node):
    labels = FMultiset(c.formula for c in node.children)
    assert _ref_rule_instance(bci, node.by, node.formula, labels) is None
    assert not treeproof._applies(bci, node)


def test_node_check_names_the_node_and_its_children(bci):
    # q from [p, p] by mp: p -> q is no child label
    report = verify_report(_ODD_NODES[0], bci, ms("[p, p]"), q)
    assert report.problems == ["node q does not instantiate rule mp from [p, p]"]


# -- rule lookup by shape, once per system ----------------------------------------


def test_missing_rule_is_reported_on_every_call():
    system = parse_system("system NoWk\naxiom I : p -> p\nrule mp : p -> q, p |- q\n")
    base = axiom_leaf(Imp(p, p), "I", {"p": p})
    for _ in range(2):
        with pytest.raises(RulesAbsentError) as e:
            pump_use(base, q, system)
        assert str(e.value) == "system NoWk has no weakening rule"


def test_each_system_gets_its_own_rule_names():
    text = "system {}\naxiom I : p -> p\nrule {} : p -> q, p |- q\nrule {} : p |- q -> p\n"
    one = parse_system(text.format("One", "mp", "wk"))
    two = parse_system(text.format("Two", "detach", "weaken"))
    base = axiom_leaf(Imp(p, p), "I", {"p": p})
    for system, mp, wk in ((one, "mp", "wk"), (two, "detach", "weaken"), (one, "mp", "wk")):
        out = pump_use(base, q, system)
        assert (out.by.name, out.children[0].by.name) == (mp, wk)
        assert verify(out, system, ms("[q]"), Imp(p, p)) is RelevanceVerdict.RELEVANT


def test_rule_names_are_dropped_with_their_system():
    system = parse_system("system Gone\naxiom I : p -> p\nrule mp : p -> q, p |- q\n")
    with pytest.raises(RulesAbsentError):
        pump_use(premise_leaf(p), q, system)
    assert treeproof._TABLES[system].names
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None
    assert all(s.name != "Gone" for s in list(treeproof._TABLES.keys()))


# -- verify_report's diagnostics, pinned --------------------------------------------


_MP_PQ = ProofTree(q, RuleJust("mp"), (premise_leaf(Imp(p, q)), premise_leaf(p)))
_DIAGNOSED = [
    # a leaf that is neither an axiom instance nor a premise
    (_MP_PQ, "[p -> q]", q, RelevanceVerdict.INVALID,
     ["leaf p is neither an axiom instance nor a premise",
      "p labels 1 leaves but occurs 0 times among the premises"], "[p]"),
    # a premise used more often than it is listed
    (ProofTree(q, RuleJust("mp"), (
        ProofTree(Imp(p, q), RuleJust("mp"), (premise_leaf(Imp(p, Imp(p, q))),
                                              premise_leaf(p))),
        premise_leaf(p))), "[p -> p -> q, p]", q, RelevanceVerdict.INVALID,
     ["p labels 2 leaves but occurs 1 times among the premises"], "[p]"),
    # an mp node that does not instantiate mp
    (ProofTree(q, RuleJust("mp"), (premise_leaf(Imp(p, r)), premise_leaf(p))),
     "[p -> r, p]", q, RelevanceVerdict.INVALID,
     ["node q does not instantiate rule mp from [p, p -> r]"], "[]"),
    # an axiom leaf that is no instance of its axiom
    (axiom_leaf(Imp(p, q), "I"), "[]", Imp(p, q), RelevanceVerdict.INVALID,
     ["leaf p -> q is not an instance of axiom I",
      "p -> q labels 1 leaves but occurs 0 times among the premises"], "[p -> q]"),
    # an unused premise that is an axiom instance
    (_MP_PQ, "[p -> q, p, r -> r]", q, RelevanceVerdict.WEAKLY_RELEVANT, [], "[]"),
    # an axiom leaf beyond the premises
    (ProofTree(q, RuleJust("mp"), (axiom_leaf(Imp(q, q), "I"), _MP_PQ)),
     "[p -> q, p]", q, RelevanceVerdict.RELEVANT, [], "[q -> q]"),
    # a leaf justified by a rule
    (ProofTree(q, RuleJust("mp"), (premise_leaf(Imp(p, q)), ProofTree(p, RuleJust("mp")))),
     "[p -> q, p]", q, RelevanceVerdict.INVALID,
     ["leaf p carries a rule justification"], "[]"),
    # an internal node that is no rule application: the bad mp node below it
    # is not checked
    (ProofTree(q, PremiseJust(), (
        ProofTree(q, RuleJust("mp"), (premise_leaf(Imp(p, r)), premise_leaf(p))),)),
     "[p -> r, p]", q, RelevanceVerdict.INVALID,
     ["internal node q lacks a rule justification"], "[]"),
]


@pytest.mark.parametrize("tree, premises, goal, verdict, problems, surplus", _DIAGNOSED)
def test_verify_report_diagnostics_are_pinned(bci, tree, premises, goal, verdict,
                                              problems, surplus):
    report = verify_report(tree, bci, ms(premises), goal)
    assert report.verdict is verdict
    assert report.problems == problems
    assert str(report.surplus) == surplus


# -- verify_report as it stood before its one walk ------------------------------------
#
# References for the differential properties below: verify_report walking the
# tree twice (leaf_multiset, then the checks) and testing every leaf label and
# every unused premise as an axiom instance up front, and the rule step it
# checked each node with, which matched a proof node's conclusion first and
# then the left side in match_multiset's canonical order.


def _ref_rule_step(left, right, before, after, stored=None):
    if stored is None and not isinstance(right, FMultiset) and after.size == 1:
        sigma0 = match(right, next(iter(after)))
        return None if sigma0 is None else next(match_multiset(left, before, sigma0), None)
    right_ms = right if isinstance(right, FMultiset) else FMultiset([right])
    if stored is not None:
        sigma = dict(stored)
        try:
            consumed = FMultiset(substitute(s, sigma) for s in left)
            produced = FMultiset(substitute(s, sigma) for s in right_ms)
        except MissingBindingError:
            return None
        if consumed <= before and after == (before - consumed) + produced:
            return sigma
        return None
    for sigma, consumed in match_into(left, before):
        rest = before - consumed
        if rest <= after:
            sigma2 = next(match_multiset(right_ms, after - rest, sigma), None)
            if sigma2 is not None:
                return sigma2
    return None


def _ref_applies(system, node, before):
    try:
        rule = system.get(node.by.name)
    except KeyError:
        return False
    return _ref_rule_step(rule.left, rule.right, before, FMultiset([node.formula]),
                          node.by.subst) is not None


def _ref_verify_report(tree, system, premises, goal):
    problems = []
    leaves = leaf_multiset(tree)
    axiomatic = {f for f in leaves.support | (premises - leaves).support
                 if system.is_axiom_instance(f)}
    if tree.formula != goal:
        problems.append(
            f"root is {print_formula(tree.formula)}, goal is {print_formula(goal)}")
    for _, node in _walk(tree, into=lambda n: isinstance(n.by, RuleJust)):
        if not node.children:
            if isinstance(node.by, RuleJust):
                problems.append(
                    f"leaf {print_formula(node.formula)} carries a rule justification")
            elif isinstance(node.by, AxiomJust) and not _ref_applies(system, node, EMPTY):
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
            if not _ref_applies(system, node, child_labels):
                problems.append(
                    f"node {print_formula(node.formula)} does not instantiate rule "
                    f"{node.by.name} from {print_multiset(child_labels)}")
    for f in leaves.distinct():
        if f not in axiomatic and leaves.count(f) > premises.count(f):
            problems.append(
                f"{print_formula(f)} labels {leaves.count(f)} leaves but occurs "
                f"{premises.count(f)} times among the premises")
    surplus = leaves - premises
    if problems:
        return VerifyReport(RelevanceVerdict.INVALID, problems, surplus)
    verdict = RelevanceVerdict.PLAIN
    if all(f in axiomatic for f in (premises - leaves).support):
        verdict = RelevanceVerdict.WEAKLY_RELEVANT
        if premises <= leaves:
            verdict = RelevanceVerdict.RELEVANT
            if premises == leaves:
                verdict = RelevanceVerdict.STRONGLY_RELEVANT
    return VerifyReport(verdict, [], surplus)


_BCI, _BCIO = _NODE_SYSTEMS[:2]
_CORRUPTIONS = ["axiom name", "binding missing", "binding wrong", "rule as axiom",
                "axiom as rule", "rule leaf", "unknown name", "child added", "child dropped",
                "premise node", "goal", "premise added", "premise dropped", "axiom premise"]


def _relevant_case(rng, fusion, form):
    """A random relevant BCI or BCIo proof with its premises and goal, as
    built, as deduction_transform discharges one premise from it, or with one
    premise leaf replaced by a modus ponens tree by cut_compose."""
    system = _BCIO if fusion else _BCI
    tree, premises = random_relevant_proof(rng, system, fusion)
    goal, phi = tree.formula, rng.choice(premises.distinct())
    if form == "deduction":
        tree, goal = deduction_transform(tree, system, premises, phi), Imp(phi, goal)
        premises -= FMultiset([phi])
    elif form == "cut":
        chi = random_formula(rng, "pqr", 1, fusion)
        sub = ProofTree(phi, RuleJust("mp"), (premise_leaf(Imp(chi, phi)), premise_leaf(chi)))
        tree = cut_compose(tree, sub, system, phi)
        premises = premises - FMultiset([phi]) + FMultiset([Imp(chi, phi), chi])
    return system, tree, premises, goal


@st.composite
def _verify_cases(draw):
    """A relevant case, and perhaps one corruption of its tree, goal or
    premises: a wrong axiom name, a stored substitution missing a binding or
    with a wrong one, a rule used as an axiom and the converse, a leaf
    justified by a rule, an unknown rule name, a child added or dropped, a
    premise-justified internal node, a wrong goal, a premise occurrence
    added or dropped, or an unused premise that is an axiom instance."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    fusion = draw(st.booleans())
    system, tree, premises, goal = _relevant_case(
        rng, fusion, draw(st.sampled_from(["proof", "deduction", "cut"])))
    change = draw(st.sampled_from([None] * 4 + _CORRUPTIONS))
    f = random_formula(rng, "pqr", 2, fusion)
    nodes = [(_indexes(path), node) for path, node in _walk(tree)]
    kinds = {"axiom name": lambda n: isinstance(n.by, AxiomJust),
             "binding missing": lambda n: not isinstance(n.by, PremiseJust) and n.by.subst,
             "rule as axiom": lambda n: not n.children,
             "rule leaf": lambda n: not n.children,
             "unknown name": lambda n: not isinstance(n.by, PremiseJust)}
    kinds["binding wrong"] = kinds["binding missing"]
    among = [(path, n) for path, n in nodes
             if kinds.get(change, lambda n: bool(n.children))(n)]
    if not among or change is None:
        return system, tree, premises, goal
    path, node = among[draw(st.integers(0, len(among) - 1))]
    by, children = node.by, node.children
    new = None
    if change == "axiom name":
        new = axiom_leaf(node.formula, draw(st.sampled_from(
            [r.name for r in system.axioms if r.name != by.name])), by.subst)
    elif change in ("binding missing", "binding wrong"):
        subst = dict(by.subst)
        key = draw(st.sampled_from(sorted(subst)))
        if change == "binding missing":
            del subst[key]
        else:
            subst[key] = Imp(subst[key], f)
        new = ProofTree(node.formula, type(by)(by.name, subst), children)
    elif change == "rule as axiom":
        new = axiom_leaf(node.formula, "mp", draw(st.sampled_from(
            [None, {"p": f, "q": node.formula}])))
    elif change == "axiom as rule":
        new = ProofTree(node.formula, RuleJust(draw(st.sampled_from(["I", "B", "C"]))),
                        children)
    elif change == "rule leaf":
        new = ProofTree(node.formula, RuleJust("mp"))
    elif change == "unknown name":
        new = ProofTree(node.formula, type(by)("nope", by.subst), children)
    elif change == "child added":
        new = ProofTree(node.formula, by, children + (premise_leaf(f),))
        if draw(st.booleans()):
            premises += FMultiset([f])
    elif change == "child dropped":
        i = draw(st.integers(0, len(children) - 1))
        new = ProofTree(node.formula, by, children[:i] + children[i + 1:])
    elif change == "premise node":
        new = ProofTree(node.formula, PremiseJust(), children)
    elif change == "goal":
        goal = draw(st.sampled_from([f, Imp(goal, goal), node.formula]))
    elif change == "premise added":
        premises += FMultiset([draw(st.sampled_from(premises.distinct() + [f]))])
    elif change == "premise dropped" and premises:
        premises -= FMultiset([draw(st.sampled_from(premises.distinct()))])
    elif change == "axiom premise":
        premises += FMultiset([Imp(f, f)])
    if new is not None:
        tree = _graft(tree, path, new)
    return system, tree, premises, goal


@given(_verify_cases())
@settings(max_examples=400, deadline=None)
def test_verify_report_agrees_with_the_two_walk_reference(case):
    system, tree, premises, goal = case
    got = verify_report(tree, system, premises, goal)
    want = _ref_verify_report(tree, system, premises, goal)
    assert got.verdict is want.verdict
    assert got.problems == want.problems
    assert got.surplus == want.surplus


@st.composite
def _derivation_steps(draw):
    """A random derivation in BCI as (rule, before, after, substitution)
    steps, from no premises or a modus ponens pair, perhaps with a context:
    each step detaches a pair of the state or adds an axiom instance."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = random_formula(rng, "pqr", 2), random_formula(rng, "pqr", 1)
    state = draw(st.sampled_from([FMultiset(), FMultiset([Imp(a, b), a]),
                                  FMultiset([Imp(a, b), a, b])]))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        pairs = [(f, f.left) for f in state.distinct()
                 if isinstance(f, Imp) and f.left in state]
        if pairs and draw(st.booleans()):
            major, minor = pairs[draw(st.integers(0, len(pairs) - 1))]
            rule, sigma = _BCI.get("mp"), {"p": minor, "q": major.right}
        else:
            rule = draw(st.sampled_from(_BCI.axioms))
            sigma = {v: random_formula(rng, "pqr", 1) for v in sorted(metavars(rule.right))}
        after = (state - FMultiset(substitute(s, sigma) for s in rule.left)
                 + FMultiset([substitute(rule.right, sigma)]))
        steps.append((rule, state, after, sigma))
        state = after
    return steps


@given(_derivation_steps(), st.sampled_from([None, "right", "missing", "wrong", "after"]))
@settings(max_examples=300, deadline=None)
def test_rule_step_returns_the_reference_substitution_on_derivation_steps(steps, change):
    lifted = _BCI.lifted()
    for rule, before, after, sigma in steps:
        stored = {"right": sigma, "missing": dict(list(sigma.items())[1:]),
                  "wrong": {**sigma, "p": Imp(sigma["p"], q)}}.get(change)
        if change == "after":
            after += FMultiset([q])
        for r in (rule, lifted.get(rule.name)):
            want = _ref_rule_step(r.left, r.right, before, after, stored)
            assert _rule_step(r.left, r.right, before, after, stored) == want
            assert (want is not None) == (change in (None, "right"))


def test_a_node_step_with_two_matches_returns_the_canonical_first():
    # x, y |- t: the labels q and p match either way round; as before, the
    # first match in canonical order (x before y, p before q) is returned
    left = FMultiset([Var("x"), Var("y")])
    for labels in ((q, p), (p, q)):
        want = _ref_rule_step(left, TRUTH, FMultiset(labels), FMultiset([TRUTH]))
        assert want == {"x": p, "y": q}
        assert _rule_step(left, TRUTH, labels, TRUTH) == want
        assert _rule_step(left, TRUTH, FMultiset(labels), FMultiset([TRUTH])) == want


# -- relevance is kept by search, deduction_transform and cut_compose ------------------


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from([3, 5]))
@settings(max_examples=60, deadline=None)
def test_every_search_witness_verifies_as_relevant(seed, fusion, size):
    rng = random.Random(seed)
    system = _BCIO if fusion else _BCI
    tree, premises = random_relevant_proof(rng, system, fusion, size)
    # the goal the premises prove within the tree's size, then one they may not
    for goal, budget in ((tree.formula, tree.node_count()),
                         (random_formula(rng, "pqr", 2, fusion), size)):
        witness = search(system, premises, goal, budget)
        assert witness is not None or goal != tree.formula
        if witness is not None:
            assert verify(witness, system, premises, goal) >= RelevanceVerdict.RELEVANT


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_deduction_transform_and_cut_compose_keep_relevance(seed, fusion, data):
    rng = random.Random(seed)
    system, tree, premises, goal = _relevant_case(rng, fusion, "proof")
    kept = verify(tree, system, premises, goal)
    assert kept >= RelevanceVerdict.RELEVANT
    phi = data.draw(st.sampled_from(premises.distinct()))
    out = deduction_transform(tree, system, premises, phi)
    assert verify(out, system, premises - FMultiset([phi]), Imp(phi, goal)) \
        >= RelevanceVerdict.RELEVANT
    # a relevant proof of phi: modus ponens from another random proof's goal
    inner, used = random_relevant_proof(rng, system, fusion)
    sub = ProofTree(phi, RuleJust("mp"), (premise_leaf(Imp(inner.formula, phi)), inner))
    used += FMultiset([Imp(inner.formula, phi)])
    both = min(kept, verify(sub, system, used, phi))
    out = cut_compose(tree, sub, system, phi)
    assert verify(out, system, premises - FMultiset([phi]) + used, goal) is both


def test_a_rule_justification_prints_its_rule_name():
    assert str(RuleJust("mp", {"p": Atom("a")})) == "rule mp"
    assert str(RuleJust("mp")) == "rule mp"
