import itertools
import random

import pytest

from relcon import (
    Atom,
    AxiomJust,
    FMultiset,
    Imp,
    Fusion,
    NoPremiseLeafError,
    NotRelevantError,
    ProofTree,
    RelevanceVerdict,
    RuleJust,
    RulesAbsentError,
    UnsupportedSystemError,
    axiom_leaf,
    cut_compose,
    deduction_transform,
    dump_proof,
    leaf_multiset,
    load_proof,
    parse_formula,
    parse_multiset,
    parse_system,
    premise_leaf,
    pump_use,
    search,
    verify,
    verify_report,
)
from relcon.syntax import metavars
from relcon.treeproof import proof_from_data
from conftest import random_relevant_proof

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


def test_deep_proof_data_loads_without_recursion():
    data = {"formula": "p"}
    for _ in range(5000):
        data = {"formula": "p", "by": {"rule": "id"}, "children": [data]}
    tree = proof_from_data(data)
    assert tree.node_count() == 5001
    assert verify(tree, _chain_system(), FMultiset([p]), p) is RelevanceVerdict.STRONGLY_RELEVANT


def test_deep_json_is_a_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        load_proof("[" * 100_000 + "]" * 100_000)
