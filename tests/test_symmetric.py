import gc
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from relcon import (
    Derivation,
    DerivationVerdict,
    FMultiset,
    HOLDS,
    FAILS,
    UNKNOWN,
    Imp,
    ProofTree,
    RelevanceVerdict,
    RuleApp,
    RuleJust,
    axiom_leaf,
    check_derivation,
    check_law,
    derive_search,
    dump_derivation,
    extract_tree,
    load_derivation,
    parse_formula,
    parse_multiset,
    premise_leaf,
    symmetrize_query,
    verify,
)
from relcon import symmetric
from relcon.semantics import AbelianSymmetricOracle
from relcon.symmetric import (
    AsymmetricPart,
    DerivationOracle,
    ExtractionError,
    Symmetrization,
    TreeSearchOracle,
    asymmetric_query,
    partition_count,
    _ordered_partitions,
)
from relcon.multiset import msum, submultisets
from relcon.syntax import formula_size, match, match_into, metavars, substitute, unify
from conftest import (
    FIXTURES,
    make_z_oracle,
    numeral_domain,
    random_concrete_system,
    random_formula,
    random_relevant_derivation,
)

a, b, c, xx = map(parse_formula, ["a", "b", "c", "x"])
ms = parse_multiset


def five_premise_derivation():
    return Derivation(
        (ms("[a->b, a->c, a, a, a]"), ms("[a->c, a, a, b]"), ms("[a, b, c]")),
        (RuleApp("mp"), RuleApp("mp")),
    )


# -- derivation checking ---------------------------------------------------------


def test_five_premise_example(bci):
    d = five_premise_derivation()
    assert check_derivation(d, bci, ms("[a->b, a->c, a, a, a]"),
                            ms("[a, b, c]")) is DerivationVerdict.RELEVANT


def test_axiom_in_context(bci):
    d = Derivation((ms("[a]"), ms("[a, a -> a]")), (RuleApp("I"),))
    assert check_derivation(d, bci, ms("[a]"),
                            ms("[a -> a, a]")) is DerivationVerdict.RELEVANT


def test_plain_when_conclusions_submultiset(bci):
    d = five_premise_derivation()
    assert check_derivation(d, bci, ms("[a->b, a->c, a, a, a]"),
                            ms("[b, c]")) is DerivationVerdict.PLAIN


def test_invalid_cases(bci):
    d = five_premise_derivation()
    # wrong starting multiset
    assert check_derivation(d, bci, ms("[a->b, a->c, a, a]"),
                            ms("[a, b, c]")) is DerivationVerdict.INVALID
    # conclusions not contained in the last step
    assert check_derivation(d, bci, ms("[a->b, a->c, a, a, a]"),
                            ms("[a, b, c, c]")) is DerivationVerdict.INVALID
    # an illegal transition
    bad = Derivation((ms("[a]"), ms("[b]")), (RuleApp("mp"),))
    assert check_derivation(bad, bci, ms("[a]"), ms("[b]")) is DerivationVerdict.INVALID
    # unknown rule name
    bad2 = Derivation((ms("[a]"), ms("[a, a -> a]")), (RuleApp("nope"),))
    assert check_derivation(bad2, bci, ms("[a]"),
                            ms("[a -> a, a]")) is DerivationVerdict.INVALID


def test_stored_subst_validated(bci):
    good = Derivation((ms("[a]"), ms("[a, a -> a]")), (RuleApp("I", {"p": a}),))
    assert check_derivation(good, bci, ms("[a]"),
                            ms("[a -> a, a]")) is DerivationVerdict.RELEVANT
    bad = Derivation((ms("[a]"), ms("[a, a -> a]")), (RuleApp("I", {"p": b}),))
    assert check_derivation(bad, bci, ms("[a]"),
                            ms("[a -> a, a]")) is DerivationVerdict.INVALID


def test_stored_subst_missing_a_binding_is_rejected(bci):
    # a stored substitution that leaves a rule metavariable unbound
    d = Derivation((ms("[a]"), ms("[a, a -> a]")), (RuleApp("I", {}),))
    assert check_derivation(d, bci, ms("[a]"),
                            ms("[a -> a, a]")) is DerivationVerdict.INVALID
    q = parse_formula("q")
    node = ProofTree(q, RuleJust("mp", {"p": a}), (premise_leaf(Imp(a, q)), premise_leaf(a)))
    assert verify(node, bci, ms("[a -> q, a]"), q) is RelevanceVerdict.INVALID
    leaf = axiom_leaf(Imp(a, a), "I", {})
    assert verify(leaf, bci, ms("[]"), Imp(a, a)) is RelevanceVerdict.INVALID


def test_one_step_reflexivity(bci):
    d = Derivation((ms("[x, y]"),), ())
    assert check_derivation(d, bci, ms("[x, y]"),
                            ms("[y, x]")) is DerivationVerdict.RELEVANT


# -- derivation search ------------------------------------------------------------


def test_derive_mp(bci):
    result = derive_search(bci, ms("[a->b, a]"), ms("[b]"))
    assert result.found and len(result.derivation.steps) == 2
    assert check_derivation(result.derivation, bci, ms("[a->b, a]"),
                            ms("[b]")) is DerivationVerdict.RELEVANT


def test_derive_axiom_in_context(bci):
    result = derive_search(bci, ms("[a]"), ms("[a -> a, a]"))
    assert result.found
    assert check_derivation(result.derivation, bci, ms("[a]"),
                            ms("[a -> a, a]")) is DerivationVerdict.RELEVANT


def test_matching_and_search_leave_no_reference_cycles(bci):
    # a nested closure that calls itself, or an object that holds its own
    # bound methods, is cyclic garbage after every call
    schema, formula = parse_formula("(a -> b) -> a", schema=True), parse_formula("(p -> q) -> p")
    left, right = (parse_formula("(a -> b) -> c", schema=True),
                   parse_formula("(p -> d) -> d", schema=True))
    z = make_z_oracle()
    gc.collect()
    gc.disable()
    try:
        for _ in range(200):
            assert match(schema, formula) is not None
            assert unify(left, right) is not None
            assert len(list(submultisets(ms("[a, a, b]")))) == 6
        # axiom I's right side has a metavariable that no premise fixes
        assert derive_search(bci, ms("[a]"), ms("[a -> a, a]")).found
        assert gc.collect() == 0
        # a law check, exhaustive, sampled and over a family variable
        for law, dom, exhaustive in (
                ("Cut", numeral_domain(2), True),
                ("Cut", numeral_domain(2, exhaustive_cap=100, sample_count=50), False),
                ("RelevantCut", numeral_domain(1), True)):
            result = check_law(z, law, dom)
            assert result.passed and result.exhaustive is exhaustive
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_derive_trivial_equality(toy_xy):
    result = derive_search(toy_xy, ms("[x, y]"), ms("[y, x]"))
    assert result.found and len(result.derivation.steps) == 1


def test_derive_five_premise(bci):
    premises, conclusions = ms("[a->b, a->c, a, a, a]"), ms("[a, b, c]")
    result = derive_search(bci, premises, conclusions, max_steps=6)
    assert result.found
    assert check_derivation(result.derivation, bci, premises,
                            conclusions) is DerivationVerdict.RELEVANT


def test_derive_four_premise_negative(bci):
    premises, conclusions = ms("[a->b, a->c, a, a]"), ms("[a, b, c]")
    result = derive_search(bci, premises, conclusions,
                           max_steps=8, max_formula_size=7)
    assert not result.found
    assert result.status == "exhausted"
    # independent certificate: the integer-sum relation contains lifted BCI
    # and refutes this consecution
    zs = AbelianSymmetricOracle()
    assert zs.entails(premises, conclusions) is FAILS
    assert zs.entails(ms("[a->b, a->c, a, a, a]"), conclusions) is HOLDS


def test_derive_truncation_reported(bci):
    result = derive_search(bci, ms("[a->b, a->c, a, a]"), ms("[a, b, c]"),
                           max_steps=1, max_formula_size=7)
    assert not result.found and result.status == "truncated"
    assert "steps" in result.pruned_by


# -- derive_search against the move generator that built every instance ----------


def _reference_moves(sym, state, cands, max_formula_size, pruned):
    # the move generator before size-aware instantiation, kept as it was
    for rule in sym.rules:
        right_ms = rule.right
        for sigma, consumed in match_into(rule.left, state):
            free = sorted({v for s in right_ms for v in metavars(s)} - set(sigma))
            for values in itertools.product(cands, repeat=len(free)):
                full = dict(sigma)
                full.update(zip(free, values))
                produced = FMultiset(substitute(s, full) for s in right_ms)
                if any(formula_size(f) > max_formula_size for f in produced.support):
                    pruned.add("formula-size")
                    continue
                yield (state - consumed) + produced, RuleApp(rule.name, full)


def _reference_derive_search(system, premises, conclusions, **bounds):
    """derive_search with every move built first and then filtered by the
    multiset cap, as derive_search once did it."""
    def moves(plans, state, cands, max_formula_size, max_multiset_size, pruned):
        sym = SimpleNamespace(rules=[plan.rule for plan in plans])
        for nxt, app in _reference_moves(sym, state, cands, max_formula_size, pruned):
            if nxt.size > max_multiset_size:
                pruned.add("multiset-size")
                continue
            yield nxt, app

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetric, "_moves", moves)
        return derive_search(system, premises, conclusions, **bounds)


def _outcome(result):
    apps = result.derivation.step_rules if result.found else ()
    return (result.status, str(result.derivation), [app.subst for app in apps],
            result.pruned_by)


def _assert_same_search(system, premises, conclusions, **bounds):
    got = derive_search(system, premises, conclusions, **bounds)
    want = _reference_derive_search(system, premises, conclusions, **bounds)
    assert _outcome(got) == _outcome(want), (system.name, premises, conclusions, bounds)
    return got


def test_derive_search_matches_the_reference_on_the_fixtures(bci):
    four, five, target = ms("[a->b, a->c, a, a]"), ms("[a->b, a->c, a, a, a]"), ms("[a, b, c]")
    drv = load_derivation((FIXTURES / "bci_sym.drv").read_text())
    cases = [(four, target, dict(max_steps=8, max_formula_size=7)),
             (five, target, dict(max_steps=8, max_formula_size=7)),
             (four, target, dict(max_steps=1, max_formula_size=7)),
             (drv.steps[0], drv.steps[-1], dict(max_steps=4))]
    statuses = [_assert_same_search(bci, p, c, **bounds).status for p, c, bounds in cases]
    assert statuses == ["exhausted", "found", "truncated", "found"]


def test_derive_search_matches_the_reference_on_random_searches(
        bci, bcio, bci_weak, t_fusion):
    rng = random.Random(6)
    statuses, pruned = set(), set()
    # each system meets every formula cap from 11 down to 3, each paired with
    # one pair of the other caps; the largest formulas meet the smallest state
    # budgets, which keeps the reference, which builds every instance, quick
    for system in (bci, bcio, bci_weak, t_fusion):
        fusion = system in (bcio, t_fusion)
        for max_formula_size, (max_multiset_size, max_states) in zip(
                range(11, 2, -1), itertools.product((None, 3, 5), (30, 300, 3000))):
            premises = FMultiset(random_formula(rng, "ab", 2, fusion)
                                 for _ in range(rng.randint(0, 3)))
            conclusions = FMultiset(random_formula(rng, "ab", 2, fusion)
                                    for _ in range(rng.randint(1, 2)))
            result = _assert_same_search(
                system, premises, conclusions, max_steps=rng.randint(1, 5),
                max_formula_size=max_formula_size,
                max_multiset_size=max_multiset_size, max_states=max_states)
            statuses.add(result.status)
            pruned |= result.pruned_by
    assert statuses == {"found", "exhausted", "truncated"}
    assert pruned == {"formula-size", "multiset-size", "states", "steps"}


IDENTITY_SYSTEM = "system Id\naxiom I : p -> p\n"


@pytest.mark.parametrize("premises, conclusions, bounds, status, pruned_by", [
    # I at a->b is exactly at the formula cap, and it fits
    ("[]", "[(a -> b) -> (a -> b)]", dict(max_formula_size=7), "found", None),
    # no multiset fits, and no instance of I either: only the formula cap cut
    ("[]", "[a]", dict(max_formula_size=2, max_multiset_size=0),
     "exhausted", {"formula-size"}),
    # I at a fits the formula cap and I at a -> a does not: both caps cut
    ("[]", "[a -> a]", dict(max_formula_size=3, max_multiset_size=0),
     "exhausted", {"formula-size", "multiset-size"}),
    # the state budget runs out at I at a, before I at a -> a is reached
    ("[a]", "[a -> a]", dict(max_formula_size=3, max_states=1),
     "truncated", {"states"}),
])
def test_derive_search_records_a_cap_only_when_it_cuts(
        premises, conclusions, bounds, status, pruned_by):
    from relcon import parse_system

    system = parse_system(IDENTITY_SYSTEM)
    result = _assert_same_search(system, ms(premises), ms(conclusions),
                                 max_steps=2, **bounds)
    assert result.status == status
    if pruned_by is not None:
        assert result.pruned_by == pruned_by


@pytest.mark.parametrize("max_formula_size", [0, 1, 3])
def test_derive_search_matches_the_reference_with_few_candidates(bci, max_formula_size):
    # no candidate fits at 0, and at 1 only atoms do: free metavariables
    # have nothing or little to range over
    _assert_same_search(bci, ms("[a->b, a]"), ms("[b]"), max_steps=3,
                        max_formula_size=max_formula_size)
    _assert_same_search(bci, ms("[]"), ms("[a -> a]"), max_steps=2,
                        max_formula_size=max_formula_size, max_multiset_size=1)


# -- symmetrization ----------------------------------------------------------------


def test_partition_enumeration():
    gamma = ms("[x, x, y]")
    parts = list(_ordered_partitions(gamma, 2))
    assert len(parts) == partition_count(gamma, 2) == 6
    for g1, g2 in parts:
        assert g1 + g2 == gamma


@pytest.mark.parametrize("gamma", ["[]", "[x]", "[x, x, x]", "[x, y]", "[x, x, y]",
                                   "[x, y, z]", "[x, x, y, z]"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ordered_partitions_against_brute_force(gamma, n):
    gamma = ms(gamma)
    # brute force: every n-tuple of submultisets, in product order, kept
    # when it sums to gamma
    reference = [parts for parts in itertools.product(submultisets(gamma), repeat=n)
                 if msum(*parts) == gamma]
    got = list(_ordered_partitions(gamma, n))
    assert Counter(got) == Counter(reference)
    assert max(Counter(got).values()) == 1
    assert len(got) == partition_count(gamma, n)
    # the order is pinned where the benchmark's verdicts could see it: up to
    # two parts, and any number of parts over one distinct formula
    if n <= 2 or len(gamma.support) <= 1:
        assert got == reference


def test_symmetrize_threshold_relation(ex54_asym):
    assert asymmetric_query(ex54_asym.base, ms("[x]"), xx) is HOLDS
    assert asymmetric_query(ex54_asym.base, ms("[x, x]"), xx) is FAILS
    assert symmetrize_query(ex54_asym, ms("[x, x, x]"), ms("[x, x]")) is FAILS


def test_symmetrize_integer_sum(z_oracle):
    assert symmetrize_query(z_oracle, ms("[]"), ms("[1, -1]")) is FAILS
    assert symmetrize_query(z_oracle, ms("[1, 2]"), ms("[1, 2]")) is HOLDS


def test_symmetrize_reflexive_split(z_oracle):
    # any reflexive oracle accepts a multiset split into its own singletons
    gamma = ms("[1, -2, 3]")
    assert symmetrize_query(z_oracle, gamma, gamma) is HOLDS


def test_symmetrize_empty_conclusions(z_oracle):
    # the entails-every-theorem clause, decided by the oracle hook
    assert symmetrize_query(z_oracle, ms("[-1]"), ms("[]")) is HOLDS
    assert symmetrize_query(z_oracle, ms("[1]"), ms("[]")) is FAILS


def test_symmetrize_empty_without_hook_is_unknown(ex54):
    bare = AsymmetricPart(ex54)  # no declared theorem basis
    assert symmetrize_query(bare, ms("[x]"), ms("[]")) is UNKNOWN


def test_symmetrize_partition_cap(z_oracle):
    gamma = FMultiset([parse_formula(str(k)) for k in range(-3, 4)] * 3)
    conclusions = ms("[0, 0, 0, 0, 0]")
    assert partition_count(gamma, 5) > 10 ** 3
    assert symmetrize_query(z_oracle, gamma, conclusions,
                            partition_cap=10 ** 3) is UNKNOWN


def test_symmetrization_oracle_wrapper(z_oracle):
    sym = Symmetrization(z_oracle)
    assert sym.entails(ms("[]"), ms("[1, -1]")) is FAILS
    assert sym.entails(ms("[1, 1]"), ms("[2]")) is HOLDS


def test_asymmetric_part(zsym, z_oracle):
    za = AsymmetricPart(zsym)
    for premises, conclusion in [("[1]", "1"), ("[1, 1]", "1"), ("[]", "0"),
                                 ("[1]", "0"), ("[-2, 1]", "-1")]:
        assert za.entails(ms(premises), parse_formula(conclusion)) is \
            z_oracle.entails(ms(premises), parse_formula(conclusion))


def test_asymmetric_part_reflexive_on_every_scr(zsym, psym, ex54):
    # [f] |- f holds for the asymmetric part of each bundled symmetric oracle
    for oracle, formulas in [(zsym, ["1", "-2", "p", "p -> q"]),
                             (psym, ["1", "-2", "0"]),
                             (ex54, ["x"])]:
        part = AsymmetricPart(oracle)
        for text in formulas:
            f = parse_formula(text)
            assert part.entails(FMultiset([f]), f) is HOLDS, (oracle.name, text)


# -- closure properties of derivability (sampled) -----------------------------------


def test_derivability_reflexivity_compatibility_transitivity(bci):
    rng = random.Random(23)
    for i in range(30):
        system = random_concrete_system(rng, f"C{i}")
        d = random_relevant_derivation(rng, system)
        start, end = d.steps[0], d.steps[-1]
        assert check_derivation(d, system, start, end) is DerivationVerdict.RELEVANT
        # compatibility: lift every step by a context
        pi = FMultiset([a, Imp(a, b)])
        lifted = Derivation(tuple(s + pi for s in d.steps), d.step_rules)
        assert check_derivation(lifted, system, start + pi,
                                end + pi) is DerivationVerdict.RELEVANT
    # transitivity: concatenate two relevant derivations sharing the middle
    d1 = derive_search(bci, ms("[a->b, a]"), ms("[b]")).derivation
    d2 = Derivation((ms("[b]"), ms("[b, b -> b]")), (RuleApp("I"),))
    joined = Derivation(d1.steps + d2.steps[1:], d1.step_rules + d2.step_rules)
    assert check_derivation(joined, bci, ms("[a->b, a]"),
                            ms("[b -> b, b]")) is DerivationVerdict.RELEVANT


# -- tree extraction -----------------------------------------------------------------


def test_extract_bci_example(bci):
    d = five_premise_derivation()
    premises, conclusions = ms("[a->b, a->c, a, a, a]"), ms("[a, b, c]")
    ext = extract_tree(d, bci, premises, conclusions, b)
    assert ext.premises_used == ms("[a->b, a]")
    assert ext.premises_rest == ms("[a->c, a, a]")
    assert ext.premises_used + ext.premises_rest == premises
    assert verify(ext.tree, bci, ext.premises_used, b) >= RelevanceVerdict.RELEVANT
    assert check_derivation(ext.residual, bci, ext.premises_rest,
                            ms("[a, c]")) is DerivationVerdict.RELEVANT


def test_extract_one_step(bci):
    d = Derivation((ms("[x]"),), ())
    ext = extract_tree(d, bci, ms("[x]"), ms("[x]"), xx)
    assert ext.premises_used == ms("[x]")
    assert ext.tree.node_count() == 1
    assert ext.premises_rest == FMultiset()
    assert ext.residual.steps == (FMultiset(),)


OLDEST_FIRST_SYSTEM = """
system OldestFirst
axiom ax : 'a'
rule  r  : 'a' |- 'b'
"""


def test_extract_consumes_the_oldest_equal_occurrence():
    from relcon import parse_system

    # the middle step holds two equal occurrences of a, the premise's and the
    # axiom's; the rule consumes the older one, the premise
    system = parse_system(OLDEST_FIRST_SYSTEM)
    d = Derivation((ms("[a]"), ms("[a, a]"), ms("[a, b]")), (RuleApp("ax"), RuleApp("r")))
    ext = extract_tree(d, system, ms("[a]"), ms("[a, b]"), b)
    assert ext.tree == ProofTree(b, RuleJust("r"), (premise_leaf(a),))
    assert ext.premises_used == ms("[a]") and ext.premises_rest == FMultiset()
    assert str(ext.residual) == "[] --ax--> [a]"
    ext = extract_tree(d, system, ms("[a]"), ms("[a, b]"), a)
    assert ext.tree == axiom_leaf(a, "ax")
    assert ext.premises_used == FMultiset() and ext.premises_rest == ms("[a]")
    assert str(ext.residual) == "[a] --r--> [b]"
    # of two equal final occurrences, the older one is extracted
    d = Derivation((ms("[a]"), ms("[a, a]")), (RuleApp("ax"),))
    ext = extract_tree(d, system, ms("[a]"), ms("[a, a]"), a)
    assert ext.tree == premise_leaf(a) and ext.premises_used == ms("[a]")
    assert str(ext.residual) == "[] --ax--> [a]"


def test_extract_preconditions(bci):
    d = five_premise_derivation()
    premises, conclusions = ms("[a->b, a->c, a, a, a]"), ms("[a, b, c]")
    with pytest.raises(ExtractionError):
        extract_tree(d, bci, premises, ms("[b, c]"), b)  # not relevant for these
    with pytest.raises(ExtractionError):
        extract_tree(d, bci, premises, conclusions, parse_formula("q"))


def test_extract_random_derivations():
    rng = random.Random(31)
    done = 0
    for i in range(150):
        system = random_concrete_system(rng, f"S{i}")
        d = random_relevant_derivation(rng, system)
        conclusions = d.steps[-1]
        if conclusions.size == 0:
            continue
        premises = d.steps[0]
        phi = rng.choice(conclusions.distinct())
        ext = extract_tree(d, system, premises, conclusions, phi)
        assert ext.premises_used + ext.premises_rest == premises
        assert verify(ext.tree, system, ext.premises_used, phi) >= RelevanceVerdict.RELEVANT
        assert check_derivation(ext.residual, system, ext.premises_rest,
                                conclusions - FMultiset([phi])) is DerivationVerdict.RELEVANT
        done += 1
    assert done >= 100


# -- genuinely symmetric systems -----------------------------------------------------


SWAP_SYSTEM = """
system Swap symmetric
axiom pair : p, q -> p
rule  dup  : p, p |- p, p, p
"""


def test_symmetric_system_derivations():
    from relcon import parse_system

    system = parse_system(SWAP_SYSTEM)
    # the axiom introduces a two-formula multiset in context
    d = Derivation((ms("[c]"), ms("[a, b -> a, c]")),
                   (RuleApp("pair", {"p": a, "q": b}),))
    assert check_derivation(d, system, ms("[c]"),
                            ms("[a, b -> a, c]")) is DerivationVerdict.RELEVANT
    # a rule with a multi-formula right side
    d2 = Derivation((ms("[a, a]"), ms("[a, a, a]")), (RuleApp("dup"),))
    assert check_derivation(d2, system, ms("[a, a]"),
                            ms("[a, a, a]")) is DerivationVerdict.RELEVANT
    # inferred substitution for the axiom
    d3 = Derivation((ms("[c]"), ms("[a, b -> a, c]")), (RuleApp("pair"),))
    assert check_derivation(d3, system, ms("[c]"),
                            ms("[a, b -> a, c]")) is DerivationVerdict.RELEVANT


def test_symmetric_system_derive_search():
    from relcon import parse_system

    system = parse_system(SWAP_SYSTEM)
    result = derive_search(system, ms("[b, b]"), ms("[b, b, b]"), max_steps=3)
    assert result.found
    assert check_derivation(result.derivation, system, ms("[b, b]"),
                            ms("[b, b, b]")) is DerivationVerdict.RELEVANT


# -- oracles backed by search ----------------------------------------------------------


def test_derivation_oracle(bci):
    oracle = DerivationOracle(bci, max_steps=6)
    assert oracle.entails(ms("[a->b, a]"), ms("[b]")) is HOLDS
    assert oracle.entails(ms("[a]"), ms("[a -> a, a]")) is HOLDS


def test_tree_search_oracle(bci):
    oracle = TreeSearchOracle(bci, max_nodes=6)
    assert oracle.entails(ms("[a->b, a]"), b) is HOLDS
    assert oracle.entails(ms("[a]"), b) is UNKNOWN  # bounded: not a disproof


def test_symmetrized_tree_search_agrees_with_derive(bci):
    # single-conclusion systems: partitioned tree provability matches
    # derivation search on small positive instances
    tree_oracle = TreeSearchOracle(bci, max_nodes=4)
    samples = [
        ("[a->b, a]", "[b]"),
        ("[a]", "[a -> a, a]"),
        ("[a->b, a->c, a, a, a]", "[a, b, c]"),
        ("[a, b]", "[b, a]"),
    ]
    for premises, conclusions in samples:
        via_partition = symmetrize_query(tree_oracle, ms(premises), ms(conclusions))
        via_derivation = derive_search(bci, ms(premises), ms(conclusions),
                                       max_steps=6).found
        assert via_partition is HOLDS
        assert via_derivation


# -- derivation files ---------------------------------------------------------------------


def test_derivation_json_roundtrip(bci):
    d = five_premise_derivation()
    text = dump_derivation(d)
    again = load_derivation(text)
    assert again == d
    assert dump_derivation(again) == text


def test_derivation_json_rules_required():
    with pytest.raises(ValueError):
        load_derivation('[{"multiset": "[a]"}, {"multiset": "[a, b]"}]')
    with pytest.raises(ValueError):
        load_derivation('[]')


@pytest.mark.parametrize("text", [
    '{"multiset": "[a]"}',
    '[["a"]]',
    '[{"multiset": 1}]',
    '[{"multiset": "[a]"}, {"by": {"rule": "mp"}}]',
    '[{"multiset": "[a]"}, {"multiset": "[a]", "by": {"rule": ["mp"]}}]',
    '[{"multiset": "[a]"}, {"multiset": "[a]", "by": {"rule": "mp", "subst": "p"}}]',
])
def test_derivation_json_shape_errors(text):
    with pytest.raises(ValueError):
        load_derivation(text)
