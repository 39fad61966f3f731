"""Acceptance suite: one test per criterion, each timed against its budget
and reporting a single PASS line on stdout."""

import random
import time


from relcon import (
    Atom,
    DerivationVerdict,
    FAILS,
    FMultiset,
    HOLDS,
    Imp,
    ProofTree,
    RelevanceVerdict,
    RuleJust,
    axiom_leaf,
    check_derivation,
    classify,
    deduction_transform,
    derive_search,
    extract_tree,
    load_proof,
    matrix_eval,
    load_matrix,
    countermodel_search,
    monotonic_companion,
    numeral,
    parse_formula,
    parse_multiset,
    premise_leaf,
    quotient_check,
    symmetrize_query,
    verify,
)
from relcon.laws import SYM_IMPLICATIONS, ASYM_IMPLICATIONS, check_laws
from relcon.semantics import (
    AbelianSymmetricOracle,
    IdentityOracle,
)
from relcon.cli import main
from relcon.symmetric import AsymmetricPart, Derivation, RuleApp, partition_count
from relcon.theory import monotone_mapping_agrees
from conftest import (
    make_p_oracle,
    make_z_oracle,
    numeral_domain,
    random_concrete_system,
    random_relevant_derivation,
    random_relevant_proof,
    x_domain,
)

ms = parse_multiset


class Budget:
    def __init__(self, criterion: int, seconds: float, description: str):
        self.criterion = criterion
        self.seconds = seconds
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
            print(f"ACCEPTANCE {self.criterion:02d} PASS "
                  f"({elapsed:.2f}s/{self.seconds:g}s) {self.description}")
        else:
            print(f"ACCEPTANCE {self.criterion:02d} FAIL {self.description}")
        return False


def test_criterion_01_relevance_classification(toy_xy):
    with Budget(1, 1.0, "four-way relevance classification on the toy system"):
        x = Atom("x")
        tree = axiom_leaf(x, "ax")
        expected = {
            "[x, z]": RelevanceVerdict.PLAIN,
            "[x, y]": RelevanceVerdict.WEAKLY_RELEVANT,
            "[]": RelevanceVerdict.RELEVANT,
            "[x]": RelevanceVerdict.STRONGLY_RELEVANT,
        }
        for premises, verdict in expected.items():
            assert verify(tree, toy_xy, ms(premises), x) is verdict, premises


def test_criterion_02_four_valued_matrix(fixtures_dir, t_fusion):
    with Budget(2, 1.0, "four-element matrix: evaluation, refutation, fixture proof"):
        matrix = load_matrix(fixtures_dir / "t4.mat")
        assert matrix.designated == {"3"}
        failure = parse_formula("(a -> b) -> ((a o c) -> (b o c))")
        assert matrix_eval(matrix, {"a": "2", "b": "0", "c": "1"}, failure) == "0"
        assert "0" not in matrix.designated
        refutation = countermodel_search(matrix, failure)
        assert refutation is not None
        assert matrix_eval(matrix, refutation, failure) not in matrix.designated
        proof = load_proof((fixtures_dir / "mono_fusion.proof").read_text())
        goal = parse_formula("(a o c) -> (b o c)")
        assert verify(proof, t_fusion, ms("[a -> b]"), goal) \
            is RelevanceVerdict.RELEVANT


def test_criterion_03_deduction_theorem(bci, bcio):
    with Budget(3, 1.1, "implication discharge on 200+ random relevant proofs"):
        rng = random.Random(2024)
        done = 0
        attempts = 0
        while done < 200 and attempts < 2000:
            attempts += 1
            fusion = rng.random() < 0.4
            system = bcio if fusion else bci
            tree, premises = random_relevant_proof(rng, system, fusion=fusion,
                                                   max_nodes=12)
            if premises.size == 0:
                continue
            assert tree.node_count() <= 12
            phi = rng.choice(premises.distinct())
            out = deduction_transform(tree, system, premises, phi)
            rest = premises - FMultiset([phi])
            goal = Imp(phi, tree.formula)
            assert verify(out, system, rest, goal) >= RelevanceVerdict.RELEVANT
            back = ProofTree(tree.formula, RuleJust("mp"), (out, premise_leaf(phi)))
            assert verify(back, system, premises, tree.formula) \
                >= RelevanceVerdict.RELEVANT
            done += 1
        assert done >= 200


def test_criterion_04_abelian_fixtures():
    with Budget(4, 1.0, "integer-sum and designated-value fixtures"):
        z = make_z_oracle()
        assert z.entails(ms("[]"), numeral(0)) is HOLDS
        assert z.entails(ms("[1]"), numeral(0)) is FAILS
        assert z.entails(ms("[1]"), numeral(1)) is HOLDS
        assert z.entails(ms("[1, 1]"), numeral(1)) is FAILS
        p = make_p_oracle()
        assert p.entails(ms("[1, 2]"), numeral(1)) is HOLDS
        assert p.entails(ms("[1]"), parse_formula("2 -> 1")) is FAILS
        zs = AbelianSymmetricOracle()
        assert zs.entails(ms("[]"), ms("[1, -1]")) is HOLDS
        assert symmetrize_query(z, ms("[]"), ms("[1, -1]")) is FAILS


def test_criterion_05_symmetrization_roundtrips(ex54, ex54_asym, psym):
    with Budget(5, 17.0, "symmetrization round-trip laws on all bundled oracles"):
        z = make_z_oracle()
        dom = numeral_domain(max_size=3)
        multisets = dom.multisets()

        # (i) the asymmetric part of the symmetrization is the relation itself
        for gamma in multisets:
            for phi in dom.formulas:
                direct = z.entails(gamma, phi)
                around = symmetrize_query(z, gamma, FMultiset([phi]))
                assert direct is around
        xdom = x_domain(max_size=5)
        for gamma in xdom.multisets():
            phi = Atom("x")
            direct = ex54_asym.entails(gamma, phi)
            around = symmetrize_query(ex54_asym, gamma, FMultiset([phi]))
            assert direct is around

        # (ii) symmetrizing the asymmetric part stays inside the relation,
        # strictly: the threshold relation's witness is reproduced
        zs = AbelianSymmetricOracle()
        for gamma in multisets:
            for delta in multisets:
                if delta.size == 0:
                    continue
                if symmetrize_query(AsymmetricPart(zs), gamma, delta) is HOLDS:
                    assert zs.entails(gamma, delta) is HOLDS
        for gamma in xdom.multisets():
            for delta in xdom.multisets():
                if delta.size == 0:
                    continue
                if symmetrize_query(ex54_asym, gamma, delta) is HOLDS:
                    assert ex54.entails(gamma, delta) is HOLDS
        witness_g, witness_d = ms("[x, x, x]"), ms("[x, x]")
        assert symmetrize_query(ex54_asym, witness_g, witness_d) is FAILS
        assert ex54.entails(witness_g, witness_d) is HOLDS
        assert symmetrize_query(z, ms("[]"), ms("[1, -1]")) is FAILS
        assert zs.entails(ms("[]"), ms("[1, -1]")) is HOLDS

        # (iii) equality for the Tarskian fixture
        pa = AsymmetricPart(psym, empty_via_base=True)
        for gamma in multisets:
            for delta in multisets:
                around = symmetrize_query(pa, gamma, delta)
                direct = psym.entails(gamma, delta)
                assert around is direct


def test_criterion_06_bci_derivations(bci):
    with Budget(6, 1.0, "multiset derivations: positives and a real negative"):
        five = ms("[a->b, a->c, a, a, a]")
        target = ms("[a, b, c]")
        d = Derivation(
            (five, ms("[a->c, a, a, b]"), target),
            (RuleApp("mp"), RuleApp("mp")))
        assert check_derivation(d, bci, five, target) is DerivationVerdict.RELEVANT
        d2 = Derivation((ms("[a]"), ms("[a, a -> a]")), (RuleApp("I"),))
        assert check_derivation(d2, bci, ms("[a]"),
                                ms("[a -> a, a]")) is DerivationVerdict.RELEVANT

        four = ms("[a->b, a->c, a, a]")
        result = derive_search(bci, four, target, max_steps=8, max_formula_size=7)
        assert not result.found
        assert result.status == "exhausted"
        # independent certificate: the integer-sum relation contains the
        # lifted system (axiom instances sum to zero, modus ponens preserves
        # the bound) and refutes the four-premise consecution
        zs = AbelianSymmetricOracle()
        for inst in ("(p -> q) -> ((r -> p) -> (r -> q))",
                     "(p -> (q -> r)) -> (q -> (p -> r))", "p -> p"):
            assert zs.entails(ms("[]"), ms(f"[{inst}]")) is HOLDS
        assert zs.entails(ms("[p -> q, p]"), ms("[q]")) is HOLDS
        assert zs.entails(four, target) is FAILS
        assert zs.entails(five, target) is HOLDS


def test_criterion_07_tree_extraction():
    with Budget(7, 1.0, "tree extraction from 100+ random relevant derivations"):
        rng = random.Random(777)
        done = 0
        attempts = 0
        while done < 100 and attempts < 1000:
            attempts += 1
            system = random_concrete_system(rng, f"R{attempts}")
            derivation = random_relevant_derivation(rng, system)
            conclusions = derivation.steps[-1]
            if conclusions.size == 0:
                continue
            premises = derivation.steps[0]
            phi = rng.choice(conclusions.distinct())
            ext = extract_tree(derivation, system, premises, conclusions, phi)
            assert ext.premises_used + ext.premises_rest == premises
            assert verify(ext.tree, system, ext.premises_used, phi) \
                >= RelevanceVerdict.RELEVANT
            assert check_derivation(ext.residual, system, ext.premises_rest,
                                    conclusions - FMultiset([phi])) \
                is DerivationVerdict.RELEVANT
            done += 1
        assert done >= 100


def test_criterion_08_laws_battery(ex54, zsym, psym):
    with Budget(8, 3.3, "law battery and the derived-law network"):
        z = make_z_oracle()
        report_z = classify(z, numeral_domain(max_size=3))
        assert report_z.is_consequence_relation
        assert not report_z.is_monotone and not report_z.is_contractive
        assert not report_z.consistency_errors

        report_p = classify(make_p_oracle(), numeral_domain(max_size=3))
        assert report_p.is_tarskian
        assert not report_p.consistency_errors

        report_54 = classify(ex54, x_domain(max_size=4))
        assert report_54.is_consequence_relation
        assert not report_54.is_monotone
        assert not report_54.consistency_errors

        sym_fixtures = [
            (zsym, numeral_domain(max_size=2)),
            (psym, numeral_domain(max_size=2)),
            (ex54, x_domain(max_size=3)),
            (IdentityOracle(), numeral_domain(max_size=2)),
        ]
        for oracle, dom in sym_fixtures:
            results = check_laws(oracle, dom)
            for premise_laws, conclusion_law in SYM_IMPLICATIONS:
                if all(results[n].passed for n in premise_laws):
                    assert results[conclusion_law].passed, \
                        (oracle.name, premise_laws, conclusion_law)
        asym_fixtures = [
            (z, numeral_domain(max_size=2)),
            (make_p_oracle(), numeral_domain(max_size=2)),
        ]
        for oracle, dom in asym_fixtures:
            results = check_laws(oracle, dom)
            for premise_laws, conclusion_law in ASYM_IMPLICATIONS:
                if all(results[n].passed for n in premise_laws):
                    assert results[conclusion_law].passed, \
                        (oracle.name, premise_laws, conclusion_law)


def test_criterion_09_theory_monoid(zsym, psym):
    with Budget(9, 1.0, "theory monoid, congruence, quotient, agreement"):
        dom = numeral_domain(max_size=3)
        report = quotient_check(zsym, dom.multisets())
        assert report.all_ok, report.failures[:3]

        # the monotone-mapping characterization, in both directions
        law_z, mapping_z = monotone_mapping_agrees(zsym, numeral_domain(max_size=2))
        assert law_z is False and mapping_z is False
        law_p, mapping_p = monotone_mapping_agrees(psym, numeral_domain(max_size=2))
        assert law_p is True and mapping_p is True
        assert not report.th_monotone_mapping


def test_criterion_10_monotonic_companion():
    with Budget(10, 1.5, "the least monotone extension of the sum relation"):
        from relcon import submultisets

        z = make_z_oracle()
        dom = numeral_domain(max_size=3)
        multisets = dom.multisets()
        for gamma in multisets:
            for phi in dom.formulas:
                expected = any(z.entails(delta, phi) is HOLDS
                               for delta in submultisets(gamma))
                got = monotonic_companion(z, gamma, phi)
                assert (got is HOLDS) == expected
                # agreement wherever the base relation is monotone-closed
                closed = all(
                    z.entails(gamma, phi) is HOLDS
                    for delta in submultisets(gamma)
                    if z.entails(delta, phi) is HOLDS)
                if closed:
                    assert got is z.entails(gamma, phi)
        # generalized reflexivity, exhaustively
        for gamma in multisets:
            for phi in dom.formulas:
                assert monotonic_companion(z, gamma + FMultiset([phi]), phi) is HOLDS
        # the worked example: holds through the empty submultiset
        assert monotonic_companion(z, ms("[1]"), numeral(0)) is HOLDS
        assert z.entails(ms("[1]"), numeral(0)) is FAILS


def test_criterion_11_symmetrization_past_the_partition_count(capsys):
    with Budget(11, 1.0, "symmetrize: 14 premises into 5 conclusions is decided"):
        premises, conclusions = "[a,b,c,d,e,a,b,c,d,e,a,b,c,d]", "[f,g,h,i,j]"
        # more ordered partitions than the default cap: an enumeration of
        # them would answer unknown
        assert partition_count(ms(premises), 5) > 10 ** 6
        code = main(["symmetrize", "--oracle", "z", "--premises", premises,
                     "--conclusions", conclusions])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[-1] == "RESULT fails"
