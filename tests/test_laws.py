import pytest

from relcon import (
    AbelianSymmetricOracle,
    Atom,
    FAILS,
    FMultiset,
    HOLDS,
    MonotonicCompanion,
    SingleAtomThresholdOracle,
    Symmetrization,
    UNKNOWN,
    check_law,
    check_laws,
    classify,
    law_names,
    monotonic_companion,
    numeral,
    parse_multiset,
)
from relcon import submultisets
from relcon.laws import ASYM_IMPLICATIONS, SYM_IMPLICATIONS, SampleDomain
from relcon.oracles import ConsequenceOracle, verdict
from relcon.semantics import IdentityOracle
from conftest import (
    make_p_oracle,
    make_z_oracle,
    numeral_domain,
    x_domain,
)

ms = parse_multiset


# -- individual laws -----------------------------------------------------------


def test_z_reflexivity_passes(z_oracle):
    result = check_law(z_oracle, "Reflexivity", numeral_domain())
    assert result.passed and result.exhaustive


def test_z_cut_passes_exhaustively(z_oracle):
    dom = numeral_domain(max_size=2, exhaustive_cap=10 ** 6)
    result = check_law(z_oracle, "Cut", dom)
    assert result.passed and result.exhaustive


def test_z_monotonicity_counterexample(z_oracle):
    dom = numeral_domain(exhaustive_cap=10 ** 6)
    result = check_law(z_oracle, "Monotonicity", dom)
    assert result.status == "counterexample" and result.exhaustive
    w = result.witness
    assert w["G"] == ms("[]") and w["f"] == numeral(0) and w["D"] == ms("[1]")
    # the returned witness is independently a genuine violation
    assert z_oracle.entails(w["G"], w["f"]) is HOLDS
    assert z_oracle.entails(w["G"] + w["D"], w["f"]) is FAILS


def test_z_contraction_counterexample(z_oracle):
    result = check_law(z_oracle, "Contraction", numeral_domain())
    assert result.status == "counterexample"
    w = result.witness
    two = w["G"] + FMultiset([w["g"], w["g"]])
    one = w["G"] + FMultiset([w["g"]])
    assert z_oracle.entails(two, w["f"]) is HOLDS
    assert z_oracle.entails(one, w["f"]) is FAILS


def test_duplication_facts(z_oracle):
    # duplicating a premise is not admissible for the sum relation
    assert z_oracle.entails(ms("[1]"), numeral(1)) is HOLDS
    assert z_oracle.entails(ms("[1, 1]"), numeral(1)) is FAILS


def test_z_derived_laws_pass(z_oracle):
    dom = numeral_domain(max_size=2)
    for law in ("RelevantCut", "TheoremRemoval", "Cut"):
        assert check_law(z_oracle, law, dom).status == "passed"


def test_z_generalized_reflexivity_fails(z_oracle):
    result = check_law(z_oracle, "GeneralizedReflexivity", numeral_domain())
    assert result.status == "counterexample"


def test_theorem_removal_needs_basis():
    from relcon.semantics import AbelianOracle

    bare = AbelianOracle("z")  # no declared theorem basis
    result = check_law(bare, "TheoremRemoval", numeral_domain())
    assert result.status == "inconclusive"


def test_ex54_monotonicity_fails(ex54):
    result = check_law(ex54, "Monotonicity", x_domain())
    assert result.status == "counterexample"
    # the specific witness from the relation's definition
    x = Atom("x")
    assert ex54.entails(ms("[x]"), ms("[x]")) is HOLDS
    assert ex54.entails(ms("[x, x]"), ms("[x]")) is FAILS


def test_ex54_is_scr(ex54):
    dom = x_domain(max_size=4)
    for law in ("Reflexivity", "Transitivity", "Compatibility"):
        assert check_law(ex54, law, dom).passed


def test_psym_is_monotone_contractive_scr(psym):
    dom = numeral_domain(max_size=2)
    for law in ("Reflexivity", "Transitivity", "Compatibility",
                "Monotonicity", "Contraction", "rContraction"):
        assert check_law(psym, law, dom).passed, law


def test_zsym_laws(zsym):
    dom = numeral_domain(max_size=2)
    for law in ("Reflexivity", "Transitivity", "Compatibility"):
        assert check_law(zsym, law, dom).passed
    assert check_law(zsym, "Monotonicity", dom).status == "counterexample"
    assert check_law(zsym, "TheoremReflexivity", dom).status == "counterexample"


def test_unknown_law_name(z_oracle, ex54):
    with pytest.raises(KeyError):
        check_law(z_oracle, "Transitivity", numeral_domain())  # symmetric-only
    with pytest.raises(KeyError):
        check_law(ex54, "Cut", x_domain())  # asymmetric-only


def test_sampling_above_cap(z_oracle):
    dom = numeral_domain(max_size=3, exhaustive_cap=100, sample_count=500)
    result = check_law(z_oracle, "Cut", dom)
    assert not result.exhaustive
    assert result.status == "passed"
    assert result.checked == 500


class _PairOracle(ConsequenceOracle):
    """Holds exactly when there are two premises, whatever the conclusion."""

    name = "pair"

    def __init__(self):
        self.theorem_basis = [numeral(0), numeral(1)]

    def entails(self, premises, conclusion):
        return verdict(premises.size == 2)


@pytest.mark.parametrize("seed, law, checked, witness", [
    (0, "RelevantCut", 30, "G=[2, 3]; f=0; Ds=([-3, -3], [-3, 0])"),
    (0, "TheoremRemoval", 78, "G=[3]; D=[1]; f=3"),
    (3, "RelevantCut", 85, "G=[-2, -2]; f=-1; Ds=([-1, -2], [1, 3])"),
    (3, "TheoremRemoval", 128, "G=[3]; D=[1]; f=-3"),
])
def test_sampled_draw_sequence(seed, law, checked, witness):
    # pins the seeded draws: the pool order and the rng.choice calls per draw
    dom = SampleDomain(tuple(numeral(k) for k in range(-3, 4)), max_size=3,
                       seed=seed, exhaustive_cap=10)
    result = check_law(_PairOracle(), law, dom)
    assert not result.exhaustive
    assert result.status == "counterexample"
    assert (result.checked, result.witness_str()) == (checked, witness)


# -- the whole battery, pinned ---------------------------------------------------


class _Patchy:
    """A base oracle that answers UNKNOWN on every one-premise query."""

    def __init__(self, base):
        self.base = base
        self.symmetric = base.symmetric
        self.theorem_basis = getattr(base, "theorem_basis", None)

    def entails(self, premises, conclusion):
        if premises.size == 1:
            return UNKNOWN
        return self.base.entails(premises, conclusion)


_PIN_ORACLES = {
    "z": make_z_oracle,
    "p": make_p_oracle,
    "ex54": SingleAtomThresholdOracle,
    "zsym": AbelianSymmetricOracle,
    "psym": lambda: Symmetrization(make_p_oracle()),
    "identity": IdentityOracle,
    "z?": lambda: _Patchy(make_z_oracle()),
    "zsym?": lambda: _Patchy(AbelianSymmetricOracle()),
}

# (law, status, exhaustive, checked, witness_str()) for every law, in
# law_names order; "sampled" runs the same domain with a cap of 20
_PINNED = {
    ('z', 'exhaustive'): [
        ('Reflexivity', 'passed', True, 4, ''),
        ('Cut', 'passed', True, 3600, ''),
        ('Monotonicity', 'counterexample', True, 19, 'G=[]; f=0; D=[1]'),
        ('Contraction', 'counterexample', True, 49, 'G=[1]; g=-1; f=-1'),
        ('GeneralizedReflexivity', 'counterexample', True, 13, 'G=[1]; f=-1'),
        ('RelevantCut', 'passed', True, 9240, ''),
        ('TheoremRemoval', 'passed', True, 900, ''),
    ],
    ('p', 'exhaustive'): [
        ('Reflexivity', 'passed', True, 4, ''),
        ('Cut', 'passed', True, 3600, ''),
        ('Monotonicity', 'passed', True, 900, ''),
        ('Contraction', 'passed', True, 240, ''),
        ('GeneralizedReflexivity', 'passed', True, 60, ''),
        ('RelevantCut', 'passed', True, 9240, ''),
        ('TheoremRemoval', 'passed', True, 900, ''),
    ],
    ('ex54', 'exhaustive'): [
        ('Reflexivity', 'passed', True, 4, ''),
        ('Transitivity', 'passed', True, 64, ''),
        ('Compatibility', 'passed', True, 64, ''),
        ('Monotonicity', 'counterexample', True, 2, 'G=[]; D=[]; P=[x]'),
        ('Contraction', 'counterexample', True, 3, 'G=[]; g=x; D=[x, x]'),
        ('rContraction', 'counterexample', True, 9, 'G=[x, x]; g=x; D=[]'),
        ('GeneralizedReflexivity', 'counterexample', True, 2, 'G=[]; D=[x]'),
        ('TheoremReflexivity', 'counterexample', True, 2, 'G=[x]'),
        ('MultiCut', 'passed', True, 256, ''),
        ('TheoremRemoval', 'passed', True, 64, ''),
    ],
    ('zsym', 'exhaustive'): [
        ('Reflexivity', 'passed', True, 15, ''),
        ('Transitivity', 'passed', True, 3375, ''),
        ('Compatibility', 'passed', True, 3375, ''),
        ('Monotonicity', 'counterexample', True, 4, 'G=[]; D=[]; P=[1]'),
        ('Contraction', 'counterexample', True, 6, 'G=[]; g=-1; D=[-1, -1]'),
        ('rContraction', 'counterexample', True, 36, 'G=[]; g=1; D=[-1, -1]'),
        ('GeneralizedReflexivity', 'counterexample', True, 4, 'G=[]; D=[1]'),
        ('TheoremReflexivity', 'counterexample', True, 4, 'G=[1]'),
        ('MultiCut', 'passed', True, 50625, ''),
        ('TheoremRemoval', 'passed', True, 3375, ''),
    ],
    ('psym', 'exhaustive'): [
        ('Reflexivity', 'passed', True, 15, ''),
        ('Transitivity', 'passed', True, 3375, ''),
        ('Compatibility', 'passed', True, 3375, ''),
        ('Monotonicity', 'passed', True, 3375, ''),
        ('Contraction', 'passed', True, 900, ''),
        ('rContraction', 'passed', True, 900, ''),
        ('GeneralizedReflexivity', 'passed', True, 225, ''),
        ('TheoremReflexivity', 'passed', True, 15, ''),
        ('MultiCut', 'passed', True, 50625, ''),
        ('TheoremRemoval', 'passed', True, 3375, ''),
    ],
    ('identity', 'exhaustive'): [
        ('Reflexivity', 'passed', True, 15, ''),
        ('Transitivity', 'passed', True, 3375, ''),
        ('Compatibility', 'passed', True, 3375, ''),
        ('Monotonicity', 'counterexample', True, 2, 'G=[]; D=[]; P=[-1]'),
        ('Contraction', 'counterexample', True, 6, 'G=[]; g=-1; D=[-1, -1]'),
        ('rContraction', 'counterexample', True, 301, 'G=[-1, -1]; g=-1; D=[]'),
        ('GeneralizedReflexivity', 'counterexample', True, 2, 'G=[]; D=[-1]'),
        ('TheoremReflexivity', 'counterexample', True, 2, 'G=[-1]'),
        ('MultiCut', 'passed', True, 50625, ''),
        ('TheoremRemoval', 'passed', True, 3375, ''),
    ],
    ('z?', 'exhaustive'): [
        ('Reflexivity', 'inconclusive', True, 4, ''),
        ('Cut', 'inconclusive', True, 3600, ''),
        ('Monotonicity', 'counterexample', True, 24, 'G=[]; f=0; D=[-1, 2]'),
        ('Contraction', 'counterexample', True, 49, 'G=[1]; g=-1; f=-1'),
        ('GeneralizedReflexivity', 'counterexample', True, 13, 'G=[1]; f=-1'),
        ('RelevantCut', 'inconclusive', True, 9240, ''),
        ('TheoremRemoval', 'inconclusive', True, 900, ''),
    ],
    ('zsym?', 'exhaustive'): [
        ('Reflexivity', 'inconclusive', True, 15, ''),
        ('Transitivity', 'inconclusive', True, 3375, ''),
        ('Compatibility', 'inconclusive', True, 3375, ''),
        ('Monotonicity', 'counterexample', True, 9, 'G=[]; D=[]; P=[-1, 2]'),
        ('Contraction', 'counterexample', True, 126, 'G=[0]; g=-1; D=[-1, -1]'),
        ('rContraction', 'counterexample', True, 36, 'G=[]; g=1; D=[-1, -1]'),
        ('GeneralizedReflexivity', 'counterexample', True, 9, 'G=[]; D=[-1, 2]'),
        ('TheoremReflexivity', 'counterexample', True, 9, 'G=[-1, 2]'),
        ('MultiCut', 'inconclusive', True, 50625, ''),
        ('TheoremRemoval', 'inconclusive', True, 3375, ''),
    ],
    ('z', 'sampled'): [
        ('Reflexivity', 'passed', True, 4, ''),
        ('Cut', 'passed', False, 200, ''),
        ('Monotonicity', 'counterexample', False, 8, 'G=[-1, 1]; f=1; D=[0, 2]'),
        ('Contraction', 'counterexample', False, 42, 'G=[1, 2]; g=-1; f=1'),
        ('GeneralizedReflexivity', 'counterexample', False, 2, 'G=[2]; f=-1'),
        ('RelevantCut', 'passed', False, 200, ''),
        ('TheoremRemoval', 'passed', False, 200, ''),
    ],
    ('p', 'sampled'): [
        ('Reflexivity', 'passed', True, 4, ''),
        ('Cut', 'passed', False, 200, ''),
        ('Monotonicity', 'passed', False, 200, ''),
        ('Contraction', 'passed', False, 200, ''),
        ('GeneralizedReflexivity', 'passed', False, 200, ''),
        ('RelevantCut', 'passed', False, 200, ''),
        ('TheoremRemoval', 'passed', False, 200, ''),
    ],
    ('ex54', 'sampled'): [
        ('Reflexivity', 'passed', True, 4, ''),
        ('Transitivity', 'passed', False, 200, ''),
        ('Compatibility', 'passed', False, 200, ''),
        ('Monotonicity', 'counterexample', False, 12, 'G=[x]; D=[x]; P=[x, x, x]'),
        ('Contraction', 'counterexample', True, 3, 'G=[]; g=x; D=[x, x]'),
        ('rContraction', 'counterexample', True, 9, 'G=[x, x]; g=x; D=[]'),
        ('GeneralizedReflexivity', 'counterexample', True, 2, 'G=[]; D=[x]'),
        ('TheoremReflexivity', 'counterexample', True, 2, 'G=[x]'),
        ('MultiCut', 'passed', False, 200, ''),
        ('TheoremRemoval', 'passed', False, 200, ''),
    ],
    ('zsym', 'sampled'): [
        ('Reflexivity', 'passed', True, 15, ''),
        ('Transitivity', 'passed', False, 200, ''),
        ('Compatibility', 'passed', False, 200, ''),
        ('Monotonicity', 'counterexample', False, 1, 'G=[0]; D=[0, 0]; P=[1, 2]'),
        ('Contraction', 'counterexample', False, 42, 'G=[-1, 2]; g=-1; D=[-1, 0]'),
        ('rContraction', 'counterexample', False, 6, 'G=[1, 2]; g=2; D=[-1, 0]'),
        ('GeneralizedReflexivity', 'counterexample', False, 2, 'G=[1, 2]; D=[1, 1]'),
        ('TheoremReflexivity', 'counterexample', True, 4, 'G=[1]'),
        ('MultiCut', 'passed', False, 200, ''),
        ('TheoremRemoval', 'passed', False, 200, ''),
    ],
    ('psym', 'sampled'): [
        ('Reflexivity', 'passed', True, 15, ''),
        ('Transitivity', 'passed', False, 200, ''),
        ('Compatibility', 'passed', False, 200, ''),
        ('Monotonicity', 'passed', False, 200, ''),
        ('Contraction', 'passed', False, 200, ''),
        ('rContraction', 'passed', False, 200, ''),
        ('GeneralizedReflexivity', 'passed', False, 200, ''),
        ('TheoremReflexivity', 'passed', True, 15, ''),
        ('MultiCut', 'passed', False, 200, ''),
        ('TheoremRemoval', 'passed', False, 200, ''),
    ],
    ('identity', 'sampled'): [
        ('Reflexivity', 'passed', True, 15, ''),
        ('Transitivity', 'passed', False, 200, ''),
        ('Compatibility', 'passed', False, 200, ''),
        ('Monotonicity', 'counterexample', False, 2, 'G=[1, 1]; D=[1, 1]; P=[-1]'),
        ('Contraction', 'counterexample', False, 156, 'G=[]; g=1; D=[1, 1]'),
        ('rContraction', 'counterexample', False, 133, 'G=[-1, -1]; g=-1; D=[]'),
        ('GeneralizedReflexivity', 'counterexample', False, 1, 'G=[0]; D=[0, 0]'),
        ('TheoremReflexivity', 'counterexample', True, 2, 'G=[-1]'),
        ('MultiCut', 'passed', False, 200, ''),
        ('TheoremRemoval', 'passed', False, 200, ''),
    ],
    ('z?', 'sampled'): [
        ('Reflexivity', 'inconclusive', True, 4, ''),
        ('Cut', 'inconclusive', False, 200, ''),
        ('Monotonicity', 'counterexample', False, 8, 'G=[-1, 1]; f=1; D=[0, 2]'),
        ('Contraction', 'counterexample', False, 42, 'G=[1, 2]; g=-1; f=1'),
        ('GeneralizedReflexivity', 'counterexample', False, 2, 'G=[2]; f=-1'),
        ('RelevantCut', 'inconclusive', False, 200, ''),
        ('TheoremRemoval', 'inconclusive', False, 200, ''),
    ],
    ('zsym?', 'sampled'): [
        ('Reflexivity', 'inconclusive', True, 15, ''),
        ('Transitivity', 'inconclusive', False, 200, ''),
        ('Compatibility', 'inconclusive', False, 200, ''),
        ('Monotonicity', 'counterexample', False, 11, 'G=[0, 2]; D=[1, 1]; P=[1]'),
        ('Contraction', 'counterexample', False, 42, 'G=[-1, 2]; g=-1; D=[-1, 0]'),
        ('rContraction', 'counterexample', False, 6, 'G=[1, 2]; g=2; D=[-1, 0]'),
        ('GeneralizedReflexivity', 'counterexample', False, 2, 'G=[1, 2]; D=[1, 1]'),
        ('TheoremReflexivity', 'counterexample', True, 9, 'G=[-1, 2]'),
        ('MultiCut', 'inconclusive', False, 200, ''),
        ('TheoremRemoval', 'inconclusive', False, 200, ''),
    ],
}


@pytest.mark.parametrize("oracle_name, mode", list(_PINNED))
def test_battery_pinned(oracle_name, mode):
    formulas = (x_domain().formulas if oracle_name == "ex54"
                else tuple(numeral(k) for k in range(-1, 3)))
    kw = {"max_size": 3 if oracle_name == "ex54" else 2}
    if mode == "sampled":
        kw.update(seed=1, exhaustive_cap=20, sample_count=200)
    results = check_laws(_PIN_ORACLES[oracle_name](), SampleDomain(formulas, **kw))
    got = [(n, r.status, r.exhaustive, r.checked, r.witness_str())
           for n, r in results.items()]
    assert got == _PINNED[oracle_name, mode]


# -- the monotonic companion ------------------------------------------------------


def test_companion_examples(z_oracle):
    # holds via the empty submultiset
    assert monotonic_companion(z_oracle, ms("[1]"), numeral(0)) is HOLDS
    assert z_oracle.entails(ms("[1]"), numeral(0)) is FAILS


def test_companion_generalized_reflexivity(z_oracle):
    dom = numeral_domain(max_size=2)
    for gamma in dom.multisets():
        for f in dom.formulas:
            assert monotonic_companion(z_oracle, gamma + FMultiset([f]), f) is HOLDS


def test_companion_is_least_monotone_extension(z_oracle):
    dom = numeral_domain(max_size=2)
    for gamma in dom.multisets():
        for f in dom.formulas:
            expected = any(z_oracle.entails(delta, f) is HOLDS
                           for delta in submultisets(gamma))
            got = monotonic_companion(z_oracle, gamma, f)
            assert (got is HOLDS) == expected


def test_companion_equals_monotone_oracle():
    p = make_p_oracle()
    companion = MonotonicCompanion(p)
    dom = numeral_domain(max_size=2)
    for gamma in dom.multisets():
        for f in dom.formulas:
            assert companion.entails(gamma, f) is p.entails(gamma, f)


def test_companion_law_battery(z_oracle):
    companion = MonotonicCompanion(z_oracle)
    dom = numeral_domain(max_size=2)
    assert check_law(companion, "Monotonicity", dom).passed
    assert check_law(companion, "GeneralizedReflexivity", dom).passed


def test_symmetric_companion():
    ident = IdentityOracle()
    companion = MonotonicCompanion(ident)
    assert companion.entails(ms("[x, y]"), ms("[x]")) is HOLDS
    assert companion.entails(ms("[x]"), ms("[x, y]")) is FAILS


def test_symmetric_companion_law_battery():
    # identity's companion is D <= G: a monotone SCR that is not contractive
    companion = MonotonicCompanion(IdentityOracle())
    assert companion.symmetric and companion.name == "identity_m"
    results = check_laws(companion, numeral_domain(max_size=2))
    assert set(results) == set(law_names(True))
    failing = {n for n, r in results.items() if not r.passed}
    assert failing == {"Contraction"}
    w = results["Contraction"].witness
    assert w["D"] == FMultiset([w["g"], w["g"]])
    report = classify(companion, numeral_domain(max_size=2))
    assert report.is_consequence_relation and report.is_monotone
    assert not report.is_contractive and not report.consistency_errors


# -- classification -----------------------------------------------------------------


def test_classify_z(z_oracle):
    report = classify(z_oracle, numeral_domain())
    assert report.is_consequence_relation
    assert not report.is_monotone
    assert not report.is_contractive
    assert not report.is_tarskian
    assert not report.consistency_errors


def test_classify_p_tarskian():
    report = classify(make_p_oracle(), numeral_domain())
    assert report.is_tarskian
    assert not report.consistency_errors


def test_classify_ex54(ex54):
    report = classify(ex54, x_domain())
    assert report.is_consequence_relation  # symmetric: Refl + Trans + Compat
    assert not report.is_monotone
    assert not report.consistency_errors


def test_classify_summary_strings(z_oracle):
    report = classify(z_oracle, numeral_domain(max_size=2))
    assert "CR: yes" in report.summary()
    assert "monotone: no" in report.summary()


def test_classify_summary_is_unknown_where_a_law_is_undecided():
    from relcon.laws import ClassifyReport, LawResult

    results = {n: LawResult(n, "passed") for n in ("Reflexivity", "Cut", "Contraction")}
    results["Monotonicity"] = LawResult("Monotonicity", "inconclusive")
    report = ClassifyReport("o", False, results)
    assert report.summary() == ("CR: yes, monotone: unknown, contractive: yes, "
                                "tarskian: unknown")
    assert report.is_consequence_relation and not report.is_monotone
    # a counterexample settles a property whatever else is undecided
    results["Cut"] = LawResult("Cut", "counterexample")
    assert report.summary() == "CR: no, monotone: unknown, contractive: yes, tarskian: no"


def test_check_law_on_no_instances_is_inconclusive(z_oracle):
    empty = numeral_domain(max_size=-1)
    assert check_law(z_oracle, "Cut", empty).status == "inconclusive"
    unsampled = numeral_domain(exhaustive_cap=0, sample_count=0)
    assert check_law(z_oracle, "Cut", unsampled).status == "inconclusive"
    # an empty theorem basis still has the empty multiset of theorems
    from relcon.semantics import AbelianOracle

    no_theorems = AbelianOracle("z", theorem_basis=[])
    result = check_law(no_theorems, "TheoremRemoval", numeral_domain(max_size=1))
    assert result.status == "passed" and result.checked > 0


# -- the implication network ---------------------------------------------------------


def _passes(results, name):
    r = results.get(name)
    return r is not None and r.passed


@pytest.mark.parametrize("oracle_name", ["zsym", "psym", "ex54", "identity"])
def test_symmetric_implication_network(oracle_name, zsym, psym, ex54):
    oracle = {"zsym": zsym, "psym": psym, "ex54": ex54,
              "identity": IdentityOracle()}[oracle_name]
    dom = (x_domain(max_size=3) if oracle_name == "ex54"
           else numeral_domain(max_size=2))
    results = check_laws(oracle, dom)
    for premises, conclusion in SYM_IMPLICATIONS:
        if all(_passes(results, n) for n in premises):
            assert _passes(results, conclusion), (oracle_name, premises, conclusion)


@pytest.mark.parametrize("oracle_name", ["z", "p", "leq"])
def test_asymmetric_implication_network(oracle_name):
    from relcon.semantics import AbelianOracle

    oracle = {"z": make_z_oracle(), "p": make_p_oracle(),
              "leq": AbelianOracle("leq")}[oracle_name]
    if oracle.theorem_basis is None:
        oracle.theorem_basis = []
    dom = numeral_domain(max_size=2)
    results = check_laws(oracle, dom)
    for premises, conclusion in ASYM_IMPLICATIONS:
        if all(_passes(results, n) for n in premises):
            assert _passes(results, conclusion), (oracle_name, premises, conclusion)


def test_law_names_cover_both_kinds():
    asym = law_names(False)
    sym = law_names(True)
    assert "Cut" in asym and "RelevantCut" in asym
    assert "Compatibility" in sym and "MultiCut" in sym and "rContraction" in sym
