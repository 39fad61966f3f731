import dataclasses
import itertools
import math
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from relcon import (
    AbelianOracle,
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
    parse_formula,
    parse_multiset,
)
from relcon import submultisets
from relcon.laws import (
    ASYM_IMPLICATIONS,
    ASYM_LAWS,
    SYM_IMPLICATIONS,
    SYM_LAWS,
    LawResult,
    SampleDomain,
    _ASYM_TABLE,
    _Check,
    _SYM_TABLE,
)
from relcon.multiset import EMPTY
from relcon.oracles import ConsequenceOracle, all3, verdict
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


def test_check_laws_on_no_names_runs_no_law(z_oracle):
    assert check_laws(z_oracle, numeral_domain(), []) == {}
    assert len(check_laws(z_oracle, numeral_domain(max_size=1))) == 7


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


def test_sample_domain_holds_each_formula_once():
    x, y = Atom("x"), Atom("y")
    dom = SampleDomain((x, x), max_size=2)
    assert dom.formulas == (x,) and len(dom.multisets()) == 3
    assert SampleDomain((y, x, y)).formulas == (y, x)


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
# law_names order; "sampled" runs the same domain with a cap of 20, which
# p's and psym's image classes fit for some laws, so those checks walk
# every instance
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
        ('Cut', 'passed', True, 3600, ''),
        ('Monotonicity', 'passed', True, 900, ''),
        ('Contraction', 'passed', True, 240, ''),
        ('GeneralizedReflexivity', 'passed', True, 60, ''),
        ('RelevantCut', 'passed', False, 200, ''),
        ('TheoremRemoval', 'passed', True, 900, ''),
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
        ('GeneralizedReflexivity', 'passed', True, 225, ''),
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


# -- against the instance-by-instance reference ----------------------------------

# The reference reads each law's statement from the table and evaluates every
# instance afresh, as a tuple of multisets and formulas, in the canonical
# stream (or by the seeded draws above the cap); check_law must give the same
# LawResult: status, witness, checked and exhaustive.

_REF_POOLS = ("M", "F", "N", "T")


def _ref_side(text, names, kinds, t):
    parts = []
    for term in text.split("+"):
        if term.startswith("["):
            parts.append(FMultiset(t[names.index(x)] for x in term[1:-1].split(",") if x))
        elif kinds[names.index(term)] in _REF_POOLS:
            parts.append(t[names.index(term)])
        else:  # a family, summed
            parts.append(reduce(add, t[names.index(term)], EMPTY))
    return reduce(add, parts)


def _ref_query(text, names, kinds, entails, t):
    left, right = (side.strip() for side in text.split("|-"))
    if left in names and kinds[names.index(left)] == right:  # Ds |- G, pointwise
        return all3(map(entails, t[names.index(left)], t[names.index(right)]))
    return entails(_ref_side(left, names, kinds, t), _ref_side(right, names, kinds, t))


def _ref_holds(statement, names, kinds, entails, t):
    premises, _, conclusion = statement.rpartition(" => ")
    ante = HOLDS
    for text in premises.split(" and ") if premises else []:
        v = _ref_query(text, names, kinds, entails, t)
        if v is FAILS:
            return HOLDS
        if v is UNKNOWN:
            ante = UNKNOWN
    out = _ref_query(conclusion, names, kinds, entails, t)
    return out if ante is HOLDS or out is HOLDS else UNKNOWN


def _ref_instances(oracle, law_name, dom):
    """The law's row of its table, its variables' names and kinds, its full
    canonical stream of instances, their count, and a draw of one instance
    from a seeded generator."""
    table = _SYM_TABLE if oracle.symmetric else _ASYM_TABLE
    name, variables, statement = next(row for row in table if row[0] == law_name)
    names = [v.partition(":")[0] for v in variables.split()]
    kinds = [v.partition(":")[2] or ("M" if v[0].isupper() else "F")
             for v in variables.split()]
    multisets = dom.multisets()
    pools = {"M": multisets, "F": list(dom.formulas),
             "N": [G for G in multisets if G.size],
             "T": SampleDomain(tuple(oracle.theorem_basis or ()), dom.max_size).multisets()}
    if kinds[-1] in _REF_POOLS:
        fixed = [pools[k] for k in kinds]
        stream, count = itertools.product(*fixed), math.prod(map(len, fixed))

        def draw(rng):
            return tuple(rng.choice(pool) for pool in fixed)
    else:  # the last variable is a family, one multiset per element of G
        fixed, at = [pools[k] for k in kinds[:-1]], names.index(kinds[-1])
        stream = (start + (family,) for start in itertools.product(*fixed)
                  for family in itertools.product(multisets, repeat=start[at].size))
        count = sum(len(multisets) ** start[at].size for start in itertools.product(*fixed))

        def draw(rng):
            start = tuple(rng.choice(pool) for pool in fixed)
            return start + (tuple(rng.choice(multisets) for _ in range(start[at].size)),)
    return (name, names, kinds, statement), stream, count, draw


def _ref_check_law(oracle, law_name, dom):
    (name, names, kinds, statement), stream, count, draw = _ref_instances(oracle, law_name, dom)
    if "T" in kinds and oracle.theorem_basis is None:
        return LawResult(name, "inconclusive", None, True, 0)
    exhaustive = count <= dom.exhaustive_cap or not count
    if not exhaustive:
        rng = random.Random(dom.seed)
        stream = (draw(rng) for _ in range(dom.sample_count))
    checked, sawunknown = 0, False
    for t in stream:
        checked += 1
        v = _ref_holds(statement, names, kinds, oracle.entails, t)
        if v is FAILS:
            return LawResult(name, "counterexample", dict(zip(names, t)), exhaustive, checked)
        sawunknown = sawunknown or v is UNKNOWN
    status = "inconclusive" if sawunknown or not checked else "passed"
    return LawResult(name, status, None, exhaustive, checked)


class _SeededOracle:
    """A pure three-valued oracle: premises of more than ``big`` formulas
    fail, and any other verdict is drawn from the query's printed form (or
    its premises' alone) and a seed, with given weights."""

    name = "seeded"

    def __init__(self, symmetric, seed, weights, by_premises, big, theorem_basis):
        self.symmetric, self.seed, self.weights = symmetric, seed, weights
        self.by_premises, self.big, self.theorem_basis = by_premises, big, theorem_basis

    def entails(self, premises, conclusion):
        if self.big is not None and premises.size > self.big:
            return FAILS
        text = f"{self.seed}|{premises}" + ("" if self.by_premises else f"|{conclusion}")
        return random.Random(text).choices((HOLDS, FAILS, UNKNOWN), self.weights)[0]


class _AskedOnce:
    """Passes queries on to a base oracle, and fails a test that asks one
    distinct query twice."""

    def __init__(self, base):
        self.base, self.asked = base, set()
        self.symmetric = getattr(base, "symmetric", False)
        self.theorem_basis = getattr(base, "theorem_basis", None)

    def entails(self, premises, conclusion):
        assert (premises, conclusion) not in self.asked, (premises, conclusion)
        self.asked.add((premises, conclusion))
        return self.base.entails(premises, conclusion)


@st.composite
def _law_cases(draw):
    symmetric = draw(st.booleans())
    law = draw(st.sampled_from([row[0] for row in (_SYM_TABLE if symmetric else _ASYM_TABLE)]))
    formulas = draw(st.sampled_from(
        [tuple(map(numeral, ks)) for ks in ((-1, 0, 1), (0, 1, 2), (-2, 1), (1,))] * 2
        + [(Atom("x"),), (Atom("x"), Atom("y"))]))
    basis = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), max_size=2, unique=True).map(
        lambda ks: [numeral(k) for k in ks])))
    weights = draw(st.sampled_from([(1, 0, 0), (12, 1, 0), (6, 1, 1), (2, 1, 1), (1, 1, 1),
                                    (4, 0, 1), (1, 2, 0)]))
    oracle = _SeededOracle(symmetric, draw(st.integers(0, 9)), weights, draw(st.booleans()),
                           draw(st.sampled_from([None, None, 2, 3])), basis)
    dom = SampleDomain(formulas, max_size=draw(st.sampled_from([2, 2, 2, 1, 1, 0, -1])),
                       seed=draw(st.integers(0, 5)),
                       exhaustive_cap=draw(st.sampled_from([3000, 3000, 400, 20, 0])),
                       sample_count=draw(st.sampled_from([40, 40, 5, 0])))
    return oracle, law, dom


@given(_law_cases())
@settings(max_examples=300, deadline=None)
def test_check_law_agrees_with_the_instance_by_instance_reference(case):
    oracle, law, dom = case
    assert check_law(_AskedOnce(oracle), law, dom) == _ref_check_law(oracle, law, dom)


class _PairingOracle(ConsequenceOracle):
    """Each formula entails itself, [0, 1] entails 0 and [2] entails 1."""

    name = "pairing"

    def entails(self, premises, conclusion):
        return verdict(premises == FMultiset([conclusion])
                       or (premises, conclusion) in {(ms("[0, 1]"), numeral(0)),
                                                     (ms("[2]"), numeral(1))})


def test_relevant_cut_pairs_each_family_member_with_its_element_of_g():
    # G=[0, 1] entails 0, and [0] |- 0, [2] |- 1, but [0, 2] does not entail
    # 0; with the family read against G in reverse, the witness would be
    # Ds=([2], [0])
    dom = SampleDomain(tuple(numeral(k) for k in range(3)), max_size=2)
    result = check_law(_PairingOracle(), "RelevantCut", dom)
    assert result.exhaustive and result.witness_str() == "G=[0, 1]; f=0; Ds=([0], [2])"
    assert result == _ref_check_law(_PairingOracle(), "RelevantCut", dom)


@pytest.mark.parametrize("oracle_name, mode", list(_PINNED))
def test_check_law_asks_each_distinct_query_once(oracle_name, mode):
    # the per-check verdict table stands in front of the oracle
    formulas = (x_domain().formulas if oracle_name == "ex54"
                else tuple(numeral(k) for k in range(-1, 3)))
    kw = {"max_size": 3 if oracle_name == "ex54" else 2}
    if mode == "sampled":
        kw.update(seed=1, exhaustive_cap=20, sample_count=200)
    oracle = _PIN_ORACLES[oracle_name]()
    spy = _AskedOnceByImage if hasattr(oracle, "image") else _AskedOnce
    got = []
    for law in law_names(getattr(oracle, "symmetric", False)):
        r = check_law(spy(oracle), law, SampleDomain(formulas, **kw))
        got.append((law, r.status, r.exhaustive, r.checked, r.witness_str()))
    assert got == _PINNED[oracle_name, mode]


def test_checks_on_one_domain_agree_with_checks_on_fresh_domains():
    # the checks on one domain share its interned values, whatever the oracle;
    # with a cap of 3500, Cut, RelevantCut and MultiCut have too many
    # instances on the numerals (15 multisets), so they sample where the
    # oracle has no image (identity, z?), and walk their image classes, which
    # fit the cap, elsewhere; the other laws run exhaustively
    kw = dict(seed=1, exhaustive_cap=3500, sample_count=200)
    numerals = tuple(numeral(k) for k in range(-1, 3))
    shared = {"x": SampleDomain(x_domain().formulas, max_size=3, **kw),
              "numerals": SampleDomain(numerals, max_size=2, **kw)}

    def battery(oracle_name, domain):
        oracle = _PIN_ORACLES[oracle_name]()
        names = law_names(getattr(oracle, "symmetric", False))
        results = {law: check_law(oracle, law, domain()) for law in names}
        return {law: (r.status, r.witness, r.exhaustive, r.checked)
                for law, r in results.items()}

    for oracle_name in ["z", "p", "zsym", "psym", "ex54", "identity", "z?"]:
        dom = shared["x" if oracle_name == "ex54" else "numerals"]
        together = battery(oracle_name, lambda: dom)
        assert together == battery(oracle_name, lambda: dataclasses.replace(dom)), oracle_name
        sampled = {law for law, r in together.items() if not r[2]}
        assert sampled == ({"MultiCut"} if oracle_name == "identity" else
                           {"Cut", "RelevantCut"} if oracle_name == "z?" else set())


def test_a_second_check_on_a_domain_asks_with_the_memo_keys_objects():
    oracle = make_z_oracle()
    dom = SampleDomain(tuple(numeral(k) for k in range(-1, 3)), max_size=2)
    check_law(_AskedOnce(oracle), "RelevantCut", dom)  # every instance, not its classes
    keys = {key: key for key in oracle._memo["_side"]}
    spy = _AskedOnce(oracle)
    check_law(spy, "Cut", dom)
    # the sums G+D as well as the pool's multisets are the first check's objects
    again = [(premises, keys[premises]) for premises, f in spy.asked if premises in keys]
    assert len(again) > 100 and any(p.size == 4 for p, _ in again)
    assert all(premises is key for premises, key in again)


def test_a_multiset_from_outside_and_as_a_sum_is_one_value():
    zero, one, two = numeral(0), numeral(1), numeral(2)
    dom = SampleDomain((zero, one), max_size=2)
    pool = dom._pool
    domain_pair = pool.values[pool.multisets[4]]  # [0, 1], from the domain
    oracle = make_z_oracle()
    # through a wrapper without image, the full walk runs: G+D reaches
    # [0, 1], and sums of up to 4
    check_law(_AskedOnce(oracle), "Cut", dom)
    # each multiset the oracle was asked is the pool's one object for its
    # value: the domain's where the domain has it, else the first sum's
    asked = [key for key in oracle._memo["_side"] if isinstance(key, FMultiset)]
    assert any(m.size == 4 for m in asked) and any(m is domain_pair for m in asked)
    for m in asked:
        assert pool.values[pool.intern(FMultiset(list(m)))] is m
    # so is each multiset the class walk asks, a sum of representatives
    by_class = make_z_oracle()
    check_law(by_class, "Cut", dom)
    assert all(pool.values[pool.intern(FMultiset(list(m)))] is m
               for m in by_class._memo["_side"] if isinstance(m, FMultiset))
    # a formula new to the pool is a new coordinate, from outside or as a sum
    size = len(pool.values)
    outside = FMultiset([two, one])
    i = pool.intern(outside)
    assert pool.values[i] is outside and len(pool.values) == size + 1
    assert pool.intern(FMultiset([one, two])) == pool.intern_vector(pool.vectors[i]) == i


@pytest.mark.parametrize("case", ["theorems outside the domain", "relevant cut", "ex54"])
def test_check_law_on_count_vectors_agrees_with_the_reference(case):
    if case == "theorems outside the domain":
        # the theorems add coordinates to a pool an earlier check made, and
        # sums G+D mix vectors of both lengths
        dom = SampleDomain(tuple(numeral(k) for k in (-1, 0, 1)), max_size=2)
        checks = [(make_z_oracle(), "Cut"), (make_p_oracle(), "TheoremRemoval"),
                  (make_z_oracle(), "TheoremRemoval")]
        for oracle, _ in checks:
            oracle.theorem_basis = [numeral(k) for k in (2, 3, 0)]
    elif case == "relevant cut":
        # the family's multisets are summed on the left
        dom = SampleDomain(tuple(numeral(k) for k in (-1, 0, 2)), max_size=2)
        checks = [(make_z_oracle(), "RelevantCut"), (make_p_oracle(), "RelevantCut")]
    else:
        dom = x_domain()
        ex54 = SingleAtomThresholdOracle()
        ex54.theorem_basis = None  # the reference reads it
        checks = [(ex54, law) for law in law_names(True)]
    for oracle, law in checks:
        assert check_law(_AskedOnce(oracle), law, dom) == _ref_check_law(oracle, law, dom), law


# -- asking once per pair of images ------------------------------------------------

# z reads [0] and [a -> a] alike, but 1 /\\ 2 has no reading: against it z
# decides [0] exactly and [a -> a] on the grid, so a check that let one
# side's image stand for a query with a grid side would pass RelevantCut and
# TheoremRemoval here
_GRID_TRAP = ("0", "a -> a", "1 /\\ 2", "~1")
_MIXED = ("-1", "0", "1", "a", "t", "a -> a", "a /\\ b")


def _imaged_oracle(name):
    if name == "zsym":
        return AbelianSymmetricOracle(grid_bound=2)
    if name == "psym":
        return Symmetrization(make_p_oracle())
    basis = [] if name == "leq" else [numeral(k) for k in range(4)]
    return AbelianOracle(name, grid_bound=2, theorem_basis=basis)


class _AskedOnceByImage(_AskedOnce):
    """An _AskedOnce that passes on its base's images too."""

    def __init__(self, base):
        super().__init__(base)
        self.image = base.image


def test_the_grid_trap_stays_inconclusive():
    dom = SampleDomain(tuple(map(parse_formula, _GRID_TRAP)), max_size=1)
    z = _imaged_oracle("z")
    got = {law: check_law(z, law, dom) for law in ("RelevantCut", "TheoremRemoval")}
    assert [(r.status, r.checked) for r in got.values()] == [("inconclusive", 80),
                                                               ("inconclusive", 100)]
    assert all(r == _ref_check_law(z, law, dom) for law, r in got.items())


@pytest.mark.parametrize("oracle_name", ["z", "p", "leq", "zsym", "psym"])
@pytest.mark.parametrize("formulas, max_size", [(_GRID_TRAP, 1), (_GRID_TRAP, 2),
                                                (_MIXED, 1), (_MIXED, 2)],
                         ids=["trap-1", "trap-2", "mixed-1", "mixed-2"])
def test_image_keyed_checks_agree_with_the_reference(oracle_name, formulas, max_size):
    dom = SampleDomain(tuple(map(parse_formula, formulas)), max_size=max_size,
                       seed=3, exhaustive_cap=2000, sample_count=150)
    oracle = _imaged_oracle(oracle_name)
    for law in law_names(oracle.symmetric):
        got = check_law(_AskedOnceByImage(oracle), law, dom)
        assert got == _ref_check_law(oracle, law, dom), law


def test_a_check_asks_once_per_pair_of_images():
    # psym reads a side only through whether it is empty and whether one of
    # its members is negative: four images, so at most 16 queries, where the
    # per-index table asked 27 432
    spy = _AskedOnceByImage(Symmetrization(make_p_oracle()))
    result = check_law(spy, "Compatibility", numeral_domain(max_size=2))
    assert (result.status, result.checked) == ("passed", 46656)
    assert len(spy.asked) <= 16


# -- walking one value per image class -----------------------------------------------

# A check on an oracle with images, whose pools' values all have one, walks
# one representative per class, wherever the class tuples fit the cap, and
# counts the other instances by rank; a family law's G classes are the
# multisets of its members' images.  Its LawResult must be the full walk's,
# which the same check runs through _AskedOnce (it hides image), and the
# reference's, each with the cap raised to the instance count where the
# classes made a check exhaustive that has more instances than the cap.

_NUMERALS_2 = tuple(str(k) for k in range(-2, 3))
_MIXED_SMALL = ("-1", "1", "a", "t", "a -> a")


def _every_instance(oracle, law, dom):
    """``dom`` with its cap raised to the law's instance count, if that is
    above it: the full walk there covers every instance."""
    count = _ref_instances(oracle, law, dom)[2]
    return dataclasses.replace(dom, exhaustive_cap=max(dom.exhaustive_cap, count))


@pytest.mark.parametrize("oracle_name", ["z", "p", "leq", "zsym", "psym"])
@pytest.mark.parametrize("formulas, max_size, cap", [
    (_NUMERALS_2, 2, 10000), (_MIXED_SMALL, 2, 10000), (_GRID_TRAP, 1, 10000),
    (_NUMERALS_2, 2, 500)], ids=["numerals-2", "mixed-2", "trap-1", "numerals-2-cap-500"])
def test_the_class_walk_agrees_with_the_full_walk_and_the_reference(oracle_name, formulas,
                                                                     max_size, cap):
    # at a cap of 500, the classes of z's Cut and RelevantCut, leq's Cut and
    # RelevantCut and zsym's laws of three or four variables exceed it, so
    # those checks sample, as the reference does
    dom = SampleDomain(tuple(map(parse_formula, formulas)), max_size=max_size,
                       seed=2, exhaustive_cap=cap, sample_count=100)
    oracle = _imaged_oracle(oracle_name)
    for law in law_names(oracle.symmetric):
        got = check_law(oracle, law, dom)
        full = _every_instance(oracle, law, dom) if got.exhaustive else dom
        assert got == check_law(_AskedOnce(oracle), law, full), law
        assert got == _ref_check_law(oracle, law, full), law


@pytest.mark.parametrize("oracle_name, formulas, max_size, law, witness, checked", [
    ("z", tuple(map(str, range(-3, 4))), 3, "GeneralizedReflexivity", "G=[1]; f=-3", 36),
    ("z", tuple(map(str, range(-3, 4))), 2, "Monotonicity", "G=[]; f=0; D=[1]", 114),
    ("zsym", tuple(map(str, range(-3, 4))), 2, "rContraction", "G=[]; g=1; D=[-2]", 147),
    ("z", _MIXED_SMALL, 2, "Contraction", "G=[1]; g=-1; f=-1", 51),
    ("zsym", _MIXED_SMALL, 2, "rContraction", "G=[]; g=1; D=[-1, -1]", 28),
])
def test_the_class_walk_finds_deep_witnesses(oracle_name, formulas, max_size, law, witness,
                                             checked):
    # the first violating instance, whose rank in the full pools is its count
    dom = SampleDomain(tuple(map(parse_formula, formulas)), max_size=max_size)
    oracle = _imaged_oracle(oracle_name)
    check = _Check((SYM_LAWS if oracle.symmetric else ASYM_LAWS)[law], oracle, dom)
    got = check.run()
    assert check.classes() is not None  # the check walked the classes
    assert (got.status, got.exhaustive, got.checked, got.witness_str()) == (
        "counterexample", True, checked, witness)
    assert got == check_law(_AskedOnce(oracle), law, dom) == _ref_check_law(oracle, law, dom)


class _LoneImages(ConsequenceOracle):
    """z on sides of at most one formula, and no image on a larger one, which
    fails whenever it holds t: so [0] and [t] share an image, but [0, 0]
    and [t, t] get different verdicts.  Not additive, so only the full walk
    reads it right."""

    name = "lone"

    def __init__(self):
        self.base = AbelianOracle("z", grid_bound=2)

    def image(self, side):
        return None if type(side) is FMultiset and side.size > 1 else self.base.image(side)

    def entails(self, premises, conclusion):
        if premises.size > 1 and parse_formula("t") in premises.support:
            return FAILS
        return self.base.entails(premises, conclusion)


def test_a_class_walk_that_meets_a_side_without_an_image_walks_in_full():
    # the pools' values have images, but the sums of two do not
    dom = SampleDomain(tuple(map(parse_formula, ("0", "t", "-1"))), max_size=1)
    for law in ("Cut", "Monotonicity", "Contraction", "GeneralizedReflexivity"):
        got = check_law(_LoneImages(), law, dom)
        assert got == _ref_check_law(_LoneImages(), law, dom), law
    # answered from the classes, [0, 0] would stand for [0, t]
    got = check_law(_LoneImages(), "Cut", dom)
    assert (got.checked, got.witness_str()) == (55, "G=[0]; D=[t]; f=0; g=0")


def test_a_check_its_classes_made_exhaustive_samples_when_a_side_has_no_image():
    # over the cap by instances and within it by classes, so each check walks
    # its classes; they meet a sum of two formulas, which has no image, and
    # the check then samples, as it does on an oracle without image, rather
    # than walk every instance
    dom = SampleDomain(tuple(map(parse_formula, ("0", "t", "-1"))), max_size=1,
                       seed=4, exhaustive_cap=20, sample_count=30)
    for law in ("Cut", "Monotonicity", "Contraction"):
        check = _Check(ASYM_LAWS[law], _LoneImages(), dom)
        got = check.run()
        assert math.prod(check.sizes(check.classes())) <= 20 < _ref_instances(
            _LoneImages(), law, dom)[2], law
        assert not got.exhaustive, law
        assert got == check_law(_AskedOnce(_LoneImages()), law, dom), law
        assert got == _ref_check_law(_LoneImages(), law, dom), law
    assert (got.status, got.checked) == ("passed", 30)


# -- walking a family's classes ----------------------------------------------------

# RelevantCut's G is walked one value per multiset of its members' images,
# and each of the family's multisets one per image: z, p and leq all pass
# it, so the witnesses come from oracles that break it.


class _SumsTo(ConsequenceOracle):
    """Holds when the premises, at most two of them, sum to the conclusion's
    value: it reads a side through z's image and its size, which add."""

    name = "sums-to"

    def __init__(self):
        self.base = AbelianOracle("z", grid_bound=2)

    def image(self, side):
        image = self.base.image(side)
        return None if image is None else (image, side.size if type(side) is FMultiset else 1)

    def entails(self, premises, conclusion):
        return verdict(premises.size <= 2 and self.image(premises)[0] == self.image(conclusion)[0])


@pytest.mark.parametrize("oracle_name", ["p", "leq"])
@pytest.mark.parametrize("formulas, max_size", [
    (("-1", "0", "1"), 2), (("1", "~1", "0 -> 1", "2 -> 1"), 2), (_NUMERALS_2, 1)],
    ids=["numerals-2", "shared-images-2", "numerals-1"])
def test_relevant_cut_on_its_classes_agrees_with_the_full_walk(oracle_name, formulas,
                                                                 max_size):
    dom = SampleDomain(tuple(map(parse_formula, formulas)), max_size=max_size,
                       exhaustive_cap=1000)
    oracle = _imaged_oracle(oracle_name)
    check = _Check(ASYM_LAWS["RelevantCut"], oracle, dom)
    got = check.run()
    assert got.exhaustive and math.prod(check.sizes(check.classes())) <= 1000
    full = _every_instance(oracle, "RelevantCut", dom)
    assert got == check_law(_AskedOnce(oracle), "RelevantCut", full)
    assert got == _ref_check_law(oracle, "RelevantCut", full)


def test_the_family_walk_finds_a_deep_witness():
    # no G of one member breaks RelevantCut, as its family has one multiset
    # of at most two; [-2, -2] and [-2, -1] sum to no numeral of the domain.
    # So G=[-2, 0] comes first, after the 5 Gs of size 1, each with 5 f and
    # 21 families, and 2 of size 2, each with 5 f and 21 * 21 families; f=-2
    # is the first f, and the family ([-2], [-2, 2]) is number 1 * 21 + 10
    # in base 21
    dom = SampleDomain(tuple(map(parse_formula, _NUMERALS_2)), max_size=2)
    check = _Check(ASYM_LAWS["RelevantCut"], _SumsTo(), dom)
    got = check.run()
    assert check.by_class  # the check walked the classes
    rank = 5 * 5 * 21 + 2 * 5 * 21 ** 2 + 1 * 21 + 10
    assert (got.status, got.exhaustive, got.checked, got.witness_str()) == (
        "counterexample", True, rank + 1, "G=[-2, 0]; f=-2; Ds=([-2], [-2, 2])")
    assert got == check_law(_AskedOnce(_SumsTo()), "RelevantCut", dom)
    assert got == _ref_check_law(_SumsTo(), "RelevantCut", dom)


class _SeededByImage:
    """A pure three-valued oracle that reads a side only through z's image
    of it, which adds: each verdict is drawn from the two sides' images and
    a seed, with given weights."""

    name = "seeded-image"

    def __init__(self, symmetric, seed, weights, theorem_basis):
        self.symmetric, self.seed, self.weights = symmetric, seed, weights
        self.theorem_basis = theorem_basis
        self.z = AbelianOracle("z")

    def image(self, side):
        return self.z.image(side)

    def entails(self, premises, conclusion):
        text = f"{self.seed}|{self.image(premises)}|{self.image(conclusion)}"
        return random.Random(text).choices((HOLDS, FAILS, UNKNOWN), self.weights)[0]


# closed formulas, some with equal images: 1, 0 -> 1 and 1 o 0 read 1
_CLOSED = ("0", "1", "-1", "~1", "0 -> 1", "1 o 0", "2", "t")


@given(symmetric=st.booleans(), seed=st.integers(0, 9),
       weights=st.sampled_from([(1, 0, 0), (12, 1, 0), (6, 1, 1), (2, 1, 1), (1, 2, 0)]),
       formulas=st.lists(st.sampled_from(_CLOSED), min_size=1, max_size=3, unique=True),
       max_size=st.sampled_from([1, 2, 2]), cap=st.sampled_from([10, 100, 5000]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_class_walks_agree_with_the_full_walk_on_seeded_image_oracles(
        symmetric, seed, weights, formulas, max_size, cap, data):
    # any verdicts that read only images, so every law breaks somewhere, and
    # a family's first witness can sit at a G whose members share images
    law = data.draw(st.sampled_from(law_names(symmetric)))
    oracle = _SeededByImage(symmetric, seed, weights, [numeral(0), numeral(1)])
    dom = SampleDomain(tuple(map(parse_formula, formulas)), max_size=max_size, seed=seed,
                       exhaustive_cap=cap, sample_count=40)
    got = check_law(oracle, law, dom)
    full = _every_instance(oracle, law, dom) if got.exhaustive else dom
    assert got == check_law(_AskedOnce(oracle), law, full)
    assert got == _ref_check_law(oracle, law, full)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("weights", [(12, 1, 0), (6, 1, 1), (1, 2, 0)])
def test_relevant_cut_classes_g_by_its_members_images(seed, weights):
    # G=[-1, 1] and G=[0] have one image, but not one multiset of member
    # images, and their families differ in length; on some of these oracles
    # a G of two members breaks RelevantCut where no G of one does
    oracle = _SeededByImage(False, seed, weights, [numeral(0)])
    dom = SampleDomain(tuple(map(parse_formula, ("-1", "0", "1"))), max_size=2)
    check = _Check(ASYM_LAWS["RelevantCut"], oracle, dom)
    got = check.run()
    assert check.by_class
    assert got == check_law(_AskedOnce(oracle), "RelevantCut", dom)
    assert got == _ref_check_law(oracle, "RelevantCut", dom)


def test_the_class_walk_fills_its_tables_per_class():
    # z reads a multiset of the numerals -3..3 through its sum: 19 classes
    # of G, 10 of the theorems D (multisets of 0..3) and 7 formulas f
    check = _Check(ASYM_LAWS["TheoremRemoval"], make_z_oracle(), numeral_domain(max_size=3))
    result = check.run()
    assert (result.status, result.exhaustive, result.checked) == ("passed", True, 29400)
    assert len(check.table.sums) <= 19 * 10
    assert len(check.table.verdicts) <= 19 * 10 * 7


def test_sample_domain_is_frozen():
    dom = SampleDomain((numeral(0),))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dom.max_size = 2


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


def test_classify_report_names_each_broken_implication(inconsistent_report):
    report = inconsistent_report
    assert report.consistency_errors == [
        "Reflexivity & Cut passed but RelevantCut failed at G=[1]; p=2"]
    # the errors follow the results: an undecided premise law breaks nothing
    report.results["Cut"] = dataclasses.replace(report.results["Cut"], status="inconclusive")
    assert report.consistency_errors == []


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
