import itertools
import math
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

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
from relcon.laws import (
    ASYM_IMPLICATIONS,
    SYM_IMPLICATIONS,
    LawResult,
    SampleDomain,
    _ASYM_TABLE,
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


def _ref_check_law(oracle, law_name, dom):
    table = _SYM_TABLE if oracle.symmetric else _ASYM_TABLE
    name, variables, statement = next(row for row in table if row[0] == law_name)
    names = [v.partition(":")[0] for v in variables.split()]
    kinds = [v.partition(":")[2] or ("M" if v[0].isupper() else "F")
             for v in variables.split()]
    if "T" in kinds and oracle.theorem_basis is None:
        return LawResult(name, "inconclusive", None, True, 0)
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
    got = []
    for law in law_names(getattr(oracle, "symmetric", False)):
        r = check_law(_AskedOnce(oracle), law, SampleDomain(formulas, **kw))
        got.append((law, r.status, r.exhaustive, r.checked, r.witness_str()))
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
