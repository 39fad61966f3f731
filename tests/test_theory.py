import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from relcon import (
    FAILS,
    HOLDS,
    UNKNOWN,
    AbelianSymmetricOracle,
    FMultiset,
    OracleMismatchError,
    PreconditionError,
    SampleDomain,
    Symmetrization,
    interderivable,
    numeral,
    parse_formula,
    parse_multiset,
    quotient_check,
    th_add,
    th_contains,
    th_eq,
    th_leq,
    th_zero,
    theory,
    union_theory_check,
)
from relcon.laws import MonotonicCompanion
from relcon.oracles import SymmetricOracle, verdict
from relcon.semantics import AbelianOracle, IdentityOracle
from relcon.theory import monotone_mapping_agrees
from conftest import make_p_oracle, numeral_domain

ms = parse_multiset


def test_membership(zsym):
    assert th_contains(theory(zsym, ms("[1, 2]")), ms("[3]")) is HOLDS
    gamma = ms("[1, -2]")
    assert th_contains(theory(zsym, gamma), gamma) is HOLDS
    # the empty conclusion multiset has sum 0, and 1 is not below 0
    assert th_contains(theory(zsym, ms("[1]")), ms("[]")) is FAILS


def test_addition_and_zero(zsym):
    t1, t2 = theory(zsym, ms("[1]")), theory(zsym, ms("[2]"))
    assert th_add(t1, t2).generator == ms("[1, 2]")
    assert th_eq(th_add(t1, th_zero(zsym)), t1) is HOLDS


def test_addition_well_defined(zsym):
    s = theory(zsym, ms("[-1, 3]"))
    left = th_add(theory(zsym, ms("[1, 1]")), s)
    right = th_add(theory(zsym, ms("[2]")), s)
    assert interderivable(zsym, ms("[1, 1]"), ms("[2]")) is HOLDS
    assert th_eq(left, right) is HOLDS


def test_equality_and_order(zsym):
    assert th_eq(theory(zsym, ms("[1, 1]")), theory(zsym, ms("[2]"))) is HOLDS
    t = theory(zsym, ms("[1, -1]"))
    assert th_eq(t, t) is HOLDS
    # containment mirrors derivability of the generators
    for gen_a, gen_b in [("[1]", "[2]"), ("[2]", "[1]"), ("[0]", "[]")]:
        a, bq = ms(gen_a), ms(gen_b)
        assert (th_leq(theory(zsym, bq), theory(zsym, a)) is HOLDS) \
            == (zsym.entails(a, bq) is HOLDS)


def test_oracle_mismatch(zsym, psym):
    with pytest.raises(OracleMismatchError):
        th_add(theory(zsym, ms("[1]")), theory(psym, ms("[1]")))
    with pytest.raises(OracleMismatchError):
        th_eq(theory(zsym, ms("[1]")), theory(psym, ms("[1]")))


def test_quotient_structure(zsym):
    dom = numeral_domain(max_size=2)
    report = quotient_check(zsym, dom.multisets())
    assert report.all_ok
    # the generator-to-theory map does not preserve submultiset order here
    assert not report.th_monotone_mapping
    assert report.monotone_witness


def test_quotient_structure_tarskian(psym):
    dom = numeral_domain(max_size=2)
    report = quotient_check(psym, dom.multisets())
    assert report.all_ok
    assert report.th_monotone_mapping


def test_monotone_mapping_iff(zsym, psym):
    dom = numeral_domain(max_size=2)
    law, mapping = monotone_mapping_agrees(zsym, dom)
    assert law is False and mapping is False
    law, mapping = monotone_mapping_agrees(psym, dom)
    assert law is True and mapping is True


def test_union_theory_tarskian(psym):
    dom = numeral_domain(max_size=2)
    handle = theory(psym, ms("[1, 2]"))
    report = union_theory_check(psym, handle, dom)
    assert report.holds_for_all
    assert report.checked > 0
    # nonnegative numerals are exactly the members' support
    assert report.union_support == {numeral(k) for k in range(0, 4)}


def test_union_theory_identity_companion():
    companion = MonotonicCompanion(IdentityOracle())
    x = parse_formula("x")
    dom = SampleDomain((x,), max_size=1)
    handle = theory(companion, ms("[x]"))
    report = union_theory_check(companion, handle, dom)
    assert report.holds_for_all


def test_union_theory_rejects_noncontractive(zsym):
    dom = numeral_domain(max_size=2)
    with pytest.raises(PreconditionError):
        union_theory_check(zsym, theory(zsym, ms("[1]")), dom)


def test_union_theory_oracle_mismatch(zsym, psym):
    dom = numeral_domain(max_size=1)
    with pytest.raises(OracleMismatchError):
        union_theory_check(psym, theory(zsym, ms("[1]")), dom)


def test_monoid_laws_on_handles(zsym):
    gens = [ms(s) for s in ("[]", "[1]", "[2]", "[-1, 1]", "[1, 1]")]
    handles = [theory(zsym, g) for g in gens]
    for t1 in handles:
        assert th_eq(th_add(t1, th_zero(zsym)), t1) is HOLDS
        for t2 in handles:
            assert th_eq(th_add(t1, t2), th_add(t2, t1)) is HOLDS
            for t3 in handles:
                assert th_eq(th_add(th_add(t1, t2), t3),
                             th_add(t1, th_add(t2, t3))) is HOLDS


def test_three_way_agreement_sampled(zsym):
    dom = numeral_domain(max_size=2)
    gens = dom.multisets()
    for a in gens[:20]:
        for b in gens[:20]:
            direct = zsym.entails(a, b)
            member = th_contains(theory(zsym, a), b)
            contained = th_leq(theory(zsym, b), theory(zsym, a))
            assert direct is member is contained


class _BrokenQuotient(SymmetricOracle):
    """Identity on multisets, except that [w] does not derive itself, [x]
    derives [y], [v] and [z], and [y] and [v] derive [x] but not each other."""

    name = "broken"
    extra = {(ms("[x]"), ms(s)) for s in ("[y]", "[v]", "[z]")} | {
        (ms(s), ms("[x]")) for s in ("[y]", "[v]")}

    def entails(self, premises, conclusions):
        if premises == conclusions:
            return verdict(premises != ms("[w]"))
        return verdict((premises, conclusions) in self.extra)


def test_quotient_check_reports_each_broken_structure():
    gens = [ms(s) for s in ("[x]", "[y]", "[v]", "[z]", "[w]")]
    report = quotient_check(_BrokenQuotient(), gens)
    # [w] is not equivalent to itself, and the class of [x] holds [y] and
    # [v], which are not equivalent to each other (equivalence); [x]+[z] and
    # [y]+[z] are not equivalent, though [x] and [y] are (congruence); [x]
    # |- [z] but not [y] |- [z] (order); [x] |- [z] but not [x]+[x] |-
    # [z]+[x] (order-compatibility).  [w]+[] is not equivalent to [w], which
    # the equivalence line already says, so no monoid line repeats it.  A
    # homomorphism line names a sum of two generators that does not derive
    # itself, and every such sum here does
    assert not report.all_ok
    kinds = {f.split(":")[0] for f in report.failures}
    assert kinds == {"equivalence", "congruence", "order", "order-compatibility"}
    assert "equivalence: [w] not equivalent to itself" in report.failures
    assert any(f.startswith("equivalence: class of [x] is not transitive")
               for f in report.failures)


class _BrokenSum(SymmetricOracle):
    """Identity on multisets, except that [x, y] does not derive itself."""

    name = "broken-sum"

    def entails(self, premises, conclusions):
        return verdict(premises == conclusions != ms("[x, y]"))


def test_quotient_check_reports_a_sum_that_does_not_derive_itself():
    report = quotient_check(_BrokenSum(), [ms("[x]"), ms("[y]")])
    # Th([x]) + Th([y]) is generated by [x, y], which is not even equivalent
    # to itself, so the sum breaks the homomorphism; commutativity fails at
    # the same sum, and the homomorphism line is its one report
    assert "homomorphism: [x] + [y]" in report.failures
    assert "monoid: commutativity fails at [x], [y]" not in report.failures
    assert {f.split(":")[0] for f in report.failures} == {
        "congruence", "order-compatibility", "homomorphism"}
    assert report.th_monotone_mapping and report.monotone_witness is None


class _OneOutside(SymmetricOracle):
    """G |- D iff at most one formula of D's support is outside G's."""

    name = "one-outside"

    def entails(self, premises, conclusions):
        return verdict(len(conclusions.support - premises.support) <= 1)


def test_union_theory_reports_a_multiset_outside_the_theory():
    a, b = parse_formula("a"), parse_formula("b")
    oracle = _OneOutside()
    report = union_theory_check(oracle, theory(oracle, ms("[]")),
                                SampleDomain((a, b), max_size=2))
    # every member has at most one atom, but together they cover a and b
    assert report.union_support == {a, b}
    assert report.checked == 4  # [], [a], [b], [a, b]
    assert report.failures == ["[a, b]"]
    assert not report.holds_for_all


# -- the image walk against the full walk ------------------------------------------

# quotient_check walks one generator per image where the oracle has images,
# every generator has one, and the first of each derives itself.  Through a
# wrapper that hides the image it walks every generator: the two must agree
# on all_ok, the monotone witness, the kinds of failure and the first line
# of each kind, and every line of the image walk is one of the full walk's.


class _HidesImage(SymmetricOracle):
    """Its base's verdicts, with no image."""

    def __init__(self, base):
        self.base, self.name = base, base.name

    def entails(self, premises, conclusions):
        return self.base.entails(premises, conclusions)


def _firsts(report):
    """all_ok, the monotone witness, and the first failure line of each kind."""
    first = {}
    for line in report.failures:
        first.setdefault(line.split(":")[0], line)
    return report.all_ok, report.monotone_witness, first


def _agrees_with_the_full_walk(oracle, gens):
    got, full = quotient_check(oracle, gens), quotient_check(_HidesImage(oracle), gens)
    assert _firsts(got) == _firsts(full)
    assert set(got.failures) <= set(full.failures)
    return got, full


@pytest.mark.parametrize("oracle_name", ["zsym", "psym"])
@pytest.mark.parametrize("lo, hi", [(-2, 2), (-3, 3)])
def test_the_image_walk_agrees_with_the_full_walk(zsym, psym, oracle_name, lo, hi):
    oracle = {"zsym": zsym, "psym": psym}[oracle_name]
    gens = SampleDomain(tuple(numeral(k) for k in range(lo, hi + 1)), max_size=2).multisets()
    got, full = _agrees_with_the_full_walk(oracle, gens)
    assert got == full and got.all_ok


def test_a_generator_without_an_image_sends_the_check_to_the_full_walk(zsym):
    # [0 /\ 1] has no image, and z decides [a, ~a] |- [0 /\ 1] on the grid:
    # read as [0] |- [0 /\ 1], it would hold, and the equivalence and order
    # failures it makes would be lost
    gens = [ms("[0]"), ms("[a, ~a]"), ms("[0 /\\ 1]")]
    got, full = _agrees_with_the_full_walk(zsym, gens)
    assert got == full
    assert {"equivalence: class of [0] is not transitive at [a, ~a] / [0 /\\ 1]",
            "order: order differs across class members: [a, ~a] |- [0 /\\ 1]"
            } <= set(got.failures)


# the multisets of at most two of numerals, atoms, a negated atom and
# lattice formulas: some sides have images, some share one, and some (a
# lattice side, for z) have none
_MIXED = SampleDomain(tuple(map(parse_formula, (
    "0", "1", "-1", "a", "~a", "a -> a", "0 /\\ 1", "1 \\/ a"))), max_size=2).multisets()


@given(symmetrization=st.booleans(),
       gens=st.lists(st.sampled_from(_MIXED), min_size=2, max_size=8, unique=True))
@settings(max_examples=200, deadline=None)
def test_the_image_walk_agrees_with_the_full_walk_on_mixed_generators(symmetrization, gens):
    oracle = Symmetrization(make_p_oracle()) if symmetrization else AbelianSymmetricOracle()
    _agrees_with_the_full_walk(oracle, gens)


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("oracle_name, witness", [
    ("zsym", "[] <= [1] but Th([]) is not contained in Th([1])"), ("psym", None)])
def test_quotient_reports_are_pinned(zsym, psym, oracle_name, witness, size):
    # the reports the walk over every generator gave on the numerals -3..3
    oracle = {"zsym": zsym, "psym": psym}[oracle_name]
    report = quotient_check(oracle, numeral_domain(max_size=size).multisets())
    assert (report.failures, report.monotone_witness) == ([], witness)


class _SeededByImage(SymmetricOracle):
    """A pure three-valued oracle that reads a side only through z's image
    of it, which adds: each verdict is drawn from the two sides' images and
    a seed, with given weights.  Where ``reflexive``, sides of one image
    derive each other."""

    name = "seeded-image"

    def __init__(self, seed, weights, reflexive):
        self.seed, self.weights, self.reflexive = seed, weights, reflexive
        self.z = AbelianOracle("z")

    def image(self, side):
        return self.z.image(side)

    def entails(self, premises, conclusions):
        a, b = self.image(premises), self.image(conclusions)
        if self.reflexive and a == b:
            return HOLDS
        return random.Random(f"{self.seed}|{a}|{b}").choices(
            (HOLDS, FAILS, UNKNOWN), self.weights)[0]


# closed formulas, some with equal images: 1, 0 -> 1 and 1 o 0 read 1, and
# 0 and t read 0
_CLOSED = ("0", "1", "-1", "0 -> 1", "1 o 0", "t")


def test_the_image_walk_agrees_with_the_full_walk_on_seeded_image_oracles():
    gens = SampleDomain(tuple(map(parse_formula, _CLOSED)), max_size=2).multisets()
    fewer = 0
    for reflexive in (True, False):
        for weights in ((3, 1, 0), (1, 1, 0), (2, 1, 1)):
            for seed in range(6):
                got, full = _agrees_with_the_full_walk(
                    _SeededByImage(seed, weights, reflexive), gens)
                assert not got.all_ok
                fewer += len(got.failures) < len(full.failures)
    # the image walk ran, and dropped lines that repeat across an image
    assert fewer


class _OneImageIrreflexive(SymmetricOracle):
    """z's sum order between sides, read through z's image, except that a
    side of sum 1 derives nothing, itself included."""

    name = "one-irreflexive"

    def __init__(self):
        self.z = AbelianOracle("z")

    def image(self, side):
        return self.z.image(side)

    def entails(self, premises, conclusions):
        (_, a), (_, b) = self.image(premises), self.image(conclusions)
        return verdict(a <= b and a != 1)


def test_an_image_whose_first_generator_does_not_derive_itself_walks_every_generator():
    # [1] and [0 -> 1] share an image, which derives nothing: neither is in
    # a class with the other, so the image walk would miss the second line
    gens = [ms(s) for s in ("[]", "[1]", "[0 -> 1]", "[2]")]
    oracle = _OneImageIrreflexive()
    report = quotient_check(oracle, gens)
    assert report == quotient_check(_HidesImage(oracle), gens)
    assert {"equivalence: [1] not equivalent to itself",
            "equivalence: [0 -> 1] not equivalent to itself"} <= set(report.failures)


class _AskedOncePerImagePair(SymmetricOracle):
    """Its base's verdicts and images; fails a test that asks it twice on
    one pair of images."""

    def __init__(self, base):
        self.base, self.name, self.image = base, base.name, base.image
        self.asked = set()

    def entails(self, premises, conclusions):
        pair = self.image(premises), self.image(conclusions)
        assert pair not in self.asked, pair
        self.asked.add(pair)
        return self.base.entails(premises, conclusions)


@pytest.mark.parametrize("oracle_name", ["zsym", "psym"])
def test_quotient_check_asks_once_per_pair_of_images(zsym, psym, oracle_name):
    oracle = {"zsym": zsym, "psym": psym}[oracle_name]
    gens = numeral_domain(max_size=2).multisets()
    spy = _AskedOncePerImagePair(oracle)
    assert quotient_check(spy, gens) == quotient_check(oracle, gens)
    # psym reads a side through whether it is empty and whether one of its
    # members is negative
    assert len(spy.asked) <= (4 if oracle_name == "psym" else 37) ** 2


# -- the reports pinned byte for byte ------------------------------------------------


def _pinned_report_cases():
    """(oracle, generators) pairs that meet every check, both table modes
    and the restart from a side with no image."""
    closed = SampleDomain(tuple(map(parse_formula, _CLOSED)), max_size=2).multisets()
    # [0 /\ 1] has no image, so a table in the class walk's mode restarts
    lattice = SampleDomain(tuple(map(parse_formula, ("0", "1", "0 -> 1", "0 /\\ 1"))),
                           max_size=2).multisets()
    yield _BrokenQuotient(), [ms(s) for s in ("[x]", "[y]", "[v]", "[z]", "[w]")]
    yield _BrokenSum(), [ms("[x]"), ms("[y]")]
    yield _OneImageIrreflexive(), [ms(s) for s in ("[]", "[1]", "[0 -> 1]", "[2]")]
    for reflexive in (True, False):
        for weights in ((3, 1, 0), (1, 1, 0), (2, 1, 1)):
            for seed in range(3):
                oracle = _SeededByImage(seed, weights, reflexive)
                for gens in (closed, lattice):
                    yield oracle, gens
                    yield _HidesImage(oracle), gens


def test_quotient_check_reports_are_pinned_byte_for_byte():
    reports = [quotient_check(oracle, gens) for oracle, gens in _pinned_report_cases()]
    text = json.dumps([[r.failures, r.monotone_witness] for r in reports])
    # every failure line, in order, and each witness, as the walk that read
    # the monoid and homomorphism checks through theory handles gave them,
    # less the monoid identity and commutativity lines, which repeated an
    # equivalence or homomorphism line
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8b5e5507863ab074a1c9cc60c6b595b4ba6035a2ebe773e19a6aa142e596df3d")


def test_a_theory_handle_prints_as_the_theory_of_its_generator(zsym):
    assert str(theory(zsym, ms("[1, 2]"))) == "Th([1, 2])"
    assert str(th_zero(zsym)) == "Th([])"
