import pytest

from relcon import (
    FAILS,
    HOLDS,
    OracleMismatchError,
    PreconditionError,
    SampleDomain,
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
from relcon.semantics import IdentityOracle
from relcon.theory import monotone_mapping_agrees
from conftest import numeral_domain

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
    assert report.equivalence_ok and report.congruence_ok
    assert report.order_well_defined_ok and report.order_compatible_ok
    assert report.monoid_ok and report.three_way_ok
    assert report.antitone_ok and report.hom_ok
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
    # [v], which are not equivalent to each other
    assert not report.equivalence_ok
    # [x]+[z] and [y]+[z] are not equivalent, though [x] and [y] are
    assert not report.congruence_ok
    # [x] |- [z] but not [y] |- [z]
    assert not report.order_well_defined_ok
    # [x] |- [z] but not [x]+[x] |- [z]+[x]
    assert not report.order_compatible_ok
    # [w]+[] is not equivalent to [w]
    assert not report.monoid_ok
    # the three-way, antitone and homomorphism checks read the relation
    # through theory handles whose every reading is the same entails(a, b)
    # call, so a deterministic oracle cannot fail the first two; and every
    # sum of two generators here derives itself
    assert report.three_way_ok and report.antitone_ok and report.hom_ok
    assert not report.all_ok
    kinds = {f.split(":")[0] for f in report.failures}
    assert kinds == {"equivalence", "congruence", "order", "order-compatibility", "monoid"}
    assert "equivalence: [w] not equivalent to itself" in report.failures
    assert any(f.startswith("equivalence: class of [x] is not transitive")
               for f in report.failures)
