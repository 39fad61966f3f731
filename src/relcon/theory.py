"""Theories as principal upsets of a symmetric consequence oracle.

A theory handle is intensional: a generator multiset plus the oracle.  It
stands for the upset {D | generator |- D}, which is never enumerated; all
questions about theories reduce to oracle calls through the generator
characterization (Th(D) is contained in Th(G) iff G |- D).  Theories form an
Abelian monoid under generator sum with the empty-generator theory as zero,
and mutual derivability of generators is a congruence for that sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .multiset import EMPTY, FMultiset
from .oracles import HOLDS, SymmetricOracle, Verdict, all3
from .laws import SampleDomain, check_law
from .syntax import print_multiset


class OracleMismatchError(Exception):
    """Handles over different oracles cannot be combined or compared."""


class PreconditionError(Exception):
    """A check's declared hypotheses fail on the sample domain."""


@dataclass(frozen=True)
class TheoryHandle:
    generator: FMultiset
    oracle: SymmetricOracle

    def __str__(self) -> str:
        return f"Th({print_multiset(self.generator)})"


def theory(oracle: SymmetricOracle, generator: FMultiset) -> TheoryHandle:
    return TheoryHandle(generator, oracle)


def th_zero(oracle: SymmetricOracle) -> TheoryHandle:
    return TheoryHandle(EMPTY, oracle)


def _same_oracle(a: TheoryHandle, b: TheoryHandle) -> None:
    if a.oracle is not b.oracle:
        raise OracleMismatchError(
            f"handles built over different oracles: {a.oracle.name} vs {b.oracle.name}")


def th_contains(handle: TheoryHandle, member: FMultiset) -> Verdict:
    """Whether a multiset belongs to the theory: generator |- member."""
    return handle.oracle.entails(handle.generator, member)


def th_add(a: TheoryHandle, b: TheoryHandle) -> TheoryHandle:
    """Theory sum: generated by the sum of the generators."""
    _same_oracle(a, b)
    return TheoryHandle(a.generator + b.generator, a.oracle)


def th_leq(a: TheoryHandle, b: TheoryHandle) -> Verdict:
    """Whether Th(a) is contained in Th(b): b's generator derives a's."""
    _same_oracle(a, b)
    return a.oracle.entails(b.generator, a.generator)


def th_eq(a: TheoryHandle, b: TheoryHandle) -> Verdict:
    """Mutual derivability of the generators."""
    _same_oracle(a, b)
    return all3(th_leq(x, y) for x, y in ((a, b), (b, a)))


def interderivable(oracle: SymmetricOracle, a: FMultiset, b: FMultiset) -> Verdict:
    return th_eq(TheoryHandle(a, oracle), TheoryHandle(b, oracle))


# -- structure checks ------------------------------------------------------------


@dataclass
class QuotientReport:
    checked_pairs: int = 0
    equivalence_ok: bool = True
    congruence_ok: bool = True
    order_well_defined_ok: bool = True
    order_compatible_ok: bool = True
    monoid_ok: bool = True
    three_way_ok: bool = True
    antitone_ok: bool = True
    hom_ok: bool = True
    th_monotone_mapping: bool = True
    monotone_witness: Optional[str] = None
    failures: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return not self.failures


def quotient_check(oracle: SymmetricOracle,
                   generators: Sequence[FMultiset]) -> QuotientReport:
    """Exhaustively verify the monoid/congruence/order structure on samples.

    Checks, over the given generators: mutual derivability is an equivalence
    compatible with multiset sum; the generator order is well defined on
    classes and compatible with sum; the monoid laws hold up to theory
    equality; membership, containment, and the relation itself agree three
    ways; the class-to-theory map reverses the order; and whether the map
    from multisets to theories preserves the submultiset order (it does iff
    the oracle is monotone).
    """
    gens = list(generators)
    report = QuotientReport()

    def entails(a: FMultiset, b: FMultiset) -> bool:
        return oracle.entails(a, b) is HOLDS

    def equiv(a: FMultiset, b: FMultiset) -> bool:
        return entails(a, b) and entails(b, a)

    def fail(flag: str, kind: str, msg: str) -> None:
        setattr(report, flag, False)
        report.failures.append(f"{kind}: {msg}")

    # equivalence: reflexivity plus transitivity (symmetry is by construction)
    for g in gens:
        if not equiv(g, g):
            fail("equivalence_ok", "equivalence",
                 f"{print_multiset(g)} not equivalent to itself")
    classes: dict[FMultiset, list[FMultiset]] = {}
    reps: list[FMultiset] = []
    for g in gens:
        for rep in reps:
            if equiv(rep, g):
                classes[rep].append(g)
                break
        else:
            reps.append(g)
            classes[g] = [g]
    for rep, members in classes.items():
        for a in members:
            for b in members:
                if not equiv(a, b):
                    fail("equivalence_ok", "equivalence",
                         f"class of {print_multiset(rep)} is not transitive at "
                         f"{print_multiset(a)} / {print_multiset(b)}")

    # congruence for sum, and order well-definedness, on class representatives
    for rep_a, mem_a in classes.items():
        for rep_b, mem_b in classes.items():
            for a in mem_a:
                for b in mem_b:
                    report.checked_pairs += 1
                    if not equiv(rep_a + rep_b, a + b):
                        fail("congruence_ok", "congruence",
                             f"{print_multiset(rep_a)}+{print_multiset(rep_b)} vs "
                             f"{print_multiset(a)}+{print_multiset(b)}")
                    if entails(rep_a, rep_b) != entails(a, b):
                        fail("order_well_defined_ok", "order",
                             f"order differs across class members: "
                             f"{print_multiset(a)} |- {print_multiset(b)}")

    # order compatibility with sum (checked on representatives)
    for a in reps:
        for b in reps:
            if entails(a, b):
                for c in reps:
                    if not entails(a + c, b + c):
                        fail("order_compatible_ok", "order-compatibility",
                             f"{print_multiset(a)} |- {print_multiset(b)} but not "
                             f"{print_multiset(a)}+{print_multiset(c)} |- "
                             f"{print_multiset(b)}+{print_multiset(c)}")

    # monoid laws up to theory equality
    for a in reps:
        if not equiv(a + EMPTY, a):
            fail("monoid_ok", "monoid", f"identity fails at {print_multiset(a)}")
        for b in reps:
            if not equiv(a + b, b + a):
                fail("monoid_ok", "monoid", f"commutativity fails at "
                     f"{print_multiset(a)}, {print_multiset(b)}")
            for c in reps:
                if not equiv((a + b) + c, a + (b + c)):
                    fail("monoid_ok", "monoid", "associativity fails")

    # three-way agreement: relation == membership == containment
    for a in gens:
        for b in gens:
            ta, tb = TheoryHandle(a, oracle), TheoryHandle(b, oracle)
            direct = oracle.entails(a, b)
            member = th_contains(ta, b)
            contained = th_leq(tb, ta)
            if not (direct is member is contained):
                fail("three_way_ok", "three-way",
                     f"{print_multiset(a)} |- {print_multiset(b)}")

    # the class-to-theory map reverses the order and preserves sums
    for a in gens:
        for b in gens:
            if entails(a, b):
                # Th(b) must be contained in Th(a)
                if th_leq(TheoryHandle(b, oracle), TheoryHandle(a, oracle)) is not HOLDS:
                    fail("antitone_ok", "antitone",
                         f"{print_multiset(a)} |- {print_multiset(b)}")
            if th_eq(th_add(TheoryHandle(a, oracle), TheoryHandle(b, oracle)),
                     TheoryHandle(a + b, oracle)) is not HOLDS:
                fail("hom_ok", "homomorphism", f"{print_multiset(a)} + {print_multiset(b)}")

    # Th is a monotone mapping (submultiset to containment) iff the oracle
    # is monotone; report which way this sample decides it
    pair = _monotone_mapping_breach(oracle, gens)
    if pair is not None:
        a, b = pair
        report.th_monotone_mapping = False
        report.monotone_witness = (
            f"{print_multiset(a)} <= {print_multiset(b)} but "
            f"Th({print_multiset(a)}) is not contained in "
            f"Th({print_multiset(b)})")

    return report


def _monotone_mapping_breach(oracle: SymmetricOracle, gens: Sequence[FMultiset]
                             ) -> Optional[tuple[FMultiset, FMultiset]]:
    """The first a <= b in gens with Th(a) not contained in Th(b), that is,
    with b not deriving a; None when Th is monotone on gens."""
    for a in gens:
        for b in gens:
            if a <= b and oracle.entails(b, a) is not HOLDS:
                return a, b
    return None


@dataclass
class UnionTheoryReport:
    holds_for_all: bool
    checked: int
    union_support: frozenset
    note: str = "union approximated by the domain-restricted member supports"
    failures: list[str] = field(default_factory=list)


def union_theory_check(oracle: SymmetricOracle, handle: TheoryHandle,
                       dom: SampleDomain) -> UnionTheoryReport:
    """For Tarskian oracles: membership equals inclusion in the theory's union.

    Precondition: the oracle passes Monotonicity and both contraction laws on
    the domain; rejected otherwise.  Set-like multisets of the domain are
    tested for: member of the theory iff its support lies in the union of the
    supports of the theory's members within the domain.
    """
    if handle.oracle is not oracle:
        raise OracleMismatchError("handle was built over a different oracle")
    for law in ("Monotonicity", "Contraction", "rContraction"):
        result = check_law(oracle, law, dom)
        if not result.passed:
            raise PreconditionError(
                f"{law} does not hold on the domain: {result.witness_str()}")
    members = [m for m in dom.multisets()
               if th_contains(handle, m) is HOLDS]
    union: set = set()
    for m in members:
        union |= set(m.support)
    failures = []
    checked = 0
    for gamma in dom.multisets():
        if any(gamma.count(x) > 1 for x in gamma.support):
            continue  # set semantics: only set-like multisets
        checked += 1
        inside = th_contains(handle, gamma) is HOLDS
        covered = set(gamma.support) <= union
        if inside != covered:
            failures.append(print_multiset(gamma))
    return UnionTheoryReport(not failures, checked, frozenset(union),
                             failures=failures)


def monotone_mapping_agrees(oracle: SymmetricOracle,
                            dom: SampleDomain) -> tuple[bool, bool]:
    """(oracle passes Monotonicity on dom, Th preserves submultiset order on dom)."""
    law = check_law(oracle, "Monotonicity", dom)
    return law.passed, _monotone_mapping_breach(oracle, dom.multisets()) is None
