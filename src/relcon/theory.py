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


class OracleMismatchError(Exception):
    """Handles over different oracles cannot be combined or compared."""


class PreconditionError(Exception):
    """A check's declared hypotheses fail on the sample domain."""


@dataclass(frozen=True)
class TheoryHandle:
    generator: FMultiset
    oracle: SymmetricOracle

    def __str__(self) -> str:
        return f"Th({self.generator})"


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
    """One ``"<check>: <detail>"`` line per failure, and a pair that shows Th
    does not preserve the submultiset order, or None when it does."""
    failures: list[str] = field(default_factory=list)
    monotone_witness: Optional[str] = None

    @property
    def all_ok(self) -> bool:
        return not self.failures

    @property
    def th_monotone_mapping(self) -> bool:
        return self.monotone_witness is None


def quotient_check(oracle: SymmetricOracle,
                   generators: Sequence[FMultiset]) -> QuotientReport:
    """Exhaustively verify the monoid/congruence/order structure on samples.

    Checks, over the given generators: mutual derivability is an equivalence
    compatible with multiset sum; the generator order is well defined on
    classes and compatible with sum; the monoid laws hold up to theory
    equality; membership, containment, and the relation itself agree three
    ways; the class-to-theory map reverses the order and preserves sums; and
    whether the map from multisets to theories preserves the submultiset
    order (it does iff the oracle is monotone).
    """
    gens = list(generators)
    report = QuotientReport()

    def entails(a: FMultiset, b: FMultiset) -> bool:
        return oracle.entails(a, b) is HOLDS

    def equiv(a: FMultiset, b: FMultiset) -> bool:
        return entails(a, b) and entails(b, a)

    def fail(check: str, detail: str) -> None:
        report.failures.append(f"{check}: {detail}")

    # equivalence: reflexivity plus transitivity (symmetry is by construction)
    for g in gens:
        if not equiv(g, g):
            fail("equivalence", f"{g} not equivalent to itself")
    classes: dict[FMultiset, list[FMultiset]] = {}  # representative -> members
    for g in gens:
        rep = next((r for r in classes if equiv(r, g)), g)
        classes.setdefault(rep, []).append(g)
    for rep, members in classes.items():
        for a in members:
            for b in members:
                if not equiv(a, b):
                    fail("equivalence",
                         f"class of {rep} is not transitive at {a} / {b}")

    # congruence for sum, and order well-definedness, on class representatives
    for rep_a, mem_a in classes.items():
        for rep_b, mem_b in classes.items():
            for a in mem_a:
                for b in mem_b:
                    if not equiv(rep_a + rep_b, a + b):
                        fail("congruence", f"{rep_a}+{rep_b} vs {a}+{b}")
                    if entails(rep_a, rep_b) != entails(a, b):
                        fail("order", f"order differs across class members: {a} |- {b}")

    # order compatibility with sum (checked on representatives)
    for a in classes:
        for b in classes:
            if entails(a, b):
                for c in classes:
                    if not entails(a + c, b + c):
                        fail("order-compatibility",
                             f"{a} |- {b} but not {a}+{c} |- {b}+{c}")

    # monoid laws up to theory equality
    for a in classes:
        if not equiv(a + EMPTY, a):
            fail("monoid", f"identity fails at {a}")
        for b in classes:
            if not equiv(a + b, b + a):
                fail("monoid", f"commutativity fails at {a}, {b}")
            for c in classes:
                if not equiv((a + b) + c, a + (b + c)):
                    fail("monoid", "associativity fails")

    # relation, membership and containment agree three ways, and the
    # class-to-theory map reverses the order and preserves sums
    for a in gens:
        for b in gens:
            ta, tb = TheoryHandle(a, oracle), TheoryHandle(b, oracle)
            direct = oracle.entails(a, b)
            member, contained = th_contains(ta, b), th_leq(tb, ta)
            if not (direct is member is contained):
                fail("three-way", f"{a} |- {b}")
            if entails(a, b) and th_leq(tb, ta) is not HOLDS:
                fail("antitone", f"{a} |- {b}")
            if th_eq(th_add(ta, tb), TheoryHandle(a + b, oracle)) is not HOLDS:
                fail("homomorphism", f"{a} + {b}")

    # Th is a monotone mapping (submultiset to containment) iff the oracle
    # is monotone; report which way this sample decides it
    pair = _monotone_mapping_breach(oracle, gens)
    if pair is not None:
        a, b = pair
        report.monotone_witness = (
            f"{a} <= {b} but Th({a}) is not contained in Th({b})")
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
    """The set-like multisets checked, the union of the supports of the
    theory's members within the domain (the theory's union approximated on
    the domain), and each checked multiset on which the two disagree."""
    checked: int
    union_support: frozenset
    failures: list[str] = field(default_factory=list)

    @property
    def holds_for_all(self) -> bool:
        return not self.failures


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
    answers = [(m, th_contains(handle, m) is HOLDS) for m in dom.multisets()]
    union = frozenset().union(*(m.support for m, inside in answers if inside))
    # set semantics: only set-like multisets are compared
    sets = [(m, inside) for m, inside in answers if m.size == len(m.support)]
    return UnionTheoryReport(len(sets), union, [
        str(m) for m, inside in sets if inside != (m.support <= union)])


def monotone_mapping_agrees(oracle: SymmetricOracle,
                            dom: SampleDomain) -> tuple[bool, bool]:
    """(oracle passes Monotonicity on dom, Th preserves submultiset order on dom)."""
    law = check_law(oracle, "Monotonicity", dom)
    return law.passed, _monotone_mapping_breach(oracle, dom.multisets()) is None
