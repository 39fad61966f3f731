"""Theories as principal upsets of a symmetric consequence oracle.

A theory handle is intensional: a generator multiset plus the oracle.  It
stands for the upset {D | generator |- D}, which is never enumerated; all
questions about theories reduce to oracle calls through the generator
characterization (Th(D) is contained in Th(G) iff G |- D).  Theories form an
Abelian monoid under generator sum with the empty-generator theory as zero,
and mutual derivability of generators is a congruence for that sum.

``quotient_check`` verifies that structure on sample generators.  It reads
its sums and verdicts from the law battery's one table, ``laws._Table``,
so it builds each sum once and asks the oracle once per pair of images.
A theory is known by its generator, so each check is one verdict between
generators or their sums, and since the table finds a sum by its value,
the monoid laws and the sum of theories hold just where a sum derives itself.
Where every side it meets has an image and the first generator of each
image derives itself, the table is in its class walk's mode and the check
walks one generator per image: its failure lines name those generators,
and it reports the full walk's verdicts, witness and first line of each
kind of failure.  Elsewhere it walks every generator, and a side with no
image sends it to a fresh table in the full walk's mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .multiset import EMPTY, FMultiset
from .oracles import HOLDS, SymmetricOracle, Verdict, all3
from .laws import SampleDomain, _NoImage, _Table, check_law


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
    equality, and the class-to-theory map preserves sums; and whether the
    map from multisets to theories preserves the submultiset order (it does
    iff the oracle is monotone).  A sum's index is its value's, or in a
    class walk its representative's, so a+[] is a, b+a is a+b and a+(b+c)
    is (a+b)+c, and a ``monoid`` (associativity) or ``homomorphism`` line
    names a sum that does not derive itself; identity and commutativity
    fail just where an ``equivalence`` or ``homomorphism`` line already
    says so, and get no line of their own.  Nor does a check that would
    repeat one: congruence at the representatives' own pair, order
    compatibility at b = a, and homomorphism at b+a after a+b.  Membership
    and containment are the relation read off the generators
    (``th_contains``, ``th_leq``), so they agree with it, and the map
    reverses the order, by definition: no check asks them.

    Each distinct sum is built once, and the oracle is asked once per pair
    of images, or of sides where one has no image (``laws._Table``).  Where
    every side met has an image, and the first generator of each image
    derives itself, the table is in its class walk's mode and the checks
    walk only those first generators, in the generators' order (Ip and
    Dill, *Better Verification Through Symmetry*, 1996).  This gives the
    full walk's ``all_ok``, ``monotone_witness``, kinds of failure and first
    line of each kind:

    * each check's verdict on a tuple of generators reads only their images,
      since a sum's image is fixed by its operands' images;
    * a generator g of the same image as an earlier first generator r
      derives itself, as r does, and is interderivable with r.  It never
      starts a class of its own: the class r joined (or started) takes it
      first, so every class is a union of image classes, its representative
      a first generator, and the classes are met in the same order;
    * so in each loop over generators, a failing tuple's members can each
      be replaced by the first generator of its image, which comes no later
      and lies in the same class, and the tuple still fails.  The full
      walk's first failing tuple of each kind is therefore one of first
      generators, which the image walk meets first too;
    * the loops over class representatives are the same loops.

    A failure that repeats across an image class gives fewer lines.  The
    reflexivity guard matters: without it a class need not be a union of
    image classes.  Elsewhere every generator is walked, and a side with no
    image restarts the check on a fresh table in the full walk's mode.  The
    monotone witness reads the submultiset order, which images do not keep,
    so it is always sought over every generator, with verdicts from the
    same table.
    """
    try:
        return _quotient(_Table(oracle, by_class=True), generators)
    except _NoImage:
        return _quotient(_Table(oracle), generators)


def _quotient(table: _Table, generators: Sequence[FMultiset]) -> QuotientReport:
    """``quotient_check`` over one table, in the mode it was made in."""
    every = list(map(table.intern, generators))
    gens = every
    if table.by_class:
        firsts = list(dict.fromkeys(map(table.rep, every)))
        if all(table.ask((r, r)) is HOLDS for r in firsts):
            gens = firsts
    v, add, ask = table.values, table.sum, table.ask  # add: (a, b) -> a+b
    report = QuotientReport()

    def entails(a: int, b: int) -> bool:
        return ask((a, b)) is HOLDS

    def equiv(a: int, b: int) -> bool:
        return entails(a, b) and (a == b or entails(b, a))

    def fail(check: str, detail: str) -> None:
        report.failures.append(f"{check}: {detail}")

    # equivalence: reflexivity plus transitivity (symmetry is by construction)
    for g in gens:
        if not equiv(g, g):
            fail("equivalence", f"{v[g]} not equivalent to itself")
    classes: dict[int, list[int]] = {}  # representative -> members
    for g in gens:
        rep = next((r for r in classes if equiv(r, g)), g)
        classes.setdefault(rep, []).append(g)
    for rep, members in classes.items():
        for a in members:
            for b in members:
                if not equiv(a, b):
                    fail("equivalence",
                         f"class of {v[rep]} is not transitive at {v[a]} / {v[b]}")

    # congruence for sum, and order well-definedness, on class representatives;
    # the representatives' own pair would compare their sum with itself, and
    # order it as itself
    for rep_a, mem_a in classes.items():
        for rep_b, mem_b in classes.items():
            both = add((rep_a, rep_b))
            for a in mem_a:
                for b in mem_b:
                    if a == rep_a and b == rep_b:
                        continue
                    if not equiv(both, add((a, b))):
                        fail("congruence", f"{v[rep_a]}+{v[rep_b]} vs {v[a]}+{v[b]}")
                    if entails(rep_a, rep_b) != entails(a, b):
                        fail("order",
                             f"order differs across class members: {v[a]} |- {v[b]}")

    # order compatibility with sum (checked on representatives); at b == a
    # it would ask whether a+c derives itself, the homomorphism check's
    for a in classes:
        for b in classes:
            if b != a and entails(a, b):
                for c in classes:
                    if not entails(add((a, c)), add((b, c))):
                        fail("order-compatibility",
                             f"{v[a]} |- {v[b]} but not {v[a]}+{v[c]} |- {v[b]}+{v[c]}")

    # monoid laws up to theory equality, and Th(a) + Th(b) = Th(a+b): each
    # fails just where its sum does not derive itself (see quotient_check).
    # Class representatives are generators, so identity at a is the
    # equivalence check's a |- a, and commutativity at a, b the
    # homomorphism check's a+b: only associativity has a line of its own
    for a in classes:
        for b in classes:
            ab = add((a, b))
            for c in classes:
                abc = add((ab, c))
                if not entails(abc, abc):
                    fail("monoid", "associativity fails")
    # a sum's index does not depend on its operands' order
    for i, a in enumerate(gens):
        for b in gens[i:]:
            ab = add((a, b))
            if not entails(ab, ab):
                fail("homomorphism", f"{v[a]} + {v[b]}")

    # Th is a monotone mapping (submultiset to containment) iff the oracle
    # is monotone; report which way this sample decides it
    pair = _monotone_mapping_breach(table, every)
    if pair is not None:
        a, b = pair
        report.monotone_witness = (
            f"{a} <= {b} but Th({a}) is not contained in Th({b})")
    return report


def _monotone_mapping_breach(table: _Table, gens: list[int]
                             ) -> Optional[tuple[FMultiset, FMultiset]]:
    """The first a <= b among the indices gens with Th(a) not contained in
    Th(b), that is, with b not deriving a; None when Th is monotone on gens."""
    v = table.values
    for a in gens:
        for b in gens:
            if v[a] <= v[b] and table.ask((b, a)) is not HOLDS:
                return v[a], v[b]
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
    pool = dom._pool
    return law.passed, _monotone_mapping_breach(_Table(oracle, pool), pool.multisets) is None
