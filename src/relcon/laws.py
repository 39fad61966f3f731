"""A law battery for consequence oracles.

The laws are the consecution templates of ``_ASYM_TABLE`` (oracles between
multisets and formulas) and ``_SYM_TABLE`` (oracles between multisets), each
written as the paper states it.  Each law is checked instance-by-instance
over a finite sample domain: exhaustively when its image classes (below), or
else its instances, fit the cap, and by seeded sampling otherwise.  A
counterexample is a fully concrete violating instance; UNKNOWN oracle
answers make a check inconclusive rather than failed, and so does a check
on no instances at all.

How a check runs:

* **Plans, once, at import.**  ``_compile`` turns each statement into a
  ``LawSpec`` that holds its whole plan as data: each side that is not a
  lone variable gets a slot of its own, and each variable level lists the
  sides it computes and the antecedents it tests, each as the item getter
  of the slots it reads.
* **Pools, per domain.**  A ``SampleDomain`` interns its values once, on
  the first check that asks, into one list that every later check on the
  domain reads and extends: the M, F and N pools are index lists into it,
  so an instance is a list of ints.  Each value is keyed by itself, a
  formula or an ``FMultiset``, so equal values are one index wherever they
  come from: the domain's multisets, a sum of sides (the multiset sum of
  its operands, a formula read as its lone multiset) or a theorem.  So a
  value two checks meet, or one reached both from outside and as a sum, is
  one object, and the oracle's memo finds it by identity.  The empty
  multiset comes first, so index 0 is the value of every side "[]".  The T
  pool follows the oracle's theorem basis, so each check builds its own
  index list, interned into the same list.  The values are per domain, not
  a global interning table: they die with it.
* **Tables, per walk.**  Each walk of a check reads one ``_Table``, the
  one verdict table of the package, which ``theory.quotient_check`` reads
  too: one sum table, keyed by operand indices, and one verdict table,
  keyed by the sides' indices.  An oracle that says what it reads of a
  side, its ``image``, gets each index's representative too: the first
  index of its kind the table met with its image.  A miss in the verdict
  table looks the pair of representatives up in the same table, and asks
  the oracle only on a miss there, so once per pair of images.  In the
  full walk's mode the representatives stand in only when both sides have
  an image: a side without one (a query z decides on the grid, say) is
  asked per pair of indices, as is every query of an oracle without
  ``image``.  Each table is filled on first use, through the oracle's own
  memo.  Nothing the check holds refers back to it.
* **Pushdown.**  The exhaustive instances are a loop nest in the canonical
  order, and each antecedent is tested (and each side computed) at the
  shallowest level that binds it (Selinger et al., *Access Path Selection*,
  1979).  A FAILS antecedent settles its whole subtree, and an UNKNOWN one
  is carried down to the leaf.  The instances checked are counted by
  arithmetic, from the witness's rank in the canonical order, or all of
  them where there is none.  Sampling walks the same nest, one drawn
  instance at a time, with the draws taken over index lists as long as the
  pools.
* **Classes.**  A law's verdict on an instance depends only on the image
  class of each variable's value, since images add (``oracles``).  So a
  check on an oracle with ``image`` whose pools' values all have one walks
  the same nest over one value per class: each pool's first value of each
  image (Ip and Dill, *Better Verification Through Symmetry*, 1996).  A
  family law's G is classed by the multiset of its members' images, since
  each member faces a multiset of the family, and each of those multisets
  by its image.  The cap bounds the class tuples, so a check walks its
  classes whenever they fit it, however many instances they stand for.
  Its table is in the class walk's mode: every side, sums included, stands
  for its representative.  The first violating instance is a tuple of
  representatives, and the instances counted are the full walk's, by
  rank.  A side that turns out to have no image sends the check back to
  the instances, with a fresh table in the full walk's mode: the full walk
  where they fit the cap, and sampling where they do not.  The full walk
  is the same walk, over classes of one value each.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .multiset import EMPTY, FMultiset, submultisets
from .oracles import (
    FAILS,
    HOLDS,
    UNKNOWN,
    ConsequenceOracle,
    Verdict,
    all3,
    any3,
    memoised,
)
from .syntax import Formula, print_formula, print_multiset


@dataclass(frozen=True)
class SampleDomain:
    """A finite formula universe with a multiset size bound.

    The universe holds each formula once: a repeat is dropped, and the first
    occurrence keeps its place.  Enumeration is canonical (sizes ascending,
    elements in universe order) and reproducible; sampling above the cap
    draws from the seeded generator.  A domain is frozen, so the interned
    values that the checks on it share never go stale.
    """

    formulas: tuple[Formula, ...]
    max_size: int = 3
    seed: int = 0
    exhaustive_cap: int = 100_000
    sample_count: int = 4000

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(dict.fromkeys(self.formulas)))

    def multisets(self) -> list[FMultiset]:
        out = []
        for size in range(self.max_size + 1):
            for combo in itertools.combinations_with_replacement(self.formulas, size):
                out.append(FMultiset(combo))
        return out

    @cached_property
    def _pool(self) -> "_Pool":
        """The values the checks on this domain share, made by the first."""
        return _Pool(self)


class _Pool:
    """A domain's interned values, each kept once and keyed by itself.

    ``values`` holds each value, a formula or an ``FMultiset``, once, and
    ``index`` maps each to its index, so equal values met anywhere, from
    outside or as sums, are one index and one object.  The empty multiset
    is interned first, at index 0, because an instance's slot for a side
    "[]" (``LawSpec``) takes 0 for it without interning it.  The M, F and N
    pools are index lists in the domain's canonical order.  Checks intern
    what they compute into it too, so it grows with them, and it lives as
    long as its domain.
    """

    def __init__(self, dom: SampleDomain):
        self.values: list = [EMPTY]
        self.index: dict = {EMPTY: 0}
        self.multisets = list(map(self.intern, dom.multisets()))
        self.formulas = list(map(self.intern, dom.formulas))
        self.nonempty = self.multisets[1:]  # sizes ascend, and only [] is empty

    def intern(self, value) -> int:
        """The index of a formula or a multiset: its first equal's."""
        i = self.index.get(value)
        if i is None:
            i = self.index[value] = len(self.values)
            self.values.append(value)
        return i


class _NoImage(Exception):
    """A class walk met a side with no image, which speaks for no class."""


class _Table:
    """One walk's sums and verdicts over a pool, each found once.

    ``sum`` looks a sum up by its operands' indices, and the first time
    adds their values and interns the sum, so it finds an equal value the
    pool already holds.  ``ask`` looks a verdict up by its sides'
    indices, and on a miss by their representatives' (``rep``): the first
    index of the side's kind, formula or multiset, met with its image
    (``image_of``, the oracle's ``image``).  Equal images give equal
    verdicts against a side with an image (``oracles``), so the oracle is
    asked once per pair of representatives, on their values.  In a full
    walk's table a side stands for itself, and for its representative only
    against a side that has an image too.  In a class walk's (``by_class``,
    set before the first sum or verdict), every side, sums included, stands
    for its representative, since images add, and a side with no image
    raises ``_NoImage``: the caller then walks every value, on a fresh
    table.  Nothing it holds refers back to the walk."""

    def __init__(self, oracle, pool: Optional[_Pool] = None, by_class: bool = False):
        pool = pool or _Pool(SampleDomain((), 0))  # the empty multiset at index 0
        self.oracle, self.pool, self.by_class = oracle, pool, by_class
        self.values, self.intern = pool.values, pool.intern
        self.image_of = getattr(oracle, "image", None)  # side -> its image, or None
        self.sums: dict = {}  # the operands' indices -> their sum's
        # (left, right) indices -> Verdict; a family's key is (its indices, G)
        self.verdicts: dict = {}
        self.reps: dict[int, Optional[int]] = {}  # index -> its representative, or None
        self.firsts: tuple[dict, dict] = {}, {}  # per kind: image -> the first index met with it

    def rep(self, i: int) -> Optional[int]:
        """The representative of index ``i``, found once per table: None
        when its value has no image, which a class walk cannot read."""
        reps = self.reps
        if i in reps:
            r = reps[i]
        else:
            value = self.values[i]
            image = None if self.image_of is None else self.image_of(value)
            # a formula and its lone multiset share an image but not a place
            r = reps[i] = (None if image is None else
                           self.firsts[type(value) is FMultiset].setdefault(image, i))
        if r is None and self.by_class:
            raise _NoImage
        return r

    def sum(self, x) -> int:
        """The index of the sum of the values at ``x``: an index, or a tuple
        of indices and families' tuples; in a class walk, its representative."""
        i = self.sums.get(x)
        if i is None:
            total, values = EMPTY, self.values
            for j in (x if type(x) is tuple else (x,)):
                for value in (map(values.__getitem__, j) if type(j) is tuple else (values[j],)):
                    # a formula adds as its lone multiset
                    total += value if type(value) is FMultiset else FMultiset([value])
            i = self.intern(total)
            self.sums[x] = i = self.rep(i) if self.by_class else i
        return i

    def ask(self, key: tuple) -> Verdict:
        """The verdict on a pair of indices; a family's holds when each of
        its multisets entails its element of G."""
        v = self.verdicts.get(key)
        if v is None:
            left, right = key
            if type(left) is tuple:
                v = all3(map(self.ask, zip(left, map(self.intern, self.values[right]))))
            else:
                a = self.rep(left)
                b = None if a is None else self.rep(right)
                pair = key if b is None else (a, b)
                v = self.verdicts.get(pair)
                if v is None:
                    v = self.verdicts[pair] = self.oracle.entails(self.values[pair[0]],
                                                                  self.values[pair[1]])
            self.verdicts[key] = v
        return v


@dataclass
class LawResult:
    law: str
    status: str  # "passed" | "counterexample" | "inconclusive"
    witness: Optional[dict] = None
    exhaustive: bool = True
    checked: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def witness_str(self) -> str:
        if not self.witness:
            return ""
        return "; ".join(f"{k}={_show_part(v)}" for k, v in self.witness.items())


def _show_part(v) -> str:
    if isinstance(v, FMultiset):
        return print_multiset(v)
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_show_part(x) for x in v) + ")"
    return print_formula(v)


# Each law as the paper states it: its name, its bound variables in the
# order the canonical instance stream nests them, and its statement
# "antecedent and antecedent => conclusion".  A capital letter is a multiset
# and a lowercase letter a formula; "D:T" ranges over multisets of declared
# theorems, "G:N" over nonempty multisets, and "Ds:G" is a family of
# multisets, one per element of G.  A side of a consecution is a "+"-sum of
# multiset variables and bracketed formula lists; a family antecedent
# "Ds |- G" holds pointwise, and a family on a side stands for its sum.

_ASYM_TABLE = (
    ("Reflexivity", "f", "[f] |- f"),
    ("Cut", "G D f g", "G+[g] |- f and D |- g => G+D |- f"),
    ("Monotonicity", "G f D", "G |- f => G+D |- f"),
    ("Contraction", "G g f", "G+[g,g] |- f => G+[g] |- f"),
    ("GeneralizedReflexivity", "G f", "G+[f] |- f"),
    ("RelevantCut", "G:N f Ds:G", "G |- f and Ds |- G => Ds |- f"),
    ("TheoremRemoval", "G D:T f", "G+D |- f => G |- f"),
)

_SYM_TABLE = (
    ("Reflexivity", "G", "G |- G"),
    ("Transitivity", "G D P", "G |- D and D |- P => G |- P"),
    ("Compatibility", "G D P", "G |- D => G+P |- D+P"),
    ("Monotonicity", "G D P", "G |- D => G+P |- D"),
    ("Contraction", "G g D", "G+[g,g] |- D => G+[g] |- D"),
    ("rContraction", "G g D", "G |- D+[g,g] => G |- D+[g]"),
    ("GeneralizedReflexivity", "G D", "G+D |- G"),
    ("TheoremReflexivity", "G", "G |- []"),
    ("MultiCut", "G D P F", "G |- D and D+P |- F => G+P |- F"),
    ("TheoremRemoval", "D P F", "[] |- D and D+P |- F => P |- F"),
)

# the pools a variable can range over; any other kind names the variable
# that a family is indexed by
_POOLS = ("M", "F", "N", "T")


class LawSpec(NamedTuple):
    """A law compiled to a plan over instance slots.

    An instance holds one slot per variable, in stream order, then one per
    side that is not a lone variable.  Each level of the plan (one per
    variable) lists the sides computed before its tests, the tests in
    statement order, and the sides computed after them.  A side is ``(slot,
    key)``: ``key`` reads the slots of the variables it sums, a bracket
    list's formulas one by one and a family's multisets as one tuple.  A
    test, like the conclusion, is the key of its two sides' slots; a
    pointwise "Ds |- G" reads the family's and G's.  A side "[]" has no step:
    its slot keeps the empty multiset's index, 0, from the start.
    """

    name: str
    names: tuple[str, ...]  # the bound variables, in stream order
    kinds: tuple[str, ...]  # per variable: a pool or a family's index
    slots: int  # the length of an instance
    levels: tuple[tuple[tuple, tuple, tuple], ...]  # per variable: early, tests, late
    conclusion: itemgetter


def _compile(table) -> dict[str, LawSpec]:
    laws = {}
    for name, variables, statement in table:
        names, kinds = [], []
        for var in variables.split():
            var, _, kind = var.partition(":")
            names.append(var)
            kinds.append(kind or ("M" if var[0].isupper() else "F"))
        n = len(names)
        # the sides past the variables, in slot order, each as the
        # positions of the variables it sums
        sides: list[tuple[int, ...]] = []

        def slot(text: str) -> int:
            """A lone variable's position, or the slot of a side past them."""
            if text in names and kinds[names.index(text)] in _POOLS:
                return names.index(text)
            read = tuple(names.index(x) for term in text.split("+")
                         for x in (term[1:-1].split(",") if term.startswith("[") else [term])
                         if x)
            if read not in sides:
                sides.append(read)
            return n + sides.index(read)

        def consecution(text: str) -> tuple[int, int]:
            left, right = (side.strip() for side in text.split("|-"))
            if left in names and kinds[names.index(left)] == right:  # Ds |- G
                return names.index(left), names.index(right)
            return slot(left), slot(right)

        def level(*slots: int) -> int:
            """The deepest variable position the slots read."""
            return max((p for s in slots for p in (sides[s - n] if s >= n else (s,))),
                       default=0)

        premises, _, conclusion = statement.rpartition(" => ")
        tests = [consecution(c) for c in premises.split(" and ")] if premises else []
        last = consecution(conclusion)
        early = {s for q in tests for s in q if s >= n and level(s) == level(*q)}
        plan: list[tuple[list, list, list]] = [([], [], []) for _ in range(n)]
        for at, read in enumerate(sides, n):
            if read:
                plan[max(read)][0 if at in early else 2].append((at, itemgetter(*read)))
        for q in tests:
            plan[level(*q)][1].append(itemgetter(*q))
        laws[name] = LawSpec(name, tuple(names), tuple(kinds), n + len(sides),
                             tuple(tuple(map(tuple, steps)) for steps in plan),
                             itemgetter(*last))
    return laws


ASYM_LAWS: dict[str, LawSpec] = _compile(_ASYM_TABLE)
SYM_LAWS: dict[str, LawSpec] = _compile(_SYM_TABLE)


def law_names(symmetric: bool) -> list[str]:
    return list((SYM_LAWS if symmetric else ASYM_LAWS).keys())


class _Check:
    """One law over one domain, on the domain's interned values.

    Every value the check meets (pool elements, sums, bracket lists) is
    interned into the domain's ``values``, so an instance is a list of ints:
    one index per variable (a tuple of them for a family), then one per side
    that is not a lone variable.  The instances are the canonical loop nest,
    one level per variable, and each level runs its steps of the law's plan.
    Sums and verdicts come from the walk's ``_Table``, each filled on first
    use, so the oracle sees each distinct query, or each distinct pair of
    images, once per walk, through its own memo, and a query an earlier
    check on the domain asked reaches the memo as the same objects.  Every
    exhaustive walk is ``walk_classes``: over one representative per class
    where the classes fit the cap, and otherwise over every value, each a
    class of its own.  The check holds its table and the domain's pool,
    none of which refers back to it.
    """

    def __init__(self, law: LawSpec, oracle, dom: SampleDomain):
        self.law, self.dom, self.oracle = law, dom, oracle
        self.pool = pool = dom._pool
        self.values = pool.values
        kinds, n = law.kinds, len(law.kinds)

        # the pools as index lists; a family, always last, has one multiset
        # per element of the multiset at position ``at``
        self.multisets = pool.multisets
        pools = {"M": pool.multisets, "F": pool.formulas, "N": pool.nonempty}
        if "T" in kinds:  # an empty basis still has the empty multiset of theorems
            basis = tuple(oracle.theorem_basis)
            pools["T"] = [pool.intern(m)
                          for m in SampleDomain(basis, dom.max_size).multisets()]
        self.family = kinds[-1] not in _POOLS
        self.fixed = [pools[k] for k in kinds[:n - self.family]]
        self.at = law.names.index(kinds[-1]) if self.family else n
        self.table = _Table(oracle, pool)  # the next walk's sums and verdicts

    @property
    def by_class(self) -> bool:
        """Whether the last walk read one value per class."""
        return self.table.by_class

    def place(self, steps: tuple) -> None:
        """Compute sides into the instance, each looked up by its operands'
        indices in the table."""
        inst, get, add = self.inst, self.table.sums.get, self.table.sum
        for at, key in steps:
            x = key(inst)
            i = get(x)
            inst[at] = add(x) if i is None else i

    # -- the loop nest --------------------------------------------------------------

    def sizes(self, pools: list) -> list[int]:
        """Per fixed variable, the choices of the nest over ``pools``: one
        pool per fixed variable, and for a family, last, the pool its
        multisets are drawn from.  G's choices are each weighed by their
        families."""
        sizes = [len(pool) for pool in pools[:len(self.fixed)]]
        if self.family:
            m = len(pools[-1])
            sizes[self.at] = sum(m ** self.values[g].size for g in pools[self.at])
        return sizes

    def run(self) -> LawResult:
        law, dom = self.law, self.dom
        pools = self.fixed + [self.multisets] * self.family
        sizes = self.sizes(pools)
        count = math.prod(sizes)
        self.tails = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
        # the cap bounds the class tuples where classes apply, and the
        # instances elsewhere
        classes = self.classes()
        found = None
        if classes is not None and math.prod(self.sizes(classes)) <= dom.exhaustive_cap:
            self.table.by_class = True
            found = self.walk_classes(classes, count)
        # without a class walk, or after one that met a side with no image,
        # the instances decide between the full walk and sampling
        exhaustive = found is not None or count <= dom.exhaustive_cap or not count
        if found is None and exhaustive:  # the full walk: each value its own class
            found = self.walk_classes([{i: pos for pos, i in enumerate(pool)}
                                       for pool in pools], count)
        elif found is None:
            # one instance per draw, drawn whole before any test, so the
            # draws follow the pools whatever the verdicts
            self.start(self.fixed + [None] * self.family, None)
            rng, found = random.Random(dom.seed), False
            for _ in range(dom.sample_count):
                self.drawn = [rng.choice(pool) for pool in self.fixed]
                if self.family:
                    size = self.values[self.drawn[self.at]].size
                    self.drawn.append(tuple(rng.choice(self.multisets)
                                            for _ in range(size)))
                self.checked += 1
                if self.walk(0, False):
                    found = True
                    break
        if found:
            get = self.values.__getitem__
            witness = {name: get(i) if kind in _POOLS else tuple(map(get, i))
                       for name, kind, i in zip(law.names, law.kinds, self.inst)}
            return LawResult(law.name, "counterexample", witness, exhaustive, self.checked)
        status = "inconclusive" if self.sawunknown or not self.checked else "passed"
        return LawResult(law.name, status, None, exhaustive, self.checked)

    def start(self, pools: list, members: Optional[list]) -> None:
        """Set the loop nest up over ``pools``, a family's multisets drawn
        from ``members``, with nothing checked yet."""
        self.levels = list(zip(pools, self.law.levels))
        self.members = members
        self.inst = [0] * self.law.slots
        self.checked, self.sawunknown, self.drawn = 0, False, None

    def classes(self) -> Optional[list[dict[int, int]]]:
        """Per fixed pool, and last, for a family, the pool its multisets
        are drawn from: the first value of each class, mapped to its
        position in the pool, in the pool's order.  A class is an image,
        read as the table's representative, but at G's level of a family
        law it is the multiset of the images of G's members, which each face
        a multiset of the family.  None for an oracle without ``image``, or
        a pool with a value that has none (or, at G's level, a member that
        has none)."""
        if self.table.image_of is None:
            return None
        out = []
        for k, pool in enumerate(self.fixed + [self.multisets] * self.family):
            first: dict = {}  # class -> (its first value, that value's position)
            for pos, i in enumerate(pool):
                key = self.member_images(i) if self.family and k == self.at else self.table.rep(i)
                if key is None:
                    return None
                if key not in first:
                    first[key] = i, pos
            out.append(dict(first.values()))
        return out

    def member_images(self, i: int) -> Optional[frozenset]:
        """The multiset of the images of value ``i``'s members, as a set of
        (representative, multiplicity) pairs; None when a member has no
        image."""
        counts: dict = {}
        table = self.table
        for f, k in self.values[i].items():
            r = table.rep(table.intern(f))
            if r is None:
                return None
            counts[r] = counts.get(r, 0) + k
        return frozenset(counts.items())

    def walk_classes(self, classes: list[dict[int, int]], count: int) -> Optional[bool]:
        """The exhaustive walk over one representative per class: True at
        the first violating instance, False when there is none, and None
        when a class walk's side has no image, which ``run`` then settles
        without the classes, on a fresh table.  The full walk is this walk
        over classes of one value each.

        A side is a sum of representatives, whose image is that of the sum
        of any values of their classes (the additivity in ``oracles``), so
        each verdict is every instance's of its class.  The first violating
        instance of the full walk is a tuple of representatives, each the
        first of its class, or one that violates would come earlier:

        * a pool variable's value, or a family's multiset, that is not the
          first of its class can be replaced by that first one.  Every
          verdict keeps its images, and the instance comes earlier: the
          family's multisets run in lexicographic order.
        * a G that is not the first of its class can be replaced by that
          first one, G0, and the family permuted to match: G0's i-th member
          has the image of some member of G, and the family multiset that
          faced that member now faces G0's i-th.  Each pointwise verdict is
          one of the old ones, and G0 has G's image, by additivity.  The
          family's sum is unchanged, so every other side keeps its value.
          The instance comes earlier, as G0 comes before G.

        So the walk stops at the full walk's witness, and the checked count
        is the full walk's, by arithmetic, from the witness's rank (``rank``).
        Without one, every instance answers as its tuple of representatives,
        so the check passes, or is inconclusive, as the full walk would.
        """
        members = list(classes[-1]) if self.family else None
        self.start(classes[:len(self.fixed)] + [None] * self.family, members)
        try:
            found = self.walk(0, False)
        except _NoImage:
            self.table = _Table(self.oracle, self.pool)
            return None
        self.checked = 1 + self.rank(classes) if found else count
        return found

    def rank(self, positions: list[dict[int, int]]) -> int:
        """The instances the full walk meets before the current one, by its
        mixed radix in the pools, each value's position read in
        ``positions``.  A choice of G weighs its families, and so does each
        choice below it down to the family, whose size G binds; a family is
        a number in base |M|, its first multiset the most significant digit,
        as ``itertools.product`` runs."""
        inst, tails, m = self.inst, self.tails, len(self.multisets)
        rank = 0
        for k, pos in enumerate(positions[:len(self.fixed)]):
            p = pos[inst[k]]
            if not self.family or k < self.at:
                rank += p * tails[k]
            elif k == self.at:
                rank += tails[k] * sum(m ** self.values[g].size for g in self.fixed[k][:p])
            else:
                rank += p * tails[k] * m ** self.values[inst[self.at]].size
        if self.family:
            number = 0
            for i in inst[len(self.fixed)]:
                number = number * m + positions[-1][i]
            rank += number
        return rank

    def walk(self, k: int, unknown: bool) -> bool:
        """Run the instances below level k; True at the first violating one.

        A FAILS antecedent settles its whole subtree (vacuously fine), and an
        UNKNOWN one is carried down: it leaves an instance UNKNOWN unless the
        conclusion holds.
        """
        inst, table = self.inst, self.table
        get = table.verdicts.get
        pool, (early, tests, late) = self.levels[k]
        if self.drawn:
            pool = (self.drawn[k],)
        elif pool is None:  # the family: one multiset per element of G
            pool = itertools.product(self.members, repeat=self.values[inst[self.at]].size)
        leaf, conclusion = k == len(self.levels) - 1, self.law.conclusion
        for i in pool:
            inst[k] = i
            if early:
                self.place(early)
            u = unknown
            for key in tests:
                x = key(inst)
                v = get(x)
                if v is None:
                    v = table.ask(x)
                if v is FAILS:
                    break
                if v is UNKNOWN:
                    u = True
            else:
                if late:
                    self.place(late)
                if not leaf:
                    if self.walk(k + 1, u):
                        return True
                    continue
                x = conclusion(inst)
                v = get(x)
                if v is None:
                    v = table.ask(x)
                if v is FAILS and not u:
                    return True
                if v is not HOLDS:
                    self.sawunknown = True
        return False


def check_law(oracle, law_name: str, dom: SampleDomain) -> LawResult:
    """Test one law over the domain; returns the first violating instance."""
    registry = SYM_LAWS if getattr(oracle, "symmetric", False) else ASYM_LAWS
    if law_name not in registry:
        raise KeyError(f"no law named {law_name!r} for this oracle kind")
    law = registry[law_name]
    if "T" in law.kinds and getattr(oracle, "theorem_basis", None) is None:
        return LawResult(law.name, "inconclusive", None, True, 0)  # nothing sampled
    return _Check(law, oracle, dom).run()


def check_laws(oracle, dom: SampleDomain,
               names: Optional[Sequence[str]] = None) -> dict[str, LawResult]:
    selected = law_names(getattr(oracle, "symmetric", False)) if names is None else names
    return {n: check_law(oracle, n, dom) for n in selected}


# -- the monotonic companion ------------------------------------------------------


def monotonic_companion(oracle, premises: FMultiset, conclusion) -> Verdict:
    """The least monotone extension: some submultiset of the premises entails.

    The oracle may be of either kind; the conclusion is passed through.
    """
    return any3(oracle.entails(sub, conclusion) for sub in submultisets(premises))


class MonotonicCompanion(ConsequenceOracle):
    """The monotonic companion of an oracle, of the same kind as its base."""

    def __init__(self, base):
        self.base = base
        self.name = f"{base.name}_m"
        self.symmetric = base.symmetric
        self.theorem_basis = getattr(base, "theorem_basis", None)

    @memoised
    def entails(self, premises: FMultiset, conclusion) -> Verdict:
        return monotonic_companion(self.base, premises, conclusion)


# -- classification -----------------------------------------------------------------


# the laws each property of a relation rests on: (asymmetric, symmetric)
_PROPERTY_LAWS = {
    "consequence": (("Reflexivity", "Cut"),
                    ("Reflexivity", "Transitivity", "Compatibility")),
    "monotone": (("Monotonicity",), ("Monotonicity",)),
    "contractive": (("Contraction",), ("Contraction", "rContraction")),
}
_STATUS_VERDICT = {"passed": HOLDS, "counterexample": FAILS, "inconclusive": UNKNOWN}
_ANSWER = {HOLDS: "yes", FAILS: "no", UNKNOWN: "unknown"}


@dataclass
class ClassifyReport:
    oracle_name: str
    symmetric: bool
    results: dict[str, LawResult]

    @property
    def consistency_errors(self) -> list[str]:
        """The derived-law network's cross-check: one line per implication
        whose premise laws all passed and whose conclusion law failed."""
        network = SYM_IMPLICATIONS if self.symmetric else ASYM_IMPLICATIONS
        status = {name: r.status for name, r in self.results.items()}
        return [f"{' & '.join(names)} passed but {law} failed at "
                f"{self.results[law].witness_str()}"
                for names, law in network if status.get(law) == "counterexample"
                and all(status.get(n) == "passed" for n in names)]

    def _verdict(self, prop: str) -> Verdict:
        """Whether the relation has a property ("consequence", "monotone",
        "contractive" or "tarskian", all three): HOLDS when every law it rests
        on passed, FAILS when one has a counterexample, UNKNOWN otherwise."""
        props = _PROPERTY_LAWS if prop == "tarskian" else (prop,)
        names = [n for p in props for n in _PROPERTY_LAWS[p][self.symmetric]]
        return all3(_STATUS_VERDICT[self.results[n].status] if n in self.results
                    else UNKNOWN for n in names)

    @property
    def is_consequence_relation(self) -> bool:
        return self._verdict("consequence") is HOLDS

    @property
    def is_monotone(self) -> bool:
        return self._verdict("monotone") is HOLDS

    @property
    def is_contractive(self) -> bool:
        return self._verdict("contractive") is HOLDS

    @property
    def is_tarskian(self) -> bool:
        return self._verdict("tarskian") is HOLDS

    def summary(self) -> str:
        kind = "SCR" if self.symmetric else "CR"
        return ", ".join(f"{label}: {_ANSWER[self._verdict(prop)]}" for label, prop in (
            (kind, "consequence"), ("monotone", "monotone"),
            ("contractive", "contractive"), ("tarskian", "tarskian")))


# The derived-law network: each entry says the conjunction of the premise
# laws forces the conclusion law.  ClassifyReport.consistency_errors checks a
# battery's results against it.
SYM_IMPLICATIONS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("Reflexivity", "Monotonicity"), "GeneralizedReflexivity"),
    (("GeneralizedReflexivity", "Transitivity"), "Monotonicity"),
    (("TheoremReflexivity", "Compatibility"), "GeneralizedReflexivity"),
    (("MultiCut",), "Transitivity"),
    (("MultiCut",), "TheoremRemoval"),
    (("MultiCut", "Reflexivity"), "Compatibility"),
    (("Transitivity", "Compatibility"), "MultiCut"),
    (("GeneralizedReflexivity",), "Reflexivity"),  # G+D |- G with D = []
    (("GeneralizedReflexivity",), "TheoremReflexivity"),  # G+D |- G with G = []
    # [] |- [] by Reflexivity, then Monotonicity adds P on the left
    (("Reflexivity", "Monotonicity"), "TheoremReflexivity"),
)

ASYM_IMPLICATIONS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("Reflexivity", "Monotonicity"), "GeneralizedReflexivity"),
    (("GeneralizedReflexivity",), "Reflexivity"),  # G+[P] |- P with G = []
    (("Reflexivity", "Cut", "GeneralizedReflexivity"), "Monotonicity"),
    (("Reflexivity", "Cut"), "RelevantCut"),
    (("Reflexivity", "Cut"), "TheoremRemoval"),
)


def classify(oracle, dom: SampleDomain) -> ClassifyReport:
    """Run the full battery; the report cross-checks the derived-law network."""
    return ClassifyReport(getattr(oracle, "name", "oracle"),
                          bool(getattr(oracle, "symmetric", False)), check_laws(oracle, dom))
