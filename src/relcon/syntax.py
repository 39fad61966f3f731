"""Formulas, schemata, parsing/printing, and axiomatic-system files.

Grammar (ASCII):

    formula  :=  disj [ '->' formula ]          right-associative
    disj     :=  conj { '\\/' conj }             left-associative
    conj     :=  fus  { '/\\' fus }              left-associative
    fus      :=  neg  { 'o' neg }                left-associative
    neg      :=  '~' neg | primary
    primary  :=  '(' formula ')' | INT | 't' | IDENT | QUOTED

Precedence: ~  >  o  >  /\\  >  \\/  >  ->, parentheses always accepted.
Integer literals are numerals: 0 and 1 are the primitive constants, n+1
expands to (n o 1) and -n to ~n, so the core only ever sees primitive
connectives.  ``t`` is the fusion-unit constant.  ``o`` and ``t`` are
reserved words.

In *query* formulas every identifier is a concrete atom.  In *system files*
every bare identifier is a metavariable; a quoted identifier ``'x'`` is a
concrete atom (needed for systems whose axioms are specific formulas).

System files are line-oriented, ``#`` starts a comment:

    system BCI
    axiom I  : p -> p
    rule  mp : p -> q, p |- q

A symmetric system says ``system NAME symmetric``; its axiom lines carry a
multiset (``axiom a1 : p, q``) and its rules have multisets on both sides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from .multiset import EMPTY, FMultiset


class ParseError(Exception):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None, line: int | None = None):
        place = ""
        if line is not None:
            place = f" (line {line})"
        elif pos is not None:
            place = f" (at position {pos})"
        super().__init__(message + place)
        self.pos = pos
        self.line = line


class MissingBindingError(Exception):
    """A substitution did not cover every metavariable of the schema."""


# -- abstract syntax ---------------------------------------------------------
#
# Compound nodes cache what search and printing ask of them again and again:
# the node count, the numeral value and whether the node is ground (free of
# metavariables), filled at construction from the children's (so a numeral
# thousands deep builds without recursion); and the hash, the dataclass value
# (hash of the field tuple), and the printed form, each on first use (see
# _fill; a small formula hashes its children recursively).  Leaves are one
# node each, no numeral unless a constant says so, ground unless a
# metavariable, hash as their dataclass value and print as their name.
#
# Compound equality (_equal) is one loop over a work list of node pairs, so
# equal formulas nested past the recursion limit still compare; identical
# pairs are never pushed, and a cached hash tells most unequal pairs apart at
# once.  Formulas are not interned: the search builds fresh schema nodes at
# every rule use, so a table would mostly miss.  Numerals are the exception:
# numeral() builds each tower on the previous one, so equal numerals are one
# object and compare by identity.

_set = object.__setattr__


class _Node:
    __slots__ = ()

    def __reduce__(self):
        # rebuild through the constructor: frozen slots refuse setattr
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class _Leaf(_Node):
    __slots__ = ()
    _size = 1
    _num = None
    _ground = True
    # filled from the start, so _fill never descends into a leaf
    _hash = property(hash)
    _str = property(lambda self: self.name)


@dataclass(frozen=True)
class Atom(_Leaf):
    __slots__ = ("name",)
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var(_Leaf):
    """A metavariable; occurs only in schemata."""

    __slots__ = ("name",)
    _ground = False
    name: str

    def __str__(self) -> str:
        return self.name


_CONST_VALUES = {"0": 0, "1": 1}


@dataclass(frozen=True)
class Const(_Leaf):
    __slots__ = ("name",)
    name: str  # one of "0", "1", "t"

    @property
    def _num(self) -> Optional[int]:
        return _CONST_VALUES.get(self.name)

    def __str__(self) -> str:
        return self.name


def _children(f: "Formula") -> tuple:
    """A compound node's fields, which are its children."""
    return (f.body,) if type(f) is Neg else (f.left, f.right)


def _fill(f: "Formula", slot: str):
    """Fill ``slot`` ("_hash" or "_str") on f and on every node under it that
    lacks it, children first and without recursion (numerals can be deep), so
    that each node's value is made from its children's."""
    printing = slot == "_str"
    stack = [f]
    while stack:
        node = stack[-1]
        if getattr(node, slot) is None:
            # a numeral prints as its value, without its children
            todo = () if printing and node._num is not None else [
                c for c in _children(node) if getattr(c, slot) is None]
            if todo:
                stack.extend(todo)
                continue
            _set(node, slot, _compose(node, str) if printing else hash(_children(node)))
        stack.pop()
    return getattr(f, slot)


def _cached_hash(self) -> int:
    h = self._hash
    if h is None:
        # recursing into unhashed children is cheaper, but only safe when small
        if self._size > 256:
            return _fill(self, "_hash")
        h = hash(_children(self))
        _set(self, "_hash", h)
    return h


def _cached_str(self) -> str:
    return self._str or _fill(self, "_str")


def _equal(self, other) -> bool:
    """Structural equality, one node pair at a time from a work list; a
    pair of identical nodes is never pushed."""
    if self is other:
        return True
    if not isinstance(other, _Node):
        return NotImplemented
    pairs = [(self, other)]
    while pairs:
        a, b = pairs.pop()
        t = type(a)
        if t is not type(b):
            return False
        if isinstance(a, _Leaf):
            if a.name != b.name:
                return False
        # the hash slot read directly; hash() only fills an empty one
        elif (a._hash or hash(a)) != (b._hash or hash(b)):
            return False
        elif t is Neg:
            if a.body is not b.body:
                pairs.append((a.body, b.body))
        else:
            if a.right is not b.right:
                pairs.append((a.right, b.right))
            if a.left is not b.left:
                pairs.append((a.left, b.left))
    return True


def _init_binary(self, left: "Formula", right: "Formula") -> None:
    _set(self, "left", left)
    _set(self, "right", right)
    _set(self, "_size", left._size + right._size + 1)
    _set(self, "_ground", left._ground and right._ground)
    _set(self, "_str", None)
    _set(self, "_hash", None)


_CACHE_SLOTS = ("_size", "_ground", "_str", "_hash")


@dataclass(frozen=True, eq=False)
class Neg(_Node):
    __slots__ = ("body", "_num") + _CACHE_SLOTS
    body: "Formula"

    def __init__(self, body: "Formula"):
        _set(self, "body", body)
        _set(self, "_size", body._size + 1)
        _set(self, "_ground", body._ground)
        n = body._num
        _set(self, "_num", -n if n is not None and n > 0 else None)
        _set(self, "_str", None)
        _set(self, "_hash", None)

    __eq__ = _equal
    __hash__ = _cached_hash
    __str__ = _cached_str


@dataclass(frozen=True, eq=False)
class Imp(_Node):
    __slots__ = ("left", "right") + _CACHE_SLOTS
    _num = None  # never a numeral
    left: "Formula"
    right: "Formula"

    __init__ = _init_binary
    __eq__ = _equal
    __hash__ = _cached_hash
    __str__ = _cached_str


@dataclass(frozen=True, eq=False)
class Fusion(_Node):
    __slots__ = ("left", "right", "_num") + _CACHE_SLOTS
    left: "Formula"
    right: "Formula"

    def __init__(self, left: "Formula", right: "Formula"):
        _init_binary(self, left, right)
        n = left._num  # (n o 1) is n + 1; only ONE has the value 1
        _set(self, "_num", n + 1 if n is not None and n > 0 and right._num == 1 else None)

    __eq__ = _equal
    __hash__ = _cached_hash
    __str__ = _cached_str


@dataclass(frozen=True, eq=False)
class Conj(_Node):
    __slots__ = ("left", "right") + _CACHE_SLOTS
    _num = None  # never a numeral
    left: "Formula"
    right: "Formula"

    __init__ = _init_binary
    __eq__ = _equal
    __hash__ = _cached_hash
    __str__ = _cached_str


@dataclass(frozen=True, eq=False)
class Disj(_Node):
    __slots__ = ("left", "right") + _CACHE_SLOTS
    _num = None  # never a numeral
    left: "Formula"
    right: "Formula"

    __init__ = _init_binary
    __eq__ = _equal
    __hash__ = _cached_hash
    __str__ = _cached_str


Formula = Union[Atom, Var, Const, Neg, Imp, Fusion, Conj, Disj]

# a schema is a formula whose leaves may be metavariables
Schema = Formula

ZERO = Const("0")
ONE = Const("1")
TRUTH = Const("t")

RESERVED = {"o", "t"}

# numerals expand to fusion towers, so structural operations on them scale
# with the magnitude; parsing caps the literal range to keep that safe
MAX_NUMERAL = 200


# _NUMERALS[k] is the numeral k; each tower is built on the one before
_NUMERALS: list[Formula] = [ZERO, ONE]


def numeral(n: int) -> Formula:
    """The defined numeral for an integer: 0, 1, n+1 = n o 1, -n = ~n."""
    k = abs(n)
    while len(_NUMERALS) <= k:
        _NUMERALS.append(Fusion(_NUMERALS[-1], ONE))
    return Neg(_NUMERALS[k]) if n < 0 else _NUMERALS[k]


def numeral_value(f: Formula) -> Optional[int]:
    """Inverse of numeral() on exactly the canonical expansions."""
    return f._num


def _walk_nodes(f: Formula) -> Iterator[Formula]:
    """All nodes of the formula tree, iteratively (numerals can be deep)."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _Leaf):
            stack.extend(_children(node))


def formula_size(f: Formula) -> int:
    """Node count of the formula tree."""
    return f._size


def _larger_first(formulas, text=str) -> list[Formula]:
    """Sorted by (-formula_size(f), text(f)), printing only to break a size tie."""
    out = sorted(formulas, key=formula_size, reverse=True)
    if any(a._size == b._size for a, b in zip(out, out[1:])):
        out.sort(key=lambda f: (-f._size, text(f)))
    return out


def subformulas(f: Formula) -> set:
    return set(_walk_nodes(f))


def atoms(f: Formula) -> set[str]:
    return {node.name for node in _walk_nodes(f) if isinstance(node, Atom)}


def metavars(f: Formula) -> set[str]:
    return {node.name for node in _walk_nodes(f) if isinstance(node, Var)}


# -- printing ----------------------------------------------------------------

# precedence levels: -> 1, \/ 2, /\ 3, o 4, ~ 5, primary 6
_PREC = {Imp: 1, Disj: 2, Conj: 3, Fusion: 4, Neg: 5}
_OPS = {Imp: "->", Disj: "\\/", Conj: "/\\", Fusion: "o"}


def _level(f: Formula) -> int:
    """The precedence of f's printed form; numerals and leaves are primary."""
    return 6 if f._num is not None else _PREC.get(type(f), 6)


def _paren(f: Formula, prec: int, text) -> str:
    s = text(f)
    return f"({s})" if prec > _level(f) else s


def _compose(f: Formula, text) -> str:
    """A compound node's printed form, from its children's as given by text."""
    n = f._num
    if n is not None:
        return str(n)
    if type(f) is Neg:
        return "~" + _paren(f.body, 5, text)
    my = _PREC[type(f)]
    # the grammar is right-associative, but nested implications print with
    # explicit parentheses for readability; the others are left-associative
    left = _paren(f.left, my + 1 if type(f) is Imp else my, text)
    return f"{left} {_OPS[type(f)]} {_paren(f.right, my + 1, text)}"


def print_formula(f: Formula) -> str:
    return str(f)


def print_schema(f: Formula) -> str:
    """Like print_formula, but concrete atoms are quoted (system-file form)."""
    if isinstance(f, Atom):
        return f"'{f.name}'"
    if isinstance(f, _Leaf):
        return f.name
    return _compose(f, print_schema)


def print_multiset(m: FMultiset, schema: bool = False) -> str:
    return "[" + ", ".join(map(print_schema if schema else str, m)) + "]"


# -- tokenizer / parser ------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lpar>\() | (?P<rpar>\)) |
        (?P<lbrack>\[) | (?P<rbrack>\]) |
        (?P<comma>,) | (?P<colon>:) |
        (?P<turnstile>\|-) |
        (?P<arrow>->) |
        (?P<conj>/\\) | (?P<disj>\\/) |
        (?P<neg>~) |
        (?P<int>-?\d+) |
        (?P<quoted>'[A-Za-z_][A-Za-z0-9_]*') |
        (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos=pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, schema: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.schema = schema

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", pos=len(self.text))
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            got = tok[1] if tok else "end of input"
            pos = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {kind}, found {got!r}", pos=pos)
        return self.next()

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == kind

    # formula := disj ['->' formula]
    def formula(self) -> Formula:
        left = self.disj()
        if self.at("arrow"):
            self.next()
            return Imp(left, self.formula())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.at("disj"):
            self.next()
            f = Disj(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.fus()
        while self.at("conj"):
            self.next()
            f = Conj(f, self.fus())
        return f

    def fus(self) -> Formula:
        f = self.neg()
        while self.at("ident") and self.peek()[1] == "o":
            self.next()
            f = Fusion(f, self.neg())
        return f

    def neg(self) -> Formula:
        if self.at("neg"):
            self.next()
            return Neg(self.neg())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", pos=len(self.text))
        kind, value, pos = tok
        if kind == "lpar":
            self.next()
            f = self.formula()
            self.expect("rpar")
            return f
        if kind == "int":
            self.next()
            k = int(value)
            if abs(k) > MAX_NUMERAL:
                raise ParseError(
                    f"numeral {k} out of supported range (|n| <= {MAX_NUMERAL})",
                    pos=pos)
            return numeral(k)
        if kind == "quoted":
            self.next()
            return Atom(value[1:-1])
        if kind == "ident":
            if value == "o":
                raise ParseError("'o' is the fusion operator, not an atom", pos=pos)
            self.next()
            if value == "t":
                return TRUTH
            return Var(value) if self.schema else Atom(value)
        raise ParseError(f"unexpected token {value!r}", pos=pos)

    def formula_list(self) -> list[Formula]:
        if self.peek() is None:
            return []
        out = [self.formula()]
        while self.at("comma"):
            self.next()
            out.append(self.formula())
        return out

    def end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing token {tok[1]!r}", pos=tok[2])


# The parser recurses once per nesting level; input nested past the
# interpreter's recursion limit is reported as a ParseError.
_TOO_DEEP = "input nested too deeply"


def parse_formula(text: str, schema: bool = False) -> Formula:
    p = _Parser(text, schema)
    try:
        f = p.formula()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
    p.end()
    return f


def parse_multiset(text: str, schema: bool = False) -> FMultiset:
    """Parse ``[f1, f2, ...]`` (brackets optional) into an FMultiset."""
    p = _Parser(text, schema)
    try:
        if p.at("lbrack"):
            p.next()
            if p.at("rbrack"):
                p.next()
                p.end()
                return EMPTY
            items = p.formula_list()
            p.expect("rbrack")
        else:
            items = p.formula_list()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
    p.end()
    return FMultiset(items)


# -- substitution and matching ------------------------------------------------


def _map_vars(schema: Formula, leaf) -> Formula:
    """The schema with each metavariable v replaced by leaf(v), left to right;
    a subtree in which leaf replaced nothing comes back as the same object."""
    if schema._ground:
        return schema
    t = type(schema)
    if t is Var:
        return leaf(schema)
    if t is Neg:
        body = _map_vars(schema.body, leaf)
        return schema if body is schema.body else Neg(body)
    left = _map_vars(schema.left, leaf)
    right = _map_vars(schema.right, leaf)
    return schema if left is schema.left and right is schema.right else t(left, right)


def substitute(schema: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Homomorphically replace metavariables; total on covered schemata."""
    def bound(v: Var) -> Formula:
        if v.name not in subst:
            raise MissingBindingError(f"no binding for metavariable {v.name}")
        return subst[v.name]

    return _map_vars(schema, bound)


def match(schema: Formula, formula: Formula,
          subst: Optional[dict[str, Formula]] = None) -> Optional[dict[str, Formula]]:
    """One-sided matching: the unique subst with substitute(schema)=formula, or None."""
    out = dict(subst) if subst else {}

    def go(s: Formula, f: Formula) -> bool:
        if isinstance(s, Var):
            if s.name in out:
                return out[s.name] == f
            out[s.name] = f
            return True
        if s._ground:
            return s == f
        if type(s) is not type(f):
            return False
        if isinstance(s, Neg):
            return go(s.body, f.body)
        return go(s.left, f.left) and go(s.right, f.right)

    return out if go(schema, formula) else None


def match_multiset(schemas: FMultiset, formulas: FMultiset,
                   subst: Optional[dict[str, Formula]] = None) -> Iterator[dict[str, Formula]]:
    """All substitutions matching a schema multiset onto a formula multiset exactly."""
    if schemas.size == formulas.size:
        for sigma, _ in match_into(schemas, formulas, subst):
            yield sigma


def match_into(schemas: FMultiset, pool: FMultiset,
               subst: Optional[dict[str, Formula]] = None
               ) -> Iterator[tuple[dict[str, Formula], FMultiset]]:
    """All (subst, consumed) with consumed <= pool and substitute(schemas) = consumed."""
    base = dict(subst) if subst else {}
    slist = list(schemas)

    def go(i: int, remaining: FMultiset, sigma: dict, used: list) -> Iterator:
        if i == len(slist):
            yield dict(sigma), FMultiset(used)
            return
        for f in remaining.distinct():
            s2 = match(slist[i], f, sigma)
            if s2 is not None:
                used.append(f)
                yield from go(i + 1, remaining - FMultiset([f]), s2, used)
                used.pop()

    yield from go(0, pool, base, [])


def substitute_partial(schema: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Like substitute, but unbound metavariables are left in place."""
    return _map_vars(schema, lambda v: subst.get(v.name, v))


def unify(a: Formula, b: Formula) -> Optional[dict[str, Formula]]:
    """Most general unifier of two schemata (shared metavariable namespace)."""
    subst: dict[str, Formula] = {}

    def walk(f: Formula) -> Formula:
        while isinstance(f, Var) and f.name in subst:
            f = subst[f.name]
        return f

    def occurs(name: str, f: Formula) -> bool:
        f = walk(f)
        if f._ground:
            return False
        if isinstance(f, Var):
            return f.name == name
        if isinstance(f, Neg):
            return occurs(name, f.body)
        return occurs(name, f.left) or occurs(name, f.right)

    def go(x: Formula, y: Formula) -> bool:
        x, y = walk(x), walk(y)
        if x._ground and y._ground:
            return x == y
        if isinstance(x, Var):
            if isinstance(y, Var) and y.name == x.name:
                return True
            if occurs(x.name, y):
                return False
            subst[x.name] = y
            return True
        if isinstance(y, Var):
            return go(y, x)
        if type(x) is not type(y):
            return False
        if isinstance(x, Neg):
            return go(x.body, y.body)
        return go(x.left, y.left) and go(x.right, y.right)

    if not go(a, b):
        return None

    def resolve(f: Formula) -> Formula:
        return _map_vars(f, lambda v: resolve(subst[v.name]) if v.name in subst else v)

    return {name: resolve(subst[name]) for name in subst}


_FROZEN = "\x00"  # prefixes the atom that _freeze makes of a metavariable


def alpha_variant(a: Formula | FMultiset, b: Formula | FMultiset) -> bool:
    """Whether two schemata, or two schema multisets, differ only by a
    renaming of metavariables.

    One match of a onto b with b's metavariables frozen decides it.  If they
    are variants, every such match is a renaming: a and b have as many
    metavariable occurrences, so each one in a must go to a single frozen
    leaf, and to a distinct one per metavariable.
    """
    if isinstance(a, FMultiset):
        if a.size != b.size:
            return False
        sigma = next(match_multiset(a, FMultiset(_freeze(f) for f in b)), None)
    else:
        sigma = match(a, _freeze(b))
    if sigma is None:
        return False
    images = set(sigma.values())
    return len(images) == len(sigma) and all(
        type(f) is Atom and f.name.startswith(_FROZEN) for f in images)


def _freeze(schema: Formula) -> Formula:
    # metavariables become atoms with reserved names, for variant checks
    return _map_vars(schema, lambda v: Atom(_FROZEN + v.name))


# -- consecutions and axiomatic systems ---------------------------------------


@dataclass(frozen=True)
class Consecution:
    """A premise multiset and a single conclusion (single-conclusion form)."""

    left: FMultiset
    right: Formula

    def __str__(self) -> str:
        return f"{print_multiset(self.left, schema=True)} |- {print_schema(self.right)}"


@dataclass(frozen=True)
class SymConsecution:
    """A premise multiset and a conclusion multiset (symmetric form)."""

    left: FMultiset
    right: FMultiset

    def __str__(self) -> str:
        return (f"{print_multiset(self.left, schema=True)} |- "
                f"{print_multiset(self.right, schema=True)}")


@dataclass(frozen=True)
class NamedRule:
    name: str
    consecution: Consecution | SymConsecution

    @property
    def left(self) -> FMultiset:
        return self.consecution.left

    @property
    def right(self):
        return self.consecution.right

    @property
    def is_axiom(self) -> bool:
        return self.consecution.left.is_empty()


def _rule_schemata(rule: NamedRule) -> list[Formula]:
    """A rule's schemata: its premises, then its conclusion or conclusions."""
    rhs = rule.right
    return list(rule.left) + (list(rhs) if isinstance(rhs, FMultiset) else [rhs])


class AxiomaticSystem:
    """A named set of consecution schemata; axioms have empty left side."""

    def __init__(self, name: str, rules: list[NamedRule], symmetric: bool = False):
        self.name = name
        self.rules = tuple(rules)
        self.symmetric = symmetric
        seen = set()
        for r in rules:
            if r.name in seen:
                raise ValueError(f"duplicate rule name {r.name!r} in system {name}")
            seen.add(r.name)
        self._by_name = {r.name: r for r in rules}
        self._check_name_discipline()

    def _check_name_discipline(self) -> None:
        nodes = [n for r in self.rules for f in _rule_schemata(r) for n in _walk_nodes(f)]
        clash = ({n.name for n in nodes if isinstance(n, Var)}
                 & {n.name for n in nodes if isinstance(n, Atom)})
        if clash:
            raise ValueError(
                f"system {self.name}: names used both as metavariable and atom: "
                + ", ".join(sorted(clash))
            )

    def __repr__(self) -> str:
        kind = "symmetric" if self.symmetric else "single-conclusion"
        return f"AxiomaticSystem({self.name!r}, {len(self.rules)} rules, {kind})"

    def get(self, name: str) -> NamedRule:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"system {self.name} has no rule named {name!r}") from None

    @property
    def axioms(self) -> list[NamedRule]:
        return [r for r in self.rules if r.is_axiom]

    @property
    def inference_rules(self) -> list[NamedRule]:
        return [r for r in self.rules if not r.is_axiom]

    def axiom_instance(self, f: Formula) -> Optional[tuple[str, dict[str, Formula]]]:
        """The first axiom schema (with its substitution) that ``f`` instantiates."""
        for ax in self.axioms:
            rhs = ax.right
            if isinstance(rhs, FMultiset):
                continue  # symmetric axioms are not single-formula instances
            sigma = match(rhs, f)
            if sigma is not None:
                return ax.name, sigma
        return None

    def is_axiom_instance(self, f: Formula) -> bool:
        return self.axiom_instance(f) is not None

    def lifted(self) -> "AxiomaticSystem":
        """The symmetric view: each rule Γ |- φ becomes Γ |- [φ]."""
        if self.symmetric:
            return self
        lifted_rules = [
            NamedRule(r.name, SymConsecution(r.left, FMultiset([r.right])))
            for r in self.rules
        ]
        return AxiomaticSystem(self.name, lifted_rules, symmetric=True)


# -- system files --------------------------------------------------------------


def parse_system(text: str) -> AxiomaticSystem:
    name = None
    symmetric = False
    rules: list[NamedRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, rest = line.partition(" ")
            if head == "system":
                fields = rest.split()
                if not fields or len(fields) > 2:
                    raise ParseError("expected: system NAME [symmetric]")
                name = fields[0]
                if len(fields) == 2:
                    if fields[1] != "symmetric":
                        raise ParseError(f"unknown system modifier {fields[1]!r}")
                    symmetric = True
            elif head in ("axiom", "rule"):
                if name is None:
                    raise ParseError("missing 'system NAME' header line")
                rule_name, sep, body = rest.partition(":")
                if not sep:
                    raise ParseError(f"expected ':' in {head} line")
                rule_name = rule_name.strip()
                if not rule_name:
                    raise ParseError(f"{head} line is missing a name")
                rules.append(_parse_rule_body(head, rule_name, body.strip(), symmetric))
            else:
                raise ParseError(f"unknown directive {head!r}")
        except ParseError as e:
            raise ParseError(str(e), line=lineno) from None
    if name is None:
        raise ParseError("missing 'system NAME' header line")
    return AxiomaticSystem(name, rules, symmetric=symmetric)


def _parse_rule_body(kind: str, rule_name: str, body: str, symmetric: bool) -> NamedRule:
    if kind == "axiom":
        if symmetric:
            right = parse_multiset(body, schema=True)
            return NamedRule(rule_name, SymConsecution(EMPTY, right))
        f = parse_formula(body, schema=True)
        return NamedRule(rule_name, Consecution(EMPTY, f))
    lhs, sep, rhs = body.partition("|-")
    if not sep:
        raise ParseError("rule line needs '|-'")
    left = parse_multiset(lhs.strip(), schema=True)
    if left.is_empty():
        raise ParseError("a rule needs at least one premise; use 'axiom' instead")
    if symmetric:
        return NamedRule(rule_name, SymConsecution(left, parse_multiset(rhs.strip(), schema=True)))
    return NamedRule(rule_name, Consecution(left, parse_formula(rhs.strip(), schema=True)))


def load_system(path) -> AxiomaticSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def print_system(system: AxiomaticSystem) -> str:
    header = f"system {system.name} symmetric" if system.symmetric else f"system {system.name}"
    lines = [header]
    width = max((len(r.name) for r in system.rules), default=0)
    for r in system.rules:
        label = "axiom" if r.is_axiom else "rule "
        rhs = r.right
        body = (print_multiset(rhs, schema=True)
                if isinstance(rhs, FMultiset) else print_schema(rhs))
        if not r.is_axiom:
            body = ", ".join(print_schema(f) for f in r.left) + " |- " + body
        lines.append(f"{label} {r.name:<{width}} : {body}")
    return "\n".join(lines) + "\n"
