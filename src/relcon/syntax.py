"""Formulas, schemata, parsing/printing, and axiomatic-system files.

Grammar (ASCII), parsed by one explicit-stack operator-precedence loop
(shunting-yard) over the table _CONNECTIVES, so input of any depth parses:

    formula  :=  '~' formula | formula BINOP formula | primary
    primary  :=  '(' formula ')' | INT | 't' | IDENT | QUOTED

Precedence: ~  >  o  >  /\\  >  \\/  >  ->, parentheses always accepted;
-> is right-associative, o, /\\ and \\/ are left-associative.
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
import string
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
# Every value a node caches except its printed form is fixed when the node is
# built, from the values already stored in its children: the node count, the
# numeral value, whether the node is ground (free of metavariables) and the
# hash, the dataclass value (hash of the field tuple).  So a numeral
# thousands deep builds and hashes without recursion.  The printed form is
# made on first use (see _fill).  Leaves are one node each, no numeral unless
# a constant says so, ground unless a metavariable, and print as their name.
#
# Compound equality (_equal) recurses on a formula of at most 256 nodes and
# is otherwise one loop over a work list of node pairs, so equal formulas
# nested past the recursion limit still compare; identical pairs are never
# compared further, and the hash tells most unequal pairs apart at once.
# Formulas are not interned: each interning table tried so far cost
# proof-search throughput, because every renamed-apart search variable is a
# table miss (ROADMAP item 8).  Numerals are the exception: numeral() builds
# each tower on the previous one, so equal numerals are one object and
# compare by identity.

_set = object.__setattr__


class _Node:
    __slots__ = ()

    # A node never changes, so a copy is the node itself.  Pickling and repr
    # walk a formula without recursion: it may lie past the recursion limit.

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # the nodes children first, a leaf as (class, name) and a compound as
        # its class; _from_rows rebuilds through the constructors (frozen
        # slots refuse setattr)
        return _from_rows, ([(type(n), n.name) if type(n) in _LEAVES else type(n)
                             for n in reversed(list(_walk_nodes(self)))],)


def _from_rows(rows: list) -> "Formula":
    stack: list = []
    for row in rows:
        if type(row) is tuple:
            stack.append(row[0](row[1]))
        else:
            children = [stack.pop()] if row is Neg else [stack.pop(-2), stack.pop()]
            stack.append(row(*children))
    return stack[0]


def _cached_hash(self) -> int:
    return self._hash


def _init_leaf(self, name: str) -> None:
    _set(self, "name", name)
    _set(self, "_hash", hash((name,)))


def _name(self) -> str:
    return self.name


class _Leaf(_Node):
    __slots__ = ("name", "_hash")
    _size = 1
    _num = None
    _ground = True
    # printed from the start, so _fill never descends into a leaf
    _str = property(_name)


@dataclass(frozen=True)
class Atom(_Leaf):
    __slots__ = ()
    name: str

    __init__ = _init_leaf
    __hash__ = _cached_hash
    __str__ = _name


@dataclass(frozen=True)
class Var(_Leaf):
    """A metavariable; occurs only in schemata."""

    __slots__ = ()
    _ground = False
    name: str

    __init__ = _init_leaf
    __hash__ = _cached_hash
    __str__ = _name


_CONST_VALUES = {"0": 0, "1": 1}


@dataclass(frozen=True)
class Const(_Leaf):
    __slots__ = ()
    name: str  # one of "0", "1", "t"

    __init__ = _init_leaf
    __hash__ = _cached_hash
    __str__ = _name

    @property
    def _num(self) -> Optional[int]:
        return _CONST_VALUES.get(self.name)


def _children(f: "Formula") -> tuple:
    """A compound node's fields, which are its children."""
    return (f.body,) if type(f) is Neg else (f.left, f.right)


def _fill(f: "Formula", value, make):
    """Call make(node) on f and on every node under it whose text value(node)
    is None, children first and without recursion (numerals can be deep), so
    that each node's text is made from its children's; then value(f)."""
    stack = [f]
    while stack:
        node = stack[-1]
        if value(node) is None:
            # a numeral prints as its value, without its children
            todo = () if node._num is not None else [
                c for c in _children(node) if value(c) is None]
            if todo:
                stack.extend(todo)
                continue
            make(node)
        stack.pop()
    return value(f)


def _cached_str(self) -> str:
    return self._str or _fill(self, lambda n: n._str,
                              lambda n: _set(n, "_str", _compose(n, str)))


def _equal(self, other) -> bool:
    """Structural equality: recursive on a formula of at most 256 nodes,
    otherwise one node pair at a time from a work list, where a pair of
    identical nodes is never pushed."""
    if self is other:
        return True
    if not isinstance(other, _Node):
        return NotImplemented
    if self._size <= 256:
        # two hashes that differ settle it without a walk
        return self._hash == other._hash and _same(self, other)
    pairs = [(self, other)]
    while pairs:
        a, b = pairs.pop()
        t = type(a)
        if t is not type(b) or a._hash != b._hash:
            return False
        if isinstance(a, _Leaf):
            if a.name != b.name:
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


def _same(a, b) -> bool:
    # _equal below its size threshold: a recursion no deeper than a's nodes
    if a is b:
        return True
    t = type(a)
    if t is not type(b):
        return False
    if t in _LEAVES:
        return a.name == b.name
    if t is Neg:
        return _same(a.body, b.body)
    return _same(a.left, b.left) and _same(a.right, b.right)


def _init_binary(self, left: "Formula", right: "Formula") -> None:
    _set(self, "left", left)
    _set(self, "right", right)
    _set(self, "_size", left._size + right._size + 1)
    _set(self, "_ground", left._ground and right._ground)
    _set(self, "_str", None)
    _set(self, "_hash", hash((left, right)))


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
        _set(self, "_hash", hash((body,)))

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
_LEAVES = frozenset((Atom, Var, Const))


def _repr(self) -> str:
    """The dataclass repr, from a work list of nodes and text."""
    out, stack = [], [self]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        out.append(type(item).__qualname__ + "(")
        stack.append(")")
        for i, name in reversed(list(enumerate(item.__match_args__))):
            value = getattr(item, name)
            stack += [repr(value) if type(value) is str else value, ", " * (i > 0) + name + "="]
    return "".join(out)


# the dataclass decorator gave each class a recursive repr of its own
for _cls in (Atom, Var, Const, Neg, Imp, Fusion, Conj, Disj):
    _cls.__repr__ = _repr

# each connective's symbol, loosest first: the printer, the parser and the
# matrix files read the connectives from here, and a connective's precedence
# is its position (-> 1 ... ~ 5)
_CONNECTIVES = {Imp: "->", Disj: "\\/", Conj: "/\\", Fusion: "o", Neg: "~"}
_PREC = {cls: level for level, cls in enumerate(_CONNECTIVES, 1)}

ZERO = Const("0")
ONE = Const("1")
TRUTH = Const("t")

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

def _paren(f: Formula, prec: int, text) -> str:
    s = text(f)
    # leaves and numerals are primary, never parenthesised
    return f"({s})" if f._num is None and prec > _PREC.get(type(f), prec) else s


def _compose(f: Formula, text) -> str:
    """A compound node's printed form, from its children's as given by text."""
    n = f._num
    if n is not None:
        return str(n)
    t = type(f)
    my = _PREC[t]
    if t is Neg:
        return _CONNECTIVES[Neg] + _paren(f.body, my, text)
    # the grammar is right-associative, but nested implications print with
    # explicit parentheses for readability; the others are left-associative
    left = _paren(f.left, my + 1 if t is Imp else my, text)
    return f"{left} {_CONNECTIVES[t]} {_paren(f.right, my + 1, text)}"


def print_formula(f: Formula) -> str:
    return str(f)


def print_schema(f: Formula) -> str:
    """Like print_formula, but concrete atoms are quoted (system-file form)."""
    texts: dict[int, str] = {}  # by node id: f keeps every node alive

    def text(node: Formula) -> Optional[str]:
        if isinstance(node, _Leaf):
            return f"'{node.name}'" if type(node) is Atom else node.name
        return texts.get(id(node))

    return _fill(f, text, lambda n: texts.__setitem__(id(n), _compose(n, text)))


def print_multiset(m: FMultiset, schema: bool = False) -> str:
    return "[" + ", ".join(map(print_schema if schema else str, m)) + "]"


# -- parsing -----------------------------------------------------------------
#
# One loop reads a formula from a flat token list by operator precedence
# (Dijkstra's shunting-yard): operands wait on one stack, and connectives and
# open parentheses on another, and a pending connective is applied as soon as
# the next token shows that nothing binds its right operand more tightly.
# Nothing recurses, so input of any depth parses, and each node is built when
# a recursive-descent parser would build it.  Valid text is split by one
# findall, without positions; an error scans the text again for its position.

# a connective ("o" only as a whole word), punctuation, an integer, a quoted
# atom or an identifier; _SCAN also takes any other character alone, and no
# parse accepts that token
_TOKEN = ("|".join(re.escape(sym) + ("(?![A-Za-z0-9_])" if sym.isalpha() else "")
                   for sym in _CONNECTIVES.values())
          + r"|[()\[\],:]|\|-|-?\d+|'[A-Za-z_][A-Za-z0-9_]*'|[A-Za-z_][A-Za-z0-9_]*")
_SCAN = re.compile(r"\s*(" + _TOKEN + r"|\S)")
_TOKEN_AT = re.compile(r"\s*(" + _TOKEN + ")")
_WORD_START = frozenset(string.ascii_letters + "_")

# a binary connective's class, and the least precedence of a pending
# connective that its arrival applies (-> is right-associative, the others
# left-associative); any other token after an operand applies every pending
# connective back to the innermost open parenthesis, None on the stack,
# whose level is below them all
_INFIX = {sym: (cls, _PREC[cls] + (cls is Imp))
          for cls, sym in _CONNECTIVES.items() if cls is not Neg}
_NOT_INFIX = (None, 1)
_LEVEL = {None: 0, **_PREC}

# Parsing does not recurse; the JSON proof and derivation files do, in
# treeproof, and report nesting past their limit with this message.
_TOO_DEEP = "input nested too deeply"


def _tokens(text: str) -> list[str]:
    """The tokens of text, then "" for the end of input (no token is empty)."""
    toks = _SCAN.findall(text)
    toks.append("")
    return toks


def _error(text: str, i: int, message: str) -> ParseError:
    """The error at the i-th token of text, or at its end; but a character
    that starts no token is the error, wherever it stands."""
    starts = []
    pos = 0
    while (m := _TOKEN_AT.match(text, pos)) is not None:
        starts.append(m.start(1))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        return ParseError(f"unexpected character {rest[0]!r}", pos=pos)
    return ParseError(message, pos=starts[i] if i < len(starts) else len(text))


def _formula(toks: list[str], i: int, text: str, ident) -> tuple[Formula, int]:
    """The formula that starts at toks[i] and the index of the token after it;
    ident(name) is an identifier's leaf."""
    out: list = []  # operands
    ops: list = [None]  # pending connectives over the formula's own start
    while True:
        # an operand: its prefixes, then a leaf
        tok = toks[i]
        while tok == "(" or tok == "~":
            ops.append(None if tok == "(" else Neg)
            i += 1
            tok = toks[i]
        if tok[:1] in _WORD_START:
            if tok == "o":
                raise _error(text, i, f"{tok!r} is the fusion operator, not an atom")
            out.append(TRUTH if tok == "t" else ident(tok))
        elif tok[-1:].isdecimal():
            k = int(tok)
            if abs(k) > MAX_NUMERAL:
                raise _error(text, i, f"numeral {k} out of supported range "
                                      f"(|n| <= {MAX_NUMERAL})")
            out.append(numeral(k))
        elif tok[:1] == "'" and len(tok) > 1:
            out.append(Atom(tok[1:-1]))
        else:
            raise _error(text, i, f"unexpected token {tok!r}" if tok
                         else "unexpected end of input")
        i += 1
        # then closing parentheses, up to a binary connective or the end
        while True:
            tok = toks[i]
            cls, level = _INFIX.get(tok, _NOT_INFIX)
            while _LEVEL[ops[-1]] >= level:
                t = ops.pop()
                if t is Neg:
                    out[-1] = Neg(out[-1])
                else:
                    right = out.pop()
                    out[-1] = t(out[-1], right)
            if cls is not None:
                ops.append(cls)
                i += 1
                break
            if len(ops) == 1:
                return out[0], i
            if tok != ")":
                raise _error(text, i, f"expected rpar, found {tok or 'end of input'!r}")
            ops.pop()
            i += 1


def _end(toks: list[str], i: int, text: str) -> None:
    if toks[i]:
        raise _error(text, i, f"unexpected trailing token {toks[i]!r}")


def parse_formula(text: str, schema: bool = False) -> Formula:
    toks = _tokens(text)
    f, i = _formula(toks, 0, text, Var if schema else Atom)
    _end(toks, i, text)
    return f


def parse_multiset(text: str, schema: bool = False) -> FMultiset:
    """Parse ``[f1, f2, ...]`` (brackets optional) into an FMultiset."""
    toks = _tokens(text)
    ident = Var if schema else Atom
    bracketed = toks[0] == "["
    i = int(bracketed)
    items = []
    if toks[i] and not (bracketed and toks[i] == "]"):
        f, i = _formula(toks, i, text, ident)
        items.append(f)
        while toks[i] == ",":
            f, i = _formula(toks, i + 1, text, ident)
            items.append(f)
    if bracketed:
        if toks[i] != "]":
            raise _error(text, i, f"expected rbrack, found {toks[i] or 'end of input'!r}")
        i += 1
    _end(toks, i, text)
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
    return out if _match(schema, formula, out) else None


# The recursions of match, match_into and unify are module-level functions:
# a nested closure that calls itself leaves a reference cycle per call.


def _match(s: Formula, f: Formula, out: dict[str, Formula]) -> bool:
    """Extend ``out`` so that it matches s onto f; whether that succeeded."""
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
        return _match(s.body, f.body, out)
    return _match(s.left, f.left, out) and _match(s.right, f.right, out)


def match_multiset(schemas: FMultiset, formulas: FMultiset,
                   subst: Optional[dict[str, Formula]] = None) -> Iterator[dict[str, Formula]]:
    """All substitutions matching a schema multiset onto a formula multiset exactly."""
    if schemas.size == formulas.size:
        for sigma, _ in match_into(schemas, formulas, subst):
            yield sigma


def match_into(schemas: FMultiset, pool: FMultiset,
               subst: Optional[dict[str, Formula]] = None
               ) -> Iterator[tuple[dict[str, Formula], FMultiset]]:
    """All (subst, consumed) with consumed <= pool and substitute(schemas) = consumed.

    The schemas are matched in canonical order, each onto the pool's
    distinct elements in canonical order, by backtracking over one list of
    the pool's counts: a count drops while its element is consumed and comes
    back on backtracking, and an element whose count is spent is skipped.
    So the matches come in the order that matching each schema against the
    pool minus what is consumed so far would give, and ``consumed`` is built
    only per match.  No schemas match once, consuming nothing, and the pool
    is not sorted for them.
    """
    if not schemas:
        yield dict(subst) if subst else {}, EMPTY
        return
    order, counts = pool.distinct(), pool.counts()
    for sigma, picks in _match_rest(list(schemas), order, [counts[f] for f in order],
                                    [], dict(subst) if subst else {}):
        yield sigma, FMultiset([order[k] for k in picks])


def _match_rest(slist: list, order: list, left: list[int], picks: list[int], sigma: dict):
    """Each match of the schemas from ``len(picks)`` on onto ``order``, with
    ``left`` the counts not yet consumed: a new substitution, and ``picks``,
    read before the next, where ``picks[i]`` is the index schema i consumed."""
    if len(picks) == len(slist):
        yield dict(sigma), picks
        return
    schema = slist[len(picks)]
    # a metavariable bound so far matches only its value, and a schema that
    # is not a metavariable only a formula of its own type
    t = type(schema)
    bound = sigma.get(schema.name) if t is Var else None
    for k, f in enumerate(order):
        if not left[k] or (f != bound if bound is not None else t is not Var and type(f) is not t):
            continue
        if (s2 := match(schema, f, sigma)) is not None:
            left[k] -= 1
            picks.append(k)
            yield from _match_rest(slist, order, left, picks, s2)
            picks.pop()
            left[k] += 1


def substitute_partial(schema: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Like substitute, but unbound metavariables are left in place."""
    return _map_vars(schema, lambda v: subst.get(v.name, v))


def _resolve(f: Formula, theta: dict) -> Formula:
    """The formula under the bindings ``theta``, followed to the end."""
    if not theta:
        return f
    return _map_vars(f, lambda v: _resolve(theta[v.name], theta) if v.name in theta else v)


def unify(a: Formula, b: Formula) -> Optional[dict[str, Formula]]:
    """Most general unifier of two schemata (shared metavariable namespace)."""
    subst: dict[str, Formula] = {}
    if not _unify(a, b, subst):
        return None
    return {name: _resolve(subst[name], subst) for name in subst}


def _occurs(name: str, f: Formula, subst: dict[str, Formula]) -> bool:
    """Whether the variable ``name`` occurs in f under ``subst``.  Like
    _unify, it follows a bound variable's binding chain to its end in place."""
    while isinstance(f, Var) and f.name in subst:
        f = subst[f.name]
    if f._ground:
        return False
    if isinstance(f, Var):
        return f.name == name
    if isinstance(f, Neg):
        return _occurs(name, f.body, subst)
    return _occurs(name, f.left, subst) or _occurs(name, f.right, subst)


def _unify(x: Formula, y: Formula, subst: dict[str, Formula]) -> bool:
    """Extend ``subst`` so that it unifies x and y; whether that succeeded."""
    while isinstance(x, Var) and x.name in subst:
        x = subst[x.name]
    while isinstance(y, Var) and y.name in subst:
        y = subst[y.name]
    if x._ground and y._ground:
        return x == y
    if isinstance(x, Var):
        if isinstance(y, Var) and y.name == x.name:
            return True
        if _occurs(x.name, y, subst):
            return False
        subst[x.name] = y
        return True
    if isinstance(y, Var):
        return _unify(y, x, subst)
    if type(x) is not type(y):
        return False
    if isinstance(x, Neg):
        return _unify(x.body, y.body, subst)
    return _unify(x.left, y.left, subst) and _unify(x.right, y.right, subst)


def _rule_step(left: FMultiset, right: Formula | FMultiset,
               before: FMultiset | tuple, after: FMultiset | Formula,
               stored: Optional[Mapping[str, Formula]] = None) -> Optional[dict]:
    """A substitution under which the rule ``left |- right`` turns ``before``
    into ``after`` in context, if any: after = (before - consumed) + produced.

    A stored substitution is checked as given, its left side's instances
    taken off the labels one by one.  Otherwise the first match of the left
    side, in ``match_into``'s order, that the right side agrees with is
    returned.  When the right side and ``after`` are one formula each, the
    step has no context; a proof node is such a step, and may give its
    children's labels as a tuple and its own label alone.  Then the
    conclusion is matched first, which fixes most metavariables at once, and
    the left side onto the labels in their order, with no multiset built and
    no sort unless the left side matches twice, when ``match_multiset`` picks.
    """
    if not isinstance(right, FMultiset) and isinstance(after, FMultiset) and after.size == 1:
        (after,) = after
    alone = not isinstance(after, FMultiset)
    labels = list(before) if isinstance(before, tuple) else _unsorted(before)
    schemas = _unsorted(left)
    if stored is not None:
        try:
            for s in schemas:
                labels.remove(substitute(s, stored))  # ValueError if absent
            labels += [substitute(s, stored) for s in
                       (_unsorted(right) if isinstance(right, FMultiset) else [right])]
        except (MissingBindingError, ValueError):
            return None
        same = labels == [after] if alone else FMultiset(labels) == after
        return dict(stored) if same else None
    if alone:
        sigma: dict[str, Formula] = {}
        if len(labels) != len(schemas) or not _match(right, after, sigma):
            return None
        matches = _match_rest(schemas, labels, [1] * len(labels), [], sigma)
        first = next(matches, (None,))[0]
        if first is None or next(matches, None) is None:
            return first
        return next(match_multiset(left, FMultiset(labels), sigma))
    right_ms = right if isinstance(right, FMultiset) else FMultiset([right])
    for sigma, consumed in match_into(left, before):
        rest = before - consumed
        if rest <= after:
            # a match is exact: it produces after - rest, so rest + produced = after
            sigma2 = next(match_multiset(right_ms, after - rest, sigma), None)
            if sigma2 is not None:
                return sigma2
    return None


def _unsorted(m: FMultiset) -> list:
    """The elements with repetition, in no canonical order: none is printed."""
    return [x for x, n in m.items() for _ in range(n)]


_FROZEN = "\x00"  # prefixes the atom that _freeze makes of a metavariable


def _renaming(sigma: Optional[dict]) -> bool:
    """Whether ``sigma``, a match of schemata a onto schemata b with b's
    metavariables frozen (see _freeze), shows a and b to differ only by a
    renaming.

    One match decides it.  If they are variants, every such match is a
    renaming: a and b have as many metavariable occurrences, so each one in a
    must go to a single frozen leaf, and to a distinct one per metavariable.
    """
    if sigma is None:
        return False
    images = set(sigma.values())
    return len(images) == len(sigma) and all(
        type(f) is Atom and f.name.startswith(_FROZEN) for f in images)


def alpha_variant(a: Formula, b: Formula) -> bool:
    """Whether two schemata differ only by a renaming of metavariables."""
    return _renaming(match(a, _freeze(b)))


def _freeze(schema: Formula) -> Formula:
    # metavariables become atoms with reserved names, for variant checks
    return _map_vars(schema, lambda v: Atom(_FROZEN + v.name))


# -- consecutions and axiomatic systems ---------------------------------------


@dataclass(frozen=True)
class Consecution:
    """Premises and a conclusion: a formula, or in a symmetric system a multiset."""

    left: FMultiset
    right: Formula | FMultiset


@dataclass(frozen=True)
class NamedRule:
    """A named consecution schema, of the kind its system states."""

    name: str
    consecution: Consecution

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
    return list(rule.left) + list(_lift(rule).right)


def _one_token(text: str) -> bool:
    """Whether ``text`` reads back as one field of a system or matrix file."""
    return text.split() == [text] and "#" not in text


class AxiomaticSystem:
    """A named set of consecution schemata; axioms have empty left side, and
    a rule's right side is a multiset exactly when the system is symmetric."""

    def __init__(self, name: str, rules: list[NamedRule], symmetric: bool = False):
        if not _one_token(name):
            raise ValueError(f"system name {name!r} must be one token without '#'")
        self.name = name
        self.rules = tuple(rules)
        self.symmetric = symmetric
        self._by_name: dict[str, NamedRule] = {}
        for r in rules:
            if r.name.strip().splitlines() != [r.name] or set(r.name) & {":", "#"}:
                raise ValueError(f"rule name {r.name!r} must be one nonempty line, "
                                 "unpadded, without ':' or '#'")
            if r.name in self._by_name:
                raise ValueError(f"duplicate rule name {r.name!r} in system {name}")
            if isinstance(r.right, FMultiset) != symmetric:
                kind = "symmetric" if symmetric else "single-conclusion"
                raise ValueError(f"rule {r.name!r} does not fit {kind} system {name}")
            self._by_name[r.name] = r
        self._check_name_discipline()

    def _check_name_discipline(self) -> None:
        schemata = [f for r in self.rules for f in _rule_schemata(r)]
        clash = set().union(*map(metavars, schemata)) & set().union(*map(atoms, schemata))
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

    def is_axiom_instance(self, f: Formula) -> bool:
        """Whether ``f`` instantiates an axiom schema (symmetric axioms,
        multisets, are no single-formula instances)."""
        return not self.symmetric and any(
            r.is_axiom and match(r.right, f) is not None for r in self.rules)

    def lifted(self) -> "AxiomaticSystem":
        """The symmetric view: each rule Γ |- φ becomes Γ |- [φ] (see _lift)."""
        if self.symmetric:
            return self
        return AxiomaticSystem(self.name, list(map(_lift, self.rules)), symmetric=True)


def _lift(rule: NamedRule) -> NamedRule:
    """Γ |- φ as Γ |- [φ], same name; a symmetric rule comes back unchanged."""
    if isinstance(rule.right, FMultiset):
        return rule
    return NamedRule(rule.name, Consecution(rule.left, FMultiset([rule.right])))


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
                if name is not None:
                    raise ParseError("repeated 'system' line")
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
    """A rule from its line's body; the right side is a multiset if ``symmetric``."""
    side = parse_multiset if symmetric else parse_formula
    if kind == "axiom":
        return NamedRule(rule_name, Consecution(EMPTY, side(body, schema=True)))
    lhs, sep, rhs = body.partition("|-")
    if not sep:
        raise ParseError("rule line needs '|-'")
    left = parse_multiset(lhs.strip(), schema=True)
    if left.is_empty():
        raise ParseError("a rule needs at least one premise; use 'axiom' instead")
    return NamedRule(rule_name, Consecution(left, side(rhs.strip(), schema=True)))


def load_system(path) -> AxiomaticSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def print_system(system: AxiomaticSystem) -> str:
    """The text parse_system reads back; right sides are multisets if symmetric."""
    header = f"system {system.name} symmetric" if system.symmetric else f"system {system.name}"
    lines = [header]
    width = max((len(r.name) for r in system.rules), default=0)
    for r in system.rules:
        label = "axiom" if r.is_axiom else "rule "
        body = print_multiset(r.right, schema=True) if system.symmetric else print_schema(r.right)
        if not r.is_axiom:
            body = ", ".join(print_schema(f) for f in r.left) + " |- " + body
        lines.append(f"{label} {r.name:<{width}} : {body}")
    return "\n".join(lines) + "\n"
