"""Finite-matrix evaluation and the integer-valued consequence relations.

The integer semantics evaluates formulas in Z with min for /\\, max for \\/,
addition for o, negation for ~, 0 and 1 for the constants (t, the fusion
unit, is 0), and the defined implication a -> b as b - a.  Three asymmetric
relations are provided:

  p    designated-value preservation: whenever all premises are >= 0, so is
       the conclusion;
  leq  the minimum of the premises is below the conclusion;
  z    the *sum* of the premise multiset is below the conclusion.

Formulas in the {o, ~, ->, constants} fragment are affine in their atoms,
and one walk, _affine, sums (formula, weight) pairs into atom coefficients
and a constant.  Each relation reads a side of a consecution through one
number or form (Meyer & Slaney, *Abelian Logic*, 1989), so the integer
oracles memoise each side's reading and decide a query by comparing the two
sides'.  For z (sum <= sum), and for zsym, which is z with a multiset on
the right and so the same class, a side reads as the affine form of its
sum, one walk over its distinct formulas weighted by their multiplicities;
the query holds iff the two sides' nonzero coefficients agree and the right
constant is at least the left one.  For p and leq a side reads as the least
value of its formulas, when all are closed and lattice-free, and the query
compares the conclusion's value with it.

Only the rest are compiled (_compile) into a program over the distinct
subformulas of their formulas, with integer arithmetic or a matrix's tables
as its operations, and run per valuation as one straight loop (_run); so are
all matrix queries.  Integer formulas containing /\\ or \\/ are evaluated
exactly when closed; open ones, and open p or leq queries, are only refuted
over a bounded integer grid, with UNKNOWN on exhaustion.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .multiset import FMultiset
from .oracles import (
    FAILS,
    HOLDS,
    UNKNOWN,
    ConsequenceOracle,
    SymmetricOracle,
    Verdict,
    memoised,
    verdict,
)
from .syntax import (
    _CONNECTIVES,
    _LEAVES,
    Atom,
    Conj,
    Const,
    Disj,
    Formula,
    Fusion,
    Imp,
    Neg,
    ParseError,
    Var,
    ONE,
    ZERO,
    _one_token,
    numeral_value,
    print_formula,
)


class EvalError(Exception):
    """A formula could not be evaluated (missing atom or missing table)."""


def _fail(message: str, *args):
    raise EvalError(message)


def _compile(formulas: list[Formula], valuation: Optional[dict], leaf: Callable,
             ops: dict) -> tuple[list[str], list, list[tuple[list[tuple], int]]]:
    """The sorted atom names, the constants, and per formula the steps that
    first compute its nodes, left to right, with the slot of its value.  An
    atom is read from ``valuation``, or with None from _run's values; another
    leaf, or a numeral, is the constant ``leaf(node)``, and one for which
    leaf raises EvalError a step that raises it when reached, as a missing
    table does, so errors come in evaluation order."""
    index: dict = {}  # each distinct node's number; its slot is fixed last
    number = itertools.count()
    consts, const_nos, atom_nos, step_nos, segments = [], [], {}, [], []
    for f in formulas:
        steps, todo, done = [], [f], []  # done: the numbers of the nodes finished
        while todo:
            node = todo.pop()
            t = type(node)
            if t is tuple:  # (node,), once its children are on done
                node = node[0]
                t, j = type(node), done.pop()
                steps.append((ops[t], j if t is Neg else done.pop(), j))
                step_nos.append(no := next(number))
                index[node] = no
            elif (no := index.get(node)) is None:
                if numeral_value(node) is None and t not in _LEAVES:  # a compound, not a numeral
                    todo += ((node,), node.body) if t is Neg else ((node,), node.right, node.left)
                    continue
                no = index[node] = next(number)
                if t is Atom and valuation is None:
                    atom_nos[node.name] = no
                else:
                    try:
                        if t is Atom and node.name not in valuation:
                            raise EvalError(f"no value for atom {node.name}")
                        consts.append(valuation[node.name] if t is Atom else leaf(node))
                        const_nos.append(no)
                    except EvalError as e:
                        consts.append(None)  # what the raising step reads
                        const_nos.append(arg := next(number))
                        steps.append((functools.partial(_fail, str(e)), arg, arg))
                        step_nos.append(no)
            done.append(no)
        segments.append((steps, done.pop()))
    # the fold's layout: the constants, the atoms by name, then the steps
    names = sorted(atom_nos)
    slot = dict(zip([*const_nos, *map(atom_nos.get, names), *step_nos], itertools.count()))
    return names, consts, [([(op, slot[i], slot[j]) for op, i, j in steps], slot[out])
                           for steps, out in segments]


def _run(consts: list, segments: list, values: tuple = ()) -> Iterator:
    """Each formula's value in turn, from registers that hold the constants,
    the atoms' ``values``, then op((regs[i], regs[j])) for each step
    (op, i, j) in order, where a unary step has i == j; a formula's steps run
    only once the value of the one before it has been taken."""
    regs = [*consts, *values]
    for steps, out in segments:
        for op, i, j in steps:
            regs.append(op((regs[i], regs[j])))
        yield regs[out]


def _affine(weighted: Iterable[tuple[Formula, int]]) -> Optional[tuple[dict[str, int], int]]:
    """The atom coefficients and constant of the sum of w * f over the
    (f, w) pairs, or None when a lattice connective or a metavariable
    occurs.  Coefficients may be zero."""
    coeffs: dict[str, int] = {}
    const = 0
    todo = list(weighted)
    while todo:
        f, w = todo.pop()
        n = f._num
        if n is not None:
            const += w * n
            continue
        t = type(f)
        if t is Atom:
            coeffs[f.name] = coeffs.get(f.name, 0) + w
        elif t is Neg:
            todo.append((f.body, -w))
        elif t is Fusion:
            todo += ((f.left, w), (f.right, w))
        elif t is Imp:
            todo += ((f.left, -w), (f.right, w))
        elif t is not Const:  # the constant t is 0; 0 and 1 are numerals
            return None
    return coeffs, const


def _refutation(names: list[str], carrier: Iterable,
                holds_at: Callable[[tuple], bool]) -> Optional[dict]:
    """The first valuation of ``names`` into ``carrier``, in product order,
    at which ``holds_at`` (given the values in ``names`` order) is false;
    None if it holds at every one."""
    for values in itertools.product(carrier, repeat=len(names)):
        if not holds_at(values):
            return dict(zip(names, values))
    return None


# -- the integer semantics ------------------------------------------------------

_INT_OPS = {Neg: lambda a: -a[0], Imp: lambda ab: ab[1] - ab[0], Fusion: sum,
            Conj: min, Disj: max}


def _int_leaf(node: Formula) -> int:
    if type(node) is Var:
        raise EvalError(f"cannot evaluate schema variable {node}")
    return numeral_value(node) or 0  # a numeral, or t, the fusion unit


def int_eval(f: Formula, valuation: dict[str, int]) -> int:
    _, consts, segments = _compile([f], valuation, _int_leaf, _INT_OPS)
    return next(_run(consts, segments))


def _decide(formulas: list[Formula], holds: Callable[[list[int]], bool],
            grid_bound: int) -> Verdict:
    """Whether ``holds`` is true of the formulas' values under every integer
    valuation: exact on a closed input (no atoms); an open one is only refuted
    on the grid -grid_bound..grid_bound, UNKNOWN when it finds nothing."""
    names, consts, segments = _compile(formulas, None, _int_leaf, _INT_OPS)
    if _refutation(names, range(-grid_bound, grid_bound + 1),
                   lambda values: holds(list(_run(consts, segments, values)))) is not None:
        return FAILS
    return UNKNOWN if names else HOLDS


class AbelianOracle(ConsequenceOracle):
    """The p / leq / z relations of the integer semantics.

    Each side is read once, into one number or form that the instance
    memoises (``_side``): z reads a side's sum as an affine form, p and leq
    the least value of its formulas when all are closed and lattice-free.  A
    verdict compares the two sides' (``_holds``).  A query with a side that
    cannot be so read is compiled and run on the grid (``_grid``, memoised
    per query).  A conclusion is a formula, or for zsym a multiset.

    ``theorem_basis``, when given, is a finite list of theorems that the law
    battery's TheoremRemoval instances draw from."""

    def __init__(self, kind: str, grid_bound: int = 8,
                 theorem_basis: Optional[list[Formula]] = None):
        if kind not in ("p", "leq", "z"):
            raise ValueError(f"unknown abelian relation kind {kind!r}")
        self.kind = kind
        self.grid_bound = grid_bound
        self.theorem_basis = theorem_basis
        self.name = kind
        self.monotone_contractive = kind in ("p", "leq")

    def entails(self, premises: FMultiset, conclusion: Formula | FMultiset) -> Verdict:
        left = self._side(premises)
        right = None if left is None else self._side(conclusion)
        if right is None:
            return self._grid(premises, conclusion)
        return verdict(self._holds(left, right))

    @memoised
    def _side(self, side: FMultiset | Formula):
        """z: the nonzero atom coefficients and the constant of the side's
        sum, a lone formula read as [side], from one walk over its distinct
        formulas weighted by their multiplicities.  p and leq: a formula's
        value when it is closed (no atom, even with coefficient 0) and
        lattice-free, and a multiset's least such value (inf when empty).
        None when a lattice connective or a metavariable occurs, or for p
        and leq an atom."""
        many = type(side) is FMultiset
        if self.kind == "z":
            form = _affine(side.items() if many else ((side, 1),))
            if form is not None and 0 in form[0].values():
                form = {a: k for a, k in form[0].items() if k}, form[1]
            return form
        if many:  # p and leq ignore multiplicities
            vals = [self._side(f) for f, _ in side.items()]
            return None if None in vals else min(vals, default=math.inf)
        form = _affine(((side, 1),))
        return None if form is None or form[0] else form[1]

    def image(self, side: FMultiset | Formula):
        """What a verdict reads of the side: z its reading with the form's
        coefficients as a frozenset, p whether its reading is negative, leq
        the reading itself; None when _side reads None."""
        reading = self._side(side)
        if reading is None:
            return None
        if self.kind == "z":
            return frozenset(reading[0].items()), reading[1]
        return reading < 0 if self.kind == "p" else reading

    @memoised
    def _grid(self, premises: FMultiset, conclusion: Formula | FMultiset) -> Verdict:
        """The query by _decide on the premises' values, then the
        conclusions', each side's values read as _side reads a side: z as
        ({}, their sum), p and leq as their least."""
        lhs = list(premises)
        rhs = list(conclusion) if type(conclusion) is FMultiset else [conclusion]
        n = len(lhs)
        read = ((lambda vals: ({}, sum(vals))) if self.kind == "z" else
                (lambda vals: min(vals, default=math.inf)))
        return _decide(lhs + rhs, lambda vals: self._holds(read(vals[:n]), read(vals[n:])),
                       self.grid_bound)

    def _holds(self, left, right) -> bool:
        """Whether the relation holds between two sides' readings.  z: sum
        <= sum everywhere, so the coefficients agree and the right constant
        is at least the left one.  p and leq: from the least premise value
        (inf when there are none) and the conclusion's value."""
        if self.kind == "z":
            return left[0] == right[0] and left[1] <= right[1]
        if self.kind == "p":
            return right >= 0 or left < 0
        return left <= right

    def entails_all_theorems(self, premises: FMultiset) -> Verdict:
        if self.kind == "z":
            # theorems are the zero-coefficient forms with constant >= 0,
            # so entailing the least of them, 0, entails them all
            return self.entails(premises, ZERO)
        # a theorem is >= 0 everywhere, so any premises p-entail it; leq has
        # no theorems, so there the quantifier is vacuous
        return HOLDS


class AbelianSymmetricOracle(AbelianOracle, SymmetricOracle):
    """zsym: z between multisets, the sum of the premises below the sum of
    the conclusions; empty sums are 0."""

    def __init__(self, grid_bound: int = 8):
        AbelianOracle.__init__(self, "z", grid_bound)
        self.name = "zsym"


class SingleAtomThresholdOracle(SymmetricOracle):
    """The one-atom relation: G |- D iff G = D or G(x) > D(x) >= 2."""

    name = "ex54"
    atom = Atom("x")

    def entails(self, premises: FMultiset, conclusions: FMultiset) -> Verdict:
        if premises == conclusions:
            return HOLDS
        if not (premises.support <= {self.atom} and conclusions.support <= {self.atom}):
            return FAILS
        return verdict(premises.count(self.atom) > conclusions.count(self.atom) >= 2)


class IdentityOracle(SymmetricOracle):
    """Holds exactly on equal multisets."""

    name = "identity"

    def entails(self, premises: FMultiset, conclusions: FMultiset) -> Verdict:
        return verdict(premises == conclusions)


# -- finite matrices --------------------------------------------------------------

# each connective's table: its symbol and the number of its arguments
_ARITY = {sym: len(cls.__match_args__) for cls, sym in _CONNECTIVES.items()}


@dataclass
class Matrix:
    """A finite algebra with designated values and per-connective tables."""

    name: str
    values: tuple[str, ...]
    designated: frozenset
    tables: dict[str, dict[tuple, str]] = field(default_factory=dict)
    _ops: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _one_token(self.name):
            raise ValueError(f"matrix name {self.name!r} must be one token without '#'")
        for v in self.values:
            if not _one_token(v) or "|" in v:
                raise ValueError(f"matrix value {v!r} must be one token without '#' or '|'")
        if not self.designated:
            raise ValueError("designated set must be nonempty")
        carrier = set(self.values)
        if len(carrier) != len(self.values):
            raise ValueError("values must be distinct")
        if not self.designated <= carrier:
            raise ValueError("designated values must lie in the carrier")
        for op, table in self.tables.items():
            if op not in _ARITY:
                raise ValueError(f"unknown connective {op!r}")
            # keyed by exactly the argument tuples over the carrier
            if table.keys() != set(itertools.product(self.values, repeat=_ARITY[op])):
                raise ValueError(f"table for {op} is not total")
            if not set(table.values()) <= carrier:
                raise ValueError(f"table for {op} leaves the carrier")
        # the program's ops: each connective's table lookup, a bound
        # __getitem__ so that a Matrix still pickles; a unary table is keyed
        # again by (x, x), the pair a unary step reads
        self._ops = {t: (self.tables[op] if _ARITY[op] == 2 else
                         {(x, x): v for (x,), v in self.tables[op].items()}).__getitem__
                     if op in self.tables else
                     functools.partial(_fail, f"matrix {self.name} has no table for {op}")
                     for t, op in _CONNECTIVES.items()}


def _matrix_leaf(node: Formula) -> str:
    # a numeral other than 0 is built on the constant 1
    bad = node if isinstance(node, (Const, Var)) else ONE
    raise EvalError(f"matrix has no interpretation for {print_formula(bad)}")


def matrix_eval(matrix: Matrix, valuation: dict[str, str], f: Formula) -> str:
    """Homomorphic evaluation of ``f`` under an atom valuation."""
    for name, value in valuation.items():
        if value not in matrix.values:
            raise EvalError(f"value {value} of atom {name} is not in matrix {matrix.name}")
    _, consts, segments = _compile([f], valuation, _matrix_leaf, matrix._ops)
    return next(_run(consts, segments))


def countermodel_search(matrix: Matrix, f: Formula) -> Optional[dict[str, str]]:
    """The lexicographically least refuting valuation, or None if f is valid.

    Exhausts all |carrier|^|atoms| valuations, atoms in sorted order and
    values in carrier display order.
    """
    names, consts, segments = _compile([f], None, _matrix_leaf, matrix._ops)
    designated = matrix.designated
    return _refutation(names, matrix.values,
                       lambda values: next(_run(consts, segments, values)) in designated)


class MatrixOracle(ConsequenceOracle):
    """Designated-value preservation in a finite matrix (exhaustive, exact)."""

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.name = f"matrix:{matrix.name}"

    def entails(self, premises: FMultiset, conclusion: Formula) -> Verdict:
        m, designated = self.matrix, self.matrix.designated
        names, consts, segments = _compile([*premises.distinct(), conclusion], None,
                                           _matrix_leaf, m._ops)

        def holds_at(values: tuple) -> bool:
            # each premise, in canonical order, is evaluated only where those
            # before it are designated, and the conclusion, last, only where
            # all of them are
            for k, value in enumerate(_run(consts, segments, values), 1):
                if value not in designated:
                    return k < len(segments)  # a premise is not designated
            return True
        return verdict(_refutation(names, m.values, holds_at) is None)


# -- matrix files ------------------------------------------------------------------


def parse_matrix(text: str) -> Matrix:
    name = None
    values: tuple[str, ...] = ()
    designated: frozenset = frozenset()
    tables: dict[str, dict[tuple, str]] = {}
    seen: set[str] = set()  # the header lines read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head in ("matrix", "values", "designated"):
                if head in seen:
                    raise ParseError(f"repeated {head!r} line")
                seen.add(head)
            if head == "matrix":
                if len(rest.split()) != 1:
                    raise ParseError("expected: matrix NAME")
                name = rest
            elif head == "values":
                values = tuple(rest.split())
            elif head == "designated":
                designated = frozenset(rest.split())
            elif head == "table":
                op, _, body = rest.partition(":")
                op = op.strip()
                if op not in _ARITY:
                    raise ParseError(f"unknown connective {op!r}")
                if op in tables:
                    raise ParseError(f"repeated table for {op}")
                if not values:
                    raise ParseError("'values' line must precede tables")
                # row-major; a binary table has one row per left argument
                rows = [r.split() for r in body.split("|")]
                entries = [x for row in rows for x in row]
                n, arity = len(values), _ARITY[op]
                if len(entries) != n ** arity or (arity > 1 and any(len(r) != n for r in rows)):
                    raise ParseError(
                        f"table for {op} needs {'x'.join([str(n)] * arity)} entries")
                tables[op] = dict(zip(itertools.product(values, repeat=arity), entries))
            else:
                raise ParseError(f"unknown directive {head!r}")
        except ParseError as e:
            raise ParseError(str(e), line=lineno) from None
    if name is None:
        raise ParseError("missing 'matrix NAME' line")
    return Matrix(name, values, designated, tables)


def load_matrix(path) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def print_matrix(matrix: Matrix) -> str:
    lines = [f"matrix {matrix.name}",
             "values " + " ".join(matrix.values),
             "designated " + " ".join(sorted(matrix.designated, key=matrix.values.index))]
    n = len(matrix.values)
    for op, table in matrix.tables.items():
        cells = [table[args] for args in itertools.product(matrix.values, repeat=_ARITY[op])]
        rows = " | ".join(" ".join(cells[i:i + n]) for i in range(0, len(cells), n))
        lines.append(f"table {op} : {rows}")
    return "\n".join(lines) + "\n"


def parse_valuation(text: str) -> dict[str, str]:
    """Parse 'a=2,b=0' into a matrix valuation (values stay textual)."""
    out: dict[str, str] = {}
    text = text.strip()
    if not text:
        return out
    for part in text.split(","):
        name, _, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if not name or not value:
            raise ParseError(f"bad valuation entry {part!r}")
        if name in out:
            raise ParseError(f"atom {name} is valued twice")
        out[name] = value
    return out
