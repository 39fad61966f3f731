"""Finite-matrix evaluation and the integer-valued consequence relations.

The integer semantics evaluates formulas in Z with min for /\\, max for \\/,
addition for o, negation for ~, 0 and 1 for the constants (t, the fusion
unit, is 0), and the defined implication a -> b as b - a.  Three asymmetric
relations are provided:

  p    designated-value preservation: whenever all premises are >= 0, so is
       the conclusion;
  leq  the minimum of the premises is below the conclusion;
  z    the *sum* of the premise multiset is below the conclusion.

One evaluator, _evaluate, folds a formula children first and without
recursion under a table of operations: integer arithmetic, or a matrix's
tables.  Sums of formulas in the {o, ~, ->, constants} fragment are affine in
their atoms, and one signed walk, _affine, sums a whole consecution (premises
negated) into atom coefficients and a constant.  So the z-relation (and its
symmetric companion, sum <= sum) is decided exactly on that fragment: it
holds iff every coefficient is zero and the constant is nonnegative.
Formulas containing /\\ or \\/ are evaluated exactly when closed; open ones
are only refuted over a bounded integer grid, with UNKNOWN on exhaustion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

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
    atoms,
    numeral_value,
    print_formula,
)


class EvalError(Exception):
    """A formula could not be evaluated (missing atom or missing table)."""


def _evaluate(f: Formula, leaf: Callable, ops: dict) -> object:
    """f folded children first, without recursion: ``leaf(node)`` at a leaf
    or a numeral, ``ops[type(node)]`` on the tuple of the children's values
    above them."""
    values, todo = [], [f]
    while todo:
        node = todo.pop()
        t = type(node)
        if t is tuple:  # (op, arity), once the children are valued
            op, arity = node
            if arity == 1:
                values[-1] = op((values[-1],))
            else:
                right = values.pop()
                values[-1] = op((values[-1], right))
        elif t in (Atom, Const, Var) or numeral_value(node) is not None:
            values.append(leaf(node))
        elif t is Neg:
            todo += ((ops[Neg], 1), node.body)
        else:
            todo += ((ops[t], 2), node.right, node.left)
    return values[0]


def _affine(signed: Iterable[tuple[Formula, int]]) -> Optional[tuple[dict[str, int], int]]:
    """The atom coefficients and constant of the sum of sign * f over the
    (f, sign) pairs, or None when a lattice connective or a metavariable
    occurs.  Coefficients may be zero."""
    coeffs: dict[str, int] = {}
    const = 0
    todo = list(signed)
    while todo:
        f, sign = todo.pop()
        t, n = type(f), numeral_value(f)
        if n is not None:
            const += sign * n
        elif t is Atom:
            coeffs[f.name] = coeffs.get(f.name, 0) + sign
        elif t is Neg:
            todo.append((f.body, -sign))
        elif t is Fusion:
            todo += ((f.left, sign), (f.right, sign))
        elif t is Imp:
            todo += ((f.left, -sign), (f.right, sign))
        elif t is not Const:  # the constant t is 0; 0 and 1 are numerals
            return None
    return coeffs, const


def _refutation(names: list[str], carrier: Iterable,
                holds_at: Callable[[dict], bool]) -> Optional[dict]:
    """The first valuation of ``names`` into ``carrier``, in product order,
    at which ``holds_at`` is false; None if it holds at every one."""
    for values in itertools.product(carrier, repeat=len(names)):
        if not holds_at(v := dict(zip(names, values))):
            return v
    return None


def _atoms_of(formulas: Iterable[Formula]) -> list[str]:
    return sorted(set().union(*map(atoms, formulas)))


# -- the integer semantics ------------------------------------------------------

_INT_OPS = {Neg: lambda a: -a[0], Imp: lambda ab: ab[1] - ab[0], Fusion: sum,
            Conj: min, Disj: max}


def int_eval(f: Formula, valuation: dict[str, int]) -> int:
    def leaf(node: Formula) -> int:
        if type(node) is Atom:
            if node.name not in valuation:
                raise EvalError(f"no value for atom {node.name}")
            return valuation[node.name]
        if type(node) is Var:
            raise EvalError(f"cannot evaluate schema variable {node}")
        return numeral_value(node) or 0  # a numeral, or t, the fusion unit

    return _evaluate(f, leaf, _INT_OPS)


@dataclass(frozen=True)
class LinearForm:
    """An affine function of atom values: sum of coeff*atom plus a constant."""

    coeffs: tuple[tuple[str, int], ...]
    const: int

    def coeff_map(self) -> dict[str, int]:
        return dict(self.coeffs)


def linear_form(f: Formula) -> Optional[LinearForm]:
    """The affine normal form of a lattice-free formula, else None."""
    form = _affine([(f, 1)])
    if form is None:
        return None
    return LinearForm(tuple(sorted((a, c) for a, c in form[0].items() if c)), form[1])


def _decide(names: list[str], holds_at: Callable[[dict], bool], grid_bound: int) -> Verdict:
    """Exact on a closed input (no atoms); an open one is only refuted on the
    grid -grid_bound..grid_bound, UNKNOWN when the grid finds nothing."""
    if _refutation(names, range(-grid_bound, grid_bound + 1), holds_at) is not None:
        return FAILS
    return UNKNOWN if names else HOLDS


def _sum_leq(left: list[Formula], right: list[Formula], grid_bound: int) -> Verdict:
    """Whether sum(left) <= sum(right) under every integer valuation."""
    form = _affine([(f, -1) for f in left] + [(f, 1) for f in right])
    if form is not None:
        coeffs, const = form
        return verdict(const >= 0 and not any(coeffs.values()))
    return _decide(_atoms_of(left + right),
                   lambda v: (sum(int_eval(f, v) for f in left)
                              <= sum(int_eval(f, v) for f in right)),
                   grid_bound)


class AbelianOracle(ConsequenceOracle):
    """The p / leq / z relations of the integer semantics.

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

    @memoised
    def entails(self, premises: FMultiset, conclusion: Formula) -> Verdict:
        fs = list(premises)
        if self.kind == "z":
            return _sum_leq(fs, [conclusion], self.grid_bound)
        return _decide(_atoms_of(fs + [conclusion]),
                       lambda v: self._holds_at(fs, conclusion, v), self.grid_bound)

    def _holds_at(self, fs: list[Formula], conclusion: Formula,
                  v: dict[str, int]) -> bool:
        vals = [int_eval(f, v) for f in fs]
        c = int_eval(conclusion, v)
        if self.kind == "p":
            return c >= 0 if all(x >= 0 for x in vals) else True
        # leq; the empty minimum never sits below anything
        return bool(vals) and min(vals) <= c

    def entails_all_theorems(self, premises: FMultiset) -> Verdict:
        if self.kind == "z":
            # theorems are the zero-coefficient forms with constant >= 0,
            # so entailing the least of them, 0, entails them all
            return self.entails(premises, ZERO)
        # a theorem is >= 0 everywhere, so any premises p-entail it; leq has
        # no theorems, so there the quantifier is vacuous
        return HOLDS


class AbelianSymmetricOracle(SymmetricOracle):
    """Sum of premises below sum of conclusions; empty sums are 0."""

    name = "zsym"

    def __init__(self, grid_bound: int = 8):
        self.grid_bound = grid_bound

    @memoised
    def entails(self, premises: FMultiset, conclusions: FMultiset) -> Verdict:
        return _sum_leq(list(premises), list(conclusions), self.grid_bound)


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
        # what _evaluate folds with: each connective's table lookup
        self._ops = {t: (self.tables[op].__getitem__ if op in self.tables
                         else functools.partial(_no_table, self.name, op))
                     for t, op in _CONNECTIVES.items()}


def _no_table(name: str, op: str, args: tuple):
    raise EvalError(f"matrix {name} has no table for {op}")


def matrix_eval(matrix: Matrix, valuation: dict[str, str], f: Formula) -> str:
    """Homomorphic evaluation of ``f`` under an atom valuation."""
    for name, value in valuation.items():
        if value not in matrix.values:
            raise EvalError(f"value {value} of atom {name} is not in matrix {matrix.name}")
    return _value(matrix, valuation, f)


def _value(matrix: Matrix, valuation: dict[str, str], f: Formula) -> str:
    # matrix_eval on a valuation into the carrier, as the exhaustive
    # searches below draw them
    def leaf(node: Formula) -> str:
        if type(node) is Atom:
            if node.name not in valuation:
                raise EvalError(f"no value for atom {node.name}")
            return valuation[node.name]
        # a numeral other than 0 is built on the constant 1
        bad = node if isinstance(node, (Const, Var)) else ONE
        raise EvalError(f"matrix has no interpretation for {print_formula(bad)}")

    return _evaluate(f, leaf, matrix._ops)


def countermodel_search(matrix: Matrix, f: Formula) -> Optional[dict[str, str]]:
    """The lexicographically least refuting valuation, or None if f is valid.

    Exhausts all |carrier|^|atoms| valuations, atoms in sorted order and
    values in carrier display order.
    """
    return _refutation(sorted(atoms(f)), matrix.values,
                       lambda v: _value(matrix, v, f) in matrix.designated)


class MatrixOracle(ConsequenceOracle):
    """Designated-value preservation in a finite matrix (exhaustive, exact)."""

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.name = f"matrix:{matrix.name}"

    def entails(self, premises: FMultiset, conclusion: Formula) -> Verdict:
        m, support = self.matrix, premises.support
        # the conclusion is evaluated only where every premise is designated
        return verdict(_refutation(
            _atoms_of([conclusion, *support]), m.values,
            lambda v: (not all(_value(m, v, f) in m.designated for f in support)
                       or _value(m, v, conclusion) in m.designated)) is None)


# -- matrix files ------------------------------------------------------------------


def parse_matrix(text: str) -> Matrix:
    name = None
    values: tuple[str, ...] = ()
    designated: frozenset = frozenset()
    tables: dict[str, dict[tuple, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "matrix":
                name = rest.split()[0]
            elif head == "values":
                values = tuple(rest.split())
            elif head == "designated":
                designated = frozenset(rest.split())
            elif head == "table":
                op, _, body = rest.partition(":")
                op = op.strip()
                if op not in _ARITY:
                    raise ParseError(f"unknown connective {op!r}")
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


def parse_int_valuation(text: str) -> dict[str, int]:
    """Parse 'a=2,b=0' into an integer valuation."""
    return {name: int(value) for name, value in parse_valuation(text).items()}


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
        out[name] = value
    return out
