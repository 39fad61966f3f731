"""Finite-matrix evaluation and the integer-valued consequence relations.

The integer semantics evaluates formulas in Z with min for /\\, max for \\/,
addition for o, negation for ~, 0 and 1 for the constants (t, the fusion
unit, is 0), and the defined implication a -> b as b - a.  Three asymmetric
relations are provided:

  p    designated-value preservation: whenever all premises are >= 0, so is
       the conclusion;
  leq  the minimum of the premises is below the conclusion;
  z    the *sum* of the premise multiset is below the conclusion.

Sums of formulas in the {o, ~, ->, constants} fragment are affine in their
atoms, so the z-relation (and its symmetric companion, sum <= sum) is decided
exactly on that fragment: it holds iff both sides have identical atom
coefficients and the premise constant is below the conclusion constant.
Formulas containing /\\ or \\/ are evaluated exactly when closed; open ones
are only refuted over a bounded integer grid, with UNKNOWN on exhaustion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

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
    ZERO,
    numeral_value,
    print_formula,
)


class EvalError(Exception):
    """A formula could not be evaluated (missing atom or missing table)."""


# -- the integer semantics ------------------------------------------------------


def int_eval(f: Formula, valuation: dict[str, int]) -> int:
    n = numeral_value(f)
    if n is not None:
        return n
    if isinstance(f, Atom):
        if f.name not in valuation:
            raise EvalError(f"no value for atom {f.name}")
        return valuation[f.name]
    if isinstance(f, Const):
        return {"0": 0, "1": 1, "t": 0}[f.name]
    if isinstance(f, Neg):
        return -int_eval(f.body, valuation)
    if isinstance(f, Imp):
        return int_eval(f.right, valuation) - int_eval(f.left, valuation)
    if isinstance(f, Fusion):
        return int_eval(f.left, valuation) + int_eval(f.right, valuation)
    if isinstance(f, Conj):
        return min(int_eval(f.left, valuation), int_eval(f.right, valuation))
    if isinstance(f, Disj):
        return max(int_eval(f.left, valuation), int_eval(f.right, valuation))
    raise EvalError(f"cannot evaluate schema variable {f}")


@dataclass(frozen=True)
class LinearForm:
    """An affine function of atom values: sum of coeff*atom plus a constant."""

    coeffs: tuple[tuple[str, int], ...]
    const: int

    @classmethod
    def make(cls, coeffs: dict[str, int], const: int) -> "LinearForm":
        clean = tuple(sorted((a, c) for a, c in coeffs.items() if c != 0))
        return cls(clean, const)

    def coeff_map(self) -> dict[str, int]:
        return dict(self.coeffs)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        coeffs = self.coeff_map()
        for a, c in other.coeffs:
            coeffs[a] = coeffs.get(a, 0) + c
        return LinearForm.make(coeffs, self.const + other.const)

    def __neg__(self) -> "LinearForm":
        return LinearForm.make({a: -c for a, c in self.coeffs}, -self.const)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)


LF_ZERO = LinearForm((), 0)


def linear_form(f: Formula) -> Optional[LinearForm]:
    """The affine normal form of a lattice-free formula, else None."""
    n = numeral_value(f)
    if n is not None:
        return LinearForm((), n)
    if isinstance(f, Atom):
        return LinearForm.make({f.name: 1}, 0)
    if isinstance(f, Const):
        return LinearForm((), {"0": 0, "1": 1, "t": 0}[f.name])
    if isinstance(f, Neg):
        lf = linear_form(f.body)
        return None if lf is None else -lf
    if isinstance(f, Imp):
        l, r = linear_form(f.left), linear_form(f.right)
        return None if l is None or r is None else r - l
    if isinstance(f, Fusion):
        l, r = linear_form(f.left), linear_form(f.right)
        return None if l is None or r is None else l + r
    return None  # Conj/Disj (and schema variables) have no affine form


def _atoms_of(formulas: Iterable[Formula]) -> list[str]:
    from .syntax import atoms

    out: set[str] = set()
    for f in formulas:
        out |= atoms(f)
    return sorted(out)


def _grid(names: list[str], bound: int):
    return (dict(zip(names, values))
            for values in itertools.product(range(-bound, bound + 1), repeat=len(names)))


def _sum_leq(left: list[Formula], right: list[Formula], grid_bound: int) -> Verdict:
    """Whether sum(left) <= sum(right) under every integer valuation."""
    lfs_l = [linear_form(f) for f in left]
    lfs_r = [linear_form(f) for f in right]
    if all(lf is not None for lf in lfs_l + lfs_r):
        total_l = sum(lfs_l, LF_ZERO)
        total_r = sum(lfs_r, LF_ZERO)
        diff = total_r - total_l
        return verdict(not diff.coeffs and diff.const >= 0)
    names = _atoms_of(left + right)
    if not names:
        v: dict[str, int] = {}
        return verdict(sum(int_eval(f, v) for f in left)
                       <= sum(int_eval(f, v) for f in right))
    for v in _grid(names, grid_bound):
        if sum(int_eval(f, v) for f in left) > sum(int_eval(f, v) for f in right):
            return FAILS
    return UNKNOWN


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
        names = _atoms_of(fs + [conclusion])
        if not names:
            return verdict(self._holds_at(fs, conclusion, {}))
        for v in _grid(names, self.grid_bound):
            if not self._holds_at(fs, conclusion, v):
                return FAILS
        return UNKNOWN

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
        if self.kind == "p":
            # a theorem is >= 0 everywhere, so any premises p-entail it
            return HOLDS
        return HOLDS  # leq has no theorems; the quantifier is vacuous


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

    def __init__(self, atom_name: str = "x"):
        self.atom = Atom(atom_name)

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

_UNARY_OPS = {"~"}
_BINARY_OPS = {"->", "o", "/\\", "\\/"}
_OP_OF_TYPE = {Neg: "~", Imp: "->", Fusion: "o", Conj: "/\\", Disj: "\\/"}


@dataclass
class Matrix:
    """A finite algebra with designated values and per-connective tables."""

    name: str
    values: tuple[str, ...]
    designated: frozenset
    tables: dict[str, dict[tuple, str]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.designated:
            raise ValueError("designated set must be nonempty")
        carrier = set(self.values)
        if not self.designated <= carrier:
            raise ValueError("designated values must lie in the carrier")
        for op, table in self.tables.items():
            arity = 1 if op in _UNARY_OPS else 2
            if len(table) != len(self.values) ** arity:
                raise ValueError(f"table for {op} is not total")
            for args, out in table.items():
                if not (set(args) <= carrier and out in carrier):
                    raise ValueError(f"table for {op} leaves the carrier")


def matrix_eval(matrix: Matrix, valuation: dict[str, str], f: Formula) -> str:
    """Homomorphic evaluation of ``f`` under an atom valuation."""
    for name, value in valuation.items():
        if value not in matrix.values:
            raise EvalError(f"value {value} of atom {name} is not in matrix {matrix.name}")
    return _value(matrix, valuation, f)


def _value(matrix: Matrix, valuation: dict[str, str], f: Formula) -> str:
    # matrix_eval on a valuation into the carrier, as the exhaustive
    # searches below draw them
    if isinstance(f, Atom):
        if f.name not in valuation:
            raise EvalError(f"no value for atom {f.name}")
        return valuation[f.name]
    if isinstance(f, (Const, Var)):
        raise EvalError(f"matrix has no interpretation for {print_formula(f)}")
    op = _OP_OF_TYPE[type(f)]
    table = matrix.tables.get(op)
    if table is None:
        raise EvalError(f"matrix {matrix.name} has no table for {op}")
    if isinstance(f, Neg):
        return table[(_value(matrix, valuation, f.body),)]
    return table[(_value(matrix, valuation, f.left),
                  _value(matrix, valuation, f.right))]


def countermodel_search(matrix: Matrix, f: Formula) -> Optional[dict[str, str]]:
    """The lexicographically least refuting valuation, or None if f is valid.

    Exhausts all |carrier|^|atoms| valuations, atoms in sorted order and
    values in carrier display order.
    """
    from .syntax import atoms

    names = sorted(atoms(f))
    for values in itertools.product(matrix.values, repeat=len(names)):
        v = dict(zip(names, values))
        if _value(matrix, v, f) not in matrix.designated:
            return v
    return None


class MatrixOracle(ConsequenceOracle):
    """Designated-value preservation in a finite matrix (exhaustive, exact)."""

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.name = f"matrix:{matrix.name}"

    def entails(self, premises: FMultiset, conclusion: Formula) -> Verdict:
        from .syntax import atoms

        names: set[str] = set(atoms(conclusion))
        for f in premises.support:
            names |= atoms(f)
        for values in itertools.product(self.matrix.values, repeat=len(names)):
            v = dict(zip(sorted(names), values))
            if all(_value(self.matrix, v, f) in self.matrix.designated
                   for f in premises.support):
                if _value(self.matrix, v, conclusion) not in self.matrix.designated:
                    return FAILS
        return HOLDS


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
                if op not in _UNARY_OPS | _BINARY_OPS:
                    raise ParseError(f"unknown connective {op!r}")
                rows = [r.split() for r in body.split("|")]
                if not values:
                    raise ParseError("'values' line must precede tables")
                table: dict[tuple, str] = {}
                if op in _UNARY_OPS:
                    entries = [x for row in rows for x in row]
                    if len(entries) != len(values):
                        raise ParseError(f"table for {op} needs {len(values)} entries")
                    for a, out in zip(values, entries):
                        table[(a,)] = out
                else:
                    if len(rows) != len(values) or any(len(r) != len(values) for r in rows):
                        raise ParseError(
                            f"table for {op} needs {len(values)}x{len(values)} entries")
                    for a, row in zip(values, rows):
                        for b, out in zip(values, row):
                            table[(a, b)] = out
                tables[op] = table
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
    for op, table in matrix.tables.items():
        if op in _UNARY_OPS:
            row = " ".join(table[(a,)] for a in matrix.values)
            lines.append(f"table {op} : {row}")
        else:
            rows = " | ".join(
                " ".join(table[(a, b)] for b in matrix.values) for a in matrix.values)
            lines.append(f"table {op} : {rows}")
    return "\n".join(lines) + "\n"


def parse_int_valuation(text: str) -> dict[str, int]:
    """Parse 'a=2,b=0' into an integer valuation."""
    out: dict[str, int] = {}
    text = text.strip()
    if not text:
        return out
    for part in text.split(","):
        name, _, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if not name or not value:
            raise ParseError(f"bad valuation entry {part!r}")
        out[name] = int(value)
    return out


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
