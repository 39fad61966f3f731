import itertools
import pickle
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import pytest
from hypothesis import example, given, strategies as st

from relcon import (
    Atom,
    Conj,
    Const,
    Disj,
    EvalError,
    FAILS,
    FMultiset,
    Fusion,
    HOLDS,
    Imp,
    Neg,
    ParseError,
    Symmetrization,
    Var,
    UNKNOWN,
    countermodel_search,
    int_eval,
    load_matrix,
    matrix_eval,
    numeral,
    parse_formula,
    parse_matrix,
    parse_multiset,
    print_matrix,
)
from relcon.semantics import (
    AbelianOracle,
    AbelianSymmetricOracle,
    Matrix,
    MatrixOracle,
    _affine,
    _decide,
    parse_valuation,
)
from relcon.syntax import ONE, TRUTH, ZERO, atoms, numeral_value, print_formula

ms = parse_multiset
a, b, c = Atom("a"), Atom("b"), Atom("c")


# -- the integer semantics ------------------------------------------------------


def test_int_eval_connectives():
    v = {"a": 3, "b": -2}
    assert int_eval(parse_formula("a o b"), v) == 1
    assert int_eval(parse_formula("a /\\ b"), v) == -2
    assert int_eval(parse_formula("a \\/ b"), v) == 3
    assert int_eval(parse_formula("~a"), v) == -3
    assert int_eval(parse_formula("a -> b"), v) == -5
    assert int_eval(parse_formula("t"), {}) == 0
    assert int_eval(parse_formula("5"), {}) == 5
    with pytest.raises(EvalError):
        int_eval(a, {})


def test_implication_matches_its_definition():
    # a -> b and ~(a o ~b) evaluate identically
    rng = random.Random(2)
    for _ in range(50):
        v = {"a": rng.randint(-9, 9), "b": rng.randint(-9, 9)}
        assert (int_eval(parse_formula("a -> b"), v)
                == int_eval(parse_formula("~(a o ~b)"), v))


def _form(f):
    """The affine form of ``f`` alone: its nonzero coefficients, sorted, and
    its constant; None for a formula with a lattice connective."""
    form = _affine([(f, 1)])
    return None if form is None else (
        tuple(sorted((name, cf) for name, cf in form[0].items() if cf)), form[1])


def test_linear_form():
    assert _form(parse_formula("(a o a) -> (b o 2)")) == ((("a", -2), ("b", 1)), 2)
    assert _form(parse_formula("a /\\ b")) is None
    assert _form(parse_formula("t"))[1] == 0


def test_linear_form_matches_eval():
    rng = random.Random(4)
    f = parse_formula("((a -> b) o ~a) o (3 o (b -> -2))")
    coeffs, const = _form(f)
    for _ in range(40):
        v = {"a": rng.randint(-5, 5), "b": rng.randint(-5, 5)}
        direct = int_eval(f, v)
        via_form = const + sum(cf * v[name] for name, cf in coeffs)
        assert direct == via_form


def test_z_fixture_verdicts():
    z = AbelianOracle("z")
    assert z.entails(ms("[1]"), numeral(1)) is HOLDS
    assert z.entails(ms("[1, 1]"), numeral(1)) is FAILS
    assert z.entails(ms("[]"), numeral(0)) is HOLDS
    assert z.entails(ms("[1]"), numeral(0)) is FAILS


def test_z_open_formulas_exact_on_linear_fragment():
    z = AbelianOracle("z")
    assert z.entails(ms("[p, q]"), parse_formula("q o p")) is HOLDS
    assert z.entails(ms("[p]"), parse_formula("p o p")) is FAILS
    assert z.entails(ms("[p, p]"), parse_formula("p")) is FAILS
    assert z.entails(ms("[p -> q, p]"), parse_formula("q")) is HOLDS  # modus ponens


def test_z_deduction_property_algebraic():
    # premises + [f] entail g exactly when premises entail f -> g
    z = AbelianOracle("z")
    rng = random.Random(6)
    formulas = [parse_formula(s) for s in
                ["p", "q", "p o q", "~p", "p -> q", "2", "-1", "q o q"]]
    for _ in range(150):
        gamma = FMultiset(rng.choice(formulas) for _ in range(rng.randint(0, 3)))
        f, g = rng.choice(formulas), rng.choice(formulas)
        left = z.entails(gamma + FMultiset([f]), g)
        right = z.entails(gamma, Imp(f, g))
        assert left is right


def test_z_nonlinear_closed_exact():
    z = AbelianOracle("z")
    assert z.entails(ms("[1 /\\ 2]"), numeral(1)) is HOLDS
    assert z.entails(ms("[1 \\/ 2]"), numeral(1)) is FAILS


def test_z_nonlinear_open_grid():
    z = AbelianOracle("z", grid_bound=4)
    # refutable within the grid
    assert z.entails(ms("[p \\/ q]"), parse_formula("p")) is FAILS
    # valid, but the grid cannot prove it: honestly unknown
    assert z.entails(ms("[p /\\ q]"), parse_formula("p \\/ q")) is UNKNOWN


def test_p_relation():
    p = AbelianOracle("p")
    assert p.entails(ms("[1, 2]"), numeral(1)) is HOLDS
    assert p.entails(ms("[1]"), parse_formula("2 -> 1")) is FAILS
    assert p.entails(ms("[-1]"), numeral(-3)) is HOLDS  # vacuous premise
    assert p.entails(ms("[]"), numeral(-1)) is FAILS
    assert p.entails(ms("[]"), numeral(0)) is HOLDS


def test_leq_relation():
    leq = AbelianOracle("leq")
    assert leq.entails(ms("[1, 2]"), numeral(1)) is HOLDS
    assert leq.entails(ms("[1]"), parse_formula("2 -> 1")) is FAILS
    # modus ponens fails: min(-1, -1) is not below -2
    assert leq.entails(ms("[~1 -> ~2, ~1]"), parse_formula("~2")) is FAILS
    # no theorems: the empty minimum is never below anything
    assert leq.entails(ms("[]"), numeral(3)) is FAILS


def test_theorem_hooks():
    z = AbelianOracle("z")
    assert z.entails_all_theorems(ms("[-1]")) is HOLDS
    assert z.entails_all_theorems(ms("[1]")) is FAILS
    assert AbelianOracle("p").entails_all_theorems(ms("[-5]")) is HOLDS
    assert AbelianOracle("leq").entails_all_theorems(ms("[1]")) is HOLDS


def test_linear_decision_never_contradicts_grid():
    # wherever grid refutation finds a counter-valuation, the affine
    # decision also fails: no false holds on the linear fragment
    rng = random.Random(13)
    z_exact = AbelianOracle("z")
    formulas = [parse_formula(s) for s in
                ["p", "q", "~p", "p o q", "p -> q", "2", "-1"]]
    for _ in range(200):
        gamma = FMultiset(rng.choice(formulas) for _ in range(rng.randint(0, 3)))
        goal = rng.choice(formulas)
        verdict = z_exact.entails(gamma, goal)
        names = sorted({n for f in list(gamma) + [goal] for n in _atom_names(f)})
        refuted = False
        for values in itertools.product(range(-4, 5), repeat=len(names)):
            v = dict(zip(names, values))
            if sum(int_eval(f, v) for f in gamma) > int_eval(goal, v):
                refuted = True
                break
        if refuted:
            assert verdict is FAILS
        else:
            # grid exhaustion on its own proves nothing, but the exact
            # decision must not contradict a refutation-free grid either
            assert verdict in (HOLDS, FAILS)


def _atom_names(f):
    from relcon.syntax import atoms
    return atoms(f)


def test_symmetric_sum_relation():
    zs = AbelianSymmetricOracle()
    assert zs.entails(ms("[]"), ms("[1, -1]")) is HOLDS
    assert zs.entails(ms("[1, 1]"), ms("[2]")) is HOLDS
    assert zs.entails(ms("[2]"), ms("[1, 1]")) is HOLDS
    assert zs.entails(ms("[1]"), ms("[]")) is FAILS
    assert zs.entails(ms("[-1]"), ms("[]")) is HOLDS


# -- finite matrices --------------------------------------------------------------


def test_matrix_fixture_tables(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    assert m.values == ("0", "1", "2", "3")
    assert m.designated == {"3"}
    imp, fus = m.tables["->"], m.tables["o"]
    assert imp[("2", "0")] == "1"
    assert imp[("1", "0")] == "0"
    assert imp[("0", "0")] == "3"
    assert fus[("2", "1")] == "1"
    assert fus[("0", "1")] == "0"
    assert fus[("3", "3")] == "3"


def test_matrix_eval_example(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    f = parse_formula("(a -> b) -> ((a o c) -> (b o c))")
    v = {"a": "2", "b": "0", "c": "1"}
    assert matrix_eval(m, v, f) == "0"
    assert "0" not in m.designated


def test_matrix_eval_identity_always_designated(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    f = parse_formula("a -> a")
    for value in m.values:
        assert matrix_eval(m, {"a": value}, f) == "3"


def test_matrix_eval_constant_independent_of_valuation(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    # a closed combination evaluates the same under any valuation of b
    f = parse_formula("a -> a")
    assert (matrix_eval(m, {"a": "1", "b": "0"}, f)
            == matrix_eval(m, {"a": "1", "b": "3"}, f))


def test_matrix_eval_errors(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    with pytest.raises(EvalError):
        matrix_eval(m, {}, a)
    with pytest.raises(EvalError):
        matrix_eval(m, {"a": "1"}, Neg(a))  # no table for negation
    with pytest.raises(EvalError):
        matrix_eval(m, {"a": "zz"}, a)  # zz is not a value of T4


def test_matrix_eval_homomorphic(fixtures_dir):
    # agreement with an independent recursive evaluator on random formulas
    m = load_matrix(fixtures_dir / "t4.mat")

    def independent(f, v):
        if isinstance(f, Atom):
            return v[f.name]
        if isinstance(f, Imp):
            return m.tables["->"][(independent(f.left, v), independent(f.right, v))]
        if isinstance(f, Fusion):
            return m.tables["o"][(independent(f.left, v), independent(f.right, v))]
        raise AssertionError

    rng = random.Random(8)

    def rand(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([a, b, c])
        ctor = rng.choice([Imp, Fusion])
        return ctor(rand(depth - 1), rand(depth - 1))

    for _ in range(100):
        f = rand(3)
        v = {name: rng.choice(m.values) for name in "abc"}
        assert matrix_eval(m, v, f) == independent(f, v)


def test_countermodel_monotonicity_failure(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    f = parse_formula("(a -> b) -> ((a o c) -> (b o c))")
    v = countermodel_search(m, f)
    assert v is not None
    assert matrix_eval(m, v, f) not in m.designated
    # the first refutation in lexicographic order
    assert v == {"a": "2", "b": "0", "c": "1"}


def test_countermodel_none_for_valid(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    assert countermodel_search(m, parse_formula("a -> a")) is None
    prefixing = parse_formula("(a -> b) -> ((c -> a) -> (c -> b))")
    assert countermodel_search(m, prefixing) is None


def test_countermodel_agrees_with_independent_enumeration(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    rng = random.Random(12)

    def rand(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([a, b])
        ctor = rng.choice([Imp, Fusion])
        return ctor(rand(depth - 1), rand(depth - 1))

    for _ in range(80):
        f = rand(3)
        names = sorted({a.name, b.name})
        refuted = any(
            matrix_eval(m, dict(zip(names, values)), f) not in m.designated
            for values in itertools.product(m.values, repeat=len(names)))
        assert (countermodel_search(m, f) is not None) == refuted


def test_matrix_oracle(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    oracle = MatrixOracle(m)
    assert oracle.entails(ms("[a -> b]"), parse_formula("(a o c) -> (b o c)")) is HOLDS
    assert oracle.entails(ms("[]"),
                          parse_formula("(a -> b) -> ((a o c) -> (b o c))")) is FAILS


def test_matrix_oracle_evaluates_the_premises_before_the_conclusion():
    # ~ sends both values to the undesignated one and there is no -> table:
    # the premise is never designated, so the conclusion is never evaluated
    m = Matrix("neg", ("0", "1"), frozenset({"1"}), {"~": {("0",): "0", ("1",): "0"}})
    assert MatrixOracle(m).entails(ms("[~a]"), parse_formula("b -> c")) is HOLDS
    with pytest.raises(EvalError):
        MatrixOracle(m).entails(ms("[]"), parse_formula("b -> c"))


def test_matrix_oracle_evaluates_the_premises_in_canonical_order():
    # b -> b comes before ~c in canonical order and has no table, so the
    # answer cannot follow the hash seed's order of the premises' support
    m = Matrix("neg", ("0", "1"), frozenset({"1"}), {"~": {("0",): "0", ("1",): "0"}})
    with pytest.raises(EvalError, match="no table for ->"):
        MatrixOracle(m).entails(ms("[~c, b -> b]"), parse_formula("d"))


def test_matrix_file_roundtrip(fixtures_dir):
    text = (fixtures_dir / "t4.mat").read_text()
    m = parse_matrix(text)
    assert print_matrix(parse_matrix(print_matrix(m))) == print_matrix(m)


def test_matrix_file_roundtrip_with_a_unary_table(fixtures_dir):
    text = (fixtures_dir / "t4.mat").read_text() + "table ~ : 3 2 1 0\n"
    m = parse_matrix(text)
    assert m.tables["~"] == {("0",): "3", ("1",): "2", ("2",): "1", ("3",): "0"}
    printed = print_matrix(m)
    assert "table ~ : 3 2 1 0" in printed.splitlines()
    assert parse_matrix(printed) == m
    assert print_matrix(parse_matrix(printed)) == printed
    assert matrix_eval(m, {"a": "1"}, Neg(a)) == "2"


def test_matrix_file_errors():
    with pytest.raises(Exception):
        parse_matrix("values 0 1\ndesignated 1\n")  # no name
    with pytest.raises(Exception):
        parse_matrix("matrix M\nvalues 0 1\ndesignated 1\ntable -> : 0 1\n")
    with pytest.raises(Exception):
        parse_matrix("matrix M\nvalues 0 1\ndesignated 2\n"
                     "table -> : 1 1 | 0 1\n")  # designated outside carrier


@pytest.mark.parametrize("text, error", [
    ("matrix\n", "expected: matrix NAME (line 1)"),
    ("matrix A B\n", "expected: matrix NAME (line 1)"),
    ("matrix A\nmatrix B\n", "repeated 'matrix' line (line 2)"),
    ("matrix A\nvalues 0 1\nvalues 0 1\n", "repeated 'values' line (line 3)"),
    ("matrix A\nvalues 0 1\ndesignated 1\ndesignated 0\n",
     "repeated 'designated' line (line 4)"),
    ("matrix A\nvalues 0 1\ntable ~ : 1 0\ntable -> : 1 1 | 0 1\ntable ~ : 0 1\n",
     "repeated table for ~ (line 5)"),
], ids=["nameless", "two-names", "matrix", "values", "designated", "table"])
def test_matrix_file_header_lines_are_read_once(text, error):
    with pytest.raises(ParseError) as e:
        parse_matrix(text)
    assert str(e.value) == error


@pytest.mark.parametrize("text, error", [
    ("matrix A\nvalues 0 1\ntable => : 1 1 | 0 1\n", "unknown connective '=>' (line 3)"),
    ("matrix A\ntable ~ : 1 0\nvalues 0 1\n",
     "'values' line must precede tables (line 2)"),
], ids=["connective", "table-first"])
def test_matrix_file_table_errors(text, error):
    with pytest.raises(ParseError) as e:
        parse_matrix(text)
    assert str(e.value) == error


def test_matrix_file_skips_blank_and_comment_lines():
    text = "# a comment\nmatrix A\n\n   \n  # indented comment\nvalues 0 1\ndesignated 1\n"
    assert parse_matrix(text) == Matrix("A", ("0", "1"), frozenset({"1"}))


@pytest.mark.parametrize("name", ["M#", "M N", "", "M\n"])
def test_matrix_name_must_read_back_as_one_token(name):
    # print_matrix would write 'matrix M#', a matrix named M
    with pytest.raises(ValueError, match="matrix name"):
        Matrix(name, ("0", "1"), frozenset({"1"}))


@pytest.mark.parametrize("value", ["0|1", "0#", "0 1", ""])
def test_matrix_value_must_read_back_as_one_token(value):
    with pytest.raises(ValueError, match="matrix value"):
        Matrix("M", ("2", value), frozenset({"2"}))


def test_valuation_parsing():
    assert parse_valuation("a=2, b=0") == {"a": "2", "b": "0"}
    with pytest.raises(Exception):
        parse_valuation("a")


def test_valuation_repeated_atom_is_a_parse_error():
    with pytest.raises(ParseError, match="atom a is valued twice"):
        parse_valuation("a=0,b=1, a=3")


# -- the recursive evaluators the iterative ones replaced -------------------------
#
# References for the differential properties below: the recursive int_eval,
# LinearForm with its arithmetic, linear_form, _sum_leq and the matrix _value
# as they stood before _evaluate and _affine, with their helpers.


def _ref_int_eval(f, valuation):
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
        return -_ref_int_eval(f.body, valuation)
    if isinstance(f, Imp):
        return _ref_int_eval(f.right, valuation) - _ref_int_eval(f.left, valuation)
    if isinstance(f, Fusion):
        return _ref_int_eval(f.left, valuation) + _ref_int_eval(f.right, valuation)
    if isinstance(f, Conj):
        return min(_ref_int_eval(f.left, valuation), _ref_int_eval(f.right, valuation))
    if isinstance(f, Disj):
        return max(_ref_int_eval(f.left, valuation), _ref_int_eval(f.right, valuation))
    raise EvalError(f"cannot evaluate schema variable {f}")


@dataclass(frozen=True)
class _RefLinearForm:
    """An affine function of atom values: sum of coeff*atom plus a constant."""

    coeffs: tuple[tuple[str, int], ...]
    const: int

    @classmethod
    def make(cls, coeffs: dict[str, int], const: int) -> "_RefLinearForm":
        clean = tuple(sorted((a, c) for a, c in coeffs.items() if c != 0))
        return cls(clean, const)

    def coeff_map(self) -> dict[str, int]:
        return dict(self.coeffs)

    def __add__(self, other: "_RefLinearForm") -> "_RefLinearForm":
        coeffs = self.coeff_map()
        for a, c in other.coeffs:
            coeffs[a] = coeffs.get(a, 0) + c
        return _RefLinearForm.make(coeffs, self.const + other.const)

    def __neg__(self) -> "_RefLinearForm":
        return _RefLinearForm.make({a: -c for a, c in self.coeffs}, -self.const)

    def __sub__(self, other: "_RefLinearForm") -> "_RefLinearForm":
        return self + (-other)


_REF_LF_ZERO = _RefLinearForm((), 0)


def _ref_linear_form(f) -> Optional[_RefLinearForm]:
    """The affine normal form of a lattice-free formula, else None."""
    n = numeral_value(f)
    if n is not None:
        return _RefLinearForm((), n)
    if isinstance(f, Atom):
        return _RefLinearForm.make({f.name: 1}, 0)
    if isinstance(f, Const):
        return _RefLinearForm((), {"0": 0, "1": 1, "t": 0}[f.name])
    if isinstance(f, Neg):
        lf = _ref_linear_form(f.body)
        return None if lf is None else -lf
    if isinstance(f, Imp):
        l, r = _ref_linear_form(f.left), _ref_linear_form(f.right)
        return None if l is None or r is None else r - l
    if isinstance(f, Fusion):
        l, r = _ref_linear_form(f.left), _ref_linear_form(f.right)
        return None if l is None or r is None else l + r
    return None  # Conj/Disj (and schema variables) have no affine form


def _ref_atoms_of(formulas: Iterable) -> list[str]:
    out: set[str] = set()
    for f in formulas:
        out |= atoms(f)
    return sorted(out)


def _ref_grid(names: list[str], bound: int):
    return (dict(zip(names, values))
            for values in itertools.product(range(-bound, bound + 1), repeat=len(names)))


def _ref_sum_leq(left, right, grid_bound: int):
    """Whether sum(left) <= sum(right) under every integer valuation."""
    lfs_l = [_ref_linear_form(f) for f in left]
    lfs_r = [_ref_linear_form(f) for f in right]
    if all(lf is not None for lf in lfs_l + lfs_r):
        total_l = sum(lfs_l, _REF_LF_ZERO)
        total_r = sum(lfs_r, _REF_LF_ZERO)
        diff = total_r - total_l
        return HOLDS if not diff.coeffs and diff.const >= 0 else FAILS
    names = _ref_atoms_of(left + right)
    if not names:
        v: dict[str, int] = {}
        return (HOLDS if sum(_ref_int_eval(f, v) for f in left)
                <= sum(_ref_int_eval(f, v) for f in right) else FAILS)
    for v in _ref_grid(names, grid_bound):
        if (sum(_ref_int_eval(f, v) for f in left)
                > sum(_ref_int_eval(f, v) for f in right)):
            return FAILS
    return UNKNOWN


def _ref_holds_at(kind, fs, conclusion, v) -> bool:
    vals = [_ref_int_eval(f, v) for f in fs]
    c = _ref_int_eval(conclusion, v)
    if kind == "p":
        return c >= 0 if all(x >= 0 for x in vals) else True
    return bool(vals) and min(vals) <= c


def _ref_entails(kind, grid_bound, premises, conclusion):
    """AbelianOracle(kind).entails as it stood, for p and leq."""
    fs = list(premises)
    names = _ref_atoms_of(fs + [conclusion])
    if not names:
        return HOLDS if _ref_holds_at(kind, fs, conclusion, {}) else FAILS
    for v in _ref_grid(names, grid_bound):
        if not _ref_holds_at(kind, fs, conclusion, v):
            return FAILS
    return UNKNOWN


_REF_OP_OF_TYPE = {Neg: "~", Imp: "->", Fusion: "o", Conj: "/\\", Disj: "\\/"}


def _ref_value(matrix, valuation, f) -> str:
    if isinstance(f, Atom):
        if f.name not in valuation:
            raise EvalError(f"no value for atom {f.name}")
        return valuation[f.name]
    if isinstance(f, (Const, Var)):
        raise EvalError(f"matrix has no interpretation for {print_formula(f)}")
    op = _REF_OP_OF_TYPE[type(f)]
    table = matrix.tables.get(op)
    if table is None:
        raise EvalError(f"matrix {matrix.name} has no table for {op}")
    if isinstance(f, Neg):
        return table[(_ref_value(matrix, valuation, f.body),)]
    return table[(_ref_value(matrix, valuation, f.left),
                  _ref_value(matrix, valuation, f.right))]


def _outcome(fn, *args):
    """fn's value, or the EvalError class when it raises one."""
    try:
        return fn(*args)
    except EvalError:
        return EvalError


# -- differential properties against the references -------------------------------

T4 = load_matrix(Path(__file__).resolve().parents[1] / "fixtures" / "t4.mat")


def _semantic_formulas(leaves, lattice=True):
    ctors = (Imp, Fusion, Conj, Disj) if lattice else (Imp, Fusion)

    def extend(children):
        return st.one_of(st.builds(Neg, children),
                         *(st.builds(ctor, children, children) for ctor in ctors))
    numerals = st.integers(min_value=-5, max_value=5).map(numeral)
    return st.recursive(st.one_of(leaves, numerals), extend, max_leaves=8)


_any_formulas = _semantic_formulas(
    st.sampled_from([a, b, c, Var("x"), ZERO, ONE, TRUTH]))
# what the matrix can evaluate: atoms, -> and o
_t4_formulas = st.recursive(
    st.sampled_from([a, b, c]),
    lambda ch: st.one_of(st.builds(Imp, ch, ch), st.builds(Fusion, ch, ch)),
    max_leaves=8)
_lattice_free = _semantic_formulas(st.sampled_from([a, b, c, ZERO, ONE, TRUTH]),
                                   lattice=False)
_int_valuations = st.dictionaries(st.sampled_from("abc"),
                                  st.integers(min_value=-4, max_value=4))
_t4_valuations = st.dictionaries(st.sampled_from("abc"), st.sampled_from(T4.values))


def _multisets(formulas):
    return st.lists(formulas, max_size=3).map(FMultiset)


@given(_any_formulas, _int_valuations)
def test_int_eval_agrees_with_recursive_reference(f, v):
    assert _outcome(int_eval, f, v) == _outcome(_ref_int_eval, f, v)


@given(st.one_of(_any_formulas, _t4_formulas), _t4_valuations)
def test_matrix_value_agrees_with_recursive_reference(f, v):
    assert _outcome(matrix_eval, T4, v, f) == _outcome(_ref_value, T4, v, f)


@given(_t4_formulas)
def test_countermodel_is_the_references_least(f):
    names = sorted(atoms(f))
    least = next((v for v in (dict(zip(names, values)) for values in
                              itertools.product(T4.values, repeat=len(names)))
                  if _ref_value(T4, v, f) not in T4.designated), None)
    assert countermodel_search(T4, f) == least


@given(_multisets(_t4_formulas), _t4_formulas)
def test_matrix_oracle_agrees_with_reference(premises, conclusion):
    names = _ref_atoms_of(list(premises) + [conclusion])
    refuted = any(
        all(_ref_value(T4, v, f) in T4.designated for f in premises.support)
        and _ref_value(T4, v, conclusion) not in T4.designated
        for v in (dict(zip(names, values))
                  for values in itertools.product(T4.values, repeat=len(names))))
    assert MatrixOracle(T4).entails(premises, conclusion) is (FAILS if refuted else HOLDS)


@given(_any_formulas)
def test_linear_form_agrees_with_reference(f):
    got, ref = _form(f), _ref_linear_form(f)
    if ref is None:
        assert got is None
    else:
        assert got == (ref.coeffs, ref.const)


@given(_multisets(_any_formulas), _multisets(_any_formulas))
@example(ms("[a, a, ~a]"), ms("[a, ~a]"))  # repeated premises
@example(ms("[1, 1, ~2]"), ms("[0, 0]"))
@example(ms("[1 o 2, ~1]"), ms("[2, 0 -> 1]"))  # closed and lattice-free
@example(ms("[1 /\\ ~1]"), ms("[0]"))  # closed, with a lattice connective
@example(ms("[]"), ms("[a -> a]"))  # an atom with coefficient 0
@example(FMultiset([Var("y"), a]), FMultiset([Var("x")]))  # a metavariable on each side
def test_sum_relations_agree_with_reference(left, right):
    z, zsym = AbelianOracle("z", grid_bound=2), AbelianSymmetricOracle(grid_bound=2)
    assert (_outcome(zsym.entails, left, right)
            == _outcome(_ref_sum_leq, list(left), list(right), 2))
    for conclusion in right:
        assert (_outcome(z.entails, left, conclusion)
                == _outcome(_ref_sum_leq, list(left), [conclusion], 2))


@given(st.sampled_from(["p", "leq"]), _multisets(_any_formulas), _any_formulas)
@example("p", ms("[a, a, ~a]"), a)  # repeated premises
@example("leq", ms("[1, 1, ~2]"), ZERO)
@example("p", ms("[1 o ~2, 0 -> 1]"), parse_formula("~1"))  # closed and lattice-free
@example("leq", ms("[]"), ONE)  # the empty minimum
@example("p", ms("[1 /\\ ~1]"), ZERO)  # closed, with a lattice connective
@example("p", ms("[]"), parse_formula("a -> a"))  # an atom with coefficient 0
@example("leq", FMultiset([Var("y"), ONE]), Var("x"))  # a metavariable on each side
def test_p_and_leq_agree_with_reference(kind, premises, conclusion):
    oracle = AbelianOracle(kind, grid_bound=2)
    assert (_outcome(oracle.entails, premises, conclusion)
            == _outcome(_ref_entails, kind, 2, premises, conclusion))


@given(_multisets(_lattice_free), _multisets(_lattice_free))
def test_zsym_agrees_with_brute_force_sums(left, right):
    # sum(right) - sum(left) is affine in the atoms: the relation holds iff
    # that difference is constant and nonnegative, which a grid of int_eval
    # sums decides without any normal form
    names = sorted(set().union(*map(atoms, [*left, *right])))
    diffs = {sum(int_eval(f, v) for f in right) - sum(int_eval(f, v) for f in left)
             for v in (dict(zip(names, values))
                       for values in itertools.product(range(-2, 3), repeat=len(names)))}
    holds = len(diffs) == 1 and min(diffs) >= 0
    assert AbelianSymmetricOracle().entails(left, right) is (HOLDS if holds else FAILS)


# -- the per-side decisions against the per-pair path -------------------------------
#
# The integer oracles read each side once, into a memoised form or least
# value, and compare the two.  The reference decides each pair as a whole,
# as the oracles did before: one _affine walk over both sides, or over each
# formula for p and leq, then the grid.


def _pair_sum_leq(left, right, grid_bound):
    """sum(left) <= sum(right), a lone formula on the right read as [right]."""
    many = isinstance(right, FMultiset)
    form = _affine([(f, -n) for f, n in left.items()]
                   + (list(right.items()) if many else [(right, 1)]))
    if form is not None:
        coeffs, const = form
        return HOLDS if const >= 0 and not any(coeffs.values()) else FAILS
    lhs, rhs = list(left), (list(right) if many else [right])
    return _decide(lhs + rhs, lambda vals: sum(vals[:len(lhs)]) <= sum(vals[len(lhs):]),
                   grid_bound)


def _pair_closed_value(f):
    form = _affine([(f, 1)])
    return None if form is None or form[0] else form[1]


def _pair_entails(kind, grid_bound, premises, conclusion):
    if kind in ("z", "zsym"):
        return _pair_sum_leq(premises, conclusion, grid_bound)

    def holds_at(vals):
        *vals, c = vals
        return c >= 0 or any(x < 0 for x in vals) if kind == "p" else any(x <= c for x in vals)
    vals = [_pair_closed_value(f) for f, _ in premises.items()] + [_pair_closed_value(conclusion)]
    if None not in vals:
        return HOLDS if holds_at(vals) else FAILS
    return _decide([*premises.distinct(), conclusion], holds_at, grid_bound)


@given(st.sampled_from(["z", "zsym", "p", "leq"]),
       st.lists(st.tuples(_multisets(_any_formulas), _multisets(_any_formulas)),
                min_size=1, max_size=4))
@example("p", [(ms("[]"), ms("[a -> a]"))])  # an atom with coefficient 0 stays open
@example("leq", [(ms("[]"), ms("[1]")), (ms("[1, 2]"), ms("[1]"))])  # the empty minimum
@example("z", [(ms("[1, 1, ~2]"), ms("[0, a -> a]")), (ms("[1 /\\ ~1]"), ms("[0]"))])
@example("zsym", [(ms("[a, a, ~a]"), ms("[a, ~a]")), (ms("[a /\\ b]"), ms("[a /\\ b, 0]"))])
@example("z", [(FMultiset([Var("y"), a]), FMultiset([Var("x")]))])  # metavariables
@example("p", [(FMultiset([Var("y"), ONE]), FMultiset([a]))])
def test_side_verdicts_agree_with_the_pair_path(kind, queries):
    # one oracle for every query, each asked twice: the sides repeat across
    # queries, and the second ask reads both memo tables
    oracle = (AbelianSymmetricOracle(grid_bound=2) if kind == "zsym"
              else AbelianOracle(kind, grid_bound=2))
    for premises, right in queries + queries:
        for conclusion in ([right] if kind == "zsym" else right.distinct()):
            assert (_outcome(oracle.entails, premises, conclusion)
                    == _outcome(_pair_entails, kind, 2, premises, conclusion))


def test_an_open_theorem_stays_unknown_under_p():
    # [] |- a -> a: the conclusion is 0 everywhere, but it names an atom,
    # so p only searches the grid, which finds no refutation
    assert AbelianOracle("p").entails(FMultiset(), parse_formula("a -> a")) is UNKNOWN


def test_each_distinct_side_is_walked_once(monkeypatch):
    import relcon.semantics as semantics

    walked = []

    def spy(weighted):
        weighted = list(weighted)
        walked.append(weighted)
        return _affine(weighted)
    monkeypatch.setattr(semantics, "_affine", spy)
    sides = [ms("[a, a, b]"), ms("[1, ~a]"), ms("[]"), ms("[a -> b, b]"), ms("[b, a, a]")]
    formulas = [parse_formula(text) for text in ("a", "b o 1", "a -> a", "2", "~1")]

    def walks(oracle, conclusions):
        walked.clear()
        for _ in range(2):
            for g in sides:
                for d in conclusions:
                    oracle.entails(g, d)
        return len(walked)
    # each distinct multiset ([a, a, b] twice) and each conclusion once
    z, zsym = AbelianOracle("z"), AbelianSymmetricOracle()
    assert walks(z, formulas) == 4 + 5 == len(z._memo["_side"])
    assert walks(zsym, sides) == 4 == len(zsym._memo["_side"])
    # p reads a multiset through its formulas' values: each distinct formula
    # (a, b, 1, ~a and a -> b, then the conclusions but a) once
    assert walks(AbelianOracle("p"), formulas) == 5 + 4


# -- images: all that a verdict reads of a side -------------------------------------
#
# Two sides with equal images, neither None, get the same verdict against any
# side that has an image, on either side of the turnstile, and the same
# entails-every-theorem answer.  A side without an image promises nothing:
# [0] and [a -> a] share z's image, yet against 1 /\ 2, which z decides on
# the grid, the first holds and the second is UNKNOWN.

_image_formulas = st.sampled_from(
    [numeral(k) for k in (-2, -1, 0, 1, 2)] + [a, b, TRUTH]
    + [parse_formula(text) for text in ("a -> a", "~a", "a o ~b", "t o 1", "~1",
                                        "1 /\\ 2", "a /\\ b", "a \\/ 1")])


def _image_oracle(kind):
    if kind == "zsym":
        return AbelianSymmetricOracle(grid_bound=2)
    if kind == "psym":
        return Symmetrization(AbelianOracle("p", grid_bound=2))
    return AbelianOracle(kind, grid_bound=2)


@given(st.sampled_from(["z", "p", "leq", "zsym", "psym"]),
       st.lists(_multisets(_image_formulas), min_size=2, max_size=8))
@example("z", [ms("[0]"), ms("[a -> a]"), ms("[1 /\\ 2]")])
@example("zsym", [ms("[t, 1]"), ms("[1]"), ms("[a, ~a, 1]"), ms("[a]")])
@example("psym", [ms("[-1, 2]"), ms("[-2, 0]"), ms("[]"), ms("[1 /\\ 2]"), ms("[a]")])
def test_equal_images_give_equal_verdicts(kind, sides):
    oracle = _image_oracle(kind)
    # the conclusions: the sides themselves, or for an asymmetric oracle
    # their formulas, each with the image of its lone multiset
    rights = sides if oracle.symmetric else [f for side in sides for f in side.distinct()]
    if not oracle.symmetric:
        assert all(oracle.image(f) == oracle.image(FMultiset([f])) for f in rights)

    def imaged(xs):
        return [(x, oracle.image(x)) for x in xs if oracle.image(x) is not None]

    lefts, rights = imaged(sides), imaged(rights)
    for (x, i), (y, j) in itertools.combinations(lefts, 2):
        if i == j:
            assert oracle.entails_all_theorems(x) is oracle.entails_all_theorems(y)
            for r, _ in rights:
                assert oracle.entails(x, r) is oracle.entails(y, r), (x, y, r)
    for (x, i), (y, j) in itertools.combinations(rights, 2):
        if i == j:
            for left, _ in lefts:
                assert oracle.entails(left, x) is oracle.entails(left, y), (left, x, y)


def test_a_side_read_on_the_grid_has_no_image():
    z, p, psym = AbelianOracle("z"), AbelianOracle("p"), Symmetrization(AbelianOracle("p"))
    assert z.image(ms("[0]")) == z.image(ms("[a -> a]")) == (frozenset(), 0)
    assert z.image(ms("[1 /\\ 2]")) is None
    assert z.entails(ms("[0]"), parse_formula("1 /\\ 2")) is HOLDS
    assert z.entails(ms("[a -> a]"), parse_formula("1 /\\ 2")) is UNKNOWN
    assert z.image(ms("[a, a, 1]")) == (frozenset({("a", 2)}), 1)
    assert p.image(parse_formula("a -> a")) is None  # an atom, even with coefficient 0
    assert (p.image(ms("[]")), p.image(ms("[0, -1]"))) == (False, True)
    assert psym.image(ms("[2, -1, -1]")) == (True, frozenset({False, True}))
    assert psym.image(ms("[2, a]")) is None
    # zsym is z's image on multisets, and a symmetrization over a base that
    # is not monotone_contractive has none
    assert AbelianSymmetricOracle().image(ms("[a, 1]")) == z.image(ms("[a, 1]"))
    assert Symmetrization(z).image(ms("[0]")) is None


@given(st.sampled_from(["z", "p", "leq", "zsym", "psym"]), st.lists(_image_formulas, max_size=8))
def test_a_formula_has_the_image_of_its_lone_multiset(kind, formulas):
    oracle = _image_oracle(kind)
    for f in formulas:
        assert oracle.image(f) == oracle.image(FMultiset([f]))


# Additivity: if A and A' have equal images, neither None, and B has an image,
# then A+B and A'+B have equal images, neither None; a formula side is its
# lone multiset.  The law battery's class walk rests on it.  The grid-trap
# values are the sides that read alike but one of which z decides on the grid.

_GRID_TRAP = [parse_formula(text) for text in ("0", "a -> a", "1 /\\ 2", "~1")]


def _lone(side):
    return side if type(side) is FMultiset else FMultiset([side])


@given(st.sampled_from(["z", "p", "leq", "zsym", "psym"]),
       st.lists(st.one_of(_multisets(_image_formulas), _image_formulas), min_size=2, max_size=8),
       st.lists(st.one_of(_multisets(_image_formulas), _image_formulas), min_size=1, max_size=4))
@example("z", _GRID_TRAP + [FMultiset([f]) for f in _GRID_TRAP], _GRID_TRAP)
@example("p", _GRID_TRAP + [ms("[0, 1]"), ms("[t]"), ms("[]")], _GRID_TRAP + [ms("[-1, 2]")])
@example("zsym", _GRID_TRAP + [ms("[1, ~1]"), ms("[t, a -> a]"), ms("[]")], _GRID_TRAP)
@example("psym", _GRID_TRAP + [ms("[0, 0]"), ms("[~1, 2]"), ms("[]")], _GRID_TRAP + [ms("[2]")])
def test_equal_images_stay_equal_under_addition(kind, sides, others):
    image = _image_oracle(kind).image
    for x, y in itertools.combinations(sides, 2):
        i = image(x)
        if i is None or i != image(y):
            continue
        for other in others:
            if image(other) is not None:
                left, right = _lone(x) + _lone(other), _lone(y) + _lone(other)
                assert image(left) is not None and image(left) == image(right), (x, y, other)


def test_numerals_are_leaves_of_the_evaluator():
    assert int_eval(numeral(5000), {}) == 5000
    assert int_eval(numeral(-5000), {}) == -5000
    assert _form(numeral(-5000))[1] == -5000


def test_deep_formulas_evaluate_without_recursion():
    chain = a
    for _ in range(2999):
        chain = Fusion(chain, a)
    assert int_eval(chain, {"a": 2}) == 6000
    assert _form(chain)[0] == (("a", 3000),)
    assert matrix_eval(T4, {"a": "2"}, chain) == "2"
    assert countermodel_search(T4, chain) == {"a": "0"}
    assert AbelianSymmetricOracle().entails(FMultiset([chain]), FMultiset([chain])) is HOLDS
    assert MatrixOracle(T4).entails(FMultiset([a]), chain) is HOLDS
    assert MatrixOracle(T4).entails(FMultiset([]), chain) is FAILS


def test_matrix_eval_error_messages(fixtures_dir):
    m = load_matrix(fixtures_dir / "t4.mat")
    with pytest.raises(EvalError, match="no table for ~"):
        matrix_eval(m, {"a": "1"}, Neg(a))
    with pytest.raises(EvalError, match="no interpretation for 1"):
        matrix_eval(m, {}, numeral(2))  # a numeral is built on the constant 1
    with pytest.raises(EvalError, match="no interpretation for t"):
        matrix_eval(m, {"a": "1"}, Imp(a, TRUTH))
    with pytest.raises(EvalError, match="no value for atom b"):
        matrix_eval(m, {"a": "1"}, Fusion(a, b))


def test_matrix_rejects_a_table_not_keyed_by_its_arity():
    # a ~ table keyed by pairs has as many entries as a total one
    with pytest.raises(ValueError, match="table for ~ is not total"):
        Matrix("M", ("0", "1"), frozenset({"1"}), {"~": {("0", "0"): "1", ("1", "1"): "0"}})


def test_matrix_rejects_an_unknown_connective():
    with pytest.raises(ValueError, match="unknown connective '=>'"):
        Matrix("M", ("0", "1"), frozenset({"1"}),
               {"=>": {(x, y): "1" for x in "01" for y in "01"}})


def test_matrix_rejects_an_empty_designated_set():
    with pytest.raises(ValueError, match="^designated set must be nonempty$"):
        Matrix("M", ("0",), frozenset(), {})


def test_abelian_oracle_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown abelian relation kind 'q'$"):
        AbelianOracle("q")


def test_matrix_file_without_a_name_line_is_rejected():
    with pytest.raises(ParseError) as e:
        parse_matrix("values 0 1\n")
    assert str(e.value) == "missing 'matrix NAME' line"


def test_matrix_rejects_values_outside_the_carrier():
    with pytest.raises(ValueError, match="^designated values must lie in the carrier$"):
        Matrix("M", ("0", "1"), frozenset({"2"}))
    with pytest.raises(ValueError, match="^table for -> leaves the carrier$"):
        Matrix("M", ("0", "1"), frozenset({"1"}),
               {"->": {(x, y): "9" for x in "01" for y in "01"}})


def test_matrix_rejects_repeated_values():
    with pytest.raises(ValueError, match="values must be distinct"):
        Matrix("M", ("0", "0"), frozenset({"0"}), {})


_carriers = st.sampled_from([("0",), ("0", "1"), ("a", "b", "c")])


@st.composite
def _matrices(draw):
    values = draw(_carriers)
    designated = frozenset(draw(st.lists(st.sampled_from(values), min_size=1)))
    tables = {}
    for op, arity in (("~", 1), ("->", 2), ("o", 2), ("/\\", 2), ("\\/", 2)):
        if draw(st.booleans()):
            tables[op] = {args: draw(st.sampled_from(values))
                          for args in itertools.product(values, repeat=arity)}
    return Matrix("M", values, designated, tables)


@given(_matrices())
def test_matrix_file_roundtrip_property(m):
    printed = print_matrix(m)
    assert parse_matrix(printed) == m
    for op in m.tables:  # a ~ table is one row, a binary table one row per value
        row = next(line for line in printed.splitlines() if line.startswith(f"table {op} :"))
        assert row.count("|") == (0 if op == "~" else len(m.values) - 1)



# -- the compiled program: laziness, sharing and depth ------------------------------


def _ref_matrix_entails(m, premises, conclusion):
    """MatrixOracle.entails by the recursive _ref_value: at each valuation in
    product order, the premises in canonical order, each evaluated only where
    those before it are designated, and the conclusion last."""
    distinct = premises.distinct()
    names = _ref_atoms_of([*distinct, conclusion])
    for values in itertools.product(m.values, repeat=len(names)):
        v = dict(zip(names, values))
        if (all(_ref_value(m, v, f) in m.designated for f in distinct)
                and _ref_value(m, v, conclusion) not in m.designated):
            return FAILS
    return HOLDS


def _ref_countermodel(m, f):
    names = sorted(atoms(f))
    for values in itertools.product(m.values, repeat=len(names)):
        if _ref_value(m, v := dict(zip(names, values)), f) not in m.designated:
            return v
    return None


def _with_shared_nodes(children):
    # a node over the same subformula twice, and one over an equal copy of it
    return st.one_of(st.builds(Neg, children),
                     *(st.builds(ctor, children, children) for ctor in (Imp, Fusion, Conj, Disj)),
                     children.map(lambda f: Imp(f, f)),
                     children.map(lambda f: Fusion(f, parse_formula(print_formula(f)))))


# mostly atoms, now and then a constant, which a matrix cannot interpret
_shared_formulas = st.recursive(st.sampled_from([a, b, c] * 6 + [ZERO, TRUTH]),
                                _with_shared_nodes, max_leaves=6)


@st.composite
def _partial_matrices(draw):
    # 2 or 3 values, every table but at most one, so that most queries evaluate
    values = draw(st.sampled_from([("0", "1"), ("a", "b", "c")]))
    designated = frozenset(draw(st.lists(st.sampled_from(values), min_size=1)))
    missing = draw(st.sampled_from([None, None, "~", "->", "o", "/\\", "\\/"]))
    tables = {op: {args: draw(st.sampled_from(values))
                   for args in itertools.product(values, repeat=arity)}
              for op, arity in (("~", 1), ("->", 2), ("o", 2), ("/\\", 2), ("\\/", 2))
              if op != missing}
    return Matrix("M", values, designated, tables)


@given(_partial_matrices(), _multisets(_shared_formulas), _shared_formulas, st.booleans())
def test_compiled_matrix_queries_agree_with_the_lazy_reference(m, premises, conclusion, reuse):
    if reuse and premises:
        conclusion = next(iter(premises.support))
    assert (_outcome(MatrixOracle(m).entails, premises, conclusion)
            == _outcome(_ref_matrix_entails, m, premises, conclusion))
    assert (_outcome(countermodel_search, m, conclusion)
            == _outcome(_ref_countermodel, m, conclusion))


def test_queries_whose_conclusion_is_a_premise_or_shares_subformulas():
    ab = parse_formula("a -> b")
    # verdicts of the matrix, p and leq oracles, as evaluated one formula at a time
    cases = [(ms("[a -> b]"), ab, (HOLDS, UNKNOWN, UNKNOWN)),
             (ms("[a -> b, a]"), ab, (HOLDS, UNKNOWN, UNKNOWN)),
             (ms("[a -> b, a -> b, b]"), ab, (HOLDS, UNKNOWN, UNKNOWN)),
             (ms("[(a -> b) o c, c]"), parse_formula("(a -> b) -> ((a -> b) o c)"),
              (HOLDS, UNKNOWN, UNKNOWN)),
             (ms("[(a -> b) o c]"), parse_formula("c -> ((a -> b) o c)"), (HOLDS, FAILS, FAILS)),
             (FMultiset([Imp(ab, ab)]), Fusion(ab, parse_formula("a -> b")), (FAILS, FAILS, FAILS)),
             (ms("[a o a]"), parse_formula("(a o a) -> (a o a)"), (HOLDS, UNKNOWN, FAILS))]
    for premises, conclusion, (matrix, p, leq) in cases:
        assert MatrixOracle(T4).entails(premises, conclusion) is matrix
        assert _ref_matrix_entails(T4, premises, conclusion) is matrix
        for kind, expected in (("p", p), ("leq", leq)):
            assert AbelianOracle(kind, grid_bound=2).entails(premises, conclusion) is expected
            assert _ref_entails(kind, 2, premises, conclusion) is expected
    # a sum counts a formula once per occurrence, though it is evaluated once
    meet = parse_formula("a /\\ b")
    for left, right, expected in [([meet, meet], [meet], FAILS), ([meet], [meet, meet], FAILS),
                                  ([meet, Neg(meet)], [Neg(meet)], FAILS),
                                  ([meet, meet], [meet, meet], UNKNOWN)]:
        zsym = AbelianSymmetricOracle(grid_bound=2)
        assert zsym.entails(FMultiset(left), FMultiset(right)) is expected
        assert _ref_sum_leq(left, right, 2) is expected


def test_grids_fold_deep_open_formulas_without_recursion():
    chain = a
    for _ in range(2999):
        chain = Fusion(chain, a)
    f = Conj(chain, b)
    for kind in ("p", "leq"):
        assert AbelianOracle(kind, grid_bound=1).entails(FMultiset([f]), f) is UNKNOWN
    assert AbelianOracle("p", grid_bound=1).entails(FMultiset(), f) is FAILS
    zsym = AbelianSymmetricOracle(grid_bound=1)
    assert zsym.entails(FMultiset([f]), FMultiset([f])) is UNKNOWN
    assert zsym.entails(FMultiset([f]), FMultiset([f, Neg(f)])) is FAILS


def test_a_pickled_matrix_evaluates_and_refutes_as_the_original():
    flip = Matrix("F", ("0", "1"), frozenset({"1"}),
                  {"~": {("0",): "1", ("1",): "0"}, "->": {(x, y): max(y, str(1 - int(x)))
                                                         for x in "01" for y in "01"}})
    f, g = parse_formula("(a->b)->((a o c)->(b o c))"), parse_formula("~a -> (a -> b)")
    for m in (T4, flip):
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m
        for h in (f, g, Neg(a)):
            assert _outcome(countermodel_search, copy, h) == _outcome(countermodel_search, m, h)
            assert (_outcome(matrix_eval, copy, {"a": m.values[0], "b": m.values[-1]}, h)
                    == _outcome(matrix_eval, m, {"a": m.values[0], "b": m.values[-1]}, h))
        assert (MatrixOracle(copy).entails(ms("[a -> b, a]"), b)
                is MatrixOracle(m).entails(ms("[a -> b, a]"), b))
    assert countermodel_search(pickle.loads(pickle.dumps(T4)), f) == {"a": "2", "b": "0", "c": "1"}
