import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import pytest
from hypothesis import given, strategies as st

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
    Var,
    UNKNOWN,
    countermodel_search,
    int_eval,
    linear_form,
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
    _value,
    parse_int_valuation,
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


def test_linear_form():
    lf = linear_form(parse_formula("(a o a) -> (b o 2)"))
    assert lf.coeff_map() == {"a": -2, "b": 1}
    assert lf.const == 2
    assert linear_form(parse_formula("a /\\ b")) is None
    assert linear_form(parse_formula("t")).const == 0


def test_linear_form_matches_eval():
    rng = random.Random(4)
    f = parse_formula("((a -> b) o ~a) o (3 o (b -> -2))")
    lf = linear_form(f)
    for _ in range(40):
        v = {"a": rng.randint(-5, 5), "b": rng.randint(-5, 5)}
        direct = int_eval(f, v)
        via_form = lf.const + sum(cf * v[name] for name, cf in lf.coeffs)
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


def test_valuation_parsing():
    assert parse_valuation("a=2, b=0") == {"a": "2", "b": "0"}
    assert parse_int_valuation("a=-3,b=7") == {"a": -3, "b": 7}
    with pytest.raises(Exception):
        parse_valuation("a")


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
    assert _outcome(_value, T4, v, f) == _outcome(_ref_value, T4, v, f)


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
    got, ref = linear_form(f), _ref_linear_form(f)
    if ref is None:
        assert got is None
    else:
        assert (got.coeffs, got.const, got.coeff_map()) == (ref.coeffs, ref.const,
                                                           ref.coeff_map())


@given(_multisets(_any_formulas), _multisets(_any_formulas))
def test_sum_relations_agree_with_reference(left, right):
    z, zsym = AbelianOracle("z", grid_bound=2), AbelianSymmetricOracle(grid_bound=2)
    assert (_outcome(zsym.entails, left, right)
            == _outcome(_ref_sum_leq, list(left), list(right), 2))
    for conclusion in right:
        assert (_outcome(z.entails, left, conclusion)
                == _outcome(_ref_sum_leq, list(left), [conclusion], 2))


@given(st.sampled_from(["p", "leq"]), _multisets(_any_formulas), _any_formulas)
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


def test_numerals_are_leaves_of_the_evaluator():
    assert int_eval(numeral(5000), {}) == 5000
    assert int_eval(numeral(-5000), {}) == -5000
    assert linear_form(numeral(-5000)).const == -5000


def test_deep_formulas_evaluate_without_recursion():
    chain = a
    for _ in range(2999):
        chain = Fusion(chain, a)
    assert int_eval(chain, {"a": 2}) == 6000
    assert linear_form(chain).coeffs == (("a", 3000),)
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

