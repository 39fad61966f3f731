import itertools
import random

import pytest

from relcon import (
    Atom,
    EvalError,
    FAILS,
    FMultiset,
    Fusion,
    HOLDS,
    Imp,
    Neg,
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
    MatrixOracle,
    parse_int_valuation,
    parse_valuation,
)

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


def test_matrix_file_roundtrip(fixtures_dir):
    text = (fixtures_dir / "t4.mat").read_text()
    m = parse_matrix(text)
    assert print_matrix(parse_matrix(print_matrix(m))) == print_matrix(m)


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
