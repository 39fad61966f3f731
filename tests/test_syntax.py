import copy
import dataclasses
import pickle
import random
import re
import sys
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from relcon import (
    EMPTY,
    Atom,
    AxiomaticSystem,
    Conj,
    Consecution,
    Disj,
    FMultiset,
    Fusion,
    Imp,
    NamedRule,
    Neg,
    ONE,
    ParseError,
    Var,
    ZERO,
    match,
    numeral,
    parse_formula,
    parse_multiset,
    parse_system,
    print_formula,
    print_multiset,
    print_schema,
    print_system,
    substitute,
)
from relcon.syntax import (
    TRUTH,
    Const,
    MissingBindingError,
    _freeze,
    _larger_first,
    _resolve,
    _rule_step,
    _walk_nodes,
    alpha_variant,
    formula_size,
    match_into,
    match_multiset,
    metavars,
    numeral_value,
    subformulas,
    substitute_partial,
    unify,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_basic_implication():
    assert parse_formula("p -> (q -> p)") == Imp(p, Imp(q, p))
    assert parse_formula("p -> q -> p") == Imp(p, Imp(q, p))  # right-assoc


def test_parse_prefixing_shape():
    f = parse_formula("(p -> q) -> ((r -> p) -> (r -> q))")
    assert f == Imp(Imp(p, q), Imp(Imp(r, p), Imp(r, q)))


def test_precedence():
    assert parse_formula("~p o q") == Fusion(Neg(p), q)
    assert parse_formula("p o q /\\ r") == Conj(Fusion(p, q), r)
    assert parse_formula("p /\\ q \\/ r") == Disj(Conj(p, q), r)
    assert parse_formula("p \\/ q -> r") == Imp(Disj(p, q), r)


def test_numerals_expand():
    assert parse_formula("0") == ZERO
    assert parse_formula("1") == ONE
    assert parse_formula("2") == Fusion(ONE, ONE)
    assert parse_formula("3") == Fusion(Fusion(ONE, ONE), ONE)
    assert parse_formula("-2") == Neg(Fusion(ONE, ONE))
    assert numeral_value(numeral(-3)) == -3
    assert numeral_value(parse_formula("p o 1")) is None


def test_numeral_printing_roundtrip():
    for k in range(-5, 6):
        assert print_formula(numeral(k)) == str(k)
        assert parse_formula(str(k)) == numeral(k)


def test_reserved_words():
    with pytest.raises(ParseError):
        parse_formula("o")
    assert parse_formula("t") == parse_formula("t")
    assert str(parse_formula("t")) == "t"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("p -> ")
    assert "end of input" in str(e.value)
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("(p -> q")


def test_multiset_parse_and_print():
    m = parse_multiset("[p, p, q]")
    assert m.count(p) == 2 and m.count(q) == 1
    assert print_multiset(m) == "[p, p, q]"
    assert parse_multiset("[]") == FMultiset()
    assert parse_multiset("p, q") == FMultiset([p, q])


def _random_formula(rng, depth):
    if depth == 0:
        return rng.choice([p, q, r, ZERO, ONE])
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([p, q, r])
    if kind == 1:
        return Neg(_random_formula(rng, depth - 1))
    ctor = [Imp, Fusion, Conj, Disj][kind - 2]
    return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_print_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(400):
        f = _random_formula(rng, rng.randint(0, 4))
        assert parse_formula(print_formula(f)) == f


def test_schema_roundtrip_with_quoted_atoms():
    s = Imp(Var("p"), Atom("x"))
    text = print_schema(s)
    assert text == "p -> 'x'"
    assert parse_formula(text, schema=True) == s


def test_substitute_examples():
    phi = Var("phi")
    assert substitute(Imp(phi, phi), {"phi": p}) == Imp(p, p)
    s = Imp(Var("a"), Imp(Var("b"), Var("c")))
    assert substitute(s, {"a": p, "b": p, "c": q}) == Imp(p, Imp(p, q))
    with pytest.raises(MissingBindingError):
        substitute(Imp(phi, Var("psi")), {"phi": p})


def test_substitute_permutation_axiom_collapsed():
    permutation = parse_formula("(a -> (b -> c)) -> (b -> (a -> c))", schema=True)
    collapsed = substitute(permutation, {"a": p, "b": p, "c": p})
    assert collapsed == parse_formula("(p -> (p -> p)) -> (p -> (p -> p))")


def test_match_examples():
    phi = Var("phi")
    assert match(Imp(phi, phi), Imp(p, p)) == {"phi": p}
    assert match(Imp(phi, phi), Imp(p, q)) is None
    s = Imp(Var("a"), Imp(Var("b"), Var("c")))
    f = Imp(Fusion(Atom("a"), Atom("b")), Imp(Atom("b"), Atom("a")))
    assert match(s, f) == {"a": Fusion(Atom("a"), Atom("b")),
                           "b": Atom("b"), "c": Atom("a")}


def test_match_substitute_roundtrip_random():
    rng = random.Random(11)
    schema = Imp(Var("a"), Imp(Var("b"), Var("a")))
    for _ in range(100):
        sigma = {"a": _random_formula(rng, 2), "b": _random_formula(rng, 2)}
        f = substitute(schema, sigma)
        back = match(schema, f)
        assert back == sigma
        assert substitute(schema, back) == f


def test_match_multiset():
    schemas = FMultiset([Imp(Var("a"), Var("b")), Var("a")])
    formulas = FMultiset([Imp(p, q), p])
    results = list(match_multiset(schemas, formulas))
    assert {"a": p, "b": q} in results


def test_substitute_partial_and_unify():
    s = substitute_partial(Imp(Var("a"), Var("b")), {"b": q})
    assert s == Imp(Var("a"), q)
    mgu = unify(Imp(Var("u"), q), Imp(Imp(p, q), Var("v")))
    assert mgu["u"] == Imp(p, q) and mgu["v"] == q
    assert unify(Imp(Var("u"), q), Fusion(p, q)) is None
    # occurs check
    assert unify(Var("u"), Imp(Var("u"), q)) is None


def test_alpha_variant():
    a = Imp(Var("x"), Var("x"))
    b = Imp(Var("y"), Var("y"))
    c = Imp(Var("x"), Var("y"))
    assert alpha_variant(a, b)
    assert not alpha_variant(a, c)
    # p -> p matches 'x' -> 'x', but by no renaming; nor does the converse match
    ground = Imp(Atom("x"), Atom("x"))
    assert not alpha_variant(Imp(Var("p"), Var("p")), ground)
    assert not alpha_variant(ground, Imp(Var("p"), Var("p")))


def test_subformulas_and_size():
    f = parse_formula("(p -> q) o ~p")
    assert Imp(p, q) in subformulas(f)
    assert Neg(p) in subformulas(f)
    assert formula_size(f) == 6


def test_system_file_roundtrip(bci):
    text = print_system(bci)
    again = parse_system(text)
    assert print_system(again) == text
    assert [r.name for r in again.rules] == ["I", "B", "C", "mp"]
    assert len(again.axioms) == 3


def test_system_symmetric_file():
    text = """
system S symmetric
axiom a1 : p, q
rule  r1 : p, q |- q, p
"""
    system = parse_system(text)
    assert system.symmetric
    ax = system.get("a1")
    assert isinstance(ax.right, FMultiset) and ax.right.size == 2
    assert print_system(parse_system(print_system(system))) == print_system(system)


def test_symmetric_system_text_is_pinned():
    # no fixture is symmetric, so the writer's exact text is pinned here
    system = parse_system("system Split   symmetric\n"
                          "axiom id:A->A\n"
                          "rule fuse :  A o B|-B,A\n")
    text = print_system(system)
    assert text == ("system Split symmetric\n"
                    "axiom id   : [A -> A]\n"
                    "rule  fuse : A o B |- [A, B]\n")
    again = parse_system(text)
    assert again.symmetric and again.rules == system.rules
    A, B = Var("A"), Var("B")
    assert [(r.left, r.right) for r in again.rules] == [
        (EMPTY, FMultiset([Imp(A, A)])), (FMultiset([Fusion(A, B)]), FMultiset([A, B]))]


def test_lifted_view(bci):
    sym = bci.lifted()
    assert sym.symmetric and sym.lifted() is sym
    assert [r.name for r in sym.rules] == [r.name for r in bci.rules]
    assert [r.right for r in sym.rules] == [FMultiset([r.right]) for r in bci.rules]


def test_system_concrete_atoms(toy_xy):
    assert toy_xy.is_axiom_instance(Atom("x"))
    assert toy_xy.is_axiom_instance(Atom("y"))
    assert not toy_xy.is_axiom_instance(Atom("z"))
    # bare identifiers in system files are metavariables: this one matches all
    schematic = parse_system("system S\naxiom a : p\n")
    assert schematic.is_axiom_instance(Imp(p, q))


@pytest.mark.parametrize("symmetric, rule", [
    (False, Consecution(FMultiset([Atom("a")]), FMultiset([Atom("b"), Atom("b")]))),
    (True, Consecution(EMPTY, Atom("a"))),
])
def test_system_rejects_a_rule_of_the_other_kind(symmetric, rule):
    # print_system would write either in a form that parse_system rejects or
    # reads as the other kind
    with pytest.raises(ValueError, match="rule 'r' does not fit .* system S"):
        AxiomaticSystem("S", [NamedRule("r", rule)], symmetric=symmetric)


@pytest.mark.parametrize("text", [
    "system A\nsystem B\n",
    # a second header once left the system symmetric: this rule read as p |- [p]
    "system A symmetric\nsystem A\nrule r : p |- p\n",
], ids=["renamed", "symmetric-then-not"])
def test_system_header_line_is_read_once(text):
    with pytest.raises(ParseError) as e:
        parse_system(text)
    assert str(e.value) == "repeated 'system' line (line 2)"


@pytest.mark.parametrize("text, error", [
    ("axiom I : p -> p\n", "missing 'system NAME' header line (line 1)"),
    ("# only a comment\n\n", "missing 'system NAME' header line"),
], ids=["axiom-first", "comments-only"])
def test_system_without_a_header_line_is_rejected(text, error):
    with pytest.raises(ParseError) as e:
        parse_system(text)
    assert str(e.value) == error


def test_system_name_discipline():
    with pytest.raises(ValueError):
        parse_system("system Bad\naxiom a : p -> 'p'\n")


def test_system_errors_carry_line():
    with pytest.raises(ParseError) as e:
        parse_system("system S\nrule r : p -> q\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_system("axiom a : p\n")
    with pytest.raises(ValueError):
        parse_system("system S\naxiom a : p\naxiom a : q\n")


@pytest.mark.parametrize("text, error", [
    ("system\n", "expected: system NAME [symmetric] (line 1)"),
    ("system A symmetric more\n", "expected: system NAME [symmetric] (line 1)"),
    ("system A sym\n", "unknown system modifier 'sym' (line 1)"),
    ("system A\naxiom : p\n", "axiom line is missing a name (line 2)"),
    ("system A\nrule  : p |- p\n", "rule line is missing a name (line 2)"),
    ("system A\nrule r : |- p\n",
     "a rule needs at least one premise; use 'axiom' instead (line 2)"),
], ids=["bare", "three-fields", "modifier", "nameless-axiom", "nameless-rule", "no-premise"])
def test_system_file_errors(text, error):
    with pytest.raises(ParseError) as e:
        parse_system(text)
    assert str(e.value) == error


@pytest.mark.parametrize("name", ["x symmetric", "a b", "a#b", "", " ", "a\nb"])
def test_system_name_must_read_back_as_one_token(bci, name):
    # print_system would write 'system x symmetric', a symmetric system named x
    with pytest.raises(ValueError, match="system name"):
        AxiomaticSystem(name, bci.rules)


@pytest.mark.parametrize("name", ["a:b", "a#b", "", " ", " a", "a ", "a\nb", "a\n"])
def test_rule_name_must_read_back(name):
    with pytest.raises(ValueError, match="rule name"):
        AxiomaticSystem("S", [NamedRule(name, Consecution(EMPTY, Var("p")))])


def test_rule_name_with_inner_spaces_reads_back():
    system = AxiomaticSystem("S", [NamedRule("my rule", Consecution(EMPTY, Var("p")))])
    again = parse_system(print_system(system))
    assert again.name == "S" and again.rules == system.rules


@given(st.integers(min_value=-30, max_value=30))
def test_numeral_value_inverse(k):
    assert numeral_value(numeral(k)) == k


# -- the values each formula node caches ------------------------------------------

FORMULA_CLASSES = (Atom, Var, Const, Neg, Imp, Fusion, Conj, Disj)


def _formulas(leaves):
    def extend(children):
        return st.one_of(st.builds(Neg, children),
                         *(st.builds(ctor, children, children)
                           for ctor in (Imp, Fusion, Conj, Disj)))
    numerals = st.integers(min_value=-5, max_value=5).map(numeral)
    return st.recursive(st.one_of(leaves, numerals), extend, max_leaves=12)


# query formulas print and parse back; schemata add metavariables
query_formulas = _formulas(st.sampled_from([p, q, r, ZERO, ONE, TRUTH]))
formulas = _formulas(st.sampled_from([p, q, Var("p"), Var("x"), ZERO, ONE, TRUTH]))


def _rebuild(f):
    """An equal formula made of fresh nodes, none of them printed yet."""
    if isinstance(f, (Atom, Var, Const)):
        return f
    if isinstance(f, Neg):
        return Neg(_rebuild(f.body))
    return type(f)(_rebuild(f.left), _rebuild(f.right))


def _ref_size(f):
    return sum(1 for _ in _walk_nodes(f))


def _ref_numeral_value(f):
    # the canonical expansions, read off the tree without any cache
    if f == ZERO:
        return 0
    negative = isinstance(f, Neg)
    if negative:
        f = f.body
    count = 0
    while isinstance(f, Fusion) and f.right == ONE:
        count += 1
        f = f.left
    if f != ONE:
        return None
    return -(count + 1) if negative else count + 1


class _Hashed:
    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _ref_hash(f):
    """The dataclass hash, the hash of the field tuple, computed from scratch."""
    if isinstance(f, (Atom, Var, Const)):
        return hash((f.name,))
    kids = (f.body,) if isinstance(f, Neg) else (f.left, f.right)
    return hash(tuple(_Hashed(_ref_hash(k)) for k in kids))


_REF_PREC = {Imp: 1, Disj: 2, Conj: 3, Fusion: 4, Neg: 5}
_REF_OPS = {Imp: "->", Disj: "\\/", Conj: "/\\", Fusion: "o"}


def _ref_show(f, prec=0):
    """The printer without caches: recursive, every call from scratch."""
    n = _ref_numeral_value(f)
    if n is not None:
        return str(n)
    if isinstance(f, (Atom, Var, Const)):
        return f.name
    if isinstance(f, Neg):
        s = "~" + _ref_show(f.body, 5)
        return f"({s})" if prec > 5 else s
    my = _REF_PREC[type(f)]
    left = _ref_show(f.left, my + 1 if isinstance(f, Imp) else my)
    s = f"{left} {_REF_OPS[type(f)]} {_ref_show(f.right, my + 1)}"
    return f"({s})" if prec > my else s


@given(formulas)
def test_cached_values_match_uncached_references(f):
    f = _rebuild(f)
    for node in _walk_nodes(f):
        assert formula_size(node) == _ref_size(node)
        assert numeral_value(node) == _ref_numeral_value(node)
        assert hash(node) == _ref_hash(node)
        assert str(node) == print_formula(node) == _ref_show(node)
        assert node._ground == (not metavars(node))


@given(formulas)
def test_every_node_is_hashed_when_built(f):
    # the slots are read straight after building, before any hash() call
    f = _rebuild(f)
    slots = [node._hash for node in _walk_nodes(f)]
    assert slots == [_ref_hash(node) for node in _walk_nodes(f)]


@given(formulas)
def test_printing_order_does_not_change_the_text(f):
    top_first, bottom_up = _rebuild(f), _rebuild(f)
    top = str(top_first)
    for node in reversed(list(_walk_nodes(bottom_up))):  # children first
        str(node)
    assert str(bottom_up) == top
    assert ([str(n) for n in _walk_nodes(top_first)]
            == [str(n) for n in _walk_nodes(bottom_up)])


@given(query_formulas)
def test_print_parse_roundtrip_property(f):
    assert parse_formula(print_formula(f)) == f


def test_large_numerals_build_and_print_without_recursion():
    n = numeral(5000)
    assert formula_size(n) == 9999
    assert numeral_value(n) == 5000
    assert str(n) == print_formula(n) == "5000"
    m = numeral(-5000)
    assert (formula_size(m), numeral_value(m), str(m)) == (10000, -5000, "-5000")
    # each node's hash was fixed as the tower was built, without recursion
    assert hash(n) == hash(numeral(5000)) and hash(m) == hash(numeral(-5000))
    assert FMultiset([n, m]).size == 2


def test_deep_hash_stops_at_hashed_nodes():
    # every node is hashed when it is built, so hashing any node of a deep
    # tower reads its own slot and nothing below it; f is the numeral 3000
    # built apart from numeral()'s shared tower
    f, g = _tower(ONE, ONE, 3000), numeral(3000)
    inner = g
    for _ in range(1500):
        inner = inner.left
    hash(inner)  # a node halfway down the tower
    assert hash(g) == hash(f)
    assert hash(Neg(g)) == hash(Neg(f))  # hashed children: one hash, no walk


def test_deep_formula_prints_without_recursion():
    f = p
    for _ in range(5000):
        f = Neg(f)
    assert str(f) == "~" * 5000 + "p"
    assert formula_size(f) == 5001


def test_formula_nodes_are_slotted():
    for f in (p, Var("x"), ONE, Neg(p), Imp(p, q), Fusion(p, q), Conj(p, q), Disj(p, q)):
        assert not hasattr(f, "__dict__"), type(f)
    # the benchmark tracer wraps these on each class itself
    for cls in FORMULA_CLASSES:
        for attr in ("__init__", "__hash__", "__str__"):
            assert attr in cls.__dict__, (cls, attr)


def test_formula_copy_and_pickle():
    f = parse_formula("(p -> ~q) o 3 /\\ t")
    str(f)
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and hash(g) == hash(f) and str(g) == str(f)
    assert repr(f).startswith("Conj(left=Fusion(left=Imp(left=Atom(name='p')")


def _dataclass_repr(f):
    """The repr the dataclass decorator writes: each field, recursively."""
    return f"{type(f).__qualname__}(" + ", ".join(
        f"{fl.name}={(repr if fl.name == 'name' else _dataclass_repr)(getattr(f, fl.name))}"
        for fl in dataclasses.fields(f)) + ")"


@given(formulas)
@example(numeral(-3))
def test_formula_repr_is_the_dataclass_repr(f):
    assert repr(f) == _dataclass_repr(f)


def test_deep_formula_repr_pickle_and_copy():
    assert 3000 > sys.getrecursionlimit()
    f = p
    for _ in range(3000):
        f = Imp(f, p)
    assert repr(f) == "Imp(left=" * 3000 + "Atom(name='p')" + ", right=Atom(name='p'))" * 3000
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g is not f and str(g) == str(f)
    assert copy.copy(f) is f and copy.deepcopy(f) is f and copy.deepcopy([f])[0] is f
    assert pickle.loads(pickle.dumps(Fusion(Neg(f), f))) == Fusion(Neg(f), f)
    assert pickle.loads(pickle.dumps(numeral(-3000))) == numeral(-3000)


def _ref_equal(a, b):
    """Structural equality, recursively and from scratch."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (Atom, Var, Const)):
        return a.name == b.name
    if isinstance(a, Neg):
        return _ref_equal(a.body, b.body)
    return _ref_equal(a.left, b.left) and _ref_equal(a.right, b.right)


def _swap_kinds(f):
    """f with each atom made the metavariable of its name and back: printed
    and hashed alike, yet unequal whenever f has an atom or metavariable."""
    if isinstance(f, Atom):
        return Var(f.name)
    if isinstance(f, Var):
        return Atom(f.name)
    if isinstance(f, Const):
        return f
    if isinstance(f, Neg):
        return Neg(_swap_kinds(f.body))
    return type(f)(_swap_kinds(f.left), _swap_kinds(f.right))


@given(formulas, formulas)
@example(Neg(p), Neg(Var("p")))  # equal hashes, unequal leaves
@example(numeral(3), Fusion(Fusion(ONE, ONE), ONE))  # a numeral built apart
def test_equality_agrees_with_the_recursive_reference(f, g):
    for a, b in ((f, g), (f, _rebuild(f)), (_rebuild(f), f), (f, _swap_kinds(f)),
                 (_rebuild(g), g)):
        equal = _ref_equal(a, b)
        assert (a == b) is equal and (a != b) is (not equal)
        if equal:
            assert hash(a) == hash(b)


def test_equal_hashes_do_not_make_formulas_equal():
    # a forced hash collision: equality still compares the leaves
    a, b = Imp(p, q), Imp(p, r)
    for f in (a, b):
        object.__setattr__(f, "_hash", 7)
    assert a != b and not a == b


def test_deep_equality_tells_apart_leaves_whose_hashes_collide():
    # past the recursive threshold the work list walks down to the leaves,
    # whose forced collision leaves only their names to tell them apart
    a, b = Atom("s"), Atom("t")
    object.__setattr__(b, "_hash", a._hash)
    left, right = a, b
    for _ in range(300):
        left, right = Imp(left, p), Imp(right, p)
    assert hash(left) == hash(right) and left._size > 256
    assert left != right and not left == right
    assert len({left, right}) == 2


def test_numerals_share_their_towers():
    for n in (2, 3, 57, 200):
        assert numeral(n) is numeral(n)
        assert numeral(n).left is numeral(n - 1)
        assert numeral(-n).body is numeral(n)
    assert numeral(1) is ONE and numeral(0) is ZERO


def _tower(bottom, top, n):
    """((bottom o top) o top) ... o top, n - 1 fusions, built by a loop."""
    f = bottom
    for _ in range(n - 1):
        f = Fusion(f, top)
    return f


def test_deep_formulas_compare_without_recursion():
    chain = " o ".join(["p"] * 3000)
    a, b = parse_formula(chain), parse_formula(chain)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    other = parse_formula(chain[:-1] + "q")
    assert a != other and not a == other
    # equal hashes all the way down: only the bottom leaf tells them apart
    assert a != _tower(Var("p"), p, 3000)
    assert _tower(ONE, ONE, 5000) == numeral(5000)
    assert FMultiset([a, b]).count(a) == 2


def _size_then_text(fs):
    return sorted(fs, key=lambda f: (-formula_size(f), str(f)))


@given(st.lists(formulas, max_size=6))
def test_larger_first_matches_the_size_then_text_order(fs):
    got = _larger_first(fs)
    assert [id(f) for f in got] == [id(f) for f in _size_then_text(fs)]


def test_larger_first_breaks_size_ties_by_text():
    # sizes 1, 1, 1, 3, 3, 2 and a printed tie between an atom and a metavariable
    fs = [Var("p"), q, p, Imp(q, p), Imp(p, q), Neg(r)]
    for order in (fs, fs[::-1]):
        got = _larger_first(order)
        assert [id(f) for f in got] == [id(f) for f in _size_then_text(order)]
    assert [str(f) for f in _larger_first(fs)] == ["p -> q", "q -> p", "~r", "p", "p", "q"]


# -- one metavariable map: differential checks against the recursive originals --
#
# Each _ref_* below is the hand-written recursion the shared metavariable map
# replaced, kept verbatim as the reference.


def _ref_substitute(schema, subst):
    if isinstance(schema, Var):
        if schema.name not in subst:
            raise MissingBindingError(f"no binding for metavariable {schema.name}")
        return subst[schema.name]
    if isinstance(schema, (Atom, Const)):
        return schema
    if isinstance(schema, Neg):
        return Neg(_ref_substitute(schema.body, subst))
    ctor = type(schema)
    return ctor(_ref_substitute(schema.left, subst), _ref_substitute(schema.right, subst))


def _ref_substitute_partial(schema, subst):
    if isinstance(schema, Var):
        return subst.get(schema.name, schema)
    if isinstance(schema, (Atom, Const)):
        return schema
    if isinstance(schema, Neg):
        return Neg(_ref_substitute_partial(schema.body, subst))
    ctor = type(schema)
    return ctor(_ref_substitute_partial(schema.left, subst),
                _ref_substitute_partial(schema.right, subst))


def _ref_freeze(schema):
    if isinstance(schema, Var):
        return Atom("\x00" + schema.name)
    if isinstance(schema, (Atom, Const)):
        return schema
    if isinstance(schema, Neg):
        return Neg(_ref_freeze(schema.body))
    return type(schema)(_ref_freeze(schema.left), _ref_freeze(schema.right))


def _ref_rename_vars(schema):
    if isinstance(schema, Var):
        return Var("\x02" + schema.name)
    if isinstance(schema, Neg):
        return Neg(_ref_rename_vars(schema.body))
    if isinstance(schema, (Imp, Fusion, Conj, Disj)):
        return type(schema)(_ref_rename_vars(schema.left), _ref_rename_vars(schema.right))
    return schema


def _ref_unify(a, b):
    subst = {}

    def walk(f):
        while isinstance(f, Var) and f.name in subst:
            f = subst[f.name]
        return f

    def occurs(name, f):
        f = walk(f)
        if isinstance(f, Var):
            return f.name == name
        if isinstance(f, Neg):
            return occurs(name, f.body)
        if isinstance(f, (Imp, Fusion, Conj, Disj)):
            return occurs(name, f.left) or occurs(name, f.right)
        return False

    def go(x, y):
        x, y = walk(x), walk(y)
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
        if isinstance(x, (Atom, Const)):
            return x == y
        if isinstance(x, Neg):
            return go(x.body, y.body)
        return go(x.left, y.left) and go(x.right, y.right)

    if not go(a, b):
        return None

    def resolve(f):
        f = walk(f)
        if isinstance(f, (Var, Atom, Const)):
            return f
        if isinstance(f, Neg):
            return Neg(resolve(f.body))
        return type(f)(resolve(f.left), resolve(f.right))

    return {name: resolve(Var(name)) for name in subst}


def _ref_match_into(schemas, pool, subst=None):
    base = dict(subst) if subst else {}
    slist = list(schemas)

    def go(i, remaining, sigma, used):
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


def _ref_match_multiset(schemas, formulas, subst=None):
    if schemas.size == formulas.size:
        for sigma, _ in _ref_match_into(schemas, formulas, subst):
            yield sigma


def _ref_one_way(left_a, right_a, left_b, right_b):
    frozen_left = FMultiset(_ref_freeze(f) for f in left_b)
    frozen_right = _ref_freeze(right_b)
    sigma0 = match(right_a, frozen_right)
    if sigma0 is None:
        return False
    return next(_ref_match_multiset(FMultiset(left_a), frozen_left, sigma0), None) is not None


def _ref_rule_has_shape(rule, shape):
    if isinstance(rule.right, FMultiset):
        return False
    return (_ref_one_way(list(rule.left), rule.right, list(shape[0]), shape[1])
            and _ref_one_way(list(shape[0]), shape[1], list(rule.left), rule.right))


def _ref_axiom_has_shape(rule, shape):
    if not rule.is_axiom or isinstance(rule.right, FMultiset):
        return False
    return _ref_one_way([], rule.right, [], shape) and _ref_one_way([], shape, [], rule.right)


_NAMES = ["x", "y", "z"]
_VARS = [Var(v) for v in _NAMES]
schemata = _formulas(st.sampled_from([p, q] + _VARS + [ZERO, ONE, TRUTH]))
substitutions = st.dictionaries(st.sampled_from(_NAMES), schemata, max_size=3)
# small schemata, mostly metavariables: unifiers chain through several
# bindings, and a multiset pattern matches a pool in several ways
general = st.recursive(
    st.sampled_from(_VARS + [p]),
    lambda c: st.one_of(st.builds(Neg, c), st.builds(Imp, c, c), st.builds(Fusion, c, c)),
    max_leaves=4)
general_substitutions = st.dictionaries(st.sampled_from(_NAMES), general, max_size=3)


def _outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except MissingBindingError as e:
        return (MissingBindingError, str(e))


@given(schemata, substitutions)
@example(Imp(Var("x"), Var("y")), {})  # the leftmost missing binding is named
def test_substitute_agrees_with_the_recursive_reference(schema, subst):
    assert _outcome(substitute, schema, subst) == _outcome(_ref_substitute, schema, subst)
    assert substitute_partial(schema, subst) == _ref_substitute_partial(schema, subst)


@given(schemata)
def test_schema_renamings_agree_with_the_recursive_reference(schema):
    from relcon.treeproof import _rename_vars

    assert _freeze(schema) == _ref_freeze(schema)
    assert _rename_vars(schema) == _ref_rename_vars(schema)
    # nothing to replace: the very same object comes back, subtrees and all
    assert substitute_partial(schema, {}) is schema


def _assert_same_unifier(a, b):
    got, want = unify(a, b), _ref_unify(a, b)
    assert got == want
    if want is not None:
        assert list(got.items()) == list(want.items())


@given(schemata, schemata, general, general_substitutions, general_substitutions)
@example(Imp(Var("y"), Var("x")), Imp(Var("x"), p), p, {}, {})  # y -> x -> p
def test_unify_agrees_with_the_recursive_reference(a, b, shape, s1, s2):
    _assert_same_unifier(a, b)
    # two instances of one schema: often unifiable, through chained bindings
    _assert_same_unifier(_ref_substitute_partial(shape, s1),
                         _ref_substitute_partial(shape, s2))


# unify as it stood with a separate dereference, _bound, that _unify and
# _occurs called on each formula first


def _chained_bound(f, subst):
    while isinstance(f, Var) and f.name in subst:
        f = subst[f.name]
    return f


def _chained_occurs(name, f, subst):
    f = _chained_bound(f, subst)
    if f._ground:
        return False
    if isinstance(f, Var):
        return f.name == name
    if isinstance(f, Neg):
        return _chained_occurs(name, f.body, subst)
    return _chained_occurs(name, f.left, subst) or _chained_occurs(name, f.right, subst)


def _chained_unify_into(x, y, subst):
    x, y = _chained_bound(x, subst), _chained_bound(y, subst)
    if x._ground and y._ground:
        return x == y
    if isinstance(x, Var):
        if isinstance(y, Var) and y.name == x.name:
            return True
        if _chained_occurs(x.name, y, subst):
            return False
        subst[x.name] = y
        return True
    if isinstance(y, Var):
        return _chained_unify_into(y, x, subst)
    if type(x) is not type(y):
        return False
    if isinstance(x, Neg):
        return _chained_unify_into(x.body, y.body, subst)
    return (_chained_unify_into(x.left, y.left, subst)
            and _chained_unify_into(x.right, y.right, subst))


def _chained_unify(a, b):
    subst = {}
    if not _chained_unify_into(a, b, subst):
        return None
    return {name: _resolve(subst[name], subst) for name in subst}


def _unify_terms(depth):
    leaf = st.sampled_from([Var("X"), Var("Y"), Var("Z"), Atom("a"), Atom("b")])
    if depth == 0:
        return leaf
    sub = _unify_terms(depth - 1)
    return st.one_of(leaf, st.builds(Imp, sub, sub), st.builds(Fusion, sub, sub))


@settings(max_examples=400)
@given(_unify_terms(3), _unify_terms(3))
# X is bound to Y and Y to a before X meets b: no unifier
@example(Imp(Imp(Var("X"), Var("X")), Var("X")), Imp(Imp(Var("Y"), Atom("a")), Atom("b")))
def test_unify_is_the_chained_unifier_and_idempotent(a, b):
    got = unify(a, b)
    assert got == _chained_unify(a, b)
    if got is not None:
        assert not any(metavars(f) & got.keys() for f in got.values())
        assert substitute_partial(a, got) == substitute_partial(b, got)


def test_unify_follows_a_binding_chain_to_its_end():
    X, Y = Var("X"), Var("Y")
    # X is bound to Y and Y to a before X meets b
    assert unify(Imp(Imp(X, X), X), Imp(Imp(Y, Atom("a")), Atom("b"))) is None
    assert unify(Imp(Imp(X, X), X), Imp(Imp(Y, Atom("a")), Atom("a"))) == {
        "X": Atom("a"), "Y": Atom("a")}


@given(st.lists(general, max_size=3), st.lists(general, max_size=2),
       general_substitutions, general_substitutions)
@example([Var("x"), Var("y")], [], {"x": p, "y": Imp(p, p)}, {})  # two matches
def test_match_multiset_enumerates_as_the_reference(schemas, extra, sigma, start):
    # instances of the schemata (where sigma covers them) plus stray formulas
    instances = [_ref_substitute_partial(s, sigma) for s in schemas] + extra
    pattern = FMultiset(schemas)
    for pool in (FMultiset(instances[:len(schemas)]), FMultiset(instances[-len(schemas):])):
        for subst in (None, start):
            assert (list(match_multiset(pattern, pool, subst))
                    == list(_ref_match_multiset(pattern, pool, subst)))


# -- match_into and _rule_step as they stood before the in-place pool ----------
#
# References for the differential properties below: match_into subtracting a
# fresh multiset per consumed formula (_ref_match_into, above), and the rule
# step matching the left side first in every case, the right side onto what
# the step produced.


def _ref_rule_step(left, right, before, after, stored=None):
    right_ms = right if isinstance(right, FMultiset) else FMultiset([right])
    if stored is not None:
        sigma = dict(stored)
        try:
            consumed = FMultiset(substitute(s, sigma) for s in left)
            produced = FMultiset(substitute(s, sigma) for s in right_ms)
        except MissingBindingError:
            return None
        if consumed <= before and after == (before - consumed) + produced:
            return sigma
        return None
    for sigma, consumed in _ref_match_into(left, before):
        rest = before - consumed
        if rest <= after:
            sigma2 = next(_ref_match_multiset(right_ms, after - rest, sigma), None)
            if sigma2 is not None:
                return sigma2
    return None


# a handful of formulas, so that pools repeat them
_pool_formulas = st.sampled_from([p, q, Imp(p, p), Imp(p, q), Imp(q, p), Neg(p),
                                  Fusion(p, q), Imp(Imp(p, q), p)])


@given(st.lists(general, max_size=3), st.lists(_pool_formulas, max_size=6),
       general_substitutions)
@example([Var("x"), Var("x")], [p, p, q], {})  # x taken twice from a repeat
@example([Var("x"), Var("y")], [p, p, q, q], {"y": q})
@example([Imp(Var("x"), Var("y")), Var("x")], [Imp(p, p), p, p, Imp(p, q)], {})
def test_match_into_enumerates_as_the_subtracting_reference(schemas, pool, start):
    pattern, pool = FMultiset(schemas), FMultiset(pool)
    for subst in (None, start):
        got = list(match_into(pattern, pool, subst))
        want = list(_ref_match_into(pattern, pool, subst))
        assert got == want
        assert [list(s.items()) for s, _ in got] == [list(s.items()) for s, _ in want]


def test_match_into_with_no_schemas_matches_once_without_sorting(monkeypatch):
    # an axiom's left side: one match, a copy of the substitution, consuming
    # nothing; the pool is never put in order
    def unsorted(self):
        raise AssertionError("the pool was sorted")

    monkeypatch.setattr(FMultiset, "distinct", unsorted)
    pool = FMultiset([p, q, Imp(p, q)])
    start = {"x": p}
    got = list(match_into(FMultiset(), pool, start))
    assert got == [({"x": p}, FMultiset())]
    assert got[0][0] is not start
    assert list(match_into(FMultiset(), pool)) == [({}, FMultiset())]


@st.composite
def _steps(draw):
    """A rule step: a passing instance of a random rule, then perhaps the
    conclusion, a premise or the context perturbed, and perhaps a stored
    substitution, right, wrong or partial."""
    left = draw(st.lists(general, max_size=3))
    right = draw(general)
    sigma = {v: draw(_pool_formulas) for v in _NAMES}
    before = [substitute(s, sigma) for s in left]
    after = [substitute(right, sigma)]
    change = draw(st.sampled_from(["none"] * 3 + ["conclusion", "premise", "drop",
                                                  "add", "context", "multiset"]))
    if change == "conclusion":
        after = [draw(_pool_formulas)]
    elif change == "premise" and before:
        before[draw(st.integers(0, len(before) - 1))] = draw(_pool_formulas)
    elif change == "drop" and before:
        before.pop()
    elif change == "add":
        before.append(draw(_pool_formulas))
    elif change == "context":
        extra = draw(st.lists(_pool_formulas, min_size=1, max_size=2))
        before, after = before + extra, after + extra
    elif change == "multiset":
        right = FMultiset([right])
    stored = draw(st.sampled_from([None, None, "right", "wrong", "partial"]))
    if stored == "right":
        stored = sigma
    elif stored == "wrong":
        stored = {**sigma, "x": Neg(sigma["x"])}
    elif stored == "partial":
        stored = {"x": sigma["x"]}
    return FMultiset(left), right, FMultiset(before), FMultiset(after), stored


@given(_steps())
@settings(max_examples=400)
@example((FMultiset([Imp(Var("x"), Var("y")), Var("x")]), Var("y"),
          FMultiset([Imp(p, q), p]), FMultiset([q]), None))  # modus ponens
@example((FMultiset([Var("x"), Var("x")]), Var("x"),
          FMultiset([p, q]), FMultiset([p]), None))  # no match of the left side
@example((FMultiset([Var("x")]), Imp(Var("y"), Var("x")),
          FMultiset([p]), FMultiset([Imp(q, p)]), None))  # y bound by the right
def test_rule_step_agrees_with_the_premises_first_reference(step):
    got, want = _rule_step(*step), _ref_rule_step(*step)
    assert got == want


# -- equality on both sides of the recursion threshold ------------------------


def _sized(n, bottom=p):
    """A formula of n nodes over a left spine: Neg on top when n is even."""
    f = _tower(bottom, q, (n + 1) // 2)
    return Neg(f) if n % 2 == 0 else f


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("hash_first", [False, True])
def test_equality_around_the_recursion_threshold_agrees_with_the_reference(n, hash_first):
    a = _sized(n)
    assert formula_size(a) == n
    # the same text, the bottom leaf's kind swapped (equal hashes all the
    # way up), another bottom leaf, one node more
    others = [_sized(n), _sized(n, Var("p")), _sized(n, r), _sized(n + 1), q]
    for b in others:
        # hash() only reads the slots filled at construction: calling it
        # first changes no verdict
        if hash_first:
            hash(a), hash(b)
        for x, y in ((a, b), (b, a)):
            assert (x == y) is _ref_equal(x, y)
            assert (x != y) is (not _ref_equal(x, y))


def test_equality_on_3000_deep_chains():
    deep = _tower(p, q, 3000)
    cases = [(_tower(p, q, 3000), True), (_tower(Var("p"), q, 3000), False),
             (_tower(r, q, 3000), False), (_sized(255), False), (_sized(257), False)]
    for b, equal in cases:
        for x, y in ((deep, b), (b, deep)):
            assert (x == y) is equal and (x != y) is (not equal)
    # p -> p -> ... -> end, nested 3000 deep on the right

    def chain(end):
        f = end
        for _ in range(3000):
            f = Imp(p, f)
        return f

    assert chain(p) == chain(p) and chain(p) != chain(q) and chain(p) != chain(Var("p"))


def test_axiom_has_shape_agrees_with_the_two_way_reference(
        bci, bcio, t_fusion, toy_xy, bci_weak):
    from relcon.treeproof import B_SHAPE, C_SHAPE, I_SHAPE, axiom_has_shape

    found = 0
    for system in (bci, bcio, t_fusion, toy_xy, bci_weak):
        for system_view in (system, system.lifted()):
            for rule in system_view.rules:
                for shape in (I_SHAPE, B_SHAPE, C_SHAPE):
                    want = _ref_axiom_has_shape(rule, shape)
                    assert axiom_has_shape(rule, shape) == want, (system.name, rule.name)
                    found += want
    assert found >= 3  # BCI's own I, B and C axioms are recognised


@given(general, general)
@example(Var("x"), p)  # an instance of x, but no variant of it
@example(Imp(Var("x"), Var("y")), Imp(Var("z"), Var("z")))  # nor is z -> z
def test_axiom_has_shape_agrees_on_random_schemata(schema, other):
    from relcon import Consecution, NamedRule
    from relcon.treeproof import I_SHAPE, axiom_has_shape

    rule = NamedRule("a", Consecution(FMultiset(), schema))
    # a renamed copy is a variant; a more or less general schema is not
    for shape in (_ref_rename_vars(schema), other, I_SHAPE):
        assert axiom_has_shape(rule, shape) == _ref_axiom_has_shape(rule, shape)


def test_rule_has_shape_agrees_with_the_two_way_reference(
        bci, bcio, t_fusion, toy_xy, bci_weak):
    from relcon.treeproof import MP_SHAPE, WEAKENING_SHAPE, rule_has_shape

    found = 0
    for system in (bci, bcio, t_fusion, toy_xy, bci_weak):
        for system_view in (system, system.lifted()):
            for rule in system_view.rules:
                for shape in (MP_SHAPE, WEAKENING_SHAPE):
                    want = _ref_rule_has_shape(rule, shape)
                    assert rule_has_shape(rule, shape) == want, (system.name, rule.name)
                    found += want
    assert found == 5  # each system's modus ponens, and BCIW's weakening


@given(st.lists(general, max_size=3), general, st.lists(general, max_size=3), general)
@example([Var("x")], Var("x"), [Var("y")], Var("x"))  # a premise may not pair
@example([Var("x"), Imp(Var("x"), Var("y"))], Var("y"), [], p)  # with the conclusion
def test_rule_has_shape_agrees_on_random_rules(left, right, other_left, other_right):
    from relcon import Consecution, NamedRule
    from relcon.treeproof import MP_SHAPE, WEAKENING_SHAPE, rule_has_shape

    rule = NamedRule("r", Consecution(FMultiset(left), right))
    renamed = (FMultiset(_ref_rename_vars(f) for f in left), _ref_rename_vars(right))
    # a renamed copy is a variant; another rule, or a premise and the
    # conclusion swapped, mostly is not
    swapped = (FMultiset(left[1:] + [right]), left[0]) if left else MP_SHAPE
    for shape in (renamed, (FMultiset(other_left), other_right), swapped,
                  MP_SHAPE, WEAKENING_SHAPE):
        assert rule_has_shape(rule, shape) == _ref_rule_has_shape(rule, shape)
    assert rule_has_shape(rule, renamed)


# -- the recursive-descent parser that precedence climbing replaced ----------
#
# A reference for the differential properties below: the tokenizer with one
# token kind per connective and the parser with one method per precedence
# level, as they stood before both read the connectives from one table.

_REF_TOKEN_RE = re.compile(
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


class _RefParser:
    def __init__(self, text, schema):
        self.text, self.schema, self.i, self.tokens = text, schema, 0, []
        pos = 0
        while pos < len(text):
            m = _REF_TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise ParseError(f"unexpected character {rest[0]!r}", pos=pos)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", pos=len(self.text))
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok is None or tok[0] != kind:
            got = tok[1] if tok else "end of input"
            raise ParseError(f"expected {kind}, found {got!r}",
                             pos=tok[2] if tok else len(self.text))
        return self.next()

    def at(self, kind):
        tok = self.peek()
        return tok is not None and tok[0] == kind

    def formula(self):
        left = self.disj()
        if self.at("arrow"):
            self.next()
            return Imp(left, self.formula())
        return left

    def _left_assoc(self, operand, is_op, ctor):
        f = operand()
        while is_op():
            self.next()
            f = ctor(f, operand())
        return f

    def disj(self):
        return self._left_assoc(self.conj, lambda: self.at("disj"), Disj)

    def conj(self):
        return self._left_assoc(self.fus, lambda: self.at("conj"), Conj)

    def fus(self):
        return self._left_assoc(
            self.neg, lambda: self.at("ident") and self.peek()[1] == "o", Fusion)

    def neg(self):
        if self.at("neg"):
            self.next()
            return Neg(self.neg())
        return self.primary()

    def primary(self):
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
            if abs(int(value)) > 200:
                raise ParseError(
                    f"numeral {int(value)} out of supported range (|n| <= 200)", pos=pos)
            return numeral(int(value))
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

    def formula_list(self):
        if self.peek() is None:
            return []
        out = [self.formula()]
        while self.at("comma"):
            self.next()
            out.append(self.formula())
        return out

    def end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing token {tok[1]!r}", pos=tok[2])


def _ref_parse_formula(text, schema=False):
    p = _RefParser(text, schema)
    f = p.formula()
    p.end()
    return f


def _ref_parse_multiset(text, schema=False):
    p = _RefParser(text, schema)
    if p.at("lbrack"):
        p.next()
        if p.at("rbrack"):
            p.next()
            p.end()
            return FMultiset()
        items = p.formula_list()
        p.expect("rbrack")
    else:
        items = p.formula_list()
    p.end()
    return FMultiset(items)


def _parsed(parse, text, schema):
    """The value with its repr, or the message and position of the ParseError."""
    try:
        value = parse(text, schema=schema)
    except ParseError as e:
        return ("error", str(e), e.pos)
    return ("ok", value, repr(value))


_OPERANDS = ["p", "q", "x", "t", "0", "1", "-3", "201", "'a'", "'o'"]
_BINARY_SYMBOLS = ["->", "/\\", "\\/", "o"]
_TOKENS = (_OPERANDS + _BINARY_SYMBOLS
           + ["~", "(", ")", "[", "]", ",", ":", "|-", "oo", "o1", "-", "$", "|"])


def _token_text(tokens_and_spaces):
    return "".join(tok + space for tok, space in tokens_and_spaces)


# balanced expressions over the connectives, and near misses of them
well_formed = st.recursive(
    st.sampled_from(_OPERANDS).map(lambda tok: [tok]),
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: a + [op] + b, inner, st.sampled_from(_BINARY_SYMBOLS), inner),
        inner.map(lambda t: ["~"] + t),
        inner.map(lambda t: ["("] + t + [")"])),
    max_leaves=8)
near_misses = st.builds(
    lambda tokens, at, tok, drop: (tokens[:at] + tokens[at + 1:] if drop
                                   else tokens[:at] + [tok] + tokens[at:]),
    well_formed, st.integers(0, 20), st.sampled_from(_TOKENS), st.booleans())
token_texts = st.one_of(
    st.lists(st.tuples(st.sampled_from(_TOKENS), st.sampled_from(["", " "])),
             max_size=12).map(_token_text),
    st.one_of(well_formed, near_misses).flatmap(
        lambda tokens: st.lists(st.sampled_from(["", " "]), min_size=len(tokens),
                                max_size=len(tokens)).map(
            lambda spaces: _token_text(zip(tokens, spaces)))),
    query_formulas.map(str))


@given(token_texts, st.booleans())
@example("~p o q /\\ r \\/ s -> t -> u", False)
@example("p o o q", False)  # an 'o' where an operand belongs
@example("p ~ q", False)  # ~ is no binary connective
@example("[]", True)
@example("oo o1 -> o", True)
def test_parser_agrees_with_the_recursive_descent_reference(text, schema):
    got = _parsed(parse_formula, text, schema)
    assert got == _parsed(_ref_parse_formula, text, schema)
    assert _parsed(parse_multiset, text, schema) == _parsed(_ref_parse_multiset, text, schema)
    if got[0] == "ok":
        assert parse_formula(print_schema(got[1]), schema=schema) == got[1]


def _quoted(f):
    """f with every atom renamed to its quoted name, so that _ref_show prints
    it as print_schema does."""
    if isinstance(f, Atom):
        return Atom(f"'{f.name}'")
    if isinstance(f, (Var, Const)):
        return f
    if isinstance(f, Neg):
        return Neg(_quoted(f.body))
    return type(f)(_quoted(f.left), _quoted(f.right))


@given(formulas, st.integers(min_value=0, max_value=40))
def test_print_schema_agrees_with_the_recursive_reference(f, copies):
    # formulas mixes atoms, metavariables, constants and numerals; a fusion of
    # many copies shares its nodes, which _fill prints once each
    assert print_schema(f) == _ref_show(_quoted(f))
    big = f
    for _ in range(copies):
        big = Fusion(big, f)
    assert print_schema(big) == _ref_show(_quoted(big))


def test_3000_deep_schema_prints_without_recursion():
    f = Atom("x")
    for _ in range(2999):
        f = Fusion(f, Var("y"))
    assert print_schema(f) == "'x'" + " o y" * 2999
    g = Atom("x")
    for _ in range(3000):
        g = Neg(g)
    assert print_schema(g) == "~" * 3000 + "'x'"


def test_parenthesised_input_250_deep_parses():
    assert parse_formula("(" * 250 + "p" + ")" * 250) == Atom("p")
    assert parse_formula("(" * 3000 + "p" + ")" * 3000) == Atom("p")


class Deep(NamedTuple):
    """A formula ``depth`` levels deep, built by a loop over leaves drawn from
    ``leaves``: at each level a connective from ``kinds`` takes the formula so
    far as its body, or as its left or right operand as ``on_left`` says.  A
    recipe and not the formula, so that hypothesis can show it."""

    depth: int
    kinds: tuple
    on_left: tuple
    leaves: tuple
    seed: int = 0

    def build(self):
        rng = random.Random(self.seed)
        f = rng.choice(self.leaves)
        for _ in range(self.depth):
            cls = rng.choice(self.kinds)
            if cls is Neg:
                f = Neg(f)
            elif rng.choice(self.on_left):
                f = cls(f, rng.choice(self.leaves))
            else:
                f = cls(rng.choice(self.leaves), f)
        return f


_DEEP_CONNECTIVES = (Imp, Fusion, Conj, Disj, Neg)


def deep_formulas(*leaves):
    """Recipes up to 5000 levels deep: a chain of one connective or of all of
    them mixed, nested on the left, on the right, or on either side."""
    return st.builds(
        Deep, st.integers(1, 5000),
        st.sampled_from([(cls,) for cls in _DEEP_CONNECTIVES] + [_DEEP_CONNECTIVES]),
        st.sampled_from([(True,), (False,), (True, False)]),
        st.just(leaves), st.integers(0, 2 ** 32))


def _imp_chain(leaf, links):
    """leaf -> leaf -> ... -> leaf, with ``links`` implications."""
    return Deep(links, (Imp,), (False,), (leaf,))


# no leaf is 1, so no fusion grows into a numeral past the parsable range
@settings(max_examples=8, deadline=None)
@given(deep_formulas(p, q, TRUTH, ZERO, numeral(3), numeral(-2)),
       deep_formulas(Var("x"), Var("y"), Atom("a"), TRUTH, numeral(2)))
@example(_imp_chain(p, 600), _imp_chain(Var("p"), 600))
@example(_imp_chain(p, 900), _imp_chain(Var("p"), 900))
def test_deep_formulas_print_and_parse_back(deep, deep_schema):
    # a printed right-nested chain is twice as deep as the chain: each
    # nested implication is parenthesised
    f, s = deep.build(), deep_schema.build()
    assert parse_formula(print_formula(f)) == f
    assert parse_formula(print_schema(s), schema=True) == s
    m = FMultiset([f, f, q])
    assert parse_multiset(print_multiset(m)) == m
    m = FMultiset([s, f])
    assert parse_multiset(print_multiset(m, schema=True), schema=True) == m


def test_deep_schema_prints_without_recursion():
    f = Var("p")
    for _ in range(900):
        f = Neg(f)
    assert print_schema(f) == "~" * 900 + "p"
    chain = parse_formula(" -> ".join(["p"] * 400), schema=True)
    assert parse_formula(print_schema(chain), schema=True) == chain
    quoted = Imp(Atom("x"), Fusion(Var("y"), numeral(3)))
    assert print_schema(quoted) == "'x' -> y o 3"


@pytest.mark.parametrize("text", ["~p", "p -> q", "p o q", "p /\\ q", "p \\/ q"])
def test_a_compound_formula_leaves_equality_with_another_type_to_it(text):
    f = parse_formula(text)
    assert f.__eq__(text) is NotImplemented
    assert f != text and f != parse_multiset("[" + text + "]")
