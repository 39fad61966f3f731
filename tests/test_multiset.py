from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from relcon import (EMPTY, TRUTH, Atom, FMultiset, Fusion, Imp, Neg, Var, msum, numeral,
                    submultisets)

elements = st.sampled_from("abcde")
multisets = st.lists(elements, max_size=8).map(FMultiset)


def bag(*items):
    return FMultiset(items)


def test_sum_counts_add():
    assert bag("a", "a", "b") + bag("a", "c") == bag("a", "a", "a", "b", "c")


def test_difference_truncates():
    assert bag("a", "a", "b") - bag("a", "b", "b") == bag("a")


def test_union_and_intersection():
    assert bag("a", "a") | bag("a", "b") == bag("a", "a", "b")
    assert bag("a", "a") & bag("a", "b") == bag("a")


def test_submultiset_examples():
    assert FMultiset() <= bag("x", "y")
    assert not bag("a", "a") <= bag("a")
    assert bag("a", "b") <= bag("a", "a", "b", "c")


def test_support_and_multiplicity():
    m = bag("a", "a", "b")
    assert m.support == {"a", "b"}
    assert m.count("a") == 2
    assert m.count("c") == 0


def test_canonical_zero_free():
    assert FMultiset.from_counts({"a": 0, "b": 2}) == bag("b", "b")
    with pytest.raises(ValueError):
        FMultiset.from_counts({"a": -1})
    for bad in (1.5, 2.0, "2", None):
        with pytest.raises(ValueError):
            FMultiset.from_counts({"a": 1, "b": bad})
    flags = FMultiset.from_counts({"a": True, "b": False})
    assert flags == bag("a") and flags.counts() == {"a": 1}


def test_iteration_is_sorted_with_repetition():
    assert list(bag("b", "a", "b")) == ["a", "b", "b"]
    assert str(bag("b", "a", "b")) == "[a, b, b]"


def test_size_and_bool():
    assert bag("a", "a").size == 2
    assert len(bag("a", "a")) == 2
    assert not FMultiset()
    assert bag("a")


@given(multisets, multisets)
def test_sum_commutative(m, n):
    assert m + n == n + m


@given(multisets, multisets, multisets)
def test_sum_associative(m, n, k):
    assert (m + n) + k == m + (n + k)


@given(multisets)
def test_sum_identity(m):
    assert m + FMultiset() == m
    assert msum() == FMultiset()


@given(multisets, multisets)
def test_difference_undoes_sum(m, n):
    assert (m + n) - n == m


@given(multisets, multisets)
def test_submultiset_iff_difference_empty(m, n):
    assert (m <= n) == ((m - n) == FMultiset())


@given(multisets, multisets)
def test_support_of_sum(m, n):
    assert (m + n).support == m.support | n.support


@given(multisets)
def test_lattice_idempotent(m):
    assert (m | m) == m
    assert (m & m) == m


@given(multisets, multisets)
def test_lattice_commutative(m, n):
    assert (m | n) == (n | m)
    assert (m & n) == (n & m)


@given(multisets, multisets, multisets)
def test_lattice_associative(m, n, k):
    assert (m | n) | k == m | (n | k)
    assert (m & n) & k == m & (n & k)


@given(multisets, multisets, multisets)
def test_partial_order(m, n, k):
    assert m <= m
    if m <= n and n <= m:
        assert m == n
    if m <= n and n <= k:
        assert m <= k


@given(multisets)
def test_submultiset_enumeration(m):
    subs = list(submultisets(m))
    expected = 1
    for x in m.support:
        expected *= m.count(x) + 1
    assert len(subs) == expected
    assert all(s <= m for s in subs)
    assert len(set(subs)) == len(subs)


@given(multisets)
def test_hash_consistent(m):
    assert hash(m) == hash(FMultiset(list(m)))


def test_equal_deep_formulas_in_one_multiset():
    from relcon import numeral

    m = FMultiset([numeral(5000), numeral(5000)])
    assert m.count(numeral(5000)) == 2


# -- differential tests against collections.Counter ------------------------------

p, q = Atom("p"), Atom("q")
# atoms, numerals and small compounds of several node types; the metavariable
# p prints like the atom p, so the class name has to break that tie
FORMULAS = (p, q, Var("p"), numeral(-1), numeral(0), numeral(2), Imp(p, q),
            Fusion(p, p), Neg(q), TRUTH)
formula_lists = st.lists(st.sampled_from(FORMULAS), max_size=7)


def canonical_list(counter):
    return sorted(counter.elements(), key=lambda x: (str(x), type(x).__name__))


def built_two_ways(items):
    """The same multiset from ``__init__`` and from ``from_counts``."""
    ref = Counter(items)
    return ref, FMultiset(items), FMultiset.from_counts(dict(ref))


def agrees(m, ref):
    assert m.counts() == dict(+ref)
    assert 0 not in m.counts().values()
    assert m.size == sum(ref.values()) == len(m)
    assert list(m) == canonical_list(ref)
    assert m.distinct() == sorted(+ref, key=lambda x: (str(x), type(x).__name__))
    pairs = list(m.items())
    assert len(pairs) == len(+ref) and dict(pairs) == dict((+ref).items())
    for x in FORMULAS:
        assert m.count(x) == ref[x]
    assert hash(m) == hash(FMultiset(canonical_list(ref)))
    assert hash(m) == hash(FMultiset.from_counts(dict(ref)))


@given(formula_lists, formula_lists, st.booleans(), st.booleans())
def test_operations_agree_with_counter(xs, ys, left_empty, right_empty):
    if left_empty:
        xs = []
    if right_empty:
        ys = []
    a, m1, m2 = built_two_ways(xs)
    b, n1, n2 = built_two_ways(ys)
    before = [k.counts() for k in (m1, m2, n1, n2)]
    for m in (m1, m2):
        for n in (n1, n2):
            agrees(m + n, a + b)
            agrees(m - n, a - b)
            agrees(m & n, a & b)
            agrees(m | n, a | b)
            le = all(a[x] <= b[x] for x in a)
            assert (m <= n) is le
            assert (m < n) is (le and +a != +b)
            assert (m == n) is (+a == +b)
            assert (m != n) is (+a != +b)
            # results of results, which may be an operand itself
            agrees((m + n) - n, a)
            agrees((m | n) & m, a)
            agrees(m + EMPTY, a)
            agrees(EMPTY + m, a)
            agrees(m - EMPTY, a)
            agrees(EMPTY - m, Counter())
            agrees(m | EMPTY, a)
            agrees(EMPTY & m, Counter())
    assert [k.counts() for k in (m1, m2, n1, n2)] == before
    assert EMPTY.counts() == {}


@given(formula_lists, formula_lists)
def test_equal_results_built_differently_hash_equally(xs, ys):
    m, n = FMultiset(xs), FMultiset(ys)
    assert m + n == n + m == FMultiset(xs + ys) == msum(m, n)
    assert hash(m + n) == hash(n + m) == hash(FMultiset(xs + ys)) == hash(msum(m, n))
    assert (m | n) - n == m - n == m - (m & n)
    assert hash((m | n) - n) == hash(m - n) == hash(m - (m & n))
    assert hash(m | n) == hash(n | m) and hash(m & n) == hash(n & m)


@given(formula_lists)
def test_submultisets_agree_with_counter(xs):
    m, ref = FMultiset(xs), Counter(xs)
    support = list(ref)
    expected = {
        frozenset((x, c) for x, c in zip(support, cs) if c)
        for cs in product(*(range(ref[x] + 1) for x in support))
    }
    subs = list(submultisets(m))
    assert len(subs) == len(expected)
    assert {frozenset(s.counts().items()) for s in subs} == expected
    assert all(0 not in s.counts().values() for s in subs)
    assert m.counts() == dict(ref)


def test_a_multiset_leaves_equality_with_another_type_to_it():
    assert bag("a").__eq__(["a"]) is NotImplemented
    assert bag("a") != ["a"] and EMPTY != ()
