"""Finite multisets with the pointwise operations used throughout the library.

A multiset maps elements to positive multiplicities.  The four pointwise
operations are intersection (min of counts), union (max), sum (addition,
``+``), and truncated difference (``max(0, m - n)``, ``-``).  Values are
immutable and kept in canonical zero-free form, so ``==`` is exact
multiplicity agreement — which is what the relevance checks rely on.

Each operation works directly on the element->count dicts and wraps its
result with ``_trusted``, which skips validation: the result's counts are
positive integers by construction.  Only ``__init__`` and ``from_counts``
build from outside data, and only they validate.  Because values are
immutable, an operation may return one of its operands unchanged (``m + EMPTY``
is ``m``); no dict is ever shared between two values.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Hashable, Iterable, Iterator


def _default_key(x: Any) -> tuple[str, str]:
    # Deterministic iteration/printing order; str() is injective on the
    # formula types used here, the class name breaks cross-type ties.
    return (str(x), x.__class__.__name__)


def _canonical(counts: dict) -> list:
    """The support in canonical order; a lone element is not keyed at all."""
    return sorted(counts, key=_default_key) if len(counts) > 1 else list(counts)


class FMultiset:
    """An immutable finite multiset over an ordered, hashable element type."""

    __slots__ = ("_counts", "_hash")

    def __init__(self, items: Iterable[Hashable] = ()):
        counts: dict[Any, int] = {}
        for x in items:
            counts[x] = counts.get(x, 0) + 1
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_counts(cls, counts: dict[Any, int]) -> "FMultiset":
        """Build from an element->count mapping; zero counts are dropped."""
        result: dict[Any, int] = {}
        for x, c in counts.items():
            if not isinstance(c, int):
                raise ValueError(f"multiplicity for {x!r} is not an integer: {c!r}")
            if c < 0:
                raise ValueError(f"negative multiplicity for {x!r}: {c}")
            if c > 0:
                result[x] = int(c)
        return _trusted(result)

    # -- basic queries ------------------------------------------------------

    def count(self, x: Any) -> int:
        """Multiplicity of ``x`` (0 off the support)."""
        return self._counts.get(x, 0)

    multiplicity = count

    @property
    def support(self) -> frozenset:
        """The set of elements with positive multiplicity."""
        return frozenset(self._counts)

    @property
    def size(self) -> int:
        """Total number of element occurrences."""
        return sum(self._counts.values())

    def counts(self) -> dict[Any, int]:
        """A copy of the canonical element->count mapping."""
        return dict(self._counts)

    def is_empty(self) -> bool:
        return not self._counts

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, x: Any) -> bool:
        return x in self._counts

    def __iter__(self) -> Iterator:
        """Elements with repetition, in canonical sorted order."""
        counts = self._counts
        order = _canonical(counts)
        if len(order) == sum(counts.values()):
            return iter(order)
        return iter([x for x in order for _ in range(counts[x])])

    def distinct(self) -> list:
        """Support elements in canonical sorted order."""
        return _canonical(self._counts)

    # -- pointwise operations -----------------------------------------------

    def __add__(self, other: "FMultiset") -> "FMultiset":
        """Multiset sum: counts add."""
        big, small = self._counts, other._counts
        if not small:
            return self
        if not big:
            return other
        if len(big) < len(small):
            big, small = small, big
        counts = big.copy()
        get = counts.get
        for x, c in small.items():
            counts[x] = get(x, 0) + c
        return _trusted(counts)

    def __sub__(self, other: "FMultiset") -> "FMultiset":
        """Truncated difference: max(0, m - n) per element."""
        if not other._counts or not self._counts:
            return self
        get = other._counts.get
        counts = {}
        for x, c in self._counts.items():
            c -= get(x, 0)
            if c > 0:
                counts[x] = c
        return _trusted(counts)

    def __and__(self, other: "FMultiset") -> "FMultiset":
        """Intersection: min of counts."""
        big, small = self._counts, other._counts
        if len(big) < len(small):
            big, small = small, big
        get = big.get
        counts = {}
        for x, c in small.items():
            d = get(x, 0)
            if d:
                counts[x] = c if c < d else d
        return _trusted(counts)

    def __or__(self, other: "FMultiset") -> "FMultiset":
        """Union: max of counts."""
        big, small = self._counts, other._counts
        if not small:
            return self
        if not big:
            return other
        if len(big) < len(small):
            big, small = small, big
        counts = big.copy()
        get = counts.get
        for x, c in small.items():
            if c > get(x, 0):
                counts[x] = c
        return _trusted(counts)

    def __le__(self, other: "FMultiset") -> bool:
        """Submultiset order: every multiplicity is bounded by the other's."""
        if len(self._counts) > len(other._counts):
            return False  # a support element of self is missing from other
        get = other._counts.get
        for x, c in self._counts.items():
            if c > get(x, 0):
                return False
        return True

    def __lt__(self, other: "FMultiset") -> bool:
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._counts.items()))
        return h

    def __repr__(self) -> str:
        return f"FMultiset({list(self)!r})"

    def __str__(self) -> str:
        return "[" + ", ".join(str(x) for x in self) + "]"


def _trusted(counts: dict[Any, int]) -> FMultiset:
    """Wrap ``counts`` unchecked: it must hold only positive ints and be unshared."""
    m = object.__new__(FMultiset)
    m._counts = counts
    m._hash = None
    return m


EMPTY = FMultiset()


def msum(*multisets: FMultiset) -> FMultiset:
    """Sum of any number of multisets; the empty multiset is the identity."""
    total = EMPTY
    for m in multisets:
        total = total + m
    return total


def submultisets(m: FMultiset) -> Iterator[FMultiset]:
    """All submultisets of ``m``, smallest first within each element choice."""
    elems = m.distinct()
    for counts in product(*(range(m.count(x) + 1) for x in elems)):
        yield _trusted({x: c for x, c in zip(elems, counts) if c})
