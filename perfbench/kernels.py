"""Layer kernels: one operation of each layer on a fixed input, timed alone.

These are the layer costs that every end-to-end number rests on: formula
construction, hashing and printing; the multiset operations; matching and
unification; and one cold ``entails`` for each kind of oracle (a fresh oracle
per call, so no memo table answers it).  Each is reported in microseconds per
operation, the median over several timed batches.
"""

from __future__ import annotations

import statistics
from time import perf_counter

BATCHES = 7
NAMES = ("formula_new", "formula_hash", "formula_str", "multiset_add",
         "multiset_sub", "multiset_iter", "multiset_le", "match",
         "match_multiset", "unify", "entails_z", "entails_p",
         "entails_zsym", "entails_matrix_T4", "entails_p_s")


def per_op_us(fn, budget_s: float) -> float:
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= budget_s / (2 * BATCHES) or n >= 1 << 20:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def kernels(R, t4) -> dict:
    M, Imp, ms, pf = R.FMultiset, R.Imp, R.parse_multiset, R.parse_formula
    p, q, r = R.Atom("p"), R.Atom("q"), R.Atom("r")

    def build():
        # an instance of the prefixing axiom, five constructor calls
        return Imp(Imp(p, q), Imp(Imp(r, p), Imp(r, q)))

    b_instance = build()
    b_schema = pf("(p -> q) -> ((r -> p) -> (r -> q))", schema=True)
    mp_left = ms("[p -> q, p]", schema=True)
    mp_pair = M([Imp(b_instance, q), b_instance])
    big = M([Imp(p, q), p, q, r, Imp(r, q), p])
    small = M([p, Imp(r, q), q])
    head = pf("(x -> (y -> z)) -> (y -> (x -> z))", schema=True)
    goal_schema = Imp(R.Var("u"), R.Var("v"))
    one, two = R.numeral(1), R.numeral(2)
    z_left, z_right = ms("[a -> b, b -> c, 1]"), pf("a -> (c o 1)")
    zs_left, zs_right = ms("[a -> b, b -> c, c]"), ms("[a -> c, c]")
    t4_left, t4_right = ms("[a -> b, a]"), pf("b")
    closed = M([one, two])

    return {
        "formula_new": build,
        "formula_hash": lambda: hash(b_instance),
        "formula_str": lambda: str(b_instance),
        "multiset_add": lambda: big + small,
        "multiset_sub": lambda: big - small,
        "multiset_iter": lambda: list(big),
        "multiset_le": lambda: small <= big,
        "match": lambda: R.syntax.match(b_schema, b_instance),
        "match_multiset": lambda: list(R.syntax.match_multiset(mp_left, mp_pair)),
        "unify": lambda: R.syntax.unify(goal_schema, head),
        "entails_z": lambda: R.AbelianOracle("z").entails(z_left, z_right),
        "entails_p": lambda: R.AbelianOracle("p").entails(closed, one),
        "entails_zsym": lambda: R.AbelianSymmetricOracle().entails(zs_left, zs_right),
        "entails_matrix_T4": lambda: R.MatrixOracle(t4).entails(t4_left, t4_right),
        "entails_p_s": lambda: R.Symmetrization(R.AbelianOracle("p")).entails(closed, closed),
    }


def run_kernels(R, t4, budget_s: float = 0.08) -> dict[str, float]:
    ops = kernels(R, t4)
    return {f"kernel.{name}_us": per_op_us(ops[name], budget_s) for name in NAMES}
