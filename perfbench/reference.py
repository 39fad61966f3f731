"""Known answers, written down before any run, and independent re-checks.

Nothing here calls the procedure under test to decide what the right answer
is.  The law table comes from the paper's definitions applied by hand to each
relation (and agrees with the repository's law tests); the semantic checks
evaluate formulas directly, with ``int_eval`` point by point for the integer
relations and with the T4 tables for the matrix oracle.
"""

from __future__ import annotations

import itertools

# -- the law table -------------------------------------------------------------
#
# Verdict of every law on every oracle the law-battery workload checks.  The
# relations, over closed numerals (and the one-atom domain for ex54):
#   z         sum(G) <= f                    p    min(G) >= 0  =>  f >= 0
#   zsym      sum(G) <= sum(D)               psym the componentwise p relation
#   ex54      G = D, or G(x) > D(x) >= 2     identity  G = D
# Each FAIL has a small counterexample inside the sample domains used
# (z Contraction: G=[], g=-2, f=-3; ex54 Monotonicity: G=D=[], P=[x]; ...).
# TheoremRemoval on z and p uses the theorem basis 0..3, whose members are
# all >= 0, so removing them never breaks an entailment.

P, F = "PASS", "FAIL"

ASYM_TABLE = {
    "z": {"Reflexivity": P, "Cut": P, "Monotonicity": F, "Contraction": F,
          "GeneralizedReflexivity": F, "RelevantCut": P, "TheoremRemoval": P},
    "p": {"Reflexivity": P, "Cut": P, "Monotonicity": P, "Contraction": P,
          "GeneralizedReflexivity": P, "RelevantCut": P, "TheoremRemoval": P},
}

_SCR_ONLY = {"Reflexivity": P, "Transitivity": P, "Compatibility": P,
             "Monotonicity": F, "Contraction": F, "rContraction": F,
             "GeneralizedReflexivity": F, "TheoremReflexivity": F,
             "MultiCut": P, "TheoremRemoval": P}

SYM_TABLE = {
    "zsym": dict(_SCR_ONLY),
    "ex54": dict(_SCR_ONLY),
    "identity": dict(_SCR_ONLY),
    "psym": {name: P for name in _SCR_ONLY},
}

LAW_STATUS = {"passed": P, "counterexample": F}

# the laws each relation satisfies, which pass on every sample domain
SPOT_LAWS = {label: sorted(law for law, verdict in table[label].items() if verdict == P)
             for table in (ASYM_TABLE, SYM_TABLE) for label in table}


def law_expected(label: str, law: str) -> str:
    table = ASYM_TABLE if label in ASYM_TABLE else SYM_TABLE
    return table[label][law]


# -- reference relations (for re-checking counterexample witnesses) -------------


def make_reference(label: str, R):
    """The relation named by ``label``, evaluated directly with int_eval."""
    def val(f) -> int:
        return R.int_eval(f, {})

    def count_x(m) -> int:
        return m.count(R.Atom("x"))

    if label == "z":
        return lambda G, f: sum(val(g) for g in G) <= val(f)
    if label == "p":
        return lambda G, f: val(f) >= 0 or any(val(g) < 0 for g in G)
    if label == "zsym":
        return lambda G, D: sum(val(g) for g in G) <= sum(val(d) for d in D)
    if label == "psym":
        return lambda G, D: (not D or all(val(d) >= 0 for d in D)
                             or any(val(g) < 0 for g in G))
    if label == "ex54":
        return lambda G, D: G == D or count_x(G) > count_x(D) >= 2
    if label == "identity":
        return lambda G, D: G == D
    raise KeyError(label)


def witness_violates(law: str, symmetric: bool, rel, w: dict, R) -> bool:
    """Whether the witness instance breaks the law under the relation ``rel``.

    Covers the laws that fail somewhere in the law table; for each the
    antecedents must hold and the conclusion must fail.
    """
    M = R.FMultiset
    if not symmetric:
        G, f = w["G"], w["f"]
        if law == "Monotonicity":
            return rel(G, f) and not rel(G + w["D"], f)
        if law == "Contraction":
            g = w["g"]
            return rel(G + M([g, g]), f) and not rel(G + M([g]), f)
        if law == "GeneralizedReflexivity":
            return not rel(G + M([f]), f)
    else:
        if law == "Monotonicity":
            G, D, Pm = w["G"], w["D"], w["P"]
            return rel(G, D) and not rel(G + Pm, D)
        if law == "Contraction":
            G, g, D = w["G"], w["g"], w["D"]
            return rel(G + M([g, g]), D) and not rel(G + M([g]), D)
        if law == "rContraction":
            G, g, D = w["G"], w["g"], w["D"]
            return rel(G, D + M([g, g])) and not rel(G, D + M([g]))
        if law == "GeneralizedReflexivity":
            return not rel(w["G"] + w["D"], w["G"])
        if law == "TheoremReflexivity":
            return not rel(w["G"], M())
    return False


# -- integer semantics: brute-force int_eval --------------------------------------


def sum_leq_reference(left, right, R, names) -> bool:
    """Whether sum(left) <= sum(right) at every integer valuation.

    The formulas are lattice-free, so the difference is an affine function
    of the atoms: it is non-negative everywhere iff it is non-negative at the
    origin and flat along every axis.  Evaluating at the origin and at +-1 on
    each axis decides it; the two sides of each axis must agree, which also
    re-checks the affine shape.
    """
    def diff(v) -> int:
        return (sum(R.int_eval(f, v) for f in right)
                - sum(R.int_eval(f, v) for f in left))

    origin = {a: 0 for a in names}
    d0 = diff(origin)
    for a in names:
        up = diff({**origin, a: 1}) - d0
        down = d0 - diff({**origin, a: -1})
        if up != down:
            raise AssertionError("lattice-free formula evaluated non-affinely")
        if up != 0:
            return False
    return d0 >= 0


# -- the T4 matrix: evaluation straight from the tables -----------------------------


def t4_value(matrix, valuation, f, R) -> str:
    if isinstance(f, R.Atom):
        return valuation[f.name]
    op = {R.Imp: "->", R.Fusion: "o"}[type(f)]
    return matrix.tables[op][(t4_value(matrix, valuation, f.left, R),
                              t4_value(matrix, valuation, f.right, R))]


def t4_valuations(matrix, names):
    for values in itertools.product(matrix.values, repeat=len(names)):
        yield dict(zip(names, values))


def t4_entails(matrix, premises, conclusion, names, R) -> bool:
    for v in t4_valuations(matrix, names):
        if all(t4_value(matrix, v, f, R) in matrix.designated for f in premises):
            if t4_value(matrix, v, conclusion, R) not in matrix.designated:
                return False
    return True


def t4_first_refutation(matrix, f, names, R):
    """The first refuting valuation in (sorted atoms, display order), or None."""
    for v in t4_valuations(matrix, names):
        if t4_value(matrix, v, f, R) not in matrix.designated:
            return v
    return None
