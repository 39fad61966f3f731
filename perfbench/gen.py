"""Seeded input generators.  Every input of every workload comes from here.

The generators take the imported ``relcon`` package as an argument, so they
build formulas with the same constructors the program uses, and they record
the known answer for each input alongside it (relevant by construction,
round-trip equality, or the reference semantics in ``reference.py``).
"""

from __future__ import annotations

ATOMS = "pqr"


def random_formula(rng, R, depth: int, fusion: bool = False, atoms: str = ATOMS):
    """Implication (and optionally fusion) formulas over a few atoms."""
    if depth <= 0 or rng.random() < 0.45:
        return R.Atom(rng.choice(atoms))
    ctor = R.Fusion if (fusion and rng.random() < 0.3) else R.Imp
    return ctor(random_formula(rng, R, depth - 1, fusion, atoms),
                random_formula(rng, R, depth - 1, fusion, atoms))


def random_relevant_proof(rng, R, steps: int, fusion: bool = False):
    """A proof tree that is relevant by construction, with ``steps`` mp nodes.

    Returns ``(tree, premises, axiom_leaves)``.  Every premise occurrence
    labels exactly one leaf, so the leaf multiset is the premises plus the
    axiom leaves: the proof is strongly relevant iff it has no axiom leaf.
    The steps are the BCI moves: modus ponens with a fresh implication
    premise, or with an instance of the I, B or C axiom as the major.
    """
    Imp, leaf, axiom_leaf, Tree, Rule = (R.Imp, R.premise_leaf, R.axiom_leaf,
                                         R.ProofTree, R.RuleJust)
    start = random_formula(rng, R, 2, fusion)
    tree, premises, axioms = leaf(start), [start], 0
    while steps:
        v = tree.formula
        roll = rng.random()
        if roll < 0.5:
            w = random_formula(rng, R, 1, fusion)
            major = leaf(Imp(v, w))
            premises.append(Imp(v, w))
            tree = Tree(w, Rule("mp"), (major, tree))
        elif roll < 0.6:
            major = axiom_leaf(Imp(v, v), "I", {"p": v})
            tree, axioms = Tree(v, Rule("mp"), (major, tree)), axioms + 1
        elif roll < 0.8 and isinstance(v, Imp):
            z = random_formula(rng, R, 1, fusion)
            out = Imp(Imp(z, v.left), Imp(z, v.right))
            major = axiom_leaf(Imp(v, out), "B",
                               {"p": v.left, "q": v.right, "r": z})
            tree, axioms = Tree(out, Rule("mp"), (major, tree)), axioms + 1
        elif isinstance(v, Imp) and isinstance(v.right, Imp):
            out = Imp(v.right.left, Imp(v.left, v.right.right))
            major = axiom_leaf(Imp(v, out), "C", {"p": v.left, "q": v.right.left,
                                                  "r": v.right.right})
            tree, axioms = Tree(out, Rule("mp"), (major, tree)), axioms + 1
        else:
            continue
        steps -= 1
    return tree, R.FMultiset(premises), axioms


def random_relevant_derivation(rng, R, max_steps: int = 4):
    """A small concrete system and a derivation in it, relevant by construction.

    The rules are variable-free, so every application is determined by the
    multiset it consumes; the conclusions are the derivation's last step.
    """
    def rand(depth):
        return random_formula(rng, R, depth, atoms="abc")

    M = R.FMultiset
    rules = [R.NamedRule(f"ax{i}", R.Consecution(M(), rand(1)))
             for i in range(rng.randint(0, 2))]
    for i in range(rng.randint(1, 4 - len(rules))):
        left = M(rand(1) for _ in range(rng.randint(1, 2)))
        rules.append(R.NamedRule(f"r{i}", R.Consecution(left, rand(1))))
    system = R.AxiomaticSystem("Rand", rules)
    lifted = system.lifted()
    steps = [M(rand(1) for _ in range(rng.randint(1, 4)))]
    apps = []
    for _ in range(rng.randint(0, max_steps)):
        current = steps[-1]
        moves = [r for r in lifted.rules if r.left <= current
                 and current.size - r.left.size + r.right.size <= 6]
        if not moves:
            break
        rule = rng.choice(moves)
        steps.append((current - rule.left) + rule.right)
        apps.append(R.RuleApp(rule.name, {}))
    return system, R.Derivation(tuple(steps), tuple(apps))


def random_linear_formula(rng, R, depth: int):
    """Lattice-free formulas over a, b, c and small numerals (affine in Z)."""
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.7:
            return R.Atom(rng.choice("abc"))
        return R.numeral(rng.randint(-2, 2))
    roll = rng.random()
    if roll < 0.2:
        return R.Neg(random_linear_formula(rng, R, depth - 1))
    ctor = R.Imp if roll < 0.6 else R.Fusion
    return ctor(random_linear_formula(rng, R, depth - 1),
                random_linear_formula(rng, R, depth - 1))


def _closed_lattice_formula(rng, R, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return R.numeral(rng.randint(-3, 3))
    ctor = rng.choice((R.Conj, R.Disj, R.Fusion, R.Imp))
    return ctor(_closed_lattice_formula(rng, R, depth - 1),
                _closed_lattice_formula(rng, R, depth - 1))


def _fuse(R, formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = R.Fusion(out, f)
    return out


def random_sum_query(rng, R, single: bool):
    """Premises and conclusion(s) for the integer-sum relations.

    Half the queries regroup the premises on the right with a small numeral
    shift, so both verdicts occur; one in ten is closed and uses the lattice
    connectives, which the oracles then decide by evaluation.
    """
    M = R.FMultiset
    if rng.random() < 0.1:
        left = [_closed_lattice_formula(rng, R, 2) for _ in range(rng.randint(0, 2))]
        right = [_closed_lattice_formula(rng, R, 2) for _ in range(1 if single else rng.randint(0, 2))]
        return M(left), (right[0] if single else M(right))
    left = [random_linear_formula(rng, R, 3) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        shuffled = list(left)
        rng.shuffle(shuffled)
        shift = R.numeral(rng.randint(-1, 1))
        if single:
            return M(left), R.Fusion(_fuse(R, shuffled), shift)
        cut = rng.randint(1, len(shuffled))
        right = [_fuse(R, shuffled[:cut])] + shuffled[cut:] + [shift]
        return M(left), M(right)
    if single:
        return M(left), random_linear_formula(rng, R, 3)
    return M(left), M(random_linear_formula(rng, R, 3) for _ in range(rng.randint(0, 3)))


def random_t4_formula(rng, R, depth: int):
    """Implication/fusion formulas over a, b, c (the T4 matrix's connectives)."""
    if depth <= 0 or rng.random() < 0.15:
        return R.Atom(rng.choice("abc"))
    if rng.random() < 0.15:
        f = random_t4_formula(rng, R, depth - 1)
        return R.Imp(f, f)  # always designated in T4
    ctor = R.Imp if rng.random() < 0.7 else R.Fusion
    return ctor(random_t4_formula(rng, R, depth - 1),
                random_t4_formula(rng, R, depth - 1))


def random_matrix_query(rng, R):
    premises = [random_t4_formula(rng, R, 3) for _ in range(rng.randint(0, 2))]
    if premises and rng.random() < 0.3:
        conclusion = rng.choice(premises)
    else:
        conclusion = random_t4_formula(rng, R, 3)
    return R.FMultiset(premises), conclusion


def closure_size(R, formulas) -> int:
    """The number of distinct subformulas, which sets the search universe."""
    return len(set().union(*(R.syntax.subformulas(f) for f in formulas)))


def random_text_formula(rng, R, depth):
    """A random formula and its fully bracketed text, built independently."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.55:
            name = rng.choice("abcde")
            return R.Atom(name), name
        if roll < 0.9:
            k = rng.randint(-3, 3)
            return R.numeral(k), str(k)
        return R.TRUTH, "t"
    if rng.random() < 0.15:
        body, text = random_text_formula(rng, R, depth - 1)
        return R.Neg(body), f"~({text})"
    ctor, op = rng.choice(((R.Imp, "->"), (R.Fusion, "o"), (R.Conj, "/\\"),
                           (R.Disj, "\\/")))
    left, lt = random_text_formula(rng, R, depth - 1)
    right, rt = random_text_formula(rng, R, depth - 1)
    return ctor(left, right), f"({lt}) {op} ({rt})"
