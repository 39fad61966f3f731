import random
from pathlib import Path

import pytest

from relcon import (
    AbelianOracle,
    AbelianSymmetricOracle,
    Atom,
    AxiomaticSystem,
    Consecution,
    Derivation,
    FMultiset,
    Fusion,
    Imp,
    NamedRule,
    ProofTree,
    RuleApp,
    RuleJust,
    SingleAtomThresholdOracle,
    Symmetrization,
    load_system,
    numeral,
    premise_leaf,
    axiom_leaf,
)
from relcon.laws import ClassifyReport, LawResult, SampleDomain
from relcon.symmetric import AsymmetricPart

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def inconsistent_report() -> ClassifyReport:
    """A classification in which Reflexivity and Cut pass and RelevantCut,
    which the two force in an asymmetric relation, has a counterexample."""
    results = {n: LawResult(n, "passed") for n in ("Reflexivity", "Cut")}
    results["RelevantCut"] = LawResult(
        "RelevantCut", "counterexample", {"G": FMultiset([numeral(1)]), "p": numeral(2)})
    return ClassifyReport("o", False, results)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def bci() -> AxiomaticSystem:
    return load_system(FIXTURES / "bci.rcs")


@pytest.fixture(scope="session")
def bcio() -> AxiomaticSystem:
    return load_system(FIXTURES / "bci_fusion.rcs")


@pytest.fixture(scope="session")
def t_fusion() -> AxiomaticSystem:
    return load_system(FIXTURES / "t_fusion.rcs")


@pytest.fixture(scope="session")
def toy_xy() -> AxiomaticSystem:
    return load_system(FIXTURES / "toy_xy.rcs")


@pytest.fixture(scope="session")
def bci_weak() -> AxiomaticSystem:
    return load_system(FIXTURES / "bci_weak.rcs")


NUMERALS = tuple(numeral(k) for k in range(-3, 4))
NONNEG_NUMERALS = tuple(numeral(k) for k in range(0, 4))


def make_z_oracle() -> AbelianOracle:
    return AbelianOracle("z", theorem_basis=list(NONNEG_NUMERALS))


def make_p_oracle() -> AbelianOracle:
    return AbelianOracle("p", theorem_basis=list(NONNEG_NUMERALS))


@pytest.fixture()
def z_oracle() -> AbelianOracle:
    return make_z_oracle()


@pytest.fixture()
def p_oracle() -> AbelianOracle:
    return make_p_oracle()


@pytest.fixture()
def zsym() -> AbelianSymmetricOracle:
    return AbelianSymmetricOracle()


@pytest.fixture()
def psym() -> Symmetrization:
    return Symmetrization(make_p_oracle())


@pytest.fixture()
def ex54() -> SingleAtomThresholdOracle:
    return SingleAtomThresholdOracle()


@pytest.fixture()
def ex54_asym(ex54) -> AsymmetricPart:
    # the asymmetric part has no theorems; declare the empty basis so the
    # empty-conclusion clause is decided (vacuously) rather than unknown
    return AsymmetricPart(ex54, theorem_basis=[])


def numeral_domain(max_size: int = 3, **kw) -> SampleDomain:
    return SampleDomain(NUMERALS, max_size=max_size, **kw)


def x_domain(max_size: int = 4, **kw) -> SampleDomain:
    return SampleDomain((Atom("x"),), max_size=max_size, **kw)


# -- random generators -------------------------------------------------------


def random_formula(rng: random.Random, atoms="pqr", max_depth=3, fusion=False):
    from relcon import Imp, Fusion, Atom

    if max_depth <= 0 or rng.random() < 0.45:
        return Atom(rng.choice(atoms))
    ctor = Fusion if (fusion and rng.random() < 0.3) else Imp
    return ctor(random_formula(rng, atoms, max_depth - 1, fusion),
                random_formula(rng, atoms, max_depth - 1, fusion))


def random_relevant_proof(rng: random.Random, system: AxiomaticSystem,
                          fusion: bool = False, max_nodes: int = 12):
    """A random proof tree that is relevant by construction.

    Returns (tree, premises).  Premise leaves are used exactly once each, so
    the leaf multiset is the premise multiset plus axiom instances.
    """
    def rand(depth=2):
        return random_formula(rng, "pqr", depth, fusion)

    pool = []

    def push(tree, used):
        if tree.node_count() <= max_nodes:
            pool.append((tree, used))

    for _ in range(rng.randint(1, 2)):
        f = rand(2)
        push(premise_leaf(f), FMultiset([f]))

    for _ in range(rng.randint(1, 5)):
        tree, used = rng.choice(pool)
        v = tree.formula
        roll = rng.random()
        if roll < 0.45:
            # fresh implication premise as the major
            w = rand(1)
            major = premise_leaf(Imp(v, w))
            push(ProofTree(w, RuleJust("mp"), (major, tree)),
                 used + FMultiset([Imp(v, w)]))
        elif roll < 0.6:
            major = axiom_leaf(Imp(v, v), "I", {"p": v})
            push(ProofTree(v, RuleJust("mp"), (major, tree)), used)
        elif roll < 0.8 and isinstance(v, Imp):
            z = rand(1)
            inst = Imp(v, Imp(Imp(z, v.left), Imp(z, v.right)))
            major = axiom_leaf(inst, "B", {"p": v.left, "q": v.right, "r": z})
            push(ProofTree(Imp(Imp(z, v.left), Imp(z, v.right)),
                           RuleJust("mp"), (major, tree)), used)
        elif isinstance(v, Imp) and isinstance(v.right, Imp):
            inst = Imp(v, Imp(v.right.left, Imp(v.left, v.right.right)))
            major = axiom_leaf(inst, "C",
                               {"p": v.left, "q": v.right.left, "r": v.right.right})
            push(ProofTree(Imp(v.right.left, Imp(v.left, v.right.right)),
                           RuleJust("mp"), (major, tree)), used)

    candidates = [(t, u) for t, u in pool if u.size > 0]
    return rng.choice(candidates if candidates else pool)


def random_concrete_system(rng: random.Random, name: str) -> AxiomaticSystem:
    """A small single-conclusion system with concrete (variable-free) rules."""
    atoms = "abc"

    def rand(depth=2):
        return random_formula(rng, atoms, depth)

    rules = []
    for i in range(rng.randint(0, 2)):
        rules.append(NamedRule(f"ax{i}", Consecution(FMultiset(), rand(1))))
    for i in range(rng.randint(1, 4 - len(rules))):
        left = FMultiset(rand(1) for _ in range(rng.randint(1, 2)))
        rules.append(NamedRule(f"r{i}", Consecution(left, rand(1))))
    return AxiomaticSystem(name, rules)


def random_relevant_derivation(rng: random.Random, system: AxiomaticSystem,
                               max_steps: int = 4):
    """A derivation in a concrete (metavariable-free) system, built by applying
    random rule instances; relevant by construction since the target is
    defined as its own last step."""
    from relcon.syntax import metavars

    sym = system.lifted()
    concrete = [r for r in sym.rules
                if not any(metavars(f) for f in list(r.left) + list(r.right))]
    start = FMultiset(random_formula(rng, "abc", 1) for _ in range(rng.randint(1, 4)))
    steps = [start]
    apps = []
    for _ in range(rng.randint(0, max_steps)):
        current = steps[-1]
        moves = []
        for rule in concrete:
            left = rule.left
            if left <= current and current.size - left.size + rule.right.size <= 6:
                moves.append(rule)
        if not moves:
            break
        rule = rng.choice(moves)
        nxt = (current - rule.left) + rule.right
        steps.append(nxt)
        apps.append(RuleApp(rule.name, {}))
    return Derivation(tuple(steps), tuple(apps))
