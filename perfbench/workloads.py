"""The three workloads: their set-up, their queries and each query's check.

A workload builds its fixtures once per set-up and then hands out rounds of
queries.  A query is a call into relcon (``run``) plus a check of what came
back against the answer known in advance (``check``).  ``check`` returns
True for a definite, correct answer and False for an undecided one, and
raises ``WrongAnswer`` for a definite answer that differs from the known one
or a witness that does not re-verify.

Why these three (see also README.md):

* proof-search   -- tree-proof and derivation search; syntax matching,
                    substitution and multiset iteration do the work, the
                    oracles and the law battery are idle;
* law-battery    -- the law battery, symmetrization and theory checks; the
                    oracles answer many repeated queries, search is idle;
* fresh-check    -- the same syntax and oracle layers, but every input is
                    new: parsing, proof transforms, derivation extraction and
                    cold oracle queries, so nothing repeats.
"""

from __future__ import annotations

import io
import itertools
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import gen
import reference as ref


class WrongAnswer(Exception):
    """A definite answer that differs from the known one."""


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    limit: float = float("inf")  # a limit of its own, below the workload's


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# -- proof-search --------------------------------------------------------------

# the ladder: chains of 1, 2 and 3 implications, proofs of 3, 5 and 7 nodes
LADDER = (("[p->q, p]", "q"), ("[p->q, q->r, p]", "r"),
          ("[p->q, q->r, r->s, p]", "s"))
# the 5-node rung in four shapes (the ladder's, curried modus ponens, a
# two-link chain, permutation), in BCI under one naming of its atoms and in
# BCIo under four, since the search orders formulas by their printed form.
# The two shapes with an implication goal are the slowest in BCIo (about
# 0.15-0.3 s here, twice the other two), so the eleventh slowest query, the
# tail, is the fastest of their eight: a slow spell during a few of them does
# not move it.
FIVE_NODE = (("[{0}->{1}, {1}->{2}, {0}]", "{2}"), ("[{0}->({1}->{2}), {0}, {1}]", "{2}"),
             ("[{0}->{1}, {1}->{2}]", "{0}->{2}"), ("[{0}->({1}->{2}), {1}]", "{0}->{2}"))
NAMINGS = ("pqr", "abc", "xyz", "uvw")
# the three-link chain: a 9-node proof exists, but the search does not finish
# within minutes
CHAIN = ("[p->q, q->r, r->s]", "p->s", 11)
# Its limit is its own.  Iterative deepening works through depth 6 from
# about 0.5 s to 15 s here with flat memory, then grows its tables by about
# 2 MB/s; stopped at 1 s, peak memory and run time do not depend on how far
# a faster or slower machine gets.
CHAIN_LIMIT_S = 1.0
# The traced run bounds the chain's work instead of its time: at 5 nodes the
# search gives up on its own (None, in under a second here), so the traced
# counts depend on the seed only.
TRACED_CHAIN_NODES = 5
GOLDEN = (5 ** 0.5 - 1) / 2  # i * GOLDEN % 1 scatters neighbouring indexes
DERIVE_POSITIVE = "[a->b, a->c, a, a, a]"
DERIVE_NEGATIVE = "[a->b, a->c, a, a]"
DERIVE_TARGET = "[a, b, c]"


class ProofSearch:
    name = "proof-search"
    # three times the slowest decided query, the 7-node rung (about 8.6 s)
    limit_s = {"full": 25.0, "tiny": 3.0}
    # the nominal time of a round at the seed state: a run of --seconds S
    # runs round(S / round_s) rounds, at least one
    round_s = 30.0
    trace_rounds = 1

    def setup(self, R, root):
        return {"bci": R.load_system(os.path.join(root, "fixtures", "bci.rcs")),
                "bcio": R.load_system(os.path.join(root, "fixtures", "bci_fusion.rcs"))}

    def round(self, R, fx, rng, size, traced=False):
        ms, pf = R.parse_multiset, R.parse_formula
        bci, bcio = fx["bci"], fx["bcio"]
        fixed = []
        ladder = LADDER if size == "full" else LADDER[:2]
        for premises, goal in ladder:
            fixed.append(self._search(R, bci, ms(premises), pf(goal), {}))
        plan = ((bci, NAMINGS[:1]), (bcio, NAMINGS)) if size == "full" else ((bci, NAMINGS[:1]),)
        for system, namings in plan:
            for premises, goal in FIVE_NODE:
                for names in namings:
                    fixed.append(self._search(R, system, ms(premises.format(*names)),
                                              pf(goal.format(*names)), {}))
        premises, goal, max_nodes = CHAIN
        if traced:
            max_nodes = TRACED_CHAIN_NODES
        chain = self._search(R, bci, ms(premises), pf(goal), {"max_nodes": max_nodes})
        chain.limit = CHAIN_LIMIT_S
        fixed.append(chain)
        fixed.append(self._derive(R, bci, ms(DERIVE_POSITIVE), True))
        fixed.append(self._derive(R, bci, ms(DERIVE_NEGATIVE), False))
        # one-step goals from random relevant proofs, 2 in 5 with fusion, with
        # at most 8 distinct subformulas; the larger sizes are the fixed
        # goals' (see README)
        count = 800 if size == "full" else 20
        goals = []
        while len(goals) < count:
            fusion = len(goals) % 5 < 2
            tree, premises, _ = gen.random_relevant_proof(rng, R, 1, fusion)
            if (tree.formula in premises
                    or gen.closure_size(R, list(premises) + [tree.formula]) > 8):
                continue
            goals.append(self._search(R, bcio if fusion else bci, premises,
                                      tree.formula, {}))
        rng.shuffle(goals)
        # the fixed queries keep one order, so the heap they leave behind does
        # not depend on the seed; it spreads each group of similar goals over
        # the round, and the random goals go between them, so that a slow
        # spell of the machine hits few of any group
        fixed = [fixed[i] for i in sorted(range(len(fixed)), key=lambda i: i * GOLDEN % 1)]
        queries = []
        for i, q in enumerate(fixed):
            queries.append(q)
            queries.extend(goals[i * count // len(fixed):(i + 1) * count // len(fixed)])
        return queries

    def _search(self, R, system, premises, goal, bounds):
        # every goal here has a relevant proof: the known answer is "found";
        # None only says "nothing within the bounds" and is undecided
        def check(tree):
            if tree is None:
                return False
            verdict = R.verify(tree, system, premises, goal)
            expect(verdict >= R.RelevanceVerdict.RELEVANT,
                   f"search witness for {R.print_formula(goal)} verifies as {verdict}")
            return True
        return Query("search", lambda: R.search(system, premises, goal, **bounds), check)

    def _derive(self, R, bci, premises, positive):
        target = R.parse_multiset(DERIVE_TARGET)

        def check(result):
            if result.status == "truncated":
                return False
            if positive:
                expect(result.status == "found", f"positive derivation {result.status}")
                verdict = R.check_derivation(result.derivation, bci, premises, target)
                expect(verdict is R.DerivationVerdict.RELEVANT,
                       f"derivation witness checks as {verdict}")
            else:
                expect(result.status == "exhausted", f"negative derivation {result.status}")
            # lifted BCI lies inside the integer-sum relation, so a found
            # derivation needs zsym HOLDS and zsym FAILS certifies exhausted
            zsym = R.AbelianSymmetricOracle().entails(premises, target)
            brute = ref.sum_leq_reference(list(premises), list(target), R, "abc")
            expect(zsym is (R.HOLDS if positive else R.FAILS) and brute == positive,
                   f"zsym certificate disagrees with derive_search {result.status}")
            return True
        return Query("derive_search", lambda: R.derive_search(
            bci, premises, target, max_steps=8, max_formula_size=7), check)


# -- law-battery -----------------------------------------------------------------

NONNEG = range(0, 4)
# Spot checks: a law the relation satisfies (PASS in the table) passes on
# every sample domain, so each round also checks each such law, SPOT_REPEATS
# times, on small domains of seeded numerals.  They cost 0.03-30 ms each, and
# with them the median query rests on many checks instead of the few
# criterion checks near it.  Which laws and how large the domains are is the
# same for every seed, so the mix of costs is too.
SPOT_REPEATS = 6


class LawBattery:
    name = "law-battery"
    limit_s = {"full": 10.0, "tiny": 10.0}
    round_s = 30.0
    trace_rounds = 1

    def setup(self, R, root):
        return {"oracles": self.oracles(R)}

    @staticmethod
    def oracles(R):
        def with_basis(kind):
            o = R.AbelianOracle(kind)
            o.theorem_basis = [R.numeral(k) for k in NONNEG]
            return o
        ex54 = R.SingleAtomThresholdOracle()
        return {"z": with_basis("z"), "p": with_basis("p"),
                "zsym": R.AbelianSymmetricOracle(),
                "psym": R.Symmetrization(with_basis("p")),
                "ex54": ex54, "identity": R.IdentityOracle(),
                "ex54_asym": R.AsymmetricPart(ex54, theorem_basis=[]),
                "z_rt": with_basis("z"), "psym_rt": R.Symmetrization(with_basis("p"))}

    def round(self, R, fx, rng, size, traced=False):
        # fresh oracles each round, so their memo tables start empty
        o = fx.pop("oracles", None) or self.oracles(R)
        seed = rng.randrange(2 ** 31)

        def numerals(lo, hi, n):
            return R.SampleDomain(tuple(R.numeral(k) for k in range(lo, hi + 1)),
                                  max_size=n, seed=seed)

        def xs(n):
            return R.SampleDomain((R.Atom("x"),), max_size=n, seed=seed)

        if size == "full":
            # criterion 08: classify z, p, ex54; check_laws on the symmetric
            # fixtures
            plan = [("z", "z", numerals(-3, 3, 3)), ("p", "p", numerals(-3, 3, 3)),
                    ("ex54", "ex54", xs(4)), ("zsym", "zsym", numerals(-3, 3, 2)),
                    ("psym", "psym", numerals(-3, 3, 2)), ("ex54", "ex54", xs(3)),
                    ("identity", "identity", numerals(-3, 3, 2))]
            if traced:
                # p's classification runs the same layers as z's (the same
                # oracle class, sampled RelevantCut included), and tracing it
                # too brought the traced run near the 180 s a run may take
                plan = [entry for entry in plan if entry[0] != "p"]
            # the round trips and quotient_check at size 2, not the tests' 3:
            # at 3 they took 2-5 s each, and the traced run, where tracing
            # triples the time, took up to 144 s of the 180 s a run may take
            rt_dom, x_dom, q_dom = numerals(-3, 3, 2), xs(5), numerals(-3, 3, 2)
        else:
            plan = [("z", "z", numerals(-2, 2, 2)), ("ex54", "ex54", xs(3)),
                    ("zsym", "zsym", numerals(-2, 2, 2)),
                    ("identity", "identity", numerals(-2, 2, 2))]
            rt_dom, x_dom, q_dom = numerals(-2, 2, 2), xs(3), numerals(-2, 2, 1)
        groups = []
        for label, key, dom in plan:
            oracle = o[key]
            groups.append([self._law(R, label, oracle, law, dom)
                           for law in R.law_names(getattr(oracle, "symmetric", False))])
        # criterion 05: the symmetrization round trips, one block per query
        blocks = roundtrip_blocks(R, o, rt_dom, x_dom)
        if size != "full":
            blocks = blocks[:2]
        groups.append([Query("roundtrip", block, _no_mismatch) for block in blocks])
        # criterion 09: the quotient structure of zsym's theories
        zsym = R.AbelianSymmetricOracle()
        gens = q_dom.multisets()
        groups.append([Query("quotient_check",
                             lambda: R.quotient_check(zsym, gens), _quotient_ok)])
        if not traced:  # they steady the median; the layers gain little from them
            groups.append(self._spot_checks(R, rng, SPOT_REPEATS if size == "full" else 1))
        # round robin over the groups: each oracle still sees its checks in
        # the same order (its memo behaves as in the tests), and queries of
        # similar cost are spread over the round, so that a slow spell of the
        # machine hits few of them
        return [q for batch in itertools.zip_longest(*groups) for q in batch
                if q is not None]

    def _spot_checks(self, R, rng, repeats):
        # each on an oracle of its own, so that its cost does not depend on
        # which checks ran before it
        queries = []
        for _ in range(repeats):
            for label, laws in sorted(ref.SPOT_LAWS.items()):
                for law in laws:
                    if label == "ex54":
                        dom = R.SampleDomain((R.Atom("x"),), max_size=2)
                    else:
                        lo = rng.randint(-4, 1)
                        dom = R.SampleDomain(tuple(R.numeral(k) for k in range(lo, lo + 4)),
                                             max_size=1)
                    queries.append(self._law(R, label, self.oracles(R)[label], law, dom))
        rng.shuffle(queries)
        return queries

    def _law(self, R, label, oracle, law, dom):
        symmetric = bool(getattr(oracle, "symmetric", False))
        want = ref.law_expected(label, law)

        def check(result):
            got = ref.LAW_STATUS.get(result.status)
            if got is None:
                return False  # inconclusive
            expect(got == want, f"{label} {law}: {got}, known {want}")
            if got == ref.F:
                rel = ref.make_reference(label, R)
                expect(ref.witness_violates(law, symmetric, rel, result.witness, R),
                       f"{label} {law}: witness {result.witness_str()} is no counterexample")
            return True
        return Query("check_law", lambda: R.check_law(oracle, law, dom), check)


def _no_mismatch(mismatches: int) -> bool:
    expect(mismatches == 0, f"{mismatches} round-trip mismatches")
    return True


def _quotient_ok(report) -> bool:
    expect(report.all_ok, f"quotient_check failures: {report.failures[:2]}")
    # zsym is not monotone, so Th does not preserve the submultiset order
    expect(not report.th_monotone_mapping, "zsym theory map reported monotone")
    return True


def roundtrip_blocks(R, o, dom, xdom):
    """The symmetrization round trips; each block counts its mismatches."""
    z, ex54, ex54_asym, psym = o["z_rt"], o["ex54"], o["ex54_asym"], o["psym_rt"]
    sq, M = R.symmetrize_query, R.FMultiset
    multisets, xsets = dom.multisets(), xdom.multisets()
    x = R.Atom("x")

    def asym_part_of_symmetrization():
        bad = sum(z.entails(g, f) is not sq(z, g, M([f]))
                  for g in multisets for f in dom.formulas)
        return bad + sum(ex54_asym.entails(g, x) is not sq(ex54_asym, g, M([x]))
                         for g in xsets)

    def symmetrized_zsym_inside_zsym():
        zs = R.AbelianSymmetricOracle()
        part = R.AsymmetricPart(zs)
        return sum(sq(part, g, d) is R.HOLDS and zs.entails(g, d) is not R.HOLDS
                   for g in multisets for d in multisets if d.size)

    def symmetrized_ex54_inside_ex54():
        bad = sum(sq(ex54_asym, g, d) is R.HOLDS and ex54.entails(g, d) is not R.HOLDS
                  for g in xsets for d in xsets if d.size)
        # strictly inside: the threshold relation's own witness
        g, d = M([x, x, x]), M([x, x])
        bad += sq(ex54_asym, g, d) is not R.FAILS
        bad += ex54.entails(g, d) is not R.HOLDS
        empty, pair = M(), M([R.numeral(1), R.numeral(-1)])
        bad += sq(z, empty, pair) is not R.FAILS
        bad += R.AbelianSymmetricOracle().entails(empty, pair) is not R.HOLDS
        return bad

    def tarskian_equality():
        part = R.AsymmetricPart(psym, empty_via_base=True)
        return sum(sq(part, g, d) is not psym.entails(g, d)
                   for g in multisets for d in multisets)

    return [asym_part_of_symmetrization, symmetrized_ex54_inside_ex54,
            symmetrized_zsym_inside_zsym, tarskian_equality]


# -- fresh-check -----------------------------------------------------------------

# items per round, by kind; every item is generated fresh and used once
FRESH_MIX = {"roundtrip": 30, "proof": 20, "derivation": 15, "z": 40,
             "zsym": 20, "matrix": 15, "countermodel": 10, "cli_parse": 3,
             "cli_check_proof": 2}


class FreshCheck:
    name = "fresh-check"
    limit_s = {"full": 2.0, "tiny": 2.0}
    round_s = 2.5
    trace_rounds = 2

    def setup(self, R, root):
        t4 = R.load_matrix(os.path.join(root, "fixtures", "t4.mat"))
        work = work_dir(root)
        os.makedirs(work, exist_ok=True)
        return {"root": root, "work": work, "t4": t4,
                "bci": R.load_system(os.path.join(root, "fixtures", "bci.rcs")),
                "bcio": R.load_system(os.path.join(root, "fixtures", "bci_fusion.rcs")),
                "oracles": self.oracles(R, t4), "files": 0}

    @staticmethod
    def oracles(R, t4):
        return {"z": R.AbelianOracle("z"), "zsym": R.AbelianSymmetricOracle(),
                "matrix": R.MatrixOracle(t4)}

    def round(self, R, fx, rng, size, traced=False):
        # fresh oracles each round: the queries never repeat, so a memo only
        # grows, and a run that lasts longer should not have a larger heap
        fx.update(fx.pop("oracles", None) or self.oracles(R, fx["t4"]))
        # a full round is 1240 items, a few seconds with its checks
        scale = 8 if size == "full" else 0.34
        makers = {"roundtrip": self._roundtrip, "proof": self._proof,
                  "derivation": self._derivation, "z": self._z,
                  "zsym": self._zsym, "matrix": self._matrix,
                  "countermodel": self._countermodel,
                  "cli_parse": self._cli_parse,
                  "cli_check_proof": self._cli_check_proof}
        queries = []
        for kind, count in FRESH_MIX.items():
            for _ in range(max(1, round(count * scale))):
                queries.append(makers[kind](R, fx, rng))
        rng.shuffle(queries)
        return queries

    # parse/print round trips: the text is rendered here, fully bracketed,
    # and the expected formula is built with the constructors directly
    def _roundtrip(self, R, fx, rng):
        formula, text = gen.random_text_formula(rng, R, 4)

        def run():
            f = R.parse_formula(text)
            return f, R.parse_formula(R.print_formula(f))

        def check(result):
            f, again = result
            expect(f == formula, f"parse_formula({text!r}) gave {R.print_formula(f)}")
            expect(again == f, f"print/parse round trip changed {text!r}")
            return True
        return Query("parse_roundtrip", run, check)

    def _proof(self, R, fx, rng):
        fusion = rng.random() < 0.4
        system = fx["bcio"] if fusion else fx["bci"]
        tree, premises, axioms = gen.random_relevant_proof(
            rng, R, rng.randint(1, 5), fusion)
        phi = rng.choice(premises.distinct())
        chi = gen.random_formula(rng, R, 1, fusion)
        sub = R.ProofTree(phi, R.RuleJust("mp"),
                          (R.premise_leaf(R.Imp(chi, phi)), R.premise_leaf(chi)))
        goal = tree.formula
        known = (R.RelevanceVerdict.RELEVANT if axioms
                 else R.RelevanceVerdict.STRONGLY_RELEVANT)

        def run():
            verdict = R.verify(tree, system, premises, goal)
            discharged = R.deduction_transform(tree, system, premises, phi)
            composed = R.cut_compose(tree, sub, system, phi)
            return verdict, discharged, composed

        def check(result):
            verdict, discharged, composed = result
            expect(verdict is known, f"verify gave {verdict}, known {known}")
            rest = premises - R.FMultiset([phi])
            v1 = R.verify(discharged, system, rest, R.Imp(phi, goal))
            expect(v1 >= R.RelevanceVerdict.RELEVANT,
                   f"deduction_transform output verifies as {v1}")
            v2 = R.verify(composed, system,
                          rest + R.FMultiset([R.Imp(chi, phi), chi]), goal)
            expect(v2 is known, f"cut_compose output verifies as {v2}, known {known}")
            return True
        return Query("proof_transform", run, check)

    def _derivation(self, R, fx, rng):
        while True:
            system, derivation = gen.random_relevant_derivation(rng, R)
            conclusions = derivation.steps[-1]
            if conclusions.size:
                break
        premises = derivation.steps[0]
        phi = rng.choice(conclusions.distinct())

        def run():
            verdict = R.check_derivation(derivation, system, premises, conclusions)
            return verdict, R.extract_tree(derivation, system, premises,
                                           conclusions, phi)

        def check(result):
            verdict, ext = result
            expect(verdict is R.DerivationVerdict.RELEVANT,
                   f"check_derivation gave {verdict}, known relevant")
            expect(ext.premises_used + ext.premises_rest == premises,
                   "extraction lost premises")
            v = R.verify(ext.tree, system, ext.premises_used, phi)
            expect(v >= R.RelevanceVerdict.RELEVANT, f"extracted tree verifies as {v}")
            rest = R.check_derivation(ext.residual, system, ext.premises_rest,
                                      conclusions - R.FMultiset([phi]))
            expect(rest is R.DerivationVerdict.RELEVANT, f"residual checks as {rest}")
            return True
        return Query("derivation_extract", run, check)

    def _z(self, R, fx, rng):
        premises, conclusion = gen.random_sum_query(rng, R, single=True)
        oracle = fx["z"]
        return Query("entails_z", lambda: oracle.entails(premises, conclusion),
                     _sum_check(R, list(premises), [conclusion]))

    def _zsym(self, R, fx, rng):
        premises, conclusions = gen.random_sum_query(rng, R, single=False)
        oracle = fx["zsym"]
        return Query("entails_zsym", lambda: oracle.entails(premises, conclusions),
                     _sum_check(R, list(premises), list(conclusions)))

    def _matrix(self, R, fx, rng):
        t4, oracle = fx["t4"], fx["matrix"]
        premises, conclusion = gen.random_matrix_query(rng, R)
        names = sorted(set().union(*(R.syntax.atoms(f) for f in
                                     list(premises) + [conclusion])))

        def check(verdict):
            known = ref.t4_entails(t4, list(premises), conclusion, names, R)
            expect(verdict is (R.HOLDS if known else R.FAILS),
                   f"matrix:T4 gave {verdict}, tables say {known}")
            return True
        return Query("entails_matrix", lambda: oracle.entails(premises, conclusion), check)

    def _countermodel(self, R, fx, rng):
        t4 = fx["t4"]
        f = gen.random_t4_formula(rng, R, 3)
        names = sorted(R.syntax.atoms(f))

        def check(valuation):
            known = ref.t4_first_refutation(t4, f, names, R)
            expect(valuation == known,
                   f"countermodel_search gave {valuation}, tables say {known}")
            return True
        return Query("countermodel", lambda: R.countermodel_search(t4, f), check)

    def _cli_parse(self, R, fx, rng):
        formula, text = gen.random_text_formula(rng, R, 3)
        argv = ["parse", "--formula", text]
        return Query("cli_parse", lambda: _cli(R, argv), _cli_check(
            R, lambda lines: R.parse_formula(lines[0]) == formula, "ok"))

    def _cli_check_proof(self, R, fx, rng):
        tree, premises, axioms = gen.random_relevant_proof(rng, R, rng.randint(1, 3))
        path = os.path.join(fx["work"], f"proof{fx['files']}.json")
        fx["files"] += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(R.dump_proof(tree))
        argv = ["check-proof", "--system", os.path.join(fx["root"], "fixtures", "bci.rcs"),
                "--premises", R.print_multiset(premises),
                "--goal", R.print_formula(tree.formula), "--proof", path]
        known = "relevant" if axioms else "strongly_relevant"
        return Query("cli_check_proof", lambda: _cli(R, argv),
                     _cli_check(R, lambda lines: True, known))


def work_dir(root):
    """Where this process writes the CLI's input files; one per process."""
    return os.path.join(root, ".perfbench-work", str(os.getpid()))


def _sum_check(R, left, right):
    names = sorted(set().union(*(R.syntax.atoms(f) for f in left + right)))

    def check(verdict):
        known = ref.sum_leq_reference(left, right, R, names)
        expect(verdict is (R.HOLDS if known else R.FAILS),
               f"sum relation gave {verdict}, int_eval says {known}")
        return True
    return check


def _cli(R, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = R.cli.main(argv)
    return code, out.getvalue().splitlines(), err.getvalue()


def _cli_check(R, body_ok, result_word):
    def check(result):
        code, lines, err = result
        expect(code == 0 and lines and lines[-1] == f"RESULT {result_word}",
               f"cli {code}, output {lines[:2] + lines[-1:]}, stderr {err!r}, "
               f"known RESULT {result_word}")
        expect(body_ok(lines), f"cli output {lines[:1]} is wrong")
        return True
    return check


WORKLOADS = {w.name: w for w in (ProofSearch(), LawBattery(), FreshCheck())}
