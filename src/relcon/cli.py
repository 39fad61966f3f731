"""relcon: command-line front end.

Exit codes: 0 holds/valid, 1 fails/invalid, 2 usage error, 3 unknown or
out-of-bounds.  The derivation commands (check-derivation, derive) use the
derivation-specific mapping 0 relevant, 1 plain, 2 invalid, 3 unknown.  The
last stdout line is always machine-parsable: ``RESULT <verdict>``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .laws import (
    MonotonicCompanion,
    SampleDomain,
    check_laws,
    classify,
    law_names,
)
from .oracles import Verdict
from .semantics import (
    AbelianOracle,
    AbelianSymmetricOracle,
    EvalError,
    IdentityOracle,
    SingleAtomThresholdOracle,
    countermodel_search,
    load_matrix,
    matrix_eval,
    parse_valuation,
)
from .symmetric import (
    DerivationOracle,
    DerivationVerdict,
    Symmetrization,
    TreeSearchOracle,
    check_derivation,
    derive_search,
    dump_derivation,
    load_derivation,
    symmetrize_query,
)
from .syntax import (
    Atom,
    ParseError,
    load_system,
    numeral,
    numeral_value,
    parse_formula,
    parse_multiset,
    print_formula,
    print_multiset,
    print_system,
)
from .theory import TheoryHandle, th_add, th_contains, th_eq, th_leq
from .treeproof import RelevanceVerdict, dump_proof, load_proof, search, verify_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

_VERDICT_EXIT = {Verdict.HOLDS: EXIT_OK, Verdict.FAILS: EXIT_FAIL,
                 Verdict.UNKNOWN: EXIT_UNKNOWN}

# a law result's status as the laws command prints it
_LAW_STATUS = {"passed": "PASS", "counterexample": "FAIL", "inconclusive": "UNKNOWN"}


class UsageError(Exception):
    pass


def _result(line: str) -> None:
    print(f"RESULT {line}")


def _verdict_result(verdict: Verdict) -> int:
    _result(str(verdict))
    return _VERDICT_EXIT[verdict]


def _int(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} needs an integer, not {text!r}") from None


def _default_seed() -> int:
    env = os.environ.get("RELCON_SEED")
    return _int("RELCON_SEED", env) if env else 0


# the named oracles, each built fresh per call
_ORACLES = {
    "z": lambda: AbelianOracle("z"),
    "p": lambda: AbelianOracle("p"),
    "leq": lambda: AbelianOracle("leq"),
    "z_m": lambda: MonotonicCompanion(AbelianOracle("z")),
    "zsym": AbelianSymmetricOracle,
    "psym": lambda: Symmetrization(AbelianOracle("p")),
    "ex54": SingleAtomThresholdOracle,
    "identity": IdentityOracle,
    "identity_m": lambda: MonotonicCompanion(IdentityOracle()),
}


def make_oracle(spec: str):
    """A named oracle (a key of ``_ORACLES``), or ``system:<file>``."""
    if spec in _ORACLES:
        return _ORACLES[spec]()
    if spec.startswith("system:"):
        system = load_system(spec.split(":", 1)[1])
        if system.symmetric:
            return DerivationOracle(system)
        return TreeSearchOracle(system)
    raise UsageError(f"unknown oracle {spec!r}")


# the integer domain keys and the SampleDomain fields they set
_DOMAIN_FIELDS = {"size": "max_size", "seed": "seed", "cap": "exhaustive_cap",
                  "samples": "sample_count"}


def make_domain(spec: str, seed: int) -> SampleDomain:
    """Domain spec: comma-separated key=value pairs.

    Keys: numerals=LO..HI | atoms=x+y+z, size=N, seed=N, cap=N, samples=N.
    """
    formulas: list = []
    fields = {"seed": seed}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        what = f"domain key {key!r}"
        if key == "numerals":
            lo, _, hi = value.partition("..")
            lo, hi = _int(what, lo), _int(what, hi)
            formulas.extend(numeral(k) for k in range(lo, hi + 1))
        elif key == "atoms":
            formulas.extend(Atom(a) for a in value.split("+") if a)
        elif key in _DOMAIN_FIELDS:
            fields[_DOMAIN_FIELDS[key]] = _int(what, value)
        else:
            raise UsageError(f"unknown domain key {key!r}")
    if not formulas:
        raise UsageError("domain needs numerals=LO..HI or atoms=a+b")
    return SampleDomain(tuple(formulas), **fields)


# -- subcommands -----------------------------------------------------------------


def cmd_parse(args) -> int:
    if args.formula is not None:
        print(print_formula(parse_formula(args.formula)))
    elif args.multiset is not None:
        print(print_multiset(parse_multiset(args.multiset)))
    elif args.system is not None:
        print(print_system(load_system(args.system)), end="")
    else:
        raise UsageError("parse needs --formula, --multiset, or --system")
    _result("ok")
    return EXIT_OK


def cmd_check_proof(args) -> int:
    system = load_system(args.system)
    premises = parse_multiset(args.premises)
    goal = parse_formula(args.goal)
    with open(args.proof, "r", encoding="utf-8") as fh:
        tree = load_proof(fh.read())
    report = verify_report(tree, system, premises, goal)
    for problem in report.problems:
        print(f"problem: {problem}")
    if report.verdict is RelevanceVerdict.INVALID:
        print(f"leaf surplus beyond premises: {print_multiset(report.surplus)}")
    _result(str(report.verdict))
    return EXIT_OK if report.verdict >= RelevanceVerdict.PLAIN else EXIT_FAIL


def cmd_search(args) -> int:
    system = load_system(args.system)
    premises = parse_multiset(args.premises)
    goal = parse_formula(args.goal)
    tree = search(system, premises, goal, max_nodes=args.max_nodes)
    if tree is None:
        _result("unknown")
        return EXIT_UNKNOWN
    print(dump_proof(tree))
    _result("found")
    return EXIT_OK


def cmd_check_derivation(args) -> int:
    system = load_system(args.system)
    premises = parse_multiset(args.premises)
    conclusions = parse_multiset(args.conclusions)
    with open(args.derivation, "r", encoding="utf-8") as fh:
        derivation = load_derivation(fh.read())
    verdict = check_derivation(derivation, system, premises, conclusions)
    _result(str(verdict))
    return {DerivationVerdict.RELEVANT: 0, DerivationVerdict.PLAIN: 1,
            DerivationVerdict.INVALID: 2}[verdict]


def cmd_derive(args) -> int:
    system = load_system(args.system)
    premises = parse_multiset(args.premises)
    conclusions = parse_multiset(args.conclusions)
    result = derive_search(system, premises, conclusions,
                           max_steps=args.max_steps,
                           max_formula_size=args.max_size,
                           max_multiset_size=args.max_multiset)
    if result.found:
        print(dump_derivation(result.derivation))
        _result("relevant")
        return 0
    if result.status == "exhausted":
        _result("invalid")
        return 2
    print(f"search truncated by: {', '.join(sorted(result.pruned_by))}")
    _result("unknown")
    return 3


def cmd_symmetrize(args) -> int:
    oracle = make_oracle(args.oracle)
    if getattr(oracle, "symmetric", False):
        raise UsageError("symmetrize expects an asymmetric oracle")
    premises = parse_multiset(args.premises)
    conclusions = parse_multiset(args.conclusions)
    verdict = symmetrize_query(oracle, premises, conclusions,
                               partition_cap=args.cap)
    return _verdict_result(verdict)


def cmd_matrix_eval(args) -> int:
    matrix = load_matrix(args.matrix)
    formula = parse_formula(args.formula)
    valuation = parse_valuation(args.valuation or "")
    value = matrix_eval(matrix, valuation, formula)
    designated = value in matrix.designated
    print(f"value {value}")
    print(f"designated {'yes' if designated else 'no'}")
    _result(str(value))
    return EXIT_OK if designated else EXIT_FAIL


def cmd_matrix_refute(args) -> int:
    matrix = load_matrix(args.matrix)
    formula = parse_formula(args.formula)
    valuation = countermodel_search(matrix, formula)
    if valuation is None:
        _result("valid")
        return EXIT_FAIL
    for atom in sorted(valuation):
        print(f"{atom} = {valuation[atom]}")
    _result("refuted")
    return EXIT_OK


def cmd_abelian(args) -> int:
    oracle = AbelianOracle(args.kind, grid_bound=args.grid_bound)
    premises = parse_multiset(args.premises)
    goal = parse_formula(args.goal)
    return _verdict_result(oracle.entails(premises, goal))


def cmd_laws(args) -> int:
    dom = make_domain(args.dom, args.seed)
    if args.oracle in ("z", "p", "z_m"):
        # the theorems are 0 and the domain's nonnegative numerals, so the
        # basis never outgrows the domain; z_m has z's, since the only
        # submultiset of [] is []
        values = {0} | {n for f in dom.formulas
                         if (n := numeral_value(f)) is not None and n >= 0}
        oracle = AbelianOracle(args.oracle.removesuffix("_m"),
                               theorem_basis=[numeral(k) for k in sorted(values)])
        if args.oracle == "z_m":
            oracle = MonotonicCompanion(oracle)
    else:
        oracle = make_oracle(args.oracle)
    if args.action == "classify":
        report = classify(oracle, dom)
        for name in sorted(report.results):
            r = report.results[name]
            print(f"LAW {name} {_LAW_STATUS[r.status]} {r.witness_str()}".rstrip())
        for err in report.consistency_errors:
            print(f"INCONSISTENT {err}")
        print(report.summary())
        _result("ok" if not report.consistency_errors else "inconsistent")
        return EXIT_OK if not report.consistency_errors else EXIT_FAIL
    wanted = None if args.laws in (None, "all") else [s.strip() for s in args.laws.split(",")]
    if wanted:
        known = set(law_names(getattr(oracle, "symmetric", False)))
        bad = [w for w in wanted if w not in known]
        if bad:
            raise UsageError(f"unknown laws for this oracle kind: {', '.join(bad)}")
    results = check_laws(oracle, dom, wanted)
    for name, r in results.items():
        mode = "exhaustive" if r.exhaustive else "sampled"
        line = f"LAW {name} {_LAW_STATUS[r.status]} {r.witness_str()}".rstrip()
        print(f"{line}  [{mode}, {r.checked} instances]")
    _result("ok")
    return EXIT_OK


def cmd_theory(args) -> int:
    oracle = make_oracle(args.oracle)
    if not getattr(oracle, "symmetric", False):
        raise UsageError("theory operations need a symmetric oracle")
    gens = [parse_multiset(g) for g in args.gens]
    handles = [TheoryHandle(g, oracle) for g in gens]
    if args.op in ("eq", "leq"):
        if len(handles) != 2:
            raise UsageError(f"theory {args.op} needs two --gens")
        return _verdict_result((th_eq if args.op == "eq" else th_leq)(handles[0], handles[1]))
    if args.op == "contains":
        if len(handles) != 1 or args.member is None:
            raise UsageError("theory contains needs one --gens and --member")
        return _verdict_result(th_contains(handles[0], parse_multiset(args.member)))
    if args.op == "add":
        if len(handles) != 2:
            raise UsageError("theory add needs two --gens")
        total = th_add(handles[0], handles[1])
        print(f"generator {print_multiset(total.generator)}")
        _result("ok")
        return EXIT_OK
    raise UsageError(f"unknown theory operation {args.op!r}")


# -- wiring ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcon",
        description="relevant (multiset-based) consequence relations toolkit")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for sampled checks (default: $RELCON_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint input")
    p.add_argument("--formula")
    p.add_argument("--multiset")
    p.add_argument("--system")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("check-proof", help="verify a proof tree file")
    p.add_argument("--system", required=True)
    p.add_argument("--premises", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("search", help="bounded search for a relevant proof")
    p.add_argument("--system", required=True)
    p.add_argument("--premises", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--max-nodes", type=int, default=16)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("check-derivation",
                       help="verify a derivation file (exit 0 relevant, 1 plain, 2 invalid)")
    p.add_argument("--system", required=True)
    p.add_argument("--premises", required=True)
    p.add_argument("--conclusions", required=True)
    p.add_argument("--derivation", required=True)
    p.set_defaults(fn=cmd_check_derivation)

    p = sub.add_parser("derive",
                       help="bounded search for a relevant derivation "
                            "(exit 0 found, 2 none exists in bounds, 3 truncated)")
    p.add_argument("--system", required=True)
    p.add_argument("--premises", required=True)
    p.add_argument("--conclusions", required=True)
    p.add_argument("--max-steps", type=int, default=12)
    p.add_argument("--max-size", type=int, default=12)
    p.add_argument("--max-multiset", type=int, default=None)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("symmetrize", help="query the symmetrized oracle")
    p.add_argument("--oracle", required=True)
    p.add_argument("--premises", required=True)
    p.add_argument("--conclusions", required=True)
    p.add_argument("--cap", type=int, default=10 ** 6,
                   help="ordered-partition cap; exceeding it reports unknown")
    p.set_defaults(fn=cmd_symmetrize)

    p = sub.add_parser("matrix-eval", help="evaluate a formula in a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--valuation", help="e.g. 'a=2,b=0,c=1'")
    p.set_defaults(fn=cmd_matrix_eval)

    p = sub.add_parser("matrix-refute", help="search for a refuting valuation")
    p.add_argument("--matrix", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=cmd_matrix_refute)

    p = sub.add_parser("abelian", help="integer-semantics entailment")
    p.add_argument("--kind", choices=["p", "leq", "z"], required=True)
    p.add_argument("--premises", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--grid-bound", type=int, default=8)
    p.set_defaults(fn=cmd_abelian)

    p = sub.add_parser("laws", help="law battery over an oracle")
    p.add_argument("action", choices=["check", "classify"])
    p.add_argument("--oracle", required=True,
                   help="|".join([*_ORACLES, "system:<file>"]))
    p.add_argument("--dom", required=True,
                   help="e.g. 'numerals=-3..3,size=3' or 'atoms=x,size=4'")
    p.add_argument("--laws", default="all", help="'all' or comma-separated names")
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("theory", help="principal-theory operations")
    p.add_argument("op", choices=["eq", "leq", "contains", "add"])
    p.add_argument("--oracle", required=True)
    p.add_argument("--gens", nargs="+", required=True)
    p.add_argument("--member")
    p.set_defaults(fn=cmd_theory)

    return parser


# built on the first call to main and reused: argparse keeps no state
# between parses, and $RELCON_SEED and $COLUMNS are read per call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, EvalError, OSError, ValueError) as e:
        # malformed, missing or unreadable input: for the derivation
        # commands that is an invalid derivation, exit 2
        print(f"error: {e}", file=sys.stderr)
        _result("invalid")
        return 2 if args.command in ("check-derivation", "derive") else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
