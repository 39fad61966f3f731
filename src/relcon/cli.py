"""relcon: command-line front end.

Each command prints its body and returns its RESULT word and exit code;
``main`` prints the last stdout line, ``RESULT <word>``.  README "The CLI"
tables each command's words and exit codes.  A usage error exits 2 with no
RESULT line.
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
    MatrixOracle,
    SingleAtomThresholdOracle,
    countermodel_search,
    load_matrix,
    matrix_eval,
    parse_valuation,
)
from .symmetric import (
    DerivationOracle,
    Symmetrization,
    TreeSearchOracle,
    check_derivation,
    derive_search,
    dump_derivation,
    load_derivation,
    symmetrize_query,
)
from .syntax import (
    MAX_NUMERAL,
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

# the derivation commands' exit codes, by RESULT word
_DERIVATION_EXIT = {"relevant": 0, "plain": 1, "invalid": 2, "unknown": 3}

# a law result's status as the laws command prints it
_LAW_STATUS = {"passed": "PASS", "counterexample": "FAIL", "inconclusive": "UNKNOWN"}


class UsageError(Exception):
    pass


def _verdict(verdict: Verdict) -> tuple[str, int]:
    return str(verdict), _VERDICT_EXIT[verdict]


def _int(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} needs an integer, not {text!r}") from None


def _default_seed() -> int:
    env = os.environ.get("RELCON_SEED")
    return _int("RELCON_SEED", env) if env else 0


def _bound(text: str) -> int:
    """The argparse type of a search or grid bound: an integer of at least 0."""
    try:
        n = int(text)
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"needs a bound of at least 0, not {n}")
    return n


def _inputs(args) -> list:
    """Read the input flags the command was given, in the table's order."""
    # built per call, so it holds this module's current names: perfbench's
    # tracer wraps the readers in place
    readers = {"system": load_system, "premises": parse_multiset,
               "goal": parse_formula, "conclusions": parse_multiset}
    return [read(getattr(args, flag)) for flag, read in readers.items()
            if getattr(args, flag, None) is not None]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# the named oracles, each built fresh per call from a theorem basis or None;
# only z, p and z_m use it (z_m's is z's: []'s only submultiset is []); leq
# has no theorems, so its basis is empty
_ORACLES = {
    "z": lambda basis: AbelianOracle("z", theorem_basis=basis),
    "p": lambda basis: AbelianOracle("p", theorem_basis=basis),
    "leq": lambda _: AbelianOracle("leq", theorem_basis=[]),
    "z_m": lambda basis: MonotonicCompanion(AbelianOracle("z", theorem_basis=basis)),
    "zsym": lambda _: AbelianSymmetricOracle(),
    "psym": lambda _: Symmetrization(AbelianOracle("p")),
    "ex54": lambda _: SingleAtomThresholdOracle(),
    "identity": lambda _: IdentityOracle(),
    "identity_m": lambda _: MonotonicCompanion(IdentityOracle()),
}


def _system_oracle(path: str):
    system = load_system(path)
    return DerivationOracle(system) if system.symmetric else TreeSearchOracle(system)


# the oracle spec prefixes: "<prefix>:<file>" is the oracle built from the
# file's path, a system (.rcs) or a matrix (.mat)
_SPEC_PREFIXES = {
    "system": _system_oracle,
    "matrix": lambda path: MatrixOracle(load_matrix(path)),
}


def make_oracle(spec: str, basis=None):
    """A named oracle (a key of ``_ORACLES``) built from ``basis``, or one
    built from a file, ``<prefix>:<file>`` (a key of ``_SPEC_PREFIXES``)."""
    if spec in _ORACLES:
        return _ORACLES[spec](basis)
    prefix, colon, path = spec.partition(":")
    if colon and prefix in _SPEC_PREFIXES:
        return _SPEC_PREFIXES[prefix](path)
    raise UsageError(f"unknown oracle {spec!r}")


# the integer domain keys and the SampleDomain fields they set
_DOMAIN_FIELDS = {"size": "max_size", "seed": "seed", "cap": "exhaustive_cap",
                  "samples": "sample_count"}


def _atom(name: str) -> Atom:
    """The atom ``name``, which must read back as itself in a formula."""
    try:
        if parse_formula(name) == Atom(name):
            return Atom(name)
    except ParseError:
        pass
    raise UsageError(f"domain atom {name!r} does not parse as an atom")


def _formula(what: str, text: str):
    """The formula ``text``; one that does not parse is a usage error about ``what``."""
    try:
        return parse_formula(text)
    except ParseError as e:
        raise UsageError(f"{what}: {e}") from None


def make_domain(spec: str, seed: int) -> SampleDomain:
    """Domain spec: comma-separated key=value pairs.

    Keys: numerals=LO..HI | atoms=x+y+z | formulas=f1;f2;..., size=N,
    seed=N, cap=N, samples=N; numerals, atoms and formulas add up, and the
    other keys may each appear once.  ``numerals`` ends at the literal range,
    ``|LO|`` and ``|HI|`` at most syntax.MAX_NUMERAL, so that every witness
    prints as text that parses back.  The formulas are separated by ``;``,
    which the formula grammar does not use.  ``cap`` bounds the class tuples
    a check walks where image classes apply, and its instances elsewhere;
    above it, a check samples.
    """
    formulas: list = []
    fields: dict = {}
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
            if max(abs(lo), abs(hi)) > MAX_NUMERAL:
                # a witness must print as literals that parse back
                raise UsageError(f"{what} allows numerals with |n| <= {MAX_NUMERAL}, "
                                 f"not {lo}..{hi}")
            formulas.extend(numeral(k) for k in range(lo, hi + 1))
        elif key == "atoms":
            formulas.extend(_atom(a) for a in value.split("+") if a)
        elif key == "formulas":
            formulas.extend(_formula(what, f) for f in value.split(";") if f.strip())
        elif key in _DOMAIN_FIELDS:
            if _DOMAIN_FIELDS[key] in fields:
                raise UsageError(f"repeated {what}")
            n = fields[_DOMAIN_FIELDS[key]] = _int(what, value)
            if n < 0 and key != "seed":
                raise UsageError(f"{what} needs a count of at least 0, not {n}")
        else:
            raise UsageError(f"unknown domain key {key!r}")
    if not formulas:
        raise UsageError("domain needs numerals=LO..HI, atoms=a+b or formulas=f;g")
    return SampleDomain(tuple(formulas), **{"seed": seed, **fields})


# -- subcommands -----------------------------------------------------------------


def cmd_parse(args) -> tuple[str, int]:
    if args.formula is not None:
        print(print_formula(parse_formula(args.formula)))
    elif args.multiset is not None:
        print(print_multiset(parse_multiset(args.multiset)))
    else:
        print(print_system(*_inputs(args)), end="")
    return "ok", EXIT_OK


def cmd_check_proof(args) -> tuple[str, int]:
    system, premises, goal = _inputs(args)
    report = verify_report(load_proof(_read(args.proof)), system, premises, goal)
    for problem in report.problems:
        print(f"problem: {problem}")
    if report.verdict is RelevanceVerdict.INVALID:
        print(f"leaf surplus beyond premises: {print_multiset(report.surplus)}")
    return str(report.verdict), EXIT_OK if report.verdict >= RelevanceVerdict.PLAIN else EXIT_FAIL


def cmd_search(args) -> tuple[str, int]:
    tree = search(*_inputs(args), max_nodes=args.max_nodes)
    if tree is None:
        return "unknown", EXIT_UNKNOWN
    print(dump_proof(tree))
    return "found", EXIT_OK


def cmd_check_derivation(args) -> tuple[str, int]:
    system, premises, conclusions = _inputs(args)
    derivation = load_derivation(_read(args.derivation))
    word = str(check_derivation(derivation, system, premises, conclusions))
    return word, _DERIVATION_EXIT[word]


def cmd_derive(args) -> tuple[str, int]:
    result = derive_search(*_inputs(args), max_steps=args.max_steps,
                           max_formula_size=args.max_size,
                           max_multiset_size=args.max_multiset)
    caps = ", ".join(sorted(result.pruned_by))
    if result.found:
        print(dump_derivation(result.derivation))
        word = "relevant"
    elif result.status == "exhausted":
        print(f"search exhausted; caps that cut: {caps or 'none'}")
        word = "invalid"
    else:
        print(f"search truncated by: {caps}")
        word = "unknown"
    return word, _DERIVATION_EXIT[word]


def cmd_symmetrize(args) -> tuple[str, int]:
    oracle = make_oracle(args.oracle)
    if oracle.symmetric:
        raise UsageError("symmetrize expects an asymmetric oracle")
    return _verdict(symmetrize_query(oracle, *_inputs(args), partition_cap=args.cap))


def cmd_matrix_eval(args) -> tuple[str, int]:
    matrix = load_matrix(args.matrix)
    formula = parse_formula(args.formula)
    valuation = parse_valuation(args.valuation or "")
    value = matrix_eval(matrix, valuation, formula)
    designated = value in matrix.designated
    print(f"value {value}")
    print(f"designated {'yes' if designated else 'no'}")
    return str(value), EXIT_OK if designated else EXIT_FAIL


def cmd_matrix_refute(args) -> tuple[str, int]:
    matrix = load_matrix(args.matrix)
    valuation = countermodel_search(matrix, parse_formula(args.formula))
    if valuation is None:
        return "valid", EXIT_FAIL
    for atom in sorted(valuation):
        print(f"{atom} = {valuation[atom]}")
    return "refuted", EXIT_OK


def cmd_abelian(args) -> tuple[str, int]:
    oracle = AbelianOracle(args.kind, grid_bound=args.grid_bound)
    return _verdict(oracle.entails(*_inputs(args)))


def _law_line(name: str, result) -> str:
    return f"LAW {name} {_LAW_STATUS[result.status]} {result.witness_str()}".rstrip()


def cmd_laws(args) -> tuple[str, int]:
    dom = make_domain(args.dom, args.seed)
    # the theorems are 0 and the domain's nonnegative numerals, so the basis
    # never outgrows the domain
    values = {0} | {n for f in dom.formulas
                     if (n := numeral_value(f)) is not None and n >= 0}
    oracle = make_oracle(args.oracle, [numeral(k) for k in sorted(values)])
    if args.action == "classify":
        report = classify(oracle, dom)
        for name in sorted(report.results):
            print(_law_line(name, report.results[name]))
        errors = report.consistency_errors
        for err in errors:
            print(f"INCONSISTENT {err}")
        print(report.summary())
        return ("inconsistent", EXIT_FAIL) if errors else ("ok", EXIT_OK)
    wanted = None if args.laws == "all" else [s.strip() for s in args.laws.split(",")]
    if wanted:
        known = set(law_names(oracle.symmetric))
        bad = [w for w in wanted if w not in known]
        if bad:
            raise UsageError(f"unknown laws for this oracle kind: {', '.join(bad)}")
    for name, r in check_laws(oracle, dom, wanted).items():
        mode = "exhaustive" if r.exhaustive else "sampled"
        print(f"{_law_line(name, r)}  [{mode}, {r.checked} instances]")
    return "ok", EXIT_OK


def cmd_theory(args) -> tuple[str, int]:
    oracle = make_oracle(args.oracle)
    if not oracle.symmetric:
        raise UsageError("theory operations need a symmetric oracle")
    if args.member is not None and args.op != "contains":
        raise UsageError(f"--member goes only with theory contains, not {args.op}")
    handles = [TheoryHandle(parse_multiset(g), oracle) for g in args.gens]
    if args.op == "contains":
        if len(handles) != 1 or args.member is None:
            raise UsageError("theory contains needs one --gens and --member")
        return _verdict(th_contains(handles[0], parse_multiset(args.member)))
    if len(handles) != 2:
        raise UsageError(f"theory {args.op} needs two --gens")
    if args.op == "add":
        print(f"generator {print_multiset(th_add(*handles).generator)}")
        return "ok", EXIT_OK
    return _verdict((th_eq if args.op == "eq" else th_leq)(*handles))


# -- wiring ------------------------------------------------------------------------


def _command(sub, name: str, help: str, fn, *required, **defaults):
    """Add the subcommand ``name``, run by ``fn``, with its ``required``
    arguments in order: each a flag (``--system``) or a positional's name,
    bare or in a (name, add_argument keywords) pair.  Returns its parser, for
    the optional flags."""
    p = sub.add_parser(name, help=help)
    for arg in required:
        arg, kw = (arg, {}) if isinstance(arg, str) else arg
        if arg.startswith("--"):
            kw = {"required": True, **kw}
        p.add_argument(arg, **kw)
    p.set_defaults(fn=fn, **defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcon",
        description="relevant (multiset-based) consequence relations toolkit")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for sampled checks (default: $RELCON_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)
    invalid = _DERIVATION_EXIT["invalid"]

    what = _command(sub, "parse", "parse and reprint input", cmd_parse
                    ).add_mutually_exclusive_group(required=True)
    what.add_argument("--formula")
    what.add_argument("--multiset")
    what.add_argument("--system")

    _command(sub, "check-proof", "verify a proof tree file", cmd_check_proof,
             "--system", "--premises", "--goal", "--proof")

    _command(sub, "search", "bounded search for a relevant proof", cmd_search,
             "--system", "--premises", "--goal"
             ).add_argument("--max-nodes", type=_bound, default=16)

    _command(sub, "check-derivation",
             "verify a derivation file (exit 0 relevant, 1 plain, 2 invalid)",
             cmd_check_derivation, "--system", "--premises", "--conclusions",
             "--derivation", invalid=invalid)

    p = _command(sub, "derive", "bounded search for a relevant derivation "
                                "(exit 0 found, 2 none exists in bounds, 3 truncated)",
                 cmd_derive, "--system", "--premises", "--conclusions", invalid=invalid)
    p.add_argument("--max-steps", type=_bound, default=12)
    p.add_argument("--max-size", type=_bound, default=12)
    p.add_argument("--max-multiset", type=_bound, default=None)

    _command(sub, "symmetrize", "query the symmetrized oracle", cmd_symmetrize,
             "--oracle", "--premises", "--conclusions"
             ).add_argument("--cap", type=_bound, default=10 ** 6,
                            help="cap on the premises' partitions into min(n, 3) "
                                 "parts, n conclusions; past it, unknown")

    _command(sub, "matrix-eval", "evaluate a formula in a matrix", cmd_matrix_eval,
             "--matrix", "--formula").add_argument("--valuation", help="e.g. 'a=2,b=0,c=1'")

    _command(sub, "matrix-refute", "search for a refuting valuation", cmd_matrix_refute,
             "--matrix", "--formula")

    _command(sub, "abelian", "integer-semantics entailment", cmd_abelian,
             ("--kind", {"choices": ["p", "leq", "z"]}), "--premises", "--goal"
             ).add_argument("--grid-bound", type=_bound, default=8)

    _command(sub, "laws", "law battery over an oracle", cmd_laws,
             ("action", {"choices": ["check", "classify"]}),
             ("--oracle", {"help": "|".join(
                 [*_ORACLES, *(f"{prefix}:<file>" for prefix in _SPEC_PREFIXES)])}),
             ("--dom", {"help": "e.g. 'numerals=-3..3,size=3' or 'atoms=x,size=4'"})
             ).add_argument("--laws", default="all", help="'all' or comma-separated names")

    _command(sub, "theory", "principal-theory operations", cmd_theory,
             ("op", {"choices": ["eq", "leq", "contains", "add"]}), "--oracle",
             ("--gens", {"nargs": "+"})).add_argument("--member")

    return parser


# built on the first call to main and reused: argparse keeps no state
# between parses, and $RELCON_SEED and $COLUMNS are read per call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = None
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:
            if e.code not in (0, None):
                return EXIT_USAGE
            code = 0  # --help has written its text
        else:
            if args.seed is None:
                args.seed = _default_seed()
            word, code = args.fn(args)
            print(f"RESULT {word}")
        # a failing write surfaces here, not at exit; print skips a closed stdout
        print(end="", flush=True)
        return code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, EvalError, OSError, ValueError, RecursionError) as e:
        # malformed, missing, unreadable or too deep input, or an unwritable
        # stdout: a derivation command's parser sets the exit code of an
        # invalid derivation
        print(f"error: {e}", file=sys.stderr)
        try:
            print("RESULT invalid", flush=True)
        except OSError:
            # stdout is unwritable: the exit flush goes to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return getattr(args, "invalid", EXIT_FAIL)


if __name__ == "__main__":
    sys.exit(main())
