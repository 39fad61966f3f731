"""A seeded fuzz of the command line.

Every subcommand is called in process on random formula and multiset text
(some formulas nested 1000-3000 levels deep, which parse and then meet the
recursive layers) and on random files (bytes, JSON of random shape, mangled
fixtures, and directories and missing paths where a file should be), with
tiny search bounds.  Whatever the input, the contract holds: the exit code
is 0-3, and unless it is 2 (a usage error) exactly one stdout line starts
with ``RESULT ``, and it is the last line.  (That holds for these inputs,
whose atom names never spell RESULT: a body line such as matrix-refute's
``RESULT = 0`` could.)
"""

import json
import random

import pytest

from relcon.cli import main
from conftest import FIXTURES

SYSTEMS = ["bci.rcs", "bci_fusion.rcs", "bci_weak.rcs", "t_fusion.rcs", "toy_xy.rcs"]
ORACLES = ["z", "p", "leq", "z_m", "zsym", "psym", "ex54", "identity", "identity_m",
           "nonsense"]
LEAVES = ["p", "q", "r", "0", "1", "2", "-1", "t"]
TOKENS = LEAVES + ["o", "~", "->", "/\\", "\\/", "(", ")", "[", "]", ",", "'p'", "|-",
                   "?", "-", "9999", ""]
RULE_NAMES = ["mp", "I", "B", "C", "K", "x", ""]


def formula_text(rng, depth=2, ops=("~", "->", "o", "/\\", "\\/"), leaves=LEAVES):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(leaves)
    op = rng.choice(ops)
    if op == "~":
        return "~" + formula_text(rng, depth - 1, ops, leaves)
    return (f"({formula_text(rng, depth - 1, ops, leaves)} {op} "
            f"{formula_text(rng, depth - 1, ops, leaves)})")


def junk_text(rng):
    return " ".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 6)))


def deep_text(rng):
    """A formula 1000-3000 levels deep: p in nested parentheses, a ~ tower, or
    a printed right-nested implication chain."""
    n = rng.randint(1000, 3000)
    return rng.choice(["(" * n + "p" + ")" * n, "~" * n + "p",
                       "p -> (" * (n - 1) + "p -> p" + ")" * (n - 1)])


def any_formula(rng):
    roll = rng.random()
    if roll < 0.7:
        return formula_text(rng)
    return deep_text(rng) if roll < 0.85 else junk_text(rng)


def any_multiset(rng):
    if rng.random() < 0.15:
        return junk_text(rng)
    return "[" + ", ".join(formula_text(rng, 1) for _ in range(rng.randint(0, 3))) + "]"


def json_value(rng, depth=3):
    """A random JSON value, often shaped like a proof node or derivation record."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice([None, True, 0, -3, 1.5, "", "premise", any_formula(rng), [], {}])
    if roll < 0.45:
        return [json_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if roll < 0.75:
        node = {"formula": any_formula(rng) if rng.random() < 0.9 else json_value(rng, 0)}
        if rng.random() < 0.7:
            node["by"] = rng.choice([
                "premise", {"axiom": rng.choice(RULE_NAMES)}, {"rule": rng.choice(RULE_NAMES)},
                {"rule": "mp", "subst": {"p": any_formula(rng)}},
                {"axiom": "I", "subst": json_value(rng, 1)}, json_value(rng, depth - 1)])
        if rng.random() < 0.5:
            node["children"] = [json_value(rng, depth - 1) for _ in range(rng.randint(0, 2))]
        return node
    records = [{"multiset": any_multiset(rng)} for _ in range(rng.randint(1, 3))]
    for rec in records[1:] if rng.random() < 0.8 else records:
        rec["by"] = rng.choice([{"rule": rng.choice(RULE_NAMES)},
                                {"rule": "mp", "subst": {"q": any_formula(rng)}},
                                json_value(rng, 1)])
    return records


def mangled(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars) + 1)
        if rng.random() < 0.5 and i < len(chars):
            del chars[i]
        else:
            chars.insert(i, rng.choice("()[]:,|-~o'#\n x"))
    return "".join(chars)


def write(path, rng, fixture=None):
    """Random bytes, random JSON or a (possibly mangled) fixture at path, or
    in place of a file a directory or a path that does not exist."""
    roll = rng.random()
    if fixture is not None and roll < 0.6:
        text = (FIXTURES / fixture).read_text()
        path.write_text(mangled(rng, text) if roll < 0.15 else text)
    elif roll < 0.75:
        path.write_text(json.dumps(json_value(rng)))
    elif roll < 0.9:
        path.write_bytes(rng.randbytes(rng.randint(0, 40)))
    elif roll < 0.95:
        directory = path.with_suffix(".d")
        directory.mkdir(exist_ok=True)
        return str(directory)
    else:
        return str(path.with_suffix(".missing"))
    return str(path)


def system_file(rng, tmp_path):
    return write(tmp_path / "system.rcs", rng, rng.choice(SYSTEMS))


def domain(rng):
    if rng.random() < 0.1:
        return junk_text(rng)
    lo = rng.randint(-2, 1)
    values = (f"numerals={lo}..{lo + rng.randint(0, 2)}" if rng.random() < 0.6
              else "atoms=" + "+".join(rng.sample("pqr", rng.randint(1, 2))))
    return f"{values},size={rng.randint(0, 1)}"


def matrix_spec(rng, tmp_path):
    """A ``matrix:`` oracle spec over T4, often mangled, or a file that is no matrix."""
    return f"matrix:{write(tmp_path / 'o.mat', rng, 't4.mat')}"


def argv_for(command, rng, tmp_path):
    if command == "parse":
        flag = rng.choice(["--formula", "--multiset", "--system", None])
        if flag is None:
            return ["parse"]
        value = {"--formula": any_formula, "--multiset": any_multiset,
                 "--system": lambda r: system_file(r, tmp_path)}[flag](rng)
        return ["parse", flag, value]
    if command in ("check-proof", "search"):
        argv = [command, "--system", system_file(rng, tmp_path),
                "--premises", any_multiset(rng), "--goal", any_formula(rng)]
        if command == "search":
            return argv + ["--max-nodes", str(rng.randint(-1, 3))]
        if rng.random() < 0.3:  # the fixture's own premises and goal
            argv[3:7] = ["--premises", rng.choice(["[p -> q, p]", "[p -> q, p, p]"]),
                         "--goal", "q"]
        return argv + ["--proof", write(tmp_path / "tree.proof", rng, "mp.proof")]
    if command in ("check-derivation", "derive"):
        argv = [command, "--system", system_file(rng, tmp_path),
                "--premises", any_multiset(rng), "--conclusions", any_multiset(rng)]
        if command == "derive":
            return argv + ["--max-steps", str(rng.randint(0, 1)),
                           "--max-size", str(rng.randint(0, 5))]
        if rng.random() < 0.3:  # the fixture's own premises and conclusions
            argv[3:7] = ["--premises", "[a, a, a, a -> b, a -> c]",
                         "--conclusions", rng.choice(["[a, b, c]", "[b, c]"])]
        return argv + ["--derivation", write(tmp_path / "steps.drv", rng, "bci_sym.drv")]
    if command == "symmetrize":
        oracle = rng.choice(ORACLES + [matrix_spec(rng, tmp_path)])
        return [command, "--oracle", oracle, "--premises", any_multiset(rng),
                "--conclusions", any_multiset(rng), "--cap", str(rng.randint(0, 30))]
    if command in ("matrix-eval", "matrix-refute"):
        # T4 interprets -> and o only
        formula = (formula_text(rng, 3, ("->", "o"), ["p", "q", "r"]) if rng.random() < 0.6
                   else any_formula(rng))
        argv = [command, "--matrix", write(tmp_path / "m.mat", rng, "t4.mat"),
                "--formula", formula]
        if command == "matrix-eval" and rng.random() < 0.8:
            argv += ["--valuation", rng.choice(
                ["p=1,q=3,r=0", "p=2,q=2,r=2", "p=0", "p=9", "p", "r=2,"])]
        return argv
    if command == "abelian":
        return [command, "--kind", rng.choice(["z", "p", "leq", "zz"]),
                "--premises", any_multiset(rng), "--goal", any_formula(rng),
                "--grid-bound", str(rng.randint(0, 2))]
    if command == "laws":
        oracle = rng.choice(ORACLES[:-1] + [f"system:{write(tmp_path / 'o.rcs', rng)}",
                                            matrix_spec(rng, tmp_path)])
        argv = [command, rng.choice(["check", "classify"]), "--oracle", oracle,
                "--dom", domain(rng)]
        if rng.random() < 0.5:
            argv += ["--laws", rng.choice(["all", "Reflexivity", "Cut,Monotonicity", "Nope"])]
        return argv
    assert command == "theory"
    op = rng.choice(["eq", "leq", "contains", "add"])
    gens = [any_multiset(rng) for _ in range(rng.randint(1, 2))]
    argv = [command, op, "--oracle", rng.choice(["zsym", "psym", "z"]), "--gens", *gens]
    if rng.random() < 0.6:
        argv += ["--member", any_multiset(rng)]
    return argv


COMMANDS = ["parse", "check-proof", "search", "check-derivation", "derive", "symmetrize",
            "matrix-eval", "matrix-refute", "abelian", "laws", "theory"]


@pytest.mark.parametrize("seed", range(3))
def test_cli_keeps_its_contract_on_random_input(capsys, tmp_path, seed):
    rng = random.Random(seed)
    for i in range(100):
        argv = argv_for(COMMANDS[i % len(COMMANDS)], rng, tmp_path)
        try:
            code = main(argv)
        except Exception as e:  # a traceback breaks the contract
            pytest.fail(f"{argv!r} raised {e!r}")
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), argv
        if code != 2:
            lines = out.splitlines()
            assert lines and lines[-1].startswith("RESULT "), (argv, out)
            assert sum(ln.startswith("RESULT ") for ln in lines) == 1, (argv, out)
