import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relcon import (
    Atom,
    check_laws,
    classify,
    numeral,
    parse_formula,
    parse_matrix,
    parse_system,
    print_formula,
    print_matrix,
    print_system,
)
from relcon import cli
from relcon.cli import UsageError, main, make_domain, make_oracle
from relcon.laws import SampleDomain
from relcon.semantics import MatrixOracle
from relcon.symmetric import DerivationOracle, TreeSearchOracle
from test_cli_fuzz import ORACLES

FIX = "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def result_line(out: str) -> str:
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines and lines[-1].startswith("RESULT "), out
    return lines[-1][len("RESULT "):]


def test_parse_formula(capsys):
    code, out = run(capsys, "parse", "--formula", "p -> (q -> p)")
    assert code == 0
    assert "p -> (q -> p)" in out
    assert result_line(out) == "ok"


def test_parse_multiset(capsys):
    code, out = run(capsys, "parse", "--multiset", "[q, p, p]")
    assert code == 0 and "[p, p, q]" in out


def test_parse_system_file(capsys):
    code, out = run(capsys, "parse", "--system", f"{FIX}/bci.rcs")
    assert code == 0
    assert "system BCI" in out
    assert "rule" in out and "axiom" in out


def test_parse_error_exit(capsys):
    code = main(["parse", "--formula", "p ->"])
    out = capsys.readouterr()
    assert code == 1
    assert "RESULT invalid" in out.out


def test_deeply_nested_formula_parses(capsys):
    code, out = run(capsys, "parse", "--formula", "(" * 3000 + "p" + ")" * 3000)
    assert code == 0
    assert out.splitlines() == ["p", "RESULT ok"]


@pytest.mark.parametrize("argv", [
    ["--formula", "p", "--multiset", "[q", "--system", "/nonexistent"],
    ["--formula", "p", "--multiset", "[q]"],
    ["--multiset", "[q]", "--system", f"{FIX}/bci.rcs"],
])
def test_parse_takes_exactly_one_input(capsys, argv):
    code = main(["parse", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert "--" in captured.err


def test_usage_error_exit(capsys):
    assert main(["parse"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("check-proof", "derive", "symmetrize", "laws", "theory"):
        assert command in out


def test_missing_file_reports_invalid(capsys):
    code = main(["check-proof", "--system", "no/such.rcs",
                 "--premises", "[p]", "--goal", "p", "--proof", "nope.proof"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RESULT invalid" in out


def test_check_proof(capsys):
    code, out = run(capsys, "check-proof", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[p->q, p]", "--goal", "q",
                    "--proof", f"{FIX}/mp.proof")
    assert code == 0
    assert result_line(out) in ("relevant", "strongly_relevant")


def test_check_proof_invalid(capsys):
    code, out = run(capsys, "check-proof", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[p->q]", "--goal", "q",
                    "--proof", f"{FIX}/mp.proof")
    assert code == 1
    assert result_line(out) == "invalid"
    assert "problem" in out or "surplus" in out


def test_check_proof_node_without_formula(capsys, tmp_path):
    proof = tmp_path / "bad.proof"
    proof.write_text(json.dumps({"by": {"rule": "mp"},
                                 "children": [{"formula": "p -> q"}, {"by": "premise"}]}))
    code, out = run(capsys, "check-proof", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[p->q, p]", "--goal", "q", "--proof", str(proof))
    assert code == 1
    assert result_line(out) == "invalid"


def _deep_proof_text(depth: int) -> str:
    head = '{"formula": "q", "by": {"rule": "mp"}, "children": ['
    return head * depth + '{"formula": "q"}' + "]}" * depth


@pytest.mark.parametrize("text", [_deep_proof_text(3000), "[" * 100_000 + "]" * 100_000],
                         ids=["children-3000", "json-100000"])
def test_check_proof_too_deep_is_invalid(capsys, tmp_path, text):
    proof = tmp_path / "deep.proof"
    proof.write_text(text)
    code = main(["check-proof", "--system", f"{FIX}/bci.rcs",
                 "--premises", "[q]", "--goal", "q", "--proof", str(proof)])
    captured = capsys.readouterr()
    assert code == 1
    assert result_line(captured.out) == "invalid"
    assert "error: input nested too deeply" in captured.err


def test_symmetrize_a_thousand_conclusions(capsys):
    # the ordered partitions of [] into 1000 parts, far past the recursion
    # limit: each part [] |- 0 holds
    conclusions = "[" + ", ".join(["0"] * 1000) + "]"
    code = main(["symmetrize", "--oracle", "z", "--premises", "[]",
                 "--conclusions", conclusions])
    captured = capsys.readouterr()
    assert code == 0
    assert result_line(captured.out) == "holds"
    assert captured.err == ""


def test_check_proof_fusion_fixture(capsys):
    code, out = run(capsys, "check-proof", "--system", f"{FIX}/t_fusion.rcs",
                    "--premises", "[a -> b]", "--goal", "(a o c) -> (b o c)",
                    "--proof", f"{FIX}/mono_fusion.proof")
    assert code == 0
    assert result_line(out) == "relevant"


def test_search_command(capsys):
    code, out = run(capsys, "search", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[p->q, p]", "--goal", "q")
    assert code == 0
    assert result_line(out) == "found"
    body = out[:out.rindex("RESULT")]
    data = json.loads(body)
    assert data["formula"] == "q"


def test_search_unknown(capsys):
    code, out = run(capsys, "search", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[p]", "--goal", "q", "--max-nodes", "5")
    assert code == 3
    assert result_line(out) == "unknown"


def test_search_has_no_formula_size_bound(capsys):
    assert main(["search", "--system", f"{FIX}/bci.rcs", "--premises", "[p->q, p]",
                 "--goal", "q", "--max-size", "12"]) == 2
    capsys.readouterr()


def test_check_proof_output_does_not_depend_on_the_hash_seed(tmp_path):
    # two non-axiom leaves, neither a premise: condition 4 reports both
    proof = tmp_path / "b.proof"
    proof.write_text(json.dumps({"formula": "b", "by": {"rule": "mp"}, "children": [
        {"formula": "a -> b"}, {"formula": "a"}]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "relcon.cli", "check-proof", "--system", f"{FIX}/bci.rcs",
             "--premises", "[]", "--goal", "b", "--proof", str(proof)],
            capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 1 and result_line(done.stdout) == "invalid"
        outs.append(done.stdout)
    assert outs[0].count("labels 1 leaves") == 2
    assert outs[0] == outs[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv, code", [
    (["parse", "--formula", "p"], 1),
    (["derive", "--system", f"{FIX}/bci.rcs", "--premises", "[a]",
      "--conclusions", "[a->a, a]"], 2),
    (["--help"], 1),
])
def test_unwritable_stdout_is_one_error_line(argv, code, unbuffered):
    # a full device: the write fails however stdout is buffered
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "relcon.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, check=False)
    assert done.returncode == code
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_closed_stdout_is_no_error():
    # with fd 1 closed, sys.stdout is None and print writes nothing
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(["sh", "-c", 'exec "$0" -m relcon.cli parse --formula p >&-',
                           sys.executable], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=False)
    assert (done.returncode, done.stderr) == (0, "")


def test_check_derivation(capsys):
    code, out = run(capsys, "check-derivation", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[a->b, a->c, a, a, a]",
                    "--conclusions", "[a, b, c]",
                    "--derivation", f"{FIX}/bci_sym.drv")
    assert code == 0
    assert result_line(out) == "relevant"


def test_check_derivation_plain_exit(capsys):
    code, out = run(capsys, "check-derivation", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[a->b, a->c, a, a, a]",
                    "--conclusions", "[b, c]",
                    "--derivation", f"{FIX}/bci_sym.drv")
    assert code == 1
    assert result_line(out) == "plain"


@pytest.mark.parametrize("text", [
    json.dumps([{"multiset": "[a]"}, {"by": {"rule": "mp"}}]),
    json.dumps([{"multiset": "[a ->]"}]),
    "[" * 100_000 + "]" * 100_000,
], ids=["missing-multiset", "bad-formula", "json-100000"])
def test_check_derivation_malformed_file_exits_two(capsys, tmp_path, text):
    derivation = tmp_path / "bad.drv"
    derivation.write_text(text)
    code = main(["check-derivation", "--system", f"{FIX}/bci.rcs",
                 "--premises", "[a]", "--conclusions", "[a]",
                 "--derivation", str(derivation)])
    captured = capsys.readouterr()
    assert code == 2
    assert result_line(captured.out) == "invalid"
    assert captured.err.startswith("error: ")


_DERIVATION_ARGS = {
    "check-derivation": ["--system", f"{FIX}/bci.rcs", "--premises", "[a]",
                         "--conclusions", "[a]", "--derivation", f"{FIX}/bci_sym.drv"],
    "derive": ["--system", f"{FIX}/bci.rcs", "--premises", "[a]",
               "--conclusions", "[a]", "--max-steps", "1"],
}


@pytest.mark.parametrize("command", sorted(_DERIVATION_ARGS))
@pytest.mark.parametrize("flag, value", [
    ("--premises", "[a ->"),
    ("--conclusions", "[a ->"),
    ("--system", "system S\naxiom I : p -> p\naxiom bad : p ->\n"),
    ("--system", "system S\naxiom I : p -> 'p'\n"),  # p is metavariable and atom
], ids=["premises", "conclusions", "system-bad-line", "system-name-clash"])
def test_derivation_command_malformed_argument_exits_two(capsys, tmp_path,
                                                         command, flag, value):
    if flag == "--system":
        path = tmp_path / "bad.rcs"
        path.write_text(value)
        value = str(path)
    argv = list(_DERIVATION_ARGS[command])
    argv[argv.index(flag) + 1] = value
    code = main([command] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert result_line(captured.out) == "invalid"
    assert captured.err.startswith("error: ")


# a directory and a missing path, each where a command reads a file
_NOT_A_FILE = [FIX, f"{FIX}/missing.rcs"]


@pytest.mark.parametrize("path", _NOT_A_FILE, ids=["directory", "missing"])
@pytest.mark.parametrize("argv", [
    pytest.param(["parse", "--system", "{}"], id="parse-system"),
    pytest.param(["check-proof", "--system", "{}", "--premises", "[p->q, p]", "--goal", "q",
                  "--proof", f"{FIX}/mp.proof"], id="check-proof-system"),
    pytest.param(["check-proof", "--system", f"{FIX}/bci.rcs", "--premises", "[p->q, p]",
                  "--goal", "q", "--proof", "{}"], id="check-proof-proof"),
    pytest.param(["search", "--system", "{}", "--premises", "[p]", "--goal", "p"],
                 id="search-system"),
    pytest.param(["matrix-eval", "--matrix", "{}", "--formula", "p -> p"], id="matrix-eval"),
    pytest.param(["matrix-refute", "--matrix", "{}", "--formula", "p -> p"],
                 id="matrix-refute"),
    pytest.param(["laws", "check", "--oracle", "system:{}", "--dom", "atoms=p,size=1"],
                 id="laws-oracle-system"),
])
def test_unreadable_input_file_is_invalid(capsys, argv, path):
    code = main([a.format(path) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert result_line(captured.out) == "invalid"
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("path", _NOT_A_FILE, ids=["directory", "missing"])
@pytest.mark.parametrize("command, flag", [
    ("check-derivation", "--system"), ("check-derivation", "--derivation"),
    ("derive", "--system")])
def test_derivation_command_unreadable_file_exits_two(capsys, command, flag, path):
    argv = list(_DERIVATION_ARGS[command])
    argv[argv.index(flag) + 1] = path
    code = main([command] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert result_line(captured.out) == "invalid"
    assert captured.err.startswith("error: ")


# each search or grid bound and a command line it bounds
_DERIVE_ARGV = ["derive", "--system", f"{FIX}/bci.rcs", "--premises", "[a]",
             "--conclusions", "[a->a, a]"]
_BOUNDED = {
    "--max-nodes": ["search", "--system", f"{FIX}/bci.rcs", "--premises", "[p->q, p]",
                    "--goal", "q"],
    "--max-steps": _DERIVE_ARGV,
    "--max-size": _DERIVE_ARGV,
    "--max-multiset": _DERIVE_ARGV,
    "--cap": ["symmetrize", "--oracle", "z", "--premises", "[]", "--conclusions", "[1, -1]"],
    "--grid-bound": ["abelian", "--kind", "p", "--premises", "[a]", "--goal", "a"],
}


@pytest.mark.parametrize("flag", sorted(_BOUNDED))
def test_negative_bound_is_a_usage_error(capsys, flag):
    code = main(_BOUNDED[flag] + [flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert f"argument {flag}: needs a bound of at least 0, not -1" in captured.err
    code, out = run(capsys, *_BOUNDED[flag], flag, "0")  # zero is a bound
    assert code in (0, 1, 2, 3) and result_line(out)


def test_bound_that_is_not_an_integer_is_a_usage_error(capsys):
    code = main(_BOUNDED["--max-nodes"] + ["--max-nodes", "abc"])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert "argument --max-nodes: invalid int value: 'abc'" in captured.err


def test_derive_found(capsys):
    code, out = run(capsys, "derive", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[a]", "--conclusions", "[a -> a, a]",
                    "--max-steps", "4")
    assert code == 0
    assert result_line(out) == "relevant"


def test_derive_negative_exit_two(capsys):
    code, out = run(capsys, "derive", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[a->b, a->c, a, a]",
                    "--conclusions", "[a, b, c]",
                    "--max-steps", "8", "--max-size", "7")
    assert code == 2
    assert result_line(out) == "invalid"


def test_derive_negative_names_the_caps_that_cut(capsys):
    # criterion 06's negative: an exhausted search lists its caps, as a
    # truncated one lists its budgets
    code, out = run(capsys, "derive", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[a->b, a->c, a, a]",
                    "--conclusions", "[a, b, c]",
                    "--max-steps", "8", "--max-size", "7")
    assert code == 2
    assert out == ("search exhausted; caps that cut: formula-size, multiset-size\n"
                   "RESULT invalid\n")


def test_derive_truncated_exit_three(capsys):
    code, out = run(capsys, "derive", "--system", f"{FIX}/bci.rcs",
                    "--premises", "[a->b, a->c, a, a]",
                    "--conclusions", "[a, b, c]", "--max-steps", "1")
    assert code == 3
    assert result_line(out) == "unknown"


def test_symmetrize_command(capsys):
    code, out = run(capsys, "symmetrize", "--oracle", "z",
                    "--premises", "[]", "--conclusions", "[1, -1]")
    assert code == 1
    assert result_line(out) == "fails"


def test_matrix_eval_command(capsys):
    code, out = run(capsys, "matrix-eval", "--matrix", f"{FIX}/t4.mat",
                    "--formula", "(a->b)->((a o c)->(b o c))",
                    "--valuation", "a=2,b=0,c=1")
    assert code == 1
    assert "value 0" in out
    assert result_line(out) == "0"


def test_matrix_refute_command(capsys):
    code, out = run(capsys, "matrix-refute", "--matrix", f"{FIX}/t4.mat",
                    "--formula", "(a->b)->((a o c)->(b o c))")
    assert code == 0
    assert result_line(out) == "refuted"
    assert "a = 2" in out and "b = 0" in out and "c = 1" in out


def test_nameless_matrix_file_is_invalid_input(capsys, tmp_path):
    # a bare 'matrix' line once raised IndexError out of the CLI
    path = tmp_path / "m.mat"
    path.write_text("matrix\n")
    code = main(["matrix-refute", "--matrix", str(path), "--formula", "p -> p"])
    captured = capsys.readouterr()
    assert code == 1 and result_line(captured.out) == "invalid"
    assert captured.err.splitlines() == ["error: expected: matrix NAME (line 1)"]


def test_matrix_refute_valid(capsys):
    code, out = run(capsys, "matrix-refute", "--matrix", f"{FIX}/t4.mat",
                    "--formula", "a -> a")
    assert code == 1
    assert result_line(out) == "valid"


@pytest.mark.parametrize("argv", [
    ["matrix-refute", "--formula", "~a"],  # T4 has no ~ table
    ["matrix-eval", "--formula", "a -> b", "--valuation", "a=1"],  # b has no value
    ["matrix-eval", "--formula", "a -> a", "--valuation", "a=zz"],  # zz is no T4 value
    ["matrix-eval", "--formula", "a", "--valuation", "a=zz"],
])
def test_matrix_evaluation_errors_are_invalid_input(capsys, argv):
    code = main(argv[:1] + ["--matrix", f"{FIX}/t4.mat"] + argv[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert result_line(captured.out) == "invalid"
    assert captured.err.startswith("error: ")
    assert "value zz" not in captured.out


def test_matrix_eval_repeated_atom_is_invalid_input(capsys):
    code = main(["matrix-eval", "--matrix", f"{FIX}/t4.mat", "--formula", "a",
                 "--valuation", "a=0,a=3"])
    captured = capsys.readouterr()
    assert code == 1
    assert result_line(captured.out) == "invalid"
    assert captured.err.startswith("error: atom a is valued twice")
    assert "value" not in captured.out


def test_abelian_command(capsys):
    code, out = run(capsys, "abelian", "--kind", "z",
                    "--premises", "[1,1]", "--goal", "1")
    assert code == 1
    assert result_line(out) == "fails"
    code, out = run(capsys, "abelian", "--kind", "z",
                    "--premises", "[1]", "--goal", "1")
    assert code == 0
    assert result_line(out) == "holds"


def test_laws_check_command(capsys):
    code, out = run(capsys, "laws", "check", "--oracle", "ex54",
                    "--dom", "atoms=x,size=4", "--laws",
                    "Reflexivity,Monotonicity")
    assert code == 0
    assert "LAW Reflexivity PASS" in out
    assert "LAW Monotonicity FAIL" in out


@pytest.mark.parametrize("oracle, dom, law, checked", [
    ("ex54", "atoms=x+x,size=2", "Reflexivity", 3),
    ("z", "numerals=0..1,numerals=1..1", "Cut", 400),
])
def test_laws_domain_counts_a_repeated_formula_once(capsys, oracle, dom, law, checked):
    code, out = run(capsys, "laws", "check", "--oracle", oracle, "--dom", dom, "--laws", law)
    assert code == 0
    assert f"LAW {law} PASS  [exhaustive, {checked} instances]" in out


def test_laws_check_on_a_tree_search_system_oracle(capsys):
    assert isinstance(make_oracle(f"system:{FIX}/bci.rcs"), TreeSearchOracle)
    code, out = run(capsys, "laws", "check", "--oracle", f"system:{FIX}/bci.rcs",
                    "--dom", "atoms=p,size=1", "--laws", "Reflexivity,Cut")
    assert code == 0
    assert "LAW Reflexivity PASS" in out
    # a tree search that finds no proof within its node bound disproves nothing
    assert "LAW Cut UNKNOWN" in out
    assert result_line(out) == "ok"


def test_laws_classify_on_a_matrix_oracle(capsys):
    # a matrix relation is Tarskian; T4 has no theorem basis, so
    # TheoremRemoval is UNKNOWN, as on a system: oracle
    spec = f"matrix:{FIX}/t4.mat"
    assert isinstance(make_oracle(spec), MatrixOracle)
    code, out = run(capsys, "laws", "classify", "--oracle", spec, "--dom", "atoms=p+q,size=2")
    assert code == 0 and result_line(out) == "ok"
    assert "LAW TheoremRemoval UNKNOWN" in out.splitlines()
    assert out.splitlines()[-2] == "CR: yes, monotone: yes, contractive: yes, tarskian: yes"
    # the same line on p, q, p -> q and p o q, through the CLI and the library
    code, out = run(capsys, "laws", "classify", "--oracle", spec,
                    "--dom", "formulas=p;q;p -> q;p o q,size=2")
    assert code == 0 and result_line(out) == "ok"
    dom = SampleDomain(tuple(map(parse_formula, ("p", "q", "p -> q", "p o q"))), max_size=2)
    assert out.splitlines()[-2] == classify(make_oracle(spec), dom).summary() == (
        "CR: yes, monotone: yes, contractive: yes, tarskian: yes")


def test_every_spec_prefix_is_in_the_readme_table():
    rows = [ln for ln in Path("README.md").read_text().splitlines() if ln.startswith("| `")]
    for spec in [*cli._ORACLES, *(f"{prefix}:<file" for prefix in cli._SPEC_PREFIXES)]:
        assert any(ln.startswith(f"| `{spec}") for ln in rows), spec


def test_laws_check_on_a_derivation_system_oracle(capsys, tmp_path):
    path = tmp_path / "bci_sym.rcs"
    path.write_text(print_system(parse_system(Path(FIX, "bci.rcs").read_text()).lifted()))
    assert isinstance(make_oracle(f"system:{path}"), DerivationOracle)
    code, out = run(capsys, "laws", "check", "--oracle", f"system:{path}",
                    "--dom", "atoms=p,size=1", "--laws", "Reflexivity,Monotonicity")
    assert code == 0
    assert "LAW Reflexivity PASS" in out
    # an exhausted derivation search is a negative: [p] |- [] has no
    # relevant derivation, though [] |- [] has
    assert "LAW Monotonicity FAIL G=[]; D=[]; P=[p]" in out
    assert result_line(out) == "ok"


def test_laws_check_on_a_numeral_past_the_recursion_limit():
    # hashing numeral(1200) into the oracle's multisets must not recurse; a
    # --dom stops at the literal range (below), so the check runs in-process
    def verdicts(n):
        oracle = make_oracle("z", [numeral(0), numeral(n)])
        return {name: r.status for name, r in
                check_laws(oracle, SampleDomain((numeral(n),), max_size=1)).items()}

    assert verdicts(1200) == verdicts(3)


@pytest.mark.parametrize("dom", ["numerals=201..201", "numerals=-201..0",
                                 "numerals=0..1200,size=1", "numerals=300..-300"])
def test_laws_domain_numeral_past_the_literal_range_is_a_usage_error(capsys, dom):
    # such a numeral prints as a literal that does not parse back
    code = main(["laws", "check", "--oracle", "z", "--dom", dom])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert "domain key 'numerals'" in captured.err and "|n| <= 200" in captured.err


def test_laws_domain_numerals_at_the_literal_range_print_back(capsys):
    code, out = run(capsys, "laws", "check", "--oracle", "z",
                    "--dom", "numerals=-200..-199,numerals=199..200,size=1")
    assert code == 0 and result_line(out) == "ok"
    formulas = make_domain("numerals=-200..200", 0).formulas
    assert all(parse_formula(print_formula(f)) == f for f in formulas)


def test_laws_classify_command(capsys):
    code, out = run(capsys, "laws", "classify", "--oracle", "z",
                    "--dom", "numerals=-2..2,size=2")
    assert code == 0
    assert "CR: yes" in out and "monotone: no" in out


def test_laws_classify_reports_an_inconsistent_battery(capsys, monkeypatch,
                                                       inconsistent_report):
    monkeypatch.setattr(cli, "classify", lambda oracle, dom: inconsistent_report)
    code, out = run(capsys, "laws", "classify", "--oracle", "z", "--dom", "numerals=0..1")
    assert code == 1 and result_line(out) == "inconsistent"
    assert ("INCONSISTENT Reflexivity & Cut passed but RelevantCut failed at G=[1]; p=2"
            in out.splitlines())


@pytest.mark.parametrize("dom", ["numerals=0..1,samples=0,cap=0"])
def test_laws_on_no_instances_are_unknown(capsys, dom):
    # every check samples and no sample is drawn: such checks decide nothing
    code, out = run(capsys, "laws", "check", "--oracle", "z", "--dom", dom)
    assert code == 0 and result_line(out) == "ok"
    empty = [ln for ln in out.splitlines() if ln.endswith(", 0 instances]")]
    assert len(empty) >= 6  # every law but, when exhaustive, Reflexivity
    assert all(ln.split()[2] == "UNKNOWN" for ln in empty), empty

    code, out = run(capsys, "laws", "classify", "--oracle", "z", "--dom", dom)
    assert code == 0 and result_line(out) == "ok"
    assert ("CR: unknown, monotone: unknown, contractive: unknown, tarskian: unknown"
            in out.splitlines())


@pytest.mark.parametrize("oracle", ["p", "z_m"])
def test_laws_p_has_a_theorem_basis(capsys, oracle):
    # p and z_m get the nonnegative numerals of the domain as theorems, as z
    # does; z_m's theorems are z's
    code, out = run(capsys, "laws", "check", "--oracle", oracle,
                    "--dom", "numerals=-2..2,size=2", "--laws", "TheoremRemoval")
    assert code == 0 and result_line(out) == "ok"
    assert out.splitlines()[0] == "LAW TheoremRemoval PASS  [exhaustive, 1050 instances]"


def test_laws_theorem_basis_reaches_the_largest_numeral(capsys):
    # the basis is 0 and every nonnegative numeral of the domain: 0..10 here
    code, out = run(capsys, "laws", "check", "--oracle", "z",
                    "--dom", "numerals=0..10,size=1", "--laws", "TheoremRemoval")
    assert code == 0 and result_line(out) == "ok"
    assert out.splitlines()[0] == "LAW TheoremRemoval PASS  [exhaustive, 1584 instances]"


def test_laws_without_a_theorem_basis_ran_nothing(capsys):
    # a system oracle declares no theorems; a check that never ran is not
    # labelled sampled
    code, out = run(capsys, "laws", "check", "--oracle", f"system:{FIX}/bci.rcs",
                    "--dom", "numerals=-2..2,size=2", "--laws", "TheoremRemoval")
    assert code == 0 and result_line(out) == "ok"
    assert out.splitlines()[0] == "LAW TheoremRemoval UNKNOWN  [exhaustive, 0 instances]"


def test_laws_on_leq_remove_from_the_empty_theorem_basis(capsys):
    # leq has no theorems, so its basis is empty and TheoremRemoval is decided
    code, out = run(capsys, "laws", "check", "--oracle", "leq",
                    "--dom", "numerals=-2..2,size=2", "--laws", "TheoremRemoval")
    assert code == 0 and result_line(out) == "ok"
    assert out.splitlines()[0] == "LAW TheoremRemoval PASS  [exhaustive, 105 instances]"


def test_laws_unknown_names(capsys):
    assert main(["laws", "check", "--oracle", "z",
                 "--dom", "numerals=-1..1,size=1",
                 "--laws", "Nonsense"]) == 2
    capsys.readouterr()


def test_malformed_relcon_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RELCON_SEED", "abc")
    code = main(["parse", "--formula", "p"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage error" in captured.err
    assert "RESULT" not in captured.out


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # main builds its parser once per process; no call may leak into the next
    monkeypatch.delenv("RELCON_SEED", raising=False)
    sampled = ["laws", "check", "--oracle", "identity", "--laws", "Monotonicity",
               "--dom", "numerals=-1..1,size=2,cap=5,samples=60"]
    seed0 = "LAW Monotonicity FAIL G=[1]; D=[1]; P=[1, 1]  [sampled, 35 instances]"
    seed3 = "LAW Monotonicity FAIL G=[-1, 1]; D=[-1, 1]; P=[-1, 1]  [sampled, 13 instances]"
    code, out = run(capsys, "--seed", "3", *sampled)
    assert code == 0 and out.splitlines()[0] == seed3
    code, out = run(capsys, *sampled)  # the seed given before is gone
    assert code == 0 and out.splitlines()[0] == seed0
    code, out = run(capsys, "parse", "--formula", "p -> q")
    assert code == 0 and out == "p -> q\nRESULT ok\n"
    assert main(["parse", "--nonsense"]) == 2  # a usage error in between
    capsys.readouterr()
    monkeypatch.setenv("RELCON_SEED", "3")
    code, out = run(capsys, *sampled)
    assert code == 0 and out.splitlines()[0] == seed3
    code, out = run(capsys, "--seed", "0", *sampled)
    assert code == 0 and out.splitlines()[0] == seed0
    monkeypatch.delenv("RELCON_SEED")
    code, out = run(capsys, "laws", "check", "--oracle", "z", "--laws", "Monotonicity",
                    "--dom", "numerals=-2..2,size=2")
    assert code == 0 and out.splitlines()[0].startswith("LAW Monotonicity FAIL ")
    code, out = run(capsys, *sampled)
    assert code == 0 and out.splitlines()[0] == seed0


def test_every_named_oracle_builds_and_is_listed_in_the_laws_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep the help text on one line
    assert main(["laws", "--help"]) == 0
    help_text = capsys.readouterr().out
    for name in ORACLES[:-1]:  # the last one is not an oracle name
        assert make_oracle(name) is not None
        assert name in help_text
    assert "system:<file>" in help_text


def test_domain_keys_set_their_own_sample_domain_fields():
    x = (Atom("x"),)
    assert make_domain("atoms=x", 5) == SampleDomain(x, seed=5)
    assert make_domain("atoms=x,size=7", 5) == SampleDomain(x, max_size=7, seed=5)
    assert make_domain("atoms=x,seed=9", 5) == SampleDomain(x, seed=9)
    assert make_domain("atoms=x,cap=11", 5) == SampleDomain(x, seed=5, exhaustive_cap=11)
    assert make_domain("atoms=x,samples=13", 5) == SampleDomain(x, seed=5, sample_count=13)
    assert make_domain("atoms=x,size=0,cap=0,samples=0", 5) == SampleDomain(
        x, max_size=0, seed=5, exhaustive_cap=0, sample_count=0)


@pytest.mark.parametrize("dom", ["numerals=0..1,size=-1", "numerals=0..1,samples=-5,cap=0",
                                 "numerals=0..1,size=-1,cap=-1", "atoms=x,cap=-1"])
def test_laws_domain_negative_count_is_a_usage_error(capsys, dom):
    code = main(["laws", "check", "--oracle", "z", "--dom", dom])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert "needs a count of at least 0" in captured.err


@pytest.mark.parametrize("key", ["size", "seed", "cap", "samples"])
def test_laws_domain_repeated_key_is_a_usage_error(capsys, key):
    code = main(["laws", "check", "--oracle", "z", "--dom", f"numerals=0..1,{key}=1,{key}=2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert f"repeated domain key '{key}'" in captured.err


def test_domain_without_formulas_is_a_usage_error():
    with pytest.raises(UsageError) as e:
        make_domain("size=2", 0)
    assert str(e.value) == "domain needs numerals=LO..HI, atoms=a+b or formulas=f;g"
    # an empty part between commas is skipped
    assert make_domain("atoms=x,,size=1", 0) == make_domain("atoms=x,size=1", 0)


def test_domain_numerals_and_atoms_add_up():
    assert make_domain("numerals=0..1,atoms=x,numerals=3..3,atoms=y+z", 5).formulas == (
        numeral(0), numeral(1), Atom("x"), numeral(3), Atom("y"), Atom("z"))


def test_domain_formulas_add_to_numerals_and_atoms():
    assert make_domain("atoms=x,formulas=p -> q; ~1 ;;t,numerals=2..2", 5).formulas == (
        Atom("x"), parse_formula("p -> q"), parse_formula("~1"), parse_formula("t"),
        numeral(2))


@pytest.mark.parametrize("text", ["p ->", "p; q)", "[p]"])
def test_domain_formula_that_does_not_parse_is_a_usage_error(capsys, text):
    code = main(["laws", "check", "--oracle", "z", "--dom", f"formulas={text},size=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert "usage error: domain key 'formulas': " in captured.err


@pytest.mark.parametrize("dom", ["numerals=a..2", "numerals=0..1,size=x",
                                 "numerals=0..1,cap="])
def test_laws_domain_value_not_an_integer_is_a_usage_error(capsys, dom):
    code = main(["laws", "check", "--oracle", "z", "--dom", dom])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert "needs an integer" in captured.err


@pytest.mark.parametrize("name", ["o", "t", "1", "a-b", "'x'"])
def test_domain_atom_that_parses_otherwise_is_a_usage_error(capsys, name):
    # o is fusion, t and 1 are constants: atoms=o+t once gave the witness P=[o]
    code = main(["laws", "check", "--oracle", "ex54", "--dom", f"atoms={name},size=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("usage error: domain atom ")
    assert "RESULT" not in captured.out


def test_theory_commands(capsys):
    code, out = run(capsys, "theory", "eq", "--oracle", "zsym",
                    "--gens", "[1,1]", "[2]")
    assert code == 0 and result_line(out) == "holds"
    code, out = run(capsys, "theory", "leq", "--oracle", "zsym",
                    "--gens", "[2]", "[1]")
    assert code == 0 and result_line(out) == "holds"
    code, out = run(capsys, "theory", "contains", "--oracle", "zsym",
                    "--gens", "[1, 2]", "--member", "[3]")
    assert code == 0 and result_line(out) == "holds"
    code, out = run(capsys, "theory", "add", "--oracle", "zsym",
                    "--gens", "[1]", "[2]")
    assert code == 0 and "generator [1, 2]" in out


@pytest.mark.parametrize("op", ["eq", "leq", "add"])
def test_theory_member_goes_only_with_contains(capsys, op):
    code = main(["theory", op, "--oracle", "zsym", "--gens", "[1]", "[1]", "--member", "[2]"])
    captured = capsys.readouterr()
    assert code == 2
    assert "RESULT" not in captured.out
    assert captured.err == f"usage error: --member goes only with theory contains, not {op}\n"


def test_theory_needs_symmetric_oracle(capsys):
    assert main(["theory", "eq", "--oracle", "z",
                 "--gens", "[1]", "[2]"]) == 2
    capsys.readouterr()


def test_deterministic_output(capsys):
    args = ["laws", "check", "--oracle", "z",
            "--dom", "numerals=-2..2,size=2", "--laws", "all"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_all_fixture_files_roundtrip(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.rcs")):
        text = path.read_text()
        system = parse_system(text)
        assert print_system(parse_system(print_system(system))) == print_system(system)
    for path in sorted(fixtures_dir.glob("*.mat")):
        matrix = parse_matrix(path.read_text())
        assert print_matrix(parse_matrix(print_matrix(matrix))) == print_matrix(matrix)


def test_fixture_proofs_roundtrip(fixtures_dir):
    from relcon import load_proof, dump_proof, load_derivation, dump_derivation

    for path in sorted(fixtures_dir.glob("*.proof")):
        text = path.read_text().strip()
        tree = load_proof(text)
        assert dump_proof(load_proof(dump_proof(tree))) == dump_proof(tree)
    for path in sorted(fixtures_dir.glob("*.drv")):
        text = path.read_text().strip()
        d = load_derivation(text)
        assert dump_derivation(load_derivation(dump_derivation(d))) == dump_derivation(d)


# -- deep input: a 3000-operand chain, built by the parser without recursion --

DEEP_FUSION = " o ".join(["p"] * 3000)
DEEP_CONJ = " /\\ ".join(["p"] * 3000)


@pytest.mark.parametrize("argv, code, result", [
    (["abelian", "--kind", "z", "--premises", "[p]", "--goal", DEEP_FUSION], 1, "fails"),
    (["abelian", "--kind", "z", "--premises", f"[{DEEP_FUSION}]", "--goal", DEEP_FUSION],
     0, "holds"),
    (["abelian", "--kind", "p", "--premises", "[p]", "--goal", DEEP_CONJ], 3, "unknown"),
    (["symmetrize", "--oracle", "z", "--premises", f"[{DEEP_FUSION}]",
      "--conclusions", "[p]"], 1, "fails"),
    (["theory", "leq", "--oracle", "zsym", "--gens", f"[{DEEP_FUSION}]", "[p]"], 1, "fails"),
    (["matrix-eval", "--matrix", f"{FIX}/t4.mat", "--formula", DEEP_FUSION,
      "--valuation", "p=1"], 1, "1"),
    (["matrix-refute", "--matrix", f"{FIX}/t4.mat", "--formula", DEEP_FUSION], 0, "refuted"),
], ids=["abelian-z", "abelian-z-holds", "abelian-p-conj", "symmetrize-z", "theory-leq-zsym",
        "matrix-eval", "matrix-refute"])
def test_semantics_on_a_deep_chain(capsys, argv, code, result):
    got, out = run(capsys, *argv)
    assert got == code and result_line(out) == result


# premise and goal are equal, separately parsed deep chains: their equality
# is a loop, not a recursion, so both commands reach their RESULT line
@pytest.mark.parametrize("command", ["search", "check-proof"])
def test_proof_commands_on_a_deep_chain(capsys, tmp_path, command):
    proof = tmp_path / "deep.proof"
    proof.write_text(json.dumps({"formula": DEEP_FUSION, "by": "premise"}))
    extra = ["--proof", str(proof)] if command == "check-proof" else []
    code, out = run(capsys, command, "--system", f"{FIX}/bci.rcs",
                    "--premises", f"[{DEEP_FUSION}]", "--goal", DEEP_FUSION, *extra)
    assert code in (0, 1, 2, 3) and result_line(out)


def test_parse_system_prints_a_400_link_axiom(capsys, tmp_path):
    chain = " -> ".join(["p"] * 400)
    path = tmp_path / "chain.rcs"
    path.write_text(f"system Chain\naxiom a : {chain}\n")
    code, out = run(capsys, "parse", "--system", str(path))
    assert code == 0 and result_line(out) == "ok"
    printed = parse_system(out.rsplit("RESULT", 1)[0])
    assert printed.get("a").right == parse_system(path.read_text()).get("a").right
