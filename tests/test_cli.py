import json
import re
import shlex
from pathlib import Path

import pytest

from dybax import acceptance, cli
from dybax.cli import FAMILIES, FAMILY_OPTIONS, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_datum_dump(capsys):
    code, out = run_cli(capsys, ["datum", "--n", "3", "--flavor", "gl"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "root-datum"
    assert len(payload["positive_roots"]) == 3


def test_catalog_classical(capsys):
    code, out = run_cli(capsys, ["catalog", "basic-rational", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "classical-r-matrix"
    assert payload["coupling"] == "0"


def test_catalog_quantum_and_determinism(capsys):
    code, out1 = run_cli(capsys, ["catalog", "R-eps-X", "--n", "3", "--X", "1,2"])
    assert code == 0
    code, out2 = run_cli(capsys, ["catalog", "R-eps-X", "--n", "3", "--X", "1,2"])
    assert out1 == out2  # byte-identical artifacts


def test_verify_qdybe_pass_and_fail_codes(capsys):
    code, _ = run_cli(capsys, ["verify", "qdybe", "--catalog", "R-X",
                               "--n", "3", "--X", "1,2"])
    assert code == 0
    code, _ = run_cli(capsys, ["verify", "cdybe", "--catalog", "r-eps-X",
                               "--n", "3", "--X", "1"])
    assert code == 0
    code, _ = run_cli(capsys, ["verify", "unitarity", "--catalog", "basic-trig",
                               "--n", "2"])
    assert code == 0


def test_stats_go_to_stderr_only(capsys):
    line = ["verify", "qdybe", "--catalog", "R-eps-X", "--n", "3", "--X", "1,2"]
    code, out = run_cli(capsys, line)
    assert main(["--stats"] + line) == code == 0
    captured = capsys.readouterr()
    assert captured.out == out
    stats = json.loads(captured.err.strip().splitlines()[-1])["scalars"]
    row = next(r for r in stats if r["context"] == "quantum n=3")
    assert row["mul"] > 0 and row["factors"] > 0 and row["divisions"] > 0
    assert row["fallbacks"] == 0
    assert set(row) == {"context", "mul", "add", "div", "divisions", "screened", "fallbacks",
                        "factors"}


def test_verify_hecke_rep(capsys):
    code, out = run_cli(capsys, ["verify", "hecke-rep", "--catalog", "R-eps-X",
                                 "--n", "2", "--X", "1,2", "--p", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["exact_zero"] is True


@pytest.mark.parametrize("equation", ["hecke", "hecke-rep"])
@pytest.mark.parametrize("n", ["2", "3"])
def test_verify_hecke_on_the_classical_closed_form(capsys, equation, n):
    # the Hecke parameter comes from the field: q = 1 on a classical one
    code, out = run_cli(capsys, ["verify", equation, "--catalog", "gl-closed-form",
                                 "--n", n])
    assert code == 0
    assert json.loads(out)["reports"][0]["exact_zero"] is True


def test_fusion_both_methods(capsys):
    code, out = run_cli(capsys, ["fusion", "--n", "2", "--flavor", "sl",
                                 "--method", "both"])
    assert code == 0
    payload = json.loads(out)
    assert payload["methods_agree"] is True
    assert payload["J_exchange"]["entries"]["2,1"] == "(-1)/(l1 + 1)"


def test_fusion_quantum(capsys):
    code, out = run_cli(capsys, ["fusion", "--n", "2", "--flavor", "sl",
                                 "--quantum", "--method", "both"])
    assert code == 0
    assert json.loads(out)["methods_agree"] is True


def test_limit_with_eq4_check(capsys):
    code, out = run_cli(capsys, ["limit", "--catalog", "gl-closed-form",
                                 "--n", "2", "--order", "2", "--check-eq4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["constant_term_is_identity"] is True
    assert payload["order_gamma_matches_minus_r_eps"] is True


def test_shapovalov_cli(capsys):
    code, out = run_cli(capsys, ["shapovalov", "--depth", "3", "--quantum"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_macdonald_cli(capsys):
    code, out = run_cli(capsys, ["macdonald", "operator", "--n", "2",
                                 "--r", "1", "--m", "0"])
    assert code == 0
    assert json.loads(out)["kind"] == "difference-operator"
    code, out = run_cli(capsys, ["macdonald", "polynomial", "--n", "2",
                                 "--mu", "2,0", "--m", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["monomial_coefficients"]["1,1"] == "1"
    code, _ = run_cli(capsys, ["macdonald", "commute", "--n", "3", "--m", "1"])
    assert code == 0
    code, _ = run_cli(capsys, ["macdonald", "corollary91", "--m", "1"])
    assert code == 0


def test_verify_suite_small(capsys):
    code, out = run_cli(capsys, ["verify-suite", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 2 * (1 << 2)
    assert all(r["pass"] for r in payload["results"])


def test_module_dump(capsys):
    code, out = run_cli(capsys, ["module", "--n", "2", "--spec", "sym2",
                                 "--quantum"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3 and payload["quantum"] is True


def test_usage_error_exit_code(capsys):
    code = main(["catalog", "r-l", "--n", "3", "--roots", "1,0,0"])
    assert code == 2  # not a positive root


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["datum", "--n", "2", "-o", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["kind"] == "root-datum"


@pytest.mark.parametrize("line", ["datum --n 2", "verify-suite --n 2"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, line):
    # exited 1 ("check failed") with a FileNotFoundError traceback
    target = str(tmp_path / "missing" / "x.json")
    code = main(line.split() + ["-o", target])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert target in captured.err


def test_unwritable_output_is_rejected_before_the_work(tmp_path, capsys, monkeypatch):
    # the suite ran in full before the path was opened
    calls = []
    monkeypatch.setattr(cli, "family_check", lambda case: calls.append(case) or True)
    code = main(["verify-suite", "--n", "3", "-o", str(tmp_path / "missing" / "x.json")])
    assert code == 2 and capsys.readouterr().out == "" and calls == []


@pytest.mark.parametrize("equation", ["hecke", "hecke-rep"])
@pytest.mark.parametrize("n", ["2", "3"])
def test_verify_hecke_on_the_quantum_closed_form(capsys, equation, n):
    # the gl_n closed-form R has PR eigenvalues q and -q^-1, so R/q is of
    # Hecke type with parameter q^-2
    code, out = run_cli(capsys, ["verify", equation, "--catalog", "gl-closed-form",
                                 "--n", n, "--quantum"])
    assert code == 0
    assert json.loads(out)["reports"][0]["exact_zero"] is True


def test_acceptance_rejects_unknown_criterion(capsys):
    code, out = run_cli(capsys, ["acceptance", "--criterion", "99"])
    assert code == 2 and out == ""  # runs nothing, so it must not pass


def test_hecke_rep_witness_names_the_failing_relation(capsys):
    # the closed-form J is not of Hecke type: the witness is the relation,
    # its generators, the entry's row and column, and the entry's text
    code, out = run_cli(capsys, ["verify", "hecke-rep", "--catalog", "gl-closed-form",
                                 "--n", "2", "--part", "J", "--p", "3"])
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert report["exact_zero"] is False and report["entries_checked"] == 3
    assert report["witness"] == {
        "index": ["quadratic", [0], [0, 1, 0], [0, 1, 0]],
        "value": "(1)/(l1^2 - 2*l1*l2 + l2^2 + 2*l1 - 2*l2 + 1)"}


def test_hecke_rep_with_one_slot_is_a_precondition_violation(capsys):
    code, out = run_cli(capsys, ["verify", "hecke-rep", "--catalog", "R-eps-X",
                                 "--n", "2", "--X", "1,2", "--p", "1"])
    assert code == 3 and out == ""  # p = 1 checks no relation


def test_verify_suite_below_rank_two_is_a_precondition_violation(capsys):
    code, out = run_cli(capsys, ["verify-suite", "--n", "1"])
    assert code == 3 and out == ""  # n = 1 checks no family


def test_shapovalov_negative_depth_is_a_precondition_violation(capsys):
    code, out = run_cli(capsys, ["shapovalov", "--depth", "-1"])
    assert code == 3 and out == ""  # depth -1 compares no Gram entry


@pytest.mark.parametrize("line,named", [
    # n < 2 exited 0 having compared no pair of operators
    ("macdonald commute --n 1", "--n 1"),
    ("macdonald commute --n 0", "--n 0"),
])
def test_macdonald_commute_without_a_pair_is_a_precondition_violation(capsys, line,
                                                                      named):
    code = main(line.split())
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("line,named", [
    # depth 0 raised ValueError (exit 1, "check failed")
    ("macdonald trace-residual --depth 0", "depth 0"),
    # each exited 0 having compared no coefficient of the series
    ("macdonald trace-residual --depth 2 --order -1 --biorder -1", "no coefficient"),
    ("macdonald trace-residual --depth 2 --order -1 --biorder 0", "no coefficient"),
    ("macdonald trace-residual --depth 2 --order 0 --biorder -1", "no coefficient"),
    # exited 1 ("check failed") reading past the truncated series
    ("macdonald trace-residual --depth 1 --order 2", "order 2"),
    ("macdonald trace-residual --depth 2 --order 3", "order 3"),
    ("macdonald trace-residual --depth 1 --order 1 --biorder 4", "biorder 4"),
    ("macdonald trace-residual --depth 2 --order 2 --biorder 6", "biorder 6"),
])
def test_vacuous_trace_residual_is_a_precondition_violation(capsys, line, named):
    code = main(line.split())
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("line", [
    "macdonald trace-residual --depth 2 --order 2",
    "macdonald trace-residual --depth 2 --order 2 --biorder 5",
])
def test_trace_residual_passes_at_its_bounds(capsys, line):
    code, out = run_cli(capsys, line.split())
    assert code == 0
    payload = json.loads(out)
    assert payload["macdonald_ruijsenaars"] and payload["dual"]
    assert payload["symmetry_mismatches"] == []


@pytest.mark.parametrize("line", [
    # exited 1: the Cartan part was built with the epsilon-coordinate form
    "verify cdybe --catalog appA --n 2 --flavor sl --gamma1 1 --gamma2 1 --l-basis 1",
    "verify cdybe --catalog appA --n 2 --flavor sl --gamma1 1 --gamma2 1 --l-basis 2",
    "verify unitarity --catalog appA --n 2 --flavor sl --gamma1 1 --gamma2 1 --l-basis 1",
])
def test_appendix_a_on_sl2(capsys, line):
    code, _ = run_cli(capsys, line.split())
    assert code == 0


@pytest.mark.parametrize("line,named", [
    ("module --n 2 --spec symx", "symx"),
    ("catalog R-X --n 3 --X a", "'a'"),
    ("fusion --n 2 --modules vec", "'vec'"),
    ("macdonald polynomial --mu 1,0,0 --n 2", "1,0,0"),
    ("macdonald operator --n 3 --r 5 --m 1", "5"),
    ("limit --catalog gl-closed-form --n 2 --order -1", "-1"),
    ("limit --catalog gl-closed-form --n 2 --order 0 --check-eq4", "0"),
    # accepted silently before: an index outside the rank, an empty module
    ("catalog R-X --n 3 --X 1,7", "7"),
    ("catalog r-eps-X --n 3 --X 5", "5"),
    ("module --n 3 --spec ext4", "ext4"),
    ("catalog r-l --n 3 --roots a", "'a'"),
    ("catalog appA --n 3 --gamma1 1 --gamma2 2 --l-basis 1,0,x", "1,0,x"),
    # an l-basis vector of the wrong length was truncated (exit 0), failed
    # the check (exit 1) or raised IndexError (exit 1)
    ("catalog appA --n 3 --gamma1 1 --gamma2 2 --l-basis 1,0,-1,5", "(1,0,-1,5)"),
    ("verify cdybe --catalog appA --n 3 --gamma1 1 --gamma2 2 --l-basis 1,0,-1,5",
     "(1,0,-1,5)"),
    ("catalog appA --n 2 --l-basis 1", "(1)"),
    # raised ValueError (exit 1, "check failed")
    ("macdonald corollary91 --m -1", "-1"),
    # a quantum family printed its gl_n artifact for --flavor sl
    ("catalog R-X --n 2 --X 1,2 --flavor sl", "--flavor sl"),
    ("verify qdybe --catalog R-eps-X --n 2 --X 1 --flavor sl", "--flavor sl"),
    ("limit --catalog gl-closed-form --n 2 --flavor sl", "--flavor sl"),
    # named the root as (Fraction(1, 1), Fraction(-1, 1))
    ("catalog r-l --n 3 --roots 1,-1", "(1,-1) has 2 entries"),
    # raised MacdonaldError (exit 1): at t = q^-1 two M_1 eigenvalues collide
    ("macdonald polynomial --n 2 --mu 2,0 --m -2", "-2"),
    ("macdonald operator --n 2 --r 1 --m -1", "-1"),
    ("macdonald commute --n 2 --m -1", "-1"),
    # an option the family does not read was ignored (exit 0)
    ("catalog basic-rational --n 3 --X 1", "--X"),
    ("catalog R-X --n 2 --part J", "--part"),
    ("verify qdybe --catalog R-X --n 2 --X 1,2 --p 4", "--p"),
    ("verify cdybe --catalog basic-rational --n 2 --quantum", "--quantum"),
    ("catalog appA --n 3 --gamma1 1 --gamma2 2 --l-basis 1,0,-1 --roots 1,-1,0", "--roots"),
    ("limit --catalog R-X --n 2 --X 1 --part J", "--part"),
    ("limit --catalog gl-closed-form --n 2 --X 1", "--X"),
    # was a store_true flag that defaulted to True
    ("limit --catalog gl-closed-form --n 2 --quantum", "--quantum"),
    # a macdonald action ignored an option it does not read (exit 0)
    ("macdonald corollary91 --m 0 --n 5", "--n"),
    ("macdonald trace-residual --depth 1 --order 1 --biorder 0 --m 7", "--m"),
    ("macdonald operator --n 2 --r 1 --mu 3,1", "--mu"),
    # an unread option passed at its default value was ignored (exit 0)
    ("macdonald corollary91 --m 0 --n 2", "--n"),
    ("catalog basic-rational --n 2 --part R", "--part"),
    ("verify qdybe --catalog R-X --n 2 --p 3", "--p"),
])
def test_malformed_input_is_a_usage_error(capsys, line, named):
    try:
        code = main(line.split())
    except SystemExit as exc:      # argparse rejects an unknown option itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err


# each family option as passed at the value that was its default
OLD_DEFAULTS = {"X": ["--X", ""], "roots": ["--roots", ""], "gamma1": ["--gamma1", ""],
                "gamma2": ["--gamma2", ""], "l_basis": ["--l-basis", ""],
                "quantum": ["--quantum"], "part": ["--part", "R"]}


def _unread_option_lines():
    for name, (quantum, _, reads) in FAMILIES.items():
        equation = "qdybe" if quantum else "cdybe"
        for dest in FAMILY_OPTIONS:
            if dest in reads:
                continue
            yield ["catalog", name, "--n", "2"] + OLD_DEFAULTS[dest], dest
            yield ["verify", equation, "--catalog", name, "--n", "2"] + OLD_DEFAULTS[dest], dest
            if quantum and dest in ("X", "part"):
                yield ["limit", "--catalog", name, "--n", "2"] + OLD_DEFAULTS[dest], dest


@pytest.mark.parametrize("argv,dest", _unread_option_lines(),
                         ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_a_family_rejects_an_option_it_does_not_read_at_any_value(capsys, argv, dest):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--" + dest.replace("_", "-") in captured.err


def test_every_family_has_an_option_it_does_not_read():
    lines = list(_unread_option_lines())
    assert {argv[1] for argv, _ in lines if argv[0] == "catalog"} == set(FAMILIES)


def _readme_lines():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def _manifest():
    return json.loads((ROOT / "acceptance.json").read_text())["criteria"]


@pytest.mark.parametrize("argv", _readme_lines() + list(_manifest().values()), ids=" ".join)
def test_documented_invocations_parse(argv):
    assert argv[0] == "dybax"
    build_parser().parse_args(argv[1:])      # parse only; argparse exits on an error


def test_manifest_lists_every_acceptance_criterion():
    numbers = [int(name.split()[0]) for name, _ in acceptance.CRITERIA]
    assert sorted(int(k) for k in _manifest()) == sorted(numbers)
    assert all(argv[-1] == k for k, argv in _manifest().items())


COMMANDS = ["datum", "module", "catalog", "fusion", "verify", "verify-suite", "limit",
            "shapovalov", "macdonald", "acceptance"]
MACDONALD_OPTIONS = {"operator": {"--n", "--r", "--m"}, "polynomial": {"--n", "--mu", "--m"},
                     "commute": {"--n", "--m"}, "corollary91": {"--m"},
                     "trace-residual": {"--depth", "--order", "--biorder"}}


@pytest.mark.parametrize("argv", [[c] for c in COMMANDS]
                         + [["macdonald", a] for a in MACDONALD_OPTIONS], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: dybax {' '.join(argv)}")
    if argv[0] == "macdonald" and len(argv) == 2:
        listed = set(re.findall(r"--[a-z0-9-]+", out))
        assert listed == MACDONALD_OPTIONS[argv[1]] | {"--help", "--output"}
