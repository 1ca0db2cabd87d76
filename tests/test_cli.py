import json

from dybax.cli import main


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


def test_verify_hecke_rep(capsys):
    code, out = run_cli(capsys, ["verify", "hecke-rep", "--catalog", "R-eps-X",
                                 "--n", "2", "--X", "1,2", "--p", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["exact_zero"] is True


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


def test_acceptance_rejects_unknown_criterion(capsys):
    code, out = run_cli(capsys, ["acceptance", "--criterion", "99"])
    assert code == 2 and out == ""  # runs nothing, so it must not pass


def test_hecke_rep_with_one_slot_is_a_precondition_violation(capsys):
    code, out = run_cli(capsys, ["verify", "hecke-rep", "--catalog", "R-eps-X",
                                 "--n", "2", "--X", "1,2", "--p", "1"])
    assert code == 3 and out == ""  # p = 1 checks no relation


def test_shapovalov_negative_depth_is_a_precondition_violation(capsys):
    code, out = run_cli(capsys, ["shapovalov", "--depth", "-1"])
    assert code == 3 and out == ""  # depth -1 compares no Gram entry
