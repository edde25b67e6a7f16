import json

import pytest

from affine_hecke.cli import main
from affine_hecke.hecke import rho_gen, t_gen
from affine_hecke.serialize import hecke_from_json, module_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "-n", "2", "T1^-1*T1")
    assert code == 0
    assert out == "1"


def test_eval_json_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "-n", "2", "rho*T0", "--format", "json")
    assert code == 0
    assert hecke_from_json(json.loads(out)) == rho_gen(2, 1) * t_gen(2, 0)


def test_eval_mod_rho2(capsys):
    code, out, _ = run(capsys, "eval", "-n", "2", "rho^2", "--mod-rho2")
    assert code == 0
    assert out == "1"


def test_pair_value(capsys):
    code, out, _ = run(capsys, "pair", "-n", "2", "b01", "b10")
    assert code == 0
    assert out == "2*q^2 + q^4"


def test_psi_single_side(capsys):
    code, out, _ = run(capsys, "psi", "--n", "2", "--k", "1", "--side", "L", "rho")
    assert code == 0
    assert out == "rho*T1"


def test_psi_both(capsys):
    code, out, _ = run(capsys, "psi", "--n", "2", "--k", "1", "rho", "rho")
    assert code == 0
    assert out == "rho^2"


def test_induce_json_matches_worked_module(capsys):
    code, out, _ = run(
        capsys, "induce", "--left", "trivial:1", "--right", "trivial:1",
        "--n", "2", "--k", "1", "--format", "json",
    )
    assert code == 0
    mod = module_from_json(json.loads(out))
    from affine_hecke.laurent import ONE, QINV, Q, ZERO

    assert mod.rho_mat == ((ZERO, ONE), (ONE, ZERO))
    assert mod.t_mats[0] == ((ZERO, ONE), (ONE, QINV - Q))


def test_induce_default_text_format(capsys, monkeypatch):
    monkeypatch.delenv("AHECKE_FORMAT", raising=False)
    code, out, _ = run(capsys, "induce", "--n", "2", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["rho = [[0, 1], [1, 0]]", "T1 = [[0, 1], [1, q^-1 - q]]"]


def test_reduce_u(capsys):
    code, out, _ = run(capsys, "reduce-u", "rho^2 - 1")
    assert code == 0
    assert out == "0"


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--module", "U", "--bound", "20", "b1", "u0")
    assert code == 0
    assert out == "u1"


def test_pi_uw(capsys):
    code, out, _ = run(capsys, "pi-uw", "u1")
    assert code == 0
    assert out == "(q, 1)"


def test_yclass(capsys):
    code, out, _ = run(capsys, "yclass", "1", "1")
    assert code == 0
    assert out == "rho^2"


def test_gradedrank(capsys):
    code, out, _ = run(capsys, "gradedrank", "b01", "b10")
    assert code == 0
    assert out == "2*q^2 + q^4"
    code, out, _ = run(capsys, "gradedrank", "rho*b01", "rho*b01")
    assert code == 0
    assert out == "1 + 2*q^2 + q^4"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "-n", "2", "T1 + $")
    assert code == 2
    assert "offset" in err


def test_bad_index_exit_code(capsys):
    code, _, _ = run(capsys, "eval", "-n", "2", "T5")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-n", "0", "rho"],
        ["induce", "--n", "3", "--k", "1", "--left", "trivial:x"],
        ["gradedrank", "rho^x*b01", "b1"],
        ["check", "--criteria", "x"],
        ["check", "--criteria", "99"],
    ],
)
def test_bad_integer_or_rank_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_rank_error_exit_code(capsys):
    code, _, _ = run(capsys, "eval", "-n", "3", "b010")
    assert code == 3


def test_truncation_exit_code(capsys):
    code, _, _ = run(capsys, "reduce-u", "--bound", "2", "b0101")
    assert code == 3


def test_check_single_criterion(capsys):
    code, out, _ = run(capsys, "check", "--criteria", "1")
    assert code == 0
    assert "criterion  1" in out and "PASS" in out


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("AHECKE_FORMAT", "json")
    code, out, _ = run(capsys, "eval", "-n", "2", "T1")
    assert code == 0
    assert json.loads(out)["basis"] == "standard"
