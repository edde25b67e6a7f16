import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


BIG = 123456789012345678901234567890


@pytest.mark.parametrize(
    "text, expect",
    [
        ("(q^100000 + 1)^3", "(1 + 3*q^100000 + 3*q^200000 + q^300000)"),
        (f"{BIG}*T1*T1", f"{BIG} + ({BIG}*q^-1 - {BIG}*q)*T1"),
    ],
)
def test_eval_wide_span_and_huge_coefficients(capsys, text, expect):
    # a span of 300001 or a 97-bit coefficient is kept as an exponent -> int dict
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "-n", "2", text)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == expect


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


@pytest.mark.parametrize(
    "argv,dashed",
    [
        (["eval", "-n", "2", "-T1"], ["eval", "-n", "2", "--", "-T1"]),
        (["reduce-u", "-b1"], ["reduce-u", "--", "-b1"]),
    ],
)
def test_negated_atom_is_an_expression(capsys, argv, dashed):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *dashed)
    assert code == 0 and out.startswith("-")


def test_unknown_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-n", "2", "--bogus", "T1"])
    assert exc.value.code == 2


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
        ["induce", "--n", "2", "--k", "0", "--left", "trivial:0", "--right", "trivial:2"],
        ["induce", "--n", "1", "--k", "0", "--left", "trivial:0", "--right", "trivial:1"],
        ["induce", "--n", "2", "--k", "-1", "--left", "trivial:-1", "--right", "trivial:3"],
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


# ---------------------------------------------------------------------------
# the exit-code contract under random argv: 0 success, 2 usage, 3 data

ATOMS = (
    "q", "2", "T0", "T1", "T2", "T3", "T[4]", "rho", "b0", "b1", "b01", "b010",
    "y1", "y2", "u0", "u3", "u'1",
)
ALPHABET = ATOMS + ("bs", "+", "-", "*", "^", "(", ")", ",", "1", "3")
RANKS = st.integers(1, 4)
INTS = st.integers(-3, 3)
FORMATS = st.sampled_from(("text", "json", "latex"))
LABELS = st.sampled_from(("b", "1", "b01", "rho*b10", "rho^-2*b0", "rho^x*b1", "b012", "c01"))
VECTORS = st.sampled_from(("u0", "u'1", "q*u3 - u0", "2*u'0 + u1", "u19 + u20"))


@st.composite
def expressions(draw):
    """Token soup, or a sum/product of powered atoms; at most 8 tokens."""
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(ALPHABET), max_size=8))
    else:
        tokens = []
        for pos in range(draw(st.integers(1, 3))):
            if pos:
                tokens.append(draw(st.sampled_from("+-*")))
            tokens.append(draw(st.sampled_from(ATOMS)))
            e = draw(st.none() | INTS)
            if e is not None:
                tokens += ["^", "-", str(-e)] if e < 0 else ["^", str(e)]
    return " ".join(tokens[:8])


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(
        ("eval", "pair", "psi", "induce", "act", "reduce-u", "pi-uw", "yclass", "gradedrank")
    ))
    n, k = str(draw(RANKS)), str(draw(RANKS))
    bound = ["--bound", str(draw(st.integers(-3, 20)))] if draw(st.booleans()) else []
    e = expressions()
    if cmd == "eval":
        argv = ["eval", "-n", n, draw(e)] + (["--mod-rho2"] if draw(st.booleans()) else [])
    elif cmd == "pair":
        argv = ["pair", "-n", n, draw(e), draw(e)]
    elif cmd == "psi":
        side = draw(st.sampled_from(("L", "R", "both")))
        exprs = draw(st.lists(e, min_size=1, max_size=2))
        argv = ["psi", "--n", n, "--k", k, "--side", side] + exprs
    elif cmd == "induce":
        left = draw(st.just(int(k)) | INTS)
        right = draw(st.just(int(n) - int(k)) | INTS)
        argv = ["induce", "--n", n, "--k", k, "--left", f"trivial:{left}", "--right", f"trivial:{right}"]
    elif cmd == "act":
        argv = ["act"] + bound + [draw(e), draw(VECTORS | e)]
    elif cmd == "pi-uw":
        argv = ["pi-uw"] + bound + [draw(VECTORS | e)]
    elif cmd == "reduce-u":
        argv = ["reduce-u"] + bound + [draw(e)]
    elif cmd == "yclass":
        argv = ["yclass", str(draw(INTS)), str(draw(INTS))]
    else:
        argv = ["gradedrank", draw(LABELS | e), draw(LABELS | e)]
    return argv + ["--format", draw(FORMATS)]


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_exit_code_contract_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
