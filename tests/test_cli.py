import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke import checks
from affine_hecke.cli import MAX_RANK, _parse_kl_label, main
from affine_hecke.expr import MAX_NESTING, eval_algebra, parse
from affine_hecke.pairing import Y_INVERSE_LIMIT, y_class
from affine_hecke.hecke import HeckeElt, KLLabel, alt_word, rho_gen, t_gen
from affine_hecke.parabolic import bernstein_y
from affine_hecke.serialize import hecke_from_json, module_from_json, to_text


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


HUGE = "7" * 5000  # past Python's limit of 4300 digits on int <-> str
DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7")


@contextmanager
def digit_limit(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@DIGIT_LIMIT
@pytest.mark.parametrize("text", ["2^20000", f"{HUGE}*T1", f"rho^{HUGE}"], ids=["power", "literal", "rho-power"])
def test_eval_integers_past_the_digit_limit(capsys, text):
    with digit_limit(4300):
        text_run = run(capsys, "eval", "-n", "2", text)
        json_run = run(capsys, "eval", "-n", "2", text, "--format", "json")
        assert sys.get_int_max_str_digits() == 4300
    with digit_limit(0):
        expect = eval_algebra(parse(text), 2)
        assert text_run == (0, to_text(expect), "")
        assert json_run[0] == 0 and hecke_from_json(json.loads(json_run[1])) == expect


def test_closed_pipe_ends_the_script_without_a_traceback():
    # (5,5) JSON is about 2.5 MB, far past a pipe's buffer, so the writer
    # still writes when the reader closes after 50 bytes
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["induce", "--n", "10", "--k", "5", "--left", "trivial:5", "--right", "trivial:5", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "affine_hecke.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Error" not in err, err


def test_console_script_ends_quietly_on_a_closed_pipe():
    # the installed script runs sys.exit(entry()) for the entry pyproject.toml names
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as f:
        module, entry = re.search(r'^ahecke = "([\w.]+):(\w+)"$', f.read(), re.M).groups()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))}
    script = f"import sys; from {module} import {entry}; sys.exit({entry}())"
    argv = ["induce", "--n", "10", "--k", "5", "--left", "trivial:5", "--right", "trivial:5", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err, err


@pytest.mark.parametrize(
    "text, positive",
    [
        ("rho^-3", lambda: rho_gen(3, 3)),
        ("T1^-2", lambda: t_gen(3, 1) ** 2),
        ("y2^-2", lambda: bernstein_y(3, 2) ** 2),
        ("(T1+T0)^-1", None),
        ("2^-1", None),
        ("(1+q)^-1", None),
        ("0^-1", None),
    ],
)
def test_eval_negative_powers(capsys, text, positive):
    # a power that inverts prints the inverse of the positive power, any other is a usage error
    code, out, err = run(capsys, "eval", "-n", "3", text, "--format", "json")
    if positive is None:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
    else:
        assert code == 0
        assert hecke_from_json(json.loads(out)) * positive() == HeckeElt.one(3)


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


def test_scalars_where_a_module_vector_is_expected_exit_2(capsys):
    assert run(capsys, "act", "b1", "q") == (2, "", "error: expected a module vector, got a scalar")
    assert run(capsys, "act", "b1", "u0 + 1") == (2, "", "error: cannot add a scalar to a module vector")


def test_vector_times_scalar_is_scalar_times_vector(capsys):
    assert run(capsys, "pi-uw", "u1*q") == run(capsys, "pi-uw", "q*u1") == (0, "(q^2, q)", "")


def test_trailing_whitespace_parses(capsys):
    assert run(capsys, "eval", "-n", "2", "T1 + q   ") == (0, "q + T1", "")


@pytest.mark.parametrize("atom", ["rho", "T1", "b1", "bs(1)", "y1"])
def test_algebra_atoms_in_a_module_vector_exit_2(capsys, atom):
    for argv in (["act", "b1", f"u0 + {atom}"], ["pi-uw", f"u0 + {atom}"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("atoms are algebra elements, not module vectors")


def test_yclass(capsys):
    code, out, _ = run(capsys, "yclass", "1", "1")
    assert code == 0
    assert out == "rho^2"


@pytest.mark.parametrize("r, s", [("99999999999999999999", "1"), ("0", "-100001")])
def test_yclass_exponent_limit_exit_code(capsys, r, s):
    # rejected before any word is built; 10^20 used to end in an OverflowError
    code, out, err = run(capsys, "yclass", r, s)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "<= 100000" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "r, s", [(str(-Y_INVERSE_LIMIT - 1), "0"), ("1", str(Y_INVERSE_LIMIT + 2)), ("-75", "76")]
)
def test_yclass_inverse_letter_limit_exit_code(capsys, r, s):
    # each case inverts an element of length s - r = limit + 1; rejected
    # before any word is built (1 300 took 48 s and 1 1000 no result in 100 s)
    code, out, err = run(capsys, "yclass", r, s)
    assert code == 3 and out == ""
    assert err.startswith("error:") and f"at most {Y_INVERSE_LIMIT}" in err and "Traceback" not in err


def test_yclass_at_the_inverse_limit_answers(capsys):
    # s - r = Y_INVERSE_LIMIT itself is allowed: about 2 s, nearly all printing
    r, s = -Y_INVERSE_LIMIT // 2, Y_INVERSE_LIMIT // 2
    code, out, err = run(capsys, "yclass", "--", str(r), str(s))
    assert (code, err) == (0, "")
    assert out and out == str(y_class(r, s))


def test_yclass_without_inverse_letters_is_not_held_to_the_inverse_limit(capsys):
    # rho T_1 and (T_1^-1 rho)^-1 = rho^-1 T_1 stay one basis element each
    code, out, _ = run(capsys, "yclass", "1000", "-1000")
    assert code == 0 and out == "*".join(["T0", "T1"] * 1000)


@pytest.mark.parametrize("r, s", [(-200, -300), (-100000, -99900)])
def test_yclass_is_held_to_the_inverse_limit_only_when_it_inverts(capsys, r, s):
    # r >= s is one basis element; -100000 -99900 inverts one of length 100
    code, out, err = run(capsys, "yclass", "--", str(r), str(s))
    assert code == 0 and err == ""
    value = y_class(r, s)
    assert out == str(value)
    assert value * y_class(-r, -s) == HeckeElt.one(2)


def test_gradedrank(capsys):
    code, out, _ = run(capsys, "gradedrank", "b01", "b10")
    assert code == 0
    assert out == "2*q^2 + q^4"
    code, out, _ = run(capsys, "gradedrank", "rho*b01", "rho*b01")
    assert code == 0
    assert out == "1 + 2*q^2 + q^4"


def test_gradedrank_reads_every_printed_label(capsys):
    for m in range(-3, 4):
        for length in range(7):
            for first in (0, 1) if length else (0,):
                label = KLLabel(m, alt_word(length, first=first))
                assert _parse_kl_label(str(label)) == label
    assert run(capsys, "gradedrank", "rho", "b01") == run(capsys, "gradedrank", "rho*b", "b01")
    assert run(capsys, "gradedrank", "rho^-2", "b1")[0] == 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-n", "99999999999", "1"],
        ["eval", "-n", str(MAX_RANK + 1), "rho"],
        ["pair", "-n", str(MAX_RANK + 1), "rho", "rho"],
        ["psi", "--n", str(MAX_RANK + 1), "--k", "1", "--side", "L", "rho"],
        ["induce", "--n", "99999999999", "--k", "1"],
    ],
)
def test_rank_above_the_limit_exit_code(capsys, argv):
    # rejected before any window is built: -n 99999999999 used to end in a
    # MemoryError and -n 100000 ran for minutes
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: rank must be at most {MAX_RANK}, got {argv[2]}"


def test_rank_at_the_limit(capsys):
    code, out, _ = run(capsys, "eval", "-n", str(MAX_RANK), "rho")
    assert code == 0 and out == "rho"


def test_long_sums_and_products(capsys):
    # each used to end in a RecursionError (from 1000 terms, 3000 factors)
    code, out, err = run(capsys, "eval", "-n", "2", "+".join(["T1"] * 5000))
    assert (code, out, err) == (0, "5000*T1", "")
    code, out, err = run(capsys, "eval", "-n", "2", "*".join(["rho"] * 3000))
    assert (code, out, err) == (0, "rho^3000", "")


def test_nesting_depth_limit_exit_code(capsys):
    deep = "(" * MAX_NESTING + "T1" + ")" * MAX_NESTING
    assert run(capsys, "eval", "-n", "2", deep) == (0, "T1", "")
    deep = "rho*(" * MAX_NESTING + "rho" + ")" * MAX_NESTING
    assert run(capsys, "pair", "-n", "2", deep, deep) == (0, "1", "")
    code, out, err = run(capsys, "eval", "-n", "2", "(" + deep + ")")
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {MAX_NESTING} deep" in err and "Traceback" not in err


def test_truncation_exit_code(capsys):
    code, _, _ = run(capsys, "reduce-u", "--bound", "2", "b0101")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce-u", "0", "--bound", "-5"],
        ["reduce-u", "1", "--bound", "-5"],
        ["act", "b1", "u0", "--bound", "-1"],
        ["pi-uw", "u0", "--bound", "-1"],
        ["pi-uw", "0", "--bound", "-1"],
    ],
)
def test_negative_truncation_bound_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: truncation bound must be at least 0, got {argv[-1]}"


def test_check_single_criterion(capsys):
    code, out, _ = run(capsys, "check", "--criteria", "1")
    assert code == 0
    assert "criterion  1" in out and "PASS" in out


def test_check_reports_an_exceeded_budget(capsys, monkeypatch):
    name, fn, _ = checks.CRITERIA[1]
    monkeypatch.setitem(checks.CRITERIA, 1, (name, fn, 0))
    code, out, _ = run(capsys, "check", "--criteria", "1")
    first, last = out.splitlines()
    assert code == 1
    assert first.startswith("[FAIL] criterion  1 (") and first.endswith(f"{name} [exceeded 0s budget]")
    assert last == "0/1 criteria passed"


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
    # an index past the 4300-digit limit; a bare integer that long could be an
    # exponent, and 2^(10^4399) is no answer a machine holds
    "u" + "9" * 4400,
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
