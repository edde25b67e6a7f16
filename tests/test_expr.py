import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke import expr
from affine_hecke import serialize
from affine_hecke.bernstein import BernsteinElt, to_bernstein
from affine_hecke.errors import AffineHeckeError, BadIndex, InvalidValue, ParseError, RankUnsupported
from affine_hecke.example_n2 import UVec, pi_uw, w_module
from affine_hecke.hecke import (
    HeckeElt,
    KLLabel,
    b_gen,
    bott_samelson,
    kl_combo_to_std,
    kl_to_std,
    rho_gen,
    std_to_kl,
    t_gen,
    t_inv_gen,
    word_elt,
)
from affine_hecke.laurent import ONE, Q, QINV, LaurentPoly
from affine_hecke.modules import induce, trivial_module
from affine_hecke.parabolic import bernstein_y
from affine_hecke.weyl import AffinePerm, rho, simple


def ev(src, n=2):
    return expr.eval_algebra(expr.parse(src), n)


def test_atoms():
    assert ev("q") == HeckeElt.one(2).scale(Q)
    assert ev("3") == HeckeElt.one(2).scale(3)
    assert ev("T1") == t_gen(2, 1)
    assert ev("rho") == rho_gen(2, 1)
    assert ev("b0") == b_gen(2, 0)
    assert ev("b01") == kl_to_std(KLLabel(0, (0, 1)))
    assert ev("bs(0,1)") == bott_samelson(2, (0, 1))
    assert ev("y1") == bernstein_y(2, 1)


def test_dihedral_identities():
    assert ev("b0*b1*b0 - b010 - b0").is_zero
    assert ev("T1^-1*T1") == HeckeElt.one(2)
    assert ev("b01 - bs(0,1)").is_zero


def test_precedence():
    # ^ binds tighter than *, * tighter than +
    assert ev("q^2*T1 + T0") == t_gen(2, 1).scale(Q * Q) + t_gen(2, 0)
    assert ev("2*q + q") == HeckeElt.one(2).scale(Q * 3)
    assert ev("(T0 + T1)*q") == (t_gen(2, 0) + t_gen(2, 1)).scale(Q)


def test_leading_minus():
    assert ev("-T1") == -t_gen(2, 1)
    assert ev("-2 + 2").is_zero


def test_negative_powers():
    assert ev("rho^-2") == rho_gen(2, -2)
    assert ev("T0^-1") == t_inv_gen(2, 0)
    assert ev("y2^-1*y2") == HeckeElt.one(2)
    assert ev("q^-3") == HeckeElt.one(2).scale(LaurentPoly.q_power(-3))
    # single-term unit products invert too
    assert ev("(rho*T1)^-1*(rho*T1)") == HeckeElt.one(2)


def test_non_invertible_power():
    with pytest.raises(BadIndex):
        ev("(T0 + T1)^-1")
    with pytest.raises(BadIndex):
        ev("2^-1")


def test_bracketed_index():
    assert expr.parse("T[11]") == expr.TAtom(11)
    assert ev("T[1]") == t_gen(2, 1)


def test_kl_word_guards():
    with pytest.raises(RankUnsupported):
        ev("b01", n=3)
    with pytest.raises(BadIndex):
        ev("b00")  # not alternating
    assert ev("b1", n=3) == b_gen(3, 1)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as info:
        expr.parse("T1 + $")
    assert info.value.offset == 5
    with pytest.raises(ParseError):
        expr.parse("T1 +")
    with pytest.raises(ParseError):
        expr.parse("bs(1")
    with pytest.raises(ParseError):
        expr.parse("q^x")


@pytest.fixture
def digit_limit():
    """Python's default limit of 4300 digits on int <-> str, for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no digit limit before Python 3.10.7")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "prefix, suffix, offset",
    [("u", "", 0), ("u'", "", 0), ("y", "", 0), ("T[", "]", 0), ("2 + ", "", 4), ("q^-", "", 3), ("bs(1,", ")", 5)],
    ids=["u", "u-prime", "y", "T-bracket", "literal", "exponent", "bs-index"],
)
def test_integers_past_the_digit_limit_are_parse_errors(digit_limit, prefix, suffix, offset):
    with pytest.raises(ParseError, match="digit limit") as info:
        expr.parse(prefix + "9" * 4400 + suffix)
    assert info.value.offset == offset


def test_printing_integers_past_the_digit_limit_is_invalid(digit_limit):
    value = expr.eval_algebra(expr.parse("2^20000"), 2)
    for printer in (serialize.to_text, serialize.to_latex):
        with pytest.raises(InvalidValue, match=r"sys\.set_int_max_str_digits"):
            printer(value)


def test_json_values_hold_integers_past_the_digit_limit(digit_limit):
    # to_json converts no integer, so json.dumps meets the limit, not to_json;
    # ahecke lifts it for its call (tests/test_cli.py)
    big = 7 * 10**5000
    data = serialize.to_json(LaurentPoly({-1: big, 2: 1}))
    assert data == {"-1": big, "2": 1} and type(data["-1"]) is int
    with pytest.raises(ValueError, match="limit"):
        json.dumps(data)
    sys.set_int_max_str_digits(0)
    assert json.loads(json.dumps(data)) == data


def test_uvec_mode():
    vec = expr.eval_uvec(expr.parse("u0 + q*u'1"))
    assert vec == UVec.basis(0) + UVec.basis(1, primed=True).scale(Q)
    assert expr.eval_uvec(expr.parse("u3 - u3")).is_zero
    with pytest.raises(BadIndex):
        expr.eval_uvec(expr.parse("T1"))
    with pytest.raises(BadIndex):
        expr.eval_uvec(expr.parse("u1*u1"))
    with pytest.raises(BadIndex):
        expr.eval_algebra(expr.parse("u1"), 2)


@pytest.mark.parametrize("atom, name", [("rho", "rho"), ("T1", "T"), ("b1", "b"), ("bs(1)", "bs"), ("y1", "y")])
def test_algebra_atoms_are_not_module_vectors(atom, name):
    for text in (atom, f"u0 + q*{atom}", f"{atom}^2"):
        with pytest.raises(BadIndex, match=f"^{name} atoms are algebra elements, not module vectors$"):
            expr.eval_uvec(expr.parse(text))


def test_module_vector_text_round_trip():
    tree = expr.parse("u'3 - q*u0")
    assert expr.to_text(tree) == "u'3 - q*u0"
    assert expr.parse(expr.to_text(tree)) == tree


def test_print_parse_round_trip_manual():
    for src in ("q^-1 + 2 + q", "rho^2*T0*T1", "-3*q^2*T0", "(q + 1)*b01"):
        tree = expr.parse(src)
        again = expr.parse(expr.to_text(tree))
        assert expr.eval_algebra(again, 2) == expr.eval_algebra(tree, 2)


def test_long_chains_print_and_evaluate_in_loops():
    # a 5000-term sum and a 3000-factor product are one node each
    total = " + ".join(["T1"] * 5000)
    assert expr.to_text(expr.parse(total)) == total
    assert ev(total) == t_gen(2, 1).scale(LaurentPoly.const(5000))
    product = "*".join(["rho"] * 3000)
    assert expr.to_text(expr.parse(product)) == product
    assert ev(product) == rho_gen(2, 3000)


def test_long_chains_compare_hash_and_repr_in_loops():
    # == and hash go by value, and repr keeps the record form, at any length
    terms = [f"T{i % 3}" if i % 5 else f"q*T{i % 2}*rho" for i in range(5000)]
    total = " + ".join(terms[:-1]) + " - " + terms[-1]
    tree, again = expr.parse(total), expr.parse(total)
    assert tree is not again and tree == again and not tree != again
    assert hash(tree) == hash(again) and {tree: 1}[again] == 1
    assert repr(tree) == repr(again)
    assert type(tree) is expr.Sum and len(tree.terms) == 5000
    first = "Sum(terms=((1, Prod(factors=(QAtom(), TAtom(index=0), RhoAtom()))), (1, TAtom(index=1)), "
    assert repr(tree).startswith(first) and repr(tree).endswith(", (-1, TAtom(index=1))))")
    for other in (" + ".join(terms), " + ".join(terms[1:]), "q + " + total, total.replace("T2", "T1", 1)):
        assert tree != expr.parse(other) and expr.parse(other) != tree
    assert repr(expr.parse("1 + q*2")) == "Sum(terms=((1, Num(value=1)), (1, Prod(factors=(QAtom(), Num(value=2))))))"
    assert hash(expr.parse("T1 + T0")) != hash(expr.parse("T0 + T1"))


def test_chains_are_flat_and_keep_their_grouping():
    assert expr.parse("-T1") == expr.Sum(((-1, expr.TAtom(1)),))
    assert expr.parse("T1 - q*rho") == expr.Sum(((1, expr.TAtom(1)), (-1, expr.Prod((expr.QAtom(), expr.RhoAtom())))))
    # parentheses keep their node: (a + b) + c is not a + b + c
    grouped, flat = expr.parse("(T1 + T0) + q"), expr.parse("T1 + T0 + q")
    assert grouped.terms[0] == (1, expr.parse("T1 + T0")) and len(flat.terms) == 3
    assert grouped != flat and expr.to_text(grouped) == expr.to_text(flat) == "T1 + T0 + q"
    assert expr.parse("q*(T1*T0)") == expr.Prod((expr.QAtom(), expr.Prod((expr.TAtom(1), expr.TAtom(0)))))


def test_chains_keep_their_parentheses():
    for src in (
        "(T1 + T0)*(T1 - T0)*rho - q*T1 + 2",
        "T1 - (T0 - q) + (T1 + T0)^2",
        "-T1*(q - 1) - 3",
        "-(T1 - q) + (-T0 + rho^-1)*(-q)*T0^-2 - T1^-3",
    ):
        assert expr.to_text(expr.parse(src)) == src


def test_nesting_depth_limit():
    deep = "(" * (expr.MAX_NESTING + 1) + "T1" + ")" * (expr.MAX_NESTING + 1)
    with pytest.raises(ParseError, match=f"more than {expr.MAX_NESTING} deep"):
        expr.parse(deep)
    with pytest.raises(ParseError, match=f"more than {expr.MAX_NESTING} deep"):
        expr.parse("(" * 100000)
    # rho - (rho - (... - T1)), a right spine that prints with every parenthesis
    within = "rho - (" * expr.MAX_NESTING + "rho - T1" + ")" * expr.MAX_NESTING
    assert expr.to_text(expr.parse(within)) == within
    assert ev(within) == (t_gen(2, 1) if expr.MAX_NESTING % 2 else rho_gen(2) - t_gen(2, 1))
    # ==, hash and repr recurse once per parenthesis level, and the limit stays within reach
    tree, again = expr.parse(within), expr.parse(within)
    assert tree is not again and tree == again and hash(tree) == hash(again) and repr(tree) == repr(again)
    assert tree != expr.parse(within.replace("T1", "T0")) and repr(tree).count("Sum(") == expr.MAX_NESTING + 1
    for wrap in ("-(", "q*(", "(T1 + ", "(-"):
        deep = wrap * expr.MAX_NESTING + "T1" + ")" * expr.MAX_NESTING
        assert expr.parse(deep) == expr.parse(deep) and hash(expr.parse(deep)) == hash(expr.parse(deep))
        assert repr(expr.parse(deep)) == repr(expr.parse(deep)) and expr.to_text(expr.parse(deep))


def test_rank4_element_text_round_trip():
    # 1344 terms: its text did not parse back before sums were read in a loop
    rng = random.Random(1)
    elt = HeckeElt.one(4)
    for _ in range(36):
        elt = elt * b_gen(4, rng.randrange(4))
    assert len(elt.terms) == 1344
    assert ev(serialize.to_text(elt), 4) == elt


def test_serialized_values_reparse():
    rng = random.Random(31337)
    elts = [
        t_gen(2, 0) * t_gen(2, 1),
        rho_gen(2, -1) * b_gen(2, 1),
        HeckeElt.zero(2),
        HeckeElt.one(2).scale(Q - QINV),
        kl_to_std(KLLabel(1, (0, 1, 0))),
    ]
    for value in elts:
        text = serialize.to_text(value)
        assert expr.eval_algebra(expr.parse(text), 2) == value


def test_serialized_uvec_reparses():
    vec = UVec.basis(2).scale(Q) - UVec.basis(0, primed=True)
    text = serialize.to_text(vec)
    assert expr.eval_uvec(expr.parse(text)) == vec


def test_serialized_bernstein_reparses():
    b = to_bernstein(rho_gen(2, 1) * t_gen(2, 0))
    text = serialize.to_text(b)
    # bernstein text re-evaluates to the same algebra element
    from affine_hecke.bernstein import from_bernstein

    assert expr.eval_algebra(expr.parse(text), 2) == from_bernstein(b)


def test_str_is_the_text_form():
    vec = UVec(20, {(False, 3): Q, (True, 0): -QINV})
    assert str(vec) == serialize.to_text(vec) == "q*u3 - q^-1*u'0"
    for value in (rho_gen(2, -1) * b_gen(2, 1), to_bernstein(rho_gen(2, 1) * t_gen(2, 0))):
        assert str(value) == serialize.to_text(value)


def test_malformed_json_raises_typed_error():
    with pytest.raises(InvalidValue):
        serialize.perm_from_json({"n": 2, "window": [1, 1]})
    with pytest.raises(InvalidValue):
        serialize.hecke_from_json({"n": 2, "terms": [{"window": [1, 2, 3], "coeff": {"0": 1}}]})
    with pytest.raises(InvalidValue):
        serialize.module_from_json({"n": 1, "dim": 1, "gens": {"rho": [[{"0": 2}]]}})


MALFORMED = {
    "module-entry-not-an-object": (serialize.module_from_json, {"n": 1, "dim": 1, "gens": {"rho": ["ab"]}}),
    "module-coeff-not-an-integer": (serialize.module_from_json, {"n": 1, "dim": 1, "gens": {"rho": [[{"0": "a"}]]}}),
    "module-without-gens": (serialize.module_from_json, {"n": 1, "dim": 1}),
    "module-of-dimension-0": (serialize.module_from_json, {"n": 2, "dim": 0, "gens": {"T1": [], "rho": []}}),
    "module-without-n": (serialize.module_from_json, {"dim": 1, "gens": {"rho": [[{"0": 1}]]}}),
    "module-of-rank-0": (serialize.module_from_json, {"n": 0, "dim": 1, "gens": {"rho": [[{"0": 1}]]}}),
    "hecke-without-n": (serialize.hecke_from_json, {"terms": []}),
    "hecke-terms-not-a-list": (serialize.hecke_from_json, {"n": 2, "terms": 5}),
    "bernstein-without-lambda": (serialize.bernstein_from_json, {"n": 2, "terms": [{"perm": [1, 2], "coeff": {}}]}),
    "laurent-exponent-not-an-integer": (serialize.laurent_from_json, {"x": 1}),
    "laurent-exponent-leading-zero-duplicate": (serialize.laurent_from_json, {"1": 1, "01": 2}),
    "laurent-exponent-space-duplicate": (serialize.laurent_from_json, {"1": 1, " 1": 5}),
    "laurent-exponent-plus-sign": (serialize.laurent_from_json, {"+1": 1}),
    "hecke-coeff-exponent-leading-zero": (serialize.hecke_from_json, {"n": 2, "terms": [{"window": [1, 2], "coeff": {"00": 1}}]}),
    "uvec-name-not-u": (serialize.uvec_from_json, {"N": 20, "coeffs": {"v3": {"0": 1}}}),
    "hecke-of-negative-rank": (serialize.hecke_from_json, {"n": -3, "terms": []}),
    "bernstein-of-rank-0": (serialize.bernstein_from_json, {"n": 0, "terms": []}),
    "uvec-of-negative-bound": (serialize.uvec_from_json, {"N": -4, "coeffs": {}}),
    "hecke-kl-map-of-rank-5": (serialize.hecke_from_json, {"n": 5, "basis": "kl", "terms": []}),
    "kl-map-of-rank-5": (serialize.kl_map_from_json, {"n": 5, "terms": []}),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_json_is_invalid_value(case):
    reader, data = MALFORMED[case]
    with pytest.raises(InvalidValue):
        reader(data)


COEFF = {"0": 1}
NOT_AN_INTEGER = {
    "laurent-coeff-float": (serialize.laurent_from_json, {"1": 2.9}),
    "laurent-coeff-half": (serialize.laurent_from_json, {"0": 1.5}),
    "laurent-coeff-bool": (serialize.laurent_from_json, {"0": True}),
    "laurent-coeff-string": (serialize.laurent_from_json, {"0": "2"}),
    "perm-rank-float": (serialize.perm_from_json, {"n": 2.0, "window": [1, 2]}),
    "perm-window-float": (serialize.perm_from_json, {"n": 2, "window": [1.0, 2]}),
    "hecke-rank-float": (serialize.hecke_from_json, {"n": 2.7, "terms": [{"window": [1, 2], "coeff": COEFF}]}),
    "hecke-rank-bool": (serialize.hecke_from_json, {"n": True, "terms": []}),
    "hecke-window-bool": (serialize.hecke_from_json, {"n": 2, "terms": [{"window": [True, 2], "coeff": COEFF}]}),
    "hecke-coeff-float": (serialize.hecke_from_json, {"n": 2, "terms": [{"window": [1, 2], "coeff": {"0": 0.5}}]}),
    "kl-rank-float": (serialize.kl_map_from_json, {"n": 2.0, "terms": []}),
    "kl-label-m-float": (serialize.kl_map_from_json, {"terms": [{"label": {"m": 0.5, "word": []}, "coeff": COEFF}]}),
    "kl-word-letter-bool": (serialize.kl_map_from_json, {"terms": [{"label": {"m": 0, "word": [True]}, "coeff": COEFF}]}),
    "kl-word-letter-string": (serialize.kl_map_from_json, {"terms": [{"label": {"m": 0, "word": ["1"]}, "coeff": COEFF}]}),
    "bernstein-rank-float": (serialize.bernstein_from_json, {"n": 1.5, "terms": []}),
    "bernstein-lambda-float": (serialize.bernstein_from_json,
                               {"n": 2, "terms": [{"perm": [1, 2], "lambda": [0.5, 0], "coeff": COEFF}]}),
    "module-rank-float": (serialize.module_from_json, {"n": 1.0, "dim": 1, "gens": {"rho": [[COEFF]]}}),
    "module-dim-bool": (serialize.module_from_json, {"n": 1, "dim": True, "gens": {"rho": [[COEFF]]}}),
    "module-entry-float": (serialize.module_from_json, {"n": 1, "dim": 1, "gens": {"rho": [[{"0": 1.0}]]}}),
    "uvec-bound-float": (serialize.uvec_from_json, {"N": 20.5, "coeffs": {}}),
    "uvec-coeff-bool": (serialize.uvec_from_json, {"N": 20, "coeffs": {"u3": {"0": False}}}),
}


@pytest.mark.parametrize("case", NOT_AN_INTEGER)
def test_json_integers_are_never_truncated(case):
    reader, data = NOT_AN_INTEGER[case]
    with pytest.raises(InvalidValue):
        reader(data)


JSON_KEYS = ["n", "dim", "gens", "terms", "window", "coeff", "perm", "lambda", "label", "m", "word",
             "basis", "N", "coeffs", "rho", "T1", "T2", "0", "1", "-1", "u3", "u'0", "kl"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(JSON_KEYS) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)
READERS = [serialize.laurent_from_json, serialize.perm_from_json, serialize.hecke_from_json,
           serialize.kl_map_from_json, serialize.bernstein_from_json, serialize.module_from_json,
           serialize.uvec_from_json]


def test_smallest_ranks_and_bounds_are_read():
    assert serialize.uvec_from_json({"N": 0, "coeffs": {"u0": {"0": 1}}}) == UVec.basis(0, bound=0)
    assert serialize.hecke_from_json({"n": 1, "terms": []}) == HeckeElt.zero(1)
    kl = {KLLabel(1, (0,)): Q}
    assert serialize.hecke_from_json(serialize.to_json(kl)) == kl
    assert serialize.kl_map_from_json({"terms": []}) == {}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READERS), json_values)
def test_json_readers_end_in_a_value_or_a_typed_error(reader, data):
    try:
        reader(data)
    except AffineHeckeError:
        pass


def test_latex_snapshots():
    assert serialize.to_latex(t_gen(2, 1)) == "T_{s_1}"
    assert serialize.to_latex(rho_gen(2, 1)) == r"\rho"
    kl = {KLLabel(0, (0, 1)): ONE}
    assert serialize.to_latex(kl) == "b_{01}"
    assert serialize.to_latex(Q + QINV) == "q^{-1} + q"
    assert serialize.to_latex(ev("q - T1")) == "q - T_{s_1}"
    kl_neg = {KLLabel(0, ()): -Q, KLLabel(0, (0, 1)): -ONE, KLLabel(1, (1,)): -(Q + QINV)}
    assert serialize.to_latex(kl_neg) == r"-q b_{e} - b_{01} + (-q^{-1} - q) \rho b_{1}"
    uvec = UVec(20, {(False, 3): Q, (True, 0): -QINV})
    assert serialize.to_latex(uvec) == "q u_{3} - q^{-1} u'_{0}"
    # subscripts of two digits are braced, one digit stays as it was
    assert serialize.to_latex(t_gen(12, 10) * t_gen(12, 1)) == "T_{s_{10} s_1}"
    module = serialize.to_latex(induce(trivial_module(11), trivial_module(1)))
    assert r"[T_9] = \begin{pmatrix}" in module and r", \quad [T_{11}] = \begin{pmatrix}" in module


def test_module_text_and_latex_snapshots():
    module = w_module()
    assert serialize.to_text(module) == "rho = [[0, 1], [1, 0]]\nT1 = [[0, 1], [1, q^-1 - q]]"
    assert serialize.to_latex(module) == (
        r"[\rho] = \begin{pmatrix} 0 & 1 \\ 1 & 0 \end{pmatrix}, \quad "
        r"[T_1] = \begin{pmatrix} 0 & 1 \\ 1 & q^{-1} - q \end{pmatrix}"
    )


def test_tuple_snapshots():
    value = pi_uw(UVec.basis(1))
    assert serialize.to_text(value) == "(q, 1)"
    assert serialize.to_latex(value) == r"\begin{pmatrix} q \\ 1 \end{pmatrix}"
    assert serialize.to_json(value) == [{"1": 1}, {"0": 1}]


@pytest.mark.parametrize(
    "value, data",
    [
        (LaurentPoly({-2: 3, 0: -1, 5: 7}), {"-2": 3, "0": -1, "5": 7}),  # packed
        (LaurentPoly({0: 2**62, 1: -1}), {"0": 2**62, "1": -1}),  # dict form: a coefficient past 2^62
        (LaurentPoly({-1: 1, 64: 5}), {"-1": 1, "64": 5}),  # dict form: span 66
        (LaurentPoly(), {}),
        (LaurentPoly({-3: -1, -1: 2}), {"-3": -1, "-1": 2}),
        (AffinePerm(1, (1,)), {"n": 1, "window": [1]}),
        (rho(3, 2) * simple(3, 1), {"n": 3, "window": [4, 3, 5]}),  # shift 2
    ],
    ids=["packed", "big-coefficient", "wide-span", "zero", "negative-exponents", "rank1", "rank3-shifted"],
)
def test_json_of_polynomials_and_permutations(value, data):
    assert serialize.to_json(value) == data


def test_bernstein_text_snapshot():
    b = to_bernstein(rho_gen(2, -1) * t_inv_gen(2, 0).scale(Q) + rho_gen(2, 1) * t_gen(2, 0) + t_gen(2, 1).scale(Q + QINV))
    assert serialize.to_text(b) == "q*y1^-1 + y2 + (q^-1 + q)*T1 + (q^-1 - q)*T1*y2"


def test_bernstein_latex_snapshot():
    b = to_bernstein(rho_gen(2, -1) * t_inv_gen(2, 0).scale(Q) + rho_gen(2, 1) * t_gen(2, 0) + t_gen(2, 1).scale(Q + QINV))
    assert serialize.to_latex(b) == r"q y_{1}^{-1} + y_{2} + (q^{-1} + q) T_{s_1} + (q^{-1} - q) T_{s_1} y_{2}"


def test_bernstein_json_uses_the_text_term_order():
    # by window alone (1, 4, 3, 2) would come first; the print order puts length first
    b = BernsteinElt(4, {(AffinePerm(4, (1, 4, 3, 2)), (0, 0, 0, 0)): ONE, (AffinePerm(4, (2, 1, 3, 4)), (1, 0, 0, 0)): Q})
    assert [term["perm"] for term in serialize.to_json(b)["terms"]] == [[2, 1, 3, 4], [1, 4, 3, 2]]
    assert serialize.to_text(b) == "q*T1*y1 + T2*T3*T2"


def test_kl_text_reparses():
    rng = random.Random(2718)
    letters = [(0, 1), (1, 1), (0, -1), (1, -1), ("rho", 1), ("rho", -1)]
    for _ in range(60):
        value = word_elt(2, [rng.choice(letters) for _ in range(rng.randrange(9))]).scale(rng.choice((ONE, -Q, Q + QINV)))
        kl = std_to_kl(value)
        back = expr.eval_algebra(expr.parse(serialize.to_text(kl)), 2)
        assert back == kl_combo_to_std(kl) == value


def test_every_value_type_prints_in_every_format():
    elt = rho_gen(2, 1) * t_gen(2, 0) - t_inv_gen(2, 1).scale(Q)
    values = [Q + QINV, elt, to_bernstein(elt), std_to_kl(elt), UVec.basis(3).scale(Q), w_module(), pi_uw(UVec.basis(1))]
    for value in values:
        for render in (serialize.to_text, serialize.to_latex, lambda v: json.dumps(serialize.to_json(v))):
            out = render(value)
            assert isinstance(out, str) and out


def test_two_digit_index_text_snapshot():
    h = t_gen(12, 10) * t_gen(12, 1) - rho_gen(12, 1).scale(Q + QINV)
    assert serialize.to_text(h) == "T[10]*T1 + (-q^-1 - q)*rho"
