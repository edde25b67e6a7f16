import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affine_hecke.errors import InvalidValue, NonIntegralCorrection, ZeroSpecialization
from affine_hecke.laurent import ONE, Q, Q2, QINV, ZERO, LaurentPoly, add_product, sealed

polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6).map(LaurentPoly)
rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
).filter(lambda x: x != 0)


def test_canonical_form_strips_zeros():
    assert LaurentPoly({2: 0, 1: 3}) == LaurentPoly({1: 3})
    assert not list(LaurentPoly({5: 0}).items())
    assert (Q + (-Q)).is_zero


def test_zero_and_constants():
    assert ZERO.is_zero
    assert ONE == 1
    assert Q2 == Q + QINV


def test_bracket_square():
    assert Q2 * Q2 == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_mul_distributes_over_simple_example():
    assert Q2 * Q == LaurentPoly({2: 1, 0: 1})


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, polys)
def test_bar_is_involutive_ring_hom(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


def test_bar_examples():
    assert LaurentPoly({2: 1}).bar() == LaurentPoly({-2: 1})
    assert Q2.bar() == Q2
    assert (ONE + 2 * Q).bar() == ONE + 2 * QINV


@given(polys, polys, rationals)
def test_eval_is_ring_hom(a, b, q0):
    assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
    assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)


def test_eval_examples():
    assert Q2.evaluate(2) == Fraction(5, 2)
    assert (Q - QINV).evaluate(1) == 0
    with pytest.raises(ZeroSpecialization):
        Q.evaluate(0)


def test_pow_and_units():
    assert Q**3 == LaurentPoly({3: 1})
    assert Q**-2 == LaurentPoly({-2: 1})
    assert (-Q).is_unit()
    assert not Q2.is_unit()
    with pytest.raises(ValueError):
        Q2.unit_inverse()
    with pytest.raises(InvalidValue):
        LaurentPoly.const(2).unit_inverse()


@given(polys, polys)
def test_exact_div_inverts_mul(a, b):
    if a.is_zero or b.is_zero:
        return
    assert (a * b).exact_div(b) == a


def test_exact_div_failure():
    with pytest.raises(NonIntegralCorrection):
        (Q + 1).exact_div(Q - 1)
    with pytest.raises(NonIntegralCorrection):
        LaurentPoly({0: 3}).exact_div(LaurentPoly({0: 2}))


def test_geometric_quotient():
    # (z^3 - 1)/(z - 1) = 1 + z + z^2
    num = LaurentPoly({3: 1, 0: -1})
    den = LaurentPoly({1: 1, 0: -1})
    assert num.exact_div(den) == LaurentPoly({0: 1, 1: 1, 2: 1})


def test_text_form():
    assert str(ZERO) == "0"
    assert str(Q2 + 2) == "q^-1 + 2 + q"
    assert str(LaurentPoly({2: -3, -1: 1})) == "q^-1 - 3*q^2"


@given(polys)
def test_json_round_trip(a):
    data = json.loads(json.dumps(a.to_json()))
    assert LaurentPoly.from_json(data) == a


def test_min_term_and_degrees():
    p = LaurentPoly({-2: 5, 3: -1})
    assert p.min_term() == (-2, 5)
    assert p.valuation() == -2
    assert p.degree() == 3
    assert ZERO.min_term() is None


def test_sealed_drops_cancelled_sums():
    acc = {}
    add_product(acc, "gone", Q + ONE, Q - ONE)  # q^2 - 1
    add_product(acc, "gone", Q, -Q)
    add_product(acc, "gone", ONE, ONE)
    add_product(acc, "kept", Q + QINV, Q - QINV)  # q^2 - q^-2: the q^0 terms cancel
    add_product(acc, "zero factor", ZERO, Q)
    out = sealed(acc)
    assert out == {"kept": LaurentPoly({2: 1, -2: -1})}
    assert all(c and all(v for _, v in c.items()) for c in out.values())


def test_add_product_sums_match_plain_arithmetic():
    rng = random.Random(9)

    def poly():
        return LaurentPoly({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})

    for _ in range(200):
        pairs = [(rng.randrange(4), poly(), poly()) for _ in range(rng.randint(0, 8))]
        acc, expect = {}, {}
        for key, a, b in pairs:
            add_product(acc, key, a, b)
            expect[key] = expect.get(key, ZERO) + a * b
        assert sealed(acc) == {key: c for key, c in expect.items() if c}
