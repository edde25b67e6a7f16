import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affine_hecke.errors import InvalidValue, NonIntegralCorrection, ZeroSpecialization
from affine_hecke.laurent import ONE, Q, Q2, QINV, SPAN_CAP, ZERO, LaurentPoly, add_product, sealed


class DictPoly:
    """The oracle: a Laurent polynomial as a plain exponent -> nonzero int dict."""

    def __init__(self, c):
        self.c = {e: v for e, v in c.items() if v}

    def __add__(self, other):
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c.get(e, 0) + v
        return DictPoly(c)

    def __neg__(self):
        return DictPoly({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
        return DictPoly(c)

    def __pow__(self, k):
        if k < 0:
            ((e, v),) = self.c.items()
            return DictPoly({-e: v}) ** -k
        out = DictPoly({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return self.c == other.c

    def bar(self):
        return DictPoly({-e: v for e, v in self.c.items()})

    def evaluate(self, q0):
        return sum((v * Fraction(q0) ** e for e, v in self.c.items()), Fraction(0))

    def items(self):
        return sorted(self.c.items())

    def to_json(self):
        return {str(e): v for e, v in self.items()}


# small values stay packed; the boundary ones straddle the 2^62 digit limit and the
# span cap; the mid-span ones are packed but a product or merged sum of two passes the
# cap; the wide ones are dict form (a span of up to 2*10^9, 200-bit coefficients)
BOUNDARY = (2**31, 2**61 - 1, 2**61, 2**62 - 1, 2**62, 2**63)
small_terms = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6)
mid_span_terms = st.builds(
    lambda v, s, c, inner: {v: c, v + s - 1: c, **{v + e % s: x for e, x in inner.items()}},
    st.integers(-40, 40),
    st.integers(30, 60),
    st.sampled_from((1, -1, 2)),
    st.dictionaries(st.integers(0, 60), st.integers(-2, 2), max_size=2),
)
term_dicts = st.one_of(
    small_terms,
    mid_span_terms,
    st.dictionaries(
        st.integers(-SPAN_CAP - 2, SPAN_CAP + 2),
        st.one_of(st.integers(-3, 3), st.sampled_from(BOUNDARY + tuple(-c for c in BOUNDARY))),
        max_size=4,
    ),
    st.dictionaries(st.integers(-(10**9), 10**9), st.integers(-(2**200), 2**200), max_size=6),
)
polys = term_dicts.map(LaurentPoly)
with_oracle = term_dicts.map(lambda c: (LaurentPoly(c), DictPoly(c)))
small_polys = small_terms.map(LaurentPoly)
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


@given(small_polys, small_polys, rationals)
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


def same(p, d):
    """p, a LaurentPoly, has exactly the terms of the oracle d."""
    terms = d.items()
    assert p.items() == terms
    assert p.to_json() == d.to_json()
    assert p.is_zero == (not terms)
    assert p.degree() == (terms[-1][0] if terms else None)
    assert p.valuation() == (terms[0][0] if terms else None)
    assert p.min_term() == (terms[0] if terms else None)
    canonical = LaurentPoly(d.c)
    assert p == canonical and hash(p) == hash(canonical)


@given(with_oracle, with_oracle, st.integers(0, 3))
def test_kernel_matches_dict_oracle(x, y, k):
    (a, da), (b, db) = x, y
    same(a, da)
    same(a + b, da + db)
    same(a - b, da - db)
    same(b - a, db - da)
    same(-a, -da)
    same(a * b, da * db)
    same(a**k, da**k)
    same(a.bar(), da.bar())
    assert (a == b) == (da == db)
    assert (a + b == a) == (not db.c)
    if a.is_unit():
        same(a ** -k, da ** -k)
    if b:
        same((a * b).exact_div(b), da)
    if all(abs(e) <= SPAN_CAP + 2 for e in da.c):
        assert a.evaluate(Fraction(-2, 3)) == da.evaluate(Fraction(-2, 3))


@given(st.lists(st.tuples(st.integers(0, 3), with_oracle, with_oracle), max_size=8))
def test_add_product_matches_dict_oracle(entries):
    acc, expect = {}, {}
    for key, (a, da), (b, db) in entries:
        add_product(acc, key, a, b)
        expect[key] = expect.get(key, DictPoly({})) + da * db
    out = sealed(acc)
    assert set(out) == {key for key, d in expect.items() if d.c}
    for key, p in out.items():
        same(p, expect[key])


def test_sums_and_products_past_the_digit_limit():
    big = LaurentPoly({0: 2**61, 1: 2**61})
    assert (big * big).items() == [(0, 2**122), (1, 2**123), (2, 2**122)]
    assert (big + big).items() == [(0, 2**62), (1, 2**62)]
    assert LaurentPoly.const(2**62 - 1) + 1 == 2**62
    assert -LaurentPoly.const(2**61) * 4 == -(2**63)
    acc = {}
    for _ in range(4):
        add_product(acc, "k", LaurentPoly.const(2**61), ONE)
    add_product(acc, "k", -Q, LaurentPoly.const(3))
    assert sealed(acc)["k"].items() == [(0, 2**63), (1, -3)]


def test_cancelled_low_terms_are_stripped():
    assert (Q + ONE) - ONE == Q
    assert (Q2 - QINV).items() == [(1, 1)]
    assert ((Q + 3) - Q).items() == [(0, 3)]
    acc = {}
    add_product(acc, "k", ONE, ONE)
    add_product(acc, "k", Q, Q)
    add_product(acc, "k", -ONE, ONE)
    assert sealed(acc)["k"] == LaurentPoly({2: 1})
    assert sealed(acc)["k"].valuation() == 2


def test_span_cap_keeps_wide_values_exact():
    wide = LaurentPoly({0: 1, 10**9: 1})
    assert (wide * wide).items() == [(0, 1), (10**9, 2), (2 * 10**9, 1)]
    assert ((wide - ONE) * QINV).items() == [(10**9 - 1, 1)]
    edge = LaurentPoly({0: 1, SPAN_CAP - 1: -1})
    assert (edge * Q2).items() == [(-1, 1), (1, 1), (SPAN_CAP - 2, -1), (SPAN_CAP, -1)]


@pytest.mark.parametrize("first", [0, -5, 5])
def test_merged_spans_past_the_cap_are_dict_form(first):
    # each operand is packed; the merged value spans 81 > SPAN_CAP exponents, so it
    # must come out in the dict form LaurentPoly(dict) gives it, with its hash
    wide, dwide = LaurentPoly({0: 1, 40: 1}), DictPoly({0: 1, 40: 1})
    low, dlow = LaurentPoly({first: 1}), DictPoly({first: 1})
    acc = {}
    add_product(acc, "k", low, ONE)  # the entry starts at, above or below the product
    add_product(acc, "k", wide, wide)
    same(sealed(acc)["k"], dlow + dwide * dwide)
    acc = {}
    add_product(acc, "k", wide, wide)
    add_product(acc, "k", low, ONE)
    same(sealed(acc)["k"], dwide * dwide + dlow)
    edge, dedge = LaurentPoly({0: 1, SPAN_CAP - 1: 1}), DictPoly({0: 1, SPAN_CAP - 1: 1})
    # merged spans 65, 70 and 64: only the last stays packed
    shifted, dshifted = LaurentPoly({first - 1: 3}), DictPoly({first - 1: 3})
    same(edge + shifted, dedge + dshifted)
    same(shifted + edge, dedge + dshifted)


@pytest.mark.parametrize("v", [0, 3, -3, 2**70])
def test_constant_hashes_as_its_int(v):
    c = LaurentPoly.const(v)
    assert c == v and hash(c) == hash(v)
    assert {v: "x"}.get(c) == "x"
    assert hash((Q + c) - Q) == hash(v)


@pytest.mark.parametrize("coeffs", [{0: 2.5}, {1.7: 1}, {"2": 1}, {0: True}, {False: 1}])
def test_constructor_takes_only_ints(coeffs):
    with pytest.raises(InvalidValue):
        LaurentPoly(coeffs)
