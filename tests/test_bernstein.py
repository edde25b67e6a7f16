import random
import time
from functools import partial
from itertools import product

import pytest

from affine_hecke.bernstein import (
    BernsteinElt,
    _correction_monomials,
    bernstein_mul,
    bl_commute,
    from_bernstein,
    to_bernstein,
)
from affine_hecke.errors import RankMismatch
from affine_hecke.hecke import HeckeElt, fold_word, rho_gen, t_gen, t_inv_gen
from affine_hecke.laurent import ONE, Q, QINV, LaurentPoly
from affine_hecke.parabolic import bernstein_y
from affine_hecke.weyl import identity, simple


def e_vec(n, i, value=1):
    return tuple(value if t == i else 0 for t in range(1, n + 1))


def y_mon(n, lam):
    return BernsteinElt.y_monomial(n, lam)


def random_element(rng, n, max_len):
    gens = [rho_gen(n, 1), rho_gen(n, -1)]
    if n >= 2:
        gens += [t_gen(n, i) for i in range(n)]
        gens += [t_inv_gen(n, i) for i in range(n)]
    out = HeckeElt.one(n)
    for _ in range(rng.randrange(max_len + 1)):
        out = out * rng.choice(gens)
    return out


def test_zero_exponent_commutes():
    assert bl_commute(2, 1, (0, 0)) == BernsteinElt.t_term(simple(2, 1))


def test_commutation_untouched_slots():
    # T_1 and y_3 commute in rank 3: expand both orders in the standard basis
    t1 = BernsteinElt.t_term(simple(3, 1))
    y3 = y_mon(3, (0, 0, 1))
    assert bernstein_mul(t1, y3) == bernstein_mul(y3, t1)
    assert from_bernstein(bernstein_mul(t1, y3)) == t_gen(3, 1) * bernstein_y(3, 3)
    # and via the commutation move itself: zero correction
    assert bl_commute(3, 1, (0, 0, 5)) == BernsteinElt(
        3, {(simple(3, 1), (0, 0, 5)): ONE}
    )


def bl_commute_by_rule(n, i, lam):
    """The swap-and-correct rule written out, as bl_commute was before it
    became a product: y^lam T_i = T_i y^{s_i lam} - correction(s_i lam)."""
    swapped = list(lam)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    out = BernsteinElt.t_term(simple(n, i), swapped)
    for lam2, coeff in _correction_monomials(n, i, tuple(swapped)):
        out = out - y_mon(n, lam2).scale(coeff)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bl_commute_matches_the_rule(n):
    for i in range(1, n):
        for lam in product(range(-2, 3), repeat=n):
            assert bl_commute(n, i, lam) == bl_commute_by_rule(n, i, lam), (i, lam)


def test_defining_relation_is_fixed_point():
    # substituting the derived rule back into T_i^-1 y_i T_i^-1 returns y_{i+1}
    for n in (2, 3, 4):
        for i in range(1, n):
            tinv = to_bernstein(t_inv_gen(n, i))
            lhs = bernstein_mul(bernstein_mul(tinv, y_mon(n, e_vec(n, i))), tinv)
            assert lhs == y_mon(n, e_vec(n, i + 1)), (n, i)


def test_single_commutation_values():
    # y_1 T_1 = T_1 y_2 - (q - q^-1) y_1
    lhs = bernstein_mul(y_mon(2, (1, 0)), BernsteinElt.t_term(simple(2, 1)))
    expected = BernsteinElt(
        2,
        {
            (simple(2, 1), (0, 1)): ONE,
            (identity(2), (1, 0)): QINV - Q,
        },
    )
    assert lhs == expected
    assert bl_commute(2, 1, (1, 0)) == expected
    # y_2 T_1 = T_1 y_1 + (q - q^-1) y_1
    lhs = bernstein_mul(y_mon(2, (0, 1)), BernsteinElt.t_term(simple(2, 1)))
    expected = BernsteinElt(
        2,
        {
            (simple(2, 1), (1, 0)): ONE,
            (identity(2), (1, 0)): Q - QINV,
        },
    )
    assert lhs == expected
    assert bl_commute(2, 1, (0, 1)) == expected


def test_to_bernstein_examples():
    # rho = T_1 y_2 in rank 2
    assert to_bernstein(rho_gen(2, 1)) == BernsteinElt(2, {(simple(2, 1), (0, 1)): ONE})
    assert to_bernstein(t_gen(2, 1)) == BernsteinElt.t_term(simple(2, 1))
    # y_1 y_2 = rho^2
    assert from_bernstein(y_mon(2, (1, 1))) == rho_gen(2, 2)


def test_round_trip_random_words():
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        elt = random_element(rng, n, 6)
        assert from_bernstein(to_bernstein(elt)) == elt


def test_round_trip_other_direction():
    rng = random.Random(4321)
    for _ in range(60):
        n = rng.choice((2, 3))
        lam = tuple(rng.randrange(-2, 3) for _ in range(n))
        b = BernsteinElt(n, {(identity(n), lam): ONE})
        for _ in range(rng.randrange(3)):
            b = bernstein_mul(b, BernsteinElt.t_term(simple(n, rng.randrange(1, n))))
        assert to_bernstein(from_bernstein(b)) == b


def test_mul_matches_standard_basis_oracle():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.choice((2, 3))
        x = random_element(rng, n, 4)
        y = random_element(rng, n, 4)
        lhs = bernstein_mul(to_bernstein(x), to_bernstein(y))
        assert lhs == to_bernstein(x * y)


def test_identity_law():
    b = to_bernstein(rho_gen(2, 1) * t_gen(2, 0))
    assert bernstein_mul(BernsteinElt.one(2), b) == b
    assert bernstein_mul(b, BernsteinElt.one(2)) == b


def test_y_commutativity_in_normal_form():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                yi, yj = y_mon(n, e_vec(n, i)), y_mon(n, e_vec(n, j))
                assert bernstein_mul(yi, yj) == y_mon(
                    n, tuple(a + b for a, b in zip(e_vec(n, i), e_vec(n, j)))
                )


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        bernstein_mul(BernsteinElt.one(2), BernsteinElt.one(3))


def test_sum_rank_mismatch():
    with pytest.raises(RankMismatch):
        BernsteinElt.one(2) + BernsteinElt.one(3)


@pytest.mark.parametrize("c", range(-8, 9))
def test_correction_terms_match_exact_division(c):
    # the listed terms are those of (z^c - 1)/(z - 1) by exact division,
    # placed at y_i^(e+1+b) y_{i+1}^(b+c-e-1) with the factor -(q - q^-1)
    n, i, b = 3, 2, -1
    lam = (5, b + c, b)
    quot = (LaurentPoly.q_power(c) - ONE).exact_div(Q - ONE)  # z as q
    expected = [((5, e + 1 + b, b + c - e - 1), (Q - QINV) * LaurentPoly.const(-v)) for e, v in quot.items()]
    assert sorted(_correction_monomials(n, i, lam)) == sorted(expected)
    assert len(expected) == abs(c)


def test_corrections_stay_integral():
    # large exponent gaps exercise the geometric quotient on both sides
    for c in range(-6, 7):
        out = bl_commute(2, 1, (c, 0))
        for (_, _), coeff in out.items():
            assert all(isinstance(v, int) for _, v in coeff.items())
    # and the fold agrees with the standard-basis expansion
    for c in (-3, -1, 2, 4):
        b = BernsteinElt(2, {(identity(2), (c, 0)): ONE})
        prod = bernstein_mul(b, BernsteinElt.t_term(simple(2, 1)))
        y_pow = bernstein_y(2, 1) ** c if c >= 0 else (
            bernstein_y(2, 1).inverse() ** (-c)
        )
        assert from_bernstein(prod) == y_pow * t_gen(2, 1)


def test_a_rho_power_is_one_letter():
    # rho^m used to fold as |m| letters rho^+-1; now it is one letter, one
    # square-and-multiply, so its cost grows with log |m|
    for n in (1, 2, 3):
        for m in range(-7, 8):
            old = fold_word(
                (("rho", 1 if m > 0 else -1),) * abs(m),
                lambda g, e: to_bernstein(rho_gen(n, e)),
                bernstein_mul,
                partial(BernsteinElt.one, n),
            )
            assert to_bernstein(rho_gen(n, m)) == old, (n, m)
    start = time.perf_counter()
    big = to_bernstein(rho_gen(2, 10**6))
    assert time.perf_counter() - start < 1
    assert big == y_mon(2, (500_000, 500_000))  # rho^2 = y_1 y_2 at rank 2
