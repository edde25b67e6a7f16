import random

import pytest

from affine_hecke.errors import BadIndex, InvalidValue, RankMismatch, RankUnsupported
from affine_hecke.hecke import (
    HeckeElt,
    KLLabel,
    _basis_pair_product,
    alt_word,
    b_gen,
    bott_samelson,
    broken_relations,
    defining_relations,
    form,
    kl_combo_to_std,
    kl_mul_closed,
    kl_to_std,
    rho_gen,
    std_to_kl,
    t_gen,
    t_inv_gen,
    word_elt,
)
from affine_hecke.laurent import ONE, Q, Q2, QINV, ZERO, LaurentPoly
from affine_hecke.weyl import ReducedExpr, bruhat_leq, from_rex, identity, rho, simple


def one(n):
    return HeckeElt.one(n)


def q_times(n, coeff):
    return one(n).scale(coeff)


def labels(max_len, rho_powers=(0,)):
    out = []
    for m in rho_powers:
        out.append(KLLabel(m, ()))
        for l in range(1, max_len + 1):
            out.append(KLLabel(m, alt_word(l, first=0)))
            out.append(KLLabel(m, alt_word(l, first=1)))
    return out


# ---------------------------------------------------------------------------
# defining relations

@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_relations(n):
    for i in range(n):
        ti = t_gen(n, i)
        assert ((ti + q_times(n, Q)) * (ti - q_times(n, QINV))).is_zero
        assert t_inv_gen(n, i) * ti == one(n)
        assert ti * t_inv_gen(n, i) == one(n)


@pytest.mark.parametrize("n", [3, 4])
def test_braid_relations(n):
    for i in range(n):
        j = (i + 1) % n
        ti, tj = t_gen(n, i), t_gen(n, j)
        assert ti * tj * ti == tj * ti * tj


def test_distant_commutation_rank4():
    for i, j in ((0, 2), (1, 3)):
        ti, tj = t_gen(4, i), t_gen(4, j)
        assert ti * tj == tj * ti


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rho_relations(n):
    assert rho_gen(n, 1) * rho_gen(n, -1) == one(n)
    for i in range(n):
        lhs = rho_gen(n, 1) * t_gen(n, i) * rho_gen(n, -1)
        assert lhs == t_gen(n, (i + 1) % n)


def relation_count(n):
    """One rotation relation; for n >= 2 a quadratic and a conjugation per
    T_i, for n >= 3 a braid relation per cyclic neighbour pair and for
    n >= 4 a commutation per distant pair."""
    if n == 1:
        return 1
    return 1 + 2 * n + (n if n >= 3 else 0) + (n * (n - 3) // 2 if n >= 4 else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_defining_relations_hold_in_the_algebra(n):
    rels = defining_relations(n)
    names = [name for name, _, _ in rels]
    assert len(set(names)) == len(names) == relation_count(n)
    for name, lhs, rhs in rels:
        assert word_elt(n, lhs) == word_elt(n, rhs), name
    assert broken_relations(n, n, lambda g, e: word_elt(n, ((g, e),))) == []


def test_broken_relations_names_a_wrong_image():
    def image(g, e):
        value = word_elt(2, ((g, e),))
        return value.scale(Q) if (g, e) == (1, 1) else value

    assert broken_relations(2, 2, image) == ["(T_1+q)(T_1-q^-1) = 0", "rho T_0 rho^-1 = T_1", "rho T_1 rho^-1 = T_0"]


def test_word_elt():
    assert word_elt(3, ()) == one(3)
    assert word_elt(3, ((1, 1), ("rho", -1), (2, -1))) == t_gen(3, 1) * rho_gen(3, -1) * t_inv_gen(3, 2)
    with pytest.raises(BadIndex):
        word_elt(2, (("rh", 1),))
    with pytest.raises(BadIndex):
        word_elt(2, ((2, 1),))


def test_t_squared():
    t1 = t_gen(2, 1)
    assert t1 * t1 == t1.scale(QINV - Q) + one(2)


def test_b_generator():
    assert b_gen(2, 1) == t_gen(2, 1) + q_times(2, Q)
    assert b_gen(2, 1) * b_gen(2, 1) == b_gen(2, 1).scale(Q2)


def test_b0_b1_expansion():
    expected = HeckeElt(
        2,
        {
            simple(2, 0) * simple(2, 1): ONE,
            simple(2, 0): Q,
            simple(2, 1): Q,
            identity(2): Q * Q,
        },
    )
    assert b_gen(2, 0) * b_gen(2, 1) == expected


def random_product(rng, n, max_len):
    gens = [t_gen(n, i) for i in range(n)]
    gens += [t_inv_gen(n, i) for i in range(n)]
    gens += [rho_gen(n, 1), rho_gen(n, -1), b_gen(n, rng.randrange(n))]
    out = one(n)
    for _ in range(rng.randrange(max_len + 1)):
        out = out * rng.choice(gens)
    return out


def test_associativity_random():
    rng = random.Random(314)
    for _ in range(500):
        n = rng.choice((2, 3, 4))
        a = random_product(rng, n, 5)
        b = random_product(rng, n, 5)
        c = random_product(rng, n, 5)
        assert (a * b) * c == a * (b * c)


def assert_no_stored_zero(elt):
    assert all(c and all(v for _, v in c.items()) for c in elt.terms.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cancelling_products_store_no_zero(n):
    for i in range(n):
        prod = (t_gen(n, i) + q_times(n, Q)) * (t_gen(n, i) - q_times(n, QINV))
        assert prod.terms == {}
        assert (b_gen(n, i) * b_gen(n, i) - b_gen(n, i).scale(Q2)).terms == {}


def test_products_match_termwise_sum():
    """a * b equals the sum of c * d * E_x E_y over the terms c E_x of a and
    d E_y of b, built with plain LaurentPoly arithmetic."""
    rng = random.Random(271)
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        a = random_product(rng, n, 4).scale(LaurentPoly({rng.randint(-2, 2): rng.choice((1, -2))}))
        b = random_product(rng, n, 4) + rho_gen(n, rng.randint(-1, 1)).scale(Q)
        expect = {}
        for x, c in a.terms.items():
            for y, d in b.terms.items():
                for perm, c2 in _basis_pair_product(x, y):
                    expect[perm] = expect.get(perm, ZERO) + c * d * c2
        prod = a * b
        assert prod.terms == {perm: c for perm, c in expect.items() if c}
        assert_no_stored_zero(prod)
        assert_no_stored_zero(prod.omega())


def test_product_coefficients_past_the_span_cap_are_canonical():
    # the T1 coefficient sums 1 * 1 and (q^-1 + q^61)(q^-1 - q), a product of span
    # 65 > SPAN_CAP, so the merged sum must leave the packed form
    t1 = t_gen(2, 1)
    prod = (one(2) + t1.scale(LaurentPoly({-1: 1, 61: 1}))) * t1
    for coeff in prod.terms.values():
        canonical = LaurentPoly(dict(coeff.items()))
        assert coeff == canonical and hash(coeff) == hash(canonical)
    assert prod.coefficient(identity(2)) == LaurentPoly({-1: 1, 61: 1})
    assert prod.coefficient(simple(2, 1)) == LaurentPoly({-2: 1, 60: 1, 62: -1})


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        t_gen(2, 1) * t_gen(3, 1)


def test_inverse_of_a_sum_is_invalid():
    with pytest.raises(InvalidValue):
        (t_gen(2, 1) + one(2)).inverse()


def test_sum_rank_mismatch():
    with pytest.raises(RankMismatch):
        t_gen(2, 1) + t_gen(3, 1)
    with pytest.raises(RankMismatch):
        t_gen(2, 1) - t_gen(3, 1)


# ---------------------------------------------------------------------------
# omega, trace, form

def test_omega_fixes_b1():
    assert b_gen(2, 1).omega() == b_gen(2, 1)


def test_omega_is_antiinvolution():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.choice((2, 3))
        x = random_product(rng, n, 4)
        y = random_product(rng, n, 4)
        assert (x * y).omega() == y.omega() * x.omega()
        assert x.omega().omega() == x
        assert x.scale(Q).omega() == x.omega().scale(QINV)


def test_omega_on_rho():
    assert rho_gen(2, 1).omega() == rho_gen(2, -1)
    assert t_gen(2, 1).omega() == t_inv_gen(2, 1)


def test_omega_reverses_kl_words():
    for label in labels(8):
        assert kl_to_std(label).omega() == kl_to_std(label.reversed())


def test_trace_examples():
    assert one(2).trace() == ONE
    assert rho_gen(2, 1).trace() == ZERO
    assert kl_to_std(KLLabel(0, (0, 1))).trace() == LaurentPoly({2: 1})


def test_trace_on_kl_lengths():
    for label in labels(12):
        assert kl_to_std(label).trace() == LaurentPoly.q_power(label.length())


def test_dual_basis_trace_property():
    """trace(E_g E_h) = delta_{g, h^-1}: the fact behind the fast form."""
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.choice((2, 3))
        g = rho(n, rng.randrange(-2, 3))
        h = rho(n, rng.randrange(-2, 3))
        for _ in range(rng.randrange(5)):
            g = g * simple(n, rng.randrange(n))
        for _ in range(rng.randrange(5)):
            h = h * simple(n, rng.randrange(n))
        value = (HeckeElt.from_term(g) * HeckeElt.from_term(h)).trace()
        assert value == (ONE if h == g.inverse() else ZERO)


def test_form_matches_trace_definition():
    rng = random.Random(1414)
    for _ in range(80):
        n = rng.choice((2, 3))
        x = random_product(rng, n, 4)
        y = random_product(rng, n, 4)
        assert form(x, y) == (x.omega() * y).trace()


def test_form_pinned_values():
    b1 = b_gen(2, 1)
    b01 = kl_to_std(KLLabel(0, (0, 1)))
    b10 = kl_to_std(KLLabel(0, (1, 0)))
    assert form(b1, b1) == LaurentPoly({0: 1, 2: 1})
    assert form(b01, b01) == LaurentPoly({0: 1, 2: 2, 4: 1})
    assert form(b01, b10) == LaurentPoly({2: 2, 4: 1})


def test_form_sesquilinearity():
    x, y = b_gen(2, 0), b_gen(2, 1)
    assert form(x.scale(Q), y) == QINV * form(x, y)
    assert form(x, y.scale(QINV)) == QINV * form(x, y)


def test_asymptotic_orthonormality():
    lbls = labels(8)
    elts = {l: kl_to_std(l) for l in lbls}
    omegas = {l: elts[l].omega() for l in lbls}
    from affine_hecke.hecke import form_with_omega

    for u in lbls:
        for v in lbls:
            val = form_with_omega(omegas[u], elts[v])
            if u == v:
                assert val.coefficient(0) == 1
            else:
                assert val.coefficient(0) == 0
            assert val.valuation() is None or val.valuation() >= 0


def test_shift_orthogonality():
    from affine_hecke.hecke import form_with_omega

    lbls = labels(8)
    shifts = (-2, -1, 0, 1, 2)
    elts = {(l, v.word): kl_to_std(KLLabel(l, v.word)) for l in shifts for v in lbls}
    omegas = {key: elt.omega() for key, elt in elts.items()}
    base = {(u.word, v.word): form(kl_to_std(u), kl_to_std(v)) for u in lbls for v in lbls}
    for k in shifts:
        for l in shifts:
            for u in lbls:
                for v in lbls:
                    lhs = form_with_omega(omegas[(k, u.word)], elts[(l, v.word)])
                    rhs = base[(u.word, v.word)] if k == l else ZERO
                    assert lhs == rhs


def test_inner_product_patterns():
    # equal lengths with both boundary letters different: 2q^2 + higher
    for m in range(2, 9):
        for i in (0, 1):
            val = form(
                kl_to_std(KLLabel(0, alt_word(m, first=i))),
                kl_to_std(KLLabel(0, alt_word(m, first=1 - i))),
            )
            assert val.min_term() == (2, 2)
            assert all(c >= 0 for _, c in val.items())
    # different lengths: q^|m-n| with coefficient one
    for m in range(1, 9):
        for nn in range(1, 9):
            if m == nn:
                continue
            for i in (0, 1):
                for j in (0, 1):
                    val = form(
                        kl_to_std(KLLabel(0, alt_word(m, first=i))),
                        kl_to_std(KLLabel(0, alt_word(nn, first=j))),
                    )
                    assert val.min_term() == (abs(m - nn), 1)
    # the recorded boundary case at m = n = 1
    assert form(b_gen(2, 0), b_gen(2, 1)) == LaurentPoly({2: 1})


# ---------------------------------------------------------------------------
# KL layer

def test_kl_label_validation():
    with pytest.raises(BadIndex):
        KLLabel(0, (0, 0))
    with pytest.raises(BadIndex):
        KLLabel(0, (2,))


def test_alt_word_needs_one_consistent_end_letter():
    with pytest.raises(InvalidValue):
        alt_word(3)
    with pytest.raises(InvalidValue):
        alt_word(2, first=0, last=0)


def test_kl_to_std_examples():
    assert kl_to_std(KLLabel(0, ())) == one(2)
    assert kl_to_std(KLLabel(0, (0,))) == t_gen(2, 0) + q_times(2, Q)
    b01 = kl_to_std(KLLabel(0, (0, 1)))
    assert b01 == b_gen(2, 0) * b_gen(2, 1)
    # term count: two per intermediate length plus the top and the identity
    for l in range(1, 9):
        assert len(kl_to_std(KLLabel(0, alt_word(l, first=0))).terms) == 2 * l


def test_kl_to_std_returns_a_copy():
    label = KLLabel(0, (0, 1))
    kl_to_std(label).terms.clear()
    assert kl_to_std(label) == b_gen(2, 0) * b_gen(2, 1)


def test_kl_rank_guard():
    with pytest.raises(RankUnsupported):
        kl_to_std(KLLabel(0, (0,)), n=3)
    with pytest.raises(RankUnsupported):
        std_to_kl(t_gen(3, 1))


def test_std_to_kl_examples():
    out = std_to_kl(t_gen(2, 1))
    assert out == {KLLabel(0, (1,)): ONE, KLLabel(0, ()): -Q}
    assert std_to_kl(one(2)) == {KLLabel(0, ()): ONE}
    assert std_to_kl(HeckeElt.zero(2)) == {}
    t01 = t_gen(2, 0) * t_gen(2, 1)
    expected = {
        KLLabel(0, (0, 1)): ONE,
        KLLabel(0, (0,)): -Q,
        KLLabel(0, (1,)): -Q,
        KLLabel(0, ()): Q * Q,
    }
    assert std_to_kl(t01) == expected


def std_to_kl_oracle(elt):
    """The definition term by term: T_w = sum over u <= w of
    (-q)^(l(w) - l(u)) b_u, with u running over every alternating word up
    to l(w) and kept when the Bruhat order puts it below w."""
    out = {}
    for perm, coeff in elt.terms.items():
        rex = perm.to_rex()
        top = len(rex.word)
        w = rho(2, -rex.m) * perm
        for label in labels(top):
            if bruhat_leq(from_rex(ReducedExpr(0, label.word), 2), w):
                k = top - label.length()
                key = KLLabel(rex.m, label.word)
                out[key] = out.get(key, ZERO) + coeff * LaurentPoly.q_power(k, (-1) ** k)
    return {key: c for key, c in out.items() if c}


def std_term(m, word, coeff):
    return HeckeElt.from_term(from_rex(ReducedExpr(m, word), 2), coeff)


def random_std_combination(rng, shifts, max_len=9, size=6):
    out = HeckeElt.zero(2)
    for _ in range(rng.randrange(1, size + 1)):
        length = rng.randrange(max_len + 1)
        word = alt_word(length, first=rng.randrange(2)) if length else ()
        coeff = LaurentPoly({rng.randrange(-3, 4): rng.choice((-2, -1, 1, 3)) for _ in range(2)})
        out = out + std_term(rng.choice(shifts), word, coeff)
    return out


def test_std_to_kl_matches_definition_random():
    rng = random.Random(2718)
    for m in range(-2, 3):
        for _ in range(30):
            x = random_std_combination(rng, (m,))
            assert std_to_kl(x) == std_to_kl_oracle(x), x
    mixed = 0
    for _ in range(120):
        x = random_std_combination(rng, range(-2, 3), size=12)
        mixed += len({perm.shift for perm in x.terms}) > 1
        assert std_to_kl(x) == std_to_kl_oracle(x), x
    assert mixed > 100


def test_std_to_kl_tail_cancels_partway_down():
    # t(3) = -q c, and A(3) = q c makes t(2) vanish: b_{101} cancels, and
    # below length 3 only the term at b_0 and its own tail on b_e remain
    c = Q2 + ONE
    x = std_term(1, (0, 1, 0, 1), c) + std_term(1, (1, 0, 1), Q * c) + std_term(1, (0,), Q)
    x = x + std_term(-2, (1, 0), ONE)
    out = std_to_kl(x)
    assert out == std_to_kl_oracle(x)
    assert KLLabel(1, (1, 0, 1)) not in out
    assert out[KLLabel(1, (0, 1, 0))] == -Q * c
    below = {label: coeff for label, coeff in out.items() if label.m == 1 and label.length() < 3}
    assert below == {KLLabel(1, (0,)): Q, KLLabel(1, ()): -Q * Q}


def test_kl_round_trips():
    for label in labels(12, rho_powers=(-2, -1, 0, 1, 2)):
        assert std_to_kl(kl_to_std(label)) == {label: ONE}
    rng = random.Random(5151)
    for _ in range(40):
        x = random_product(rng, 2, 5)
        assert kl_combo_to_std(std_to_kl(x)) == x


def test_kl_mul_closed_examples():
    two = LaurentPoly.const(2)
    assert kl_mul_closed(KLLabel(0, (1, 0)), KLLabel(0, (1, 0))) == {
        KLLabel(0, (1, 0, 1, 0)): ONE,
        KLLabel(0, (1, 0)): two,
    }
    assert kl_mul_closed(KLLabel(0, (1,)), KLLabel(0, (0, 1, 0))) == {
        KLLabel(0, (1, 0, 1, 0)): ONE,
        KLLabel(0, (1, 0)): ONE,
    }
    # first-letter absorption
    assert kl_mul_closed(KLLabel(0, (1,)), KLLabel(0, (1, 0, 1))) == {
        KLLabel(0, (1, 0, 1)): Q2
    }


def test_kl_mul_closed_vs_oracle():
    lbls = labels(8, rho_powers=(0, 1))
    for a in lbls:
        for b in lbls:
            assert kl_mul_closed(a, b) == std_to_kl(kl_to_std(a) * kl_to_std(b)), (a, b)


def test_rho_moves_through_kl():
    # rho b_w = b_{flipped w} rho
    for label in labels(6):
        flipped = KLLabel(0, tuple((i + 1) % 2 for i in label.word))
        lhs = rho_gen(2, 1) * kl_to_std(label)
        rhs = kl_to_std(flipped) * rho_gen(2, 1)
        assert lhs == rhs


def test_bott_samelson_matches_kl_at_rank2():
    assert bott_samelson(2, (0, 1)) == kl_to_std(KLLabel(0, (0, 1)))
    # dihedral identity: b_0 b_1 b_0 = b_{010} + b_0
    lhs = bott_samelson(2, (0, 1, 0))
    rhs = kl_to_std(KLLabel(0, (0, 1, 0))) + kl_to_std(KLLabel(0, (0,)))
    assert lhs == rhs


def test_reduce_rho_squared():
    assert rho_gen(2, 2).reduce_rho_squared() == one(2)
    assert rho_gen(2, -1).reduce_rho_squared() == rho_gen(2, 1)
    x = rho_gen(2, 3) * t_gen(2, 1)
    assert x.reduce_rho_squared() == rho_gen(2, 1) * t_gen(2, 1)
