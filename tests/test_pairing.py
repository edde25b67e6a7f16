import pytest

from affine_hecke.errors import BadIndex
from affine_hecke.hecke import (
    HeckeElt,
    KLLabel,
    alt_word,
    form,
    inverse_word,
    kl_to_std,
    rho_gen,
    t_gen,
    t_inv_gen,
    word_elt,
)
from affine_hecke.laurent import ONE, Q, QINV
from affine_hecke.pairing import graded_hom_rank, y_class


def labels(max_len, m=0):
    out = [KLLabel(m, ())]
    for l in range(1, max_len + 1):
        out.append(KLLabel(m, alt_word(l, first=0)))
        out.append(KLLabel(m, alt_word(l, first=1)))
    return out


def test_rouquier_classes():
    assert word_elt(2, [(1, 1)]) == t_gen(2, 1)
    assert word_elt(2, [(1, 1), (1, -1)]) == HeckeElt.one(2)
    assert word_elt(2, [(0, 1), (1, 1)]) == t_gen(2, 0) * t_gen(2, 1)
    assert word_elt(3, [(2, -1)]) == t_inv_gen(3, 2)
    assert word_elt(2, [(1, -1), ("rho", 1)]) == t_inv_gen(2, 1) * rho_gen(2, 1)
    with pytest.raises(BadIndex):
        word_elt(2, [(1, 2)])


def test_rouquier_kl_identities():
    # T_i = b_i - q and T_i^-1 = b_i - q^-1
    from affine_hecke.hecke import b_gen

    one = HeckeElt.one(2)
    assert word_elt(2, [(1, 1)]) == b_gen(2, 1) - one.scale(Q)
    assert word_elt(2, [(1, -1)]) == b_gen(2, 1) - one.scale(QINV)


def test_y_class_values():
    assert y_class(0, 0) == HeckeElt.one(2)
    assert y_class(1, 1) == rho_gen(2, 2)
    assert y_class(1, 0) == rho_gen(2, 1) * t_gen(2, 1)
    assert y_class(0, 1) == t_inv_gen(2, 1) * rho_gen(2, 1)


def test_y_class_equals_its_word():
    """y_class is one basis element, or the inverse of one; the word
    (rho T_1)^r (T_1^-1 rho)^s folded letter by letter agrees."""
    a, b = (("rho", 1), (1, 1)), ((1, -1), ("rho", 1))
    box = [(r, s) for r in range(-10, 11) for s in range(-10, 11)]
    for r, s in box + [(20, 20), (20, -20), (-20, 20), (-20, -20), (-20, 0), (0, 20)]:
        left = (a if r >= 0 else inverse_word(a)) * abs(r)
        right = (b if s >= 0 else inverse_word(b)) * abs(s)
        assert y_class(r, s) == word_elt(2, left + right), (r, s)


def test_y_class_group_law():
    for r, s, r2, s2 in [(1, 0, 0, 1), (2, -1, -1, 2), (-2, 3, 1, -1), (0, -2, -1, 0)]:
        assert y_class(r, s) * y_class(r2, s2) == y_class(r + r2, s + s2)


def test_y_class_shift_support():
    for r in range(-2, 3):
        for s in range(-2, 3):
            for perm in y_class(r, s).terms:
                assert perm.shift == r + s


def test_euler_pair_vanishing():
    for k in range(-2, 3):
        for u in labels(6, m=k):
            x = kl_to_std(u)
            for r in range(-3, 4):
                for s in range(-3, 4):
                    value = form(x, y_class(r, s))
                    if r + s != k:
                        assert value.is_zero, (k, r, s, u)


def test_euler_pair_nonzero_on_shift_match():
    # on the matching shift the pairing can be nonzero
    assert form(HeckeElt.one(2), y_class(0, 0)) == ONE
    assert form(rho_gen(2, 2), y_class(1, 1)) == ONE


def test_graded_rank_identity():
    assert graded_hom_rank(KLLabel(0, ()), KLLabel(0, ())).poly == ONE


def test_minimal_degree_pattern():
    for s in range(1, 5):
        for nn in range(1, 10, 2):
            u = KLLabel(0, alt_word(nn, first=1))
            v = KLLabel(0, alt_word(2 * s, first=0))
            rank = graded_hom_rank(u, v)
            assert rank.poly.min_term() == (abs(nn - 2 * s), 1)
            assert rank.is_nonnegative()


def test_graded_rank_nonnegative_on_sweep():
    for u in labels(6):
        for v in labels(6):
            assert graded_hom_rank(u, v).is_nonnegative()


def test_disjoint_shift_supports_pair_to_zero():
    x = kl_to_std(KLLabel(2, (0, 1)))
    y = kl_to_std(KLLabel(-1, (1,)))
    assert form(x, y).is_zero
