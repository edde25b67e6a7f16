from itertools import permutations

import pytest

from affine_hecke.errors import BadIndex
from affine_hecke.hecke import HeckeElt, broken_relations, generator_letters, rho_gen, t_gen, t_inv_gen, word_elt
from affine_hecke.laurent import Q
from affine_hecke.parabolic import (
    ParabolicContext,
    bernstein_y,
    bernstein_y_inv,
    min_coset_reps,
    psi,
    psi_L,
    psi_R,
    psi_rho_pair,
)
from affine_hecke.parabolic import _left_images, _right_images
from affine_hecke.weyl import AffinePerm

CASES = ((2, 1), (3, 1), (3, 2), (4, 2))


def one(n):
    return HeckeElt.one(n)


def psi_left_rho(ctx):
    """Image of the left source rotation: rho T_{n-1} ... T_k."""
    return word_elt(ctx.n, _left_images(ctx)["rho"])


def psi_left_t0(ctx):
    """Image of the left source T_0: T_k^-1 ... T_{n-1}^-1 T_0 T_{n-1} ... T_k."""
    return word_elt(ctx.n, _left_images(ctx)[0])


def psi_right_rho(ctx):
    """Image of the right source rotation: T_k^-1 ... T_1^-1 rho."""
    return word_elt(ctx.n, _right_images(ctx)["rho"])


def psi_right_t0(ctx):
    """Image of the right source T_0: T_0 ... T_{k-1} T_k T_{k-1}^-1 ... T_0^-1."""
    return word_elt(ctx.n, _right_images(ctx)[0])


def test_context_bounds():
    with pytest.raises(BadIndex):
        ParabolicContext(2, 0)
    with pytest.raises(BadIndex):
        ParabolicContext(2, 2)


def test_generator_image_formulas_rank2():
    ctx = ParabolicContext(2, 1)
    assert psi_left_rho(ctx) == rho_gen(2, 1) * t_gen(2, 1)
    assert psi_right_rho(ctx) == t_inv_gen(2, 1) * rho_gen(2, 1)
    assert psi_left_t0(ctx) == t_inv_gen(2, 1) * t_gen(2, 0) * t_gen(2, 1)
    assert psi_right_t0(ctx) == t_gen(2, 0) * t_gen(2, 1) * t_inv_gen(2, 0)


def test_generator_images_via_elements():
    ctx = ParabolicContext(2, 1)
    assert psi_L(ctx, rho_gen(1, 1)) == rho_gen(2, 1) * t_gen(2, 1)
    assert psi_R(ctx, rho_gen(1, 1)) == t_inv_gen(2, 1) * rho_gen(2, 1)
    assert psi(ctx, rho_gen(1, 1), rho_gen(1, 1)) == rho_gen(2, 2)
    assert psi(ctx, one(1), one(1)) == one(2)


def test_left_images_fix_finite_generators():
    ctx = ParabolicContext(3, 2)
    assert psi_L(ctx, t_gen(2, 1)) == t_gen(3, 1)
    ctx42 = ParabolicContext(4, 2)
    assert psi_R(ctx42, t_gen(2, 1)) == t_gen(4, 3)


def letter_images(ctx, embed, rank):
    """image(g, e) of a source letter under psi_L or psi_R."""
    return lambda g, e: embed(ctx, word_elt(rank, ((g, e),)))


@pytest.mark.parametrize("n,k", CASES)
def test_homomorphism_property(n, k):
    # products of the letters' images, not the image of a product: the
    # engine has already reduced every relation, as an element, to zero
    ctx = ParabolicContext(n, k)
    assert broken_relations(n, k, letter_images(ctx, psi_L, k)) == []
    assert broken_relations(n, n - k, letter_images(ctx, psi_R, n - k)) == []


def test_relation_check_catches_a_wrong_rho_inverse_image():
    ctx = ParabolicContext(2, 1)
    image = letter_images(ctx, psi_R, 1)

    def wrong(g, e):
        return image(g, e).scale(Q) if (g, e) == ("rho", -1) else image(g, e)

    assert broken_relations(2, 1, wrong) == ["rho*rho^-1 = 1"]


@pytest.mark.parametrize("n,k", CASES)
def test_commuting_pair(n, k):
    ctx = ParabolicContext(n, k)
    for a in generator_letters(k):
        for b in generator_letters(n - k):
            left, right = psi_L(ctx, word_elt(k, (a,))), psi_R(ctx, word_elt(n - k, (b,)))
            assert left * right == right * left


@pytest.mark.parametrize("n,k", CASES)
def test_rotation_pair_identity(n, k):
    ctx = ParabolicContext(n, k)
    assert psi(ctx, rho_gen(k, 1), rho_gen(n - k, 1)) == psi_rho_pair(ctx)


def test_psi_multiplicative_in_both_slots():
    ctx = ParabolicContext(3, 2)
    a1, a2 = t_gen(2, 1), rho_gen(2, 1)
    b1, b2 = rho_gen(1, 1), rho_gen(1, -1)
    lhs = psi(ctx, a1 * a2, b1 * b2)
    rhs = psi(ctx, a1, b1) * psi(ctx, a2, b2)
    assert lhs == rhs


def test_associativity_at_rank3():
    inner = ParabolicContext(2, 1)
    outer_left = ParabolicContext(3, 2)
    outer_right = ParabolicContext(3, 1)
    gens = [rho_gen(1, 1), rho_gen(1, -1), one(1)]
    for a in gens:
        for b in gens:
            for c in gens:
                lhs = psi(outer_left, psi(inner, a, b), c)
                rhs = psi(outer_right, a, psi(inner, b, c))
                assert lhs == rhs


def test_psi_rank_guard():
    ctx = ParabolicContext(3, 2)
    with pytest.raises(BadIndex):
        psi_L(ctx, t_gen(3, 1))


def test_psi_R_rank_guard():
    with pytest.raises(BadIndex, match="psi_R source must have rank n-k=1, got 2"):
        psi_R(ParabolicContext(3, 2), t_gen(2, 1))


# ---------------------------------------------------------------------------
# Bernstein generators

def test_y_examples_rank2():
    assert bernstein_y(2, 1) == rho_gen(2, 1) * t_gen(2, 1)
    assert bernstein_y(2, 2) == t_inv_gen(2, 1) * rho_gen(2, 1)
    assert bernstein_y(2, 1) * bernstein_y(2, 2) == rho_gen(2, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_y_commute_and_invert(n):
    ys = [bernstein_y(n, i) for i in range(1, n + 1)]
    for i, yi in enumerate(ys):
        assert yi * bernstein_y_inv(n, i + 1) == one(n)
        for yj in ys[i + 1 :]:
            assert yi * yj == yj * yi


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bernstein_relation(n):
    for i in range(1, n):
        lhs = t_inv_gen(n, i) * bernstein_y(n, i) * t_inv_gen(n, i)
        assert lhs == bernstein_y(n, i + 1)


def test_y_index_guard():
    with pytest.raises(BadIndex):
        bernstein_y(2, 0)
    with pytest.raises(BadIndex):
        bernstein_y(2, 3)


# ---------------------------------------------------------------------------
# coset combinatorics

def test_min_coset_reps_examples():
    assert [w.window for w in min_coset_reps(2, 1)] == [(1, 2), (2, 1)]
    reps31 = min_coset_reps(3, 1)
    assert [w.to_rex().word for w in reps31] == [(), (1,), (2, 1)]


def binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_min_coset_reps_exhaustive(n, k):
    reps = min_coset_reps(n, k)
    assert len(reps) == binomial(n, k)
    assert len(set(reps)) == len(reps)
    parabolic = [
        AffinePerm(n, w)
        for w in permutations(range(1, n + 1))
        if set(w[:k]) == set(range(1, k + 1))
    ]
    # each reachable coset has its representative of minimal length: the
    # window of w with both blocks sorted, and w = x u with the lengths adding
    for w in (AffinePerm(n, p) for p in permutations(range(1, n + 1))):
        x = AffinePerm(n, tuple(sorted(w.window[:k])) + tuple(sorted(w.window[k:])))
        u = x.inverse() * w
        assert x in reps
        assert x.length() + u.length() == w.length()
        assert set(u.window[:k]) == set(range(1, k + 1))
        coset = {w * p for p in parabolic}
        assert min(c.length() for c in coset) == x.length()


def permutation_filter_reps(n, k):
    # the factorial definition: windows increasing on both blocks
    reps = [
        AffinePerm(n, w)
        for w in permutations(range(1, n + 1))
        if list(w[:k]) == sorted(w[:k]) and list(w[k:]) == sorted(w[k:])
    ]
    return sorted(reps, key=lambda w: (w.length(), w.window))


@pytest.mark.parametrize("n", range(2, 7))
def test_min_coset_reps_matches_permutation_filter(n):
    for k in range(1, n):
        assert min_coset_reps(n, k) == permutation_filter_reps(n, k)


def test_min_coset_reps_rank10():
    assert len(min_coset_reps(10, 5)) == 252
