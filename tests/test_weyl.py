import copy
import pickle
import random
from collections import deque
from itertools import product

import pytest

from affine_hecke.errors import BadIndex, RankMismatch, ShiftNonzero
from affine_hecke.serialize import perm_from_json, to_json
from affine_hecke.weyl import (
    AffinePerm,
    ReducedExpr,
    bruhat_leq,
    from_rex,
    identity,
    rho,
    simple,
)


def random_element(rng, n, steps):
    w = rho(n, rng.randrange(-2, 3))
    for _ in range(steps):
        w = w * simple(n, rng.randrange(n))
    return w


def test_constructors():
    assert simple(2, 1).window == (2, 1)
    assert simple(2, 0).window == (0, 3)
    assert rho(2, 1).window == (2, 3)
    assert identity(3).window == (1, 2, 3)
    with pytest.raises(BadIndex):
        simple(2, 2)
    with pytest.raises(BadIndex):
        simple(1, 0)


def test_window_invariants_rejected():
    with pytest.raises(ValueError):
        AffinePerm(2, (1, 3))  # residues collide
    with pytest.raises(ValueError):
        AffinePerm(2, (2, 2))
    with pytest.raises(ValueError):
        AffinePerm(2, (1, 2, 3))
    with pytest.raises(ValueError):
        AffinePerm(2, [1, 2])  # a list is rejected before the table lookup


def test_compose_examples():
    s0, s1 = simple(2, 0), simple(2, 1)
    assert (s1 * s1).is_identity()
    r = rho(2, 1)
    assert r * s1 * r.inverse() == s0
    assert (s0 * s1).window == (3, 0)


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        simple(2, 1) * simple(3, 1)


def test_bruhat_order_across_ranks_is_a_rank_mismatch():
    with pytest.raises(RankMismatch):
        bruhat_leq(identity(2), identity(3))


def test_shift_additive():
    rng = random.Random(5)
    for _ in range(50):
        u = random_element(rng, 3, 4)
        v = random_element(rng, 3, 4)
        assert (u * v).shift == u.shift + v.shift


def test_length_examples():
    assert simple(2, 1).length() == 1
    assert simple(2, 0).length() == 1
    assert (simple(2, 0) * simple(2, 1)).length() == 2
    assert rho(2, 5).length() == 0


def brute_force_lengths(n, max_len):
    """BFS shortest-word lengths over the translation-free group."""
    start = identity(n)
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        w = frontier.popleft()
        if dist[w] == max_len:
            continue
        for i in range(n):
            nxt = w * simple(n, i)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                frontier.append(nxt)
    return dist


@pytest.mark.parametrize("n", [2, 3])
def test_length_against_brute_force(n):
    dist = brute_force_lengths(n, 6)
    for w, d in dist.items():
        assert w.length() == d, w.window
        # rho-powers leave the length alone
        for m in (-1, 1):
            assert (rho(n, m) * w).length() == d


def test_length_properties():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(60):
            w = random_element(rng, n, 6)
            assert w.length() == w.inverse().length()
            for i in range(n):
                assert abs((w * simple(n, i)).length() - w.length()) == 1
            r = rho(n, rng.randrange(-2, 3))
            assert (r * w * r.inverse()).length() == w.length()


def test_right_descents():
    assert identity(2).right_descents() == set()
    assert simple(2, 0).right_descents() == {0}
    assert (simple(2, 0) * simple(2, 1)).right_descents() == {1}


def test_descents_match_length_drop():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for _ in range(40):
            w = random_element(rng, n, 5)
            ds = w.right_descents()
            for i in range(n):
                drops = (w * simple(n, i)).length() < w.length()
                assert (i in ds) == drops == w.has_descent(i)


def test_to_rex_examples():
    s0, s1, r = simple(2, 0), simple(2, 1), rho(2, 1)
    assert (s0 * s1).to_rex() == ReducedExpr(0, (0, 1))
    assert r.to_rex() == ReducedExpr(1, ())
    assert (r * s0).to_rex() == ReducedExpr(1, (0,))


def test_rex_round_trip_random():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.choice((2, 3, 4))
        w = random_element(rng, n, rng.randrange(13))
        rex = w.to_rex()
        assert len(rex.word) == w.length()
        assert from_rex(rex, n) == w


def test_from_rex_accepts_non_reduced():
    w = from_rex(ReducedExpr(0, (1, 1, 0)), 2)
    assert w == simple(2, 0)
    assert w.to_rex() == ReducedExpr(0, (0,))


def test_from_rex_bad_letter():
    with pytest.raises(BadIndex):
        from_rex(ReducedExpr(0, (3,)), 2)


def test_rho_conjugation_shifts_letters():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(40):
            w = random_element(rng, n, 5)
            w = rho(n, -w.shift) * w
            conj = rho(n, 1) * w * rho(n, -1)
            shifted = tuple((i + 1) % n for i in w.to_rex().word)
            assert from_rex(ReducedExpr(0, shifted), n) == conj
            assert conj.length() == w.length()


def s2_elements(max_len):
    out = [identity(2)]
    for l in range(1, max_len + 1):
        for first in (0, 1):
            w = identity(2)
            for i in range(l):
                w = w * simple(2, (first + i) % 2)
            out.append(w)
    return out


def test_bruhat_rank2():
    elts = s2_elements(8)
    # order properties
    for u in elts:
        assert bruhat_leq(u, u)
        for w in elts:
            expected = u.length() < w.length() or u == w
            assert bruhat_leq(u, w) == expected
    # antisymmetry and transitivity on the computed relation
    for u in elts:
        for w in elts:
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w
            for v in elts:
                if bruhat_leq(u, w) and bruhat_leq(w, v):
                    assert bruhat_leq(u, v)


def test_bruhat_examples():
    s0, s1 = simple(2, 0), simple(2, 1)
    assert bruhat_leq(identity(2), s0 * s1 * s0)
    assert bruhat_leq(s0, s1 * s0)
    assert not bruhat_leq(s0 * s1, s1 * s0)


def test_bruhat_requires_shift_zero():
    with pytest.raises(ShiftNonzero):
        bruhat_leq(rho(2, 1), rho(2, 1))


def test_bruhat_rank3_compatible_with_length():
    elts = list(brute_force_lengths(3, 4))
    for u in elts:
        for w in elts:
            if bruhat_leq(u, w):
                assert u.length() <= w.length()
                if u.length() == w.length():
                    assert u == w


def test_bruhat_rank3_is_the_subword_order():
    # u <= w iff u is the product of a subword of a reduced word of w
    elts = list(brute_force_lengths(3, 4))
    for w in elts:
        word = w.to_rex().word
        below = {
            from_rex(ReducedExpr(0, tuple(i for i, keep in zip(word, mask) if keep)), 3)
            for mask in product((0, 1), repeat=len(word))
        }
        for u in elts:
            assert bruhat_leq(u, w) == (u in below)


def test_json_round_trip():
    w = rho(2, 1) * simple(2, 0)
    assert perm_from_json(to_json(w)) == w


def test_equal_permutations_from_different_routes_share_a_hash():
    for n, m, word in [(2, 1, (0,)), (3, -1, (1, 2, 0)), (4, 2, (3, 1, 0, 2, 1))]:
        by_rex = from_rex(ReducedExpr(m, word), n)
        by_mul = from_rex(ReducedExpr(m, word[:1]), n) * from_rex(ReducedExpr(0, word[1:]), n)
        by_json = perm_from_json(to_json(by_rex))
        by_keyword = AffinePerm(n=n, window=by_rex.window)
        # one object per value, however it was built or copied
        for same in (by_mul, by_json, by_keyword, pickle.loads(pickle.dumps(by_rex)), copy.copy(by_rex), copy.deepcopy(by_rex)):
            assert same is by_rex
        assert by_rex == by_mul == by_json
        assert hash(by_rex) == hash(by_mul) == hash(by_json)
        table = {by_rex: "rex"}
        table[by_mul] = "mul"
        table[by_json] = "json"
        assert table == {by_rex: "json"}


from hypothesis import given
from hypothesis import strategies as st

elements = st.tuples(
    st.sampled_from([2, 3, 4]),
    st.integers(-2, 2),
    st.lists(st.integers(0, 3), max_size=10),
).map(
    lambda args: from_rex(
        ReducedExpr(args[1], tuple(i % args[0] for i in args[2])), args[0]
    )
)


@given(elements)
def test_rex_round_trip_hypothesis(w):
    rex = w.to_rex()
    assert from_rex(rex, w.n) == w
    assert len(rex.word) == w.length()


windows = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.lists(st.integers(-4, 4), min_size=n, max_size=n))
).map(lambda args: tuple(r + 1 + len(args[0]) * k for r, k in zip(*args)))


@given(windows)
def test_shift_is_exact_on_every_window(window):
    # any window with distinct residues: the shift needs no integrality check
    n = len(window)
    assert AffinePerm(n, window).shift * n == sum(v - i for i, v in enumerate(window, 1))


@given(elements, elements)
def test_length_subadditive(u, v):
    if u.n != v.n:
        return
    assert (u * v).length() <= u.length() + v.length()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inverse_is_the_interned_two_sided_inverse(n):
    rng = random.Random(n)
    perms = [identity(n)] + [random_element(rng, n, rng.randrange(9) if n > 1 else 0) for _ in range(60)]
    for p in perms:
        assert p.inverse().inverse() is p
        assert (p * p.inverse()).is_identity() and (p.inverse() * p).is_identity()
        assert p.inverse().shift == -p.shift and p.inverse().length() == p.length()
    # w(1) = -7, w(2) = 12, w(3) = 4, so w^-1(2) = 1 + 9, w^-1(3) = 2 - 9, w^-1(1) = 3 - 3
    w = AffinePerm(3, (-7, 12, 4))
    assert w.inverse().window == (0, 10, -7) and w.inverse().inverse() is w
