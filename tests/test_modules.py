import gc
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke.bernstein import BernsteinElt, to_bernstein
from affine_hecke.errors import BadIndex, DimUnsupported, InvalidValue
from affine_hecke.example_n2 import w_module
from affine_hecke import hecke, modules
from affine_hecke.hecke import (
    HeckeElt,
    KLLabel,
    b_gen,
    defining_relations,
    inverse_word,
    kl_to_std,
    rex_word,
    rho_gen,
    t_gen,
    word_elt,
)
from affine_hecke.laurent import ONE, Q, QINV, ZERO, LaurentPoly, add_product, sealed
from affine_hecke.modules import (
    DEFAULT_PROBES,
    FinDimModule,
    SpecializedModule,
    _dense,
    _mul,
    _rows,
    common_eigenvector_exists,
    induce,
    irreducible_at,
    mat_det,
    mat_eye,
    mat_mul,
    mat_scale,
    mat_unit_inverse,
    module_act,
    module_check_relations,
    module_y,
    one_dimensional,
    specialize,
    trivial_module,
    word_mat,
)
from affine_hecke.parabolic import ParabolicContext, min_coset_reps, psi_L, psi_R, y_word
from affine_hecke.serialize import module_from_json, to_json, to_latex, to_text
from affine_hecke.weyl import AffinePerm, canonical_rex

TWO = LaurentPoly.const(2)


def all_pass(report):
    return all(ok for _, ok in report)


def fold_word(mod, word):
    """The row form of a generator word, folded letter by letter by
    hecke.fold_word with no word memo: the oracle of the module's memo.  It
    reads the stored letters, and adds q - q^-1 to the diagonal for T_i^-1."""

    def letter(g, e):
        if g == "rho" or e == 1:
            return mod._letters[g, e]
        rows = ({**row, r: row.get(r, ZERO) + Q - QINV} for r, row in enumerate(mod._letters[g, 1]))
        return tuple({c: x for c, x in row.items() if x} for row in rows)

    return hecke.fold_word(word, letter, _mul, lambda: _rows(mat_eye(mod.dim)))


def module_y_inv(mod, i):
    """Matrix of y_i^-1, from the inverse word."""
    return word_mat(mod, inverse_word(y_word(mod.n, i)))


def test_trivial_rank1():
    v = trivial_module(1)
    assert v.dim == 1 and v.n == 1
    assert v.rho_mat == ((ONE,),)
    assert v.rho_inv_mat == ((ONE,),)
    assert all_pass(module_check_relations(v))
    assert module_y(v, 1) == ((ONE,),)


def test_long_words_fold_without_deep_recursion():
    # the word memo finds a word's unfolded prefixes by a loop, so a word far
    # longer than Python's recursion limit folds; on the trivial module
    # T_i^-1 acts by q and rho by 1, so y_n = T_{n-1}^-1 ... T_1^-1 rho is q^(n-1)
    n = 3000
    assert module_y(trivial_module(n), n) == ((LaurentPoly.q_power(n - 1),),)
    assert word_mat(trivial_module(3), ((1, 1),) * 5000) == ((LaurentPoly.q_power(-5000),),)


def naive_mat_mul(a, b):
    """The dense triple loop in LaurentPoly * and + alone."""
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0])))
        for i in range(len(a))
    )


# entries drawn from units that cancel in sums, or small random polynomials
entries = st.sampled_from([ZERO, ONE, -ONE, Q, -Q, QINV, -QINV]) | st.dictionaries(
    st.integers(-2, 2), st.integers(-3, 3), max_size=3
).map(LaurentPoly)


@st.composite
def matrix_pairs(draw):
    """a (rows x inner) and b (inner x cols), some rows of a and columns of b zero."""
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
    for i in draw(st.sets(st.integers(0, rows - 1))):
        a[i] = [ZERO] * inner
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in b:
            row[j] = ZERO
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_naive_triple_loop(pair):
    a, b = pair
    assert mat_mul(a, b) == naive_mat_mul(a, b)


def test_cancelling_matrix_products_store_no_zero():
    a = ((Q, Q), (Q, -Q))
    b = ((Q, ONE), (-Q, ONE))
    prod = mat_mul(a, b)
    assert prod == ((ZERO, TWO * Q), (TWO * Q * Q, ZERO))
    mats = [prod]
    for mod in (induce(trivial_module(2), one_dimensional(1, None, -Q)), w_module()):
        mats += [*mod.t_mats, mod.rho_mat, mod.rho_inv_mat, *map(mod.t_inv, range(mod.n))]
    # an entry is ZERO (no items) or holds nonzero coefficients only
    assert all(v for mat in mats for row in mat for x in row for _, v in x.items())


def test_t_inv_inverts_t_and_rejects_bad_indices():
    mod = induce(trivial_module(1), trivial_module(2))
    for i in range(mod.n):
        assert mat_mul(mod.t(i), mod.t_inv(i)) == mat_eye(mod.dim)
    with pytest.raises(BadIndex):
        mod.t_inv(mod.n)
    with pytest.raises(BadIndex):
        trivial_module(1).t_inv(0)


def test_matrix_inverse_guard():
    with pytest.raises(ValueError):
        mat_unit_inverse(((Q + ONE,),))
    assert mat_unit_inverse(((Q,),)) == ((QINV,),)


def test_non_square_matrix_is_invalid():
    with pytest.raises(InvalidValue):
        mat_det(((ONE,), (ONE,)))
    with pytest.raises(InvalidValue):
        mat_unit_inverse(((ONE, ZERO),))


def test_rank1_has_no_t0():
    with pytest.raises(BadIndex):
        trivial_module(1).t(0)


def det_oracle(a):
    """Recursive cofactor expansion along the first row: O(dim!), shares no
    code with the fraction-free elimination behind mat_det."""
    if len(a) == 1:
        return a[0][0]
    acc = ZERO
    for j in range(len(a)):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        term = a[0][j] * det_oracle(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def random_poly(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return ZERO
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})


def random_matrix(rng, dim):
    return tuple(tuple(random_poly(rng) for _ in range(dim)) for _ in range(dim))


def random_singular(rng, dim):
    """A zero row, or one row a Laurent combination of two others."""
    rows = [list(row) for row in random_matrix(rng, dim)]
    r = rng.randrange(dim)
    if dim == 1 or rng.random() < 0.3:
        rows[r] = [ZERO] * dim
    else:
        i, j = rng.sample([x for x in range(dim) if x != r] * 2, 2)
        c1, c2 = random_poly(rng, 0), random_poly(rng, 0)
        rows[r] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(row) for row in rows)


def random_unimodular(rng, dim):
    """P L D U with L, U unitriangular, D a diagonal of units +-q^k and P a
    permutation, so the determinant is a unit."""
    lower = tuple(
        tuple(random_poly(rng) if j < i else (ONE if j == i else ZERO) for j in range(dim))
        for i in range(dim)
    )
    upper = tuple(
        tuple(random_poly(rng) if j > i else (ZERO if j < i else ONE) for j in range(dim))
        for i in range(dim)
    )
    diag = tuple(
        tuple(LaurentPoly.q_power(rng.randint(-2, 2), rng.choice((1, -1))) if j == i else ZERO for j in range(dim))
        for i in range(dim)
    )
    order = list(range(dim))
    rng.shuffle(order)
    perm = tuple(tuple(ONE if j == order[i] else ZERO for j in range(dim)) for i in range(dim))
    return mat_mul(perm, mat_mul(lower, mat_mul(diag, upper)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_mat_det_matches_cofactor_oracle(dim):
    rng = random.Random(100 + dim)
    for _ in range(30):
        a = random_matrix(rng, dim)
        assert mat_det(a) == det_oracle(a), a
        singular = random_singular(rng, dim)
        assert mat_det(singular) == det_oracle(singular) == ZERO, singular


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_mat_unit_inverse_on_unit_determinants(dim):
    rng = random.Random(200 + dim)
    for _ in range(15):
        a = random_unimodular(rng, dim)
        assert det_oracle(a).is_unit()
        inv = mat_unit_inverse(a)
        assert mat_mul(a, inv) == mat_eye(dim)
        assert mat_mul(inv, a) == mat_eye(dim)
        # scaling one row by a non-unit makes the determinant a non-unit
        r = rng.randrange(dim)
        scaled = tuple(
            tuple(x * (Q + ONE) for x in row) if i == r else row for i, row in enumerate(a)
        )
        with pytest.raises(InvalidValue):
            mat_unit_inverse(scaled)
        with pytest.raises(InvalidValue):
            mat_unit_inverse(random_singular(rng, dim))


def expected_w():
    rho_mat = ((ZERO, ONE), (ONE, ZERO))
    t1 = ((ZERO, ONE), (ONE, QINV - Q))
    return rho_mat, t1


def test_induce_reproduces_worked_matrices():
    w = induce(trivial_module(1), trivial_module(1))
    rho_mat, t1 = expected_w()
    assert w.dim == 2
    assert w.rho_mat == rho_mat
    assert w.t_mats[0] == t1
    assert w.t(0) == ((QINV - Q, ONE), (ONE, ZERO))
    assert w.b(1) == ((Q, ONE), (ONE, QINV))
    assert w.b(0) == ((QINV, ONE), (ONE, Q))
    assert all_pass(module_check_relations(w))


def test_module_y_of_w():
    w = induce(trivial_module(1), trivial_module(1))
    y1 = module_y(w, 1)
    assert y1 == mat_mul(w.rho_mat, w.t_mats[0])
    y2 = module_y(w, 2)
    assert mat_mul(y1, y2) == mat_mul(y2, y1)
    assert mat_mul(y1, module_y_inv(w, 1)) == mat_eye(2)
    assert mat_mul(y2, module_y_inv(w, 2)) == mat_eye(2)


def test_module_act_matches_matrices():
    w = induce(trivial_module(1), trivial_module(1))
    vec = (ONE, ZERO)
    out = module_act(w, b_gen(2, 1), vec)
    assert out == (Q, ONE) == module_act(w, b_gen(2, 1), (1, 0))  # int entries are constants
    # KL element acts through its standard expansion: b_101 = 3 b_1 on W
    out = module_act(w, kl_to_std(KLLabel(0, (1, 0, 1))), vec)
    assert out == (Q * 3, LaurentPoly.const(3))
    for short_or_long in ((ONE,), (ONE, ZERO, ZERO)):
        with pytest.raises(InvalidValue):
            module_act(w, b_gen(2, 1), short_or_long)


@pytest.mark.parametrize(
    "m1,m2",
    [
        (trivial_module(1), trivial_module(1)),
        (trivial_module(1), trivial_module(2)),
        (trivial_module(2), trivial_module(1)),
        (trivial_module(1), one_dimensional(2, -Q, Q**2)),
    ],
)
def test_induced_modules_pass_relations(m1, m2):
    mod = induce(m1, m2)
    assert all_pass(module_check_relations(mod))


def rank1(e, sign=1):
    """A rank-1 module with rho acting by sign * q^e."""
    return one_dimensional(1, None, LaurentPoly.q_power(e, sign))


LARGE_INDUCED = {
    "2-3": (lambda: (trivial_module(2), trivial_module(3)), 10),
    "2-4": (lambda: (trivial_module(2), trivial_module(4)), 15),
    "3-3": (lambda: (trivial_module(3), trivial_module(3)), 20),
    "4-4": (lambda: (trivial_module(4), trivial_module(4)), 70),
    "4-5": (lambda: (trivial_module(4), trivial_module(5)), 126),
    "5-6": (lambda: (trivial_module(5), trivial_module(6)), 462),
    "1-15": (lambda: (trivial_module(1), trivial_module(15)), 16),
    "W-W": (lambda: (w_module(), w_module()), 24),
    "W-1-1": (lambda: (induce(w_module(), trivial_module(1)), trivial_module(1)), 24),
}


def mat_sum(a, b):
    """The entrywise sum of two dense matrices."""
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


@pytest.mark.parametrize("case", LARGE_INDUCED)
def test_large_induced_modules(case):
    build, dim = LARGE_INDUCED[case]
    mod = induce(*build())
    assert mod.dim == dim
    report = dict(module_check_relations(mod))
    assert report["rho*rho^-1 = 1"]
    assert all(report.values())
    shift = mat_scale(mat_eye(mod.dim), Q - QINV)
    for i in range(mod.n):
        assert mod.t_inv(i) == mat_sum(mod.t(i), shift)
    # module_y is the unmemoized fold; y_i y_j = y_j y_i, compared in row form
    ys = [fold_word(mod, y_word(mod.n, i)) for i in range(1, mod.n + 1)]
    assert [module_y(mod, i) for i in range(1, mod.n + 1)] == [_dense(y, mod.dim) for y in ys]
    for i, yi in enumerate(ys):
        for yj in ys[i + 1 :]:
            assert _mul(yi, yj) == _mul(yj, yi)


def direct_relations(mod):
    """The oracle of module_check_relations: each side of each relation
    folded on its own by fold_word, with no word memo and no
    verdicts shared along rho-orbits."""
    return [(name, fold_word(mod, lhs) == fold_word(mod, rhs)) for name, lhs, rhs in defining_relations(mod.n)]


ORACLE_MODULES = {
    **{case: (lambda build=build: induce(*build())) for case, (build, dim) in LARGE_INDUCED.items() if dim <= 126},
    "W": w_module,
    "rank1-1": lambda: rank1(0),
    "rank1-q2": lambda: rank1(2),
    "rank1-(-q^-1)": lambda: rank1(-1, -1),
}


def stored_letters(mod):
    return [("rho", 1), ("rho", -1)] + [(i, 1) for i in range(1, mod.n)]


def with_letters(mod, letters):
    """The module with the given row forms of rho^+-1 and T_1..T_{n-1}."""
    t_rows = [letters[i, 1] for i in range(1, mod.n)]
    return FinDimModule._from_rows(mod.n, mod.dim, t_rows, letters["rho", 1], letters["rho", -1])


@pytest.mark.parametrize("case", ORACLE_MODULES)
def test_relation_check_matches_direct_evaluation(case):
    mod = ORACLE_MODULES[case]()
    report = module_check_relations(mod)
    assert report == direct_relations(mod) and all_pass(report)
    # seeded one-entry mutants of every stored letter, most of which break a
    # relation with a rho and so reach the path that evaluates every relation
    rng = random.Random(case)
    deltas = (ONE, -ONE, Q, -QINV, TWO * Q)
    for letter in stored_letters(mod):
        for _ in range(3):
            letters = {key: mod._letters[key] for key in stored_letters(mod)}
            rows = list(letters[letter])
            r, c = rng.randrange(mod.dim), rng.randrange(mod.dim)
            row = dict(rows[r])  # rows may be shared between letters: never mutate one
            entry = row.get(c, ZERO) + rng.choice(deltas)
            if entry:
                row[c] = entry
            else:
                del row[c]
            rows[r] = row
            letters[letter] = tuple(rows)
            mutant = with_letters(mod, letters)
            report = module_check_relations(mutant)
            assert report == direct_relations(mutant), (letter, r, c)
            if letter[0] == "rho":
                assert not dict(report)["rho*rho^-1 = 1"]


def word_matrix_act(mod, elt, vec):
    """The oracle of module_act, its former body: each standard term acts by
    the row form of its whole word (fold_word) on the scaled vector."""
    acc = {}
    for perm, coeff in elt.terms.items():
        scaled = [coeff * v for v in vec]
        for r, row in enumerate(fold_word(mod, rex_word(canonical_rex(perm)))):
            for c, x in row.items():
                add_product(acc, r, x, scaled[c])
    acc = sealed(acc)
    return tuple(acc.get(r, ZERO) for r in range(mod.dim))


def several_terms(rng):
    """A seeded Laurent polynomial of two or three terms."""
    return LaurentPoly({e: rng.choice((1, -1, 2, -3)) for e in rng.sample(range(-3, 4), rng.randint(2, 3))})


def random_element(rng, n):
    """A seeded rank-n element of three terms, each rho^m with 2 <= |m| <= 3
    (the first always, the others mostly) and then up to four letters
    T_i^+-1, times a polynomial of several terms."""
    out = HeckeElt.zero(n)
    for t in range(3):
        word = (("rho", rng.choice((-3, -2, 2, 3))),) if t == 0 or rng.random() < 0.7 else ()
        if n >= 2:
            word += tuple((rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(0, 4)))
        out = out + word_elt(n, word).scale(several_terms(rng))
    return out


@pytest.mark.parametrize("case", ORACLE_MODULES)
def test_module_act_matches_word_matrices(case):
    mod = ORACLE_MODULES[case]()
    rng = random.Random(f"act-{case}")
    for _ in range(4):
        elt = random_element(rng, mod.n)
        assert any(abs(perm.shift) >= 2 for perm in elt.terms)
        vec = tuple(random_poly(rng, 0.5) for _ in range(mod.dim))
        assert module_act(mod, elt, vec) == word_matrix_act(mod, elt, vec)


@pytest.mark.parametrize("case", ["3-3", "W-W", "1-15"])
def test_negated_t_fails_only_the_quadratic_relations(case):
    # -T_i still satisfies every conjugation, braid and commuting relation
    mod = ORACLE_MODULES[case]()
    letters = {key: mod._letters[key] for key in stored_letters(mod)}
    for i in range(1, mod.n):
        letters[i, 1] = tuple({j: -x for j, x in row.items()} for row in letters[i, 1])
    negated = with_letters(mod, letters)
    report = module_check_relations(negated)
    assert report == direct_relations(negated)
    assert [name for name, ok in report if not ok] == [f"(T_{i}+q)(T_{i}-q^-1) = 0" for i in range(mod.n)]


# products of induce(trivial_module(a), trivial_module(b)): the matrices of
# rho^+-1, the factors' y_n and y_1^-1, and T_0's two
INDUCE_PRODUCTS = {(1, 1): 4, (1, 2): 9, (2, 2): 18, (2, 3): 29, (3, 3): 52}


@pytest.mark.parametrize("a, b, products", [(1, 1, 6), (1, 2, 11), (2, 2, 15), (2, 3, 17), (3, 3, 21)])
def test_relation_check_product_count(a, b, products, monkeypatch):
    # ranks 2..6: a module's word memo folds `products` words for T_0 and its
    # first check: two for T_0 = rho T_{n-1} rho^-1 as induce builds the
    # module, then one for rho rho^-1, two per other conjugation, one per
    # quadratic orbit, three per braid orbit and two per commuting orbit.  A
    # second check folds nothing.  The memo keeps the mul it is made with, so
    # the count is patched in before any module is built.
    calls = []

    def counted(x, y):
        calls.append(None)
        return _mul(x, y)

    monkeypatch.setattr(modules, "_mul", counted)
    m1, m2 = trivial_module(a), trivial_module(b)
    calls.clear()
    mod = induce(m1, m2)
    counts = [len(calls)]
    for _ in range(2):
        calls.clear()
        assert all_pass(module_check_relations(mod))
        counts.append(len(calls))
    assert counts == [INDUCE_PRODUCTS[a, b], products - 2, 0]


def test_relation_check_leaves_no_cyclic_garbage():
    # a self-referencing word memo would hold every word value until the
    # cycle collector ran, raising the peak memory of repeated checks; a
    # dropped module, with every y_i read, leaves nothing for gc either
    gc.collect()
    gc.disable()
    try:
        mod = induce(trivial_module(2), trivial_module(2))
        assert all_pass(module_check_relations(mod))
        ys = [module_y(mod, i) for i in range(1, mod.n + 1)]
        assert gc.collect() == 0
        del mod, ys
        assert gc.collect() == 0
    finally:
        gc.enable()


PLAN_INVERSE_PAIRS = {
    "q2-(-q^-1)": lambda: (rank1(2), rank1(-1, -1)),
    "(-q)-triv2": lambda: (rank1(1, -1), trivial_module(2)),
    "triv2-q^-2": lambda: (trivial_module(2), rank1(-2)),
    "W-q2": lambda: (w_module(), rank1(2)),
    "(-q^-1)-W": lambda: (rank1(-1, -1), w_module()),
    "W-triv2": lambda: (w_module(), trivial_module(2)),
    "W-W": lambda: (w_module(), w_module()),
}


@pytest.mark.parametrize("case", PLAN_INVERSE_PAIRS)
def test_plan_rho_inverse_matches_elimination(case):
    mod = induce(*PLAN_INVERSE_PAIRS[case]())
    assert mod.rho_inv_mat == mat_unit_inverse(mod.rho_mat)
    assert all_pass(module_check_relations(mod))


def straightened_induce(m1, m2):
    """Ind(m1 (x) m2) by Bernstein straightening, the former builder: each
    g T_x in normal form sum c T_w y^lam, T_w = T_{x'} T_{u_l} T_{u_r} split
    from the window of w, acting by T_{u_l} y^lam[:k] on m1 and T_{u_r}
    y^lam[k:] on m2.  It shares only min_coset_reps with induce."""
    k, n = m1.n, m1.n + m2.n
    d1, d2 = m1.dim, m2.dim
    reps = min_coset_reps(n, k)
    index = {x.window: pos for pos, x in enumerate(reps)}
    dim = len(reps) * d1 * d2  # T_x (x) e_a (x) e_b sits at (x d1 + a) d2 + b

    def factor_op(mod, window, lam):
        """Nonzero (row, col, value) of T_u y^lam on a factor, u of the given window."""
        ys = [(y_word(mod.n, i), e) for i, e in enumerate(lam, 1)]
        y_pows = sum(((y if e > 0 else inverse_word(y)) * abs(e) for y, e in ys), ())
        rows = fold_word(mod, rex_word(canonical_rex(AffinePerm(mod.n, window))) + y_pows)
        return [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()]

    def generator_rows(g):
        acc = [{} for _ in range(dim)]  # row -> col -> entry
        for x, rep in enumerate(reps):
            for (w, lam), coeff in (g * BernsteinElt.t_term(rep)).items():
                left, right = sorted(w.window[:k]), sorted(w.window[k:])
                x2 = index[tuple(left + right)]
                u_l = tuple(left.index(v) + 1 for v in w.window[:k])
                u_r = tuple(right.index(v) + 1 for v in w.window[k:])
                for a2, a, v_l in factor_op(m1, u_l, lam[:k]):
                    c = coeff * v_l
                    for b2, b, v_r in factor_op(m2, u_r, lam[k:]):
                        add_product(acc[(x2 * d1 + a2) * d2 + b2], (x * d1 + a) * d2 + b, c, v_r)
        return tuple(map(sealed, acc))

    gens = [t_gen(n, i) for i in range(1, n)] + [rho_gen(n), rho_gen(n, -1)]
    *t_rows, rho, rho_inv = (generator_rows(to_bernstein(g)) for g in gens)
    return FinDimModule._from_rows(n, dim, t_rows, rho, rho_inv)


STRAIGHTENING_CASES = {
    **{case: LARGE_INDUCED[case][0] for case in ("2-3", "3-3", "4-4", "W-1-1")},
    "triv1-(-q,q^2)": lambda: (trivial_module(1), one_dimensional(2, -Q, Q**2)),
    **PLAN_INVERSE_PAIRS,
}


@pytest.mark.parametrize("case", STRAIGHTENING_CASES)
def test_induce_matches_straightening(case):
    m1, m2 = STRAIGHTENING_CASES[case]()
    assert induce(m1, m2) == straightened_induce(m1, m2)


def check_by_frobenius(mod, m1, m2):
    """Three facts fix Ind(m1 (x) m2) on its basis T_x (x) e_v, and none of
    them reads either builder: every relation holds; T_x e_{1,v} = e_{x,v}
    for every representative x; and psi_L / psi_R of rho and of each T_i act
    on the x = 1 block as their matrices in m1 / m2 (rho^-1 then acts there
    as the inverse, since rho rho^-1 = 1 holds)."""
    n, k, d1, d2 = mod.n, m1.n, m1.dim, m2.dim
    assert mod.dim == comb(n, k) * d1 * d2
    assert all_pass(module_check_relations(mod))

    def e(x, a, b):
        return tuple(ONE if j == (x * d1 + a) * d2 + b else ZERO for j in range(mod.dim))

    # the windows increasing on both blocks, by length and then window
    windows = [left + tuple(v for v in range(1, n + 1) if v not in left) for left in combinations(range(1, n + 1), k)]
    reps = sorted((AffinePerm(n, w) for w in windows), key=lambda x: (x.length(), x.window))
    for x, rep in enumerate(reps):
        for a in range(d1):
            for b in range(d2):
                assert module_act(mod, HeckeElt.from_term(rep), e(0, a, b)) == e(x, a, b)
    ctx = ParabolicContext(n, k)
    for side, factor, embed in ((0, m1, psi_L), (1, m2, psi_R)):
        for letter in [("rho", 1)] + [(i, 1) for i in range(1, factor.n)]:
            image, mat = embed(ctx, word_elt(factor.n, (letter,))), word_mat(factor, (letter,))
            for a in range(d1):
                for b in range(d2):
                    expected = [ZERO] * mod.dim
                    for r in range(factor.dim):
                        expected[(r * d2 + b, a * d2 + r)[side]] = mat[r][(a, b)[side]]
                    assert module_act(mod, image, e(0, a, b)) == tuple(expected)


FROBENIUS_CASES = {
    **{case: build for case, (build, _) in LARGE_INDUCED.items()},
    **{case: STRAIGHTENING_CASES[case] for case in ("triv1-(-q,q^2)", *PLAN_INVERSE_PAIRS)},
}


@pytest.mark.parametrize("case", FROBENIUS_CASES)
def test_induce_by_frobenius_reciprocity(case):
    m1, m2 = FROBENIUS_CASES[case]()
    check_by_frobenius(induce(m1, m2), m1, m2)


# sha256 of the text, the JSON (dumped as `ahecke induce` dumps it) and the
# LaTeX of induced modules: a faster printer must write the same bytes
OUTPUT_DIGESTS = {
    "3-3": (
        lambda: (trivial_module(3), trivial_module(3)),
        "401da3a9c4b99389a56887a57a3b8f4d44409177e586cbd0bfda394424273028",
        "c396a64d75ea7ff2b59e087350059bd6d4c709cf2338a0d19ca67f5d8bbfeb98",
        "17f2250a93272540349161a54d100fffbbfed5aa11037af7e6a623eb364fd48a",
    ),
    "5-5": (
        lambda: (trivial_module(5), trivial_module(5)),
        "3865bc10ea4fbbbce079f10acef53df6507dadfd40393cbb2f1dabf4f3f95c08",
        "9d2ad4411c0a167c18c37abdeacf6e9011faa131b7f7eef8356265f7d54991ee",
        "df338b38266af861140e5c009d20de849785f948574d9bcae13f474d676218aa",
    ),
    "W-W": (
        lambda: (w_module(), w_module()),
        "05917ef2ace622c5c02634cd8b5bcfc3916ce1427fededa8b547b42e4b466dcd",
        "7c43633b60af9ffb9d40acb8532c2ae99203ab08935679447e3eba81531e6458",
        "20f84331179e7cee808e29067c548783c33d042614841e1b24b66f6a2887f856",
    ),
}


@pytest.mark.parametrize("case", OUTPUT_DIGESTS)
def test_induced_module_output_bytes(case):
    build, *digests = OUTPUT_DIGESTS[case]
    mod = induce(*build())
    outputs = (to_text(mod), json.dumps(to_json(mod), sort_keys=True), to_latex(mod))
    assert [hashlib.sha256(out.encode()).hexdigest() for out in outputs] == digests


def test_malformed_module_is_invalid():
    eye, t1 = mat_eye(2), ((QINV,),)
    with pytest.raises(InvalidValue):
        FinDimModule(3, 1, (t1,), ((ONE,),))  # rank 3 needs T_1 and T_2
    with pytest.raises(InvalidValue):
        FinDimModule(2, 1, (t1,), eye)  # 2x2 rho in dimension 1
    with pytest.raises(InvalidValue):
        FinDimModule(2, 2, (((QINV, ZERO),),), eye)  # 1x2 T_1
    with pytest.raises(InvalidValue):
        FinDimModule(2, 2, (eye,), eye, mat_eye(3))  # 3x3 rho^-1


def test_malformed_module_json_is_invalid():
    one = ONE.to_json()
    with pytest.raises(InvalidValue):
        module_from_json({"n": 2, "dim": 1, "gens": {"rho": [[one, one], [one, one]], "T1": [[one]]}})
    with pytest.raises(InvalidValue):
        module_from_json({"n": 3, "dim": 1, "gens": {"rho": [[one]], "T1": [[one]]}})
    extra = {"rho": [[{"0": 1}]], "T1": [[{"-1": 1}]], "T2": [[{"0": 1}]], "rho^-1": [[{"5": 1}]]}
    with pytest.raises(InvalidValue, match=r"T2.*rho\^-1"):
        module_from_json({"n": 2, "dim": 1, "gens": extra})


def test_modules_are_frozen():
    mod = induce(trivial_module(1), trivial_module(1))
    for name in ("n", "dim", "t_mats", "rho_mat"):
        before = getattr(mod, name)
        with pytest.raises(AttributeError, match=name):
            setattr(mod, name, None)
        assert getattr(mod, name) is before


@pytest.mark.parametrize(
    "build",
    [
        lambda: induce(trivial_module(1), trivial_module(1)),
        lambda: induce(induce(trivial_module(1), rank1(2)), trivial_module(2)),
    ],
    ids=["W", "Ind(triv1,q^2)-triv2"],
)
def test_module_equality_is_matrix_equality(build):
    mod = build()
    # the JSON reader eliminates rho^-1; induce takes it from its plan; the
    # words a check and module_y fold on one side are not part of ==
    back = module_from_json(to_json(mod))
    assert all_pass(module_check_relations(mod))
    assert all(module_y(mod, i) for i in range(1, mod.n + 1))
    assert back == mod and back.rho_inv_mat == mod.rho_inv_mat
    t1 = [list(row) for row in mod.t_mats[0]]
    t1[0][0] = t1[0][0] + Q
    changed = FinDimModule(mod.n, mod.dim, (tuple(map(tuple, t1)), *mod.t_mats[1:]), mod.rho_mat)
    assert changed != mod


def test_induced_dimension_formula():
    def binom(n, k):
        out = 1
        for i in range(k):
            out = out * (n - i) // (i + 1)
        return out

    cases = [
        (trivial_module(1), trivial_module(1)),
        (trivial_module(1), trivial_module(2)),
        (trivial_module(2), trivial_module(1)),
    ]
    for m1, m2 in cases:
        mod = induce(m1, m2)
        n, k = m1.n + m2.n, m1.n
        assert mod.dim == binom(n, k) * m1.dim * m2.dim


def test_one_dimensional_twists():
    for t_scalar in (QINV, -Q):
        for rho_scalar in (ONE, Q, -QINV):
            mod = one_dimensional(2, t_scalar, rho_scalar)
            assert all_pass(module_check_relations(mod))


def test_corrupted_module_fails_quadratic():
    w = induce(trivial_module(1), trivial_module(1))
    bad_t1 = ((ZERO, ONE), (Q, QINV - Q))  # corrupted transposed entry
    bad = FinDimModule(2, 2, (bad_t1,), w.rho_mat)
    report = dict(module_check_relations(bad))
    assert report["(T_1+q)(T_1-q^-1) = 0"] is False


def test_specialize_and_probe():
    w = induce(trivial_module(1), trivial_module(1))
    for q0 in DEFAULT_PROBES:
        spec = specialize(w, q0)
        assert not common_eigenvector_exists(spec)
    assert irreducible_at(w)


def test_reducible_negative_control():
    mod = FinDimModule(2, 2, (((QINV, ZERO), (ZERO, -Q)),), mat_eye(2))
    assert all_pass(module_check_relations(mod))
    for q0 in (Fraction(2), Fraction(3), Fraction(5, 7)):
        assert common_eigenvector_exists(specialize(mod, q0))
    assert not irreducible_at(mod)


@pytest.mark.parametrize("case", [case for case, (_, dim) in LARGE_INDUCED.items() if dim <= 126])
def test_specialize_matches_dense_evaluation(case):
    mod = induce(*LARGE_INDUCED[case][0]())
    q0 = Fraction(5, 7)
    dense = tuple(tuple(tuple(x.evaluate(q0) for x in row) for row in mat) for mat in (mod.rho_mat, *mod.t_mats))
    assert specialize(mod, "5/7") == SpecializedModule(mod.n, mod.dim, dense)


def _rational_eigenvalues(a):
    (p, r), (s, t) = a
    tr, det = p + t, p * t - r * s
    disc = tr * tr - 4 * det
    if disc < 0:
        return []
    root = _fraction_sqrt(disc)
    if root is None:
        return []
    return sorted({(tr + root) / 2, (tr - root) / 2})


def _fraction_sqrt(x):
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def _is_eigenvector(a, v):
    w = (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])
    return w[0] * v[1] - w[1] * v[0] == 0


def _eigenspace_2x2(a, lam):
    """Basis of ker(a - lam) for a 2x2 rational matrix: [] / [v] / 'full'."""
    m = ((a[0][0] - lam, a[0][1]), (a[1][0], a[1][1] - lam))
    if all(x == 0 for row in m for x in row):
        return "full"
    if m[0][0] != 0 or m[0][1] != 0:
        v = (m[0][1], -m[0][0])
    else:
        v = (m[1][1], -m[1][0])
    # rank-1 check: the other row must also annihilate v
    for row in m:
        if row[0] * v[0] + row[1] * v[1] != 0:
            return []
    return [v]


def _common_eig(mats):
    """The recursive rule, the oracle of the probe: a scalar first matrix
    fixes every line, so the rest decide; otherwise test its eigenlines."""
    if not mats:
        return True
    a, rest = mats[0], mats[1:]
    for lam in _rational_eigenvalues(a):
        space = _eigenspace_2x2(a, lam)
        if space == "full":
            if _common_eig(rest):
                return True
        elif space and all(_is_eigenvector(m, space[0]) for m in rest):
            return True
    return False


def test_probe_matches_the_recursive_rule():
    # small entries make rational eigenvalues, shared eigenlines and scalars common
    rng = random.Random(1818)
    entries = [Fraction(v, d) for v in range(-3, 4) for d in (1, 2)]
    mats_with_a_shared_line = 0
    for _ in range(5000):
        mats = []
        for _ in range(rng.randrange(5)):
            if rng.random() < 0.2:
                x = rng.choice(entries)
                mats.append(((x, Fraction(0)), (Fraction(0), x)))
            else:
                mats.append(tuple(tuple(rng.choice(entries) for _ in range(2)) for _ in range(2)))
        expected = _common_eig(mats)
        assert common_eigenvector_exists(SpecializedModule(len(mats), 2, tuple(mats))) is expected, mats
        mats_with_a_shared_line += expected
    assert 500 < mats_with_a_shared_line < 4500


def test_probe_of_scalar_matrices_only():
    for mats in ((), (((Fraction(3), Fraction(0)), (Fraction(0), Fraction(3))),) * 3):
        assert common_eigenvector_exists(SpecializedModule(1, 2, mats)) is True
    # a scalar first matrix is skipped, not taken as the one to split
    scalar = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))
    rotation = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    assert common_eigenvector_exists(SpecializedModule(1, 2, (scalar, rotation))) is False


def test_eigvec_probe_dim_guard():
    v = specialize(trivial_module(1), 2)
    with pytest.raises(DimUnsupported):
        common_eigenvector_exists(v)


def test_rho_matrix_squares_to_identity_on_w():
    w = induce(trivial_module(1), trivial_module(1))
    assert mat_mul(w.rho_mat, w.rho_mat) == mat_eye(2)


def test_y_matrices_commute_on_three_dim():
    mod = induce(trivial_module(1), trivial_module(2))
    assert mod.dim == 3
    ys = [module_y(mod, i) for i in (1, 2, 3)]
    for i, yi in enumerate(ys):
        for yj in ys[i + 1 :]:
            assert mat_mul(yi, yj) == mat_mul(yj, yi)
        assert mat_mul(yi, module_y_inv(mod, i + 1)) == mat_eye(3)
