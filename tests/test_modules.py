import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke.errors import BadIndex, DimUnsupported, InvalidValue
from affine_hecke.example_n2 import w_module
from affine_hecke.hecke import b_gen, kl_to_std, KLLabel
from affine_hecke.laurent import ONE, Q, QINV, ZERO, LaurentPoly
from affine_hecke.modules import (
    DEFAULT_PROBES,
    FinDimModule,
    _mul,
    _word_rows,
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
    module_y_inv,
    one_dimensional,
    specialize,
    trivial_module,
)
from affine_hecke.parabolic import y_word
from affine_hecke.serialize import module_from_json, to_json

TWO = LaurentPoly.const(2)


def all_pass(report):
    return all(ok for _, ok in report)


def test_trivial_rank1():
    v = trivial_module(1)
    assert v.dim == 1 and v.n == 1
    assert v.rho_mat == ((ONE,),)
    assert v.rho_inv_mat == ((ONE,),)
    assert all_pass(module_check_relations(v))
    assert module_y(v, 1) == ((ONE,),)


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
    assert out == (Q, ONE)
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
    "2-3": (lambda: induce(trivial_module(2), trivial_module(3)), 10),
    "2-4": (lambda: induce(trivial_module(2), trivial_module(4)), 15),
    "3-3": (lambda: induce(trivial_module(3), trivial_module(3)), 20),
    "4-4": (lambda: induce(trivial_module(4), trivial_module(4)), 70),
    "4-5": (lambda: induce(trivial_module(4), trivial_module(5)), 126),
    "W-W": (lambda: induce(w_module(), w_module()), 24),
    "W-1-1": (lambda: induce(induce(w_module(), trivial_module(1)), trivial_module(1)), 24),
}


def mat_sum(a, b):
    """The entrywise sum of two dense matrices."""
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


@pytest.mark.parametrize("case", LARGE_INDUCED)
def test_large_induced_modules(case):
    build, dim = LARGE_INDUCED[case]
    mod = build()
    assert mod.dim == dim
    report = dict(module_check_relations(mod))
    assert report["rho*rho^-1 = 1"]
    assert all(report.values())
    shift = mat_scale(mat_eye(mod.dim), Q - QINV)
    for i in range(mod.n):
        assert mod.t_inv(i) == mat_sum(mod.t(i), shift)
    # y_i y_j = y_j y_i, compared in row form
    ys = [_word_rows(mod, y_word(mod.n, i)) for i in range(1, mod.n + 1)]
    for i, yi in enumerate(ys):
        for yj in ys[i + 1 :]:
            assert _mul(yi, yj) == _mul(yj, yi)


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
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mod, name, getattr(mod, name))


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
    # the JSON reader eliminates rho^-1; induce takes it from its plan
    back = module_from_json(to_json(mod))
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
