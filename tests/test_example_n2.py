import pytest

from affine_hecke.errors import InvalidValue, TruncationExceeded
from affine_hecke.example_n2 import (
    UVec,
    act_elt,
    gen_elt,
    ideal_generators,
    kernel_generator,
    lift,
    pi_uw,
    quotient_coords,
    u_act,
    u_reduce,
    w_module,
)
from affine_hecke.example_n2 import _pi_basis
from affine_hecke.hecke import HeckeElt, KLLabel, alt_word, b_gen, kl_to_std, rho_gen, t_gen
from affine_hecke.laurent import ONE, Q, Q2, QINV, ZERO, LaurentPoly

TWO = LaurentPoly.const(2)


def word_elt(length, first=0, m=0):
    return kl_to_std(KLLabel(m, alt_word(length, first=first) if length else ()))


def test_reduce_identity_and_rho():
    assert u_reduce(HeckeElt.one(2)) == UVec.basis(0)
    assert u_reduce(rho_gen(2, 1)) == UVec.basis(0, primed=True)
    assert u_reduce(rho_gen(2, 2)) == UVec.basis(0)
    assert u_reduce(rho_gen(2, -1)) == UVec.basis(0, primed=True)


def test_reduce_table():
    # words ending in 1 map straight onto the unprimed line
    assert u_reduce(word_elt(3, first=1)) == UVec.basis(3)
    assert u_reduce(word_elt(3, first=1, m=1)) == UVec.basis(3, primed=True)
    # words ending in 0 pick up q^-1 and a prime flip
    assert u_reduce(word_elt(1, first=0)) == UVec.basis(1, primed=True).scale(QINV)
    assert u_reduce(word_elt(1, first=0, m=1)) == UVec.basis(1).scale(QINV)


def test_ideal_generators_die():
    g1, g2 = ideal_generators()
    assert u_reduce(g1).is_zero
    assert u_reduce(g2).is_zero


def test_left_ideal_probes():
    g1, g2 = ideal_generators()
    probes = [
        HeckeElt.one(2),
        t_gen(2, 0) * t_gen(2, 1),
        rho_gen(2, 1),
        b_gen(2, 0),
        word_elt(5, first=1, m=1),
    ]
    for x in probes:
        assert u_reduce(x * g1).is_zero
        assert u_reduce(x * g2).is_zero


def test_uvec_bound_rule():
    t = {(False, 3): ONE, (True, 0): QINV}
    small, large = UVec(5, t), UVec(20, t)
    assert (small + large).n == 5
    assert (large + small).n == 5
    assert small == large


def test_action_table_values():
    u0 = UVec.basis(0)
    assert u_act("b1", u0) == UVec.basis(1)
    assert u_act("b0", u0) == UVec.basis(1, primed=True).scale(QINV)
    assert u_act("rho", UVec.basis(3, primed=True)) == UVec.basis(3)
    assert u_act("b1", UVec.basis(0, primed=True)) == UVec.basis(1).scale(QINV)
    assert u_act("b0", UVec.basis(0, primed=True)) == UVec.basis(1, primed=True)
    assert u_act("b1", UVec.basis(3)) == UVec.basis(3).scale(Q2)
    assert u_act("b1", UVec.basis(4)) == UVec.basis(5) + UVec.basis(3)
    assert u_act("b0", UVec.basis(1)) == UVec.basis(2)


def test_engines_agree():
    for k in range(0, 19):
        for primed in (False, True):
            vec = UVec.basis(k, primed=primed)
            for g in ("rho", "b0", "b1", "T0", "T1"):
                closed = u_act(g, vec, engine="closed")
                reduced = u_act(g, vec, engine="reduce")
                assert closed == reduced, (g, primed, k)


def test_unknown_engine_is_invalid():
    with pytest.raises(InvalidValue):
        u_act("b1", UVec.basis(0), engine="table")


def test_operator_relations_on_interior():
    # rho^2 = id, b_i^2 = [2] b_i, rho b_1 = b_0 rho as operators
    for k in range(0, 18):
        for primed in (False, True):
            vec = UVec.basis(k, primed=primed)
            assert u_act("rho", u_act("rho", vec)) == vec
            for g in ("b0", "b1"):
                lhs = u_act(g, u_act(g, vec))
                assert lhs == u_act(g, vec).scale(Q2)
            assert u_act("rho", u_act("b1", vec)) == u_act("b0", u_act("rho", vec))


def test_truncation_guard():
    top = UVec.basis(20)
    with pytest.raises(TruncationExceeded):
        u_act("b1", top)
    with pytest.raises(TruncationExceeded):
        UVec(5, {(False, 6): ONE})
    long_elt = word_elt(7, first=1)
    with pytest.raises(TruncationExceeded):
        u_reduce(long_elt, bound=5)


def test_act_elt_general():
    vec = UVec.basis(2) + UVec.basis(0, primed=True).scale(Q)
    elt = b_gen(2, 1) * rho_gen(2, 1) - t_gen(2, 0).scale(QINV)
    direct = act_elt(elt, vec)
    # the same value, generator by generator
    step = u_act("b1", u_act("rho", vec)) - u_act("T0", vec).scale(QINV)
    assert direct == step


def test_lift_section():
    for k in range(0, 6):
        for primed in (False, True):
            vec = UVec.basis(k, primed=primed)
            assert u_reduce(lift(vec)) == vec


def test_pi_values():
    assert pi_uw(UVec.basis(0)) == (ONE, ZERO)
    assert pi_uw(UVec.basis(0, primed=True)) == (ZERO, ONE)
    assert pi_uw(UVec.basis(1)) == (Q, ONE)
    assert pi_uw(UVec.basis(2)) == (TWO, TWO * Q)
    assert pi_uw(kernel_generator()) == (ZERO, ZERO)


def test_pi_intertwines():
    w = w_module()
    mats = {"rho": w.rho_mat, "b0": w.b(0), "b1": w.b(1)}
    for k in range(0, 19):
        for primed in (False, True):
            vec = UVec.basis(k, primed=primed)
            px = pi_uw(vec)
            for g, mat in mats.items():
                lhs = pi_uw(u_act(g, vec))
                rhs = (
                    mat[0][0] * px[0] + mat[0][1] * px[1],
                    mat[1][0] * px[0] + mat[1][1] * px[1],
                )
                assert lhs == rhs, (g, primed, k)


def test_kernel_generator_spans_under_action():
    # the submodule generated by T_1 u_0 - rho u_0 stays inside ker(pi)
    frontier = [kernel_generator()]
    seen = 0
    for _ in range(6):
        nxt = []
        for vec in frontier:
            for g in ("rho", "b0", "b1"):
                out = u_act(g, vec)
                assert pi_uw(out) == (ZERO, ZERO)
                nxt.append(out)
                seen += 1
        frontier = nxt[:3]
    assert seen > 0


def test_quotient_recursion_matches_projection():
    for k in range(0, 19):
        for primed in (False, True):
            assert quotient_coords(primed, k) == _pi_basis(primed, k)


def test_quotient_recursion_base_values():
    assert quotient_coords(False, 1) == (Q, ONE)
    assert quotient_coords(True, 1) == (ONE, Q)
    assert quotient_coords(False, 2) == (TWO, TWO * Q)
    assert quotient_coords(True, 2) == (TWO * Q, TWO)


def test_uvec_arithmetic():
    a = UVec.basis(1) + UVec.basis(2).scale(Q)
    b = UVec.basis(2).scale(Q)
    assert (a - b) == UVec.basis(1)
    assert (a - a).is_zero
    assert str(UVec.basis(3, primed=True)) == "u'3"


def test_gen_elt_tokens():
    assert gen_elt("rho") == rho_gen(2, 1)
    assert gen_elt("b0") == b_gen(2, 0)
    assert gen_elt("T1") == t_gen(2, 1)
