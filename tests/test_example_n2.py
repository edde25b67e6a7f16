import pytest

from affine_hecke.errors import BadIndex, InvalidValue, TruncationExceeded
from affine_hecke.example_n2 import (
    UVec,
    act_elt,
    gen_elt,
    ideal_generators,
    kernel_generator,
    lift,
    pi_uw,
    u_act,
    u_reduce,
    w_module,
)
from affine_hecke.hecke import HeckeElt, KLLabel, alt_word, b_gen, kl_to_std, rho_gen, t_gen
from affine_hecke.laurent import ONE, Q, Q2, QINV, ZERO, LaurentPoly
from affine_hecke.modules import induce, module_act, trivial_module

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
                assert u_act(g, vec) == act_elt(gen_elt(g), vec), (g, primed, k)


def _act_table_oracle(gen, primed, k, bound):
    """The action of b0, b1 or rho on u_k or u'_k by the former two mirrored tables."""
    if gen == "rho":
        return {(not primed, k): ONE}
    eff = gen if not primed else ("b0" if gen == "b1" else "b1")
    if eff == "b1":
        if k == 0:
            out = {(primed, 1): ONE}
        elif k % 2 == 1:
            out = {(primed, k): Q2}
        else:
            out = {(primed, k + 1): ONE, (primed, k - 1): ONE}
    else:
        if k == 0:
            out = {(not primed, 1): QINV}
        elif k == 1:
            out = {(primed, 2): ONE}
        elif k % 2 == 0:
            out = {(primed, k): Q2}
        else:
            out = {(primed, k + 1): ONE, (primed, k - 1): ONE}
    if any(j > bound for _, j in out):
        raise TruncationExceeded(f"action on index {k} exceeds truncation bound {bound}")
    return out


def _outcome(act, gen, vec):
    """act(gen, vec), or the message of the TruncationExceeded it raises."""
    try:
        return act(gen, vec)
    except TruncationExceeded as exc:
        return str(exc)


def _oracle_act(gen, vec):
    if gen in ("T0", "T1"):
        return _oracle_act("b" + gen[1], vec) - vec.scale(Q)
    ((key, coeff),) = vec.terms.items()
    return UVec(vec.n, _act_table_oracle(gen, *key, vec.n)).scale(coeff)


def test_action_rule_matches_the_two_tables():
    cases = 0
    for bound in (0, 1, 2, 5, 30):
        for k in range(bound + 1):
            for primed in (False, True):
                vec = UVec.basis(k, primed, bound)
                for gen in ("rho", "b0", "b1", "T0", "T1"):
                    assert _outcome(u_act, gen, vec) == _outcome(_oracle_act, gen, vec), (bound, k, primed, gen)
                    cases += 1
    assert cases == 430
    with pytest.raises(BadIndex):
        u_act("b2", UVec.basis(0))


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


def quotient_coords(primed, k):
    """Coordinates of the class of u_k (or u'_k) in the span of the classes
    of u_0 and u'_0 inside U/J, following the two-step recursion
    u_k = b u_{k-1} - u_{k-2} with b alternating between b_1 and b_0: an
    oracle for the projection pi_uw that shares no code with it."""
    table = {
        (False, 0): (ONE, ZERO),
        (True, 0): (ZERO, ONE),
    }

    def act_b(i, v):
        # b_1 and b_0 on span{u_0bar, u'_0bar}: columns are images of the
        # two basis classes
        if i == 1:
            cols = ((Q, ONE), (ONE, QINV))
        else:
            cols = ((QINV, ONE), (ONE, Q))
        return (
            cols[0][0] * v[0] + cols[1][0] * v[1],
            cols[0][1] * v[0] + cols[1][1] * v[1],
        )

    for j in range(1, k + 1):
        letter = alt_word(j, last=1)[0]
        prev = table[(False, j - 1)]
        cur = act_b(letter, prev)
        if j >= 3:
            # b u_{j-1} = u_j + u_{j-2} once both neighbours exist
            before = table[(False, j - 2)]
            cur = (cur[0] - before[0], cur[1] - before[1])
        table[(False, j)] = cur
        table[(True, j)] = (cur[1], cur[0])
    return table[(bool(primed), k)]


def test_quotient_recursion_matches_projection():
    for k in range(0, 19):
        for primed in (False, True):
            assert quotient_coords(primed, k) == pi_uw(UVec.basis(k, primed=primed))


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


def test_negative_truncation_bound_is_rejected():
    with pytest.raises(InvalidValue, match="at least 0"):
        UVec(-4, {})
    with pytest.raises(InvalidValue, match="at least 0"):
        UVec.zero(-4)
    with pytest.raises(InvalidValue, match="at least 0"):
        UVec.basis(0, bound=-1)
    with pytest.raises(InvalidValue, match="at least 0"):
        u_reduce(HeckeElt.one(2), -7)
    with pytest.raises(InvalidValue, match="at least 0"):
        u_reduce(HeckeElt.zero(2), -7)
    assert u_reduce(HeckeElt.one(2), 0) == UVec.basis(0, bound=0)
    assert UVec.zero(0).is_zero


def test_w_module_is_the_induced_module():
    # W on its basis T_e w, T_1 w in closed form: T_1 sends them to T_1 w and
    # T_e w + (q^-1 - q) T_1 w, and rho = rho^-1 swaps them
    v = trivial_module(1)
    induced = induce(v, v)
    swap = ((ZERO, ONE), (ONE, ZERO))
    assert w_module() == induced
    assert w_module().t_mats == (((ZERO, ONE), (ONE, QINV - Q)),)
    assert w_module().rho_mat == w_module().rho_inv_mat == swap
    for k in range(12):
        for primed in (False, True):
            elt = kl_to_std(KLLabel(int(primed), alt_word(k, last=1)))
            assert pi_uw(UVec.basis(k, primed=primed)) == module_act(induced, elt, (ONE, ZERO))
