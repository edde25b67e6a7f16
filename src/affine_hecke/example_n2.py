"""The infinite cyclic-quotient module U for n = 2, truncated.

U is the quotient of the rank-2 algebra by the left ideal generated by
rho^2 - 1 and b_1 rho - q^-1 b_1.  The classes u_k of b_{(...k letters
ending in 1)} and u'_k of rho b_{(...ending in 1)} form a basis; the
reduction table sends a KL element rho^m b_w (rho-power first folded mod 2)
to

    b_{..1}       -> u_k          rho b_{..1} -> u'_k
    b_{..0}       -> q^-1 u'_k    rho b_{..0} -> q^-1 u_k

with k the word length.  Truncation is explicit: anything escaping the
bound raises TruncationExceeded rather than being dropped, because kernel
certificates would be silently corrupted otherwise.

The projection onto the two-dimensional module W sends u_0 to the cyclic
vector w and intertwines the generator actions.
"""

from __future__ import annotations

from functools import cache

from .errors import BadIndex, InvalidValue, TruncationExceeded
from .hecke import HeckeElt, KLLabel, alt_word, b_gen, kl_to_std, rho_gen, std_to_kl
from .laurent import ONE, Q, Q2, QINV, ZERO, Combination, accumulate
from .modules import induce, module_act, trivial_module

DEFAULT_BOUND = 20


class UVec(Combination):
    """Truncated element of U: finite combination of u_k, u'_k with k <= n,
    keyed by (primed, k).  Here n is the truncation bound: a sum keeps the
    smaller bound, and equality ignores it."""

    __slots__ = ()

    def _key(self, key):
        primed, k = key
        if k < 0 or k > self.n:
            raise TruncationExceeded(f"index {k} outside truncation bound {self.n}")
        return bool(primed), k

    def _join(self, other):
        return min(self.n, other.n)

    @classmethod
    def basis(cls, k, primed=False, bound=DEFAULT_BOUND):
        return cls(bound, {(primed, k): ONE})

    @classmethod
    def zero(cls, bound=DEFAULT_BOUND):
        return cls._raw(bound, {})

    def __eq__(self, other):
        if not isinstance(other, UVec):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"UVec(N={self.n}, {self.terms!r})"


def u_reduce(elt, bound=DEFAULT_BOUND):
    """Image of a rank-2 element under the projection onto U."""
    out = {}
    for label, coeff in std_to_kl(elt).items():
        k = label.length()
        if k > bound:
            raise TruncationExceeded(
                f"KL word of length {k} exceeds truncation bound {bound}"
            )
        primed = label.m % 2 == 1
        if k == 0 or label.word[-1] == 1:
            accumulate(out, (primed, k), coeff)
        else:
            accumulate(out, (not primed, k), coeff * QINV)
    return UVec._raw(bound, out)


def lift(vec):
    """Section of the projection: u_k -> b_{..1}, u'_k -> rho b_{..1}."""
    out = {}
    for (primed, k), coeff in vec.terms.items():
        label = KLLabel(1 if primed else 0, alt_word(k, last=1))
        for perm, c in kl_to_std(label).items():
            accumulate(out, perm, c * coeff)
    return HeckeElt._raw(2, out)


_GENERATORS = ("rho", "b0", "b1", "T0", "T1")


def _act_basis_closed(gen, primed, k, bound):
    """Closed-form action of a generator on u_k or u'_k."""
    if gen == "rho":
        return {(not primed, k): ONE}
    if gen not in ("b0", "b1"):
        raise BadIndex(f"unknown generator {gen!r}")
    # the primed row swaps the roles of b_0 and b_1
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


def gen_elt(gen):
    """The generator as a rank-2 algebra element."""
    if gen == "rho":
        return rho_gen(2)
    if gen in ("b0", "b1"):
        return b_gen(2, int(gen[1]))
    if gen in ("T0", "T1"):
        from .hecke import t_gen

        return t_gen(2, int(gen[1]))
    raise BadIndex(f"unknown generator {gen!r}")


def u_act(gen, vec, engine="closed"):
    """Action of a generator on a truncated vector.

    Two engines: the closed-form table, and reduce-after-multiply through
    the algebra.  They agree; the test suite pins this down.
    """
    if gen in ("T0", "T1"):
        # T_i = b_i - q
        return u_act("b" + gen[1], vec, engine) - vec.scale(Q)
    if engine == "closed":
        out = {}
        for (primed, k), coeff in vec.terms.items():
            for key, factor in _act_basis_closed(gen, primed, k, vec.n).items():
                accumulate(out, key, coeff * factor)
        return UVec._raw(vec.n, out)
    if engine == "reduce":
        return u_reduce(gen_elt(gen) * lift(vec), vec.n)
    raise InvalidValue(f"unknown engine {engine!r}")


def act_elt(elt, vec):
    """Action of an arbitrary rank-2 element, by lift-multiply-reduce."""
    return u_reduce(elt * lift(vec), vec.n)


# ---------------------------------------------------------------------------
# the projection onto W

@cache
def w_module():
    """The two-dimensional target W, realized by induction from two copies
    of the trivial rank-1 module."""
    v = trivial_module(1)
    return induce(v, v)


@cache
def _pi_basis(primed, k):
    # the image of u_k is the KL element b_{..1} acting on the cyclic
    # vector w = (1, 0); the primed vector adds one rho in front
    mod = w_module()
    elt = kl_to_std(KLLabel(1 if primed else 0, alt_word(k, last=1)))
    return module_act(mod, elt, (ONE, ZERO))


def pi_uw(vec):
    """Project a truncated vector to W, as a pair of coordinates in the
    basis {w, w'}."""
    out = (ZERO, ZERO)
    for (primed, k), coeff in vec.terms.items():
        base = _pi_basis(primed, k)
        out = (out[0] + coeff * base[0], out[1] + coeff * base[1])
    return out


def ideal_generators():
    """The two left-ideal generators rho^2 - 1 and b_1 rho - q^-1 b_1."""
    g1 = rho_gen(2, 2) - HeckeElt.one(2)
    b1 = b_gen(2, 1)
    g2 = b1 * rho_gen(2) - b1.scale(QINV)
    return g1, g2


def kernel_generator():
    """The submodule generator T_1 u_0 - rho u_0, as a truncated vector."""
    t1u0 = u_act("T1", UVec.basis(0))
    ru0 = u_act("rho", UVec.basis(0))
    return t1u0 - ru0


def quotient_coords(primed, k):
    """Coordinates of the class of u_k (or u'_k) in the span of the classes
    of u_0 and u'_0 inside U/J, following the two-step recursion
    u_k = b u_{k-1} - u_{k-2} with b alternating between b_1 and b_0."""
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
