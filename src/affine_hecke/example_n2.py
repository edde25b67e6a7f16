"""The infinite cyclic-quotient module U for n = 2, truncated.

U is the quotient of the rank-2 algebra by the left ideal generated by
rho^2 - 1 and b_1 rho - q^-1 b_1.  The classes u_k of b_{(...k letters
ending in 1)} and u'_k of rho b_{(...ending in 1)} form a basis; the
reduction table sends a KL element rho^m b_w (rho-power first folded mod 2)
to

    b_{..1}       -> u_k          rho b_{..1} -> u'_k
    b_{..0}       -> q^-1 u'_k    rho b_{..0} -> q^-1 u_k

with k the word length.  Since U is a quotient by a left ideal, a generator
b_s acts on u_k = b_w as the product b_s b_w (hecke.kl_mul_closed), read
through the same table, and on u'_k = rho b_w as b_s rho b_w.  Truncation is
explicit: anything escaping the bound raises TruncationExceeded rather than
being dropped, because kernel certificates would be silently corrupted
otherwise.

The projection onto the two-dimensional module W, the Zelevinsky product
induce(V, V) of two trivial rank-1 modules, sends u_0 to the cyclic vector w
and intertwines the generator actions, so pi_uw is the lift of a vector
acting on w (modules.module_act).
"""

from __future__ import annotations

from functools import cache

from .errors import BadIndex, InvalidValue, TruncationExceeded
from .hecke import HeckeElt, KLLabel, alt_word, b_gen, kl_combo_to_std, kl_mul_closed, rho_gen, std_to_kl, t_gen
from .laurent import ONE, Q, QINV, ZERO, Combination, add_product, linear, sealed

DEFAULT_BOUND = 20


def check_bound(bound):
    """The truncation bound, if it is at least 0."""
    if bound < 0:
        raise InvalidValue(f"truncation bound must be at least 0, got {bound}")
    return bound


class UVec(Combination):
    """Truncated element of U: finite combination of u_k, u'_k with k <= n,
    keyed by (primed, k).  Here n is the truncation bound: a sum keeps the
    smaller bound, and equality ignores it."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        super().__init__(check_bound(n), terms)

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
        return cls._raw(check_bound(bound), {})

    def __eq__(self, other):
        if not isinstance(other, UVec):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"UVec(N={self.n}, {self.terms!r})"


def u_reduce(elt, bound=DEFAULT_BOUND):
    """Image of a rank-2 element under the projection onto U."""
    check_bound(bound)
    return UVec._raw(bound, _reduce_kl(std_to_kl(elt), bound))


def _reduce_kl(combo, bound):
    """The reduction table on a dict KLLabel -> LaurentPoly, as UVec terms."""
    acc = {}
    for label, coeff in combo.items():
        k = label.length()
        if k > bound:
            raise TruncationExceeded(f"KL word of length {k} exceeds truncation bound {bound}")
        flip = k > 0 and label.word[-1] == 0  # b_{..0} -> q^-1 u_k on the other row
        add_product(acc, (label.m % 2 != flip, k), coeff, QINV if flip else ONE)
    return sealed(acc)


def lift(vec):
    """Section of the projection: u_k -> b_{..1}, u'_k -> rho b_{..1}."""
    return kl_combo_to_std({KLLabel(int(primed), alt_word(k, last=1)): c for (primed, k), c in vec.terms.items()})


def _act_basis_closed(gen, primed, k, bound):
    """Action of a generator on u_k or u'_k: b_s u_k is the reduction of the
    closed product b_s b_w (hecke.kl_mul_closed), u'_k of b_s rho b_w."""
    if gen == "rho":
        return {(not primed, k): ONE}
    if gen not in ("b0", "b1"):
        raise BadIndex(f"unknown generator {gen!r}")
    out = kl_mul_closed(KLLabel(0, (int(gen[1]),)), KLLabel(int(primed), alt_word(k, last=1)))
    if max(map(KLLabel.length, out)) > bound:
        raise TruncationExceeded(f"action on index {k} exceeds truncation bound {bound}")
    return _reduce_kl(out, bound)


def gen_elt(gen):
    """The generator as a rank-2 algebra element."""
    if gen == "rho":
        return rho_gen(2)
    if gen in ("b0", "b1"):
        return b_gen(2, int(gen[1]))
    if gen in ("T0", "T1"):
        return t_gen(2, int(gen[1]))
    raise BadIndex(f"unknown generator {gen!r}")


def u_act(gen, vec):
    """Action of a generator on a truncated vector, by the closed-form table.
    The test suite pins it to act_elt(gen_elt(gen), vec), reduce after
    multiply through the algebra."""
    if gen in ("T0", "T1"):
        # T_i = b_i - q
        return u_act("b" + gen[1], vec) - vec.scale(Q)
    return UVec._raw(vec.n, linear(vec.terms.items(), lambda key: _act_basis_closed(gen, *key, vec.n).items()))


def act_elt(elt, vec):
    """Action of an arbitrary rank-2 element, by lift-multiply-reduce."""
    return u_reduce(elt * lift(vec), vec.n)


# ---------------------------------------------------------------------------
# the projection onto W

@cache
def w_module():
    """The two-dimensional target W = induce(V, V), V the trivial rank-1
    module, on its basis T_e w, T_1 w."""
    from .modules import induce, trivial_module

    return induce(trivial_module(1), trivial_module(1))


def pi_uw(vec):
    """Project a truncated vector to W, as a pair of coordinates in the
    basis {w, w'}: its lift acting on the cyclic vector w = (1, 0)."""
    from .modules import module_act

    return module_act(w_module(), lift(vec), (ONE, ZERO))


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

