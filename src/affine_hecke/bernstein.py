"""Bernstein normal form: finite Hecke part left, y-monomials right.

An element is a finite combination of T_w y^lambda with w a permutation of
{1..n} and lambda an integer exponent vector.  The straightening move is
derived from the single relation T_i^-1 y_i T_i^-1 = y_{i+1} together with
y-commutativity and T_i y_j = y_j T_i for j outside {i, i+1}:

    T_i y^lambda = y^{s_i lambda} T_i + (q - q^-1) * correction,

where the correction is (y_i y_{i+1})^b times the exact geometric quotient
-z (z^c - 1)/(z - 1) evaluated at z = y_i / y_{i+1}, for lambda restricted
to slots (i, i+1) = (a, b) and c = a - b.  The quotient is computed by
exact Laurent division, so a wrongly derived rule would raise
NonIntegralCorrection instead of silently corrupting results.
"""

from __future__ import annotations

from functools import cache

from .errors import RankMismatch
from .hecke import HeckeElt
from .laurent import ONE, Q, QINV, Combination, LaurentPoly, accumulate
from .parabolic import bernstein_y, bernstein_y_inv
from .weyl import canonical_rex, identity, simple


class BernsteinElt(Combination):
    """A combination of normal-form terms T_w y^lambda, keyed by (w, lambda)."""

    __slots__ = ()

    def _key(self, key):
        perm, lam = key
        if perm.n != self.n or len(lam) != self.n:
            raise RankMismatch(f"term of wrong rank in rank-{self.n} element")
        return perm, tuple(lam)

    @classmethod
    def one(cls, n):
        return cls._raw(n, {(identity(n), (0,) * n): ONE})

    @classmethod
    def y_monomial(cls, n, lam, coeff=ONE):
        return cls(n, {(identity(n), tuple(lam)): coeff})

    @classmethod
    def t_term(cls, perm, lam=None, coeff=ONE):
        lam = tuple(lam) if lam is not None else (0,) * perm.n
        return cls(perm.n, {(perm, lam): coeff})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, BernsteinElt):
            return NotImplemented
        return bernstein_mul(self, other)


def _swap_slots(lam, i):
    out = list(lam)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def _correction_monomials(n, i, lam):
    """The y-monomials of the correction in T_i y^lam, with coefficients.

    Returns a list of (lambda', coeff) with the (q - q^-1) factor included.
    """
    a, b = lam[i - 1], lam[i]
    c = a - b
    if c == 0:
        return []
    # geometric quotient (z^c - 1)/(z - 1) by exact division, z = y_i/y_{i+1}
    num = LaurentPoly({c: 1, 0: -1})
    den = LaurentPoly({1: 1, 0: -1})
    quot = num.exact_div(den)
    factor = Q - QINV
    out = []
    for e, v in quot.items():
        # -z * z^e * (y_i y_{i+1})^b * y_{i+1}^c  ->  y_i^{e+1+b} y_{i+1}^{b+c-e-1}
        lam2 = list(lam)
        lam2[i - 1] = e + 1 + b
        lam2[i] = b + c - e - 1
        out.append((tuple(lam2), factor * LaurentPoly.const(-v)))
    return out


def bl_commute(n, i, lam):
    """Normal form of y^lam T_i, moving the y-monomial past the generator:
    y^lam T_i = T_i y^{s_i lam} - correction(s_i lam)."""
    swapped = _swap_slots(lam, i)
    out = {(simple(n, i), swapped): ONE}
    for lam2, coeff in _correction_monomials(n, i, swapped):
        accumulate(out, (identity(n), lam2), -coeff)
    return BernsteinElt._raw(n, out)


def _finite_mul_simple(perm, i):
    """T_w T_i in the finite Hecke algebra as a list of (perm, coeff)."""
    s = simple(perm.n, i)
    ws = perm * s
    if ws.length() > perm.length():
        return [(ws, ONE)]
    return [(ws, ONE), (perm, QINV - Q)]


def _term_mul(n, w, lam, v, mu, coeff, out):
    """Accumulate T_w y^lam T_v y^mu into the term dict out."""
    stack = [(w, lam, v, coeff)]
    while stack:
        w1, lam1, v1, c1 = stack.pop()
        if v1.is_identity():
            accumulate(out, (w1, tuple(x + y for x, y in zip(lam1, mu))), c1)
            continue
        i = canonical_rex(v1).word[0]
        v_rest = simple(n, i) * v1  # v1 = s_i * v_rest with lengths adding
        # y^lam1 T_i = T_i y^{s_i lam1} - correction
        swapped = _swap_slots(lam1, i)
        for w2, c2 in _finite_mul_simple(w1, i):
            stack.append((w2, swapped, v_rest, c1 * c2))
        for lam2, corr in _correction_monomials(n, i, swapped):
            stack.append((w1, lam2, v_rest, -(c1 * corr)))


def bernstein_mul(a, b):
    """Product in normal form."""
    if a.n != b.n:
        raise RankMismatch(f"rank mismatch: {a.n} vs {b.n}")
    n = a.n
    out = {}
    for (w, lam), c1 in a.terms.items():
        for (v, mu), c2 in b.terms.items():
            _term_mul(n, w, lam, v, mu, c1 * c2, out)
    return BernsteinElt._raw(n, out)


# ---------------------------------------------------------------------------
# conversion to and from the standard extended basis

@cache
def _rho_images(n):
    """Normal forms of rho, rho^-1 and T_0 for rank n."""
    if n == 1:
        return BernsteinElt.y_monomial(1, (1,)), BernsteinElt.y_monomial(1, (-1,)), None
    # rho = y_1 T_1^-1 ... T_{n-1}^-1 and rho^-1 = T_{n-1} ... T_1 y_1^-1
    rho_pos = BernsteinElt.y_monomial(n, (1,) + (0,) * (n - 1))
    for j in range(1, n):
        t_inv = BernsteinElt(
            n,
            {
                (simple(n, j), (0,) * n): ONE,
                (identity(n), (0,) * n): Q - QINV,
            },
        )
        rho_pos = bernstein_mul(rho_pos, t_inv)
    word = identity(n)
    for j in range(n - 1, 0, -1):
        word = word * simple(n, j)
    rho_neg = BernsteinElt.t_term(word, (-1,) + (0,) * (n - 1))
    t0 = bernstein_mul(bernstein_mul(rho_pos, BernsteinElt.t_term(simple(n, n - 1))), rho_neg)
    return rho_pos, rho_neg, t0


def to_bernstein(elt):
    """Rewrite a standard-basis element in Bernstein normal form."""
    n = elt.n
    rho_pos, rho_neg, t0 = _rho_images(n)
    out = {}
    for perm, coeff in elt.terms.items():
        rex = canonical_rex(perm)
        acc = _bernstein_power(rho_pos, rho_neg, rex.m, n)
        for i in rex.word:
            factor = t0 if i == 0 else BernsteinElt.t_term(simple(n, i))
            acc = bernstein_mul(acc, factor)
        for key, c in acc.terms.items():
            accumulate(out, key, c * coeff)
    return BernsteinElt._raw(n, out)


def _bernstein_power(rho_pos, rho_neg, m, n):
    acc = BernsteinElt.one(n)
    base = rho_pos if m >= 0 else rho_neg
    for _ in range(abs(m)):
        acc = bernstein_mul(acc, base)
    return acc


@cache
def _y_power(n, i, e):
    base = bernstein_y(n, i) if e >= 0 else bernstein_y_inv(n, i)
    return base ** abs(e)


def from_bernstein(b):
    """Expand a normal-form element in the standard extended basis."""
    n = b.n
    out = {}
    for (perm, lam), coeff in b.terms.items():
        acc = HeckeElt.from_term(perm, coeff)
        for i, e in enumerate(lam, start=1):
            if e:
                acc = acc * _y_power(n, i, e)
        for key, c in acc.terms.items():
            accumulate(out, key, c)
    return HeckeElt._raw(n, out)
