"""Bernstein normal form: finite Hecke part left, y-monomials right.

An element is a finite combination of T_w y^lambda with w a permutation of
{1..n} and lambda an integer exponent vector.  The straightening move is
derived from the single relation T_i^-1 y_i T_i^-1 = y_{i+1} together with
y-commutativity and T_i y_j = y_j T_i for j outside {i, i+1}:

    T_i y^lambda = y^{s_i lambda} T_i + (q - q^-1) * correction,

where the correction is (y_i y_{i+1})^b times the exact geometric quotient
-z (z^c - 1)/(z - 1) evaluated at z = y_i / y_{i+1}, for lambda restricted
to slots (i, i+1) = (a, b) and c = a - b.  The quotient is the sum
z^0 + ... + z^(c-1) for c > 0 and -(z^c + ... + z^-1) for c < 0; the tests
compare these terms with exact Laurent division.  The product (_term_mul)
is the one place the move is written; bl_commute is the product y^lambda T_i.
"""

from __future__ import annotations

from functools import cache, partial

from .errors import RankMismatch
from .hecke import HeckeElt, _mul_terms_simple, fold_word, inverse_word, rex_word, word_elt
from .laurent import ONE, Q, QINV, Combination, LaurentPoly, accumulate, linear
from .parabolic import y_word
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
    def y_monomial(cls, n, lam):
        return cls(n, {(identity(n), tuple(lam)): ONE})

    @classmethod
    def t_term(cls, perm, lam=None):
        lam = tuple(lam) if lam is not None else (0,) * perm.n
        return cls(perm.n, {(perm, lam): ONE})

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
    # (z^c - 1)/(z - 1) at z = y_i/y_{i+1} is the sum of z^e, 0 <= e < c, for
    # c > 0 and of -z^e, c <= e < 0, for c < 0; each term gets -(q - q^-1)
    exponents, coeff = (range(c), QINV - Q) if c > 0 else (range(c, 0), Q - QINV)
    # -z * z^e * (y_i y_{i+1})^b * y_{i+1}^c  ->  y_i^{e+1+b} y_{i+1}^{b+c-e-1}
    return [((*lam[:i - 1], e + 1 + b, b + c - e - 1, *lam[i + 1:]), coeff) for e in exponents]


def bl_commute(n, i, lam):
    """Normal form of y^lam T_i, the product bernstein_mul(y^lam, T_i):
    y^lam T_i = T_i y^{s_i lam} - correction(s_i lam)."""
    return bernstein_mul(BernsteinElt.y_monomial(n, lam), BernsteinElt.t_term(simple(n, i)))


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
        for w2, c2 in _mul_terms_simple({w1: c1}, (i, 1)).items():
            stack.append((w2, swapped, v_rest, c2))
        for lam2, corr in _correction_monomials(n, i, swapped):
            stack.append((w1, lam2, v_rest, -(c1 * corr)))


def bernstein_mul(a, b):
    """Product in normal form."""
    n = a._join(b)  # raises RankMismatch
    out = {}
    for (w, lam), c1 in a.terms.items():
        for (v, mu), c2 in b.terms.items():
            _term_mul(n, w, lam, v, mu, c1 * c2, out)
    return BernsteinElt._raw(n, out)


# ---------------------------------------------------------------------------
# conversion to and from the standard extended basis

def _finite_letter(n, g, e):
    """Normal form of T_g^e for 1 <= g <= n-1."""
    t = BernsteinElt.t_term(simple(n, g))
    return t if e == 1 else t + BernsteinElt.one(n).scale(Q - QINV)


@cache
def _rho_images(n):
    """Normal forms of rho = y_1 T_1^-1 ... T_{n-1}^-1, of
    rho^-1 = T_{n-1} ... T_1 y_1^-1 and of T_0 = rho T_{n-1} rho^-1."""
    y_1, y_1_inv = (BernsteinElt.y_monomial(n, (e,) + (0,) * (n - 1)) for e in (1, -1))
    down = tuple((j, -1) for j in range(1, n))

    def fin(word):
        return fold_word(word, partial(_finite_letter, n), bernstein_mul, partial(BernsteinElt.one, n))

    rho_pos, rho_neg = bernstein_mul(y_1, fin(down)), bernstein_mul(fin(inverse_word(down)), y_1_inv)
    if n == 1:
        return rho_pos, rho_neg, None
    return rho_pos, rho_neg, bernstein_mul(bernstein_mul(rho_pos, _finite_letter(n, n - 1, 1)), rho_neg)


def to_bernstein(elt):
    """Rewrite a standard-basis element in Bernstein normal form."""
    n = elt.n
    rho_pos, rho_neg, t0 = _rho_images(n)

    def letter(g, e):
        if g == "rho":
            return rho_pos if e == 1 else rho_neg
        return t0 if g == 0 else _finite_letter(n, g, e)

    def image(perm):
        return fold_word(rex_word(canonical_rex(perm)), letter, bernstein_mul, partial(BernsteinElt.one, n)).items()

    return BernsteinElt._raw(n, linear(elt.terms.items(), image))


def from_bernstein(b):
    """Expand a normal-form element in the standard extended basis: T_w y^lambda
    is the element of one word, that of w followed by |lambda_i| copies of the
    word of y_i (parabolic.y_word) for each i, or of its inverse if lambda_i < 0."""
    n = b.n

    def image(key):
        perm, lam = key
        ys = ((y_word(n, i) if e > 0 else inverse_word(y_word(n, i))) * abs(e) for i, e in enumerate(lam, 1))
        return word_elt(n, sum(ys, rex_word(canonical_rex(perm)))).items()

    return HeckeElt._raw(n, linear(b.terms.items(), image))
