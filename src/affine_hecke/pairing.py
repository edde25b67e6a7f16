"""Grothendieck-level pairing data: braid-group classes, the commuting
Y^{r,s} family and graded hom ranks via the sesquilinear form.

Only Euler-characteristic data is computed here: the form of two KL
classes is the graded rank of the corresponding hom space, and the classes
of the braid lifts are T_i = b_i - q and T_i^-1 = b_i - q^-1, so a
braid-group class is the element hecke.word_elt of its word.  The family
Y^{r,s} = (rho T_1)^r (T_1^-1 rho)^s lives at rho-shift r + s, so it pairs
to zero against anything concentrated at a different shift.
"""

from __future__ import annotations

from .errors import InvalidValue, Record
from .hecke import form, inverse_word, kl_to_std, word_elt

# the largest |r| and |s| of y_class: its word of 2(|r| + |s|) letters is
# folded letter by letter, about 7 s at the limit on a 2-vCPU host
Y_EXPONENT_LIMIT = 10**5
# the largest number of T_1^-1 letters, one per unit of r < 0 and of s > 0:
# k of them expand into about 2k terms whose coefficients span about k
# powers of q, so the fold is cubic in k, about 5 s at the limit (r = -75,
# s = 75, or r = 1, s = 150) on a 2-vCPU host
Y_INVERSE_LIMIT = 150


def y_class(r, s):
    """The class (rho T_1)^r (T_1^-1 rho)^s in rank 2; InvalidValue when
    |r| or |s| is above Y_EXPONENT_LIMIT, or max(-r, 0) + max(s, 0) above
    Y_INVERSE_LIMIT."""
    if max(abs(r), abs(s)) > Y_EXPONENT_LIMIT:
        raise InvalidValue(f"yclass exponents are limited to |r|, |s| <= {Y_EXPONENT_LIMIT}, got r={r}, s={s}")
    if max(-r, 0) + max(s, 0) > Y_INVERSE_LIMIT:
        raise InvalidValue(
            f"yclass takes at most {Y_INVERSE_LIMIT} letters T_1^-1, one per unit of a negative r "
            f"and of a positive s, got r={r}, s={s}"
        )
    a, b = (("rho", 1), (1, 1)), ((1, -1), ("rho", 1))  # rho T_1 and T_1^-1 rho
    left = (a if r >= 0 else inverse_word(a)) * abs(r)
    right = (b if s >= 0 else inverse_word(b)) * abs(s)
    return word_elt(2, left + right)


class GradedRank(Record):
    """A form value interpreted as the graded rank of a hom space."""

    __slots__ = ("poly",)

    def is_nonnegative(self):
        return all(v >= 0 for _, v in self.poly.items())

    def __str__(self):
        return str(self.poly)


def graded_hom_rank(u, v):
    """Form value of two KL classes (rank 2)."""
    return GradedRank(form(kl_to_std(u), kl_to_std(v)))


def euler_pair(x, y):
    """The form on arbitrary classes (signed Euler characteristic shadow)."""
    return form(x, y)
