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
from .hecke import HeckeElt, form, kl_to_std
from .weyl import AffinePerm

# the largest |r| and |s| of y_class; its value is one basis element or the
# inverse of one, and printing a reduced word of up to 2 * 10^5 letters takes
# about 1-2 s at the limit on a 2-vCPU host
Y_EXPONENT_LIMIT = 10**5
# the largest length k = s - r of the one element y_class inverts when r < s,
# whose inverse has about 2k terms spanning about k powers of q, so the time
# is cubic in k, about 1.5 s at the limit (r = -75, s = 75, or r = 0, s = 150);
# when r >= s the value is one basis element and only Y_EXPONENT_LIMIT applies
Y_INVERSE_LIMIT = 150


def y_class(r, s):
    """The class (rho T_1)^r (T_1^-1 rho)^s in rank 2; InvalidValue when
    |r| or |s| is above Y_EXPONENT_LIMIT, or r < s and s - r is above
    Y_INVERSE_LIMIT."""
    if max(abs(r), abs(s)) > Y_EXPONENT_LIMIT:
        raise InvalidValue(f"yclass exponents are limited to |r|, |s| <= {Y_EXPONENT_LIMIT}, got r={r}, s={s}")
    if s - r > Y_INVERSE_LIMIT:
        raise InvalidValue(
            f"yclass inverts one element of length s - r when r < s, at most {Y_INVERSE_LIMIT}, got r={r}, s={s}"
        )
    # y_1 = rho T_1 and y_2 = T_1^-1 rho commute with y_1 y_2 = rho^2 central,
    # so y_1^r y_2^s is y_1^(r-s) rho^2s or (rho^-2r (rho^-1 T_1)^(s-r))^-1,
    # and each of those is one basis element
    if r >= s:
        return HeckeElt.from_term(AffinePerm(2, (2 * r + 1, 2 * s + 2)))
    return HeckeElt.from_term(AffinePerm(2, (1 - 2 * r, 2 - 2 * s))).inverse()


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
