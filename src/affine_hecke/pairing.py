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

from dataclasses import dataclass

from .hecke import form, inverse_word, kl_to_std, word_elt
from .laurent import LaurentPoly


def y_class(r, s):
    """The class (rho T_1)^r (T_1^-1 rho)^s in rank 2."""
    a, b = (("rho", 1), (1, 1)), ((1, -1), ("rho", 1))  # rho T_1 and T_1^-1 rho
    left = (a if r >= 0 else inverse_word(a)) * abs(r)
    right = (b if s >= 0 else inverse_word(b)) * abs(s)
    return word_elt(2, left + right)


@dataclass(frozen=True)
class GradedRank:
    """A form value interpreted as the graded rank of a hom space."""

    poly: LaurentPoly

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
