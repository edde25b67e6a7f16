"""Parabolic embeddings of Hecke algebras and coset combinatorics.

For 1 <= k <= n-1 there is a commuting pair of unital embeddings
psi_L: H_k -> H_n and psi_R: H_{n-k} -> H_n (ranks refer to the extended
affine algebras).  On generators:

    psi_L(T_i)   = T_i                                   (1 <= i <= k-1)
    psi_L(rho_L) = rho T_{n-1} ... T_k
    psi_L(T_0)   = T_k^-1 ... T_{n-1}^-1 T_0 T_{n-1} ... T_k
    psi_R(T_j)   = T_{k+j}                               (1 <= j <= n-k-1)
    psi_R(rho_R) = T_k^-1 ... T_1^-1 rho
    psi_R(T_0)   = T_0 ... T_{k-1} T_k T_{k-1}^-1 ... T_0^-1

The combined map psi(a (x) b) = psi_L(a) psi_R(b) is an algebra
homomorphism.  The generator images are words in the sense of
hecke.fold_word, and rho^-1 goes to the inverse word of the image of rho.
Images of arbitrary elements are computed on demand by folding the word
of each term's canonical reduced expression through the generator images;
the rank-1 sources have only rho-powers, so their words have no T letters.

The Bernstein generators are the words y_word(n, i),

    y_1 = rho T_{n-1} ... T_1,
    y_i = T_{i-1}^-1 ... T_1^-1 rho T_{n-1} ... T_i,

with y_n ending in the bare rho; they commute pairwise and satisfy
T_i^-1 y_i T_i^-1 = y_{i+1}.  y_i^-1 is the element of the inverse word.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations

from .errors import BadIndex, Record
from .hecke import HeckeElt, fold_word, inverse_word, rex_word, word_elt
from .laurent import linear
from .weyl import AffinePerm, canonical_rex


class ParabolicContext(Record):
    __slots__ = ("n", "k")

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise BadIndex(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")


def _left_images(ctx):
    """psi_L's generator images as words, keyed by source index or "rho"."""
    n, k = ctx.n, ctx.k
    down = tuple((j, 1) for j in range(n - 1, k - 1, -1))  # T_{n-1} ... T_k
    return {
        "rho": (("rho", 1),) + down,
        0: inverse_word(down) + ((0, 1),) + down,
        **{i: ((i, 1),) for i in range(1, k)},
    }


def _right_images(ctx):
    """psi_R's generator images as words, keyed by source index or "rho"."""
    n, k = ctx.n, ctx.k
    up = tuple((j, 1) for j in range(k))  # T_0 ... T_{k-1}
    return {
        "rho": tuple((j, -1) for j in range(k, 0, -1)) + (("rho", 1),),
        0: up + ((k, 1),) + inverse_word(up),
        **{j: ((k + j, 1),) for j in range(1, n - k)},
    }


def _psi_on_element(n, images, elt):
    """Fold every standard term rho^m T_w of the source through the images;
    the image of rho^-1 is the inverse word of the image of rho."""

    @cache
    def letter(g, e):
        return word_elt(n, images[g] if e == 1 else inverse_word(images[g]))

    def image(perm):
        return fold_word(rex_word(canonical_rex(perm)), letter, HeckeElt.__mul__, partial(HeckeElt.one, n)).items()

    return HeckeElt._raw(n, linear(elt.terms.items(), image))


def psi_L(ctx, elt):
    """Image of an element of the rank-k extended affine Hecke algebra."""
    if elt.n != ctx.k:
        raise BadIndex(f"psi_L source must have rank k={ctx.k}, got {elt.n}")
    return _psi_on_element(ctx.n, _left_images(ctx), elt)


def psi_R(ctx, elt):
    """Image of an element of the rank-(n-k) extended affine Hecke algebra."""
    if elt.n != ctx.n - ctx.k:
        raise BadIndex(f"psi_R source must have rank n-k={ctx.n - ctx.k}, got {elt.n}")
    return _psi_on_element(ctx.n, _right_images(ctx), elt)


def psi(ctx, a, b):
    """psi_{k,n-k}(a (x) b) = psi_L(a) psi_R(b)."""
    return psi_L(ctx, a) * psi_R(ctx, b)


def psi_rho_pair(ctx):
    """Closed form of psi(rho_L (x) rho_R):
    rho T_{n-1} ... T_{k+1} T_{k-1}^-1 ... T_1^-1 rho."""
    n, k = ctx.n, ctx.k
    middle = tuple((j, 1) for j in range(n - 1, k, -1)) + tuple((j, -1) for j in range(k - 1, 0, -1))
    return word_elt(n, (("rho", 1),) + middle + (("rho", 1),))


def y_word(n, i):
    """The word of y_i: T_{i-1}^-1 ... T_1^-1 rho T_{n-1} ... T_i."""
    if not 1 <= i <= n:
        raise BadIndex(f"y_{i} needs 1 <= i <= n={n}")
    down = tuple((j, 1) for j in range(n - 1, i - 1, -1))
    return tuple((j, -1) for j in range(i - 1, 0, -1)) + (("rho", 1),) + down


def bernstein_y(n, i):
    """The commuting Bernstein generator y_i inside the rank-n algebra."""
    return word_elt(n, y_word(n, i))


def bernstein_y_inv(n, i):
    """y_i^-1, the element of the inverse word of y_i."""
    return word_elt(n, inverse_word(y_word(n, i)))


# ---------------------------------------------------------------------------
# minimal coset representatives for S_k x S_{n-k} inside S_n

def min_coset_reps(n, k):
    """The binom(n, k) shortest representatives of the cosets w(S_k x S_{n-k}),
    i.e. the window permutations increasing on both blocks, sorted by length
    then window."""
    values = range(1, n + 1)
    reps = []
    for left in combinations(values, k):
        right = tuple(v for v in values if v not in left)
        reps.append(AffinePerm(n, left + right))
    reps.sort(key=lambda w: (w.length(), w.window))
    return reps
