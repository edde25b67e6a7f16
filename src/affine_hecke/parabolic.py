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
homomorphism.  Images of arbitrary elements are computed on demand by
folding canonical reduced expressions through the generator images; the
rank-1 sources have only rho-powers, so their elements fold with empty
words.

The Bernstein generators are

    y_1 = rho T_{n-1} ... T_1,
    y_i = T_{i-1}^-1 ... T_1^-1 rho T_{n-1} ... T_i,

with y_n ending in the bare rho; they commute pairwise and satisfy
T_i^-1 y_i T_i^-1 = y_{i+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BadIndex, ShiftNonzero
from .hecke import HeckeElt, rho_gen, t_gen, t_inv_gen
from .laurent import accumulate
from .weyl import AffinePerm, canonical_rex, identity


@dataclass(frozen=True)
class ParabolicContext:
    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise BadIndex(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")


def _chain(n, factors):
    out = HeckeElt.one(n)
    for f in factors:
        out = out * f
    return out


def psi_left_rho(ctx):
    """Image of the left source rotation: rho T_{n-1} ... T_k."""
    n, k = ctx.n, ctx.k
    return _chain(n, [rho_gen(n)] + [t_gen(n, j) for j in range(n - 1, k - 1, -1)])


def psi_left_t0(ctx):
    """Image of the left source T_0: T_k^-1 ... T_{n-1}^-1 T_0 T_{n-1} ... T_k."""
    n, k = ctx.n, ctx.k
    return _chain(
        n,
        [t_inv_gen(n, j) for j in range(k, n)]
        + [t_gen(n, 0)]
        + [t_gen(n, j) for j in range(n - 1, k - 1, -1)],
    )


def psi_right_rho(ctx):
    """Image of the right source rotation: T_k^-1 ... T_1^-1 rho."""
    n, k = ctx.n, ctx.k
    return _chain(n, [t_inv_gen(n, j) for j in range(k, 0, -1)] + [rho_gen(n)])


def psi_right_t0(ctx):
    """Image of the right source T_0: T_0 ... T_{k-1} T_k T_{k-1}^-1 ... T_0^-1."""
    n, k = ctx.n, ctx.k
    return _chain(
        n,
        [t_gen(n, j) for j in range(0, k)]
        + [t_gen(n, k)]
        + [t_inv_gen(n, j) for j in range(k - 1, -1, -1)],
    )


def _psi_on_element(elt, rho_image, rho_inv_image, t_images):
    """Fold every standard term rho^m T_w of the source through the images."""
    out = {}
    for perm, coeff in elt.terms.items():
        rex = canonical_rex(perm)
        img = rho_image**rex.m if rex.m >= 0 else rho_inv_image ** (-rex.m)
        for i in rex.word:
            img = img * t_images[i]
        for key, c in img.terms.items():
            accumulate(out, key, c * coeff)
    return HeckeElt._raw(rho_image.n, out)


def psi_L(ctx, elt):
    """Image of an element of the rank-k extended affine Hecke algebra."""
    n, k = ctx.n, ctx.k
    if elt.n != k:
        raise BadIndex(f"psi_L source must have rank k={k}, got {elt.n}")
    t_images = {i: t_gen(n, i) for i in range(1, k)}
    t_images[0] = psi_left_t0(ctx)
    rho_img = psi_left_rho(ctx)  # a single standard term, invertible in place
    return _psi_on_element(elt, rho_img, rho_img.inverse(), t_images)


def psi_R(ctx, elt):
    """Image of an element of the rank-(n-k) extended affine Hecke algebra."""
    n, k = ctx.n, ctx.k
    if elt.n != n - k:
        raise BadIndex(f"psi_R source must have rank n-k={n - k}, got {elt.n}")
    t_images = {j: t_gen(n, k + j) for j in range(1, n - k)}
    t_images[0] = psi_right_t0(ctx)
    # the rotation image has several standard terms, so its inverse comes
    # from the reversed factor list rho^-1 T_1 ... T_k
    rho_inv_img = _chain(n, [rho_gen(n, -1)] + [t_gen(n, j) for j in range(1, k + 1)])
    return _psi_on_element(elt, psi_right_rho(ctx), rho_inv_img, t_images)


def psi(ctx, a, b):
    """psi_{k,n-k}(a (x) b) = psi_L(a) psi_R(b)."""
    return psi_L(ctx, a) * psi_R(ctx, b)


def psi_rho_pair(ctx):
    """Closed form of psi(rho_L (x) rho_R):
    rho T_{n-1} ... T_{k+1} T_{k-1}^-1 ... T_1^-1 rho."""
    n, k = ctx.n, ctx.k
    return _chain(
        n,
        [rho_gen(n)]
        + [t_gen(n, j) for j in range(n - 1, k, -1)]
        + [t_inv_gen(n, j) for j in range(k - 1, 0, -1)]
        + [rho_gen(n)],
    )


def bernstein_y(n, i):
    """The commuting Bernstein generator y_i inside the rank-n algebra."""
    if not 1 <= i <= n:
        raise BadIndex(f"y_{i} needs 1 <= i <= n={n}")
    return _chain(
        n,
        [t_inv_gen(n, j) for j in range(i - 1, 0, -1)]
        + [rho_gen(n)]
        + [t_gen(n, j) for j in range(n - 1, i - 1, -1)],
    )


def bernstein_y_inv(n, i):
    """y_i^-1 from the reversed factor list."""
    if not 1 <= i <= n:
        raise BadIndex(f"y_{i} needs 1 <= i <= n={n}")
    return _chain(
        n,
        [t_inv_gen(n, j) for j in range(i, n)]
        + [rho_gen(n, -1)]
        + [t_gen(n, j) for j in range(1, i)],
    )


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


def coset_decompose(w, k):
    """Write a finite permutation as w = x u with x a minimal coset
    representative and u in S_k x S_{n-k}; the lengths add."""
    if not w.is_finite():
        raise ShiftNonzero(f"coset decomposition needs a permutation of 1..n: {w.window}")
    n = w.n
    x_window = tuple(sorted(w.window[:k])) + tuple(sorted(w.window[k:]))
    x = AffinePerm(n, x_window)
    u = x.inverse() * w
    return x, u


def split_parabolic_factor(u, k):
    """Split u in S_k x S_{n-k} into its two block permutations."""
    n = u.n
    left = AffinePerm(k, u.window[:k]) if k >= 1 else identity(1)
    right_window = tuple(v - k for v in u.window[k:])
    right = AffinePerm(n - k, right_window) if n - k >= 1 else identity(1)
    return left, right
