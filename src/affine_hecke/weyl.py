"""The extended affine symmetric group in window notation.

An element w is a bijection of Z with w(i + n) = w(i) + n, stored by its
window [w(1), ..., w(n)].  The translation-free affine symmetric group is
the subgroup of shift 0; the rotation rho has window [2, ..., n+1] and
satisfies rho s_i rho^-1 = s_{i+1} with indices mod n.  Composition is
(uv)(i) = u(v(i)) throughout the package.
"""

from __future__ import annotations

from functools import cache

from .errors import BadIndex, Interned, InvalidValue, RankMismatch, Record, ShiftNonzero


class AffinePerm(Interned, Record):
    # hash-consed: dict lookups (about 700 hash and == per rank2_kl benchmark
    # op) run no Python; the table keeps every permutation ever built, about
    # 165 after 15 000 such ops
    __slots__ = ("n", "window")
    _kinds, _kind_error = (int, tuple), InvalidValue

    def __post_init__(self):
        n, w = self.n, self.window
        if n < 1 or len(w) != n:
            raise InvalidValue(f"window must be a tuple of length n={n}: {w}")
        if len({v % n for v in w}) != n:
            raise InvalidValue(f"window residues mod {n} must be distinct: {w}")

    @property
    def shift(self):
        """The rho-power: (sum w(i) - i) / n, exact since distinct residues
        sum to n(n-1)/2 mod n, as the i do."""
        return sum(self.window[i] - (i + 1) for i in range(self.n)) // self.n

    def __call__(self, i):
        r = (i - 1) % self.n
        return self.window[r] + (i - 1 - r)

    def __mul__(self, other):
        if not isinstance(other, AffinePerm):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatch(f"rank mismatch: {self.n} vs {other.n}")
        return AffinePerm._intern((self.n, tuple(self(other(i)) for i in range(1, self.n + 1))))

    def inverse(self):
        return _inverse(self)

    def length(self):
        """Coxeter length of the translation-free part; 0 on rho-powers."""
        n, w = self.n, self.window
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total += abs((w[j] - w[i]) // n)
        return total

    def has_descent(self, i):
        """l(w s_i) < l(w), read off the window: w(i) > w(i+1), w(0) = w(n) - n."""
        return self(i) > self(i + 1)

    def right_descents(self):
        """Indices i with l(w s_i) < l(w)."""
        return {i for i in range(self.n) if self.has_descent(i)}

    def is_identity(self):
        return self.window == tuple(range(1, self.n + 1))

    def to_rex(self):
        """Canonical reduced expression, greedy on the smallest right descent."""
        m = self.shift
        v = rho(self.n, -m) * self
        rev = []
        while True:
            ds = v.right_descents()
            if not ds:
                break
            i = min(ds)
            v = v * simple(self.n, i)
            rev.append(i)
        return ReducedExpr(m, tuple(reversed(rev)))

    def to_json(self):
        return {"n": self.n, "window": list(self.window)}

    @classmethod
    def from_json(cls, data):
        from .serialize import perm_from_json  # the strict reader; it imports this module
        return perm_from_json(data)


class ReducedExpr(Record):
    __slots__ = ("m", "word")


# The one memo of to_rex.  The method itself stays undecorated, so that a
# profiler (perfbench/layers.py) can find its code object.
canonical_rex = cache(AffinePerm.to_rex)


@cache
def _inverse(perm):
    """The inverse permutation: w^-1(r+1) = i - n*t where w(i) = (r+1) + n*t."""
    n = perm.n
    inv = [0] * n
    for i, v in enumerate(perm.window, 1):
        r = (v - 1) % n
        inv[r] = i - (v - 1 - r)
    return AffinePerm._intern((n, tuple(inv)))


def identity(n):
    return AffinePerm(n, tuple(range(1, n + 1)))


def simple(n, i):
    """The simple reflection s_i; s_0 swaps 0 and 1 (translated mod n)."""
    if n < 2 or not 0 <= i <= n - 1:
        raise BadIndex(f"no simple reflection s_{i} in rank {n}")
    w = list(range(1, n + 1))
    if i == 0:
        w[0], w[n - 1] = 0, n + 1
    else:
        w[i - 1], w[i] = i + 1, i
    return AffinePerm(n, tuple(w))


def rho(n, m=1):
    """The rotation rho^m, window [m+1, ..., m+n]."""
    return AffinePerm(n, tuple(range(m + 1, m + n + 1)))


def from_rex(rex, n):
    """Evaluate rho^m * s_{i_1} * ... * s_{i_l}; the word need not be reduced."""
    w = rho(n, rex.m)
    for i in rex.word:
        w = w * simple(n, i)
    return w


def bruhat_leq(u, w):
    """Bruhat order on the translation-free affine symmetric group.

    Standard descent recursion: pick a right descent s of w; if it descends
    u, recurse on (us, ws), else on (u, ws).  Each step lowers l(w) by one,
    and l(u) by one exactly when s descends u.
    """
    if u.n != w.n:
        raise RankMismatch(f"rank mismatch: {u.n} vs {w.n}")
    if u.shift or w.shift:
        raise ShiftNonzero("Bruhat order is only defined at shift 0")
    lu, lw = u.length(), w.length()
    while True:
        dw = w.right_descents()
        if not dw:
            return u.is_identity()
        if lu > lw:
            return False
        i = min(dw)
        s = simple(w.n, i)
        w, lw = w * s, lw - 1
        if u.has_descent(i):
            u, lu = u * s, lu - 1
