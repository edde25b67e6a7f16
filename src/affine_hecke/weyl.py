"""The extended affine symmetric group in window notation.

An element w is a bijection of Z with w(i + n) = w(i) + n, stored by its
window [w(1), ..., w(n)].  The translation-free affine symmetric group is
the subgroup of shift 0; the rotation rho has window [2, ..., n+1] and
satisfies rho s_i rho^-1 = s_{i+1} with indices mod n.  Composition is
(uv)(i) = u(v(i)) throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import BadIndex, InvalidValue, RankMismatch, ShiftNonzero


@dataclass(frozen=True)
class AffinePerm:
    n: int
    window: tuple

    def __post_init__(self):
        n, w = self.n, self.window
        if n < 1 or len(w) != n:
            raise InvalidValue(f"window must have length n={n}: {w}")
        if len({v % n for v in w}) != n:
            raise InvalidValue(f"window residues mod {n} must be distinct: {w}")
        if sum(w[i] - (i + 1) for i in range(n)) % n != 0:
            raise InvalidValue(f"window shift is not integral: {w}")

    @property
    def shift(self):
        """The rho-power: (sum w(i) - i) / n."""
        return sum(self.window[i] - (i + 1) for i in range(self.n)) // self.n

    def __call__(self, i):
        r = (i - 1) % self.n
        return self.window[r] + (i - 1 - r)

    def __mul__(self, other):
        if not isinstance(other, AffinePerm):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatch(f"rank mismatch: {self.n} vs {other.n}")
        return AffinePerm(self.n, tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self):
        # w^-1(r+1) = i - n*t where w(i) = (r+1) + n*t
        inv = [0] * self.n
        for i in range(1, self.n + 1):
            v = self.window[i - 1]
            r = (v - 1) % self.n
            t = (v - 1 - r) // self.n
            inv[r] = i - self.n * t
        return AffinePerm(self.n, tuple(inv))

    def length(self):
        """Coxeter length of the translation-free part; 0 on rho-powers."""
        n, w = self.n, self.window
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total += abs((w[j] - w[i]) // n)
        return total

    def right_descents(self):
        """Indices i with l(w s_i) < l(w)."""
        out = set()
        for i in range(1, self.n):
            if self.window[i - 1] > self.window[i]:
                out.add(i)
        if self.n >= 2 and self.window[-1] - self.n > self.window[0]:
            out.add(0)
        return out

    def is_identity(self):
        return self.window == tuple(range(1, self.n + 1))

    def is_finite(self):
        """True for permutations of {1, ..., n}."""
        return sorted(self.window) == list(range(1, self.n + 1))

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

    def __str__(self):
        rex = canonical_rex(self)
        parts = []
        if rex.m:
            parts.append("rho" if rex.m == 1 else f"rho^{rex.m}")
        parts.extend(f"s_{i}" for i in rex.word)
        return " * ".join(parts) if parts else "e"

    def to_json(self):
        return {"n": self.n, "window": list(self.window)}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["n"]), tuple(int(v) for v in data["window"]))


@dataclass(frozen=True)
class ReducedExpr:
    m: int
    word: tuple


# The one memo of to_rex.  The method itself stays undecorated, so that a
# profiler (perfbench/layers.py) can find its code object.
canonical_rex = cache(AffinePerm.to_rex)


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
    u, recurse on (us, ws), else on (u, ws).
    """
    if u.n != w.n:
        raise RankMismatch(f"rank mismatch: {u.n} vs {w.n}")
    if u.shift or w.shift:
        raise ShiftNonzero("Bruhat order is only defined at shift 0")
    while True:
        dw = w.right_descents()
        if not dw:
            return u.is_identity()
        if u.length() > w.length():
            return False
        i = min(dw)
        s = simple(w.n, i)
        w = w * s
        if i in u.right_descents():
            u = u * s
