"""Elements of the extended affine Hecke algebra in the standard basis.

An element is a finite Z[q,q^-1]-combination of basis elements rho^m T_w,
keyed by the extended affine permutation rho^m w.  The defining relations
are

    (T_i + q)(T_i - q^-1) = 0,   rho T_i rho^-1 = T_{i+1},

with braid and distant-commutation relations for n >= 3, so that
T_i^-1 = T_i + (q - q^-1) and the Kazhdan-Lusztig generator is
b_i = T_i + q with b_i^2 = [2] b_i.

Multiplication folds the right factor's canonical reduced expression
through the rule T_g T_i = T_{g s_i} (ascent) or T_{g s_i} + (q^-1 - q) T_g
(descent); basis-pair products are memoized.

For n = 2 every translation-free element has a unique reduced expression,
an alternating binary word, and the KL basis layer (kl_to_std, std_to_kl,
kl_mul_closed) is available in closed form.  There u <= w iff l(u) < l(w)
or u = w, so std_to_kl is one O(#terms + length) suffix sum per rho-shift.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadIndex, RankMismatch, RankUnsupported
from .laurent import ONE, Q, Q2, QINV, ZERO, Combination, LaurentPoly, accumulate
from .weyl import ReducedExpr, from_rex, identity, rho, simple

_DESC = QINV - Q  # q^-1 - q, the descent correction
_NEG_Q = -Q


class HeckeElt(Combination):
    """A combination of basis elements rho^m T_w, keyed by rho^m w."""

    __slots__ = ()

    def _key(self, perm):
        if perm.n != self.n:
            raise RankMismatch(f"term of rank {perm.n} in rank-{self.n} element")
        return perm

    @classmethod
    def one(cls, n):
        return cls._raw(n, {identity(n): ONE})

    @classmethod
    def from_term(cls, perm, coeff=ONE):
        return cls(perm.n, {perm: coeff})

    def support(self):
        return set(self.terms)

    def coefficient(self, perm):
        return self.terms.get(perm, ZERO)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, HeckeElt):
            return NotImplemented
        self._join(other)  # raises RankMismatch
        out = {}
        for y, d in other.terms.items():
            for perm, c in _basis_product(self.n, tuple(self.terms.items()), y).items():
                accumulate(out, perm, c * d)
        return HeckeElt._raw(self.n, out)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = HeckeElt.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Inverse of a single-term element c * rho^m T_w with c a unit."""
        if len(self.terms) != 1:
            raise ValueError("only basis multiples have a closed-form inverse")
        ((perm, coeff),) = self.terms.items()
        inv = _basis_inverse(perm)
        return HeckeElt._raw(self.n, dict(inv)).scale(coeff.unit_inverse())

    def omega(self):
        """The q-antilinear antiinvolution: rho -> rho^-1, T_w -> T_w^-1."""
        out = {}
        for perm, coeff in self.terms.items():
            c = coeff.bar()
            for p2, c2 in _basis_inverse(perm).items():
                accumulate(out, p2, c * c2)
        return HeckeElt._raw(self.n, out)

    def trace(self):
        """Coefficient of the identity basis element rho^0 T_e."""
        return self.terms.get(identity(self.n), ZERO)

    def reduce_rho_squared(self):
        """Post-pass rho^2 -> 1: fold every rho-shift into {0, 1}."""
        out = {}
        for perm, coeff in self.terms.items():
            m = perm.shift
            accumulate(out, rho(self.n, (m % 2) - m) * perm, coeff)
        return HeckeElt._raw(self.n, out)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))


def t_gen(n, i):
    """The standard generator T_i."""
    return HeckeElt.from_term(simple(n, i))


def t_inv_gen(n, i):
    """T_i^-1 = T_i + (q - q^-1)."""
    return HeckeElt(n, {simple(n, i): ONE, identity(n): Q - QINV})


def rho_gen(n, m=1):
    """The invertible rotation generator rho^m."""
    return HeckeElt.from_term(rho(n, m))


def b_gen(n, i):
    """The Kazhdan-Lusztig generator b_i = T_i + q."""
    return HeckeElt(n, {simple(n, i): ONE, identity(n): Q})


def bott_samelson(n, word):
    """Product b_{i_1} ... b_{i_l}, defined for every rank."""
    out = HeckeElt.one(n)
    for i in word:
        out = out * b_gen(n, i)
    return out


# ---------------------------------------------------------------------------
# basis-level multiplication with memoization

_REX_CACHE = {}
_PROD_CACHE = {}
_INV_CACHE = {}


def _rex(perm):
    r = _REX_CACHE.get(perm)
    if r is None:
        r = perm.to_rex()
        _REX_CACHE[perm] = r
    return r


def _mul_terms_simple(n, terms, i):
    """Multiply a term dict on the right by T_i."""
    s = simple(n, i)
    out = {}
    for g, c in terms.items():
        gs = g * s
        accumulate(out, gs, c)
        if gs.length() < g.length():
            accumulate(out, g, c * _DESC)
    return out


def _basis_pair_product(x, y):
    """Product of basis elements E_x * E_y as a term dict."""
    key = (x, y)
    cached = _PROD_CACHE.get(key)
    if cached is None:
        m, word = _rex(y).m, _rex(y).word
        start = x * rho(x.n, m)
        cached = {start: ONE}
        for i in word:
            cached = _mul_terms_simple(x.n, cached, i)
        _PROD_CACHE[key] = cached
    return cached


def _basis_product(n, left_items, y):
    """Product (sum of left terms) * E_y as a term dict."""
    out = {}
    for x, c in left_items:
        for perm, c2 in _basis_pair_product(x, y).items():
            accumulate(out, perm, c * c2)
    return out


def _basis_inverse(perm):
    """Expansion of (rho^m T_w)^-1 = T_w^-1 rho^-m as a term dict."""
    cached = _INV_CACHE.get(perm)
    if cached is None:
        n = perm.n
        rex = _rex(perm)
        terms = {identity(n): ONE}
        for i in reversed(rex.word):
            # right-multiply by T_i^-1 = T_i + (q - q^-1)
            body = _mul_terms_simple(n, terms, i)
            for g, c in terms.items():
                accumulate(body, g, c * (Q - QINV))
            terms = body
        shift = rho(n, -rex.m)
        cached = {g * shift: c for g, c in terms.items()}
        _INV_CACHE[perm] = cached
    return cached


def form(x, y):
    """The sesquilinear form (x, y) = trace(omega(x) * y).

    Uses the dual-basis property trace(E_g E_h) = delta_{g, h^-1}, which
    the test suite verifies against the full multiplication fold.
    """
    if x.n != y.n:
        raise RankMismatch(f"rank mismatch: {x.n} vs {y.n}")
    return form_with_omega(x.omega(), y)


def form_with_omega(omega_x, y):
    """The form value given an already-computed omega(x); for sweeps."""
    total = ZERO
    for h, d in y.terms.items():
        c = omega_x.terms.get(h.inverse())
        if c is not None:
            total = total + c * d
    return total


# ---------------------------------------------------------------------------
# the Kazhdan-Lusztig layer for n = 2

@dataclass(frozen=True)
class KLLabel:
    """Label rho^m b_w for n = 2, with w the unique alternating rex of its
    translation-free part."""

    m: int
    word: tuple

    def __post_init__(self):
        for a, b in zip(self.word, self.word[1:]):
            if a == b:
                raise BadIndex(f"KL word must alternate: {self.word}")
        if any(i not in (0, 1) for i in self.word):
            raise BadIndex(f"KL word letters must be 0 or 1: {self.word}")

    def length(self):
        return len(self.word)

    def reversed(self):
        return KLLabel(self.m, tuple(reversed(self.word)))

    def __str__(self):
        b = "b_" + ("".join(map(str, self.word)) if self.word else "e")
        if self.m == 0:
            return b
        r = "rho" if self.m == 1 else f"rho^{self.m}"
        return f"{r}*{b}"


def alt_word(length, last=None, first=None):
    """The alternating binary word of given length fixed by its last or
    first letter; both may be given if consistent."""
    if length == 0:
        return ()
    if last is None and first is None:
        raise ValueError("fix the first or the last letter")
    if first is None:
        first = last if length % 2 else 1 - last
    word = tuple((first + k) % 2 for k in range(length))
    if last is not None and word[-1] != last:
        raise ValueError(f"no alternating word of length {length} from {first} to {last}")
    return word


def _require_n2(n):
    if n != 2:
        raise RankUnsupported(f"KL-basis layer is closed-form for n = 2 only, got n = {n}")


_KL_STD_CACHE = {}


def kl_to_std(label, n=2):
    """Expand rho^m b_w in the standard basis:
    b_w = sum over u below w of q^(l(w) - l(u)) T_u."""
    _require_n2(n)
    cached = _KL_STD_CACHE.get(label)
    if cached is None:
        top = label.length()
        lower = [u for k in range(top) for u in _alt_words(k)] + [label.word]
        shift = rho(2, label.m)
        cached = {
            shift * from_rex(ReducedExpr(0, u), 2): LaurentPoly.q_power(top - len(u)) for u in lower
        }
        _KL_STD_CACHE[label] = cached
    # a copy, so that a caller mutating the result cannot corrupt the memo
    return HeckeElt._raw(2, dict(cached))


def _alt_words(k):
    """The alternating words of length k: two for k > 0, the empty word at 0."""
    return (alt_word(k, first=0), alt_word(k, first=1)) if k else ((),)


def std_to_kl(elt):
    """Inverse change of basis: T_w = sum over u <= w of (-q)^(l(w) - l(u)) b_u.

    At rank 2 u <= w iff l(u) < l(w) or u = w, so rho^m b_u gets
    c_{m,u} + t_m(l(u)), where t_m(k) sums c_{m,w} (-q)^(l(w) - k) over
    l(w) > k.  One walk down the lengths, t_m(top) = 0 and
    t_m(k-1) = -q (t_m(k) + A_m(k)) with A_m(k) the shift-m coefficient sum
    at length k, costs O(#terms + length) Laurent operations and labels.
    Returns a dict KLLabel -> LaurentPoly with no zero entries.
    """
    _require_n2(elt.n)
    by_shift = {}
    for perm, coeff in elt.terms.items():
        rex = _rex(perm)
        by_shift.setdefault(rex.m, {})[rex.word] = coeff
    out = {}
    for m, own in by_shift.items():
        top = max(map(len, own))
        level = [ZERO] * (top + 1)
        for word, coeff in own.items():
            level[len(word)] = level[len(word)] + coeff
        tail = ZERO
        for k in range(top, -1, -1):
            for word in _alt_words(k):
                coeff = own.get(word)
                coeff = tail if coeff is None else coeff + tail
                if coeff:
                    out[KLLabel(m, word)] = coeff
            tail = (tail + level[k]) * _NEG_Q
    return out


def kl_mul_closed(a, b):
    """Closed-form product of KL basis elements for n = 2.

    The translation parts combine by rho^c b_w = b_{w with letters flipped c
    times} rho^c; the word product follows the junction rule: equal letters
    at the junction give [2] times a ladder with steps of two, different
    letters give a 1,2,...,2,1 ladder whose bottom constant term drops when
    the lengths agree.  Returns a dict KLLabel -> LaurentPoly.
    """
    # move b's rho-part to the front: b_X rho^c = rho^c b_{flip^c X}
    c = b.m
    flipped = tuple((x + c) % 2 for x in a.word)
    m_total = a.m + c
    out = {}
    for word, mult in _kl_word_product(flipped, b.word).items():
        accumulate(out, KLLabel(m_total, word), mult)
    return out


def _kl_word_product(p, r):
    """Product b_P b_R of translation-free KL elements as word -> coefficient."""
    if not p:
        return {r: ONE}
    if not r:
        return {p: ONE}
    m, nn = len(p), len(r)
    first = p[0]
    out = {}
    if p[-1] == r[0]:
        # equal junction: [2] ladder from |m-n|+1 up to m+n-1
        for t in range(abs(m - nn) + 1, m + nn, 2):
            out[alt_word(t, first=first)] = Q2
    else:
        if m == nn:
            # top coefficient 1, then 2 down to length 2; no constant term
            for t in range(2, m + nn + 1, 2):
                out[alt_word(t, first=first)] = ONE if t == m + nn else LaurentPoly.const(2)
        else:
            for t in range(abs(m - nn), m + nn + 1, 2):
                one_end = t in (abs(m - nn), m + nn)
                out[alt_word(t, first=first)] = ONE if one_end else LaurentPoly.const(2)
    return out


def kl_combo_to_std(combo, n=2):
    """Expand a dict KLLabel -> LaurentPoly in the standard basis."""
    _require_n2(n)
    out = {}
    for label, coeff in combo.items():
        for perm, c in kl_to_std(label).items():
            accumulate(out, perm, c * coeff)
    return HeckeElt._raw(2, out)
