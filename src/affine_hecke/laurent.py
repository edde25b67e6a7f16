"""Exact Laurent polynomials in one variable q over Python integers.

This ring Z[q, q^-1] is the coefficient ring for everything else in the
package.  Rational specializations use ``fractions.Fraction``.

A polynomial is Kronecker-packed (Harvey, J. Symbolic Comput. 44, 2009):
its valuation v and one Python int N = sum c_e 2^(64 (e - v)), whose
balanced base-2^64 digits are the coefficients, together with a bound h on
the largest |c_e| and the span s = degree - v + 1.  A product is then one
big-int product and a sum one shifted add.  The digits decode uniquely
only while every |c_e| stays below 2^62, so each result is bounded before
it is computed: h_a h_b min(s_a, s_b) for a product, h_a + h_b for a sum.
A value with a coefficient of 2^62 or more, or with a span above
``SPAN_CAP``, keeps an exponent -> int dict instead, and an operation whose
result could pass either limit runs the dict routines.  The cap exists
because N has 64 s bits however few terms there are: q^1000000000 + 1
would need a 64-Gbit int.
Which form a value has depends only on the value, so equality compares
(v, N) or the dicts, and a constant hashes as its int.

Every other value of the package is a finite combination over this ring:
``accumulate`` is the one add-and-drop-zero step on a term dict, and
``Combination`` is the shared base of the combination types.  Sums of
products go into an accumulator key -> [v, N, h, s], which turns into an
exponent -> int dict once a bound fails: ``add_product`` adds a * b in
place and ``sealed`` strips the valuation and drops the zero sums
(S. C. Johnson, SIGSAM 1974).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidValue, NonIntegralCorrection, RankMismatch, ZeroSpecialization

# bits per coefficient: one machine word.  The coefficients the algebra
# produces are small, far inside the 2^62 limit; a wider slot would only
# lengthen every N, and a narrower one would send more products to the dicts
SLOT = 64
BASE = 1 << SLOT
MASK = BASE - 1
HALF = BASE >> 1
# every packed |coefficient| is below LIMIT, inside the balanced digit range [-2^63, 2^63)
LIMIT = 1 << 62
# the widest packed span.  N takes 64 bits per exponent of the span, zero or
# not, so the cap keeps a packed product within two 4096-bit ints (about
# 15 us) and leaves wide sparse values such as q^1000000000 + 1 as dicts;
# the benchmark workloads never pass span 17
SPAN_CAP = 64

_new = object.__new__


class LaurentPoly:
    # packed: _n is N and _h < LIMIT (0 for the zero polynomial);
    # dict form: _n is None, _h is LIMIT so every bound fails, and _c holds the terms
    __slots__ = ("_v", "_n", "_h", "_s", "_c")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(e) is not int or type(v) is not int:
                    raise InvalidValue(f"exponent and coefficient must be integers, got {e!r}: {v!r}")
                if v:
                    c[e] = v
        _assign(self, c)

    @classmethod
    def const(cls, v):
        return _from_dict({0: v} if v else {})

    @classmethod
    def q_power(cls, e, coeff=1):
        return _from_dict({e: coeff} if coeff else {})

    def _dict(self):
        """The exponent -> nonzero int dict; callers must not mutate it."""
        if self._n is None:
            return self._c
        return {e: x for e, x in enumerate(_digits(self._n, self._s), self._v) if x}

    def items(self):
        """(exponent, coefficient) pairs of the nonzero terms, by exponent."""
        return sorted(self._dict().items())

    def coefficient(self, e):
        return self._dict().get(e, 0)

    @property
    def is_zero(self):
        return not self._h

    def __bool__(self):
        return self._h != 0

    def degree(self):
        """Top exponent, or None for the zero polynomial."""
        return self._v + self._s - 1 if self._h else None

    def valuation(self):
        """Bottom exponent, or None for the zero polynomial."""
        return self._v if self._h else None

    def min_term(self):
        """(exponent, coefficient) of the lowest term; None if zero."""
        if not self._h:
            return None
        if self._n is None:
            return self._v, self._c[self._v]
        return self._v, _digits(self._n, 1)[0]

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        hb = other._h
        if not hb:
            return self
        h = self._h
        if not h:
            return other
        h += hb
        u, v = self._v, other._v
        # the sum runs from the lower valuation to the higher top
        w = v if v < u else u
        top = v + other._s if v + other._s > u + self._s else u + self._s
        if h < LIMIT and top - w <= SPAN_CAP:
            m, n = self._n, other._n
            # shift the operand with the higher valuation
            if v > u:
                n <<= (v - u) * SLOT
            elif v < u:
                m <<= (u - v) * SLOT
            n += m
            if not n:
                return ZERO
            if not n & MASK:
                w, n = _strip(w, n)
            return _packed(w, n, h, n.bit_length() // SLOT + 1)
        return _from_dict(_add_dicts(self._dict(), other._dict()))

    __radd__ = __add__

    def __neg__(self):
        if self._n is None:
            return _from_dict({e: -v for e, v in self._c.items()})
        return _packed(self._v, -self._n, self._h, self._s)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        h = self._h * other._h
        if not h:
            return ZERO
        sa, sb = self._s, other._s
        h *= sa if sa < sb else sb
        if h < LIMIT and sa + sb <= SPAN_CAP + 1:
            return _packed(self._v + other._v, self._n * other._n, h, sa + sb - 1)
        return _from_dict(_mul_dicts(self._dict(), other._dict()))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.unit_inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_unit(self):
        """Units of Z[q,q^-1] are the monomials with coefficient +-1."""
        return self._n == 1 or self._n == -1

    def unit_inverse(self):
        if not self.is_unit():
            raise InvalidValue(f"not a unit in Z[q,q^-1]: {self}")
        return _packed(-self._v, self._n, 1, 1)

    def bar(self):
        """The involution q -> q^-1."""
        if self._n is None:
            return _from_dict({-e: v for e, v in self._c.items()})
        s, n = self._s, self._n
        if not s:
            return self
        if s > 1:
            # digit i of the image is digit s - 1 - i of self
            n = 0
            for x in _digits(self._n, s):
                n = (n << SLOT) + x
        return _packed(1 - s - self._v, n, self._h, s)

    def evaluate(self, q0):
        """Exact value at a nonzero rational q0."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroSpecialization("cannot specialize q to 0")
        return sum((Fraction(v) * q0**e for e, v in self._dict().items()), Fraction(0))

    def exact_div(self, den):
        """Exact quotient self/den; raises NonIntegralCorrection on failure."""
        den = self._coerce(den)
        if not den or den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        # shift away the valuations, then do descending long division
        sv, dv = self._v, den._v
        num = {e - sv: v for e, v in self._dict().items()}
        dnm = {e - dv: v for e, v in den._dict().items()}
        ddeg = max(dnm)
        dlead = dnm[ddeg]
        quot = {}
        while num:
            ndeg = max(num)
            if ndeg < ddeg:
                raise NonIntegralCorrection(f"{self} is not divisible by {den}")
            lead, rem = num[ndeg], num[ndeg] % dlead
            if rem:
                raise NonIntegralCorrection(f"{self} is not divisible by {den}")
            f = lead // dlead
            quot[ndeg - ddeg] = f
            for e, v in dnm.items():
                t = e + ndeg - ddeg
                s = num.get(t, 0) - f * v
                if s:
                    num[t] = s
                elif t in num:
                    del num[t]
        return _from_dict({e + sv - dv: v for e, v in quot.items()})

    def __eq__(self, other):
        if other.__class__ is not LaurentPoly:
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.const(other)
        # each value has one form, so equal values agree field by field
        return self._n == other._n and self._v == other._v and (self._n is not None or self._c == other._c)

    def __hash__(self):
        if self._n is None:
            c = self._c
            return hash(c[0]) if len(c) == 1 and 0 in c else hash(frozenset(c.items()))
        # a constant (v = 0, N = c) hashes as the int it equals
        return hash(self._n) if not self._v else hash((self._v, self._n))

    def __str__(self):
        # serialize imports this module, so it is imported late
        from .serialize import to_text

        return to_text(self)

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())!r})"

    def to_json(self):
        return {str(e): v for e, v in self.items()}

    @classmethod
    def from_json(cls, data):
        from .serialize import laurent_from_json  # the strict reader; it imports this module
        return laurent_from_json(data)


def _digits(n, s):
    """The s lowest balanced base-2^SLOT digits of n, lowest first."""
    out = []
    for _ in range(s):
        x = n & MASK
        if x >= HALF:
            x -= BASE
        out.append(x)
        n = (n - x) >> SLOT
    return out


def _packed(v, n, h, s):
    self = _new(LaurentPoly)
    self._v = v
    self._n = n
    self._h = h
    self._s = s
    return self


def _strip(v, n):
    """(v, N) of a packed sum whose low digits cancelled: the zero digits are dropped."""
    k = ((n & -n).bit_length() - 1) // SLOT
    return v + k, n >> k * SLOT


def _assign(self, c):
    """Give self the one form of c, an exponent -> nonzero int dict that is not shared."""
    if not c:
        self._v = self._n = self._h = self._s = 0
        return self
    self._v = v = min(c)
    self._s = s = max(c) - v + 1
    h = max(map(abs, c.values()))
    if h < LIMIT and s <= SPAN_CAP:
        n = 0
        for e, x in c.items():
            n += x << (e - v) * SLOT
        self._n = n
        self._h = h
    else:
        self._n = None
        self._h = LIMIT
        self._c = c
    return self


def _from_dict(c):
    return _assign(_new(LaurentPoly), c)


def _add_dicts(a, b):
    c = dict(a)
    for e, v in b.items():
        s = c.get(e, 0) + v
        if s:
            c[e] = s
        elif e in c:
            del c[e]
    return c


def _mul_dicts(a, b):
    c = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            s = c.get(e, 0) + v1 * v2
            if s:
                c[e] = s
            elif e in c:
                del c[e]
    return c


ZERO = LaurentPoly.const(0)
ONE = LaurentPoly.const(1)
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)
# the quantum integer [2] = q + q^-1
Q2 = Q + QINV


def accumulate(terms, key, coeff):
    """terms[key] += coeff in place for a LaurentPoly coeff; a zero sum
    removes the key, so a term dict never stores a zero coefficient."""
    old = terms.get(key)
    if old is not None:
        coeff = old + coeff
    if coeff:
        terms[key] = coeff
    elif old is not None:
        del terms[key]


def add_product(acc, key, a, b):
    """acc[key] += a * b in place; zeros stay until sealed.  An entry is
    [v, N, h, s] as in a packed value, with v a nominal valuation and h, s
    bounds, or an exponent -> int dict once a bound fails."""
    h = a._h * b._h
    if not h:
        return
    sa, sb = a._s, b._s
    h *= sa if sa < sb else sb
    s = sa + sb - 1
    v = a._v + b._v
    entry = acc.get(key)
    if entry is None:
        if h < LIMIT and s <= SPAN_CAP:
            acc[key] = [v, a._n * b._n, h, s]
            return
        entry = acc[key] = {}
    elif entry.__class__ is list:
        u, n, he, se = entry
        h += he
        # the merged entry runs from the lower valuation to the higher top
        w = v if v < u else u
        top = v + s if v + s > u + se else u + se
        if h < LIMIT and top - w <= SPAN_CAP:
            p = a._n * b._n
            # shift the operand with the higher valuation
            if v > u:
                p <<= (v - u) * SLOT
            elif v < u:
                n <<= (u - v) * SLOT
            entry[0] = w
            entry[1] = n + p
            entry[2] = h
            entry[3] = top - w
            return
        entry = acc[key] = {e: x for e, x in enumerate(_digits(n, se), u)}
    b = b._dict().items()
    for e1, v1 in a._dict().items():
        for e2, v2 in b:
            e = e1 + e2
            entry[e] = entry.get(e, 0) + v1 * v2


def sealed(acc):
    """The accumulator as {key: LaurentPoly}, without zero coefficients or zero sums."""
    out = {}
    for key, entry in acc.items():
        if entry.__class__ is list:
            v, n, h, _ = entry
            if not n:
                continue
            if not n & MASK:
                v, n = _strip(v, n)
            out[key] = _packed(v, n, h, n.bit_length() // SLOT + 1)
        elif nz := {e: v for e, v in entry.items() if v}:
            out[key] = _from_dict(nz)
    return out


class Combination:
    """A finite Z[q,q^-1]-combination: ``terms`` maps keys to nonzero
    LaurentPoly coefficients.  ``n`` is the rank, or the bound of a
    truncated module.  Subclasses check and normalise keys in ``_key``,
    and ``_join`` gives the ``n`` of a sum.  Callers must not mutate
    ``terms``."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        t = {}
        if terms:
            for key, coeff in terms.items():
                accumulate(t, self._key(key), ZERO + coeff)
        self.terms = t

    def _key(self, key):
        return key

    def _join(self, other):
        if self.n != other.n:
            raise RankMismatch(f"rank mismatch: {self.n} vs {other.n}")
        return self.n

    @classmethod
    def _raw(cls, n, terms):
        # trusted constructor: terms has no zero values and is not shared
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    @classmethod
    def zero(cls, n):
        return cls._raw(n, {})

    @property
    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        n = self._join(other)
        t = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(t, key, coeff)
        return self._raw(n, t)

    def __neg__(self):
        return self._raw(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        if isinstance(coeff, int):
            coeff = LaurentPoly.const(coeff)
        if coeff.is_zero:
            return self._raw(self.n, {})
        return self._raw(self.n, {k: c * coeff for k, c in self.terms.items()})

    def __rmul__(self, coeff):
        if isinstance(coeff, (int, LaurentPoly)):
            return self.scale(coeff)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, {len(self.terms)} terms)"

    def __str__(self):
        # serialize imports every combination type, so it is imported late
        from .serialize import to_text

        return to_text(self)
