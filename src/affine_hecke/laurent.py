"""Exact sparse Laurent polynomials in one variable q over Python integers.

A polynomial is stored as a dict mapping exponent to a nonzero integer
coefficient, so equality is structural and the zero polynomial is the empty
dict.  This ring Z[q, q^-1] is the coefficient ring for everything else in
the package.  Rational specializations use ``fractions.Fraction``.

Every other value of the package is a finite combination over this ring:
``accumulate`` is the one add-and-drop-zero step on a term dict, and
``Combination`` is the shared base of the combination types.  Sums of
products go into an accumulator key -> {exponent: int}: ``add_product`` adds
a * b in place and ``sealed`` drops the zeros (S. C. Johnson, SIGSAM 1974).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidValue, NonIntegralCorrection, RankMismatch, ZeroSpecialization


class LaurentPoly:
    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    c[int(e)] = c.get(int(e), 0) + v
                    if not c[int(e)]:
                        del c[int(e)]
        self._c = c

    @classmethod
    def _raw(cls, c):
        # trusted constructor: c has no zero values and is not shared
        self = object.__new__(cls)
        self._c = c
        return self

    @classmethod
    def const(cls, v):
        return cls._raw({0: v} if v else {})

    @classmethod
    def q_power(cls, e, coeff=1):
        return cls._raw({e: coeff} if coeff else {})

    def items(self):
        return self._c.items()

    def coefficient(self, e):
        return self._c.get(e, 0)

    @property
    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def degree(self):
        """Top exponent, or None for the zero polynomial."""
        return max(self._c) if self._c else None

    def valuation(self):
        """Bottom exponent, or None for the zero polynomial."""
        return min(self._c) if self._c else None

    def min_term(self):
        """(exponent, coefficient) of the lowest term; None if zero."""
        if not self._c:
            return None
        e = min(self._c)
        return e, self._c[e]

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            elif e in c:
                del c[e]
        return LaurentPoly._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._c or not other._c:
            return ZERO
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
        return LaurentPoly._raw(c)

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
        return len(self._c) == 1 and abs(next(iter(self._c.values()))) == 1

    def unit_inverse(self):
        if not self.is_unit():
            raise InvalidValue(f"not a unit in Z[q,q^-1]: {self}")
        ((e, v),) = self._c.items()
        return LaurentPoly._raw({-e: v})

    def bar(self):
        """The involution q -> q^-1."""
        return LaurentPoly._raw({-e: v for e, v in self._c.items()})

    def evaluate(self, q0):
        """Exact value at a nonzero rational q0."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroSpecialization("cannot specialize q to 0")
        return sum((Fraction(v) * q0**e for e, v in self._c.items()), Fraction(0))

    def exact_div(self, den):
        """Exact quotient self/den; raises NonIntegralCorrection on failure."""
        den = self._coerce(den)
        if not den or den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        # shift away the valuations, then do descending long division
        sv, dv = self.valuation(), den.valuation()
        num = {e - sv: v for e, v in self._c.items()}
        dnm = {e - dv: v for e, v in den._c.items()}
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
        return LaurentPoly._raw({e + sv - dv: v for e, v in quot.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __str__(self):
        # serialize imports this module, so it is imported late
        from .serialize import to_text

        return to_text(self)

    def __repr__(self):
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"

    def to_json(self):
        return {str(e): v for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, data):
        from .serialize import laurent_from_json  # the strict reader; it imports this module
        return laurent_from_json(data)


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
    """acc[key] += a * b in place, on raw exponent -> int dicts; zeros stay until sealed."""
    c = acc.get(key)
    if c is None:
        c = acc[key] = {}
    b = b._c.items()
    for e1, v1 in a._c.items():
        for e2, v2 in b:
            e = e1 + e2
            c[e] = c.get(e, 0) + v1 * v2


def sealed(acc):
    """The accumulator as {key: LaurentPoly}, without zero coefficients or zero sums."""
    return {key: LaurentPoly._raw(nz) for key, c in acc.items() if (nz := {e: v for e, v in c.items() if v})}


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
