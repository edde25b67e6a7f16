"""Elements of the extended affine Hecke algebra in the standard basis.

An element is a finite Z[q,q^-1]-combination of basis elements rho^m T_w,
keyed by the extended affine permutation rho^m w.  The defining relations
are

    (T_i + q)(T_i - q^-1) = 0,   rho T_i rho^-1 = T_{i+1},

with braid and distant-commutation relations for n >= 3, so that
T_i^-1 = T_i + (q - q^-1) and the Kazhdan-Lusztig generator is
b_i = T_i + q with b_i^2 = [2] b_i.  defining_relations lists them once
as pairs of words in the generators; fold_word evaluates a word in any
target, and word_elt is its value in the algebra.  WordMemo folds each word
once, as one product from a prefix or suffix folded before, so a braid
relation's sides share T_i T_{i+1}; a module keeps one for its lifetime.

Multiplication walks a trie of the right factor's canonical reduced
expressions (weyl.canonical_rex, the one memo of to_rex) from the left
factor's terms: the first edge is the whole shift rho^m, each further edge
one T_i by T_g T_i = T_{g s_i} (ascent) or T_{g s_i} + (q^-1 - q) T_g
(descent), and each node where a word ends adds the state times that
term's coefficient by laurent.add_product.  The only product memo is that
right step, _step(g, letter).  Every memo in the package is a
functools.cache on the function that computes the value, with tuples for
several values.  The intern tables of AffinePerm and KLLabel are not memos
and are never cleared.  The form accumulates only the terms of omega(x) at
the inverses of y's keys, the only ones that meet y under the trace.

For n = 2 every translation-free element has a unique reduced expression,
an alternating binary word, and the KL basis layer (kl_to_std, std_to_kl,
kl_mul_closed) is available in closed form.  There u <= w iff l(u) < l(w)
or u = w, so std_to_kl is one O(#terms + length) suffix sum per rho-shift,
which laurent.add_tails computes on packed values.  Products follow the one
rule b_s b_w = [2] b_w if w starts with s, else b_{sw} + b_{w without its
first letter}; kl_mul_closed writes its iterate as one junction ladder.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import combinations

from .errors import BadIndex, Interned, InvalidValue, RankMismatch, RankUnsupported, Record
from .laurent import ONE, Q, Q2, QINV, ZERO, Combination, LaurentPoly, accumulate, add_product, add_tails
from .laurent import linear, power, sealed
from .weyl import ReducedExpr, canonical_rex, from_rex, identity, rho, simple

_DESC = QINV - Q  # q^-1 - q, the descent correction
_TWO = LaurentPoly.const(2)


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

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, HeckeElt):
            return NotImplemented
        self._join(other)  # raises RankMismatch
        # a trie of other's words rho^m T_{i_1} ... T_{i_l}; None marks a word's end
        trie = {}
        for y, d in other.terms.items():
            rex = canonical_rex(y)
            node = trie.setdefault(("rho", rex.m), {}) if rex.m else trie
            for i in rex.word:
                node = node.setdefault((i, 1), {})
            node[None] = d
        acc = {}
        stack = [(trie, self.terms)]
        while stack:
            node, state = stack.pop()  # state is self times the word of node
            for letter, child in node.items():
                if letter is None:
                    for perm, c in state.items():
                        add_product(acc, perm, c, child)
                else:
                    stack.append((child, _mul_terms_simple(state, letter)))
        return HeckeElt._raw(self.n, sealed(acc))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if len(self.terms) == 1:
            ((perm, c),) = self.terms.items()
            if not canonical_rex(perm).word:  # (c rho^m)^k = c^k rho^(mk), in one step
                return HeckeElt._raw(self.n, {rho(self.n, perm.shift * k): c**k})
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, HeckeElt.one(self.n))

    def inverse(self):
        """Inverse of a single-term element c * rho^m T_w with c a unit."""
        if len(self.terms) != 1:
            raise InvalidValue("only basis multiples have a closed-form inverse")
        ((perm, coeff),) = self.terms.items()
        unit = coeff.unit_inverse()
        return HeckeElt._raw(self.n, {p: c * unit for p, c in _basis_inverse(perm)})

    def omega(self):
        """The q-antilinear antiinvolution: rho -> rho^-1, T_w -> T_w^-1."""
        return HeckeElt._raw(self.n, linear(((perm, c.bar()) for perm, c in self.terms.items()), _basis_inverse))

    def trace(self):
        """Coefficient of the identity basis element rho^0 T_e."""
        return self.terms.get(identity(self.n), ZERO)

    def reduce_rho_squared(self):
        """Post-pass rho^2 -> 1: fold every rho-shift into {0, 1}."""
        n = self.n
        return HeckeElt._raw(n, linear(self.terms.items(), lambda p: ((rho(n, p.shift % 2 - p.shift) * p, ONE),)))

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


# ---------------------------------------------------------------------------
# words in the generators: tuples of letters (g, e), where an index g in
# 0..n-1 with e = +-1 is T_g^e and g = "rho" with any int e != 0 is rho^e.
# Every target (algebra elements, module matrices, Bernstein forms, images
# of an embedding) evaluates them by fold_word and sets
# T_i^-1 = T_i + (q - q^-1).


def fold_word(word, letter, mul, one):
    """The product under mul of the letters' values over a word: letter(g, e)
    for e = +-1, and rho^m the power |m| of letter("rho", +-1) by one
    square-and-multiply (laurent.power); the empty word is one()."""
    for g, e in word:
        if not (g == "rho" and isinstance(e, int) and e or isinstance(g, int) and e in (1, -1)):
            raise BadIndex(f"a letter is (index, +-1) or ('rho', nonzero int), got {(g, e)}")
    values = [
        letter(g, e) if e in (1, -1) else power(letter(g, 1 if e > 0 else -1), abs(e), times=mul)
        for g, e in word
    ]
    return reduce(mul, values) if values else one()


def inverse_word(word):
    """The word of the inverse: the letters reversed, their signs flipped."""
    return tuple((g, -e) for g, e in reversed(word))


def rex_word(rex):
    """The word rho^m T_{i_1} ... T_{i_l} of a reduced expression, rho^m one letter."""
    return ((("rho", rex.m),) if rex.m else ()) + tuple((i, 1) for i in rex.word)


def _letter_elt(n, g, e):
    if g == "rho":
        return rho_gen(n, e)
    return t_gen(n, g) if e == 1 else t_inv_gen(n, g)


def word_elt(n, word):
    """The rank-n algebra element of a word."""
    return fold_word(word, partial(_letter_elt, n), HeckeElt.__mul__, partial(HeckeElt.one, n))


def generator_letters(n):
    """The letters rho, rho^-1 and T_0 .. T_{n-1} that generate the rank-n algebra."""
    return [("rho", 1), ("rho", -1)] + [(i, 1) for i in (range(n) if n >= 2 else ())]


@cache
def defining_relations(n):
    """The defining relations of the rank-n algebra as (name, lhs, rhs) words.

    The quadratic relation (T_i + q)(T_i - q^-1) = 0 is T_i T_i^-1 = 1, since
    every target defines T_i^-1 = T_i + (q - q^-1).
    """
    rels = [("rho*rho^-1 = 1", (("rho", 1), ("rho", -1)), ())]
    idx = range(n) if n >= 2 else ()
    rels += [(f"(T_{i}+q)(T_{i}-q^-1) = 0", ((i, 1), (i, -1)), ()) for i in idx]
    pairs = [(i, (i + 1) % n) for i in idx]
    rels += [(f"rho T_{i} rho^-1 = T_{j}", (("rho", 1), (i, 1), ("rho", -1)), ((j, 1),)) for i, j in pairs]
    rels += [
        (f"T_{i} T_{j} T_{i} = T_{j} T_{i} T_{j}", ((i, 1), (j, 1), (i, 1)), ((j, 1), (i, 1), (j, 1)))
        for i, j in pairs
        if n >= 3
    ]
    distant = [(i, j) for i, j in combinations(idx, 2) if (j - i) % n not in (1, n - 1)]
    rels += [(f"T_{i} T_{j} = T_{j} T_{i}", ((i, 1), (j, 1)), ((j, 1), (i, 1))) for i, j in distant]
    return tuple(rels)


class WordMemo(dict):
    """word -> fold_word(word, letter, mul, one), folded on first lookup as
    one product: the first letter times the suffix when that is folded
    already, else the prefix (folded if need be) times the last letter.  No
    value refers back to the memo, so no reference cycle keeps it alive."""

    __slots__ = ("letter", "mul", "one")

    def __init__(self, letter, mul, one):
        self.letter, self.mul, self.one = letter, mul, one

    def __missing__(self, word):
        chain = [word]  # the prefixes to fold, longest first, found by a loop so no word is too long
        while len(chain[-1]) > 1 and chain[-1][1:] not in self and chain[-1][:-1] not in self:
            chain.append(chain[-1][:-1])
        for w in reversed(chain):
            if len(w) < 2:
                self[w] = fold_word(w, self.letter, self.mul, self.one)
            elif w[1:] in self:
                self[w] = self.mul(self[w[:1]], self[w[1:]])
            else:
                self[w] = self.mul(self[w[:-1]], self[w[-1:]])
        return self[word]


def broken_relations(n, rank, image):
    """Names of the rank-`rank` defining relations that fail when each letter
    goes to the rank-n element image(g, e) and each side to the product of
    its letters' images."""
    words = WordMemo(image, HeckeElt.__mul__, partial(HeckeElt.one, n))
    return [name for name, lhs, rhs in defining_relations(rank) if words[lhs] != words[rhs]]


def bott_samelson(n, word):
    """Product b_{i_1} ... b_{i_l}, defined for every rank."""
    return reduce(HeckeElt.__mul__, (b_gen(n, i) for i in word), HeckeElt.one(n))


# ---------------------------------------------------------------------------
# basis-level multiplication


@cache
def _step(g, letter):
    """g times one letter: (g rho^m, False) for ("rho", m), and (g s_i, whether
    i is a right descent of g) for (i, 1)."""
    i, m = letter
    if i == "rho":
        return g * rho(g.n, m), False
    return g * simple(g.n, i), g.has_descent(i)


def _mul_terms_simple(terms, letter):
    """Multiply a term dict on the right by rho^m or T_i, the letter
    ("rho", m) or (i, 1): T_g T_i = T_{g s_i}, plus (q^-1 - q) T_g at a descent.
    g -> g s_i and g -> g rho^m are one-to-one, so each image is stored
    directly and only the descent corrections are accumulated, after them."""
    out = {}
    descents = []
    for g, c in terms.items():
        h, descent = _step(g, letter)
        out[h] = c
        if descent:
            descents.append((g, c))
    for g, c in descents:
        accumulate(out, g, c * _DESC)
    return out


@cache
def _basis_inverse(perm):
    """Expansion of (rho^m T_w)^-1 = T_w^-1 rho^-m as a tuple of (perm, coeff)."""
    return tuple(word_elt(perm.n, inverse_word(rex_word(canonical_rex(perm)))).terms.items())


def form(x, y):
    """The sesquilinear form (x, y) = trace(omega(x) * y).

    By the dual-basis property trace(E_g E_h) = delta_{g, h^-1}, which the
    test suite verifies against the full product, only the terms of omega(x)
    at the inverses of y's keys contribute; omega(x) itself is never built.
    """
    if x.n != y.n:
        raise RankMismatch(f"rank mismatch: {x.n} vs {y.n}")
    want = {h.inverse() for h in y.terms}
    acc = {}
    for g, c in x.terms.items():
        c = c.bar()
        for p, c2 in _basis_inverse(g):
            if p in want:
                add_product(acc, p, c, c2)
    return form_with_omega(HeckeElt._raw(x.n, sealed(acc)), y)


def form_with_omega(omega_x, y):
    """The form value given an already-computed omega(x); for sweeps."""
    acc = {}
    for h, d in y.terms.items():
        add_product(acc, None, omega_x.terms.get(h.inverse(), ZERO), d)
    return sealed(acc).get(None, ZERO)


# ---------------------------------------------------------------------------
# the Kazhdan-Lusztig layer for n = 2

class KLLabel(Interned, Record):
    """Label rho^m b_w for n = 2, with w the unique alternating rex of its
    translation-free part.  Hash-consed like AffinePerm."""

    __slots__ = ("m", "word")
    _kinds, _kind_error = (int, tuple), BadIndex

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
        # serialize imports this module, so it is imported late
        from .serialize import to_text

        return to_text({self: ONE})


def alt_word(length, last=None, first=None):
    """The alternating binary word of given length fixed by its last or
    first letter; both may be given if consistent."""
    if length == 0:
        return ()
    if last is None and first is None:
        raise InvalidValue("fix the first or the last letter")
    if first is None:
        first = last if length % 2 else 1 - last
    word = tuple((first + k) % 2 for k in range(length))
    if last is not None and word[-1] != last:
        raise InvalidValue(f"no alternating word of length {length} from {first} to {last}")
    return word


def kl_to_std(label):
    """Expand rho^m b_w in the standard basis:
    b_w = sum over u below w of q^(l(w) - l(u)) T_u."""
    # a fresh dict over the read-only memo, so that callers may mutate it
    return HeckeElt._raw(2, dict(_kl_std_terms(label)))


@cache
def _kl_std_terms(label):
    top = label.length()
    lower = [u for k in range(top) for u in _alt_words(k)] + [label.word]
    shift = rho(2, label.m)
    return tuple(
        (shift * from_rex(ReducedExpr(0, u), 2), LaurentPoly.q_power(top - len(u))) for u in lower
    )


def _alt_words(k):
    """The alternating words of length k: two for k > 0, the empty word at 0."""
    return (alt_word(k, first=0), alt_word(k, first=1)) if k else ((),)


@cache
def _kl_level(m, k):
    """The labels rho^m b_u of the words u of length k, each with u."""
    return tuple((KLLabel._intern((m, u)), u) for u in _alt_words(k))


def std_to_kl(elt):
    """Inverse change of basis: T_w = sum over u <= w of (-q)^(l(w) - l(u)) b_u.

    At rank 2 u <= w iff l(u) < l(w) or u = w, so rho^m b_u gets
    c_{m,u} + t_m(l(u)), where t_m(k) sums c_{m,w} (-q)^(l(w) - k) over
    l(w) > k: t_m(top) = 0 and t_m(k-1) = -q (t_m(k) + A_m(k)) with A_m(k)
    the shift-m coefficient sum at length k.  laurent.add_tails walks each
    shift's levels by length once, in O(#terms + length) packed operations.
    Returns a dict KLLabel -> LaurentPoly with no zero entries.
    """
    if elt.n != 2:
        raise RankUnsupported(f"KL-basis layer is closed-form for n = 2 only, got n = {elt.n}")
    by_shift = {}
    for perm, coeff in elt.terms.items():
        rex = canonical_rex(perm)
        by_shift.setdefault(rex.m, {})[rex.word] = coeff
    out = {}
    for m, own in by_shift.items():
        levels = [[(label, own.get(u)) for label, u in _kl_level(m, k)] for k in range(max(map(len, own)) + 1)]
        add_tails(levels, out)
    return out


def kl_mul_closed(a, b):
    """Closed-form product of KL basis elements for n = 2.

    b's rho-part moves to the front by b_X rho^c = rho^c b_{X with letters
    flipped c times}.  Then b_P b_R is the concatenation if either word is
    empty, and otherwise a ladder of words starting with P's first letter,
    lengths in steps of two between lo = |l(P) - l(R)| and hi = l(P) + l(R):
    [2] at lo+1 .. hi-1 when the junction letters agree (b_s b_s = [2] b_s),
    and 1 at lo and hi, 2 between, over lo or 2 .. hi when they differ.
    Returns a dict KLLabel -> LaurentPoly.
    """
    m, p, r = a.m + b.m, tuple((x + b.m) % 2 for x in a.word), b.word
    if not p or not r:
        return {KLLabel._intern((m, p + r)): ONE}
    lo, hi = abs(len(p) - len(r)), len(p) + len(r)
    if p[-1] == r[0]:
        ladder = ((t, Q2) for t in range(lo + 1, hi, 2))
    else:
        ladder = ((t, ONE if t in (lo, hi) else _TWO) for t in range(lo or 2, hi + 1, 2))
    return {KLLabel._intern((m, alt_word(t, first=p[0]))): coeff for t, coeff in ladder}


def kl_combo_to_std(combo):
    """Expand a dict KLLabel -> LaurentPoly in the standard basis."""
    return HeckeElt._raw(2, linear(combo.items(), _kl_std_terms))
