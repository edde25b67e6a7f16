"""Expression front end for algebra elements and truncated module vectors.

Grammar (a leading minus is accepted as a convenience):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' signed-int)?
    atom   := 'q' | integer | 'T'<digit> | 'T[' int ']' | 'rho'
            | 'b'<binary word> | 'bs(' int (',' int)* ')'
            | 'y'<int> | 'u'<int> | "u'"<int> | '(' expr ')'

A one-letter b-word is the KL generator in any rank; longer words are
rank-2 KL basis labels.  Evaluation is exact; a power is the value's ``**``,
which inverts units and single-term unit multiples of basis elements (rho,
T_i), except y_i^-e, from the closed-form inverse of y_i.

A sum or product of any length is one node, read, printed and evaluated in
a loop; ==, hash and repr recurse once per parenthesis level, and
parentheses nest at most MAX_NESTING deep, deeper text being a ParseError.
The module-vector layer (example_n2) is imported for u atoms only, and the
y generators (parabolic) for y atoms only.
"""

from __future__ import annotations

import re
from functools import reduce

from .errors import BadIndex, InvalidValue, ParseError, RankUnsupported, Record, is_loaded_instance
from .hecke import HeckeElt, KLLabel, b_gen, bott_samelson, kl_to_std, rho_gen, t_gen
from .laurent import Q, LaurentPoly

# the deepest parenthesis nesting parse accepts: the parser takes four
# frames per level, and printing, evaluation, ==, hash and repr recurse
# once per level
MAX_NESTING = 100

# ---------------------------------------------------------------------------
# AST: one record type per node, its fields as named.  A sum is one Sum of
# (sign, node) pairs, sign +1 or -1 (a leading minus is the first sign), and
# a product one Prod of its factors; a lone term with sign +1, or a lone
# factor, is the bare node.

def _node(name, *fields):
    return type(name, (Record,), {"__slots__": fields})


Num = _node("Num", "value")
QAtom = _node("QAtom")
RhoAtom = _node("RhoAtom")
TAtom = _node("TAtom", "index")
BWord = _node("BWord", "word")
BS = _node("BS", "indices")
YAtom = _node("YAtom", "index")
UAtom = _node("UAtom", "index", "primed")
Sum = _node("Sum", "terms")
Prod = _node("Prod", "factors")
Pow = _node("Pow", "base", "exponent")


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<bs>bs)
      | (?P<bword>b[01]+)
      | (?P<uprime>u'\d+)
      | (?P<u>u\d+)
      | (?P<y>y\d+)
      | (?P<tbracket>T\[\d+\])
      | (?P<t>T\d)
      | (?P<rho>rho)
      | (?P<q>q)
      | (?P<int>\d+)
      | (?P<op>[-+*^(),])
    )""",
    re.VERBOSE,
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take(self, *ops):
        """Consume the next token and return its text if it is one of ops."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def expect_op(self, op):
        if not self.take(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def parse(self):
        try:
            node = self.expr()
        except ValueError:  # from int() alone, on the digits of the token last read
            raise ParseError("integer past Python's int-string digit limit", self.tokens[self.pos - 1][2]) from None
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", offset)
        return node

    def expr(self):
        terms = [(-1 if self.take("-") else 1, self.term())]
        while op := self.take("+", "-"):
            terms.append((1 if op == "+" else -1, self.term()))
        (sign, node), *rest = terms
        return node if sign > 0 and not rest else Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.take("*"):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def factor(self):
        node = self.atom()
        if self.take("^"):
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self):
        sign = -1 if self.take("-") else 1
        kind, text, offset = self.peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", offset)
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "int":
            return Num(int(text))
        if kind == "q":
            return QAtom()
        if kind == "rho":
            return RhoAtom()
        if kind == "t":
            return TAtom(int(text[1:]))
        if kind == "tbracket":
            return TAtom(int(text[2:-1]))
        if kind == "bword":
            return BWord(tuple(int(c) for c in text[1:]))
        if kind == "y":
            return YAtom(int(text[1:]))
        if kind == "u":
            return UAtom(int(text[1:]), primed=False)
        if kind == "uprime":
            return UAtom(int(text[2:]), primed=True)
        if kind == "bs":
            self.expect_op("(")
            indices = [self.signed_int()]
            while self.take(","):
                indices.append(self.signed_int())
            if not self.take(")"):
                raise ParseError("expected ',' or ')' in bs(...)", self.peek()[2])
            return BS(tuple(indices))
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest more than {MAX_NESTING} deep", offset)
            self.depth += 1
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected token {text!r}", offset)


def parse(src):
    """Parse expression text into an AST; ParseError carries the offset."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# printing (inverse of parse on the expression sublanguage)

def to_text(node):
    return _print(node, 0)


def _print(node, prec):
    # precedence levels: 0 sum, 1 product, 2 power/atom
    if isinstance(node, Num):
        s = str(node.value)
        return f"({s})" if node.value < 0 and prec > 0 else s
    if isinstance(node, QAtom):
        return "q"
    if isinstance(node, RhoAtom):
        return "rho"
    if isinstance(node, TAtom):
        return f"T{node.index}" if node.index < 10 else f"T[{node.index}]"
    if isinstance(node, BWord):
        return "b" + "".join(map(str, node.word))
    if isinstance(node, BS):
        return "bs(" + ",".join(map(str, node.indices)) + ")"
    if isinstance(node, YAtom):
        return f"y{node.index}"
    if isinstance(node, UAtom):
        return f"u'{node.index}" if node.primed else f"u{node.index}"
    if isinstance(node, Sum):
        (sign, first), *rest = node.terms
        head = _print(first, 0) if sign > 0 else f"-{_print(first, 1)}"
        body = head + "".join(f" {'+' if sign > 0 else '-'} {_print(term, 1)}" for sign, term in rest)
        return f"({body})" if prec > 0 else body
    if isinstance(node, Prod):
        body = "*".join(_print(factor, 1) for factor in node.factors)
        return f"({body})" if prec > 1 else body
    if isinstance(node, Pow):
        return f"{_print(node.base, 2)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation

def eval_algebra(node, n):
    """Evaluate to a rank-n algebra element; scalars are lifted to
    multiples of the identity."""
    value = _eval(node, n, None)
    if isinstance(value, LaurentPoly):
        return HeckeElt.one(n).scale(value)
    return value


def eval_uvec(node, bound=None):
    """Evaluate to a truncated module vector; the bound defaults to
    example_n2.DEFAULT_BOUND."""
    from .example_n2 import DEFAULT_BOUND, check_bound

    value = _eval(node, None, check_bound(DEFAULT_BOUND if bound is None else bound))
    if isinstance(value, LaurentPoly):
        raise BadIndex("expected a module vector, got a scalar")
    return value


def _is_uvec(value):
    return is_loaded_instance(value, "example_n2", "UVec")


# the atoms of algebra elements, by the name eval_uvec rejects them with
_ALGEBRA_ATOMS = {RhoAtom: "rho", TAtom: "T", BWord: "b", BS: "bs", YAtom: "y"}


def _eval(node, n, bound):
    algebra = bound is None
    if not algebra and (what := _ALGEBRA_ATOMS.get(node.__class__)):
        raise BadIndex(f"{what} atoms are algebra elements, not module vectors")
    if isinstance(node, Num):
        return LaurentPoly.const(node.value)
    if isinstance(node, QAtom):
        return Q
    if isinstance(node, RhoAtom):
        return rho_gen(n)
    if isinstance(node, TAtom):
        return t_gen(n, node.index)
    if isinstance(node, BWord):
        if len(node.word) == 1:
            return b_gen(n, node.word[0])
        if n != 2:
            raise RankUnsupported("KL basis words need rank 2; use bs(...) instead")
        return kl_to_std(KLLabel(0, node.word))
    if isinstance(node, BS):
        return bott_samelson(n, node.indices)
    if isinstance(node, YAtom):
        from .parabolic import bernstein_y

        return bernstein_y(n, node.index)
    if isinstance(node, UAtom):
        if algebra:
            raise BadIndex("module vectors are not algebra elements")
        from .example_n2 import UVec

        return UVec.basis(node.index, primed=node.primed, bound=bound)
    if isinstance(node, Sum):
        (sign, first), *rest = node.terms
        total = _eval(first, n, bound)
        total = total if sign > 0 else -total
        for sign, term in rest:
            total = _add(total, sign, _eval(term, n, bound))
        return total
    if isinstance(node, Prod):
        return reduce(_multiply, (_eval(factor, n, bound) for factor in node.factors))
    if isinstance(node, Pow):
        return _eval_pow(node, n, bound)
    raise TypeError(f"not an expression node: {node!r}")


def _lift(value, other):
    """A scalar value beside an algebra element, as a multiple of its identity."""
    if isinstance(value, LaurentPoly) and not isinstance(other, LaurentPoly):
        if _is_uvec(other):
            raise BadIndex("cannot add a scalar to a module vector")
        return HeckeElt.one(other.n).scale(value)
    return value


# one evaluation sees scalars and either algebra elements (eval_algebra) or
# module vectors (eval_uvec), as each rejects the other's atoms
def _add(a, sign, b):
    """a + b for sign +1 and a - b for sign -1."""
    a = _lift(a, b)
    b = _lift(b, a)
    return a + b if sign > 0 else a - b


def _multiply(a, b):
    """a * b; a module vector is multiplied by scalars only."""
    if _is_uvec(a):
        if _is_uvec(b):
            raise BadIndex("module vectors cannot be multiplied")
        return a.scale(b)
    if _is_uvec(b):
        return b.scale(a)
    return a * b


def _eval_pow(node, n, bound):
    e, base = node.exponent, node.base
    # y_i has several terms for i >= 2, and ** inverts single terms only
    if bound is None and e < 0 and isinstance(base, YAtom):
        from .parabolic import bernstein_y_inv

        return bernstein_y_inv(n, base.index) ** (-e)
    value = _eval(base, n, bound)
    if _is_uvec(value):
        raise BadIndex("module vectors cannot be raised to powers")
    try:
        return value**e
    except InvalidValue as exc:
        raise BadIndex(str(exc)) from None
