"""Expression front end for algebra elements and truncated module vectors.

Grammar (a leading minus is accepted as a convenience):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' signed-int)?
    atom   := 'q' | integer | 'T'<digit> | 'T[' int ']' | 'rho'
            | 'b'<binary word> | 'bs(' int (',' int)* ')'
            | 'y'<int> | 'u'<int> | "u'"<int> | '(' expr ')'

A one-letter b-word is the KL generator in any rank; longer words are
rank-2 KL basis labels.  Evaluation is exact; negative powers are resolved
through the explicit inverses of T_i, rho, y_i and of single-term unit
multiples of basis elements.

Sums and products of any length are read, printed, evaluated, compared,
hashed and repr'd in loops; parentheses nest at most MAX_NESTING deep, and
deeper text is a ParseError.  The module-vector layer (example_n2) is
imported for u atoms only, and the y generators (parabolic) for y atoms
only.
"""

from __future__ import annotations

import re

from .errors import BadIndex, ParseError, RankUnsupported, Record, is_loaded_instance
from .hecke import HeckeElt, KLLabel, b_gen, bott_samelson, kl_to_std, rho_gen, t_gen, t_inv_gen
from .laurent import Q, LaurentPoly

# the deepest parenthesis nesting parse accepts: the parser takes four
# frames per level, and printing and evaluation recurse once per level
MAX_NESTING = 100

# ---------------------------------------------------------------------------
# AST: one record type per node, its fields as named.  The binary nodes walk
# their left spine in a loop for ==, hash and repr, as parse builds a sum or
# product of n terms as a left-nested chain n deep.

def _spine(node):
    """The binary nodes down the left spine from node, and the node below them."""
    chain = []
    while type(node) in _LEVEL:
        chain.append(node)
        node = node.left
    return chain, node


def _chain_eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    (chain, leaf), (other_chain, other_leaf) = _spine(self), _spine(other)
    return (
        len(chain) == len(other_chain)
        and all(type(a) is type(b) and a.right == b.right for a, b in zip(chain, other_chain))
        and leaf == other_leaf
    )


def _chain_hash(self):
    chain, leaf = _spine(self)
    return hash((leaf, *(node.right for node in chain)))


def _chain_repr(self):
    chain, leaf = _spine(self)
    heads = "".join(f"{type(node).__qualname__}(left=" for node in chain)
    return heads + repr(leaf) + "".join(f", right={node.right!r})" for node in reversed(chain))


def _node(name, *fields, binary=False):
    methods = {"__eq__": _chain_eq, "__hash__": _chain_hash, "__repr__": _chain_repr} if binary else {}
    return type(name, (Record,), {"__slots__": fields, **methods})


Num = _node("Num", "value")
QAtom = _node("QAtom")
RhoAtom = _node("RhoAtom")
TAtom = _node("TAtom", "index")
BWord = _node("BWord", "word")
BS = _node("BS", "indices")
YAtom = _node("YAtom", "index")
UAtom = _node("UAtom", "index", "primed")
Neg = _node("Neg", "arg")
Add = _node("Add", "left", "right", binary=True)
Sub = _node("Sub", "left", "right", binary=True)
Mul = _node("Mul", "left", "right", binary=True)
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

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", offset)
        return node

    def expr(self):
        kind, text, _ = self.peek()
        negate = kind == "op" and text == "-"
        if negate:
            self.advance()
        node = self.term()
        if negate:
            node = Neg(node)
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self):
        kind, text, offset = self.peek()
        sign = 1
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
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
            while True:
                k2, t2, o2 = self.peek()
                if k2 == "op" and t2 == ",":
                    self.advance()
                    indices.append(self.signed_int())
                elif k2 == "op" and t2 == ")":
                    self.advance()
                    return BS(tuple(indices))
                else:
                    raise ParseError("expected ',' or ')' in bs(...)", o2)
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


_LEVEL = {Add: 0, Sub: 0, Mul: 1}
_OP = {Add: " + ", Sub: " - ", Mul: "*"}


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
    if isinstance(node, Neg):
        body = f"-{_print(node.arg, 1)}"
        return f"({body})" if prec > 0 else body
    if isinstance(node, (Add, Sub, Mul)):
        # a left-nested chain of one level prints in a loop, right to left
        level = _LEVEL[type(node)]
        parts = []
        while _LEVEL.get(type(node)) == level:
            parts.append(f"{_OP[type(node)]}{_print(node.right, 1)}")
            node = node.left
        body = _print(node, level) + "".join(reversed(parts))
        return f"({body})" if prec > level else body
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
    if isinstance(value, HeckeElt):
        raise BadIndex("expected a module vector, got an algebra element")
    return value


def _is_uvec(value):
    return is_loaded_instance(value, "example_n2", "UVec")


def _promote_pair(a, b, n):
    """Lift scalars so both operands live in the same additive world."""
    if isinstance(a, LaurentPoly) and not isinstance(b, LaurentPoly):
        if isinstance(b, HeckeElt):
            a = HeckeElt.one(b.n).scale(a)
        else:
            raise BadIndex("cannot add a scalar to a module vector")
    if isinstance(b, LaurentPoly) and not isinstance(a, LaurentPoly):
        if isinstance(a, HeckeElt):
            b = HeckeElt.one(a.n).scale(b)
        else:
            raise BadIndex("cannot add a scalar to a module vector")
    return a, b


def _eval(node, n, bound):
    algebra = bound is None
    if isinstance(node, Num):
        return LaurentPoly.const(node.value)
    if isinstance(node, QAtom):
        return Q
    if isinstance(node, RhoAtom):
        _need_algebra(algebra, "rho")
        return rho_gen(n)
    if isinstance(node, TAtom):
        _need_algebra(algebra, "T")
        return t_gen(n, node.index)
    if isinstance(node, BWord):
        _need_algebra(algebra, "b")
        if len(node.word) == 1:
            return b_gen(n, node.word[0])
        if n != 2:
            raise RankUnsupported("KL basis words need rank 2; use bs(...) instead")
        return kl_to_std(KLLabel(0, node.word))
    if isinstance(node, BS):
        _need_algebra(algebra, "bs")
        return bott_samelson(n, node.indices)
    if isinstance(node, YAtom):
        _need_algebra(algebra, "y")
        from .parabolic import bernstein_y

        return bernstein_y(n, node.index)
    if isinstance(node, UAtom):
        if algebra:
            raise BadIndex("module vectors are not algebra elements")
        from .example_n2 import UVec

        return UVec.basis(node.index, primed=node.primed, bound=bound)
    if isinstance(node, Neg):
        v = _eval(node.arg, n, bound)
        return -v if not _is_uvec(v) else v.scale(-1)
    if isinstance(node, (Add, Sub, Mul)):
        # a left-nested chain of one level evaluates in a loop, left to right
        level = _LEVEL[type(node)]
        chain = []
        while _LEVEL.get(type(node)) == level:
            chain.append(node)
            node = node.left
        a = _eval(node, n, bound)
        for node in reversed(chain):
            a = _combine(node, a, _eval(node.right, n, bound), n)
        return a
    if isinstance(node, Pow):
        return _eval_pow(node, n, bound)
    raise TypeError(f"not an expression node: {node!r}")


def _combine(node, a, b, n):
    """The value of the Add, Sub or Mul node whose operands are a and b."""
    if isinstance(node, Mul):
        if _is_uvec(a) and _is_uvec(b):
            raise BadIndex("module vectors cannot be multiplied")
        if _is_uvec(b):
            if not isinstance(a, LaurentPoly):
                raise BadIndex("only scalars multiply module vectors")
            return b.scale(a)
        if _is_uvec(a):
            if not isinstance(b, LaurentPoly):
                raise BadIndex("only scalars multiply module vectors")
            return a.scale(b)
        return a * b
    a, b = _promote_pair(a, b, n)
    if type(a) is not type(b):
        raise BadIndex("cannot mix algebra elements and module vectors")
    return a + b if isinstance(node, Add) else a - b


def _need_algebra(algebra, what):
    if not algebra:
        raise BadIndex(f"{what} atoms are algebra elements, not module vectors")


def _eval_pow(node, n, bound):
    e = node.exponent
    base = node.base
    # atoms with a known explicit inverse get native negative powers
    if e < 0 and bound is None:
        if isinstance(base, TAtom):
            return t_inv_gen(n, base.index) ** (-e)
        if isinstance(base, RhoAtom):
            return rho_gen(n, e)
        if isinstance(base, YAtom):
            from .parabolic import bernstein_y_inv

            return bernstein_y_inv(n, base.index) ** (-e)
    if isinstance(base, RhoAtom) and bound is None:
        return rho_gen(n, e)
    value = _eval(base, n, bound)
    if isinstance(value, LaurentPoly):
        if e >= 0:
            return value**e
        if not value.is_unit():
            raise BadIndex(f"{value} is not invertible in Z[q,q^-1]")
        return value.unit_inverse() ** (-e)
    if _is_uvec(value):
        raise BadIndex("module vectors cannot be raised to powers")
    if e >= 0:
        return value**e
    try:
        return value.inverse() ** (-e)
    except ValueError as exc:
        raise BadIndex(str(exc)) from None
