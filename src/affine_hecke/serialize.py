"""Serialization of the core types: parseable text, LaTeX and JSON.

Every combination (HeckeElt, BernsteinElt, UVec and a rank-2 KL map, a
dict KLLabel -> LaurentPoly) is printed by one walk: ``_terms`` yields its
terms in one print order, each as its key, its coefficient and its basis
atoms.  Text and LaTeX spell the atoms (``rho*T1*T0`` or
``\\rho T_{s_1 s_0}``) under one set of sign and coefficient rules, and
JSON writes the keys of the same ordered terms.  Text re-parses through the
expression parser, a KL map at rank 2.  A module prints its generator
matrices, each zero entry as the constant 0 or {} with nothing decoded, and
a tuple its entries.  This is the one module that writes or reads JSON; it
spells every schema itself:

    LaurentPoly   {"<exp>": <int>, ...}
    AffinePerm    {"n": 2, "window": [0, 3]}
    HeckeElt      {"n": 2, "basis": "standard",
                   "terms": [{"window": [2, 1], "coeff": {"0": 1}}, ...]}
    KL map        {"n": 2, "basis": "kl",
                   "terms": [{"label": {"m": 0, "word": [0, 1]}, "coeff": ...}]}
    BernsteinElt  {"n": 2, "terms": [{"perm": [2, 1], "lambda": [1, 0],
                   "coeff": {"0": 1}}]}
    FinDimModule  {"n": 2, "dim": 2, "gens": {"rho": [[...]], "T1": [[...]]}}
    UVec          {"N": 20, "coeffs": {"u3": {"0": 1}, "u'0": {"-1": 1}}}

to_json leaves every integer a Python int: a caller's json.dumps of one
past Python's int-string digit limit (4300 digits by default) raises
Python's own ValueError; ahecke (cli.main) lifts the limit for its call.

The layers of BernsteinElt, UVec and FinDimModule are not imported here:
a value is recognised as one of them only once its layer is loaded
(errors.is_loaded_instance), and each JSON reader imports the type it
builds.
"""

from __future__ import annotations

import re
from functools import wraps

from .errors import AffineHeckeError, InvalidValue, is_loaded_instance
from .hecke import HeckeElt, KLLabel
from .laurent import LaurentPoly, accumulate
from .weyl import AffinePerm, canonical_rex


# ---------------------------------------------------------------------------
# terms in print order: (key, coeff, atoms)

def _rho_atoms(m):
    return [("rho", m)] if m else []


def _perm_atoms(perm):
    rex = canonical_rex(perm)
    return _rho_atoms(rex.m) + ([("T", rex.word)] if rex.word else [])


def _hecke_terms(elt):
    for perm, coeff in sorted(elt.items(), key=lambda kv: (kv[0].shift, kv[0].length(), kv[0].window)):
        yield perm, coeff, _perm_atoms(perm)


def _bernstein_terms(elt):
    for (perm, lam), coeff in sorted(elt.items(), key=lambda kv: (kv[0][0].length(), kv[0][0].window, kv[0][1])):
        yield (perm, lam), coeff, _perm_atoms(perm) + [("y", (i, e)) for i, e in enumerate(lam, 1) if e]


def _uvec_terms(vec):
    for key, coeff in sorted(vec.items()):
        yield key, coeff, [("u", key)]


def _kl_terms(combo):
    for label, coeff in sorted(combo.items(), key=lambda kv: (kv[0].m, kv[0].length(), kv[0].word)):
        yield label, coeff, _rho_atoms(label.m) + [("b", label.word)]


def _terms(value, fmt):
    if isinstance(value, HeckeElt):
        return _hecke_terms(value)
    if is_loaded_instance(value, "bernstein", "BernsteinElt"):
        return _bernstein_terms(value)
    if is_loaded_instance(value, "example_n2", "UVec"):
        return _uvec_terms(value)
    if isinstance(value, dict) and all(isinstance(k, KLLabel) for k in value):
        return _kl_terms(value)
    raise TypeError(f"cannot serialize {type(value).__name__} as {fmt}")


def _module_gens(module, spell, latex=False):
    """(name, matrix) of every generator of a module, rho first, read from its
    stored row forms: an entry x is spell(x), a zero entry spell(None)."""
    letters, cols = module._letters, range(module.dim)
    names = [(r"\rho" if latex else "rho", ("rho", 1))]
    names += [(f"T_{_sub(i)}" if latex else f"T{i}", (i, 1)) for i in range(1, module.n)]
    return [(name, [[spell(row.get(j)) for j in cols] for row in letters[key]]) for name, key in names]


# ---------------------------------------------------------------------------
# spelling: text (parseable back through expr.parse) or LaTeX

def _sub(i):
    """A LaTeX subscript: braced from two digits on."""
    return str(i) if i < 10 else f"{{{i}}}"


def _atom(kind, arg, latex):
    if kind == "rho":  # rho^arg
        if arg == 1:
            return r"\rho" if latex else "rho"
        return rf"\rho^{{{arg}}}" if latex else f"rho^{arg}"
    if kind == "T":  # T_w for the reduced word arg
        if latex:
            return "T_{" + " ".join(f"s_{_sub(i)}" for i in arg) + "}"
        return "*".join(f"T{i}" if i < 10 else f"T[{i}]" for i in arg)
    if kind == "b":  # the KL basis element of the alternating word arg
        word = "".join(map(str, arg))
        if latex:
            return f"b_{{{word or 'e'}}}"
        return f"b{word}" if word else ""
    if kind == "y":  # y_i^e
        i, e = arg
        if latex:
            return f"y_{{{i}}}" + ("" if e == 1 else f"^{{{e}}}")
        return f"y{i}" + ("" if e == 1 else f"^{e}")
    primed, k = arg  # u_k or u'_k
    name = "u'" if primed else "u"
    return f"{name}_{{{k}}}" if latex else f"{name}{k}"


def _monomial(e, a, latex):
    """The positive integer a times q^e."""
    if e == 0:
        return str(a)
    p = "q" if e == 1 else f"q^{{{e}}}" if latex else f"q^{e}"
    if a == 1:
        return p
    return f"{a}{p}" if latex else f"{a}*{p}"


def _join_signed(parts):
    """Join (sign, body) pairs into one signed sum; no parts is 0."""
    if not parts:
        return "0"
    text = "".join((" + " if sign > 0 else " - ") + body for sign, body in parts)
    return ("" if parts[0][0] > 0 else "-") + text[3:]


def _laurent(poly, latex):
    return _join_signed([(-1 if v < 0 else 1, _monomial(e, abs(v), latex)) for e, v in sorted(poly.items())])


def _term(coeff, atoms, latex):
    """(sign, body) of one term: a coefficient of several terms is
    parenthesised with sign +1, a coefficient +-1 is dropped unless the
    basis is empty (the identity)."""
    if len(coeff.items()) > 1:
        sign, prefix = 1, f"({_laurent(coeff, latex)})"
    else:
        ((e, v),) = coeff.items()
        sign = -1 if v < 0 else 1
        prefix = "" if e == 0 and abs(v) == 1 else _monomial(e, abs(v), latex)
    basis = (" " if latex else "*").join(filter(None, (_atom(kind, arg, latex) for kind, arg in atoms)))
    if not basis:
        return sign, prefix or "1"
    if not prefix:
        return sign, basis
    return sign, f"{prefix} {basis}" if latex else f"{prefix}*{basis}"


def _matrix(rows, latex):
    if latex:
        return r"\begin{pmatrix} " + r" \\ ".join(" & ".join(row) for row in rows) + r" \end{pmatrix}"
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _render(value, latex):
    try:
        if isinstance(value, LaurentPoly):
            return _laurent(value, latex)
        if is_loaded_instance(value, "modules", "FinDimModule"):
            blocks = []
            for name, mat in _module_gens(value, lambda e: _laurent(e, latex) if e else "0", latex):
                entries = _matrix(mat, latex)
                blocks.append(f"[{name}] = {entries}" if latex else f"{name} = {entries}")
            return (r", \quad " if latex else "\n").join(blocks)
        if isinstance(value, tuple):
            parts = [_render(v, latex) for v in value]
            return _matrix([[p] for p in parts], True) if latex else "(" + ", ".join(parts) + ")"
        terms = _terms(value, "LaTeX" if latex else "text")
        return _join_signed([_term(coeff, atoms, latex) for _, coeff, atoms in terms])
    except ValueError:  # str() of an integer past Python's int-string digit limit
        raise InvalidValue("integer past Python's digit limit; sys.set_int_max_str_digits(0) lifts it") from None


def to_text(value):
    return _render(value, False)


def to_latex(value):
    return _render(value, True)


# ---------------------------------------------------------------------------
# JSON

def to_json(value):
    if isinstance(value, LaurentPoly):
        return {str(e): v for e, v in value.items()}
    if isinstance(value, AffinePerm):
        return {"n": value.n, "window": list(value.window)}
    if is_loaded_instance(value, "modules", "FinDimModule"):
        return {"n": value.n, "dim": value.dim, "gens": dict(_module_gens(value, lambda e: to_json(e) if e else {}))}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    terms = _terms(value, "JSON")
    if is_loaded_instance(value, "example_n2", "UVec"):
        return {"N": value.n, "coeffs": {_atom("u", key, False): to_json(coeff) for key, coeff, _ in terms}}
    if isinstance(value, HeckeElt):
        head, fields = {"n": value.n, "basis": "standard"}, lambda perm: {"window": list(perm.window)}
    elif is_loaded_instance(value, "bernstein", "BernsteinElt"):
        head, fields = {"n": value.n}, lambda key: {"perm": list(key[0].window), "lambda": list(key[1])}
    else:
        head, fields = {"n": 2, "basis": "kl"}, lambda label: {"label": {"m": label.m, "word": list(label.word)}}
    return {**head, "terms": [{**fields(key), "coeff": to_json(coeff)} for key, coeff, _ in terms]}


def _reader(read):
    """One guard for every JSON reader: input of the wrong shape (a missing
    key, a value of the wrong type, a string that is not an integer) raises
    InvalidValue, and the package's own errors pass through."""

    @wraps(read)
    def guarded(data):
        try:
            return read(data)
        except AffineHeckeError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidValue(f"malformed JSON for {read.__name__}: {type(exc).__name__}: {exc}") from None

    return guarded


def _int(value, least=None, what="value"):
    """The one JSON integer reader, at least `least` if given; a float, bool or string raises."""
    if type(value) is not int:
        raise InvalidValue(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidValue(f"{what} must be at least {least}, got {value}")
    return value


def _ints(values):
    return tuple(map(_int, values))


@_reader
def laurent_from_json(data):
    # exponent keys are integers written as str(int(key)), so no two name one exponent
    out = {}
    for key, v in data.items():
        if str(e := int(key)) != key:
            raise InvalidValue(f"exponent key must be written as {str(e)!r}, got {key!r}")
        out[e] = _int(v)
    return LaurentPoly(out)


@_reader
def perm_from_json(data):
    return AffinePerm(_int(data["n"]), _ints(data["window"]))


@_reader
def hecke_from_json(data):
    n = _int(data["n"], 1, "rank")
    if data.get("basis", "standard") == "kl":
        return kl_map_from_json(data)
    out = {}
    for term in data["terms"]:
        accumulate(out, AffinePerm(n, _ints(term["window"])), laurent_from_json(term["coeff"]))
    return HeckeElt._raw(n, out)


@_reader
def kl_map_from_json(data):
    if _int(data.get("n", 2)) != 2:
        raise InvalidValue(f"a KL map has rank 2, got {data['n']}")
    out = {}
    for term in data["terms"]:
        out[KLLabel(_int(term["label"]["m"]), _ints(term["label"]["word"]))] = laurent_from_json(term["coeff"])
    return out


@_reader
def bernstein_from_json(data):
    from .bernstein import BernsteinElt

    n = _int(data["n"], 1, "rank")
    terms = {}
    for term in data["terms"]:
        terms[(AffinePerm(n, _ints(term["perm"])), _ints(term["lambda"]))] = laurent_from_json(term["coeff"])
    return BernsteinElt(n, terms)


@_reader
def module_from_json(data):
    from .modules import FinDimModule

    n, dim = _int(data["n"], 1, "rank"), _int(data["dim"], 1, "module dimension")
    gens = data["gens"]
    # for n > len(gens) one of T1 .. T{len(gens)}, rho is missing anyway, so
    # the names stop there and a huge n builds no huge list
    names = [f"T{i}" for i in range(1, min(n, len(gens) + 1))] + ["rho"]
    missing = [name for name in names if name not in gens]
    if missing:
        raise InvalidValue(f"module JSON lacks generator {', '.join(missing)}")
    unknown = [name for name in gens if name not in names]
    if unknown:
        raise InvalidValue(f"module JSON has unknown generator {', '.join(unknown)}")

    def rows(name):  # an entry {} is skipped unread, one that reads as zero left out
        mat = gens[name]
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise InvalidValue(f"matrix {name} is not {dim}x{dim}")
        return tuple({j: x for j, e in enumerate(row) if e != {} and (x := laurent_from_json(e))} for row in mat)

    return FinDimModule._from_rows(n, dim, [rows(f"T{i}") for i in range(1, n)], rows("rho"))


@_reader
def uvec_from_json(data):
    from .example_n2 import UVec

    bound = _int(data["N"], 0, "truncation bound")
    coeffs = {}
    for name, coeff in data["coeffs"].items():
        match = re.fullmatch(r"u(')?([0-9]+)", name)
        if match is None:
            raise InvalidValue(f"not a basis vector of U: {name!r}")
        coeffs[(match[1] is not None, int(match[2]))] = laurent_from_json(coeff)
    return UVec(bound, coeffs)
