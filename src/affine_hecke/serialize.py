"""Serialization of the core types: parseable text, JSON, and LaTeX.

Text output round-trips through the expression parser.  JSON schemas:

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
"""

from __future__ import annotations

import re
from functools import wraps

from .bernstein import BernsteinElt
from .errors import AffineHeckeError, InvalidValue
from .example_n2 import UVec
from .hecke import HeckeElt, KLLabel
from .laurent import LaurentPoly, accumulate
from .modules import FinDimModule
from .weyl import AffinePerm, canonical_rex


# ---------------------------------------------------------------------------
# text (parseable back through expr.parse)

def _monomial(e, a, latex=False):
    """The positive integer a times q^e, as text or as LaTeX."""
    if e == 0:
        return str(a)
    if latex:
        p = "q" if e == 1 else f"q^{{{e}}}"
        return p if a == 1 else f"{a}{p}"
    p = "q" if e == 1 else f"q^{e}"
    return p if a == 1 else f"{a}*{p}"


def _coeff_prefix(coeff, latex=False):
    """Split a coefficient into (sign, prefix); '' means coefficient +-1 and
    a coefficient of several terms is parenthesised with sign +1."""
    terms = list(coeff.items())
    if len(terms) > 1:
        return 1, f"({_laurent_latex(coeff) if latex else coeff})"
    ((e, v),) = terms
    sign = -1 if v < 0 else 1
    if e == 0 and abs(v) == 1:
        return sign, ""
    return sign, _monomial(e, abs(v), latex)


def _join_signed(parts):
    if not parts:
        return "0"
    out = []
    for sign, body in parts:
        if not out:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(out)


def _basis_text(perm):
    rex = canonical_rex(perm)
    parts = []
    if rex.m == 1:
        parts.append("rho")
    elif rex.m:
        parts.append(f"rho^{rex.m}")
    for i in rex.word:
        parts.append(f"T{i}" if i < 10 else f"T[{i}]")
    return "*".join(parts)


def _term(coeff, basis, latex=False):
    """(sign, body) of one term; an empty basis is the identity."""
    sign, prefix = _coeff_prefix(coeff, latex)
    if not basis:
        return sign, prefix if prefix else "1"
    if not prefix:
        return sign, basis
    return sign, f"{prefix} {basis}" if latex else f"{prefix}*{basis}"


def _hecke_sort_key(perm):
    return (perm.shift, perm.length(), perm.window)


def to_text(value):
    if isinstance(value, LaurentPoly):
        return str(value)
    if isinstance(value, HeckeElt):
        parts = [
            _term(coeff, _basis_text(perm))
            for perm, coeff in sorted(value.items(), key=lambda kv: _hecke_sort_key(kv[0]))
        ]
        return _join_signed(parts)
    if isinstance(value, BernsteinElt):
        parts = []
        for (perm, lam), coeff in sorted(
            value.items(), key=lambda kv: (kv[0][0].length(), kv[0][0].window, kv[0][1])
        ):
            basis = [_basis_text(perm)] if not perm.is_identity() else []
            for i, e in enumerate(lam, start=1):
                if e == 1:
                    basis.append(f"y{i}")
                elif e:
                    basis.append(f"y{i}^{e}")
            parts.append(_term(coeff, "*".join(basis)))
        return _join_signed(parts)
    if isinstance(value, UVec):
        parts = []
        for (primed, k), coeff in sorted(value.items()):
            name = f"u'{k}" if primed else f"u{k}"
            parts.append(_term(coeff, name))
        return _join_signed(parts)
    if isinstance(value, FinDimModule):
        gens = [("rho", value.rho_mat)] + [
            (f"T{i}", value.t_mats[i - 1]) for i in range(1, value.n)
        ]
        return "\n".join(
            f"{name} = [" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in mat) + "]"
            for name, mat in gens
        )
    if isinstance(value, tuple):
        return "(" + ", ".join(to_text(v) for v in value) + ")"
    raise TypeError(f"cannot serialize {type(value).__name__} as text")


# ---------------------------------------------------------------------------
# JSON

def to_json(value):
    if isinstance(value, LaurentPoly):
        return value.to_json()
    if isinstance(value, AffinePerm):
        return value.to_json()
    if isinstance(value, HeckeElt):
        return {
            "n": value.n,
            "basis": "standard",
            "terms": [
                {"window": list(perm.window), "coeff": coeff.to_json()}
                for perm, coeff in sorted(value.items(), key=lambda kv: _hecke_sort_key(kv[0]))
            ],
        }
    if isinstance(value, dict) and all(isinstance(k, KLLabel) for k in value):
        return {
            "n": 2,
            "basis": "kl",
            "terms": [
                {
                    "label": {"m": label.m, "word": list(label.word)},
                    "coeff": coeff.to_json(),
                }
                for label, coeff in sorted(
                    value.items(), key=lambda kv: (kv[0].m, kv[0].length(), kv[0].word)
                )
            ],
        }
    if isinstance(value, BernsteinElt):
        return {
            "n": value.n,
            "terms": [
                {
                    "perm": list(perm.window),
                    "lambda": list(lam),
                    "coeff": coeff.to_json(),
                }
                for (perm, lam), coeff in sorted(
                    value.items(), key=lambda kv: (kv[0][0].window, kv[0][1])
                )
            ],
        }
    if isinstance(value, FinDimModule):
        gens = {"rho": _mat_json(value.rho_mat)}
        for i in range(1, value.n):
            gens[f"T{i}"] = _mat_json(value.t_mats[i - 1])
        return {"n": value.n, "dim": value.dim, "gens": gens}
    if isinstance(value, UVec):
        return {
            "N": value.n,
            "coeffs": {
                (f"u'{k}" if primed else f"u{k}"): coeff.to_json()
                for (primed, k), coeff in sorted(value.items())
            },
        }
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} as JSON")


def _mat_json(mat):
    return [[entry.to_json() for entry in row] for row in mat]


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


@_reader
def laurent_from_json(data):
    return LaurentPoly.from_json(data)


@_reader
def perm_from_json(data):
    return AffinePerm.from_json(data)


@_reader
def hecke_from_json(data):
    n = int(data["n"])
    if data.get("basis", "standard") == "kl":
        return kl_map_from_json(data)
    out = {}
    for term in data["terms"]:
        perm = AffinePerm(n, tuple(int(v) for v in term["window"]))
        accumulate(out, perm, LaurentPoly.from_json(term["coeff"]))
    return HeckeElt._raw(n, out)


@_reader
def kl_map_from_json(data):
    out = {}
    for term in data["terms"]:
        label = KLLabel(int(term["label"]["m"]), tuple(int(i) for i in term["label"]["word"]))
        out[label] = LaurentPoly.from_json(term["coeff"])
    return out


@_reader
def bernstein_from_json(data):
    n = int(data["n"])
    terms = {}
    for term in data["terms"]:
        perm = AffinePerm(n, tuple(int(v) for v in term["perm"]))
        lam = tuple(int(v) for v in term["lambda"])
        terms[(perm, lam)] = LaurentPoly.from_json(term["coeff"])
    return BernsteinElt(n, terms)


@_reader
def module_from_json(data):
    n, dim = int(data["n"]), int(data["dim"])
    gens = data["gens"]
    # for n > len(gens) one of T1 .. T{len(gens)}, rho is missing anyway, so
    # the names stop there and a huge n builds no huge list
    names = [f"T{i}" for i in range(1, min(n, len(gens) + 1))] + ["rho"]
    missing = [name for name in names if name not in gens]
    if missing:
        raise InvalidValue(f"module JSON lacks generator {', '.join(missing)}")

    def mat(entries):
        return tuple(tuple(LaurentPoly.from_json(e) for e in row) for row in entries)

    t_mats = tuple(mat(gens[f"T{i}"]) for i in range(1, n))
    return FinDimModule(n, dim, t_mats, mat(gens["rho"]))


@_reader
def uvec_from_json(data):
    bound = int(data["N"])
    coeffs = {}
    for name, coeff in data["coeffs"].items():
        match = re.fullmatch(r"u(')?([0-9]+)", name)
        if match is None:
            raise InvalidValue(f"not a basis vector of U: {name!r}")
        coeffs[(match[1] is not None, int(match[2]))] = LaurentPoly.from_json(coeff)
    return UVec(bound, coeffs)


# ---------------------------------------------------------------------------
# LaTeX

def _laurent_latex(poly):
    return _join_signed(
        [(-1 if v < 0 else 1, _monomial(e, abs(v), latex=True)) for e, v in sorted(poly.items())]
    )


def _basis_latex(perm):
    rex = canonical_rex(perm)
    parts = []
    if rex.m == 1:
        parts.append(r"\rho")
    elif rex.m:
        parts.append(rf"\rho^{{{rex.m}}}")
    if rex.word:
        subscript = " ".join(f"s_{i}" for i in rex.word)
        parts.append(rf"T_{{{subscript}}}")
    return " ".join(parts)


def to_latex(value):
    if isinstance(value, LaurentPoly):
        return _laurent_latex(value)
    if isinstance(value, HeckeElt):
        parts = [
            _term(coeff, _basis_latex(perm), latex=True)
            for perm, coeff in sorted(value.items(), key=lambda kv: _hecke_sort_key(kv[0]))
        ]
        return _join_signed(parts)
    if isinstance(value, dict) and all(isinstance(k, KLLabel) for k in value):
        parts = []
        for label, coeff in sorted(value.items(), key=lambda kv: (kv[0].m, kv[0].length(), kv[0].word)):
            word = "".join(map(str, label.word)) if label.word else "e"
            b = f"b_{{{word}}}"
            if label.m == 1:
                b = rf"\rho {b}"
            elif label.m:
                b = rf"\rho^{{{label.m}}} {b}"
            parts.append(_term(coeff, b, latex=True))
        return _join_signed(parts)
    if isinstance(value, FinDimModule):
        gens = [("\\rho", value.rho_mat)] + [
            (f"T_{i}", value.t_mats[i - 1]) for i in range(1, value.n)
        ]
        blocks = []
        for name, mat in gens:
            rows = " \\\\ ".join(
                " & ".join(_laurent_latex(entry) for entry in row) for row in mat
            )
            blocks.append(f"[{name}] = \\begin{{pmatrix}} {rows} \\end{{pmatrix}}")
        return ", \\quad ".join(blocks)
    if isinstance(value, UVec):
        parts = []
        for (primed, k), coeff in sorted(value.items()):
            name = f"u'_{{{k}}}" if primed else f"u_{{{k}}}"
            parts.append(_term(coeff, name, latex=True))
        return _join_signed(parts)
    if isinstance(value, tuple):
        return r"\begin{pmatrix} " + r" \\ ".join(to_latex(v) for v in value) + r" \end{pmatrix}"
    raise TypeError(f"cannot serialize {type(value).__name__} as LaTeX")
