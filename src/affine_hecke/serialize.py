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

from .bernstein import BernsteinElt
from .example_n2 import UVec
from .hecke import HeckeElt, KLLabel
from .laurent import ONE, LaurentPoly, accumulate
from .modules import FinDimModule
from .weyl import AffinePerm, canonical_rex


# ---------------------------------------------------------------------------
# text (parseable back through expr.parse)

def _coeff_prefix(coeff):
    """Split a coefficient into (sign, text prefix); '' means coefficient 1."""
    terms = list(coeff.items())
    if len(terms) > 1:
        return 1, f"({coeff})"
    ((e, v),) = terms
    sign = -1 if v < 0 else 1
    a = abs(v)
    if e == 0:
        return sign, "" if a == 1 else str(a)
    p = "q" if e == 1 else f"q^{e}"
    return sign, p if a == 1 else f"{a}*{p}"


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


def _term_text(coeff, basis):
    sign, prefix = _coeff_prefix(coeff)
    if not basis:
        return sign, prefix if prefix else "1"
    if not prefix:
        return sign, basis
    return sign, f"{prefix}*{basis}"


def _hecke_sort_key(perm):
    return (perm.shift, perm.length(), perm.window)


def to_text(value):
    if isinstance(value, LaurentPoly):
        return str(value)
    if isinstance(value, HeckeElt):
        parts = [
            _term_text(coeff, _basis_text(perm))
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
            parts.append(_term_text(coeff, "*".join(basis)))
        return _join_signed(parts)
    if isinstance(value, UVec):
        parts = []
        for (primed, k), coeff in sorted(value.items()):
            name = f"u'{k}" if primed else f"u{k}"
            parts.append(_term_text(coeff, name))
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


def laurent_from_json(data):
    return LaurentPoly.from_json(data)


def perm_from_json(data):
    return AffinePerm.from_json(data)


def hecke_from_json(data):
    n = int(data["n"])
    if data.get("basis", "standard") == "kl":
        return kl_map_from_json(data)
    out = {}
    for term in data["terms"]:
        perm = AffinePerm(n, tuple(int(v) for v in term["window"]))
        accumulate(out, perm, LaurentPoly.from_json(term["coeff"]))
    return HeckeElt._raw(n, out)


def kl_map_from_json(data):
    out = {}
    for term in data["terms"]:
        label = KLLabel(int(term["label"]["m"]), tuple(int(i) for i in term["label"]["word"]))
        out[label] = LaurentPoly.from_json(term["coeff"])
    return out


def bernstein_from_json(data):
    n = int(data["n"])
    terms = {}
    for term in data["terms"]:
        perm = AffinePerm(n, tuple(int(v) for v in term["perm"]))
        lam = tuple(int(v) for v in term["lambda"])
        terms[(perm, lam)] = LaurentPoly.from_json(term["coeff"])
    return BernsteinElt(n, terms)


def module_from_json(data):
    n, dim = int(data["n"]), int(data["dim"])
    gens = data["gens"]

    def mat(entries):
        return tuple(tuple(LaurentPoly.from_json(e) for e in row) for row in entries)

    t_mats = tuple(mat(gens[f"T{i}"]) for i in range(1, n))
    return FinDimModule(n, dim, t_mats, mat(gens["rho"]))


def uvec_from_json(data):
    bound = int(data["N"])
    coeffs = {}
    for name, coeff in data["coeffs"].items():
        primed = name.startswith("u'")
        k = int(name[2:] if primed else name[1:])
        coeffs[(primed, k)] = LaurentPoly.from_json(coeff)
    return UVec(bound, coeffs)


# ---------------------------------------------------------------------------
# LaTeX

def _laurent_latex(poly):
    if poly.is_zero:
        return "0"
    parts = []
    for e in sorted(dict(poly.items())):
        v = poly.coefficient(e)
        sign = "-" if v < 0 else "+"
        a = abs(v)
        if e == 0:
            body = str(a)
        else:
            p = "q" if e == 1 else f"q^{{{e}}}"
            body = p if a == 1 else f"{a}{p}"
        parts.append((sign, body))
    out = []
    for sign, body in parts:
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


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
    if not parts:
        return "1"
    return " ".join(parts)


def to_latex(value):
    if isinstance(value, LaurentPoly):
        return _laurent_latex(value)
    if isinstance(value, HeckeElt):
        if value.is_zero:
            return "0"
        parts = []
        for perm, coeff in sorted(value.items(), key=lambda kv: _hecke_sort_key(kv[0])):
            basis = _basis_latex(perm)
            if coeff == ONE:
                parts.append(basis)
            elif len(list(coeff.items())) == 1:
                parts.append(f"{_laurent_latex(coeff)} {basis}" if basis != "1" else _laurent_latex(coeff))
            else:
                parts.append(f"({_laurent_latex(coeff)}) {basis}")
        return " + ".join(parts)
    if isinstance(value, dict) and all(isinstance(k, KLLabel) for k in value):
        if not value:
            return "0"
        parts = []
        for label, coeff in sorted(value.items(), key=lambda kv: (kv[0].m, kv[0].length(), kv[0].word)):
            word = "".join(map(str, label.word)) if label.word else "e"
            b = f"b_{{{word}}}"
            if label.m == 1:
                b = rf"\rho {b}"
            elif label.m:
                b = rf"\rho^{{{label.m}}} {b}"
            if coeff == ONE:
                parts.append(b)
            else:
                parts.append(f"({_laurent_latex(coeff)}) {b}")
        return " + ".join(parts)
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
        if value.is_zero:
            return "0"
        parts = []
        for (primed, k), coeff in sorted(value.items()):
            name = f"u'_{{{k}}}" if primed else f"u_{{{k}}}"
            parts.append(name if coeff == ONE else f"({_laurent_latex(coeff)}) {name}")
        return " + ".join(parts)
    if isinstance(value, tuple):
        return r"\begin{pmatrix} " + r" \\ ".join(to_latex(v) for v in value) + r" \end{pmatrix}"
    raise TypeError(f"cannot serialize {type(value).__name__} as LaTeX")
