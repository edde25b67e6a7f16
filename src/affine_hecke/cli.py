"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 truncation, rank or dimension error.  The default output format comes
from the AHECKE_FORMAT environment variable (text, json or latex).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks, expr, serialize
from .errors import (
    AffineHeckeError,
    BadIndex,
    DimUnsupported,
    NonIntegralCorrection,
    ParseError,
    RankMismatch,
    RankUnsupported,
    ShiftNonzero,
    TruncationExceeded,
    ZeroSpecialization,
)
from .example_n2 import DEFAULT_BOUND, act_elt, pi_uw, u_reduce
from .hecke import KLLabel
from .modules import induce, trivial_module
from .pairing import graded_hom_rank, y_class
from .parabolic import ParabolicContext, psi, psi_L, psi_R

_USAGE_ERRORS = (ParseError, BadIndex)
_DATA_ERRORS = (
    TruncationExceeded,
    RankMismatch,
    RankUnsupported,
    ShiftNonzero,
    DimUnsupported,
    NonIntegralCorrection,
    ZeroSpecialization,
)


def _output(value, fmt):
    if fmt == "json":
        return json.dumps(serialize.to_json(value), sort_keys=True)
    if fmt == "latex":
        return serialize.to_latex(value)
    return serialize.to_text(value)


def _add_format(parser):
    parser.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default=os.environ.get("AHECKE_FORMAT", "text"),
        help="output format (default from AHECKE_FORMAT, else text)",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ahecke",
        description="exact computations in extended affine type-A Hecke algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an algebra expression")
    p.add_argument("-n", type=int, required=True, help="rank (never inferred)")
    p.add_argument("expression")
    p.add_argument(
        "--mod-rho2",
        action="store_true",
        help="apply the quotient rho^2 -> 1 as a post-pass",
    )
    _add_format(p)

    p = sub.add_parser("pair", help="sesquilinear form of two expressions")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)

    p = sub.add_parser("psi", help="parabolic embedding of source expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--side", choices=("L", "R", "both"), default="both")
    p.add_argument("expression", nargs="+", help="one expression (side L/R) or two (side both)")
    _add_format(p)

    p = sub.add_parser("induce", help="Zelevinsky tensor product of two modules")
    p.add_argument("--left", default="trivial:1", help="module spec, e.g. trivial:1")
    p.add_argument("--right", default="trivial:1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("act", help="act by an algebra expression on a module vector")
    p.add_argument("--module", choices=("U",), default="U")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("expression")
    p.add_argument("vector")
    _add_format(p)

    p = sub.add_parser("reduce-u", help="project an algebra expression to the cyclic module")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("expression")
    _add_format(p)

    p = sub.add_parser("pi-uw", help="project a module vector to the 2-dimensional quotient")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("vector")
    _add_format(p)

    p = sub.add_parser("yclass", help="the class (rho T_1)^r (T_1^-1 rho)^s")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    _add_format(p)

    p = sub.add_parser("gradedrank", help="graded rank of a hom space between KL classes")
    p.add_argument("left", help="KL label like b01 or rho*b10")
    p.add_argument("right")
    _add_format(p)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument(
        "--criteria",
        help="comma-separated criterion numbers (default: all)",
    )
    return parser


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {text!r}", 0) from None


def _parse_kl_label(text):
    """Accept `b01`, `rho*b01`, `rho^-2*b01`, or `1` / `b` for the identity."""
    src = text.strip()
    m = 0
    if "*" in src:
        rho_part, src = src.split("*", 1)
        rho_part = rho_part.strip()
        if rho_part == "rho":
            m = 1
        elif rho_part.startswith("rho^"):
            m = _int(rho_part[4:], "rho power")
        else:
            raise ParseError(f"expected a rho prefix, got {rho_part!r}", 0)
    src = src.strip()
    if src in ("1", "b", "be"):
        return KLLabel(m, ())
    if not src.startswith("b") or not all(c in "01" for c in src[1:]) or len(src) == 1:
        raise ParseError(f"expected a KL label like b010, got {src!r}", 0)
    return KLLabel(m, tuple(int(c) for c in src[1:]))


def _module_from_spec(spec, rank):
    kind, _, arg = spec.partition(":")
    if kind != "trivial":
        raise BadIndex(f"unknown module spec {spec!r}; supported: trivial:<rank>")
    want = _int(arg, "module rank") if arg else 1
    if want != rank:
        raise RankMismatch(f"module spec {spec!r} does not match rank {rank}")
    return trivial_module(rank)


def _run(args):
    if getattr(args, "n", 1) < 1:
        raise BadIndex(f"rank must be at least 1, got {args.n}")
    if args.command == "eval":
        value = expr.eval_algebra(expr.parse(args.expression), args.n)
        if args.mod_rho2:
            value = value.reduce_rho_squared()
        print(_output(value, args.format))
        return 0
    if args.command == "pair":
        from .hecke import form

        left = expr.eval_algebra(expr.parse(args.left), args.n)
        right = expr.eval_algebra(expr.parse(args.right), args.n)
        print(_output(form(left, right), args.format))
        return 0
    if args.command == "psi":
        ctx = ParabolicContext(args.n, args.k)
        exprs = args.expression
        if args.side == "both":
            if len(exprs) != 2:
                raise BadIndex("side=both needs two expressions (left and right factors)")
            a = expr.eval_algebra(expr.parse(exprs[0]), args.k)
            b = expr.eval_algebra(expr.parse(exprs[1]), args.n - args.k)
            value = psi(ctx, a, b)
        else:
            if len(exprs) != 1:
                raise BadIndex("side=L or side=R needs exactly one expression")
            if args.side == "L":
                value = psi_L(ctx, expr.eval_algebra(expr.parse(exprs[0]), args.k))
            else:
                value = psi_R(ctx, expr.eval_algebra(expr.parse(exprs[0]), args.n - args.k))
        print(_output(value, args.format))
        return 0
    if args.command == "induce":
        ParabolicContext(args.n, args.k)  # raises BadIndex unless 1 <= k <= n-1
        left = _module_from_spec(args.left, args.k)
        right = _module_from_spec(args.right, args.n - args.k)
        print(_output(induce(left, right), args.format))
        return 0
    if args.command == "act":
        elt = expr.eval_algebra(expr.parse(args.expression), 2)
        vec = expr.eval_uvec(expr.parse(args.vector), args.bound)
        print(_output(act_elt(elt, vec), args.format))
        return 0
    if args.command == "reduce-u":
        elt = expr.eval_algebra(expr.parse(args.expression), 2)
        print(_output(u_reduce(elt, args.bound), args.format))
        return 0
    if args.command == "pi-uw":
        vec = expr.eval_uvec(expr.parse(args.vector), args.bound)
        print(_output(pi_uw(vec), args.format))
        return 0
    if args.command == "yclass":
        print(_output(y_class(args.r, args.s), args.format))
        return 0
    if args.command == "gradedrank":
        left = _parse_kl_label(args.left)
        right = _parse_kl_label(args.right)
        print(_output(graded_hom_rank(left, right).poly, args.format))
        return 0
    if args.command == "check":
        numbers = None
        if args.criteria:
            numbers = [_int(tok, "criterion") for tok in args.criteria.split(",") if tok.strip()]
            for num in numbers:
                if num not in checks.CRITERIA:
                    raise BadIndex(f"unknown criterion {num}")
        results = checks.run_criteria(numbers)
        failed = 0
        for res in results:
            status = "PASS" if res.ok else "FAIL"
            extra = "" if res.passed else f" [{res.detail}]"
            if res.passed and res.elapsed > res.budget:
                extra = f" [exceeded {res.budget:.0f}s budget]"
            print(f"[{status}] criterion {res.number:2d} ({res.elapsed:6.2f}s) {res.name}{extra}")
            if not res.ok:
                failed += 1
        print(f"{len(results) - failed}/{len(results)} criteria passed")
        return 0 if failed == 0 else 1
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AffineHeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
