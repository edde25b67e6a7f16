"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 3
truncation, rank or dimension error, 141 a reader that closed stdout
early.  A rank (-n, --n) runs from 1 to MAX_RANK.  The default output
format comes from the AHECKE_FORMAT environment variable (text, json, latex).

Each subcommand imports the layers it uses when it runs: the module holds
only what every call needs (the parser, serialize and pairing's limits for
the yclass help), so `eval` loads neither modules, bernstein, parabolic,
example_n2 nor fractions, and `yclass` and `gradedrank` not even expr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .errors import AffineHeckeError, BadIndex, ParseError, RankMismatch, RankUnsupported
from .hecke import KLLabel, form
from .pairing import Y_EXPONENT_LIMIT, Y_INVERSE_LIMIT, graded_hom_rank, y_class

_USAGE_ERRORS = (ParseError, BadIndex)
# the largest rank accepted: a window holds n integers and each printed term
# its reduced expression, so the rank alone costs time quadratic in n, about
# 0.2 s for `eval -n 1000 rho` and 4 s at n = 8000 on a 2-vCPU host
MAX_RANK = 1000


class _Parser(argparse.ArgumentParser):
    """Reads a token like `-T1` or `-b1`, whose first two characters name no
    option, as a negated expression instead of an unknown option."""

    def _parse_optional(self, arg_string):
        if (
            arg_string[:1] == "-"
            and arg_string[1:2] not in ("", "-")
            and arg_string[:2] not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


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
    parser = _Parser(
        prog="ahecke",
        description="exact computations in extended affine type-A Hecke algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an algebra expression")
    p.add_argument("-n", type=int, required=True, help=f"rank, 1 to {MAX_RANK} (never inferred)")
    p.add_argument("expression")
    p.add_argument(
        "--mod-rho2",
        action="store_true",
        help="apply the quotient rho^2 -> 1 as a post-pass",
    )
    _add_format(p)

    p = sub.add_parser("pair", help="sesquilinear form of two expressions")
    p.add_argument("-n", type=int, required=True, help=f"rank, 1 to {MAX_RANK}")
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)

    p = sub.add_parser("psi", help="parabolic embedding of source expressions")
    p.add_argument("--n", type=int, required=True, help=f"rank, 1 to {MAX_RANK}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--side", choices=("L", "R", "both"), default="both")
    p.add_argument("expression", nargs="+", help="one expression (side L/R) or two (side both)")
    _add_format(p)

    p = sub.add_parser("induce", help="Zelevinsky tensor product of two modules")
    p.add_argument("--left", default="trivial:1", help="module spec, e.g. trivial:1")
    p.add_argument("--right", default="trivial:1")
    p.add_argument("--n", type=int, required=True, help=f"rank, 1 to {MAX_RANK}")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)

    # --bound defaults to example_n2.DEFAULT_BOUND, read when the command runs
    p = sub.add_parser("act", help="act by an algebra expression on a module vector")
    p.add_argument("--module", choices=("U",), default="U")
    p.add_argument("--bound", type=int)
    p.add_argument("expression")
    p.add_argument("vector")
    _add_format(p)

    p = sub.add_parser("reduce-u", help="project an algebra expression to the cyclic module")
    p.add_argument("--bound", type=int)
    p.add_argument("expression")
    _add_format(p)

    p = sub.add_parser("pi-uw", help="project a module vector to the 2-dimensional quotient")
    p.add_argument("--bound", type=int)
    p.add_argument("vector")
    _add_format(p)

    p = sub.add_parser(
        "yclass",
        help="the class (rho T_1)^r (T_1^-1 rho)^s",
        description="The class (rho T_1)^r (T_1^-1 rho)^s in rank 2. |r| and |s| are at most "
        f"{Y_EXPONENT_LIMIT}, and when r < s the length s - r of the one element inverted "
        f"is at most {Y_INVERSE_LIMIT}; beyond either limit the exit code is 3.",
    )
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
    """Accept `b01`, `rho*b01`, `rho^-2*b01`, `rho^2`, or `1` / `b` for the identity."""
    src = text.strip()
    if src.startswith("rho") and "*" not in src:
        src += "*1"  # a lone rho^m is rho^m b_e, as str(KLLabel) prints it
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
    from .modules import trivial_module

    kind, _, arg = spec.partition(":")
    if kind != "trivial":
        raise BadIndex(f"unknown module spec {spec!r}; supported: trivial:<rank>")
    want = _int(arg, "module rank") if arg else 1
    if want != rank:
        raise RankMismatch(f"module spec {spec!r} does not match rank {rank}")
    return trivial_module(rank)


def _algebra(text, n):
    """The rank-n algebra element of an expression."""
    from . import expr

    return expr.eval_algebra(expr.parse(text), n)


def _uvec(text, bound):
    """The truncated module vector of an expression."""
    from . import expr

    return expr.eval_uvec(expr.parse(text), bound)


def _run(args):
    n = getattr(args, "n", 1)
    if n < 1:
        raise BadIndex(f"rank must be at least 1, got {n}")
    if n > MAX_RANK:
        raise RankUnsupported(f"rank must be at most {MAX_RANK}, got {n}")
    if args.command == "check":
        return _check(args)
    print(_output(_value(args), args.format))
    return 0


def _value(args):
    """The value a subcommand other than check prints."""
    if args.command == "eval":
        value = _algebra(args.expression, args.n)
        return value.reduce_rho_squared() if args.mod_rho2 else value
    if args.command == "pair":
        return form(_algebra(args.left, args.n), _algebra(args.right, args.n))
    if args.command == "psi":
        from .parabolic import ParabolicContext, psi, psi_L, psi_R

        ctx = ParabolicContext(args.n, args.k)
        exprs = args.expression
        if args.side == "both":
            if len(exprs) != 2:
                raise BadIndex("side=both needs two expressions (left and right factors)")
            return psi(ctx, _algebra(exprs[0], args.k), _algebra(exprs[1], args.n - args.k))
        if len(exprs) != 1:
            raise BadIndex("side=L or side=R needs exactly one expression")
        if args.side == "L":
            return psi_L(ctx, _algebra(exprs[0], args.k))
        return psi_R(ctx, _algebra(exprs[0], args.n - args.k))
    if args.command == "induce":
        from .modules import induce
        from .parabolic import ParabolicContext

        ParabolicContext(args.n, args.k)  # raises BadIndex unless 1 <= k <= n-1
        left = _module_from_spec(args.left, args.k)
        right = _module_from_spec(args.right, args.n - args.k)
        return induce(left, right)
    if args.command in ("act", "reduce-u", "pi-uw"):
        from .example_n2 import DEFAULT_BOUND, act_elt, pi_uw, u_reduce

        bound = DEFAULT_BOUND if args.bound is None else args.bound
        if args.command == "act":
            return act_elt(_algebra(args.expression, 2), _uvec(args.vector, bound))
        if args.command == "reduce-u":
            return u_reduce(_algebra(args.expression, 2), bound)
        return pi_uw(_uvec(args.vector, bound))
    if args.command == "yclass":
        return y_class(args.r, args.s)
    if args.command == "gradedrank":
        return graded_hom_rank(_parse_kl_label(args.left), _parse_kl_label(args.right)).poly
    raise AssertionError(f"unhandled command {args.command!r}")


def _check(args):
    from . import checks  # the acceptance suite's imports are not paid by other commands

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


def main(argv=None):
    parser = _build_parser()
    # exact integers may pass Python's 4300-digit int <-> str limit (3.10.7 on)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        code = _run(parser.parse_args(argv))
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout: stop quietly, with a shell's SIGPIPE status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AffineHeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
