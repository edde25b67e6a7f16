"""The benchmark workloads: seeded inputs, one op each, and its checks.

Every workload is a closed loop with one caller: the next op starts only
after the previous one has returned.  Inputs are drawn in rounds.  A round
has a fixed shape per workload (a number of label pairs, a fixed mix of
module pairs, or one of each subcommand), and the seed picks the concrete inputs inside that shape, so
different seeds give runs of comparable cost.  A run always executes whole
rounds.

An op is ``run(inp, call, wrong)``.  ``call(name, fn, *args)`` invokes a
public entry point of ``affine_hecke`` (and records a span and profiles
the call when tracing);
``wrong`` feeds the checker a deliberately corrupted answer, which the
self-test uses to prove that a wrong answer is counted as a failure.  An op
returns True when every check passed, or a zero-argument callable that does
the checks later (``cli_cold`` checks its child outputs after the timed
loop, so that the in-process reference computation is not timed).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys

from affine_hecke import (
    HeckeElt,
    KLLabel,
    ParabolicContext,
    UVec,
    alt_word,
    b_gen,
    form,
    graded_hom_rank,
    induce,
    kl_mul_closed,
    kl_to_std,
    module_check_relations,
    module_y,
    pi_uw,
    psi,
    psi_L,
    psi_R,
    rho_gen,
    serialize,
    std_to_kl,
    t_gen,
    t_inv_gen,
    trivial_module,
    u_reduce,
    y_class,
)
from affine_hecke.example_n2 import act_elt
from affine_hecke.laurent import ONE, QINV, LaurentPoly
from affine_hecke.modules import FinDimModule, mat_mul, mat_scale, one_dimensional

U_BOUND = 20  # truncation bound of the rank-2 cyclic module (the CLI default)


# ---------------------------------------------------------------------------
# rank2_kl: high reuse in a small group

def _kl_label(rng):
    length = rng.randint(0, 8)
    word = alt_word(length, first=rng.randint(0, 1)) if length else ()
    return KLLabel(rng.choice((-1, 0, 1)), word)


def _u_table(kl_combo):
    """Projection of a KL combination onto U by the closed-form table:
    b_{..1} -> u_k, b_{..0} -> q^-1 u'_k, with a rho-power of odd parity
    swapping u and u'."""
    terms = {}
    for label, coeff in kl_combo.items():
        k, primed = len(label.word), label.m % 2 == 1
        if k and label.word[-1] == 0:
            primed, coeff = not primed, coeff * QINV
        terms[(primed, k)] = terms.get((primed, k), LaurentPoly()) + coeff
    return UVec(U_BOUND, terms)


def rank2_round(rng, size=50):
    return [(_kl_label(rng), _kl_label(rng)) for _ in range(size)]


def rank2_op(inp, call, wrong):
    a, b = inp
    closed = call("hecke.kl_mul_closed", kl_mul_closed, a, b)
    if wrong:
        closed = dict(closed)
        label = next(iter(closed))
        closed[label] = closed[label] + ONE
    x = call("hecke.kl_to_std", kl_to_std, a)
    y = call("hecke.kl_to_std", kl_to_std, b)
    prod = call("hecke.mul", HeckeElt.__mul__, x, y)
    relabelled = call("hecke.std_to_kl", std_to_kl, prod)
    call("hecke.form", form, x, y)
    reduced = call("example_n2.u_reduce", u_reduce, prod, U_BOUND)
    return relabelled == closed and reduced == _u_table(closed)


# ---------------------------------------------------------------------------
# induction: exact matrix modules, almost no Hecke products
#
# Only pairs whose induced dimension is at most 4 are drawn, so one op takes
# milliseconds and a run holds thousands of them.  Dimension 8 takes seconds
# and dimension 10 minutes (the cofactor determinant is O(dim!)), which no
# steady run of this length can hold; those sizes are left out.

def _one_dim(rng):
    """A rank-1 module with rho acting by +-q^k."""
    return one_dimensional(1, None, LaurentPoly.q_power(rng.randint(-2, 2), rng.choice((1, -1))))


def induction_round(rng):
    """Six pairs: induced dimensions 2, 2, 3, 3, 4, 4."""
    v = trivial_module(1)
    pairs = [(v, v), (_one_dim(rng), _one_dim(rng))]
    for rank in (2, 3):
        for small in (v, _one_dim(rng)):
            pair = (small, trivial_module(rank))
            pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    rng.shuffle(pairs)
    return pairs


def induction_op(inp, call, wrong):
    m1, m2 = inp
    mod = call("modules.induce", induce, m1, m2)
    if wrong:
        t_mats = (mat_scale(mod.t_mats[0], LaurentPoly.const(-1)),) + mod.t_mats[1:]
        mod = FinDimModule(mod.n, mod.dim, t_mats, mod.rho_mat, mod.rho_inv_mat)
    report = call("modules.check_relations", module_check_relations, mod)
    ys = [call("modules.module_y", module_y, mod, i) for i in range(1, mod.n + 1)]
    commute = all(
        call("modules.mat_mul", mat_mul, ys[i], ys[j]) == call("modules.mat_mul", mat_mul, ys[j], ys[i])
        for i in range(len(ys))
        for j in range(i + 1, len(ys))
    )
    dim = math.comb(mod.n, m1.n) * m1.dim * m2.dim
    return mod.dim == dim and all(ok for _, ok in report) and commute


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m affine_hecke.cli` process per op
#
# Each generated argument carries the value it denotes, built through the
# library API rather than the expression parser, so the reference output
# is independent of the CLI's own front end.

_COEFFS = (("", ONE), ("q*", LaurentPoly.q_power(1)), ("q^-1*", QINV), ("2*", LaurentPoly.const(2)))


_ATOM_TEXT = {
    "rho": lambda e: "rho" if e == 1 else "rho^-1",
    "T": lambda i: f"T{i}",
    "Tinv": lambda i: f"T{i}^-1",
    "b": lambda i: f"b{i}" if i < 2 else f"bs({i})",  # b<word> is binary only
}
_ATOM_GEN = {"rho": rho_gen, "T": t_gen, "Tinv": t_inv_gen, "b": b_gen}


def _expr(rng, n, max_terms=2, max_atoms=3):
    """A small rank-n expression as (text, terms); ``_elt`` evaluates terms."""
    texts, terms = [], []
    if n == 1:
        max_atoms = 1  # rank-1 sources are rho-powers; keep them at +-1
    for _ in range(rng.randint(1, max_terms)):
        prefix, coeff = rng.choice(_COEFFS)
        atoms = []
        for _ in range(rng.randint(1, max_atoms)):
            kind = rng.choice(("rho", "T", "Tinv", "b")) if n >= 2 else "rho"
            atoms.append((kind, rng.choice((1, -1)) if kind == "rho" else rng.randrange(n)))
        texts.append(prefix + "*".join(_ATOM_TEXT[kind](arg) for kind, arg in atoms))
        terms.append((coeff, atoms))
    return " + ".join(texts), (n, terms)


def _elt(expr_terms):
    n, terms = expr_terms
    value = HeckeElt.zero(n)
    for coeff, atoms in terms:
        elt = HeckeElt.one(n)
        for kind, arg in atoms:
            elt = elt * _ATOM_GEN[kind](n, arg)
        value = value + elt.scale(coeff)
    return value


def _uvec(rng):
    texts, terms = [], []
    for _ in range(rng.randint(1, 2)):
        prefix, coeff = rng.choice(_COEFFS)
        k, primed = rng.randint(0, 4), rng.random() < 0.5
        texts.append(prefix + (f"u'{k}" if primed else f"u{k}"))
        terms.append(((primed, k), coeff))
    return " + ".join(texts), terms


def _vec(terms):
    value = UVec.zero(U_BOUND)
    for (primed, k), coeff in terms:
        value = value + UVec.basis(k, primed, U_BOUND).scale(coeff)
    return value


def _label_arg(rng):
    label = _kl_label(rng)
    if not label.word:
        body = "1" if label.m == 0 else "b"
    else:
        body = "b" + "".join(map(str, label.word))
    prefix = {0: "", 1: "rho*", -1: "rho^-1*"}[label.m]
    return prefix + body, label


def _cli_eval(rng):
    n = rng.choice((2, 3, 4))
    text, spec = _expr(rng, n, max_terms=3)
    argv = ["eval", "-n", str(n), text]
    if n == 2 and rng.random() < 0.5:
        return argv + ["--mod-rho2"], lambda: _elt(spec).reduce_rho_squared()
    return argv, lambda: _elt(spec)


def _cli_pair(rng):
    n = rng.choice((2, 3))
    (lt, ls), (rt, rs) = _expr(rng, n), _expr(rng, n)
    return ["pair", "-n", str(n), lt, rt], lambda: form(_elt(ls), _elt(rs))


def _cli_psi(rng):
    n = rng.choice((3, 4))
    k = rng.randint(1, n - 1)
    ctx = ParabolicContext(n, k)
    side = rng.choice(("L", "R", "both"))
    head = ["psi", "--n", str(n), "--k", str(k), "--side", side]
    if side == "L":
        text, spec = _expr(rng, k)
        return head + [text], lambda: psi_L(ctx, _elt(spec))
    if side == "R":
        text, spec = _expr(rng, n - k)
        return head + [text], lambda: psi_R(ctx, _elt(spec))
    (at, a), (bt, b) = _expr(rng, k), _expr(rng, n - k)
    return head + [at, bt], lambda: psi(ctx, _elt(a), _elt(b))


def _cli_induce(rng):
    n, k = rng.choice(((2, 1), (3, 1), (3, 2)))
    argv = ["induce", "--left", f"trivial:{k}", "--right", f"trivial:{n - k}", "--n", str(n), "--k", str(k)]
    return argv, lambda: induce(trivial_module(k), trivial_module(n - k))


def _cli_act(rng):
    (et, spec), (vt, vec) = _expr(rng, 2), _uvec(rng)
    return ["act", "--bound", str(U_BOUND), et, vt], lambda: act_elt(_elt(spec), _vec(vec))


def _cli_reduce(rng):
    text, spec = _expr(rng, 2, max_terms=3)
    return ["reduce-u", text], lambda: u_reduce(_elt(spec), U_BOUND)


def _cli_pi(rng):
    text, vec = _uvec(rng)
    return ["pi-uw", text], lambda: pi_uw(_vec(vec))


def _cli_yclass(rng):
    r, s = rng.randint(-2, 2), rng.randint(-2, 2)
    return ["yclass", str(r), str(s)], lambda: y_class(r, s)


def _cli_gradedrank(rng):
    (lt, lab), (rt, rab) = _label_arg(rng), _label_arg(rng)
    return ["gradedrank", lt, rt], lambda: graded_hom_rank(lab, rab).poly


CLI_COMMANDS = (
    _cli_eval, _cli_pair, _cli_psi, _cli_induce, _cli_act,
    _cli_reduce, _cli_pi, _cli_yclass, _cli_gradedrank,
)


def cli_round(rng):
    out = []
    for make in CLI_COMMANDS:
        argv, reference = make(rng)
        # modules have no text form, so induce always asks for JSON
        fmt = "json" if argv[0] == "induce" or rng.random() < 0.5 else "text"
        out.append((argv + ["--format", fmt], fmt, reference))
    rng.shuffle(out)
    return out


def _render(value, fmt):
    if fmt == "json":
        return json.dumps(serialize.to_json(value), sort_keys=True)
    return serialize.to_text(value)


def make_cli_op(env, profile_dir=None):
    """The cli_cold op: run the plain CLI, or with ``profile_dir`` the CLI
    under cProfile (cli_child.py), one profile file per child."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
    numbers = itertools.count()

    def cli_op(inp, call, wrong):
        argv, fmt, reference = inp
        if profile_dir is None:
            cmd = [sys.executable, "-m", "affine_hecke.cli", *argv]
        else:
            path = os.path.join(profile_dir, f"child-{next(numbers)}.prof")
            cmd = [sys.executable, child, path, *argv]
        proc = call("cli.run", subprocess.run, cmd, capture_output=True, text=True, env=env, timeout=120)

        def check():
            stdout = proc.stdout + ("corrupted" if wrong else "")
            return (
                proc.returncode == 0
                and "Traceback" not in proc.stderr
                and stdout == _render(reference(), fmt) + "\n"
            )

        return check

    return cli_op
