"""The verification suite behind the `check` subcommand.

Each criterion is a function returning (ok, detail).  run_criteria wraps
them with wall-clock budgets; a criterion fails if its computation fails
or if it exceeds its stated budget.
"""

from __future__ import annotations

import json
import random
import time

from . import expr, serialize
from .bernstein import BernsteinElt, bernstein_mul, from_bernstein, to_bernstein
from .example_n2 import (
    UVec,
    act_elt,
    gen_elt,
    ideal_generators,
    kernel_generator,
    pi_uw,
    u_act,
    u_reduce,
    w_module,
)
from .hecke import (
    HeckeElt,
    KLLabel,
    _alt_words,
    alt_word,
    b_gen,
    broken_relations,
    form,
    form_with_omega,
    generator_letters,
    kl_mul_closed,
    kl_to_std,
    rho_gen,
    std_to_kl,
    t_gen,
    t_inv_gen,
    word_elt,
)
from .laurent import ONE, Q, QINV, ZERO, LaurentPoly
from .modules import (
    DEFAULT_PROBES,
    FinDimModule,
    common_eigenvector_exists,
    induce,
    irreducible_at,
    mat_eye,
    module_check_relations,
    specialize,
    trivial_module,
)
from .pairing import graded_hom_rank, y_class
from .parabolic import ParabolicContext, psi, psi_L, psi_R, psi_rho_pair
from .weyl import ReducedExpr, from_rex, rho, simple


class CheckResult:
    def __init__(self, number, name, passed, detail, elapsed, budget):
        self.number, self.name, self.passed = number, name, passed
        self.detail, self.elapsed, self.budget = detail, elapsed, budget

    @property
    def ok(self):
        return self.passed and self.elapsed <= self.budget


def _labels_up_to(max_len, rho_powers=(0,)):
    return [KLLabel(m, u) for m in rho_powers for l in range(max_len + 1) for u in _alt_words(l)]


# --- criterion 1 ----------------------------------------------------------

def check_induced_matrices():
    v = trivial_module(1)
    w = induce(v, v)
    rho_expect = ((ZERO, ONE), (ONE, ZERO))
    t1_expect = ((ZERO, ONE), (ONE, QINV - Q))
    t0_expect = ((QINV - Q, ONE), (ONE, ZERO))
    b1_expect = ((Q, ONE), (ONE, QINV))
    b0_expect = ((QINV, ONE), (ONE, Q))
    ok = (
        w.dim == 2
        and w.rho_mat == rho_expect
        and w.t_mats[0] == t1_expect
        and w.t(0) == t0_expect
        and w.b(1) == b1_expect
        and w.b(0) == b0_expect
    )
    return ok, "induce(V,V) matrices for rho, T_1, T_0, b_1, b_0 all exact"


# --- criterion 2 ----------------------------------------------------------

def check_kl_round_trip():
    count = 0
    for label in _labels_up_to(12, rho_powers=range(-2, 3)):
        back = std_to_kl(kl_to_std(label))
        if back != {label: ONE}:
            return False, f"round trip failed at {label}"
        count += 1
    return True, f"KL <-> standard identity on {count} labels"


# --- criterion 3 ----------------------------------------------------------

def check_kl_products():
    labels = _labels_up_to(8, rho_powers=(0, 1))
    families = set()
    count = 0
    for a in labels:
        for b in labels:
            closed = kl_mul_closed(a, b)
            oracle = std_to_kl(kl_to_std(a) * kl_to_std(b))
            if closed != oracle:
                return False, f"closed form disagrees with oracle at {a} * {b}"
            if a.word and b.word:
                families.add(
                    (a.word[0], a.word[-1], b.word[0], b.word[-1], len(a.word) == len(b.word))
                )
            count += 1
    # all 16 junction/end-letter patterns must occur, in both length regimes
    # where the parity conditions allow them
    letter_patterns = {f[:4] for f in families}
    if len(letter_patterns) != 16:
        return False, f"only {len(letter_patterns)} letter patterns covered"
    return True, f"{count} products, all letter patterns covered"


# --- criterion 4 ----------------------------------------------------------

def check_form_values():
    b1 = b_gen(2, 1)
    b01 = kl_to_std(KLLabel(0, (0, 1)))
    b10 = kl_to_std(KLLabel(0, (1, 0)))
    pinned = [
        (b1, b1, LaurentPoly({0: 1, 2: 1})),
        (b01, b01, LaurentPoly({0: 1, 2: 2, 4: 1})),
        (b01, b10, LaurentPoly({2: 2, 4: 1})),
    ]
    for x, y, expected in pinned:
        if form(x, y) != expected:
            return False, f"pinned form value mismatch: got {form(x, y)}"
        if (x.omega() * y).trace() != expected:
            return False, "trace-oracle path disagrees with pinned value"

    # inner product pattern, equal lengths 2..8 with both letters different
    for m in range(2, 9):
        for i in (0, 1):
            u = KLLabel(0, alt_word(m, first=i))
            v = KLLabel(0, alt_word(m, first=1 - i))
            val = form(kl_to_std(u), kl_to_std(v))
            mt = val.min_term()
            if mt != (2, 2):
                return False, f"equal-length pattern fails at m={m}: {val}"
            if any(c < 0 for _, c in val.items()):
                return False, f"negative coefficient at m={m}: {val}"

    # different lengths up to 8: lowest term q^|m-n| with coefficient 1
    for m in range(1, 9):
        for nn in range(1, 9):
            if m == nn:
                continue
            for i in (0, 1):
                for j in (0, 1):
                    u = KLLabel(0, alt_word(m, first=i))
                    v = KLLabel(0, alt_word(nn, first=j))
                    val = form(kl_to_std(u), kl_to_std(v))
                    if val.min_term() != (abs(m - nn), 1):
                        return False, f"pattern fails at ({m},{nn},{i},{j}): {val}"

    # shift orthogonality over a sweep of lengths, with omega hoisted
    base = _labels_up_to(6)
    shifted = {
        (k, u.word): kl_to_std(KLLabel(k, u.word))
        for k in range(-2, 3)
        for u in base
    }
    omegas = {key: elt.omega() for key, elt in shifted.items()}
    base_form = {
        (u.word, v.word): form(kl_to_std(u), kl_to_std(v)) for u in base for v in base
    }
    for k in range(-2, 3):
        for l in range(-2, 3):
            for u in base:
                for v in base:
                    lhs = form_with_omega(omegas[(k, u.word)], shifted[(l, v.word)])
                    rhs = base_form[(u.word, v.word)] if k == l else ZERO
                    if lhs != rhs:
                        return False, f"shift orthogonality fails at k={k}, l={l}"

    # documented boundary case at equal length 1
    boundary = form(b_gen(2, 0), b_gen(2, 1))
    if boundary != LaurentPoly({2: 1}):
        return False, f"boundary value (b_0, b_1) changed: {boundary}"
    return True, "pinned values, both lemma patterns, shift orthogonality; (b_0,b_1)=q^2 boundary recorded"


# --- criterion 5 ----------------------------------------------------------

def check_trace_on_kl():
    for label in _labels_up_to(12):
        if kl_to_std(label).trace() != LaurentPoly.q_power(label.length()):
            return False, f"trace(b_w) != q^l at {label}"
    return True, "trace(b_w) = q^l(w) for all labels of length <= 12"


# --- criteria 6 and 7 -----------------------------------------------------

PSI_CASES = ((2, 1), (3, 1), (3, 2), (4, 2))


def check_psi_suite():
    for n, k in PSI_CASES:
        ctx = ParabolicContext(n, k)
        for side, embed, rank in (("L", psi_L, k), ("R", psi_R, n - k)):
            broken = broken_relations(n, rank, lambda g, e: embed(ctx, word_elt(rank, ((g, e),))))
            if broken:
                return False, f"psi_{side} images break {broken[0]} at (n,k)=({n},{k})"
        for a in generator_letters(k):
            for b in generator_letters(n - k):
                left, right = psi_L(ctx, word_elt(k, (a,))), psi_R(ctx, word_elt(n - k, (b,)))
                if left * right != right * left:
                    return False, f"commuting pair fails at (n,k)=({n},{k})"
        if psi(ctx, rho_gen(k), rho_gen(n - k)) != psi_rho_pair(ctx):
            return False, f"rotation-pair identity fails at (n,k)=({n},{k})"
    return True, f"relations, commuting pairs and rotation identity for {PSI_CASES}"


def check_associativity():
    ctx_21 = ParabolicContext(3, 2)  # outer psi_{2,1}
    ctx_12 = ParabolicContext(3, 1)  # outer psi_{1,2}
    inner = ParabolicContext(2, 1)
    one1 = HeckeElt.one(1)
    gens = [rho_gen(1, 1), rho_gen(1, -1), one1]
    for a in gens:
        for b in gens:
            for c in gens:
                lhs = psi(ctx_21, psi(inner, a, b), c)
                rhs = psi(ctx_12, a, psi(inner, b, c))
                if lhs != rhs:
                    return False, "associativity fails on a generator triple"
    return True, "psi_{2,1}(psi_{1,1} x id) = psi_{1,2}(id x psi_{1,1}) on generator triples"


# --- criterion 8 ----------------------------------------------------------

def _random_element(rng, n, max_len):
    letters = [(i, e) for e in (1, -1) for i in range(n)] if n >= 2 else []
    letters += [("rho", 1), ("rho", -1)]
    return word_elt(n, [rng.choice(letters) for _ in range(rng.randrange(max_len + 1))])


def check_bernstein():
    rng = random.Random(20240817)
    trips = 0
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        elt = _random_element(rng, n, 6)
        if from_bernstein(to_bernstein(elt)) != elt:
            return False, "round trip failed"
        trips += 1
    for n in range(2, 5):
        for i in range(1, n + 1):
            yi = BernsteinElt.y_monomial(n, tuple(int(t == i) for t in range(1, n + 1)))
            for j in range(1, n + 1):
                yj = BernsteinElt.y_monomial(n, tuple(int(t == j) for t in range(1, n + 1)))
                if bernstein_mul(yi, yj) != bernstein_mul(yj, yi):
                    return False, f"y_{i} y_{j} != y_{j} y_{i} at n={n}"
        for i in range(1, n):
            tinv = to_bernstein(t_inv_gen(n, i))
            yi = BernsteinElt.y_monomial(n, tuple(int(t == i) for t in range(1, n + 1)))
            lhs = bernstein_mul(bernstein_mul(tinv, yi), tinv)
            yi1 = BernsteinElt.y_monomial(n, tuple(int(t == i + 1) for t in range(1, n + 1)))
            if lhs != yi1:
                return False, f"T_{i}^-1 y_{i} T_{i}^-1 != y_{i + 1} at n={n}"
    return True, f"{trips} round trips, y-commutativity and defining relation for n <= 4"


# --- criterion 9 ----------------------------------------------------------

def check_u_module():
    bound = 20
    for k in range(0, 19):
        for primed in (False, True):
            vec = UVec.basis(k, primed=primed, bound=bound)
            for g in ("rho", "b0", "b1"):
                if u_act(g, vec) != act_elt(gen_elt(g), vec):
                    return False, f"engines disagree on {g} at k={k}"
    w = w_module()
    mats = {"rho": w.rho_mat, "b0": w.b(0), "b1": w.b(1)}
    for k in range(0, 19):
        for primed in (False, True):
            vec = UVec.basis(k, primed=primed, bound=bound)
            px = pi_uw(vec)
            for g, mat in mats.items():
                lhs = pi_uw(u_act(g, vec))
                rhs = (
                    mat[0][0] * px[0] + mat[0][1] * px[1],
                    mat[1][0] * px[0] + mat[1][1] * px[1],
                )
                if lhs != rhs:
                    return False, f"projection fails to intertwine {g} at k={k}"
    if pi_uw(UVec.basis(1)) != (Q, ONE):
        return False, "pi(u_1) != q w + w'"
    if pi_uw(UVec.basis(2)) != (LaurentPoly.const(2), LaurentPoly.const(2) * Q):
        return False, "pi(u_2) != 2(w + q w')"
    if pi_uw(kernel_generator()) != (ZERO, ZERO):
        return False, "pi(T_1 u_0 - rho u_0) != 0"
    g1, g2 = ideal_generators()
    probes = [HeckeElt.from_term(from_rex(ReducedExpr(m, alt_word(l, first=first)), 2)) for m in (0, 1)
              for l in range(0, 11) for first in ((0, 1) if l else (0,))]
    for x in probes:
        for g in (g1, g2):
            if not u_reduce(x * g, bound).is_zero:
                return False, "left multiple of an ideal generator survived"
    return True, "engines agree to k=18, projection intertwines, ideal killed for l <= 10"


# --- criterion 10 ---------------------------------------------------------

def check_simplicity_shadow():
    if not irreducible_at(w_module()):
        return False, "unexpected common eigenvector at some q0 in {2, 3, 5/7}"
    reducible = FinDimModule(
        2, 2, (((QINV, ZERO), (ZERO, -Q)),), mat_eye(2)
    )
    if not all(ok for _, ok in module_check_relations(reducible)):
        return False, "negative control is not a module"
    if not all(common_eigenvector_exists(specialize(reducible, q0)) for q0 in DEFAULT_PROBES):
        return False, "negative control passed the irreducibility probe"
    return True, "no common eigenvector at q in {2, 3, 5/7}; reducible control detected"


# --- criterion 11 ---------------------------------------------------------

def check_pairing_lab():
    classes = {(r, s): y_class(r, s) for r in range(-3, 4) for s in range(-3, 4)}
    for k in range(-2, 3):
        for label in _labels_up_to(6, rho_powers=(k,)):
            x = kl_to_std(label)
            for (r, s), yc in classes.items():
                if r + s != k and not form(x, yc).is_zero:
                    return False, f"nonzero pairing at k={k}, (r,s)=({r},{s})"
    for s in range(1, 5):
        for nn in range(1, 10, 2):
            u = KLLabel(0, alt_word(nn, first=1))
            v = KLLabel(0, alt_word(2 * s, first=0))
            gr = graded_hom_rank(u, v)
            if gr.poly.min_term() != (abs(nn - 2 * s), 1):
                return False, f"minimal term wrong at (n,s)=({nn},{s})"
            if not gr.is_nonnegative():
                return False, f"negative coefficient at (n,s)=({nn},{s})"
    return True, "shift vanishing and minimal-degree patterns verified"


# --- criterion 12 ---------------------------------------------------------

def _random_expr(rng, depth):
    if depth == 0:
        return rng.choice(
            [
                expr.Num(rng.randrange(-3, 4)),
                expr.QAtom(),
                expr.RhoAtom(),
                expr.TAtom(rng.choice((0, 1))),
                expr.BWord((rng.choice((0, 1)),)),
                expr.BWord(tuple(alt_word(rng.choice((2, 3)), first=rng.choice((0, 1))))),
                expr.BS(tuple(rng.choice((0, 1)) for _ in range(rng.randrange(1, 3)))),
                expr.YAtom(rng.choice((1, 2))),
            ]
        )
    op = rng.randrange(5)
    if op < 2:  # a chain of 1-3 terms, each sign random, so the first may be negated
        terms = [(rng.choice((1, -1)), _random_expr(rng, depth - 1)) for _ in range(rng.randrange(1, 4))]
        return expr.Sum(tuple(terms))
    if op == 2:
        return expr.Prod(tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(2, 4))))
    if op == 3:
        base = rng.choice([expr.QAtom(), expr.RhoAtom(), expr.TAtom(1), expr.YAtom(1)])
        return expr.Pow(base, rng.randrange(-2, 3))
    return _random_expr(rng, depth - 1)


def check_serialization():
    rng = random.Random(987)
    for _ in range(500):
        tree = _random_expr(rng, rng.randrange(1, 5))
        text = expr.to_text(tree)
        value = expr.eval_algebra(tree, 2)
        if expr.eval_algebra(expr.parse(text), 2) != value:
            return False, f"expression round trip failed: {text}"
        back = expr.eval_algebra(expr.parse(serialize.to_text(value)), 2)
        if back != value:
            return False, f"value text round trip failed: {serialize.to_text(value)}"
        rejson = serialize.hecke_from_json(json.loads(json.dumps(serialize.to_json(value))))
        if rejson != value:
            return False, "JSON round trip failed for an algebra element"
    # JSON round trips for the remaining core types
    lp = LaurentPoly({-1: 1, 0: 2, 3: -4})
    if serialize.laurent_from_json(serialize.to_json(lp)) != lp:
        return False, "laurent JSON round trip failed"
    perm = rho(2, 1) * simple(2, 0)
    if serialize.perm_from_json(serialize.to_json(perm)) != perm:
        return False, "permutation JSON round trip failed"
    kl = std_to_kl(t_gen(2, 0) * t_gen(2, 1))
    if serialize.kl_map_from_json(serialize.to_json(kl)) != kl:
        return False, "KL map JSON round trip failed"
    bern = to_bernstein(rho_gen(2) * t_gen(2, 0))
    if serialize.bernstein_from_json(serialize.to_json(bern)) != bern:
        return False, "Bernstein JSON round trip failed"
    mod = w_module()
    back = serialize.module_from_json(serialize.to_json(mod))
    if back != mod:
        return False, "module JSON round trip failed"
    vec = UVec(20, {(False, 3): ONE, (True, 0): QINV})
    if serialize.uvec_from_json(serialize.to_json(vec)) != vec:
        return False, "UVec JSON round trip failed"
    return True, "500 expression round trips and JSON round trips for all core types"


CRITERIA = {
    1: ("induced module matches the worked 2x2 matrices", check_induced_matrices, 1.0),
    2: ("KL <-> standard round trip", check_kl_round_trip, 1.0),
    3: ("closed KL products equal the oracle", check_kl_products, 10.0),
    4: ("form values and orthogonality patterns", check_form_values, 5.0),
    5: ("trace of KL basis elements", check_trace_on_kl, 1.0),
    6: ("parabolic embedding suite", check_psi_suite, 30.0),
    7: ("associativity of the embeddings at n=3", check_associativity, 30.0),
    8: ("Bernstein presentation round trips and relations", check_bernstein, 30.0),
    9: ("truncated cyclic module and projection", check_u_module, 30.0),
    10: ("irreducibility probe of the induced module", check_simplicity_shadow, 1.0),
    11: ("pairing laboratory", check_pairing_lab, 10.0),
    12: ("parser and serialization round trips", check_serialization, 30.0),
}


def run_criteria(numbers=None):
    numbers = sorted(numbers) if numbers else sorted(CRITERIA)
    results = []
    for num in numbers:
        name, fn, budget = CRITERIA[num]
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(num, name, passed, detail, elapsed, budget))
    return results
