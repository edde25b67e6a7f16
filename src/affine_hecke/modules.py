"""Finite-dimensional modules as exact generator matrices.

A module stores matrices for T_1, ..., T_{n-1} and rho over Z[q,q^-1].
rho^-1 comes from one fraction-free elimination (the determinant of rho
must be a unit, which keeps every entry inside Z[q,q^-1]), T_0 is derived
once as rho T_{n-1} rho^-1, and T_i^-1 = T_i + (q - q^-1).  Columns act on
column vectors and the matrix of a product xy is [x][y].

Zelevinsky induction realizes Ind along the parabolic embedding on the
basis {T_x (x) m1 (x) m2} indexed by minimal coset representatives:
rewrite g T_x in Bernstein normal form, split each T_w = T_{x'} T_u along
the coset decomposition, act by the two block factors of T_u through the
factor matrices and by y^lambda through the factor y-matrices (y_{k+j}
routed to the right factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .bernstein import to_bernstein
from .errors import BadIndex, DimUnsupported, InvalidValue, RankMismatch
from .hecke import HeckeElt, rho_gen, t_gen
from .laurent import ONE, Q, QINV, ZERO
from .parabolic import coset_decompose, min_coset_reps, split_parabolic_factor
from .weyl import canonical_rex

# ---------------------------------------------------------------------------
# small exact matrix helpers (tuples of tuples of LaurentPoly)

def mat_eye(dim):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)
    )


def mat_zero(dim):
    return tuple(tuple(ZERO for _ in range(dim)) for _ in range(dim))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a, b):
    cols = range(len(b[0]))
    out = []
    for row in a:
        acc = [ZERO for _ in cols]
        for x, b_row in zip(row, b):
            if x:
                for j in cols:
                    if b_row[j]:
                        acc[j] = acc[j] + x * b_row[j]
        out.append(tuple(acc))
    return tuple(out)


def _eliminate(a):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on [a | I].

    Returns (det a, adj a), or (ZERO, None) when a is singular; a matrix
    that is not square raises InvalidValue.  Step k replaces every other
    row r by (p_k r - r[k] row_k) / p_{k-1}, where p_k is the k-th pivot;
    each division is exact in Z[q,q^-1] (Bareiss, Math. Comp. 22, 1968).
    The left block ends as p_n I with p_n = +-det a, the sign coming from
    the row swaps, so the right block is +-adj a.
    """
    dim = len(a)
    if any(len(row) != dim for row in a):
        raise InvalidValue(f"matrix of {dim} rows is not square")
    rows = [list(row) + [ONE if j == i else ZERO for j in range(dim)] for i, row in enumerate(a)]
    sign, prev = 1, ONE
    for k in range(dim):
        p = next((r for r in range(k, dim) if rows[r][k]), None)
        if p is None:
            return ZERO, None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for r in range(dim):
            if r != k:
                row, f = rows[r], rows[r][k]
                rows[r] = row[: k + 1] + [
                    (pivot * x - f * y).exact_div(prev)
                    for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
                ]
        prev = pivot
    return prev * sign, tuple(tuple(x * sign for x in row[dim:]) for row in rows)


def mat_det(a):
    return _eliminate(a)[0]


def mat_unit_inverse(a):
    """Inverse of a matrix whose determinant is a unit +-q^k."""
    det, adj = _eliminate(a)
    if not det.is_unit():
        raise InvalidValue(f"matrix determinant {det} is not a unit in Z[q,q^-1]")
    return mat_scale(adj, det.unit_inverse())


def mat_pow(a, k):
    if k < 0:
        return mat_pow(mat_unit_inverse(a), -k)
    out = mat_eye(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinDimModule:
    """Exact module data: matrices for T_1..T_{n-1} and rho."""

    n: int
    dim: int
    t_mats: tuple  # entry i-1 is [T_i]
    rho_mat: tuple
    rho_inv_mat: tuple = field(default=None)
    t0_mat: tuple = field(init=False, repr=False, compare=False)  # rho T_{n-1} rho^-1

    def __post_init__(self):
        if self.n < 1:
            raise BadIndex(f"module rank must be at least 1, got {self.n}")
        if self.rho_inv_mat is None:
            object.__setattr__(self, "rho_inv_mat", mat_unit_inverse(self.rho_mat))
        t0 = None
        if self.n >= 2:
            t0 = mat_mul(mat_mul(self.rho_mat, self.t_mats[self.n - 2]), self.rho_inv_mat)
        object.__setattr__(self, "t0_mat", t0)

    def t(self, i):
        """Matrix of T_i for i in the affine index set 0..n-1 (empty for n = 1)."""
        if self.n < 2 or not 0 <= i <= self.n - 1:
            raise BadIndex(f"no generator T_{i} in rank {self.n}")
        return self.t_mats[i - 1] if i else self.t0_mat

    def t_inv(self, i):
        return mat_add(self.t(i), mat_scale(mat_eye(self.dim), Q - QINV))

    def b(self, i):
        return mat_add(self.t(i), mat_scale(mat_eye(self.dim), Q))


def trivial_module(n=1):
    """The trivial module: rho acts by 1, each T_i by q^-1."""
    eye = mat_eye(1)
    return FinDimModule(n, 1, tuple(mat_scale(eye, QINV) for _ in range(n - 1)), eye)


def one_dimensional(n, t_scalar, rho_scalar):
    """A one-dimensional module; t_scalar must satisfy the quadratic relation
    and rho_scalar must be a unit."""
    t_mat = ((t_scalar,),)
    return FinDimModule(n, 1, tuple(t_mat for _ in range(n - 1)), ((rho_scalar,),))


def module_check_relations(mod):
    """Evaluate every defining relation as an exact matrix identity.

    Returns a list of (name, passed) pairs.
    """
    n, dim = mod.n, mod.dim
    eye = mat_eye(dim)
    zero = mat_zero(dim)
    report = []
    report.append(
        ("rho*rho^-1 = 1", mat_mul(mod.rho_mat, mod.rho_inv_mat) == eye)
    )
    indices = list(range(n)) if n >= 2 else []
    for i in indices:
        ti = mod.t(i)
        lhs = mat_mul(mat_add(ti, mat_scale(eye, Q)), mat_add(ti, mat_scale(eye, -QINV)))
        report.append((f"(T_{i}+q)(T_{i}-q^-1) = 0", lhs == zero))
    for i in indices:
        j = (i + 1) % n
        lhs = mat_mul(mat_mul(mod.rho_mat, mod.t(i)), mod.rho_inv_mat)
        report.append((f"rho T_{i} rho^-1 = T_{j}", lhs == mod.t(j)))
    if n >= 3:
        for i in indices:
            j = (i + 1) % n
            lhs = mat_mul(mat_mul(mod.t(i), mod.t(j)), mod.t(i))
            rhs = mat_mul(mat_mul(mod.t(j), mod.t(i)), mod.t(j))
            report.append((f"T_{i} T_{j} T_{i} = T_{j} T_{i} T_{j}", lhs == rhs))
    if n >= 4:
        for i in indices:
            for j in indices:
                if i < j and (j - i) % n not in (1, n - 1):
                    lhs = mat_mul(mod.t(i), mod.t(j))
                    rhs = mat_mul(mod.t(j), mod.t(i))
                    report.append((f"T_{i} T_{j} = T_{j} T_{i}", lhs == rhs))
    return report


def module_y(mod, i):
    """Matrix of the Bernstein generator y_i."""
    n = mod.n
    if not 1 <= i <= n:
        raise BadIndex(f"y_{i} needs 1 <= i <= n={n}")
    out = mat_eye(mod.dim)
    for j in range(i - 1, 0, -1):
        out = mat_mul(out, mod.t_inv(j))
    out = mat_mul(out, mod.rho_mat)
    for j in range(n - 1, i - 1, -1):
        out = mat_mul(out, mod.t(j))
    return out


def module_y_inv(mod, i):
    """Matrix of y_i^-1 from the reversed factor list."""
    n = mod.n
    if not 1 <= i <= n:
        raise BadIndex(f"y_{i} needs 1 <= i <= n={n}")
    out = mat_eye(mod.dim)
    for j in range(i, n):
        out = mat_mul(out, mod.t_inv(j))
    out = mat_mul(out, mod.rho_inv_mat)
    for j in range(1, i):
        out = mat_mul(out, mod.t(j))
    return out


def module_act(mod, elt, vec):
    """Act by an algebra element on a column vector, folding each standard
    term rho^m T_{i_1...i_l} right to left through the generator matrices."""
    if elt.n != mod.n:
        raise RankMismatch(f"element rank {elt.n} vs module rank {mod.n}")
    out = [ZERO] * mod.dim
    for perm, coeff in elt.terms.items():
        rex = canonical_rex(perm)
        cur = list(vec)
        for i in reversed(rex.word):
            mat = mod.t(i)
            cur = [sum((mat[r][c] * cur[c] for c in range(mod.dim)), ZERO) for r in range(mod.dim)]
        shift = mat_pow(mod.rho_mat if rex.m >= 0 else mod.rho_inv_mat, abs(rex.m))
        cur = [sum((shift[r][c] * cur[c] for c in range(mod.dim)), ZERO) for r in range(mod.dim)]
        out = [a + coeff * b for a, b in zip(out, cur)]
    return tuple(out)


def induce(m1, m2):
    """The Zelevinsky tensor product, an exact module of dimension
    binom(n, k) * dim(m1) * dim(m2) with n = m1.n + m2.n and k = m1.n."""
    k, n = m1.n, m1.n + m2.n
    reps = min_coset_reps(n, k)
    basis = [(x, a, b) for x in reps for a in range(m1.dim) for b in range(m2.dim)]
    index = {key: pos for pos, key in enumerate(basis)}
    dim = len(basis)

    @cache
    def y_mat(side, i, e):
        """Matrix of y_i^e on the left (side 0) or right (side 1) factor."""
        mod = (m1, m2)[side]
        base = module_y(mod, i) if e > 0 else module_y_inv(mod, i)
        return mat_pow(base, abs(e))

    def generator_matrix(g_elt):
        cols = [[ZERO] * dim for _ in range(dim)]  # cols[row][col]
        for x in reps:
            normal = to_bernstein(g_elt * HeckeElt.from_term(x))
            for (w, lam), coeff in normal.items():
                x2, u = coset_decompose(w, k)
                u_l, u_r = split_parabolic_factor(u, k)
                op_l = mat_eye(m1.dim)
                for letter in canonical_rex(u_l).word:
                    op_l = mat_mul(op_l, m1.t(letter))
                for i, e in enumerate(lam[:k], start=1):
                    if e:
                        op_l = mat_mul(op_l, y_mat(0, i, e))
                op_r = mat_eye(m2.dim)
                for letter in canonical_rex(u_r).word:
                    op_r = mat_mul(op_r, m2.t(letter))
                for j, e in enumerate(lam[k:], start=1):
                    if e:
                        op_r = mat_mul(op_r, y_mat(1, j, e))
                for a in range(m1.dim):
                    for b in range(m2.dim):
                        col = index[(x, a, b)]
                        for a2 in range(m1.dim):
                            for b2 in range(m2.dim):
                                entry = coeff * op_l[a2][a] * op_r[b2][b]
                                if entry:
                                    row = index[(x2, a2, b2)]
                                    cols[row][col] = cols[row][col] + entry
        return tuple(tuple(row) for row in cols)

    t_mats = tuple(generator_matrix(t_gen(n, i)) for i in range(1, n))
    rho_mat = generator_matrix(rho_gen(n))
    return FinDimModule(n, dim, t_mats, rho_mat)


# ---------------------------------------------------------------------------
# rational specialization and the two-dimensional common-eigenvector probe

DEFAULT_PROBES = (Fraction(2), Fraction(3), Fraction(5, 7))


@dataclass(frozen=True)
class SpecializedModule:
    n: int
    dim: int
    mats: tuple  # rho first, then T_1..T_{n-1}, entries Fraction


def specialize(mod, q0):
    """Evaluate all generator matrices at a nonzero rational q0."""
    q0 = Fraction(q0)

    def ev(mat):
        return tuple(tuple(x.evaluate(q0) for x in row) for row in mat)

    mats = (ev(mod.rho_mat),) + tuple(ev(m) for m in mod.t_mats)
    return SpecializedModule(mod.n, mod.dim, mats)


def _rational_eigenvalues(a):
    (p, r), (s, t) = a
    tr, det = p + t, p * t - r * s
    disc = tr * tr - 4 * det
    if disc < 0:
        return []
    root = _fraction_sqrt(disc)
    if root is None:
        return []
    vals = {(tr + root) / 2, (tr - root) / 2}
    return sorted(vals)


def _fraction_sqrt(x):
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def _eigenspace_2x2(a, lam):
    """Basis of ker(a - lam) for a 2x2 rational matrix: [] / [v] / 'full'."""
    m = ((a[0][0] - lam, a[0][1]), (a[1][0], a[1][1] - lam))
    if all(x == 0 for row in m for x in row):
        return "full"
    if m[0][0] != 0 or m[0][1] != 0:
        v = (m[0][1], -m[0][0])
    else:
        v = (m[1][1], -m[1][0])
    # rank-1 check: the other row must also annihilate v
    for row in m:
        if row[0] * v[0] + row[1] * v[1] != 0:
            return []
    return [v]


def _is_eigenvector(a, v):
    w = (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])
    return w[0] * v[1] - w[1] * v[0] == 0


def common_eigenvector_exists(spec):
    """True iff the specialized generator matrices share a rational
    eigenvector; only implemented for dim = 2."""
    if spec.dim != 2:
        raise DimUnsupported(f"common-eigenvector probe needs dim 2, got {spec.dim}")
    return _common_eig(list(spec.mats))


def _common_eig(mats):
    if not mats:
        return True
    a, rest = mats[0], mats[1:]
    for lam in _rational_eigenvalues(a):
        space = _eigenspace_2x2(a, lam)
        if space == "full":
            if _common_eig(rest):
                return True
        elif space and all(_is_eigenvector(m, space[0]) for m in rest):
            return True
    return False


def irreducible_at(mod, probes=DEFAULT_PROBES):
    """Desk-scale irreducibility check: no common eigenvector at any probe."""
    return all(not common_eigenvector_exists(specialize(mod, q0)) for q0 in probes)
