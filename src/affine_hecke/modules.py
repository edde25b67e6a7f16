"""Finite-dimensional modules as exact generator matrices.

A module is given by matrices for T_1, ..., T_{n-1}, rho and rho^-1 over
Z[q,q^-1].  Induced modules build rho^-1 with rho; only a supplied module
inverts rho, by one fraction-free elimination on its rows (_gauss_jordan,
which mat_det shares; its determinant must be a unit).

Matrices are sparse inside this module: the row form of a matrix is a
tuple of rows {col: LaurentPoly} holding only the nonzero entries, so two
row forms are equal exactly when the matrices are; no row is mutated once
built, so row forms share rows.  [xy] = [x][y] is one row-form product,
summed by laurent.add_product; a row of x with one entry gives a row of y,
scaled, with no sum.  A module folds each word in its generators once, in
one word memo (hecke.WordMemo) made with it over its letters: the stored
rho^+-1 and T_0..T_{n-1}, T_0 = rho T_{n-1} rho^-1 folded as the module is
built, and T_i^-1 = T_i + (q - q^-1) on the diagonal.  The relation check,
word_mat, module_y (parabolic.y_word) and induce (the factors' y_n and
y_1^-1) read it; the check evaluates one relation per rotation orbit once
rho rho^-1 = 1 and each rho T_i rho^-1 = T_{i+1} hold.  module_act costs
the nonzeros: each term's letters act one by one on the vector, a dim x 1
row form, and laurent.linear sums the terms.  Pickling, serialize's JSON
reader and its printers read and write the stored rows.  Dense tuples of
tuples are only built on each read, and a module stores none: the views
t_mats, rho_mat and rho_inv_mat, the values of t, t_inv, b, word_mat and
module_y, and the helpers mat_mul, mat_scale, mat_eye and mat_det.

Zelevinsky induction realizes Ind on the basis {T_x (x) m1 (x) m2}, x the
minimal coset representatives, from their windows alone (_moves, cached
per (n, k)): T_i acts on T_x by T_p of a factor when i, i+1 sit at
positions p, p+1 of one block (s_i x = x s_p), else by Deodhar's lemma.
rho^+-1 goes along left descents by rho T_i rho^-1 = T_{i+1}, from
rho = T_1 ... T_{n-1} y_n and rho^-1 = T_{n-1} ... T_1 y_1^-1 at x = 1,
and is psi_L(rho) or psi_R(rho^-1) at the one other x with no usable descent.
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce

from .errors import BadIndex, DimUnsupported, InvalidValue, RankMismatch, Record
from .hecke import _DESC, WordMemo, defining_relations, inverse_word, rex_word
from .laurent import ONE, Q, QINV, ZERO, accumulate, add_product, linear, sealed
from .parabolic import min_coset_reps, y_word
from .weyl import canonical_rex

# ---------------------------------------------------------------------------
# exact matrices: row forms inside this module, dense tuples of tuples at the edges

def _rows(mat):
    # the identity test skips the shared ZERO that _dense writes without a call
    return tuple({j: x for j, x in enumerate(row) if x is not ZERO and x} for row in mat)


def _dense(rows, cols):
    out = []
    for row in rows:
        dense = [ZERO] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def _eye(dim):
    return tuple({i: ONE} for i in range(dim))


def _mul(a, b):
    """The row form of ab: row i sums x * b[k] over the entries (k, x) of a[i].
    A row with one entry is b[k] itself when x = 1, else x b[k], which has
    no zero entry since Z[q,q^-1] has no zero divisors."""
    out = []
    for row in a:
        if len(row) == 1:
            ((k, x),) = row.items()
            out.append(b[k] if x == ONE else {j: x * y for j, y in b[k].items()})
            continue
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                add_product(acc, j, x, y)
        out.append(sealed(acc))
    return tuple(out)


def _shift_diagonal(rows, c):
    """The row form of rows + c I."""
    out = tuple(map(dict, rows))
    for i, row in enumerate(out):
        accumulate(row, i, c)
    return out


def mat_eye(dim):
    return _dense(_eye(dim), dim)


def mat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a, b):
    return _dense(_mul(_rows(a), _rows(b)), len(b[0]))


def _gauss_jordan(rows, dim):
    """(det a, the row form of a^-1, or None when det a is not a unit) from
    the row form of a square a, by fraction-free (Bareiss) Gauss-Jordan
    elimination on the rows of [a | I].  Step k takes as pivot row one with a
    unit entry in column k, divided by that unit, else the sparsest one with
    an entry there, and replaces every other row r by (p_k r - r[k] row_k) /
    p_{k-1}, p_k the pivot: each division is exact in Z[q,q^-1] (Bareiss,
    Math. Comp. 22, 1968), as dividing by a unit only scales a row of a.  A
    row with no entry in column k changes only with the pivot, so a monomial
    matrix of units updates no row.  The left block ends as p_n I and the
    right one as p_n a^-1, p_n being det a over the units divided out and
    the swap signs.
    """
    rows = [{**row, dim + i: ONE} for i, row in enumerate(rows)]
    prev = unit = ONE  # unit: the units divided out, and the swap signs
    for k in range(dim):
        found = (r for r in range(k, dim) if k in rows[r])
        p = min(found, key=lambda r: (not rows[r][k].is_unit(), len(rows[r])), default=None)
        if p is None:
            return ZERO, None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            unit = -unit
        if rows[k][k].is_unit():
            unit *= rows[k][k]
            scale = rows[k][k].unit_inverse()
            rows[k] = {j: x * scale for j, x in rows[k].items()}
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for r, row in enumerate(rows):
            f = row.get(k)
            if r == k or (f is None and pivot == prev):
                continue
            acc = {}
            for j, x in row.items():
                add_product(acc, j, x, pivot)
            if f is not None:
                for j, y in pivot_row.items():
                    add_product(acc, j, -f, y)
            rows[r] = {j: x.exact_div(prev) for j, x in sealed(acc).items()}
        prev = pivot
    if not prev.is_unit():
        return prev * unit, None
    scale = prev.unit_inverse()
    return prev * unit, tuple({j - dim: x * scale for j, x in row.items() if j >= dim} for row in rows)


def mat_det(a):
    """Determinant of a dense square matrix, by the elimination that inverts rho."""
    if any(len(row) != len(a) for row in a):
        raise InvalidValue(f"matrix of {len(a)} rows is not square")
    return _gauss_jordan(_rows(a), len(a))[0]


# ---------------------------------------------------------------------------

def _letter_rows(n, letters, g, e):
    """The row form of g^e: a stored letter, or T_i^-1 = T_i + (q - q^-1)."""
    if (g, e) not in letters and (n < 2 or g not in range(n)):
        raise BadIndex(f"no generator T_{g} in rank {n}")
    return letters.get((g, e)) or _shift_diagonal(letters[g, 1], Q - QINV)


class FinDimModule(Record):
    """Exact module data: the row forms of the letters rho^+-1 and T_i^+-1.

    FinDimModule(n, dim, t_mats, rho_mat, rho_inv_mat=None) checks the shapes
    of dense matrices and stores their rows as _from_rows does, which inverts
    rho when rho^-1 is not given.  Two modules are equal exactly when their
    matrices are; a module has no hash; a copy or pickle carries the rows."""

    # _letters: rho^+-1 and T_0..T_{n-1}; _words: the word memo
    __slots__ = ("n", "dim", "_letters", "_words")
    __hash__ = None

    def __init__(self, n, dim, t_mats, rho_mat, rho_inv_mat=None):
        if n < 1:
            raise BadIndex(f"module rank must be at least 1, got {n}")
        if dim < 1:
            raise InvalidValue(f"module dimension must be at least 1, got {dim}")
        if len(t_mats) != n - 1:
            raise InvalidValue(f"rank {n} needs {n - 1} T-matrices, got {len(t_mats)}")
        mats = {f"T_{i}": m for i, m in enumerate(t_mats, start=1)}
        for name, mat in {**mats, "rho": rho_mat, "rho^-1": rho_inv_mat}.items():
            if mat is not None and (len(mat) != dim or any(len(row) != dim for row in mat)):
                raise InvalidValue(f"matrix {name} is not {dim}x{dim}")
        rho_inv = None if rho_inv_mat is None else _rows(rho_inv_mat)
        self._fill(n, dim, tuple(map(_rows, t_mats)), _rows(rho_mat), rho_inv)

    @classmethod
    def _from_rows(cls, n, dim, t_rows, rho, rho_inv=None):
        """A module from the row forms of T_1..T_{n-1}, rho and rho^-1, shapes
        unchecked; rho^-1 is eliminated from rho when not given."""
        return object.__new__(cls)._fill(n, dim, t_rows, rho, rho_inv)

    def _fill(self, n, dim, t_rows, rho, rho_inv):
        if rho_inv is None:
            det, rho_inv = _gauss_jordan(rho, dim)
            if rho_inv is None:
                raise InvalidValue(f"matrix determinant {det} is not a unit in Z[q,q^-1]")
        letters = {("rho", 1): rho, ("rho", -1): rho_inv}  # (g, e) -> row form of the letter g^e
        letters.update(((i, 1), t) for i, t in enumerate(t_rows, 1))
        # the memo's letters read the dict, not the module, so module and memo form no cycle
        words = WordMemo(partial(_letter_rows, n, letters), _mul, partial(_eye, dim))
        if n > 1:
            letters[0, 1] = words[("rho", 1), (n - 1, 1), ("rho", -1)]
        Record.__init__(self, n, dim)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "_words", words)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.dim, self._letters) == (other.n, other.dim, other._letters)

    def __reduce__(self):
        t_rows = tuple(self._letters[i, 1] for i in range(1, self.n))
        return FinDimModule._from_rows, (self.n, self.dim, t_rows, self._letters["rho", 1], self._letters["rho", -1])

    # the dense views, built on each read; entry i-1 of t_mats is [T_i]
    t_mats = property(lambda self: tuple(map(self.t, range(1, self.n))))
    rho_mat = property(lambda self: _dense(self._letters["rho", 1], self.dim))
    rho_inv_mat = property(lambda self: _dense(self._letters["rho", -1], self.dim))

    def t(self, i):
        """Matrix of T_i for i in the affine index set 0..n-1 (none for n = 1)."""
        return _dense(self._words[(i, 1),], self.dim)

    def t_inv(self, i):
        """Matrix of T_i^-1 = T_i + (q - q^-1)."""
        return _dense(self._words[(i, -1),], self.dim)

    def b(self, i):
        """Matrix of the KL generator b_i = T_i + q."""
        return _dense(_shift_diagonal(self._words[(i, 1),], Q), self.dim)


def trivial_module(n=1):
    """The trivial module: rho acts by 1, each T_i by q^-1."""
    return one_dimensional(n, QINV, ONE)


def one_dimensional(n, t_scalar, rho_scalar):
    """A one-dimensional module; t_scalar must satisfy the quadratic relation
    and rho_scalar must be a unit."""
    return FinDimModule(n, 1, (((t_scalar,),),) * (n - 1), ((rho_scalar,),))


def word_mat(mod, word):
    """Matrix of a generator word (hecke.fold_word); the empty word is the identity."""
    return _dense(mod._words[tuple(word)], mod.dim)


def module_check_relations(mod):
    """Evaluate every defining relation as an exact matrix identity.

    Returns a list of (name, passed) pairs.  The relations with a rho are
    evaluated first.  When they all hold, so does rho^-1 rho = 1 (the matrices are
    square), and X -> rho X rho^-1 is an automorphism taking T_i^+-1 to
    T_{i+1}^+-1: a relation holds exactly when its rotation i -> i+1 (mod n)
    does, perhaps with its sides swapped, so one per orbit is evaluated.
    """
    n, words, rels = mod.n, mod._words, defining_relations(mod.n)
    verdict = {(lhs, rhs): words[lhs] == words[rhs] for _, lhs, rhs in rels if lhs[0][0] == "rho"}
    orbits = all(verdict.values())
    for _, lhs, rhs in rels:
        if (lhs, rhs) not in verdict:
            ok = words[lhs] == words[rhs]
            for _ in range(n if orbits else 1):
                verdict[lhs, rhs] = verdict[rhs, lhs] = ok
                lhs, rhs = (tuple(((g + 1) % n, e) for g, e in word) for word in (lhs, rhs))
    return [(name, verdict[lhs, rhs]) for name, lhs, rhs in rels]


def module_y(mod, i):
    """Matrix of the Bernstein generator y_i."""
    return word_mat(mod, y_word(mod.n, i))


def module_act(mod, elt, vec):
    """Act by an algebra element on a column vector, a dim x 1 row form: the
    letters of each standard term rho^m T_{i_1} ... T_{i_l}, rho^m as |m|
    letters rho^+-1, act on it last letter first, each one a row-form product."""
    if elt.n != mod.n:
        raise RankMismatch(f"element rank {elt.n} vs module rank {mod.n}")
    if len(vec) != mod.dim:
        raise InvalidValue(f"vector of length {len(vec)} in a module of dimension {mod.dim}")
    column = tuple({0: ZERO + v} if v else {} for v in vec)  # an int entry becomes a constant

    def image(perm):
        out = column
        for g, e in reversed(rex_word(canonical_rex(perm))):
            for _ in range(abs(e)):
                out = _mul(mod._words[(g, 1 if e > 0 else -1),], out)
        return ((r, row[0]) for r, row in enumerate(out) if row)

    out = linear(elt.terms.items(), image)
    return tuple(out.get(r, ZERO) for r in range(mod.dim))


@cache
def _moves(n, k):
    """moves[i-1][x], for T_i on T_x with x indexing min_coset_reps(n, k) and p, p'
    the positions of i, i+1 in the window of x: (y, p' < p) when s_i x is the
    representative y, or (None, p) when s_i x = x s_p."""
    windows = [x.window for x in min_coset_reps(n, k)]
    index = {w: pos for pos, w in enumerate(windows)}

    def move(i, w):
        p, p2 = w.index(i) + 1, w.index(i + 1) + 1
        if (p <= k) == (p2 <= k):
            return None, p
        return index[tuple(2 * i + 1 - v if v in (i, i + 1) else v for v in w)], p2 < p

    return tuple(tuple(move(i, w) for w in windows) for i in range(1, n))


def _transpose(rows, dim):
    """The row form of the transpose, so the row form of a matrix from its column form."""
    out = [{} for _ in range(dim)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return tuple(out)


def induce(m1, m2):
    """The Zelevinsky tensor product, an exact module of dimension
    binom(n, k) * dim(m1) * dim(m2) with n = m1.n + m2.n and k = m1.n."""
    k, n = m1.n, m1.n + m2.n
    d1, d2 = m1.dim, m2.dim
    moves = _moves(n, k)
    reps, d = len(moves[0]), d1 * d2
    dim = reps * d  # T_x (x) e_a (x) e_b sits at x d + a d2 + b

    # the column forms of L (x) 1 and 1 (x) R on the x = 1 block, from the row forms of L and R
    def left(rows):
        cols = _transpose(rows, d1)
        return [{r * d2 + b: c for r, c in cols[a].items()} for a in range(d1) for b in range(d2)]

    def right(rows):
        cols = _transpose(rows, d2)
        return [{a * d2 + r: c for r, c in cols[b].items()} for a in range(d1) for b in range(d2)]

    inner = {p: left(m1._letters[p, 1]) for p in range(1, k)}
    inner.update((p, right(m2._letters[p - k, 1])) for p in range(k + 1, n))

    def t_cols(row):
        cols = []
        for x, (y, flag) in enumerate(row):
            if y is None:
                cols += [{x * d + r: c for r, c in col.items()} for col in inner[flag]]
            else:
                cols += [{y * d + v: ONE, x * d + v: _DESC} if flag else {y * d + v: ONE} for v in range(d)]
        return cols

    ts = [None, *map(t_cols, moves)]  # ts[i]: the column form of T_i

    def rho_rows(e, first, boundary):
        """Row form of rho^e (e = +-1) from its blocks of d columns in order of
        length: rho^e T_x = T_{i+e} rho^e T_{s_i x} for a left descent i of x."""
        blocks = [first]
        for x in range(1, reps):
            step = next(((i + e, y) for i, (y, desc) in enumerate((m[x] for m in moves), 1)
                         if y is not None and desc and 0 < i + e < n), None)
            blocks.append(boundary if step is None else _mul(blocks[step[1]], ts[step[0]]))
        return _transpose([col for block in blocks for col in block], dim)

    # y_n = psi_R(y_{n-k}) and y_1 = psi_L(y_1)
    up = reduce(_mul, ts[:0:-1], right(m2._words[y_word(m2.n, m2.n)]))
    down = reduce(_mul, ts[1:], left(m1._words[inverse_word(y_word(k, 1))]))
    rho = rho_rows(1, up, left(m1._letters["rho", 1]))
    rho_inv = rho_rows(-1, down, right(m2._letters["rho", -1]))
    return FinDimModule._from_rows(n, dim, [_transpose(t, dim) for t in ts[1:]], rho, rho_inv)


# ---------------------------------------------------------------------------
# rational specialization and the two-dimensional common-eigenvector probe

DEFAULT_PROBES = ("2", "3", "5/7")  # the rationals 2, 3 and 5/7, read by Fraction


class SpecializedModule(Record):
    __slots__ = ("n", "dim", "mats")  # mats: rho first, then T_1..T_{n-1}, entries Fraction


def specialize(mod, q0):
    """Evaluate all generator matrices at a nonzero rational q0 (anything
    Fraction reads: an int, a Fraction or a string such as "5/7"), from the
    nonzero entries of their row forms."""
    from fractions import Fraction

    q0, zero = Fraction(q0), Fraction(0)

    def ev(rows):
        return tuple(tuple(row[j].evaluate(q0) if j in row else zero for j in range(mod.dim)) for row in rows)

    mats = tuple(ev(mod._letters[g, 1]) for g in ("rho", *range(1, mod.n)))
    return SpecializedModule(mod.n, mod.dim, mats)


def common_eigenvector_exists(spec):
    """True iff the specialized generator matrices share a rational
    eigenvector; only implemented for dim = 2."""
    from fractions import Fraction

    if spec.dim != 2:
        raise DimUnsupported(f"common-eigenvector probe needs dim 2, got {spec.dim}")
    # a scalar matrix fixes every line; the first other one, [[p, r], [s, t]],
    # has the eigenvalues (p + t +- sqrt(D)) / 2 with D = (p - t)^2 + 4rs, and
    # sqrt(D) = isqrt(ab) / b when D = a/b in lowest terms has ab a square; each
    # fixes the line of (r', -p'), (p', r') a nonzero row of the matrix minus lam
    mats = [m for m in spec.mats if m[0][1] or m[1][0] or m[0][0] != m[1][1]]
    if not mats:
        return True
    (p, r), (s, t) = mats[0]
    disc = (p - t) ** 2 + 4 * r * s
    ab = disc.numerator * disc.denominator
    if ab < 0 or (root := math.isqrt(ab)) ** 2 != ab:
        return False
    root = Fraction(root, disc.denominator)
    for lam in {(p + t + root) / 2, (p + t - root) / 2}:
        x, y = (r, lam - p) if p != lam or r else (t - lam, -s)
        # m fixes the line of (x, y) iff m (x, y) is parallel to it
        if all((m[0][0] * x + m[0][1] * y) * y == (m[1][0] * x + m[1][1] * y) * x for m in mats[1:]):
            return True
    return False


def irreducible_at(mod):
    """Desk-scale irreducibility check: no common eigenvector at any of DEFAULT_PROBES."""
    return all(not common_eigenvector_exists(specialize(mod, q0)) for q0 in DEFAULT_PROBES)
