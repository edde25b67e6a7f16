"""Exact symbolic computation in extended affine type-A Hecke algebras.

Core layers: Laurent-polynomial coefficients, window-notation affine
permutations, the standard and (rank-2) Kazhdan-Lusztig bases with the
standard trace and sesquilinear form, parabolic embeddings, the Bernstein
normal form, Zelevinsky tensor-product induction of exact matrix modules,
the truncated cyclic quotient module and its projection, and the
Grothendieck-level pairing lab.
"""

from .bernstein import BernsteinElt, bernstein_mul, bl_commute, from_bernstein, to_bernstein
from .errors import (
    AffineHeckeError,
    BadIndex,
    DimUnsupported,
    InvalidValue,
    NonIntegralCorrection,
    ParseError,
    RankMismatch,
    RankUnsupported,
    ShiftNonzero,
    TruncationExceeded,
    ZeroSpecialization,
)
from .example_n2 import UVec, pi_uw, u_act, u_reduce
from .hecke import (
    HeckeElt,
    KLLabel,
    alt_word,
    b_gen,
    bott_samelson,
    form,
    kl_mul_closed,
    kl_to_std,
    rho_gen,
    std_to_kl,
    t_gen,
    t_inv_gen,
    word_elt,
)
from .laurent import ONE, Q, Q2, QINV, ZERO, LaurentPoly
from .modules import (
    FinDimModule,
    common_eigenvector_exists,
    induce,
    module_check_relations,
    module_y,
    specialize,
    trivial_module,
)
from .pairing import GradedRank, euler_pair, graded_hom_rank, y_class
from .parabolic import (
    ParabolicContext,
    bernstein_y,
    bernstein_y_inv,
    coset_decompose,
    min_coset_reps,
    psi,
    psi_L,
    psi_R,
)
from .weyl import AffinePerm, ReducedExpr, bruhat_leq, from_rex, identity, rho, simple

__version__ = "0.1.0"
