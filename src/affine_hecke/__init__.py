"""Exact symbolic computation in extended affine type-A Hecke algebras.

Core layers: Laurent-polynomial coefficients, window-notation affine
permutations, the standard and (rank-2) Kazhdan-Lusztig bases with the
standard trace and sesquilinear form, parabolic embeddings, the Bernstein
normal form, Zelevinsky tensor-product induction of exact matrix modules,
the truncated cyclic quotient module and its projection, and the
Grothendieck-level pairing lab.

``import affine_hecke`` loads no layer: each public name is looked up in
``_HOME`` and its layer imported on the first read (PEP 562), so a caller
pays only for the layers it uses.  Submodules import as usual.
"""

from importlib import import_module

# public name -> the layer that defines it
_HOME = {
    name: layer
    for layer, names in {
        "bernstein": "BernsteinElt bernstein_mul bl_commute from_bernstein to_bernstein",
        "errors": "AffineHeckeError BadIndex DimUnsupported InvalidValue NonIntegralCorrection ParseError "
        "RankMismatch RankUnsupported ShiftNonzero TruncationExceeded ZeroSpecialization",
        "example_n2": "UVec pi_uw u_act u_reduce",
        "hecke": "HeckeElt KLLabel alt_word b_gen bott_samelson form kl_mul_closed kl_to_std rho_gen "
        "std_to_kl t_gen t_inv_gen word_elt",
        "laurent": "ONE Q Q2 QINV ZERO LaurentPoly",
        "modules": "FinDimModule common_eigenvector_exists induce module_check_relations module_y "
        "specialize trivial_module",
        "pairing": "GradedRank graded_hom_rank y_class",
        "parabolic": "ParabolicContext bernstein_y bernstein_y_inv min_coset_reps psi psi_L psi_R",
        "weyl": "AffinePerm ReducedExpr bruhat_leq from_rex identity rho simple",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
