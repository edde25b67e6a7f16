"""Every memo is a functools.cache: clearing them all changes no answer."""

import importlib
import pkgutil

import affine_hecke
from affine_hecke import hecke
from affine_hecke.bernstein import from_bernstein, to_bernstein
from affine_hecke.example_n2 import UVec, pi_uw
from affine_hecke.hecke import KLLabel, b_gen, kl_to_std, rho_gen, std_to_kl, t_gen, t_inv_gen
from affine_hecke.laurent import Q
from affine_hecke.modules import induce, trivial_module
from affine_hecke.weyl import rho, simple

MEMOS = {
    "weyl.canonical_rex",
    "hecke._basis_pair_product",
    "hecke._basis_inverse",
    "hecke._kl_std_terms",
    "bernstein._rho_images",
    "bernstein._y_power",
    "example_n2.w_module",
    "example_n2._pi_basis",
}


def all_memos():
    """Every module-level cached function in the package, by name."""
    found = {}
    for info in pkgutil.iter_modules(affine_hecke.__path__):
        mod = importlib.import_module(f"affine_hecke.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def results():
    a = t_gen(3, 1) * rho_gen(3) * t_gen(3, 0) + b_gen(3, 2).scale(Q)
    b = t_inv_gen(3, 2) * rho_gen(3, -1) * t_gen(3, 0)
    single = (rho_gen(3) * t_gen(3, 0) * t_gen(3, 2)).scale(Q)
    label = KLLabel(1, (0, 1, 0))
    rank2 = kl_to_std(label) * t_gen(2, 1) + rho_gen(2, -1)
    normal = to_bernstein(a * b)
    return {
        "product": a * b,
        "inverse": single.inverse(),
        "omega": (a * b).omega(),
        "kl_to_std": kl_to_std(label),
        "std_to_kl": std_to_kl(rank2),
        "to_bernstein": normal,
        "round_trip": from_bernstein(normal),
        "induce": induce(trivial_module(1), trivial_module(2)),
        "pi_uw": pi_uw(UVec.basis(3) + UVec.basis(2, primed=True)),
    }


def test_every_memo_is_found():
    assert set(all_memos()) == MEMOS


def test_cold_results_equal_warm_results():
    warm = results()
    assert warm["round_trip"] == warm["product"]
    for memo in all_memos().values():
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
    assert results() == warm


def test_cached_basis_products_are_tuples():
    x, y = rho(3, 1) * simple(3, 0), simple(3, 1) * simple(3, 2)
    assert isinstance(hecke._basis_pair_product(x, y), tuple)
    assert isinstance(hecke._basis_inverse(x), tuple)
    assert isinstance(hecke._kl_std_terms(KLLabel(0, (1, 0))), tuple)
