"""The immutable records: construction, equality, hashing, repr and
immutability of every errors.Record type, and one object per value for the
hash-consed (errors.Interned) ones; and which modules an ahecke start-up
loads, since the record base is what keeps dataclasses out of it."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import affine_hecke
from affine_hecke import checks, expr, hecke, modules, pairing, parabolic, weyl
from affine_hecke.errors import BadIndex, Interned, InvalidValue, Record
from affine_hecke.laurent import Q, QINV, ONE, ZERO
from affine_hecke.modules import FinDimModule, induce, mat_eye, one_dimensional, trivial_module

SRC = Path(__file__).resolve().parents[1] / "src"

# id -> (type, field values of one instance); the id is the type's name, but
# Sum and Prod are also sampled in the shape parse builds for each operator,
# named by it: Add for a + b, Sub for a - b, Neg for -a and Mul for a*b
ONE_PLUS_Q = ((1, expr.Num(1)), (1, expr.QAtom()))
SAMPLES = {
    "AffinePerm": (weyl.AffinePerm, (3, (2, 1, 3))),
    "ReducedExpr": (weyl.ReducedExpr, (1, (0, 1))),
    "KLLabel": (hecke.KLLabel, (1, (0, 1))),
    "ParabolicContext": (parabolic.ParabolicContext, (3, 1)),
    "GradedRank": (pairing.GradedRank, (Q + ONE,)),
    "SpecializedModule": (modules.SpecializedModule, (1, 1, (((Fraction(2),),),))),
    "Num": (expr.Num, (3,)),
    "QAtom": (expr.QAtom, ()),
    "RhoAtom": (expr.RhoAtom, ()),
    "TAtom": (expr.TAtom, (1,)),
    "BWord": (expr.BWord, ((0, 1),)),
    "BS": (expr.BS, ((1, 2),)),
    "YAtom": (expr.YAtom, (2,)),
    "UAtom": (expr.UAtom, (3, True)),
    "Sum": (expr.Sum, (((-1, expr.Num(1)), (1, expr.QAtom()), (-1, expr.RhoAtom())),)),  # -1 + q - rho
    "Add": (expr.Sum, (ONE_PLUS_Q,)),  # 1 + q
    "Sub": (expr.Sum, (((1, expr.Num(1)), (-1, expr.QAtom())),)),  # 1 - q
    "Neg": (expr.Sum, (((-1, expr.Num(1)),),)),  # -1
    "Prod": (expr.Prod, ((expr.Num(1), expr.QAtom(), expr.RhoAtom()),)),  # 1*q*rho
    "Mul": (expr.Prod, ((expr.Num(1), expr.QAtom()),)),  # 1*q
    "Pow": (expr.Pow, (expr.QAtom(), 2)),
}
IDS = sorted(SAMPLES)
CASES = [SAMPLES[i] for i in IDS]
INTERNED = sorted({cls for cls, _ in CASES if issubclass(cls, Interned)}, key=lambda cls: cls.__name__)


def test_every_record_type_is_sampled():
    assert set(Record.__subclasses__()) == {cls for cls, _ in CASES} | {FinDimModule}


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_construction_by_position_and_keyword(cls, values):
    obj = cls(*values)
    assert tuple(getattr(obj, f) for f in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == obj
    if values:
        assert cls(values[0], **dict(zip(cls._fields[1:], values[1:]))) == obj
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, extra=0)
    if values:
        with pytest.raises(TypeError):
            cls(*values[1:])


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_equality_and_hash_go_by_fields(cls, values):
    a, b = cls(*values), cls(*values)
    # a hash-consed record type builds one object per value
    assert (a is b) == issubclass(cls, Interned)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != values and a != object()


@pytest.mark.parametrize(
    "a, b",
    [
        (hecke.KLLabel(1, (0, 1)), weyl.ReducedExpr(1, (0, 1))),
        (expr.Sum(ONE_PLUS_Q), expr.Prod(ONE_PLUS_Q)),
        (expr.TAtom(1), expr.YAtom(1)),
        (expr.QAtom(), expr.RhoAtom()),
        (parabolic.ParabolicContext(3, 1), weyl.ReducedExpr(3, 1)),
    ],
    ids=["KLLabel-ReducedExpr", "Sum-Prod", "TAtom-YAtom", "QAtom-RhoAtom", "ParabolicContext-ReducedExpr"],
)
def test_record_types_with_equal_fields_are_unequal(a, b):
    assert tuple(getattr(a, f) for f in a._fields) == tuple(getattr(b, f) for f in b._fields)
    assert a != b and b != a


def test_unequal_fields_are_unequal():
    assert hecke.KLLabel(1, (0, 1)) != hecke.KLLabel(0, (0, 1))
    assert weyl.AffinePerm(2, (2, 1)) != weyl.AffinePerm(2, (1, 2))
    assert expr.UAtom(3, True) != expr.UAtom(3, False)


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, values):
    obj = cls(*values)
    for name in (*cls._fields, *cls.__slots__, "new_attribute"):
        before = getattr(obj, name, None)
        with pytest.raises(AttributeError, match=name):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=name):
            delattr(obj, name)
        assert getattr(obj, name, None) is before


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_repr_keeps_the_dataclass_form(cls, values):
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(hecke.KLLabel(m=0, word=(1,))) == "KLLabel(m=0, word=(1,))"
    assert repr(weyl.AffinePerm(2, (2, 1))) == "AffinePerm(n=2, window=(2, 1))"
    assert str(weyl.AffinePerm(2, (2, 1))) == "AffinePerm(n=2, window=(2, 1))"
    assert repr(expr.Sum(((1, expr.Num(1)), (-1, expr.UAtom(2, True))))) == (
        "Sum(terms=((1, Num(value=1)), (-1, UAtom(index=2, primed=True))))"
    )
    assert repr(expr.Prod((expr.QAtom(), expr.TAtom(1)))) == "Prod(factors=(QAtom(), TAtom(index=1)))"
    assert repr(expr.QAtom()) == "QAtom()"
    assert repr(trivial_module(2)) == "FinDimModule(n=2, dim=1)"


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_pickle_round_trip(cls, values):
    obj = cls(*values)
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_validation_runs_for_keyword_construction():
    with pytest.raises(BadIndex):
        hecke.KLLabel(m=0, word=(1, 1))
    with pytest.raises(InvalidValue):
        weyl.AffinePerm(n=2, window=(1, 1))
    with pytest.raises(BadIndex):
        parabolic.ParabolicContext(n=3, k=3)


@pytest.mark.parametrize("cls", INTERNED, ids=lambda cls: cls.__name__)
def test_interned_records_are_one_object_per_value(cls):
    values = SAMPLES[cls.__name__][1]
    obj = cls(*values)
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert cls._table[values] is obj
    for same in (
        cls(**dict(zip(cls._fields, values))),
        pickle.loads(pickle.dumps(obj)),
        copy.copy(obj),
        copy.deepcopy(obj),
        cls(*(tuple(list(v)) if type(v) is tuple else v for v in values)),  # rebuilt field values
    ):
        assert same is obj


def test_kl_labels_from_products_are_the_interned_ones():
    label = hecke.KLLabel(1, (0, 1))
    (by_std,) = hecke.std_to_kl(hecke.kl_to_std(label))
    (by_product,) = hecke.kl_mul_closed(hecke.KLLabel(1, (0,)), hecke.KLLabel(0, (1,)))
    assert by_std is by_product is hecke.KLLabel(1, (1, 0)).reversed() is label


@pytest.mark.parametrize(
    "cls, values, error",
    [(weyl.AffinePerm, (2, (1, 3)), InvalidValue), (hecke.KLLabel, (0, (1, 1)), BadIndex)],
    ids=["AffinePerm", "KLLabel"],
)
def test_failed_construction_leaves_nothing_behind(cls, values, error):
    for _ in range(2):
        with pytest.raises(error):
            cls(*values)
        assert values not in cls._table


# each value is far from anything the package builds, so its first
# construction misses the table and the second one, after the value made
# of ints, hits it
NON_INTEGER_FIELDS = [
    (weyl.AffinePerm, (2, (-999.0, -998.0)), InvalidValue),
    (weyl.AffinePerm, (2.0, (-997, -996)), InvalidValue),
    (weyl.AffinePerm, (True, (-995,)), InvalidValue),
    (weyl.AffinePerm, (2, (-993, False)), InvalidValue),
    (weyl.AffinePerm, (2, [-991, -990]), InvalidValue),
    (hecke.KLLabel, (-999.0, (0,)), BadIndex),
    (hecke.KLLabel, (-998, (0.0, 1)), BadIndex),
    (hecke.KLLabel, (-997, (True, 0)), BadIndex),
    (hecke.KLLabel, (True, (0, 1) * 40), BadIndex),
    (hecke.KLLabel, (-996, [0, 1]), BadIndex),
]


NON_INTEGER_IDS = [
    "perm-float-entry", "perm-float-n", "perm-bool-n", "perm-bool-entry", "perm-list-window",
    "label-float-m", "label-float-letter", "label-bool-letter", "label-bool-m", "label-list-word",
]


@pytest.mark.parametrize("cls, bad, error", NON_INTEGER_FIELDS, ids=NON_INTEGER_IDS)
def test_non_integer_fields_are_rejected_on_a_miss_and_a_hit(cls, bad, error):
    good = tuple(tuple(map(int, v)) if isinstance(v, (tuple, list)) else int(v) for v in bad)
    assert good not in cls._table
    with pytest.raises(error):
        cls(*bad)
    assert good not in cls._table
    obj = cls(*good)
    with pytest.raises(error):
        cls(*bad)
    assert cls(*good) is obj and cls._table[good] is obj


def test_non_integer_fields_are_rejected_where_ints_were_built_first():
    weyl.identity(2), hecke.KLLabel(0, (0, 1)), hecke.KLLabel(1, (0,))
    with pytest.raises(InvalidValue):
        weyl.AffinePerm(2, (1.0, 2.0))
    with pytest.raises(BadIndex):
        hecke.KLLabel(0, (0.0, 1))
    with pytest.raises(BadIndex):
        hecke.KLLabel(True, (0,))
    with pytest.raises(BadIndex):
        hecke.kl_to_std(hecke.KLLabel(1.0, (0,)))
    with pytest.raises(InvalidValue):
        weyl.identity(True)
    with pytest.raises(InvalidValue):
        weyl.simple(2, True)


def test_window_of_the_wrong_length_is_rejected_when_interned():
    assert weyl.AffinePerm(2, (2, 1)) is weyl.AffinePerm(2, (2, 1))
    assert weyl.AffinePerm(3, (2, 1, 3)) is weyl.AffinePerm(3, (2, 1, 3))
    with pytest.raises(InvalidValue):
        weyl.AffinePerm(3, (2, 1))
    with pytest.raises(InvalidValue):
        weyl.AffinePerm(2, (2, 1, 3))


def test_list_window_is_an_invalid_value_on_a_miss_and_a_hit():
    for _ in range(2):
        with pytest.raises(InvalidValue):
            weyl.AffinePerm(2, [2, 1])
        weyl.AffinePerm(2, (2, 1))


def test_threads_racing_on_new_values_get_one_object():
    windows = [(m + 1, m + 2) for m in range(10_000, 10_500)]
    assert not any((2, w) in weyl.AffinePerm._table for w in windows)
    barrier = threading.Barrier(4, timeout=60)
    built = [None] * 4

    def build(slot):
        barrier.wait()
        built[slot] = [weyl.AffinePerm(2, w) for w in windows]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, w in enumerate(windows):
        obj = weyl.AffinePerm._table[(2, w)]
        assert all(objs[k] is obj for objs in built)


def test_modules_are_unhashable_records():
    mod = induce(trivial_module(1), trivial_module(1))
    assert FinDimModule.__hash__ is None
    with pytest.raises(TypeError):
        hash(mod)
    for name in ("n", "dim", "_letters"):
        with pytest.raises(AttributeError, match=name):
            delattr(mod, name)
    assert mod == induce(trivial_module(1), trivial_module(1))
    assert mod != trivial_module(2)
    copy = pickle.loads(pickle.dumps(mod))
    assert copy == mod and copy.rho_mat == mod.rho_mat


@pytest.mark.parametrize(
    "build",
    [
        lambda: induce(trivial_module(4), trivial_module(4)),
        lambda: one_dimensional(3, -Q, Q * Q),
        lambda: FinDimModule(2, 2, (((QINV, ZERO), (ZERO, -Q)),), mat_eye(2)),  # criterion 10's control
    ],
    ids=["induced-dim-70", "one-dimensional", "reducible-2x2"],
)
def test_modules_pickle_and_copy_through_their_rows(build, monkeypatch):
    mod = build()

    def forbidden(*args):
        raise AssertionError("a copy built a dense matrix or ran the elimination")

    # a copy carries the stored rows: no dense matrix and no elimination
    monkeypatch.setattr(modules, "_dense", forbidden)
    monkeypatch.setattr(modules, "_gauss_jordan", forbidden)
    for same in (pickle.loads(pickle.dumps(mod)), copy.copy(mod), copy.deepcopy(mod)):
        assert same == mod
        assert all(same._letters[key] == rows for key, rows in mod._letters.items())
        assert same._letters.keys() == mod._letters.keys()


def test_check_result_is_a_plain_mutable_class():
    res = checks.CheckResult(1, "name", True, "detail", 0.5, 1.0)
    assert res.ok
    res.elapsed = 2.0
    assert not res.ok
    assert not isinstance(res, Record)


# what no ahecke start-up loads: the record base keeps dataclasses (and the
# inspect, ast and dis it imports) out, and each layer below is imported
# only by the commands that use it
NOT_AT_START = (
    "dataclasses", "inspect", "fractions", "affine_hecke.checks", "affine_hecke.modules",
    "affine_hecke.bernstein", "affine_hecke.parabolic", "affine_hecke.example_n2",
)


def _loaded_in_fresh_process(code, watch):
    """The modules of watch loaded after code runs in a fresh interpreter."""
    code += f"\nimport sys\nprint(sorted(m for m in {watch!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60)
    return out.stdout.strip()


def _after_command(argv, watch):
    code = (
        "import contextlib, io\n"
        "from affine_hecke import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )
    return _loaded_in_fresh_process(code, watch)


def test_cli_import_loads_no_dataclasses():
    assert _loaded_in_fresh_process("import affine_hecke.cli", NOT_AT_START) == "[]"
    assert _loaded_in_fresh_process("import affine_hecke", ("affine_hecke.errors", *NOT_AT_START)) == "[]"


@pytest.mark.parametrize(
    "argv, watch",
    [
        (["eval", "-n", "3", "T1*rho^-2 + q*b0 - T2^-1"], NOT_AT_START),
        (["yclass", "1", "-2"], ("affine_hecke.expr", *NOT_AT_START)),
        (["gradedrank", "b01", "rho*b10"], ("affine_hecke.expr", *NOT_AT_START)),
        (
            ["induce", "--n", "3", "--k", "1", "--right", "trivial:2"],
            ("fractions", "affine_hecke.bernstein", "affine_hecke.expr", "affine_hecke.example_n2"),
        ),
        (["reduce-u", "b01 - rho*T1"], tuple(m for m in NOT_AT_START if m != "affine_hecke.example_n2")),
        (["pi-uw", "u1 - q*u'2"], ("dataclasses", "inspect", "fractions", "affine_hecke.bernstein", "affine_hecke.checks")),
    ],
    ids=["eval", "yclass", "gradedrank", "induce", "reduce-u", "pi-uw"],
)
def test_commands_load_only_the_layers_they_use(argv, watch):
    assert _after_command(argv, watch) == "[]"


def test_package_names_resolve_to_their_defining_layer():
    assert set(affine_hecke.__all__) <= set(dir(affine_hecke))
    for name in affine_hecke.__all__:
        layer = importlib.import_module(f"affine_hecke.{affine_hecke._HOME[name]}")
        obj = getattr(affine_hecke, name)
        assert obj is getattr(layer, name)
        assert obj.__module__ == layer.__name__, name  # defined there, not imported
    with pytest.raises(AttributeError, match="no_such_name"):
        affine_hecke.no_such_name
    with pytest.raises(ImportError):
        from affine_hecke import no_such_name  # noqa: F401
    from affine_hecke import modules as submodule

    assert submodule is modules is importlib.import_module("affine_hecke.modules")
