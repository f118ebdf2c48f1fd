"""Value semantics shared by mmw's immutable data classes."""

import copy
import pickle

import pytest

from mmw import formula as fm
from mmw.axiom import (AxiomVariant, ErratumVariant, NamedSystem, alpha_for,
                       system_of, variant_collapse)
from mmw.context import context
from mmw.kripke import (CorrespondenceReport, Frame, Model, correspondence_check,
                        find_countermodel)
from mmw.lattice import CMM, STAR, HasseDiagram, SystemCoord, cmm_from_coords, collapse
from mmw.minmatrix import Minmatrix, normalize
from mmw.orbit import PrimeOrbit
from mmw.substitution import DependencyClass, Substitution

P = fm.Var(0)
K11 = context(1, 1)
COORD = SystemCoord("K", 1, STAR)
VARIANT = AxiomVariant(1, "D", "[]p->p")

# (make, a value of the same class with other fields, field names); make()
# builds a fresh equal value on every call.  The constants have no fields,
# so their unequal value is the other constant.
CASES = {
    "Formula": (fm.Formula, fm.Const0(), ()),
    "Const0": (fm.Const0, fm.Const1(), ()),
    "Const1": (fm.Const1, fm.Const0(), ()),
    "Var": (lambda: fm.Var(0), fm.Var(1), ("index",)),
    "Not": (lambda: fm.Not(fm.Var(0)), fm.Not(fm.Var(1)), ("child",)),
    "Box": (lambda: fm.Box(fm.Var(0)), fm.Box(fm.Const0()), ("child",)),
    "Diamond": (lambda: fm.Diamond(fm.Var(0)), fm.Diamond(fm.Var(1)), ("child",)),
    "And": (lambda: fm.And(P, fm.Var(1)), fm.And(P, P), ("left", "right")),
    "Or": (lambda: fm.Or(P, fm.Var(1)), fm.Or(fm.Var(1), P), ("left", "right")),
    "Implies": (lambda: fm.Implies(P, P), fm.Implies(fm.Var(1), P), ("left", "right")),
    "Iff": (lambda: fm.Iff(P, fm.Const1()), fm.Iff(P, fm.Const0()), ("left", "right")),
    "Frame": (lambda: Frame((2, 1)), Frame((2, 0)), ("rows",)),
    "Model": (lambda: Model(Frame((1,)), 1, (0,)), Model(Frame((1,)), 1, (1,)),
              ("frame", "v", "assignment")),
    "CorrespondenceReport": (lambda: CorrespondenceReport(COORD, 1, 2, 18, ()),
                             CorrespondenceReport(COORD, 1, 3, 18, ()),
                             ("coord", "v", "max_worlds", "frames_checked",
                              "violations")),
    "SystemCoord": (lambda: SystemCoord("K", 1, STAR), SystemCoord("D", 1, STAR),
                    ("plane", "x", "y")),
    "CMM": (lambda: CMM(K11, COORD, 15), CMM(K11, COORD, 14), ("ctx", "coord", "orbits")),
    "HasseDiagram": (lambda: HasseDiagram((), ()),
                     HasseDiagram((), ((COORD, COORD, "Vv0"),)), ("nodes", "edges")),
    "AxiomVariant": (lambda: AxiomVariant(1, "D", "[]p->p"),
                     AxiomVariant(1, "K", "[]p->p"), ("v", "base", "text")),
    "ErratumVariant": (lambda: ErratumVariant(2, "K", "p", ("K", 0, 0)),
                       ErratumVariant(2, "K", "p", ("K", 0, 0), "q"),
                       ("v", "base", "text", "lands_at", "corrected")),
    "NamedSystem": (lambda: NamedSystem("T", COORD, 1, (VARIANT,)),
                    NamedSystem("T", COORD, 2, (VARIANT,)),
                    ("name", "coord", "origin_v", "variants", "errata")),
    "Substitution": (lambda: Substitution(1, (1, 1)), Substitution(1, (1, 0)),
                     ("v", "g")),
    "DependencyClass": (lambda: DependencyClass(((0, 2),), 2, Substitution(1, (1, 1))),
                        DependencyClass(((0, 2),), 3, Substitution(1, (1, 1))),
                        ("key", "size", "representative")),
    "Minmatrix": (lambda: Minmatrix(K11, 5), Minmatrix(context(1, 0), 5),
                  ("ctx", "bits")),
    "PrimeOrbit": (lambda: PrimeOrbit("Dd0", Minmatrix(K11, 66)),
                   PrimeOrbit("Dw1", Minmatrix(K11, 66)), ("label", "matrix")),
}


@pytest.mark.parametrize("name", list(CASES))
def test_record_semantics(name):
    make, other, fields = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    assert a != other and not a == other
    assert repr(a) == f"{name}(" + ", ".join(
        f"{f}={getattr(a, f)!r}" for f in fields) + ")"
    for attr in fields or ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == b
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_defaults_and_type_sensitive_equality():
    assert ErratumVariant(2, "K", "p", ("K", 0, 0)).corrected is None
    assert NamedSystem("T", COORD, 1, (VARIANT,)).errata == ()
    assert fm.Const0() != fm.Const1()
    assert fm.Not(fm.Var(0)) != fm.Box(fm.Var(0))
    assert fm.Box(P) != fm.Diamond(P)
    assert fm.And(P, P) != fm.Or(P, P)
    assert fm.Implies(P, P) != fm.Iff(P, P)
    assert fm.Formula() != fm.Const0()
    assert len({fm.Const0(), fm.Const1(), fm.Const0()}) == 2


@pytest.mark.parametrize("build", [
    lambda: CMM(K11, COORD),                            # too few fields
    lambda: CMM(K11, COORD, 15, 0),                     # too many
    lambda: ErratumVariant(2, "K", "p"),                # too few past the default
    lambda: NamedSystem("T", COORD, 1, (VARIANT,), (), None),
], ids=["too-few", "too-many", "too-few-with-default", "too-many-with-default"])
def test_default_constructor_refuses_a_wrong_field_count(build):
    with pytest.raises(TypeError, match=r"^(CMM|ErratumVariant|NamedSystem)\(\) takes \d fields"):
        build()


@pytest.mark.parametrize("from_list,from_tuple", [
    (lambda: Frame([2, 1]), lambda: Frame((2, 1))),
    (lambda: Model(Frame([1]), 1, [0]), lambda: Model(Frame((1,)), 1, (0,))),
    (lambda: Substitution(1, [1, 0]), lambda: Substitution(1, (1, 0))),
], ids=["Frame", "Model", "Substitution"])
def test_sequence_fields_stored_as_tuples(from_list, from_tuple):
    # a list argument is stored as a tuple, so the value equals and hashes
    # like the one built from a tuple
    a, b = from_list(), from_tuple()
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("build", [
    lambda: Frame(()),                          # no worlds
    lambda: Frame((2,)),                        # row out of range
    lambda: Frame((1, -1)),
    lambda: Model(Frame((1,)), 1, (0, 1)),      # wrong assignment length
    lambda: Model(Frame((1,)), 1, (2,)),        # assignment out of range
    lambda: Substitution.from_tables(2, (1,)),  # wrong table count
    lambda: Substitution.from_tables(1, (4,)),  # table out of range
    lambda: Substitution(1, (0,)),              # wrong image count
    lambda: Substitution(1, (0, 2)),            # image out of range
    lambda: Substitution(1, (-1, 0)),
    lambda: SystemCoord("X", 0, 0),             # bad plane
    lambda: SystemCoord("K", "1", 0),           # coordinate neither int nor '*'
], ids=["frame-empty", "frame-row", "frame-negative-row", "model-length",
        "model-range", "subst-count", "subst-range", "subst-image-count",
        "subst-image-range", "subst-image-negative", "coord-plane", "coord-value"])
def test_constructor_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_pipeline_never_compares_or_hashes_formulas(monkeypatch):
    # normalize interns a formula into integer keys, so no stage compares
    # or hashes formula trees; a memo keyed on formulas would fail here
    def refuse(*args):
        raise AssertionError("a formula was compared or hashed")

    for cls in (fm.Formula, fm.Const0, fm.Const1, fm.Var, fm.Not, fm.And, fm.Or,
                fm.Implies, fm.Iff, fm.Box, fm.Diamond):
        monkeypatch.setattr(cls, "__eq__", refuse)
        monkeypatch.setattr(cls, "__hash__", refuse)
    assert system_of(fm.parse("[]p->p")) == (SystemCoord("D", 0, STAR), 1)
    assert system_of(fm.parse("[](p->q)->([]p->[]q)")) == \
        (SystemCoord("K", STAR, STAR), 2)
    t = SystemCoord("D", 0, 1)
    assert variant_collapse(AxiomVariant(1, "K", "[]p->p")) == \
        cmm_from_coords(t, 1).matrix
    kw = SystemCoord("K", 1, 2)
    assert collapse(normalize(alpha_for(kw, 2), context(2, 1))) == \
        cmm_from_coords(kw, 2).matrix
    report = correspondence_check(1, t, 3)
    assert report.ok and report.frames_checked == 2 + 16 + 512
    frame, model, world = find_countermodel(fm.parse("[]p->p"))
    assert (frame.rows, model.assignment, world) == ((0,), (0,), 0)
    frame, model, world = find_countermodel(fm.parse("[]p->[][]p"))
    assert (frame.rows, model.assignment, world) == ((2, 1), (0, 1), 0)
