"""The immutable value classes against frozen standard-library data classes.

Every value class of the package is built by ``coxforge._frozen.frozen``.
Each one's fields are pinned below, and each is compared with a twin made
by ``dataclasses.make_dataclass(..., frozen=True)`` from the same fields
and defaults: signature, ``repr``, ``==``, ``hash``, ``__match_args__``,
the errors on assignment and deletion, and pickle and copy round trips,
on values taken from the paper's computations.
"""

import copy
import gc
import dataclasses
import inspect
import itertools
import os
import pickle
import sys
import types

import pytest

from coxforge import _frozen
from coxforge.blowup import BlowupSpec, CIData, Equation, blow_up_weighted_bundle
from coxforge.coxpres import (
    ColumnScale,
    CoxPresentation,
    MonomialIdeal,
    RowDivide,
    RowTransform,
    WellFormingCertificate,
    well_form,
)
from coxforge.formats import BlowupJob, parse_blowup_job
from coxforge.galefan import Fan, WeightedBundleSpec, fan_from_presentation
from coxforge.intlattice import IntMatrix, UnimodularWitness, _SmithForm
from coxforge.singular import ChartReport, QuotientSingularity, weighted_bundle_charts
from coxforge.vgit import Chamber, EndBehavior, GameDiagram, WallCrossing, two_ray_game

from test_acceptance import BLOWUP_SPEC, ELLIPTIC_RAW, F, F2_STACKY, F2_WF, F3, TV

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

FIELDS = {
    IntMatrix: ("entries",),
    UnimodularWitness: ("matrix", "inverse"),
    _SmithForm: ("rows", "diag", "v"),
    MonomialIdeal: ("components",),
    CoxPresentation: ("variables", "weights", "irrelevant", "stacky"),
    RowTransform: ("witness",),
    ColumnScale: ("column", "factor", "row"),
    RowDivide: ("row", "factor"),
    WellFormingCertificate: ("steps",),
    BlowupJob: ("spec", "ci", "target", "bound"),
    Fan: ("lattice_dim", "rays", "max_cones"),
    WeightedBundleSpec: ("n", "m", "omega", "a"),
    QuotientSingularity: ("index", "weights"),
    ChartReport: ("chart", "type"),
    Chamber: ("left", "right", "index"),
    WallCrossing: ("wall", "type_vector", "classification", "base_vars", "base_weights"),
    EndBehavior: ("kind", "ray", "target_generators", "contracted_variable", "beyond_count"),
    GameDiagram: ("models", "crossings", "ends", "chambers"),
    BlowupSpec: ("center", "k", "fiber_weights", "b", "new_var"),
    Equation: ("degree", "support", "order"),
    CIData: ("equations",),
}
DEFAULTS = {
    CoxPresentation: {"stacky": False},
    WellFormingCertificate: {"steps": ()},
    BlowupJob: {"target": None, "bound": 1000},
    EndBehavior: {"target_generators": (), "contracted_variable": None, "beyond_count": 0},
    GameDiagram: {"chambers": ()},
    BlowupSpec: {"new_var": "xi"},
    Equation: {"support": None, "order": None},
}
OWN_EQUALITY = {MonomialIdeal}  # set semantics, written in the class body
CLASSES = sorted(FIELDS, key=lambda cls: cls.__name__)


TWINS = types.ModuleType("frozen_twins")  # where pickle finds the twins


def twin_class(cls):
    fields = [
        (name, cls.__annotations__[name], *([vars(cls)[name]] if name in vars(cls) else []))
        for name in cls.__match_args__
    ]
    reference = dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, eq=cls not in OWN_EQUALITY
    )
    reference.__module__ = TWINS.__name__
    setattr(TWINS, cls.__name__, reference)
    return reference


TWIN = {cls: twin_class(cls) for cls in FIELDS}


def twin(value):
    return TWIN[type(value)](*(getattr(value, n) for n in type(value).__match_args__))


def collect(value, out):
    """Every value-class instance reachable through sequences and fields."""
    if isinstance(value, (tuple, list)):
        for item in value:
            collect(item, out)
    elif type(value) in FIELDS:
        out.setdefault(type(value), {}).setdefault(repr(value), value)
        for name in FIELDS[type(value)]:
            collect(getattr(value, name), out)


@pytest.fixture(scope="module")
def samples():
    def job(name):
        with open(os.path.join(EXAMPLES, name)) as fh:
            return parse_blowup_job(fh.read())

    bundles = (WeightedBundleSpec(1, 4, (0, 1, 2, 3, 3), (1, 2, 3, 1, 1)),
               WeightedBundleSpec(2, 2, (0, 1, 1), (1, 2, 3)))
    corpus = [
        two_ray_game(F), two_ray_game(F2_WF), two_ray_game(TV),
        well_form(F2_STACKY), well_form(ELLIPTIC_RAW),
        well_form(blow_up_weighted_bundle(F3, BLOWUP_SPEC)),
        fan_from_presentation(F2_WF), fan_from_presentation(F3),
        bundles, [weighted_bundle_charts(spec) for spec in bundles],
        job("kawamata.job"), job("kawamata-solve.job"),
        _SmithForm.of(F.weights), _SmithForm.of(F2_STACKY.weights),
        WellFormingCertificate(), ColumnScale(0, 3, 1), CIData((Equation((-1, 3), order=1),)),
    ]
    out = {}
    collect(corpus, out)
    return {cls: list(found.values()) for cls, found in out.items()}


def test_every_value_class_is_pinned():
    modules = ("intlattice", "coxpres", "formats", "galefan", "singular", "vgit", "blowup")
    found = {
        value for name in modules for value in vars(sys.modules[f"coxforge.{name}"]).values()
        if isinstance(value, type) and value.__setattr__ is _frozen._refuse_setattr
    }
    assert found == set(FIELDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_and_signature_match_a_frozen_data_class(cls):
    assert cls.__match_args__ == FIELDS[cls]
    assert {n: vars(cls)[n] for n in FIELDS[cls] if n in vars(cls)} == DEFAULTS.get(cls, {})
    assert not dataclasses.is_dataclass(cls)
    reference = TWIN[cls]
    assert reference.__match_args__ == cls.__match_args__
    assert str(inspect.signature(cls)) == str(inspect.signature(reference))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_values_behave_as_their_twins(cls, samples):
    values = samples.get(cls, [])
    assert len(values) >= 2, cls.__name__
    for value in values:
        assert repr(value) == repr(twin(value))
        if cls not in OWN_EQUALITY:
            assert hash(value) == hash(twin(value))
            assert value.__eq__(twin(value)) is NotImplemented  # another class
        assert value != object() and not value == None  # noqa: E711
    for a, b in itertools.product(values, repeat=2):
        if cls in OWN_EQUALITY:
            assert (a == b) == (a._key() == b._key())
        else:
            assert (a == b) == (twin(a) == twin(b))
            assert (a != b) == (twin(a) != twin(b))
    for name in ("__eq__", "__hash__"):
        generated = vars(cls)[name].__code__.co_filename == "<string>"
        assert generated == (cls not in OWN_EQUALITY), name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_as_in_the_twin(cls, samples):
    value = samples[cls][0]
    reference = twin(value)
    before = repr(value)
    for name in (*FIELDS[cls], "other"):
        for change in (lambda v: setattr(v, name, 1), lambda v: delattr(v, name)):
            with pytest.raises(AttributeError) as ours:
                change(value)
            with pytest.raises(AttributeError) as theirs:
                change(reference)
            assert str(ours.value) == str(theirs.value)
    assert repr(value) == before
    assert all(vars(value)[name] is getattr(value, name) for name in FIELDS[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_copies_round_trip_as_in_the_twin(cls, samples, monkeypatch):
    monkeypatch.setitem(sys.modules, TWINS.__name__, TWINS)
    round_trips = (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy)
    for value in samples[cls]:
        for round_trip in round_trips:
            again = round_trip(value)
            assert type(again) is cls and again is not value
            assert repr(again) == repr(round_trip(twin(value))) == repr(value)
            if cls not in OWN_EQUALITY:
                assert again == value and hash(again) == hash(value)
            assert {n: vars(again)[n] for n in FIELDS[cls]} == {
                n: vars(value)[n] for n in FIELDS[cls]
            }


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_constructor_calls_the_post_init_bound_on_the_class(cls, samples, monkeypatch):
    value = samples[cls][0]
    args = [getattr(value, name) for name in FIELDS[cls]]
    calls = []
    if "__post_init__" in vars(cls):
        original = vars(cls)["__post_init__"]

        def rebound(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", rebound)
        made = cls(*args)
        assert len(calls) == 1 and calls[0] is made and repr(made) == repr(value)
    else:
        # As in a data class, a validator added after the class was made
        # is never called.
        monkeypatch.setattr(cls, "__post_init__", calls.append, raising=False)
        assert repr(cls(*args)) == repr(value) and calls == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickles_and_copies_carry_the_fields_only(cls, samples):
    assert vars(cls)["__getstate__"].__code__.co_filename == "<string>"  # generated
    for value in samples[cls]:
        vars(value)["_extra"] = object()  # what ``kept`` stores, by hand
        try:
            assert value.__getstate__() == {n: getattr(value, n) for n in FIELDS[cls]}
            for again in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                          copy.deepcopy(value)):
                assert list(vars(again)) == list(FIELDS[cls])
        finally:
            del vars(value)["_extra"]


# ---------------------------------------------------------------------------
# the kept-value helper


@_frozen.frozen
class Box:
    content: tuple


class TestKept:
    """The rules of ``_frozen.kept``, once; the sites keep their own tests."""

    @staticmethod
    def keeper(result):
        """A kept function returning ``result(value)``, and its calls."""
        calls = []

        @_frozen.kept("_result")
        def compute(value):
            """What is kept."""
            calls.append(value)
            return result(value)

        return compute, calls

    def test_computed_once_per_object_and_shared(self):
        compute, calls = self.keeper(lambda box: (len(box.content),))
        box = Box((1, 2))
        first = compute(box)
        assert compute(box) is first and vars(box)["_result"] is first
        assert calls == [box]
        twin = Box((1, 2))  # an equal value is another object
        assert compute(twin) == first and calls == [box, twin]
        assert compute.__name__ == "compute" and compute.__doc__ == "What is kept."

    def test_value_semantics_ignore_what_is_kept(self):
        compute, _ = self.keeper(lambda box: (box.content[0],))
        box = Box((7,))
        before = (hash(box), repr(box), pickle.dumps(box), box == Box((7,)))
        compute(box)
        assert "_result" in vars(box)
        assert (hash(box), repr(box), pickle.dumps(box), box == Box((7,))) == before
        for twin in (pickle.loads(pickle.dumps(box)), copy.copy(box), copy.deepcopy(box)):
            assert twin == box and "_result" not in vars(twin)

    def test_a_failure_is_never_kept(self):
        def fail(box):
            raise ValueError(f"no {box.content}")

        compute, calls = self.keeper(fail)
        box = Box(())
        for _ in range(3):
            with pytest.raises(ValueError, match=r"no \(\)"):
                compute(box)
        assert len(calls) == 3 and "_result" not in vars(box)

    @pytest.mark.parametrize(
        "result", [lambda box: box, lambda box: (box, ()), lambda box: ((), box)],
        ids=["itself", "first-item", "last-item"],
    )
    def test_a_result_holding_the_value_is_not_kept(self, result):
        compute, calls = self.keeper(result)
        box = Box((1,))
        assert compute(box) == result(box) and compute(box) == result(box)
        assert len(calls) == 2 and "_result" not in vars(box)
        gc.collect()
        gc.disable()
        try:
            del box
            assert gc.collect() == 0  # no reference cycle was made
        finally:
            gc.enable()

    def test_a_method_keeps_on_self(self):
        @_frozen.frozen
        class Pair:
            left: int
            right: int

            @_frozen.kept("_total")
            def total(self):
                return self.left + self.right

        pair = Pair(2, 3)
        assert pair.total() == 5 and vars(pair)["_total"] == 5
        assert pair == Pair(2, 3) and repr(pair).endswith("Pair(left=2, right=3)")
