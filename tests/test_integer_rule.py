"""One integer rule for every number a caller passes.

Each public integer parameter is a *value* (coerced by
``intlattice._as_int``) or an *index* (checked by ``intlattice._as_index``).
On a non-integral number, a string, ``None`` or NaN both raise
``InvalidArgumentError`` with the rule's message, never a ``TypeError``, and
an index also refuses ``True`` and ``-1``; ``None`` stays valid where it is
the documented default or unknown.  An integral value gives exactly
what its ``int`` gives, so nothing but ints is stored.  ``IntMatrix``
entries refuse every non-``int``, integral or not.
"""

from fractions import Fraction

import pytest

from coxforge.blowup import (
    BlowupSpec,
    CIData,
    Equation,
    blow_up_wps,
    pullback_order,
    solve_exceptional_weight,
)
from coxforge.coxpres import (
    ColumnScale,
    CoxPresentation,
    MonomialIdeal,
    RowDivide,
    wps_well_form,
)
from coxforge.errors import InvalidArgumentError
from coxforge.galefan import Fan, WeightedBundleSpec, star_subdivision
from coxforge.intlattice import IntMatrix, delete_column, minor_gcd
from coxforge.singular import ChartReport, QuotientSingularity, fixed_point_type
from coxforge.vgit import (
    Chamber,
    EndBehavior,
    WallCrossing,
    anticanonical_in_moving_interior,
    end_behavior,
    graded_ring_generators,
    two_ray_game,
    wall_crossing,
)

NOT_INTEGERS = (1.5, "1", None, float("nan"))
NOT_INDICES = NOT_INTEGERS + (True, -1)
INTEGRAL = (2.0, True)

M = IntMatrix(((1, 1, 0), (0, 1, 1)))
P2 = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
# a scroll with walls (1,0) (0,1) (-1,1) (-2,1) (-3,1) and ends (1,0), (-3,1)
F = CoxPresentation(
    ("y0", "y1", "x0", "x1", "x2", "x3", "x4"),
    IntMatrix(((1, 1, 0, -1, -2, -3, -3), (0, 0, 1, 1, 1, 1, 1))),
    MonomialIdeal(((0, 1), (2, 3, 4, 5, 6))),
)
BUNDLE = WeightedBundleSpec(n=1, m=2, omega=(0, 1, 1), a=(1, 2, 3))
FIBER, B = (1, 2, 3, 1, 1), (4, 2, 3, 1, 1)
SPEC = BlowupSpec((1, 2), 2, FIBER, B)
PATTERN = BlowupSpec((1, 2), 2, FIBER, (None, 2, 3, 1, 1))
CI = CIData((
    Equation((-1, 3), ((1, 0, 0, 0, 1, 0, 0), (0, 0, 2, 0, 0, 1, 0))),
    Equation((-2, 4), ((0, 0, 0, 2, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0))),
))
SINGULAR = QuotientSingularity(1, ())

# name: the call with the value in question, where the value ``x`` is an entry
VALUES = {
    "wps-weight": lambda x: wps_well_form((x, 4, 6)),
    "fan-ray": lambda x: Fan(2, ((1, 0), (x, 1), (-1, -1)), P2.max_cones),
    "subdivide": lambda x: star_subdivision(P2, (x, 1)),
    "bundle-omega": lambda x: WeightedBundleSpec(n=1, m=1, omega=(0, x), a=(1, 1)),
    "bundle-a": lambda x: WeightedBundleSpec(n=1, m=1, omega=(0, 1), a=(1, x)),
    "degree": lambda x: F.degree((x, 0, 0, 0, 0, 0, 1)),
    "chamber-wall": lambda x: Chamber((1, 0), (x, 1), 0),
    "crossing-type": lambda x: WallCrossing((1, 1), (1, x), "Flip", (), ()),
    "end-generator": lambda x: EndBehavior("Fibration", (1, 0), ((1, x),)),
    "crossing-wall": lambda x: wall_crossing(F, (0, x)),
    "end-ray": lambda x: end_behavior(F, (x, 0)),
    "gens-character": lambda x: graded_ring_generators(F, (x, 1), 1),
    "anticanonical-degree": lambda x: anticanonical_in_moving_interior(F, [(x, 0)]),
    "singularity-weight": lambda x: QuotientSingularity(3, (1, x)),
    "wps-blowup-a": lambda x: blow_up_wps((1, 1, x), 1, 1, (1,)),
    "wps-blowup-alpha": lambda x: blow_up_wps((1, 1, 2), 1, x, (1,)),
    "wps-blowup-b": lambda x: blow_up_wps((1, 1, 2), 1, 1, (x,)),
    "blowup-fiber": lambda x: BlowupSpec((1, 2), 2, (1, 2, 3, 1, x), B),
    "blowup-b": lambda x: BlowupSpec((1, 2), 2, FIBER, (4, 2, 3, 1, x)),
    "equation-degree": lambda x: Equation((-1, x)),
    "equation-support": lambda x: Equation((-1, 3), ((1, x),)),
    "pullback-support": lambda x: pullback_order(SPEC, [(1, 0, 0, 0, x, 0, 0)]),
}

# name: (the call with the index ``x``, a valid index)
INDICES = {
    "ideal-variable": (lambda x: MonomialIdeal(((0, x),)), 1),
    "scale-column": (lambda x: ColumnScale(x, 2, 0), 1),
    "scale-row": (lambda x: ColumnScale(0, 2, x), 1),
    "divide-row": (lambda x: RowDivide(x, 2), 1),
    "divide-factor": (lambda x: RowDivide(0, x), 3),
    "fan-dimension": (lambda x: Fan(x, P2.rays, P2.max_cones), 2),
    "fan-cone": (lambda x: Fan(2, P2.rays, ((0, x), (1, 2), (0, 2))), 1),
    "bundle-n": (lambda x: WeightedBundleSpec(n=x, m=1, omega=(0, 1), a=(1, 1)), 1),
    "bundle-m": (lambda x: WeightedBundleSpec(n=1, m=x, omega=(0, 1), a=(1, 1)), 1),
    "singularity-index": (lambda x: QuotientSingularity(x, (1, 1)), 2),
    "chart-base": (lambda x: ChartReport((x, 1), SINGULAR), 0),
    "chart-fiber": (lambda x: ChartReport((0, x), SINGULAR), 0),
    "fixed-point-base": (lambda x: fixed_point_type(BUNDLE, x, 1), 1),
    "fixed-point-fiber": (lambda x: fixed_point_type(BUNDLE, 0, x), 1),
    "chamber-index": (lambda x: Chamber((1, 0), (0, 1), x), 0),
    "gens-bound": (lambda x: graded_ring_generators(F, (1, 1), x), 1),
    "game-bound": (lambda x: two_ray_game(F, x), 1),
    "end-bound": (lambda x: end_behavior(F, (1, 0), x), 1),
    "blowup-k": (lambda x: BlowupSpec((1, 2), x, FIBER, B), 2),
    "blowup-center": (lambda x: BlowupSpec((x, 2), 2, FIBER, B), 1),
    "variable-count": (lambda x: SPEC.exceptional_multiplicities(x), 7),
    "equation-order": (lambda x: Equation((-1, 3), None, x), 4),
    "solve-bound": (lambda x: solve_exceptional_weight(PATTERN, CI, Fraction(1, 3), x), 10),
    "wps-blowup-k": (lambda x: blow_up_wps((1, 1, 2), x, 1, (1,)), 1),
    "minor-size": (lambda x: minor_gcd(M, x), 2),
    "delete-column": (lambda x: delete_column(M, x), 0),
    "identity-size": (lambda x: IntMatrix.identity(x), 2),
}

# where ``None`` is a default bound, an unknown weight or no known order
NONE_ALLOWED = {"blowup-b", "game-bound", "end-bound", "equation-order"}


def refused(name, values):
    return [x for x in values if not (x is None and name in NONE_ALLOWED)]


def outcome(call, x):
    """``("ok", repr of the result)`` or the class and message raised."""
    try:
        return "ok", repr(call(x))
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_rule(name):
    call = VALUES[name]
    for x in refused(name, NOT_INTEGERS):
        assert outcome(call, x) == (InvalidArgumentError, f"non-integer entry {x!r}"), x
    # an integral number answers as its int: same result, same stored repr
    results = [outcome(call, x) for x in INTEGRAL]
    assert results == [outcome(call, int(x)) for x in INTEGRAL]
    assert "ok" in {kind for kind, _ in results}, results


@pytest.mark.parametrize("name", sorted(INDICES))
def test_index_rule(name):
    call, valid = INDICES[name]
    assert outcome(call, valid)[0] == "ok"
    for x in refused(name, NOT_INDICES):
        kind, message = outcome(call, x)
        assert kind is InvalidArgumentError, (x, kind, message)
        assert message.endswith(f" integer, got {x!r}"), (x, message)


def test_positive_index_refuses_zero():
    for call in (lambda: Fan(0, P2.rays, P2.max_cones),
                 lambda: WeightedBundleSpec(n=0, m=1, omega=(0, 1), a=(1, 1)),
                 lambda: QuotientSingularity(0, (1,))):
        with pytest.raises(InvalidArgumentError, match="must be a positive integer, got 0$"):
            call()


@pytest.mark.parametrize("x", NOT_INTEGERS + INTEGRAL + (Fraction(4, 2),))
def test_matrix_entries_are_plain_ints(x):
    for call in (lambda: IntMatrix(((1, x),)), lambda: IntMatrix.from_rows([[x, 4]])):
        with pytest.raises(InvalidArgumentError) as caught:
            call()
        assert str(caught.value) == f"non-integer entry {x!r}"


def test_wps_weights_are_not_truncated():
    assert wps_well_form((2, 4, 6)) == (1, 2, 3)
    with pytest.raises(InvalidArgumentError, match=r"^non-integer entry 2\.5$"):
        wps_well_form((2.5, 4, 6))
