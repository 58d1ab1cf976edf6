"""Value validation against the earlier per-element checks.

The constructors of ``MonomialIdeal``, ``CoxPresentation``, ``Chamber``,
``WallCrossing``, ``EndBehavior`` and ``Fan`` check and coerce their
fields on builtins.  The oracles below are the earlier ``__post_init__``
bodies, which walked every element in Python; they run on a plain
namespace standing in for the value.  On a table of bad inputs both must
raise the same exception class with the same message, and on random
valid inputs both must store the same fields (compared by ``repr``, so a
coerced ``int`` and an ``IntEnum`` member stay apart).  The coercions of
``Chamber``, ``WallCrossing``, ``EndBehavior`` and ``Fan`` (``loop_int``)
refuse a number that ``int`` would truncate and a string that ``int`` would
parse, as ``IntMatrix`` does, and a chamber index is an index: an ``int``,
not a ``bool``, at least 0.
"""

import enum
import itertools
import random
import timeit
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from coxforge.coxpres import CoxPresentation, MonomialIdeal
from coxforge.errors import (
    CoxforgeError,
    InvalidArgumentError,
    RankError,
    UnsupportedFeatureError,
)
from coxforge.galefan import Fan
from coxforge.intlattice import IntMatrix, _SmithForm, rank
from coxforge.vgit import Chamber, EndBehavior, WallCrossing

M = lambda rows: IntMatrix(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# oracles: the per-element bodies, on a namespace


def loop_monomial_ideal(self):
    seen = []
    normal = []
    for comp in self.components:
        entries = tuple(comp)
        if not entries:
            raise InvalidArgumentError("empty ideal component")
        for i in entries:
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise InvalidArgumentError(
                    f"variable index must be a nonnegative integer, got {i!r}"
                )
        key = frozenset(entries)
        if len(key) != len(entries):
            raise InvalidArgumentError(f"repeated index in component {entries}")
        if key in seen:
            continue
        seen.append(key)
        normal.append(tuple(sorted(entries)))
    for a in seen:
        for b in seen:
            if a < b:
                raise InvalidArgumentError(
                    "components must form an antichain: "
                    f"{tuple(sorted(a))} is contained in {tuple(sorted(b))}"
                )
    object.__setattr__(self, "components", tuple(normal))


def loop_max_index(ideal):
    return max((i for comp in ideal.components for i in comp), default=-1)


def loop_is_well_formed(a):
    form = _SmithForm.of(a)
    form.require_standard("weight matrix")
    return all(g == 1 for g in [gcd(*row[form.rows :]) for row in form.v])


def loop_cox_presentation(self):
    object.__setattr__(self, "variables", tuple(self.variables))
    names = self.variables
    if not names:
        raise InvalidArgumentError("need at least one variable")
    for name in names:
        if not isinstance(name, str) or not name.isidentifier():
            raise InvalidArgumentError(f"bad variable name {name!r}")
    if len(set(names)) != len(names):
        raise InvalidArgumentError("variable names must be distinct")
    if not isinstance(self.weights, IntMatrix):
        raise InvalidArgumentError("weights must be an IntMatrix")
    if self.weights.cols != len(names):
        raise InvalidArgumentError(
            f"{len(names)} variables but {self.weights.cols} weight columns"
        )
    if _SmithForm.of(self.weights).rank != self.weights.rows:
        raise RankError("weight matrix must have full row rank")
    for j in range(self.weights.cols):
        if all(e == 0 for e in self.weights.column(j)):
            raise InvalidArgumentError(f"column {j} of the weights is zero")
    if not isinstance(self.irrelevant, MonomialIdeal):
        raise InvalidArgumentError("irrelevant must be a MonomialIdeal")
    if not self.irrelevant.components:
        raise InvalidArgumentError("irrelevant ideal needs at least one component")
    if loop_max_index(self.irrelevant) >= len(names):
        raise InvalidArgumentError(
            f"ideal mentions variable {loop_max_index(self.irrelevant)} "
            f"but there are only {len(names)}"
        )
    if not isinstance(self.stacky, bool):
        raise InvalidArgumentError("stacky must be a bool")
    if not self.stacky and not loop_is_well_formed(self.weights):
        raise InvalidArgumentError(
            "weights are not well-formed; pass stacky=True for the stack"
        )


def loop_int(e):
    """``e`` as an ``int`` when it is an integral float or a rational with
    denominator 1 (``bool`` included); anything else is refused."""
    if isinstance(e, float) and e.is_integer():
        return int(e)
    if isinstance(e, (int, Fraction)) and e.denominator == 1:
        return int(e)
    raise InvalidArgumentError(f"non-integer entry {e!r}")


def loop_chamber(self):
    left = tuple(loop_int(e) for e in self.left)
    right = tuple(loop_int(e) for e in self.right)
    if left == right:
        raise InvalidArgumentError("chamber walls must be distinct")
    if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 0:
        raise InvalidArgumentError(
            f"chamber index must be a nonnegative integer, got {self.index!r}"
        )
    object.__setattr__(self, "left", left)
    object.__setattr__(self, "right", right)


def loop_wall_crossing(self):
    object.__setattr__(self, "wall", tuple(loop_int(e) for e in self.wall))
    object.__setattr__(self, "type_vector", tuple(loop_int(e) for e in self.type_vector))
    object.__setattr__(self, "base_vars", tuple(loop_int(e) for e in self.base_vars))
    object.__setattr__(
        self, "base_weights", tuple(loop_int(e) for e in self.base_weights)
    )
    if any(t == 0 for t in self.type_vector):
        raise InvalidArgumentError("type vector entries must be nonzero")
    total = sum(self.type_vector)
    expected = "Flip" if total > 0 else "AntiFlip" if total < 0 else "Flop"
    if self.classification != expected:
        raise InvalidArgumentError(
            f"classification {self.classification!r} contradicts type sum {total}"
        )
    if len(self.base_vars) != len(self.base_weights):
        raise InvalidArgumentError("base variables and weights must pair up")


def loop_end_behavior(self):
    object.__setattr__(self, "ray", tuple(loop_int(e) for e in self.ray))
    object.__setattr__(
        self,
        "target_generators",
        tuple(tuple(loop_int(e) for e in g) for g in self.target_generators),
    )
    if self.kind not in ("Fibration", "DivisorialContraction"):
        raise InvalidArgumentError(f"unknown end kind {self.kind!r}")
    if self.kind == "DivisorialContraction" and self.contracted_variable is None:
        raise InvalidArgumentError("a contraction must name its variable")
    if self.kind == "Fibration" and self.beyond_count != 0:
        raise InvalidArgumentError("a fibration has no columns beyond the ray")


def loop_fan(self):
    d = self.lattice_dim
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidArgumentError(f"lattice dimension must be a positive integer, got {d!r}")
    rays = tuple(tuple(loop_int(e) for e in ray) for ray in self.rays)
    if not rays:
        raise InvalidArgumentError("a fan needs at least one ray")
    for ray in rays:
        if len(ray) != d:
            raise InvalidArgumentError(f"ray {ray} does not live in Z^{d}")
        if all(e == 0 for e in ray):
            raise InvalidArgumentError("zero vector cannot be a ray")
        if gcd(*ray) != 1:
            raise InvalidArgumentError(f"ray {ray} is not primitive")
    if len(set(rays)) != len(rays):
        raise InvalidArgumentError("rays must be distinct")
    if rank(IntMatrix(rays)) != d:
        raise RankError("rays must span the ambient space")
    cones = tuple(tuple(sorted(set(c))) for c in self.max_cones)
    if not cones:
        raise InvalidArgumentError("a fan needs at least one maximal cone")
    for cone in cones:
        if not cone:
            raise InvalidArgumentError("empty maximal cone")
        if cone[0] < 0 or cone[-1] >= len(rays):
            raise InvalidArgumentError(f"cone {cone} indexes a missing ray")
        sub = IntMatrix(tuple(rays[i] for i in cone))
        if rank(sub) != len(cone):
            raise UnsupportedFeatureError(
                f"cone {cone} is not simplicial (dependent rays)"
            )
    as_sets = [set(c) for c in cones]
    for i, a in enumerate(as_sets):
        for j, b in enumerate(as_sets):
            if i != j and a <= b:
                raise InvalidArgumentError(
                    f"maximal cones must form an antichain: {cones[i]} lies "
                    f"inside {cones[j]}"
                )
    object.__setattr__(self, "rays", rays)
    object.__setattr__(self, "max_cones", cones)


ORACLES = {
    MonomialIdeal: loop_monomial_ideal,
    CoxPresentation: loop_cox_presentation,
    Chamber: loop_chamber,
    WallCrossing: loop_wall_crossing,
    EndBehavior: loop_end_behavior,
    Fan: loop_fan,
}


def outcome(cls, *args):
    """``("ok", repr of the stored fields)`` or ``(error class, message)``."""
    try:
        value = cls(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc), str(exc)
    return "ok", repr([getattr(value, name) for name in cls.__match_args__])


def oracle_outcome(cls, *args):
    names = cls.__match_args__
    defaults = [getattr(cls, name) for name in names[len(args):]]
    ns = SimpleNamespace(**dict(zip(names, [*args, *defaults])))
    try:
        ORACLES[cls](ns)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc), str(exc)
    return "ok", repr([getattr(ns, name) for name in names])


def agree(cls, *args):
    expected = oracle_outcome(cls, *args)
    assert outcome(cls, *args) == expected, (cls.__name__, args)
    return expected


# ---------------------------------------------------------------------------
# bad inputs


class Index(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    MINUS = -1


WF = M([[1, 1, 0, 0], [0, 0, 1, 1]])  # P^1 x P^1
IDEAL = MonomialIdeal(((0, 1), (2, 3)))

BAD = [
    # MonomialIdeal: bools, negatives, IntEnum members, non-ints
    (MonomialIdeal, (((True, 1),),)),
    (MonomialIdeal, (((0, 1), (2, False)),)),
    (MonomialIdeal, (((-1, 2),),)),
    (MonomialIdeal, (((0,), (1, -2)),)),
    (MonomialIdeal, (((Index.ONE, Index.TWO), (Index.ZERO,)),)),
    (MonomialIdeal, (((Index.ONE, Index.MINUS),),)),
    (MonomialIdeal, (((0, 1.0),),)),
    (MonomialIdeal, (((0, "1"),),)),
    (MonomialIdeal, (((0, None),),)),
    (MonomialIdeal, (((),),)),
    (MonomialIdeal, (((0, 0),),)),
    (MonomialIdeal, (((0, 1), (1,)),)),
    (MonomialIdeal, (((2, 1), (1, 2), (3,)),)),
    (MonomialIdeal, ((),)),
    # CoxPresentation: names, duplicates, zero columns, ideal range
    (CoxPresentation, (("x", "1y", "z", "t"), WF, IDEAL)),
    (CoxPresentation, (("x", "y", "a b", "t"), WF, IDEAL)),
    (CoxPresentation, (("x", "y", "", "t"), WF, IDEAL)),
    (CoxPresentation, (("x", "y", 3, "t"), WF, IDEAL)),
    (CoxPresentation, (("x", None, "z", "t"), WF, IDEAL)),
    (CoxPresentation, ((b"x", "y", "z", "t"), WF, IDEAL)),
    (CoxPresentation, (("x", "y", "x", "t"), WF, IDEAL)),
    (CoxPresentation, (("x", "y", "z", "x"), WF, IDEAL)),
    (CoxPresentation, ((), WF, IDEAL)),
    (CoxPresentation, (("x", "y", "z"), WF, IDEAL)),
    (CoxPresentation, (("x", "y", "z", "t"), [[1, 1, 0, 0], [0, 0, 1, 1]], IDEAL)),
    (CoxPresentation, (("x", "y", "z", "t"), M([[0, 1, 1, 0], [0, 0, 1, 1]]), IDEAL, True)),
    (CoxPresentation, (("x", "y", "z", "t"), M([[1, 0, 1, 0], [0, 0, 1, 1]]), IDEAL, True)),
    (CoxPresentation, (("x", "y", "z", "t"), M([[1, 1, 1, 0], [0, 1, 1, 0]]), IDEAL, True)),
    (CoxPresentation, (("x", "y", "z", "t"), M([[1, 0, 0, 1], [0, 0, 0, 1]]), IDEAL, True)),
    (CoxPresentation, (("x", "y", "z", "t"), M([[1, 1, 0, 0], [2, 2, 0, 0]]), IDEAL, True)),
    (CoxPresentation, (("x", "y", "z", "t"), WF, ((0, 1), (2, 3)))),
    (CoxPresentation, (("x", "y", "z", "t"), WF, MonomialIdeal(((0, 4),)))),
    (CoxPresentation, (("x", "y", "z", "t"), WF, IDEAL, 1)),
    (CoxPresentation, (("x", "y", "z", "t"), M([[2, 2, 0, 0], [0, 0, 1, 1]]), IDEAL)),
    (CoxPresentation, (("x", "y", "z", "t"), M([[1, 3, 0, 0], [0, 0, 1, 1]]), IDEAL)),
    (CoxPresentation, (["x", "y", "z", "t"], WF, MonomialIdeal(((Index.ONE,), (3, 2))))),
    # Chamber, WallCrossing, EndBehavior: coercions and their checks
    (Chamber, ((True, 0), (0, 1), 0)),
    (Chamber, ((1, 0), (1.0, 0.0), 0)),
    (Chamber, ((1, 0), (0, 1), -1)),
    (Chamber, (("a", 0), (0, 1), 0)),
    (Chamber, ((None, 0), (0, 1), 0)),
    (Chamber, (3, (0, 1), 0)),
    (Chamber, ((Index.ONE, 0), (0, 1.9), 2)),
    (WallCrossing, ((1, 1), (1, False, 2), "Flip", (), ())),
    (WallCrossing, ((1, 1), (1, 0.5), "Flip", (), ())),
    (WallCrossing, ((1, 1), (1, "x"), "Flip", (), ())),
    (WallCrossing, ((1, 1), (1, -1), "Flip", (), ())),
    (WallCrossing, ((1, 1), (True, -2), "AntiFlip", (Index.TWO,), (2,))),
    (WallCrossing, ((1, 1), (1, 2), "Flip", (0,), ())),
    (WallCrossing, ((1, 1), (1, 2), "Flip", (0, 1.5), ("3", 4))),
    (EndBehavior, ("Fibration", (1, True), ((1, 0), (False, 2)))),
    (EndBehavior, ("Fibration", (1, 0), ((1, "a"),))),
    (EndBehavior, ("Fibration", (1, 0.5), ((1, 2.5),))),
    (EndBehavior, ("Flip", (1, 0))),
    (EndBehavior, ("DivisorialContraction", (1, 0), ())),
    (EndBehavior, ("Fibration", (1, 0), (), None, 1)),
    (EndBehavior, ("Fibration", None)),
    # Fan: bool and float entries, zero and non-primitive rays, cones
    (Fan, (2, ((True, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))),
    (Fan, (2, ((1, 0.0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))),
    (Fan, (2, ((1, 0), ("0", 1), (-1, -1)), ((0, 1),))),
    (Fan, (2, ((0, 0), (0, 1), (-1, -1)), ((1, 2),))),
    (Fan, (2, ((1, 0), (0, 1), (0, 0)), ((0, 1),))),
    (Fan, (2, ((2, 0), (0, 1)), ((0, 1),))),
    (Fan, (2, ((1, 0), (1, 0)), ((0, 1),))),
    (Fan, (2, ((1, 0), (0, 1, 0)), ((0, 1),))),
    (Fan, (2, ((1, 0), (-1, 0)), ((0,), (1,)))),
    (Fan, (2, ((1, 0), (0, 1)), ((0, 2),))),
    (Fan, (2, ((1, 0), (0, 1)), ((0, 1), (1,)))),
    (Fan, (2, ((1, 0), (0, 1), (-1, 0)), ((0, 2),))),
    (Fan, (True, ((1,),), ((0,),))),
    (Fan, (2, (), ((0,),))),
]


@pytest.mark.parametrize("cls, args", BAD, ids=lambda x: getattr(x, "__name__", None))
def test_bad_inputs_fail_alike(cls, args):
    agree(cls, *args)


# Rows whose value has the wrong shape: ``3`` is no wall and ``None`` no ray.
SHAPE_ROWS = [(Chamber, (3, (0, 1), 0)), (EndBehavior, ("Fibration", None))]


def test_table_covers_each_failure():
    kinds = {oracle_outcome(cls, *args)[0] for cls, args in BAD}
    assert {"ok", InvalidArgumentError, RankError, UnsupportedFeatureError,
            TypeError} <= kinds
    # A non-integral number, a string or None as an entry is an input
    # error; only a wrong shape escapes as a TypeError.
    for cls, args in BAD:
        kind = outcome(cls, *args)[0]
        if (cls, args) in SHAPE_ROWS:
            assert kind is TypeError, (cls.__name__, args)
        else:
            assert kind == "ok" or issubclass(kind, CoxforgeError), (cls.__name__, args)


def test_zero_column_reports_its_first_position():
    names = ("a", "b", "c", "d", "e")
    rows = [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]
    for zeros in ([0], [2], [4], [1, 3], [0, 4]):
        m = M([[0 if j in zeros else e for j, e in enumerate(row)] for row in rows])
        assert agree(CoxPresentation, names, m, MonomialIdeal(((0, 1, 2, 3, 4),)), True) == (
            InvalidArgumentError, f"column {zeros[0]} of the weights is zero"
        )


# ---------------------------------------------------------------------------
# random valid inputs


def random_rank2_presentation(rng):
    n = rng.randint(3, 7)
    cols = [(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
    cut = rng.randint(1, n - 1)
    order = rng.sample(range(n), n)
    ideal = (tuple(order[:cut]), tuple(order[cut:]))
    names = tuple(f"x{j}" for j in range(n))
    return names, M(list(zip(*cols))), MonomialIdeal(ideal), rng.random() < 0.5


def test_random_values_store_the_same_fields():
    rng = random.Random(20240611)
    ok = {cls: 0 for cls in ORACLES}

    def check(cls, *args):
        if agree(cls, *args)[0] == "ok":
            ok[cls] += 1

    for _ in range(400):
        n = rng.randint(1, 9)
        comps = [rng.sample(range(n + 2), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        check(MonomialIdeal, tuple(map(tuple, comps)))
        check(MonomialIdeal, tuple(map(tuple, comps[:1])))

        names, weights, ideal, stacky = random_rank2_presentation(rng)
        check(CoxPresentation, names, weights, ideal, stacky)
        check(CoxPresentation, list(names), M(weights.entries), ideal, stacky)

        left = (rng.randint(-5, 5), rng.randint(-5, 5))
        right = (rng.randint(-5, 5), rng.randint(-5, 5))
        check(Chamber, left, list(right), rng.randint(0, 4))

        tv = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 5))]
        total = sum(tv)
        kind = "Flip" if total > 0 else "AntiFlip" if total < 0 else "Flop"
        k = rng.randint(0, 3)
        base = rng.sample(range(8), k)
        check(WallCrossing, left, tv, kind, base, [rng.randint(1, 4) for _ in range(k)])

        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        end = rng.choice(["Fibration", "DivisorialContraction"])
        check(EndBehavior, end, list(right), gens, rng.randint(0, n))

        d = rng.randint(1, 3)
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d, d + 3))]
        rays = list(dict.fromkeys(r for r in rays if any(r) and gcd(*r) == 1))
        cones = [rng.sample(range(len(rays)), min(d, len(rays))) for _ in range(2)] if rays else [()]
        check(Fan, d, rays, cones)
        check(Fan, d, rays, cones[:1])
    assert min(ok.values()) >= 50, ok


def test_random_families_with_duplicates_and_containments():
    # Repeated components, in any order, and components inside or around
    # earlier ones: the same stored components or the same first pair.
    rng = random.Random(20261019)
    outcomes = {"ok": 0, InvalidArgumentError: 0}
    for _ in range(600):
        n = rng.randint(2, 8)
        size = rng.randint(1, n)  # sets of one size form an antichain
        family = [rng.sample(range(n), rng.choice([size, size, rng.randint(1, n)]))
                  for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):
            base = rng.choice(family)
            roll = rng.random()
            if roll < 0.6:  # a duplicate, reordered
                extra = rng.sample(base, len(base))
            elif roll < 0.7 and len(base) > 1:  # inside an earlier one
                extra = rng.sample(base, rng.randint(1, len(base) - 1))
            else:  # around an earlier one
                extra = base + [i for i in range(n, n + rng.randint(1, 2))]
            family.insert(rng.randint(0, len(family)), extra)
        outcomes[agree(MonomialIdeal, tuple(map(tuple, family)))[0]] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_many_components_are_checked_against_larger_ones_only():
    # The 3,160 edges of K_80: no edge can contain another, so no pair of
    # them is compared (an all-pairs check took about 0.5 s).
    edges = tuple(itertools.combinations(range(80), 2))
    best = min(timeit.repeat(lambda: MonomialIdeal(edges), number=1, repeat=3))
    assert best < 0.05, best
    assert MonomialIdeal(edges).components == edges
    with pytest.raises(InvalidArgumentError, match=r"\(3, 5\) is contained in \(3, 5, 7\)$"):
        MonomialIdeal(edges + ((3, 5, 7),))


# ---------------------------------------------------------------------------
# non-integral numbers at the integer coercions of user input


P2_CONES = ((0, 1), (1, 2), (0, 2))


def nonintegral_calls():
    from fractions import Fraction

    from coxforge.blowup import BlowupSpec, Equation, blow_up_wps, pullback_order
    from coxforge.galefan import WeightedBundleSpec, star_subdivision
    from coxforge.singular import QuotientSingularity
    from coxforge.vgit import anticanonical_in_moving_interior, graded_ring_generators

    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), P2_CONES)
    spec = BlowupSpec((1, 2), 2, (1, 2, 3, 1, 1), (4, 2, 3, 1, 1))
    p1xp1 = CoxPresentation(("x", "y", "z", "t"), WF, IDEAL)
    return {
        "fan-ray": (lambda: Fan(2, ((1.5, 0), (0, 1), (-1, -1)), P2_CONES), 1.5),
        "subdivide": (lambda: star_subdivision(fan, (1.7, 1)), 1.7),
        "bundle-omega": (lambda: WeightedBundleSpec(n=1, m=1, omega=(0, 1.9), a=(1, 1)), 1.9),
        "bundle-a": (lambda: WeightedBundleSpec(n=1, m=1, omega=(0, 1), a=(1, 2.5)), 2.5),
        "wps-blowup-a": (lambda: blow_up_wps((1, 1, 2.5), 1, 1, (1,)), 2.5),
        "wps-blowup-b": (lambda: blow_up_wps((1, 1, 2), 1, 1, (Fraction(3, 2),)),
                         Fraction(3, 2)),
        "blowup-fiber": (lambda: BlowupSpec((1, 2), 2, (1, 2, 3.5, 1, 1), (4, 2, 3, 1, 1)), 3.5),
        "blowup-b": (lambda: BlowupSpec((1, 2), 2, (1, 2, 3, 1, 1), (4, 2.2, 3, 1, 1)), 2.2),
        "equation-degree": (lambda: Equation((-1, 3.5)), 3.5),
        "equation-support": (lambda: Equation((-1, 3), ((1, 0.5),)), 0.5),
        "pullback-support": (lambda: pullback_order(spec, [(1, 0, 0, 0, 1.25, 0, 0)]), 1.25),
        "singularity-weight": (lambda: QuotientSingularity(3, (1, 1.5)), 1.5),
        "gens-character": (lambda: graded_ring_generators(p1xp1, (1, 0.5), 2), 0.5),
        "anticanonical-degree": (lambda: anticanonical_in_moving_interior(p1xp1, [(1, 0.5)]),
                                 0.5),
        "chamber-wall": (lambda: Chamber((1, 0), (0, 1.9), 0), 1.9),
        "crossing-type": (lambda: WallCrossing((1, 1), (1, 0.5), "Flip", (), ()), 0.5),
        "end-generator": (lambda: EndBehavior("Fibration", (1, 0), ((1, 2.5),)), 2.5),
    }


@pytest.mark.parametrize("name", sorted(nonintegral_calls()))
def test_nonintegral_input_is_refused_not_truncated(name):
    call, entry = nonintegral_calls()[name]
    with pytest.raises(InvalidArgumentError) as caught:
        call()
    with pytest.raises(InvalidArgumentError) as matrix:
        M([[entry]])
    assert str(caught.value) == str(matrix.value) == f"non-integer entry {entry!r}"


def test_integral_numbers_still_coerce():
    from coxforge.galefan import WeightedBundleSpec, star_subdivision

    fan = Fan(2, ((1, 0.0), (0, True), (-1.0, -1)), P2_CONES)
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert {type(e) for ray in fan.rays for e in ray} == {int}
    sub = star_subdivision(fan, (2.0, 1))
    assert sub == star_subdivision(fan, (2, 1)) and type(sub.rays[-1][0]) is int
    spec = WeightedBundleSpec(n=1, m=1, omega=(0.0, 1.0), a=(1, True))
    assert repr(spec) == "WeightedBundleSpec(n=1, m=1, omega=(0, 1), a=(1,))"
