"""Rank-2 variation of GIT: chambers, crossings, ends, and the two-ray game."""

import copy
import gc
import importlib.util
import os
import pickle
import random
import time
from collections import Counter
from functools import cmp_to_key

import pytest

from coxforge import _kernels, vgit
from coxforge.cli import main
from coxforge.coxpres import CoxPresentation, MonomialIdeal
from coxforge.errors import (
    CoxforgeError,
    InvalidArgumentError,
    NotQuasiProjectiveError,
    UnsupportedFeatureError,
)
from coxforge.galefan import WeightedBundleSpec, weighted_bundle_fan
from coxforge.intlattice import IntMatrix, primitive_vector
from coxforge.vgit import (
    Chamber,
    anticanonical_in_moving_interior,
    chambers_rank2,
    cones_rank2,
    end_behavior,
    graded_ring_generators,
    model_at_chamber,
    monomial_string,
    two_ray_game,
    wall_crossing,
)


def P(variables, rows, comps, stacky=False):
    return CoxPresentation(
        variables=tuple(variables),
        weights=IntMatrix(tuple(tuple(r) for r in rows)),
        irrelevant=MonomialIdeal(tuple(tuple(c) for c in comps)),
        stacky=stacky,
    )


# quadric cone bundle: contraction of the (-2)-curve direction
F2 = P("xyztu", [[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]], [(0, 1, 2), (3, 4)])

# scroll with three interior walls
F = P(
    ["y0", "y1", "x0", "x1", "x2", "x3", "x4"],
    [[1, 1, 0, -1, -2, -3, -3], [0, 0, 1, 1, 1, 1, 1]],
    [(0, 1), (2, 3, 4, 5, 6)],
)

# affine chart of a blown-up scroll: flop plus divisorial ends
TV = P(
    "uxtsyzw",
    [[0, 1, 1, 1, 2, 3, 0], [1, 1, 0, 0, 0, -1, -1]],
    [(0, 1, 2, 3, 4), (5, 6)],
)


class TestQuadricConeBundle:
    def test_walls_and_chambers(self):
        walls, chambers = chambers_rank2(F2)
        assert walls == ((1, 0), (0, 1), (-2, 1))
        assert len(chambers) == 2
        assert model_at_chamber(F2, chambers[0]).irrelevant == F2.irrelevant
        assert model_at_chamber(F2, chambers[1]).irrelevant == MonomialIdeal(
            ((0, 1, 2, 3), (4,))
        )

    def test_interior_wall_is_a_flip(self):
        xc = wall_crossing(F2, (0, 1))
        assert xc.type_vector == (1, 1, 1, -2)
        assert xc.classification == "Flip"
        assert xc.base_vars == (3,)
        assert xc.base_weights == (1,)

    def test_cones(self):
        eff, mov = cones_rank2(F2)
        assert eff == ((1, 0), (-2, 1))
        assert mov == ((1, 0), (0, 1))

    def test_veronese_generators(self):
        gens = graded_ring_generators(F2, (0, 1), 2)
        names = [monomial_string(F2.variables, g) for g in gens]
        assert names == ["t", "x^2u", "xyu", "y^2u", "xzu", "yzu", "z^2u"]
        assert graded_ring_generators(F2, (0, 1), 0) == ()
        gens10 = graded_ring_generators(F2, (1, 0), 2)
        assert [monomial_string(F2.variables, g) for g in gens10] == ["x", "y", "z"]

    def test_ends(self):
        e0 = end_behavior(F2, (1, 0))
        assert e0.kind == "Fibration"
        assert e0.ray == (1, 0)
        assert len(e0.target_generators) == 3
        assert e0.contracted_variable is None
        e1 = end_behavior(F2, (0, 1))
        assert e1.kind == "DivisorialContraction"
        assert e1.contracted_variable == 4
        assert len(e1.target_generators) == 7

    def test_game(self):
        game = two_ray_game(F2)
        assert len(game.models) == 2
        assert len(game.crossings) == 1
        assert game.ends[0].kind == "Fibration"
        assert game.ends[1].kind == "DivisorialContraction"


class TestScrollGame:
    def test_walls(self):
        walls, chambers = chambers_rank2(F)
        assert walls == ((1, 0), (0, 1), (-1, 1), (-2, 1), (-3, 1))
        assert len(chambers) == 4

    def test_model_sequence(self):
        _, chambers = chambers_rank2(F)
        models = [model_at_chamber(F, c) for c in chambers]
        assert models[0].irrelevant == F.irrelevant
        assert models[1].irrelevant == MonomialIdeal(((0, 1, 2), (3, 4, 5, 6)))
        assert models[2].irrelevant == MonomialIdeal(((0, 1, 2, 3), (4, 5, 6)))
        assert models[3].irrelevant == MonomialIdeal(((0, 1, 2, 3, 4), (5, 6)))

    def test_crossing_sequence(self):
        c1 = wall_crossing(F, (0, 1))
        assert c1.type_vector == (1, 1, -1, -2, -3, -3)
        assert c1.classification == "AntiFlip"
        assert c1.base_vars == (2,) and c1.base_weights == (1,)
        c2 = wall_crossing(F, (-1, 1))
        assert c2.type_vector == (1, 1, 1, -1, -2, -2)
        assert c2.classification == "AntiFlip"
        c3 = wall_crossing(F, (-2, 1))
        assert c3.type_vector == (1, 1, 2, 1, -1, -1)
        assert c3.classification == "Flip"
        assert c3.base_vars == (4,)

    def test_cones_coincide_for_small_moving(self):
        eff, mov = cones_rank2(F)
        assert eff == ((1, 0), (-3, 1))
        assert mov == ((1, 0), (-3, 1))

    def test_both_ends_fiber_to_lines(self):
        game = two_ray_game(F)
        assert len(game.models) == 4 and len(game.crossings) == 3
        assert game.ends[0].kind == "Fibration"
        assert game.ends[1].kind == "Fibration"
        n0 = [monomial_string(F.variables, g) for g in game.ends[0].target_generators]
        n1 = [monomial_string(F.variables, g) for g in game.ends[1].target_generators]
        assert n0 == ["y0", "y1"]
        assert n1 == ["x3", "x4"]

    def test_anticanonical_position(self):
        assert anticanonical_in_moving_interior(F, [(-3, 2), (-2, 2)]) is True


class TestFlopAmbient:
    def test_walls_and_input_chamber(self):
        walls, chambers = chambers_rank2(TV)
        assert walls == ((0, 1), (1, 1), (1, 0), (3, -1), (0, -1))
        assert len(chambers) == 4
        assert model_at_chamber(TV, chambers[2]).irrelevant == TV.irrelevant

    def test_flop_wall(self):
        flop = wall_crossing(TV, (1, 0))
        assert flop.type_vector == (1, 1, -1, -1)
        assert flop.classification == "Flop"
        assert flop.base_vars == (2, 3, 4)
        assert flop.base_weights == (1, 1, 2)

    def test_halfplane_effective_cone(self):
        eff, mov = cones_rank2(TV)
        assert eff == ((0, 1), (0, -1))
        assert mov == ((1, 1), (3, -1))

    def test_divisorial_ends(self):
        e = end_behavior(TV, (1, 1))
        assert e.kind == "DivisorialContraction"
        assert e.contracted_variable == 0
        names = [monomial_string(TV.variables, g) for g in e.target_generators]
        assert names == ["x", "ut", "us", "u^2y"]
        e2 = end_behavior(TV, (3, -1))
        assert e2.kind == "DivisorialContraction"
        assert e2.contracted_variable == 6

    def test_game_has_flop_in_middle(self):
        game = two_ray_game(TV)
        assert len(game.models) == 4 and len(game.crossings) == 3
        assert game.crossings[1].classification == "Flop"


class TestDegenerateAndErrors:
    def test_product_of_lines(self):
        pp = P("abcd", [[1, 1, 0, 0], [0, 0, 1, 1]], [(0, 1), (2, 3)])
        game = two_ray_game(pp)
        assert len(game.models) == 1 and len(game.crossings) == 0
        assert game.ends[0].kind == "Fibration"
        assert game.ends[1].kind == "Fibration"

    def test_full_plane_support_rejected(self):
        torus = P("abcd", [[1, 0, -1, 0], [0, 1, 0, -1]], [(0, 1), (2, 3)])
        with pytest.raises(NotQuasiProjectiveError):
            chambers_rank2(torus)

    def test_extreme_wall_has_no_crossing(self):
        with pytest.raises(InvalidArgumentError, match="extreme"):
            wall_crossing(F2, (1, 0))

    def test_end_must_be_moving_ray(self):
        with pytest.raises(InvalidArgumentError):
            end_behavior(F2, (-2, 1))

    def test_unclassified_end_rejected(self):
        # at most one column lies beyond an end of the moving cone
        with pytest.raises(InvalidArgumentError, match="unknown end kind"):
            vgit.EndBehavior("Unclassified", (1, 0), beyond_count=2)

    def test_one_ray_moving_cone_has_no_game(self, tmp_path, capsys):
        # Dropping a or c leaves the column of b; the moving cone is (1, 0).
        p = P("abc", [[1, -2, 3], [0, -3, 3]], [(0,), (1, 2)], stacky=True)
        message = "the moving cone is the single ray (1, 0): no chamber lies inside it"
        assert cones_rank2(p)[1] == ((1, 0), (1, 0))
        assert anticanonical_in_moving_interior(p, []) is False
        for call in (lambda: two_ray_game(p), lambda: end_behavior(p, (1, 0)),
                     lambda: end_behavior(p, (2, 0), 3)):
            with pytest.raises(UnsupportedFeatureError) as caught:
                call()
            assert str(caught.value) == message
        path = tmp_path / "one-ray.cox"
        path.write_text("rank 2\nvars a b c\n1 -2 3\n0 -3 3\nirrelevant (a)(b,c)\nstacky true\n")
        assert main(["game", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_rank_must_be_two(self):
        p1 = P("ab", [[1, 1]], [(0, 1)])
        with pytest.raises(InvalidArgumentError):
            chambers_rank2(p1)

    def test_degree_bound_one_finds_the_veronese(self):
        # the Veronese generators all live at level 1, so bound 1 finds them
        e = end_behavior(F2, (0, 1), degree_bound=1)
        assert len(e.target_generators) == 7

    def test_explicit_bound_argument(self):
        game = two_ray_game(F2, degree_bound=2)
        assert len(game.models) == 2


# ---------------------------------------------------------------------------
# the sweep against the pairwise implementation it replaced


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def oracle_sweep(p):
    """Walls, orientation branch and moving cone, computed pairwise (test oracle).

    Returns ``(walls, branch, moving, dirs)``; ``moving`` is None when the
    moving cone is empty.  Raises NotQuasiProjectiveError like the library.
    """
    n = p.num_variables
    dirs = [tuple(primitive_vector(p.weights.column(j))) for j in range(n)]
    distinct = list(dict.fromkeys(dirs))
    lo = next((e for e in distinct if all(_det2(e, d) >= 0 for d in distinct)), None)
    hi = next((e for e in distinct if all(_det2(e, d) <= 0 for d in distinct)), None)
    if lo is None or hi is None:
        raise NotQuasiProjectiveError("weight columns span the whole plane")
    anti = (-lo[0], -lo[1])
    middle = [d for d in distinct if d != lo and d != anti]
    middle.sort(key=cmp_to_key(lambda a, b: -1 if _det2(a, b) > 0 else 1))
    ccw = [lo] + middle + ([anti] if anti in distinct else [])
    cw = list(reversed(ccw))
    want = p.irrelevant.components
    walls = branch = None
    for name, sweep in (("match-ccw", ccw), ("match-cw", cw)):
        if len(want) != 2 or walls is not None:
            break
        pos = {d: i for i, d in enumerate(sweep)}
        for cut in range(len(sweep) - 1):
            before = tuple(j for j in range(n) if pos[dirs[j]] <= cut)
            after = tuple(j for j in range(n) if pos[dirs[j]] > cut)
            if before == want[0] and after == want[1]:
                walls, branch = sweep, name
                break
    if walls is None:
        if ccw.index(dirs[0]) < cw.index(dirs[0]):
            walls, branch = ccw, "nearest-ccw"
        elif cw.index(dirs[0]) < ccw.index(dirs[0]):
            walls, branch = cw, "nearest-cw"
        else:
            walls, branch = ccw, "tie"
    pos = {d: i for i, d in enumerate(walls)}
    start, end = 0, len(walls) - 1
    for j in range(n):
        others = [pos[dirs[t]] for t in range(n) if t != j]
        start = max(start, min(others))
        end = min(end, max(others))
    moving = None if start > end else (walls[start], walls[end])
    return tuple(walls), branch, moving, dirs


def random_rank2(rng):
    """A random rank-2 presentation with a one- or two-component ideal."""
    while True:
        n = rng.randint(2, 6)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2))
        order = list(range(n))
        rng.shuffle(order)
        if rng.random() < 0.3:
            comps = (tuple(order[: rng.randint(1, n)]),)
        else:
            c = rng.randint(1, n - 1)
            comps = (tuple(order[:c]), tuple(order[c:]))
        try:
            return CoxPresentation(
                tuple("abcdef"[:n]), IntMatrix(rows), MonomialIdeal(comps), True
            )
        except CoxforgeError:
            continue


def fresh(p):
    """An equal presentation that shares no object with ``p``."""
    return CoxPresentation(
        p.variables,
        IntMatrix(p.weights.entries),
        MonomialIdeal(p.irrelevant.components),
        p.stacky,
    )


@pytest.fixture
def sweeps_built(monkeypatch):
    """The presentation of each ``_Sweep`` built while the test runs."""
    built = []

    class Counted(vgit._Sweep):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(vgit, "_Sweep", Counted)
    return built


class TestSweepOracle:
    def test_sweep_matches_pairwise_oracle(self):
        rng = random.Random(20)
        branches = Counter()
        empty_moving = 0
        while sum(branches.values()) < 400:
            p = random_rank2(rng)
            if rng.random() < 0.5:
                # Re-seat the ideal on a chamber of either orientation so the
                # matching branches are hit as often as the fallbacks.
                try:
                    sweep, _, _, dirs = oracle_sweep(p)
                except NotQuasiProjectiveError:
                    continue
                if len(sweep) < 2:
                    continue
                if rng.random() < 0.5:
                    sweep = sweep[::-1]
                cut = rng.randrange(len(sweep) - 1)
                pos = {d: i for i, d in enumerate(sweep)}
                before = tuple(j for j, d in enumerate(dirs) if pos[d] <= cut)
                after = tuple(j for j, d in enumerate(dirs) if pos[d] > cut)
                p = CoxPresentation(
                    p.variables, p.weights, MonomialIdeal((before, after)), True
                )
            try:
                walls, branch, moving, dirs = oracle_sweep(p)
            except NotQuasiProjectiveError:
                with pytest.raises(NotQuasiProjectiveError, match="whole plane"):
                    chambers_rank2(p)
                continue
            branches[branch] += 1
            assert chambers_rank2(p) == (
                walls,
                tuple(Chamber(walls[i], walls[i + 1], i) for i in range(len(walls) - 1)),
            )
            pos = {d: i for i, d in enumerate(walls)}
            for i in range(len(walls) - 1):
                before = tuple(j for j, d in enumerate(dirs) if pos[d] <= i)
                after = tuple(j for j, d in enumerate(dirs) if pos[d] > i)
                model = model_at_chamber(p, Chamber(walls[i], walls[i + 1], i))
                assert model.irrelevant == MonomialIdeal((before, after))
            for i in range(1, len(walls) - 1):
                w = walls[i]
                sign = 1 if _det2(w, walls[i - 1]) > 0 else -1
                expected = tuple(
                    sign * _det2(w, p.weights.column(j))
                    for j, d in enumerate(dirs)
                    if d != w
                )
                assert wall_crossing(p, w).type_vector == expected
            if moving is None:
                empty_moving += 1
                with pytest.raises(UnsupportedFeatureError, match="moving cone is empty"):
                    cones_rank2(p)
            else:
                assert cones_rank2(p) == ((walls[0], walls[-1]), moving)
        assert set(branches) == {
            "match-ccw", "match-cw", "nearest-ccw", "nearest-cw", "tie"
        }
        assert empty_moving > 0

    def test_game_builds_one_sweep(self, sweeps_built):
        game = two_ray_game(fresh(F))  # ``F`` keeps the sweep an earlier test built
        assert len(game.models) == 4
        assert len(sweeps_built) == 1

    def test_game_reuses_the_input_smith_form(self, monkeypatch):
        # every chamber model shares the weights object of ``pres``, whose
        # rank, standardness and Gale rows were read when it was built
        _, pres = weighted_bundle_fan(
            WeightedBundleSpec(n=1, m=24, omega=tuple(range(25)), a=(1,) * 25)
        )
        calls = []
        real = _kernels.smith
        monkeypatch.setattr(
            _kernels, "smith", lambda rows: calls.append(1) or real(rows)
        )
        game = two_ray_game(pres)
        assert len(game.models) == 25
        assert len(calls) == 0


# ---------------------------------------------------------------------------
# the generator search against the box search and filters it replaced


def multiple(v, prim):
    """The integer ``k`` with ``v == k * prim``, or ``None`` if there is none."""
    axis = 0 if prim[0] != 0 else 1
    k, rem = divmod(v[axis], prim[axis])
    if rem or k * prim[1 - axis] != v[1 - axis]:
        return None
    return k


def dickson_minimal(vectors):
    """Componentwise-minimal elements of a finite set of exponent vectors."""
    return [
        v for v in vectors
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vectors)
    ]


def line_solutions(qs, rho):
    """Every nonnegative solution of ``sum q_i e_i = rho`` in a box.

    The box covers every solution that is not componentwise above a
    homogeneous solution, which is all the caller keeps.
    """
    if not qs:
        return [()] if rho == 0 else []
    top = max(abs(q) for q in qs)
    bound = abs(rho) + len(qs) * top * top + top + 1
    out = []

    def rec(i, partial, acc):
        if i == len(qs):
            if acc == rho:
                out.append(tuple(partial))
            return
        for e in range(bound + 1):
            rec(i + 1, partial + [e], acc + qs[i] * e)

    rec(0, [], 0)
    return out


def oracle_generators(sweep, target, degree_bound):
    """``vgit._generators`` by a box search on the boundary line, with the
    degree-zero invariants filtered out of each line solution (test oracle)."""
    cols, lo, hi = sweep.cols, sweep.lo, sweep.hi
    ell = (-lo[1], lo[0])
    if hi != (-lo[0], -lo[1]):
        ell = (ell[0] + hi[1], ell[1] - hi[0])
    values = [ell[0] * c[0] + ell[1] * c[1] for c in cols]
    zline = [j for j, v in enumerate(values) if v == 0]
    free = [j for j, v in enumerate(values) if v > 0]
    qs = tuple(multiple(cols[j], lo) for j in zline)
    invariants = dickson_minimal([s for s in line_solutions(qs, 0) if any(s)])

    def monomials(d):
        out = []

        def line_part(e, rest):
            if not zline:
                if rest == (0, 0):
                    out.append(tuple(e))
                return
            rho = multiple(rest, lo)
            if rho is None:
                return
            for s in line_solutions(qs, rho):
                if any(all(a <= b for a, b in zip(inv, s)) for inv in invariants):
                    continue
                full = list(e)
                for slot, j in enumerate(zline):
                    full[j] = s[slot]
                out.append(tuple(full))

        def rec(i, e, rest, slack):
            if i == len(free):
                line_part(e, rest)
                return
            j = free[i]
            for cnt in range(slack // values[j] + 1):
                e[j] = cnt
                rec(
                    i + 1,
                    e,
                    (rest[0] - cnt * cols[j][0], rest[1] - cnt * cols[j][1]),
                    slack - cnt * values[j],
                )
            e[j] = 0

        budget = ell[0] * d[0] + ell[1] * d[1]
        if budget >= 0:
            rec(0, [0] * len(cols), d, budget)
        return out

    gens = []
    for k in range(1, degree_bound + 1):
        level = [
            e for e in monomials((k * target[0], k * target[1]))
            if not any(all(a <= b for a, b in zip(g, e)) for g in gens)
        ]
        gens.extend(sorted(level, key=lambda e: tuple(reversed(e))))
    return tuple(gens)


def columns_above(rng, lo, cols, n):
    """``cols`` filled up to ``n`` with random columns ``c``, ``det(lo, c) > 0``."""
    while len(cols) < n:
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        if _det2(lo, c) > 0:
            cols.append(c)
    return cols


def two_component_presentation(rng, cols):
    """A stacky presentation of ``cols`` with a random two-component ideal."""
    n = len(cols)
    order = list(range(n))
    rng.shuffle(order)
    cut = rng.randint(1, n - 1)
    comps = (tuple(sorted(order[:cut])), tuple(sorted(order[cut:])))
    return CoxPresentation(
        tuple("abcdef"[:n]),
        IntMatrix(tuple(tuple(c[i] for c in cols) for i in range(2))),
        MonomialIdeal(comps),
        True,
    )


def random_halfplane(rng):
    """A rank-2 presentation whose columns span exactly a halfplane.

    Two or three columns lie on the boundary line, ``q * lo`` with ``q`` in
    ``+-1..+-3`` and both signs present; one or two lie strictly on one side.
    """
    lo = primitive_vector((rng.randint(-2, 2), rng.randint(1, 2)))
    qs = [rng.randint(1, 3), -rng.randint(1, 3)]
    qs += [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 1))]
    cols = [(q * lo[0], q * lo[1]) for q in qs]
    cols = columns_above(rng, lo, cols, len(qs) + rng.randint(1, 2))
    rng.shuffle(cols)
    return two_component_presentation(rng, cols)


def random_cone(rng):
    """A rank-2 presentation whose columns lie strictly inside a halfplane.

    Three to five columns ``c`` have ``det(lo, c) > 0`` for a random
    primitive ``lo``, so none lies on its boundary line, and they span at
    least two directions, so the weights have full rank.
    """
    while True:
        lo = primitive_vector((rng.randint(-2, 2), rng.randint(1, 2)))
        cols = columns_above(rng, lo, [], rng.randint(3, 5))
        if len({primitive_vector(c) for c in cols}) > 1:
            return two_component_presentation(rng, cols)


def outcome(f, *args):
    """A call's result, or the class and message of what it raised."""
    try:
        return "ok", f(*args)
    except CoxforgeError as exc:
        return type(exc), str(exc)


class TestGeneratorOracle:
    def test_generators_and_games_match_box_search(self, monkeypatch):
        # Three or more columns spanning a halfplane or a strictly convex
        # cone always leave a nonempty moving cone.  The generators' only
        # error is a rejected level (a zero character or a negative bound);
        # the game's is a moving cone that is one ray.
        rng = random.Random(7)
        seen = Counter()
        for support in (random_halfplane, random_cone):
            for _ in range(100):
                p = support(rng)
                sweep = vgit._Sweep(p)
                for chi in (sweep.lo, sweep.hi, (rng.randint(-2, 2), rng.randint(-2, 2))):
                    bound = rng.randint(-1, 3)
                    got = outcome(graded_ring_generators, p, chi, bound)
                    if chi == (0, 0) or bound < 0:
                        assert got[0] is InvalidArgumentError, (p, chi, bound)
                        kind = "rejected"
                    else:
                        assert got == ("ok", oracle_generators(sweep, chi, bound)), (p, chi)
                        kind = "generators" if got[1] else "none"
                    seen[support.__name__, kind] += 1
                game = outcome(two_ray_game, p)
                if game[0] == "ok":
                    with monkeypatch.context() as m:
                        m.setattr(vgit, "_generators", oracle_generators)
                        assert game == outcome(two_ray_game, p), p
                    seen[support.__name__, "game"] += 1
                else:
                    assert game[0] is UnsupportedFeatureError and "single ray" in game[1], p
                    seen[support.__name__, "one-ray"] += 1
        assert set(seen) == {
            (support, kind)
            for support in ("random_halfplane", "random_cone")
            for kind in ("generators", "none", "rejected", "game", "one-ray")
        }, seen

    @pytest.mark.parametrize("bound, expected", [
        (0, ()), (1, ((2, 1, 0),)), (2, ((2, 1, 0), (1, 0, 0))),
    ])
    def test_degree_bound_holds_from_the_unit_vectors(self, bound, expected):
        # e_n starts at level 1, so a search that checked the bound only
        # when stepping along e_n would return ((2, 1, 0),) at bound 0
        p = P("abc", [[-4, 6, 1], [-2, 3, 1]], [(2,), (0, 1)], stacky=True)
        assert graded_ring_generators(p, (-2, -1), bound) == expected
        assert oracle_generators(vgit._Sweep(p), (-2, -1), bound) == expected

    def test_game_with_light_off_line_columns(self, monkeypatch):
        # the completion visits 522 vectors for the 9 generators at (-3, 2)
        p = P("abcdef", [[-2, 0, -3, 1, -3, 0], [2, 3, 2, 2, -6, 1]],
              [(0, 4, 5), (1, 2, 3)], stacky=True)
        start = time.perf_counter()
        game = two_ray_game(p)
        assert time.perf_counter() - start < 1.0
        assert [(end.ray, len(end.target_generators)) for end in game.ends] == [
            ((0, 1), 2), ((-3, 2), 9)
        ]
        with monkeypatch.context() as m:
            m.setattr(vgit, "_generators", oracle_generators)
            assert game == two_ray_game(fresh(p))

    def test_generators_with_light_off_line_columns(self):
        # 1,266 vectors visited for 29 generators
        p = P("abcdef", [[0, -6, -3, 4, 0, -1], [-2, 3, 1, -2, -2, 0]],
              [(0, 1, 2, 3, 4, 5)], stacky=True)
        start = time.perf_counter()
        gens = graded_ring_generators(p, (0, -3), 3)
        assert time.perf_counter() - start < 1.0
        assert len(gens) == 29
        assert gens == oracle_generators(vgit._Sweep(p), (0, -3), 3)

    def test_five_variable_game_is_fast(self):
        # The box search took 35-73 s on this input; the capped search takes ms.
        rows = [[-2, -4, 1, 4, -4], [-2, -4, 1, -1, -4]]
        p = P("abcde", rows, [(0, 1, 2), (3, 4)], stacky=True)
        start = time.perf_counter()
        game = two_ray_game(p)
        assert time.perf_counter() - start < 1.0
        assert game.ends == (
            vgit.EndBehavior(
                "Fibration",
                (-1, -1),
                (
                    (1, 0, 1, 0, 0), (0, 1, 3, 0, 0), (0, 0, 3, 0, 1), (1, 0, 0, 0, 0),
                    (0, 1, 2, 0, 0), (0, 0, 2, 0, 1), (0, 1, 1, 0, 0), (0, 0, 1, 0, 1),
                    (0, 1, 0, 0, 0), (0, 0, 0, 0, 1),
                ),
            ),
            vgit.EndBehavior(
                "DivisorialContraction", (4, -1), ((0, 0, 0, 1, 0),), contracted_variable=2
            ),
        )

    @pytest.mark.parametrize("k", [40, 160])
    def test_stacky_f2_end_with_a_tall_column_is_fast(self, k):
        # Listing every monomial of each level took 11.6 s at k = 40 (the
        # default bound is k + 1); the completion follows the 7 generators.
        p = P("xyztu", [[1, 1, 1, 0, -2], [0, 0, 0, k, 1]], [(0, 1, 2), (3, 4)], True)
        start = time.perf_counter()
        end = end_behavior(p, (0, 1))
        assert time.perf_counter() - start < 2.0
        assert end == vgit.EndBehavior(
            "DivisorialContraction",
            (0, 1),
            (
                (2, 0, 0, 0, 1), (1, 1, 0, 0, 1), (0, 2, 0, 0, 1), (1, 0, 1, 0, 1),
                (0, 1, 1, 0, 1), (0, 0, 2, 0, 1), (0, 0, 0, 1, 0),
            ),
            contracted_variable=4,
        )

    def test_seven_variable_bundle_is_fast(self):
        # Levels 1-3 hold 53,165 monomials, which took 8.3 s to list; the
        # answer has 737 generators.
        rows = [[1, 1, 1, 0, -3, -1, -3], [0, 0, 0, 1, 1, 2, 1]]
        p = P([f"v{i}" for i in range(7)], rows, [(0, 1, 2), (3, 4, 5, 6)])
        start = time.perf_counter()
        gens = graded_ring_generators(p, (3, 3), 3)
        assert time.perf_counter() - start < 5.0
        assert len(gens) == 737
        for g in gens:
            degree = [sum(r[j] * g[j] for j in range(7)) for r in rows]
            assert degree[0] == degree[1] and degree[0] in (3, 6, 9), g
        assert dickson_minimal(gens) == list(gens)


class TestCharacterLength:
    @pytest.mark.parametrize("chi", [(1,), (0, 1, 7)])
    def test_character_must_have_two_entries(self, chi):
        with pytest.raises(InvalidArgumentError, match="does not match rank 2"):
            graded_ring_generators(F2, chi, 2)


# ---------------------------------------------------------------------------
# one sweep per presentation object


def entry_point_calls(walls, chambers):
    """Each of the eight entry points as ``f(p)``, once per wall or chamber."""
    calls = [
        chambers_rank2,
        cones_rank2,
        two_ray_game,
        lambda p: anticanonical_in_moving_interior(p, []),
    ]
    calls += [lambda p, c=c: model_at_chamber(p, c) for c in chambers]
    for w in walls:
        calls += [
            lambda p, w=w: wall_crossing(p, w),
            lambda p, w=w: end_behavior(p, w),
            lambda p, w=w: graded_ring_generators(p, w, 2),
        ]
    return calls


class TestSweepKeptOnThePresentation:
    def test_eight_entry_points_build_one_sweep(self, sweeps_built):
        p = fresh(F)
        walls, chambers = chambers_rank2(p)
        model_at_chamber(p, chambers[1])
        wall_crossing(p, walls[1])
        low, high = cones_rank2(p)[1]
        graded_ring_generators(p, low, 2)
        end_behavior(p, high)
        two_ray_game(p)
        anticanonical_in_moving_interior(p, [])
        assert sweeps_built == [p] and vars(p)["_sweep"].walls == walls

    def test_reused_object_answers_as_a_fresh_one(self):
        rng = random.Random(2020)
        seen = Counter()
        for _ in range(150):
            p = random_rank2(rng)
            got = outcome(chambers_rank2, fresh(p))
            walls, chambers = got[1] if got[0] == "ok" else ((), ())
            calls = entry_point_calls(walls, chambers)
            expected = [outcome(f, fresh(p)) for f in calls]
            order = list(range(len(calls)))
            rng.shuffle(order)  # any entry point may be the one that builds the sweep
            for i in order * 2:
                assert outcome(calls[i], p) == expected[i], (p, i)
            assert ("_sweep" in vars(p)) == (got[0] == "ok")
            seen.update(kind for kind, _ in expected)
        assert set(seen) == {
            "ok", InvalidArgumentError, NotQuasiProjectiveError, UnsupportedFeatureError
        }, seen

    @pytest.mark.parametrize(
        "p, error",
        [
            (P("abc", [[1, 0, 1], [0, 1, 1], [1, 1, 3]], [(0, 1, 2)], True),
             InvalidArgumentError),
            (P("abcd", [[1, 0, -1, 0], [0, 1, 0, -1]], [(0, 1), (2, 3)]),
             NotQuasiProjectiveError),
        ],
        ids=["rank-3", "whole-plane"],
    )
    def test_a_failed_sweep_raises_on_every_call_and_keeps_nothing(self, p, error):
        calls = entry_point_calls(((1, 0),), (Chamber((1, 0), (0, 1), 0),))
        assert len(calls) == 8
        for f in calls * 2:
            assert outcome(f, p)[0] is error
        assert "_sweep" not in vars(p)

    def test_an_empty_moving_cone_raises_on_every_call(self):
        # the sweep exists and is kept; only the questions that need the
        # moving cone fail, each time they are asked
        p = P("ab", [[1, 0], [0, 1]], [(0,), (1,)], stacky=True)
        for f in (cones_rank2, two_ray_game) * 2:
            with pytest.raises(UnsupportedFeatureError, match="moving cone is empty"):
                f(p)
        sweep = vars(p)["_sweep"]
        assert chambers_rank2(p) == (sweep.walls, sweep.chambers)

    def test_kept_sweep_holds_values_and_makes_no_cycle(self):
        p = fresh(F)
        game = two_ray_game(p)
        sweep = vars(p)["_sweep"]
        assert not any(value is p for value in vars(sweep).values())
        assert {type(value) for value in vars(sweep).values()} == {tuple, int, bool, IntMatrix}
        gc.collect()
        gc.disable()
        try:
            del p, game, sweep
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_pickles_and_copies_carry_no_sweep(self):
        p = fresh(F)
        before = (hash(p), repr(p), pickle.dumps(p))
        game = two_ray_game(p)
        assert "_sweep" in vars(p)
        assert (hash(p), repr(p), pickle.dumps(p)) == before
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == p and p == twin and "_sweep" not in vars(twin)
            assert two_ray_game(twin) == game


# ---------------------------------------------------------------------------
# game values built by construction against the public constructors


def reference_two_ray_game(p, degree_bound=None):
    """The game with every value built through its public constructor.

    The construction ``two_ray_game`` used before its values were built
    without their checks: the sweep's walls, wall indices and orientation,
    then each chamber, model, ideal, crossing and end checked on the way.
    A moving cone that is empty or one ray has no game.
    """
    sweep = vgit._Sweep(p)
    walls = sweep.walls
    chambers = tuple(Chamber(walls[i], walls[i + 1], i) for i in range(len(walls) - 1))
    models = tuple(
        CoxPresentation(
            variables=p.variables,
            weights=p.weights,
            irrelevant=MonomialIdeal(vgit._split(sweep.at, c.index)),
            stacky=p.stacky,
        )
        for c in chambers
    )
    crossings = []
    for w in walls[1:-1]:
        on_wall = [j for j, d in enumerate(sweep.dirs) if d == w]
        off_wall = [j for j, d in enumerate(sweep.dirs) if d != w]
        entries = tuple(sweep.orient * _det2(sweep.cols[j], w) for j in off_wall)
        base_weights = tuple(multiple(sweep.cols[j], w) for j in on_wall)
        total = sum(entries)
        kind = "Flip" if total > 0 else "AntiFlip" if total < 0 else "Flop"
        crossings.append(
            vgit.WallCrossing(w, entries, kind, tuple(on_wall), base_weights)
        )
    s = sorted(sweep.at)
    if s[1] > s[-2]:
        raise UnsupportedFeatureError(
            "the moving cone is empty: some divisor meets every model"
        )
    ends = []
    moving = (walls[s[1]], walls[s[-2]])
    if s[1] == s[-2]:
        raise UnsupportedFeatureError(
            f"the moving cone is the single ray {moving[0]}: no chamber lies inside it"
        )
    for side, ray in enumerate(moving):
        k = walls.index(ray)
        if side == 0:
            beyond = [j for j, a in enumerate(sweep.at) if a < k]
        else:
            beyond = [j for j, a in enumerate(sweep.at) if a > k]
        on_ray = [multiple(c, ray) for c, d in zip(sweep.cols, sweep.dirs) if d == ray]
        bound = degree_bound if degree_bound is not None else max(on_ray) + 1
        gens = vgit._generators(sweep, ray, bound)
        if beyond:
            ends.append(vgit.EndBehavior(
                "DivisorialContraction", ray, gens, contracted_variable=beyond[0]
            ))
        else:
            ends.append(vgit.EndBehavior("Fibration", ray, gens))
    return vgit.GameDiagram(models, tuple(crossings), tuple(ends), chambers)


def assert_rebuilds(value):
    """``value`` is what its public constructor stores from its own fields."""
    cls = type(value)
    names = cls.__match_args__
    assert set(vars(value)) >= set(names), value
    twin = cls(*(getattr(value, name) for name in names))
    assert repr(twin) == repr(value)
    assert twin == value and hash(twin) == hash(value)


def assert_game_rebuilds(game):
    """Each model, ideal, chamber, crossing and end of ``game`` rebuilds."""
    for model in game.models:
        assert_rebuilds(model)
        assert_rebuilds(model.irrelevant)
    for value in (*game.chambers, *game.crossings, *game.ends):
        assert_rebuilds(value)


def load_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKED = (CoxPresentation, MonomialIdeal, Chamber, vgit.WallCrossing, vgit.EndBehavior)


def count_checks(monkeypatch, classes=CHECKED):
    """Counts of each class's ``__post_init__`` while the test runs."""
    counts = Counter()
    for cls in classes:
        real = cls.__post_init__

        def counted(self, real=real, name=cls.__name__):
            counts[name] += 1
            return real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


class TestGameValuesByConstruction:
    def test_random_games_match_the_checked_construction(self):
        # 1,500 inputs that give a game or a one-ray moving cone
        rng = random.Random(2024)
        seen = Counter()
        while seen["ok"] + seen["one-ray"] < 1500:
            p = random_rank2(rng)
            expected = outcome(reference_two_ray_game, fresh(p))
            got = outcome(two_ray_game, p)
            assert got == expected, p
            if got[0] == "ok":
                assert repr(got[1]) == repr(expected[1])
                assert_game_rebuilds(got[1])
            one_ray = got[0] is UnsupportedFeatureError and "single ray" in got[1]
            seen["one-ray" if one_ray else got[0]] += 1
        assert {NotQuasiProjectiveError, UnsupportedFeatureError, "one-ray"} <= set(seen), seen

    def test_scaled_games_match_the_checked_construction(self):
        workloads = load_workloads()
        sizes = range(8, 25, 4)
        assert tuple(sizes) == workloads.GAME_SIZES
        for m in sizes:
            for variant in range(workloads.VARIANTS):
                p = workloads.game_instance(m, variant)
                game = two_ray_game(p)
                expected = reference_two_ray_game(fresh(p))
                assert game == expected and repr(game) == repr(expected)
                assert_game_rebuilds(game)
                # a copy carries no kept sweep, and builds the same values
                twin = pickle.loads(pickle.dumps(p))
                assert repr(two_ray_game(twin)) == repr(game)

    def test_entry_points_give_values_that_rebuild(self):
        p = fresh(F)
        walls, chambers = chambers_rank2(p)
        low, high = cones_rank2(p)[1]
        values = [*chambers, model_at_chamber(p, chambers[1]), wall_crossing(p, walls[1]),
                  end_behavior(p, low), end_behavior(p, high, 3)]
        for value in values:
            assert_rebuilds(value)
        assert_rebuilds(values[len(chambers)].irrelevant)

    def test_a_new_game_runs_no_value_check(self, monkeypatch):
        # the 25-chamber bundle of ``test_game_reuses_the_input_smith_form``
        _, pres = weighted_bundle_fan(
            WeightedBundleSpec(n=1, m=24, omega=tuple(range(25)), a=(1,) * 25)
        )
        counts = count_checks(monkeypatch)
        game = two_ray_game(pres)
        assert len(game.models) == 25 and len(game.crossings) == 24
        assert counts == {}

    def test_non_int_user_input_stores_ints(self):
        # a wall or ray given with bools stores the sweep's own int tuples
        p = fresh(F)
        walls, _ = chambers_rank2(p)
        crossing = wall_crossing(p, (walls[1][0], True))
        assert walls[1][1] == 1 and crossing.wall is walls[1]
        end = end_behavior(p, (True, False))
        assert end.ray == (1, 0) and {type(e) for e in end.ray} == {int}
