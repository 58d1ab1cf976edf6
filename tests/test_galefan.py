"""Gale duality, fans, weighted bundles, and star subdivision."""

import copy
import importlib.util
import itertools
import os
import pickle
import random
from fractions import Fraction

import pytest

from coxforge import _kernels
from coxforge.coxpres import CoxPresentation, MonomialIdeal, well_form
from coxforge.errors import (
    InvalidArgumentError,
    MustStandardizeFirstError,
    OutsideSupportError,
    RankError,
    UnsupportedFeatureError,
)
from coxforge.galefan import (
    Fan,
    _solve_in_cone,
    WeightedBundleSpec,
    fan_from_presentation,
    gale_dual,
    irrelevant_ideal_from_fan,
    star_subdivision,
    weighted_bundle_fan,
    weights_from_rays,
)
from coxforge.intlattice import IntMatrix, primitive_vector, rank, smith_diagonal

M = lambda rows: IntMatrix(tuple(tuple(r) for r in rows))

F2_WF = CoxPresentation(
    variables=("x", "y", "z", "t", "u"),
    weights=M([[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]]),
    irrelevant=MonomialIdeal(((0, 1, 2), (3, 4))),
    stacky=False,
)

P2_FAN = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


class TestFanValidation:
    def test_accessors(self):
        assert P2_FAN.num_rays == 3
        assert P2_FAN.ray_matrix() == M([[1, 0], [0, 1], [-1, -1]])

    def test_cones_normalized(self):
        fan = Fan(2, ((1, 0), (0, 1)), ((1, 0, 1),))
        assert fan.max_cones == ((0, 1),)

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Fan(2, ((2, 0), (0, 1)), ((0, 1),))

    def test_zero_ray_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Fan(2, ((0, 0), (0, 1)), ((0, 1),))

    def test_duplicate_rays_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Fan(2, ((1, 0), (1, 0)), ((0, 1),))

    def test_rays_must_span(self):
        with pytest.raises(RankError):
            Fan(2, ((1, 0), (-1, 0)), ((0,), (1,)))

    def test_cone_index_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            Fan(2, ((1, 0), (0, 1)), ((0, 7),))

    def test_non_simplicial_cone_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1, 2),))

    def test_nested_cones_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Fan(2, ((1, 0), (0, 1)), ((0,), (0, 1)))


class TestGaleDual:
    def test_orthogonality_and_saturation(self):
        b = gale_dual(F2_WF.weights)
        assert b.rows == 5 and b.cols == 3
        product = F2_WF.weights @ b
        assert all(e == 0 for row in product.entries for e in row)
        # saturated kernel: rays generate a direct summand
        assert smith_diagonal(b) == (1, 1, 1)

    def test_requires_standard_input(self):
        with pytest.raises(MustStandardizeFirstError):
            gale_dual(M([[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]]))

    def test_square_weight_matrix_gives_zero_columns(self):
        b = gale_dual(M([[1, 0], [0, 1]]))
        assert b.rows == 2 and b.cols == 0


class TestWeightsFromRays:
    def test_round_trip_on_canonical_matrix(self):
        a = F2_WF.weights  # already Hermite-canonical
        assert weights_from_rays(gale_dual(a)) == a

    def test_projective_plane(self):
        assert weights_from_rays(P2_FAN.ray_matrix()) == M([[1, 1, 1]])

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            weights_from_rays(M([[1, 0], [2, 0]]))

    def test_torsion_class_group_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            weights_from_rays(M([[2]]))

    def test_independent_rays_have_no_weights(self):
        # A^2: its two rays satisfy no relation for a torus to grade by
        with pytest.raises(InvalidArgumentError, match="^rays are linearly independent"):
            weights_from_rays(M([[1, 0], [0, 1]]))


class TestWeightedBundleSpec:
    def test_full_tuple_stripped(self):
        s = WeightedBundleSpec(n=1, m=4, omega=(0, 1, 2, 3, 3), a=(1, 1, 1, 1, 1))
        assert s.a == (1, 1, 1, 1)
        assert s.fiber_weights == (1, 1, 1, 1, 1)

    def test_variables_base_then_fiber(self):
        s = WeightedBundleSpec(n=1, m=2, omega=(0, 0, 1), a=(2, 3))
        assert s.variables == ("x0", "x1", "y0", "y1", "y2")

    def test_negative_twist_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WeightedBundleSpec(n=1, m=1, omega=(0, -1), a=(1,))

    def test_full_tuple_must_start_with_one(self):
        with pytest.raises(InvalidArgumentError):
            WeightedBundleSpec(n=1, m=1, omega=(0, 0), a=(2, 3))

    def test_fiber_weights_must_be_well_formed(self):
        with pytest.raises(InvalidArgumentError):
            WeightedBundleSpec(n=1, m=2, omega=(0, 0, 0), a=(2, 2))

    def test_omega_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            WeightedBundleSpec(n=1, m=2, omega=(0, 0), a=(1, 1))


class TestWeightedBundleFan:
    def test_scroll_of_projective_line(self):
        # P(O + O(-1) + O(-2) + O(-3) + O(-3)) over P^1
        spec = WeightedBundleSpec(n=1, m=4, omega=(0, 1, 2, 3, 3), a=(1, 1, 1, 1))
        fan, pres = weighted_bundle_fan(spec)
        assert pres.weights == M(
            [[1, 1, 0, -1, -2, -3, -3], [0, 0, 1, 1, 1, 1, 1]]
        )
        assert pres.irrelevant == MonomialIdeal(((0, 1), (2, 3, 4, 5, 6)))
        assert pres.variables == ("x0", "x1", "y0", "y1", "y2", "y3", "y4")
        assert fan.num_rays == 7
        assert len(fan.max_cones) == 10
        assert all(len(c) == 5 for c in fan.max_cones)

    def test_rays_annihilated_by_weights(self):
        spec = WeightedBundleSpec(n=2, m=2, omega=(0, 2, 5), a=(2, 3))
        fan, pres = weighted_bundle_fan(spec)
        product = pres.weights @ fan.ray_matrix()
        assert all(e == 0 for row in product.entries for e in row)
        assert weights_from_rays(fan.ray_matrix()) == pres.weights

    def test_fan_matches_presentation_recipe(self):
        spec = WeightedBundleSpec(n=1, m=2, omega=(0, 1, 1), a=(1, 2))
        fan, pres = weighted_bundle_fan(spec)
        assert irrelevant_ideal_from_fan(fan) == pres.irrelevant
        rebuilt = fan_from_presentation(pres)
        assert weights_from_rays(rebuilt.ray_matrix()) == pres.weights
        assert irrelevant_ideal_from_fan(rebuilt) == pres.irrelevant

    def test_point_fiber_rejected(self):
        spec = WeightedBundleSpec(n=1, m=0, omega=(0,), a=())
        with pytest.raises(InvalidArgumentError):
            weighted_bundle_fan(spec)


class TestFanFromPresentation:
    def test_quadric_cone_model(self):
        fan = fan_from_presentation(F2_WF)
        assert fan.lattice_dim == 3
        assert fan.num_rays == 5
        assert len(fan.max_cones) == 6
        # every ray satisfies both weight relations
        product = F2_WF.weights @ fan.ray_matrix()
        assert all(e == 0 for row in product.entries for e in row)
        assert irrelevant_ideal_from_fan(fan) == F2_WF.irrelevant

    def test_projective_space(self):
        p = CoxPresentation(
            ("x", "y", "z"), M([[1, 1, 1]]), MonomialIdeal(((0, 1, 2),)), False
        )
        fan = fan_from_presentation(p)
        assert fan.num_rays == 3
        assert sorted(fan.max_cones) == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_non_well_formed(self):
        p = CoxPresentation(
            ("x", "y", "z"), M([[1, 2, 2]]), MonomialIdeal(((0, 1, 2),)), True
        )
        with pytest.raises(InvalidArgumentError):
            fan_from_presentation(p)

    def test_zero_gale_row_rejected_as_not_well_formed(self):
        # ker [[1,0,0],[0,1,1]] is spanned by (0,1,-1): x has a zero ray
        p = CoxPresentation(
            ("x", "y", "z"),
            M([[1, 0, 0], [0, 1, 1]]),
            MonomialIdeal(((0,), (1, 2))),
            True,
        )
        assert gale_dual(p.weights).entries[0] == (0,)
        with pytest.raises(InvalidArgumentError, match="must be well-formed"):
            fan_from_presentation(p)

    def test_generator_covering_all_variables_rejected(self):
        p = CoxPresentation(
            ("x", "y"),
            M([[1, 1]]),
            MonomialIdeal(((0,), (1,))),  # generators() == ((0, 1),)
            False,
        )
        with pytest.raises(UnsupportedFeatureError):
            fan_from_presentation(p)


class TestIrrelevantIdealFromFan:
    def test_projective_plane(self):
        assert irrelevant_ideal_from_fan(P2_FAN) == MonomialIdeal(((0, 1, 2),))

    def test_complete_cone_gives_unit_ideal(self):
        fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        assert irrelevant_ideal_from_fan(fan).components == ()


class TestStarSubdivision:
    def test_blow_up_point_of_plane(self):
        out = star_subdivision(P2_FAN, (1, 1))
        assert out.rays == P2_FAN.rays + ((1, 1),)
        assert set(out.max_cones) == {(1, 2), (0, 2), (0, 3), (1, 3)}

    def test_vector_made_primitive(self):
        assert star_subdivision(P2_FAN, (3, 3)) == star_subdivision(P2_FAN, (1, 1))

    def test_existing_ray_is_noop(self):
        assert star_subdivision(P2_FAN, (1, 0)) == P2_FAN
        assert star_subdivision(P2_FAN, (2, 0)) == P2_FAN

    def test_outside_support(self):
        fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        with pytest.raises(OutsideSupportError):
            star_subdivision(fan, (-1, -1))

    def test_origin_rejected(self):
        with pytest.raises(InvalidArgumentError):
            star_subdivision(P2_FAN, (0, 0))

    def test_interior_of_cone_splits_full_dimension(self):
        # weight (1,2) interior to the first quadrant cone of P^2
        out = star_subdivision(P2_FAN, (1, 2))
        assert out.num_rays == 4
        assert set(out.max_cones) == {(1, 2), (0, 2), (0, 3), (1, 3)}
        # the subdivided fan still describes the same irrelevant recipe shape
        assert len(irrelevant_ideal_from_fan(out).components) >= 1

    def test_subdivision_preserves_cox_round_trip(self):
        # blow up a torus-fixed point of the quadric cone bundle model
        fan = fan_from_presentation(F2_WF)
        w = tuple(
            a + b for a, b in zip(fan.rays[fan.max_cones[0][0]], fan.rays[fan.max_cones[0][1]])
        )
        out = star_subdivision(fan, w)
        assert out.num_rays == 6
        a = weights_from_rays(out.ray_matrix())
        assert a.rows == 3
        rebuilt = fan_from_presentation(
            CoxPresentation(
                tuple(f"v{i}" for i in range(6)),
                a,
                irrelevant_ideal_from_fan(out),
                stacky=False,
            )
        )
        assert set(rebuilt.max_cones) == set(out.max_cones)


def gauss_jordan_solve_in_cone(rays, cone, w):
    """Cone coefficients by Fraction Gauss-Jordan on ``[R | w]`` (test oracle)."""
    d, k = len(w), len(cone)
    aug = [
        [Fraction(rays[i][row]) for i in cone] + [Fraction(w[row])]
        for row in range(d)
    ]
    pivots = []
    prow = 0
    for col in range(k):
        pr = next((i for i in range(prow, d) if aug[i][col] != 0), None)
        if pr is None:
            continue
        aug[prow], aug[pr] = aug[pr], aug[prow]
        pivot = aug[prow][col]
        aug[prow] = [x / pivot for x in aug[prow]]
        for i in range(d):
            if i != prow and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[prow])]
        pivots.append((prow, col))
        prow += 1
    if len(pivots) != k:
        return None
    if any(aug[i][k] != 0 for i in range(prow, d)):
        return None
    coeffs = [Fraction(0)] * k
    for row, col in pivots:
        coeffs[col] = aug[row][k]
    if any(c < 0 for c in coeffs):
        return None
    return tuple(coeffs)


class TestSolveInCone:
    def test_matches_gauss_jordan_oracle(self):
        rng = random.Random(17)
        outcomes = {"inside": 0, "negative": 0, "off_span": 0}
        checked = 0
        while checked < 800:
            d = rng.randint(2, 5)
            k = rng.randint(1, d)
            rays = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k + 2)]
            cone = sorted(rng.sample(range(k + 2), k))
            if rank(IntMatrix(tuple(rays[i] for i in cone))) != k:
                continue  # Fan admits simplicial cones only
            if rng.random() < 0.7:
                lo = 0 if rng.random() < 0.5 else -2
                c = [rng.randint(lo, 3) for _ in cone]
                w = tuple(
                    sum(ci * rays[i][t] for ci, i in zip(c, cone)) for t in range(d)
                )
            else:
                w = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(w):
                continue
            w = primitive_vector(w)
            got = _solve_in_cone(rays, cone, w)
            assert got == gauss_jordan_solve_in_cone(rays, cone, w)
            if got is not None:
                assert all(
                    sum(ci * rays[i][t] for ci, i in zip(got, cone)) == w[t]
                    for t in range(d)
                )
                outcomes["inside"] += 1
            elif rank(IntMatrix(tuple(rays[i] for i in cone) + (w,))) == k:
                outcomes["negative"] += 1
            else:
                outcomes["off_span"] += 1
            checked += 1
        assert min(outcomes.values()) > 50

    def test_matches_gauss_jordan_oracle_on_large_entries(self):
        """Entries up to 10^6 in Z^2..Z^8, with short cones and negative pivots.

        The denominator is the last pivot of the elimination, so a cone whose
        last pivot is negative checks that its sign is carried into the
        coefficients before they are compared with zero.
        """
        rng = random.Random(1970)
        seen = {
            "inside": 0, "fractional": 0, "negative": 0, "off_span": 0,
            "inside_negative_pivot": 0, "short_cone": 0, "dim_8": 0, "huge": 0,
        }
        checked = 0
        while checked < 800:
            d = rng.randint(2, 8)
            k = d if rng.random() < 0.3 else rng.randint(1, d)
            span = rng.choice((10, 10**3, 10**6))
            rays = [tuple(rng.randint(-span, span) for _ in range(d)) for _ in range(k + 1)]
            cone = sorted(rng.sample(range(k + 1), k))
            vectors = [rays[i] for i in cone]
            if rank(IntMatrix(tuple(vectors))) != k:
                continue
            roll = rng.random()
            if roll < 0.75:
                lo = (0, 1, -9)[(roll >= 0.4) + (roll >= 0.55)]
                c = [rng.randint(lo, 9) for _ in cone]
                w = [sum(ci * v[t] for ci, v in zip(c, vectors)) for t in range(d)]
                if lo == 1:
                    # With every coefficient at least 1, a unit step mostly
                    # stays inside a full cone, with fractional coefficients.
                    w[rng.randrange(d)] += 1
                w = tuple(w)
            else:
                w = tuple(rng.randint(-span, span) for _ in range(d))
            if not any(w):
                continue
            if rng.random() < 0.5:
                w = primitive_vector(w)
            got = _solve_in_cone(rays, cone, w)
            assert got == gauss_jordan_solve_in_cone(rays, cone, w), (rays, cone, w)
            last_pivot = _kernels._bareiss([list(col) for col in zip(*vectors)])[3]
            if got is not None:
                seen["inside"] += 1
                seen["fractional"] += any(x.denominator > 1 for x in got)
                seen["inside_negative_pivot"] += last_pivot < 0
            elif rank(IntMatrix(tuple(vectors) + (w,))) == k:
                seen["negative"] += 1
            else:
                seen["off_span"] += 1
            seen["short_cone"] += k < d
            seen["dim_8"] += d == 8
            seen["huge"] += span == 10**6
            checked += 1
        assert min(seen.values()) >= 40, seen


class TestFanWork:
    """Kernel work of fan validation and star subdivision, on patched counters."""

    @staticmethod
    def counting(monkeypatch, owner, name, counts):
        real = getattr(owner, name)

        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    def test_fan_ranks_plain_rows_once_per_cone(self, monkeypatch):
        from test_acceptance import F3

        fan = fan_from_presentation(F3)
        counts = {}
        self.counting(monkeypatch, _kernels, "rank", counts)
        self.counting(monkeypatch, IntMatrix, "__post_init__", counts)
        again = Fan(fan.lattice_dim, fan.rays, fan.max_cones)
        assert again == fan and len(fan.max_cones) == 10
        assert counts == {"rank": len(fan.max_cones) + 1}

    def test_star_subdivision_solves_once_per_cone_without_hermite_forms(self, monkeypatch):
        from test_acceptance import F3

        fan = fan_from_presentation(F3)
        counts = {}
        for name in ("hnf", "hermite", "smith", "solve"):
            self.counting(monkeypatch, _kernels, name, counts)
        sub = star_subdivision(fan, (2, 1, 2, 1, 0))
        assert sub.rays == fan.rays + ((2, 1, 2, 1, 0),)
        assert len(sub.max_cones) == 14
        assert counts == {"solve": len(fan.max_cones)}


# ---------------------------------------------------------------------------
# derived fans against the public constructor


def reference_star_subdivision(fan, w):
    """Star subdivision building its result through ``Fan(...)``, which
    runs every check: the oracle for the fans ``star_subdivision`` builds
    without the rank checks."""
    vec = tuple(int(e) for e in w)
    if len(vec) != fan.lattice_dim:
        raise InvalidArgumentError(f"vector {vec} does not live in Z^{fan.lattice_dim}")
    if all(e == 0 for e in vec):
        raise InvalidArgumentError("cannot subdivide at the origin")
    vec = primitive_vector(vec)
    if vec in fan.rays:
        return fan
    containing, untouched = [], []
    for cone in fan.max_cones:
        coeffs = _solve_in_cone(fan.rays, cone, vec)
        if coeffs is None:
            untouched.append(cone)
        else:
            containing.append((cone, coeffs))
    if not containing:
        raise OutsideSupportError(f"{vec} lies outside the support of the fan")
    new_cones = {
        tuple(sorted([i for i in cone if i != cone[pos]] + [fan.num_rays]))
        for cone, coeffs in containing
        for pos, c in enumerate(coeffs)
        if c > 0
    }
    return Fan(fan.lattice_dim, fan.rays + (vec,), tuple(untouched) + tuple(sorted(new_cones)))


def fan_outcome(f, *args):
    """``("ok", fan, its attributes)`` or ``(error class, message)``."""
    try:
        fan = f(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc), str(exc)
    return "ok", fan, list(vars(fan).items())


def rebuilt(fan):
    """``fan`` built again through the public constructor."""
    return Fan(fan.lattice_dim, fan.rays, fan.max_cones)


def random_bundle_spec(rng):
    while True:
        m = rng.randint(1, 5)
        a = (1,) + tuple(rng.randint(1, 4) for _ in range(m))
        try:
            return WeightedBundleSpec(
                rng.randint(1, 3), m, tuple(rng.randint(0, 3) for _ in range(m + 1)), a
            )
        except InvalidArgumentError:
            continue  # (1, a) not well-formed


# Inputs that pass every check of ``Fan`` but are not fans.  In the first
# the cone on (1,0), (1,1) lies inside the cone on (1,0), (0,1).  In the
# second the cone on e1, e2 + e3 lies inside the cone on e1, e2, e3, so a
# vector inside both subdivides them into two nested cones.
NOT_FANS = (
    Fan(2, ((1, 0), (0, 1), (1, 1), (-1, -1)), ((0, 1), (0, 2), (1, 3))),
    Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)), ((0, 3), (0, 1, 2))),
)


class TestDerivedFans:
    """Bundle fans and subdivisions skip the rank checks; they must lose nothing."""

    def test_bundle_fans_and_subdivisions_equal_the_checked_fans(self):
        rng = random.Random(20261020)
        seen = {"subdivided": 0, "ray": 0, "origin": 0, "twice": 0}
        for _ in range(120):
            fan, _ = weighted_bundle_fan(random_bundle_spec(rng))
            checked = rebuilt(fan)
            assert fan == checked and list(vars(fan).items()) == list(vars(checked).items())
            for _ in range(3):
                w = tuple(rng.randint(-2, 2) for _ in range(fan.lattice_dim))
                if rng.random() < 0.1:
                    w = tuple(2 * x for x in rng.choice(fan.rays))  # a ray, not primitive
                elif rng.random() < 0.05:
                    w = (0,) * fan.lattice_dim
                got = fan_outcome(star_subdivision, fan, w)
                assert got == fan_outcome(reference_star_subdivision, fan, w), (fan, w)
                if got[0] != "ok":
                    seen["origin"] += 1
                    continue
                sub = got[1]
                if sub is fan:
                    seen["ray"] += 1
                    continue
                seen["subdivided"] += 1
                assert got == fan_outcome(rebuilt, sub)
                # a derived fan subdivided again
                v = tuple(rng.randint(-3, 3) for _ in range(fan.lattice_dim))
                again = fan_outcome(star_subdivision, sub, v)
                assert again == fan_outcome(reference_star_subdivision, sub, v), (sub, v)
                if again[0] == "ok" and again[1] is not sub:
                    seen["twice"] += 1
                    assert again == fan_outcome(rebuilt, again[1])
        assert min(seen.values()) >= 10 and seen["subdivided"] >= 200, seen

    @pytest.mark.parametrize("fan", NOT_FANS, ids=["overlap", "nested"])
    def test_errors_match_the_checked_construction_on_non_fans(self, fan):
        kinds = set()
        for w in itertools.product(range(-2, 3), repeat=fan.lattice_dim):
            got = fan_outcome(star_subdivision, fan, w)
            assert got == fan_outcome(reference_star_subdivision, fan, w), w
            kinds.add(got[0])
        assert "ok" in kinds and InvalidArgumentError in kinds

    def test_antichain_error_on_a_nested_subdivision(self):
        with pytest.raises(
            InvalidArgumentError,
            match=r"maximal cones must form an antichain: \(0, 4\) lies inside \(0, 1, 4\)",
        ):
            star_subdivision(NOT_FANS[1], (1, 1, 1))

    def test_errors_match_on_fans_that_are_not_complete(self):
        fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)), ((0, 1, 2), (1, 3)))
        kinds = set()
        for w in [*itertools.product(range(-1, 2), repeat=3), (1, 1), (1, 1, 1, 1)]:
            got = fan_outcome(star_subdivision, fan, w)
            assert got == fan_outcome(reference_star_subdivision, fan, w), w
            kinds.add(got[0])
        assert kinds == {"ok", InvalidArgumentError, OutsideSupportError}

    def test_derived_fans_run_no_validation(self, monkeypatch):
        spec = WeightedBundleSpec(1, 4, (0, 1, 2, 3, 3), (1, 2, 3, 1, 1))
        counts = {}
        TestFanWork.counting(monkeypatch, Fan, "__post_init__", counts)
        TestFanWork.counting(monkeypatch, _kernels, "rank", counts)
        fan, _ = weighted_bundle_fan(spec)
        star_subdivision(fan, (2, 1, 2, 1, 0))
        assert counts == {}


# ---------------------------------------------------------------------------
# the fan kept on its presentation


def fresh(p):
    """An equal presentation on a new weight matrix, with nothing kept."""
    return CoxPresentation(p.variables, M(p.weights.entries), p.irrelevant, p.stacky)


class TestFanKeptOnThePresentation:
    def test_second_call_returns_the_same_fan(self, monkeypatch):
        from test_acceptance import F3

        p = fresh(F3)
        counts = {}
        TestFanWork.counting(monkeypatch, Fan, "__post_init__", counts)
        fan = fan_from_presentation(p)
        assert fan_from_presentation(p) is fan and vars(p)["_fan"] is fan
        assert counts == {"__post_init__": 1}
        other = fan_from_presentation(fresh(F3))  # an equal value is another object
        assert other == fan and other is not fan and counts == {"__post_init__": 2}

    @pytest.mark.parametrize(
        "p, error, message",
        [
            (CoxPresentation(F2_WF.variables, M([[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]]),
                             F2_WF.irrelevant, True),
             MustStandardizeFirstError, "weight matrix is not standard"),
            (CoxPresentation(("x", "y", "z"), M([[1, 2, 2]]), MonomialIdeal(((0, 1, 2),)), True),
             InvalidArgumentError, "presentation must be well-formed"),
            (CoxPresentation(("u", "x", "t", "s", "y", "z", "w"),
                             M([[0, 1, 1, 1, 2, 3, 0], [1, 1, 0, 0, 0, -1, -1]]),
                             MonomialIdeal(((0, 1, 2, 3, 4), (5, 6)))),
             UnsupportedFeatureError, "is not simplicial"),
            (CoxPresentation(("x", "y", "z"), M([[1, 1, 1]]), MonomialIdeal(((0,), (1,), (2,)))),
             UnsupportedFeatureError, "uses every variable"),
        ],
        ids=["not-standard", "not-well-formed", "not-simplicial", "no-cone"],
    )
    def test_a_failure_raises_on_every_call_and_keeps_nothing(self, p, error, message):
        for _ in range(3):
            with pytest.raises(error, match=message):
                fan_from_presentation(p)
        assert "_fan" not in vars(p)

    def test_value_semantics_ignore_the_kept_fan(self):
        from test_acceptance import F3

        p = fresh(F3)
        before = (hash(p), repr(p), p == fresh(F3), pickle.dumps(p))
        fan = fan_from_presentation(p)
        assert "_fan" in vars(p)
        assert (hash(p), repr(p), p == fresh(F3), pickle.dumps(p)) == before
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == p and p == twin and "_fan" not in vars(twin)
            assert fan_from_presentation(twin) == fan
        assert not any(value is p for value in vars(fan).values())


# ---------------------------------------------------------------------------
# validation work of a `paper` benchmark pass


def load_paper_workload():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "paper.py")
    spec = importlib.util.spec_from_file_location("perfbench_paper", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPaperPassValidatesEachFanOnce:
    """Counts of one pass of the benchmark's ``paper`` workload.

    Only ``fan_from_presentation`` validates a fan there; the bundle fan
    and the subdivision are proven by construction.  A warm pass reads
    the fans kept on its inputs and validates only the fan of the
    well-formed blow-up, which is new on every pass.
    """

    @staticmethod
    def counted_pass(monkeypatch, paper, inputs):
        counts = {}
        TestFanWork.counting(monkeypatch, _kernels, "rank", counts)
        TestFanWork.counting(monkeypatch, Fan, "__post_init__", counts)
        paper.run_pass(inputs)
        return counts

    def test_warm_pass(self, monkeypatch):
        paper = load_paper_workload()
        inputs = paper.Inputs()
        paper.run_pass(inputs)
        assert self.counted_pass(monkeypatch, paper, inputs) == {
            "rank": 35, "__post_init__": 1
        }

    def test_pass_on_new_inputs(self, monkeypatch):
        paper = load_paper_workload()
        paper.run_pass(paper.Inputs())
        inputs = paper.Inputs()
        assert self.counted_pass(monkeypatch, paper, inputs) == {
            "rank": 53, "__post_init__": 3
        }


class TestPaperPassValidatesPresentations:
    """``CoxPresentation`` checks in one pass of the ``paper`` workload.

    Chamber models and well-formed models are built by construction; what
    remains are the presentations the pass builds from numbers (bundles,
    blow-ups, criteria inputs).  Inputs are built before counting.
    """

    @staticmethod
    def counted_pass(monkeypatch, paper, inputs):
        counts = {}
        TestFanWork.counting(monkeypatch, CoxPresentation, "__post_init__", counts)
        paper.run_pass(inputs)
        return counts.get("__post_init__", 0)

    def test_warm_pass(self, monkeypatch):
        paper = load_paper_workload()
        inputs = paper.Inputs()
        paper.run_pass(inputs)
        assert self.counted_pass(monkeypatch, paper, inputs) == 7

    def test_pass_on_new_inputs(self, monkeypatch):
        paper = load_paper_workload()
        paper.run_pass(paper.Inputs())
        inputs = paper.Inputs()
        assert self.counted_pass(monkeypatch, paper, inputs) == 7
