"""Gale duality, fans, weighted bundles, and star subdivision."""

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
