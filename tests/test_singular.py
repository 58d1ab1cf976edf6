"""Cyclic quotient singularities and chart reports for weighted bundles."""

import time
from itertools import combinations_with_replacement
from math import gcd

import pytest

from coxforge.cli import main
from coxforge.errors import InvalidArgumentError, UnsupportedFeatureError
from coxforge.galefan import WeightedBundleSpec
from coxforge.singular import (
    ChartReport,
    QuotientSingularity,
    classify_type,
    fixed_point_type,
    is_terminal_cyclic,
    normalize_type,
    weighted_bundle_charts,
)

Q = QuotientSingularity


class TestQuotientSingularity:
    def test_weights_reduced_mod_index(self):
        assert Q(3, (4, -1, 6)).weights == (1, 2, 0)

    def test_rendering(self):
        assert str(Q(3, (1, 1, 2))) == "1/3(1,1,2)"
        assert str(Q(2, ())) == "1/2()"

    def test_index_validation(self):
        with pytest.raises(InvalidArgumentError):
            Q(0, (1,))
        with pytest.raises(InvalidArgumentError):
            Q(2, (1.5,))

    def test_is_smooth(self):
        assert Q(1, (0, 0)).is_smooth
        assert Q(4, (0, 0)).is_smooth  # all weights zero after reduction
        assert not Q(2, (1, 1)).is_smooth

    def test_transverse_strips_trivial_directions(self):
        assert Q(3, (0, 1, 0, 2)).transverse() == Q(3, (1, 2))


class TestNormalizeType:
    def test_common_factor_with_index_divided_out(self):
        assert normalize_type(Q(6, (2, 4))) == Q(3, (1, 2))

    def test_residues_sorted(self):
        assert normalize_type(Q(5, (3, 1, 2))) == Q(5, (1, 2, 3))

    def test_zero_slots_survive(self):
        assert normalize_type(Q(4, (0, 2, 0))) == Q(2, (0, 0, 1))

    def test_collapse_to_smooth(self):
        assert normalize_type(Q(4, (0, 4, 8))) == Q(1, (0, 0, 0))

    def test_idempotent(self):
        for q in [Q(6, (2, 4)), Q(5, (3, 1, 2)), Q(12, (8, 10, 4))]:
            once = normalize_type(q)
            assert normalize_type(once) == once


class TestTerminality:
    def test_smooth_counts_as_terminal(self):
        assert is_terminal_cyclic(Q(1, (0,)))
        assert is_terminal_cyclic(Q(3, (0, 0)))

    def test_half_point(self):
        # ordinary double point quotient 1/2(1,1,1): terminal
        assert is_terminal_cyclic(Q(2, (1, 1, 1)))

    def test_third_point(self):
        assert is_terminal_cyclic(Q(3, (1, 1, 2)))

    def test_non_terminal_examples(self):
        # 1/3(1,1,1): the generator has age 1, not > 1
        assert not is_terminal_cyclic(Q(3, (1, 1, 1)))
        # surface quotients are never terminal (age of some element <= 1)
        assert not is_terminal_cyclic(Q(2, (1, 1)))
        assert not is_terminal_cyclic(Q(3, (1, 2)))

    def test_standard_terminal_family(self):
        # 1/r(1, -1, b) with gcd(b, r) = 1 is the full 3-fold terminal list
        for r in range(2, 12):
            for b in range(1, r):
                if __import__("math").gcd(b, r) == 1:
                    assert is_terminal_cyclic(Q(r, (1, r - 1, b)))

    def test_non_isolated_undecided(self):
        with pytest.raises(UnsupportedFeatureError):
            is_terminal_cyclic(Q(4, (1, 2, 3)))

    def test_trivial_factors_ignored(self):
        assert is_terminal_cyclic(Q(2, (1, 1, 1, 0)))

    def test_classify_type(self):
        assert classify_type(Q(1, ())) == "smooth"
        assert classify_type(Q(2, (1, 1, 1))) == "terminal"
        assert classify_type(Q(3, (1, 1, 1))) == "non-terminal"
        assert classify_type(Q(4, (1, 2, 3))) == "undecided"


SCROLL = WeightedBundleSpec(n=1, m=4, omega=(0, 1, 2, 3, 3), a=(1, 1, 1, 1))
WEIGHTED = WeightedBundleSpec(n=1, m=2, omega=(0, 1, 1), a=(2, 3))


class TestFixedPointType:
    def test_unit_fiber_weight_gives_smooth_chart(self):
        t = fixed_point_type(SCROLL, 0, 0)
        assert t.index == 1 and t.is_smooth

    def test_weighted_fiber_chart(self):
        # chart at y1 (weight 2): residues of (1, 3) joined by one base zero
        t = fixed_point_type(WEIGHTED, 0, 1)
        assert t == normalize_type(Q(2, (0, 1, 1)))

    def test_type_independent_of_base_chart(self):
        for j in range(WEIGHTED.m + 1):
            assert fixed_point_type(WEIGHTED, 0, j) == fixed_point_type(WEIGHTED, 1, j)

    def test_chart_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            fixed_point_type(WEIGHTED, 2, 0)
        with pytest.raises(InvalidArgumentError):
            fixed_point_type(WEIGHTED, 0, 3)


class TestWeightedBundleCharts:
    def test_chart_count_and_indices(self):
        reports = weighted_bundle_charts(WEIGHTED)
        assert len(reports) == (WEIGHTED.n + 1) * (WEIGHTED.m + 1)
        assert [r.chart for r in reports] == [
            (i, j) for i in range(2) for j in range(3)
        ]

    def test_straight_scroll_is_smooth_everywhere(self):
        assert all(r.type.is_smooth for r in weighted_bundle_charts(SCROLL))

    def test_weighted_scroll_chart_types(self):
        # P(O + O(-1) + O(-2) + O(-1) + O(-1)) fibered in P(1,2,3,1,1)
        spec = WeightedBundleSpec(n=1, m=4, omega=(0, 1, 2, 1, 1), a=(2, 3, 1, 1))
        types = {r.type for r in weighted_bundle_charts(spec)}
        assert Q(2, (0, 1, 1, 1, 1)) in types
        assert normalize_type(Q(3, (0, 1, 2, 1, 1))) in types
        verdicts = {str(r.type): classify_type(r.type) for r in weighted_bundle_charts(spec)}
        # every non-smooth chart here is non-isolated in the ambient 5-fold
        assert set(verdicts.values()) <= {"smooth", "undecided", "terminal", "non-terminal"}

    def test_chart_report_validation(self):
        with pytest.raises(InvalidArgumentError):
            ChartReport((-1, 0), Q(1, ()))


# ---------------------------------------------------------------------------
# terminality in closed form against the Reid-Tai loop


def reid_tai_loop(q):
    """The earlier ``is_terminal_cyclic``: the age of every group element (oracle)."""
    t = q.transverse()
    r = t.index
    if r == 1:
        return True
    if any(gcd(w, r) != 1 for w in t.weights):
        raise UnsupportedFeatureError(
            f"type {t} is not isolated (a weight shares a factor with the "
            "index); terminality is undecided here"
        )
    return all(
        sum((j * w) % r for w in t.weights) > r for j in range(1, r)
    )


def isolated_types(dim, max_index):
    """Every isolated type ``1/r(w_1..w_dim)`` with sorted unit weights, ``r <= max_index``."""
    for r in range(2, max_index + 1):
        units = [w for w in range(1, r) if gcd(w, r) == 1]
        for weights in combinations_with_replacement(units, dim):
            yield Q(r, weights)


class TestTerminalLemma:
    @pytest.mark.parametrize("dim, max_index", [(1, 32), (2, 32), (3, 32), (4, 18), (5, 13)])
    def test_agrees_with_the_loop_on_isolated_types(self, dim, max_index):
        verdicts = {True: 0, False: 0}
        for q in isolated_types(dim, max_index):
            expected = reid_tai_loop(q)
            assert is_terminal_cyclic(q) is expected, q
            verdicts[expected] += 1
        if dim >= 3:
            assert min(verdicts.values()) > 0, verdicts

    def test_non_isolated_and_trivial_factors_agree(self):
        cases = [Q(4, (1, 2, 3)), Q(6, (1, 5, 2, 0)), Q(9, (3, 1, 8)), Q(5, (0, 0)),
                 Q(7, (1, 6, 0, 3)), Q(8, (1, 1, 1, 5, 0))]
        for q in cases:
            try:
                expected = reid_tai_loop(q)
            except UnsupportedFeatureError as exc:
                with pytest.raises(UnsupportedFeatureError) as got:
                    is_terminal_cyclic(q)
                assert str(got.value) == str(exc)
            else:
                assert is_terminal_cyclic(q) is expected, q

    def test_large_index_pair(self):
        # the loop ran r - 1 = 10,000,018 ages here (about 10 s)
        r = 10_000_019
        start = time.perf_counter()
        assert is_terminal_cyclic(Q(r, (1, r - 1, 2)))
        assert not is_terminal_cyclic(Q(r, (1, 2, 3)))
        assert time.perf_counter() - start < 1.0

    def test_charts_on_a_large_weight_bundle(self, tmp_path, capsys):
        # fiber weights (1, 1000002, 2, 1000003): the loop took about 2 s
        path = tmp_path / "bundle.cox"
        path.write_text(
            "rank 2\nvars y0 y1 x0 x1 x2 x3\n"
            "1 1 0 0 0 -1\n0 0 1 1000002 2 1000003\n"
            "irrelevant (y0,y1)(x0,x1,x2,x3)\n"
        )
        start = time.perf_counter()
        assert main(["charts", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.splitlines() == [
            f"U({i},{j}): {t} [{v}]"
            for i in range(2)
            for j, t, v in [
                (0, "1/1(0,0,0,0)", "smooth"),
                (1, "1/1000002(0,1,1,2)", "undecided"),
                (2, "1/2(0,0,1,1)", "non-terminal"),
                (3, "1/1000003(0,1,2,1000002)", "terminal"),
            ]
        ]
