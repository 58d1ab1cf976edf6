"""The `paper` workload: acceptance criteria 1-10 as one operation.

The inputs and expected values are this benchmark's own copy of the
acceptance criteria.  `run_pass` makes the same library calls, in the same
order, as the ten criteria do; it returns what it observed as plain data
and `EXPECTED` holds what the paper states, so that a wrong expected value
is reported as a failed operation rather than stopping the run.
"""

from __future__ import annotations

from fractions import Fraction

from coxforge.blowup import (
    BlowupSpec,
    CIData,
    Equation,
    blow_up_weighted_bundle,
    discrepancy,
    solve_exceptional_weight,
)
from coxforge.coxpres import (
    CoxPresentation,
    MonomialIdeal,
    presentations_equivalent,
    verify_certificate,
    well_form,
)
from coxforge.galefan import (
    WeightedBundleSpec,
    fan_from_presentation,
    gale_dual,
    irrelevant_ideal_from_fan,
    star_subdivision,
    weighted_bundle_fan,
    weights_from_rays,
)
from coxforge.intlattice import IntMatrix, minor_gcd, unimodular_row_equivalent
from coxforge.singular import (
    QuotientSingularity,
    is_terminal_cyclic,
    weighted_bundle_charts,
)
from coxforge.vgit import (
    chambers_rank2,
    end_behavior,
    model_at_chamber,
    two_ray_game,
    wall_crossing,
)


def _pres(variables, rows, comps, stacky=False):
    return CoxPresentation(
        variables=tuple(variables),
        weights=IntMatrix(tuple(tuple(r) for r in rows)),
        irrelevant=MonomialIdeal(tuple(tuple(c) for c in comps)),
        stacky=stacky,
    )


def _components(ideal):
    """An ideal as the sorted set of its components (equality is set-wise)."""
    return tuple(sorted(ideal.components))


class Inputs:
    """The criteria's inputs, built once per process (set-up, not timed)."""

    def __init__(self):
        self.f2_raw = IntMatrix(((3, 3, 3, 0, -2), (1, 1, 1, 2, 0)))
        self.f2_stacky = _pres(
            "xyztu", [[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]], [(0, 1, 2), (3, 4)], True
        )
        self.f2_target = IntMatrix(((1, 1, 1, 0, -2), (0, 0, 0, 1, 1)))
        self.f2_wf = _pres(
            "xyztu", [[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]], [(0, 1, 2), (3, 4)]
        )
        self.scroll = _pres(
            ["y0", "y1", "x0", "x1", "x2", "x3", "x4"],
            [[1, 1, 0, -1, -2, -3, -3], [0, 0, 1, 1, 1, 1, 1]],
            [(0, 1), (2, 3, 4, 5, 6)],
        )
        self.f3 = _pres(
            "uvxyzts",
            [[1, 1, 0, -1, -2, -1, -1], [0, 0, 1, 2, 3, 1, 1]],
            [(0, 1), (2, 3, 4, 5, 6)],
        )
        self.tv = _pres(
            "uxtsyzw",
            [[0, 1, 1, 1, 2, 3, 0], [1, 1, 0, 0, 0, -1, -1]],
            [(0, 1, 2, 3, 4), (5, 6)],
        )
        self.blowup = BlowupSpec(
            center=(1, 2), k=2, fiber_weights=(1, 2, 3, 1, 1), b=(4, 2, 3, 1, 1),
            new_var="w",
        )
        self.ci = CIData(
            (
                Equation((-1, 3), ((1, 0, 0, 0, 1, 0, 0), (0, 0, 2, 0, 0, 1, 0))),
                Equation((-2, 4), ((0, 0, 0, 2, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0))),
            )
        )
        self.elliptic_target = IntMatrix(((1, 3, 2, 0, 0, 0), (0, 9, 8, 6, 1, 1)))


def run_pass(inp: Inputs) -> dict:
    """One operation: every library call of criteria 1-10, results as data."""
    r = {}
    # 01 weight reduction pipeline
    r["01.minor_gcd"] = minor_gcd(inp.f2_raw, 2)
    wf, cert = well_form(inp.f2_stacky)
    r["01.equivalent_to_target"] = unimodular_row_equivalent(wf.weights, inp.f2_target)
    r["01.certificate_verified"] = verify_certificate(
        inp.f2_stacky.weights, cert, wf.weights
    )
    # 02 Gale and fan round trip
    rays = gale_dual(inp.f2_wf.weights)
    product = inp.f2_wf.weights @ rays
    r["02.relations_vanish"] = all(e == 0 for row in product.entries for e in row)
    fan = fan_from_presentation(inp.f2_wf)
    r["02.num_rays"] = fan.num_rays
    r["02.num_cones"] = len(fan.max_cones)
    ideal = irrelevant_ideal_from_fan(fan)
    r["02.ideal"] = _components(ideal)
    named = CoxPresentation(inp.f2_wf.variables, inp.f2_wf.weights, ideal, stacky=False)
    r["02.ideal_by_name"] = named.ideal_by_name()
    # 03 weighted bundle construction
    spec = WeightedBundleSpec(n=1, m=4, omega=(0, 1, 2, 3, 3), a=(1, 1, 1, 1, 1))
    fan3, pres = weighted_bundle_fan(spec)
    r["03.equivalent_to_scroll"] = unimodular_row_equivalent(
        pres.weights, inp.scroll.weights
    )
    r["03.ideal"] = _components(pres.irrelevant)
    r["03.num_cones"] = len(fan3.max_cones)
    # 04 two-ray game of the scroll
    walls, chambers = chambers_rank2(inp.scroll)
    r["04.walls"] = walls
    r["04.model_ideals"] = tuple(
        _components(model_at_chamber(inp.scroll, c).irrelevant) for c in chambers
    )
    for key, wall in (("04.crossing_0_1", (0, 1)), ("04.crossing_m1_1", (-1, 1)),
                      ("04.crossing_m2_1", (-2, 1))):
        c = wall_crossing(inp.scroll, wall)
        r[key] = (c.type_vector, c.classification)
    game = two_ray_game(inp.scroll)
    r["04.end_kinds"] = tuple(e.kind for e in game.ends)
    r["04.end_generator_counts"] = tuple(len(e.target_generators) for e in game.ends)
    # 05 quadric cone bundle ends
    e0 = end_behavior(inp.f2_wf, (1, 0))
    r["05.end0"] = (e0.kind, tuple(sorted(e0.target_generators)))
    e1 = end_behavior(inp.f2_wf, (0, 1))
    r["05.end1"] = (
        e1.kind,
        e1.contracted_variable == inp.f2_wf.variable_index("u"),
        tuple(sorted(e1.target_generators)),
    )
    # 06 weighted blow-up of the scroll
    t = blow_up_weighted_bundle(inp.f3, inp.blowup)
    r["06.weights"] = t.weights.entries
    r["06.ideal"] = _components(t.irrelevant)
    wf6, cert6 = well_form(t)
    r["06.certificate_verified"] = verify_certificate(t.weights, cert6, wf6.weights)
    reduced_third_row = _pres(
        "uvxyztsw",
        [
            [1, 1, 0, -1, -2, -1, -1, 0],
            [0, 0, 1, 2, 3, 1, 1, 0],
            [1, 0, 1, 0, -1, 0, 0, -1],
        ],
        ((0, 1), (2, 3, 4, 5, 6), (0, 2, 3, 5, 6), (7, 1), (7, 4)),
        stacky=True,
    )
    r["06.equivalent_to_reduced"] = presentations_equivalent(t, reduced_third_row)
    fan_f3 = fan_from_presentation(inp.f3)
    new_ray = (2, 1, 2, 1, 0)
    sub = star_subdivision(fan_f3, new_ray)
    r["06.subdivision"] = (sub.num_rays, sub.rays[-1])
    from_fan = CoxPresentation(
        variables=tuple(f"r{i}" for i in range(8)),
        weights=weights_from_rays(sub.ray_matrix()),
        irrelevant=irrelevant_ideal_from_fan(sub),
        stacky=False,
    )
    r["06.equivalent_from_fan"] = presentations_equivalent(from_fan, wf6)
    fan8 = fan_from_presentation(wf6)
    r["06.old_rays_kept"] = fan8.rays[:7] == fan_f3.rays
    r["06.new_ray"] = fan8.rays[7]
    # 07 discrepancy and solve
    r["07.discrepancy"] = discrepancy(inp.blowup, inp.ci)
    pattern = BlowupSpec((1, 2), 2, (1, 2, 3, 1, 1), (None, 2, 3, 1, 1))
    r["07.solved_weight"] = solve_exceptional_weight(pattern, inp.ci, Fraction(1, 3))
    # 08 flop in the affine chart
    flop = wall_crossing(inp.tv, (1, 0))
    r["08.flop"] = (flop.type_vector, flop.classification, flop.base_weights)
    far = end_behavior(inp.tv, (1, 1))
    r["08.far_end"] = (far.kind, far.contracted_variable == inp.tv.variable_index("u"))
    # 09 elliptic fibration weights
    raw = _pres(
        ("x0", "x1", "x2", "x3", "x4", "x5"),
        [[3, 0, -2, -6, -1, -1], [0, 9, 8, 6, 1, 1]],
        [(0, 1), (2, 3, 4, 5)],
        stacky=True,
    )
    wf9, cert9 = well_form(raw)
    r["09.equivalent_to_stated"] = unimodular_row_equivalent(
        wf9.weights, inp.elliptic_target
    )
    r["09.certificate_verified"] = verify_certificate(raw.weights, cert9, wf9.weights)
    # 10 singularity charts
    straight = WeightedBundleSpec(n=1, m=4, omega=(0, 1, 2, 3, 3), a=(1, 1, 1, 1))
    r["10.straight_smooth"] = all(
        rep.type.is_smooth for rep in weighted_bundle_charts(straight)
    )
    weighted = WeightedBundleSpec(n=1, m=4, omega=(0, 1, 2, 1, 1), a=(2, 3, 1, 1))
    types = {rep.type.transverse() for rep in weighted_bundle_charts(weighted)}
    r["10.has_types"] = (
        QuotientSingularity(2, (1, 1, 1, 1)) in types,
        QuotientSingularity(3, (1, 1, 1, 2)) in types,
    )
    r["10.terminal"] = (
        is_terminal_cyclic(QuotientSingularity(2, (1, 1, 1))),
        is_terminal_cyclic(QuotientSingularity(3, (1, 1, 2))),
    )
    return r


_QUADRIC_FIBRATION = ((0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0))
_VERONESE = (
    (0, 0, 0, 1, 0), (0, 0, 2, 0, 1), (0, 1, 1, 0, 1), (0, 2, 0, 0, 1),
    (1, 0, 1, 0, 1), (1, 1, 0, 0, 1), (2, 0, 0, 0, 1),
)
_BLOWUP_IDEAL = tuple(sorted(((0, 1), (2, 3, 4, 5, 6), (0, 2, 3, 5, 6), (1, 7), (4, 7))))

EXPECTED = {
    "01.minor_gcd": 2,
    "01.equivalent_to_target": True,
    "01.certificate_verified": True,
    "02.relations_vanish": True,
    "02.num_rays": 5,
    "02.num_cones": 6,
    "02.ideal": ((0, 1, 2), (3, 4)),
    "02.ideal_by_name": "(x,y,z)(t,u)",
    "03.equivalent_to_scroll": True,
    "03.ideal": ((0, 1), (2, 3, 4, 5, 6)),
    "03.num_cones": 10,
    "04.walls": ((1, 0), (0, 1), (-1, 1), (-2, 1), (-3, 1)),
    "04.model_ideals": (
        ((0, 1), (2, 3, 4, 5, 6)),
        ((0, 1, 2), (3, 4, 5, 6)),
        ((0, 1, 2, 3), (4, 5, 6)),
        ((0, 1, 2, 3, 4), (5, 6)),
    ),
    "04.crossing_0_1": ((1, 1, -1, -2, -3, -3), "AntiFlip"),
    "04.crossing_m1_1": ((1, 1, 1, -1, -2, -2), "AntiFlip"),
    "04.crossing_m2_1": ((1, 1, 2, 1, -1, -1), "Flip"),
    "04.end_kinds": ("Fibration", "Fibration"),
    "04.end_generator_counts": (2, 2),
    "05.end0": ("Fibration", _QUADRIC_FIBRATION),
    "05.end1": ("DivisorialContraction", True, _VERONESE),
    "06.weights": (
        (1, 1, 0, -1, -2, -1, -1, 0),
        (0, 0, 1, 2, 3, 1, 1, 0),
        (3, 0, 4, 2, 0, 1, 1, -3),
    ),
    "06.ideal": _BLOWUP_IDEAL,
    "06.certificate_verified": True,
    "06.equivalent_to_reduced": True,
    "06.subdivision": (8, (2, 1, 2, 1, 0)),
    "06.equivalent_from_fan": True,
    "06.old_rays_kept": True,
    "06.new_ray": (2, 1, 2, 1, 0),
    "07.discrepancy": Fraction(1, 3),
    "07.solved_weight": 4,
    "08.flop": ((1, 1, -1, -1), "Flop", (1, 1, 2)),
    "08.far_end": ("DivisorialContraction", True),
    "09.equivalent_to_stated": True,
    "09.certificate_verified": True,
    "10.straight_smooth": True,
    "10.has_types": (True, True),
    "10.terminal": (True, True),
}
