"""Exact-arithmetic toolkit for toric varieties presented by Cox data.

A presentation is a weight matrix together with an irrelevant monomial
ideal; the package turns such data into fans, singularity charts, variation
of GIT chambers and birational surgery (blow-ups, flips, divisorial
contractions), all over arbitrary-precision integers.
"""

from __future__ import annotations

from importlib import import_module

from . import errors
from .errors import *  # noqa: F403 -- the names in ``errors.__all__``

# Each public name outside ``errors`` and the submodule that defines it.
# ``__getattr__`` imports that submodule on first use, so ``import coxforge``
# (and the CLI, verb by verb) loads only the layers it touches.
_LAZY = {
    name: module
    for module, names in (
        ("intlattice", (
            "IntMatrix", "UnimodularWitness", "det", "hnf_canonical",
            "hnf_transform", "integer_inverse", "is_standard", "kernel_basis",
            "minor_gcd", "primitive_vector", "rank", "smith_diagonal",
            "smith_transforms", "standardize", "standardize_with_steps",
            "unimodular_row_equivalent",
        )),
        ("coxpres", (
            "ColumnScale", "CoxPresentation", "MonomialIdeal", "RowDivide",
            "RowTransform", "WellFormingCertificate", "coarse_moduli",
            "is_well_formed", "minimal_transversals", "presentations_equivalent",
            "verify_certificate", "well_form", "wps_well_form",
        )),
        ("galefan", (
            "Fan", "WeightedBundleSpec", "fan_from_presentation", "gale_dual",
            "irrelevant_ideal_from_fan", "star_subdivision",
            "weighted_bundle_fan", "weights_from_rays",
        )),
        ("singular", (
            "ChartReport", "QuotientSingularity", "classify_type",
            "fixed_point_type", "is_terminal_cyclic", "normalize_type",
            "weighted_bundle_charts",
        )),
        ("vgit", (
            "Chamber", "EndBehavior", "GameDiagram", "WallCrossing",
            "anticanonical_in_moving_interior", "chambers_rank2", "cones_rank2",
            "end_behavior", "graded_ring_generators", "model_at_chamber",
            "monomial_string", "two_ray_game", "wall_crossing",
        )),
        ("blowup", (
            "BlowupSpec", "CIData", "Equation", "blow_up_weighted_bundle",
            "blow_up_wps", "blowup_map_description", "bundle_spec_of",
            "discrepancy", "pullback_order", "solve_exceptional_weight",
        )),
        ("formats", (
            "BlowupJob", "parse_blowup_job", "parse_fan", "parse_matrix",
            "parse_presentation", "serialize_blowup_job", "serialize_fan",
            "serialize_matrix", "serialize_presentation",
        )),
    )
    for name in names
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *_LAZY]
