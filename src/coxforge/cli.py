"""Command-line front end.

Fourteen verbs map one-to-one onto library operations: ``standardize``,
``wellform``, ``wps``, ``gale``, ``fan2cox``, ``cox2fan``, ``subdivide``,
``charts``, ``chambers``, ``game``, ``gens``, ``blowup``, ``discrepancy``
and ``equiv``.  Exit codes: 0 success, 2 input or validation error
(diagnostic on stderr), 1 internal invariant violation or standard output
closed before the result was written.  ``--json`` switches to a
byte-stable machine-readable form (sorted keys, 0-based indices); ``--dot
FILE`` writes a Graphviz diagram for ``game`` and ``cox2fan``.

A process loads only what its verb uses.  Importing this module loads
``errors``, ``intlattice`` (with ``_kernels`` and ``_frozen``), ``coxpres``
and ``formats``, which is all that ``standardize``, ``wellform``, ``wps``
and ``equiv`` need.
The other verbs import their layers when they run: ``gale``, ``fan2cox``,
``cox2fan`` and ``subdivide`` load ``galefan``; ``chambers``, ``game`` and
``gens`` load ``vgit``; ``blowup`` and ``discrepancy`` load ``blowup`` and
``galefan``; ``charts`` loads those two and ``singular``.  The parser
registers only the verb named by the first argument, and every verb when
that argument names none (help, ``--version``, no argument, a typo).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .coxpres import (
    CoxPresentation,
    presentations_equivalent,
    verify_certificate,
    well_form,
    wps_well_form,
)
from .errors import CoxforgeError
from .formats import (
    parse_blowup_job,
    parse_fan,
    parse_matrix,
    parse_presentation,
    serialize_fan,
    serialize_matrix,
    serialize_presentation,
)
from .intlattice import minor_gcd, standardize

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CoxforgeError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise CoxforgeError(f"cannot write {path}: {exc.strerror}") from exc


def _presentation_payload(p: CoxPresentation) -> dict:
    return {
        "rank": p.rank,
        "variables": list(p.variables),
        "weights": p.weights.to_lists(),
        "irrelevant": [
            [p.variables[i] for i in comp] for comp in p.irrelevant.components
        ],
        "stacky": p.stacky,
    }


def _step_payload(step) -> dict:
    kind = type(step).__name__
    if kind == "RowTransform":
        return {"kind": "row_transform", "matrix": step.witness.matrix.to_lists()}
    if kind == "ColumnScale":
        return {
            "kind": "column_scale",
            "column": step.column,
            "factor": step.factor,
            "row": step.row,
        }
    if kind == "RowDivide":
        return {"kind": "row_divide", "row": step.row, "factor": step.factor}
    raise AssertionError(f"unknown step {kind}")


def _step_text(step) -> str:
    payload = _step_payload(step)
    kind = payload["kind"]
    if kind == "row_transform":
        rows = ",".join(
            "[" + ",".join(str(e) for e in row) + "]" for row in payload["matrix"]
        )
        return f"row transform by [{rows}]"
    if kind == "column_scale":
        return (
            f"scale column {payload['column']} by {payload['factor']} "
            f"(row {payload['row']} stays integral)"
        )
    return f"divide row {payload['row']} by {payload['factor']}"


# ---------------------------------------------------------------------------
# verb handlers: each returns (human_text, json_payload)


def _cmd_standardize(args) -> tuple[str, dict]:
    m = parse_matrix(_read(args.file))
    transform, standard = standardize(m)  # a tall matrix fails here, on its rank
    gcd_before = minor_gcd(m, m.rows)  # read from the Smith form ``m`` keeps
    human = [
        f"minor gcd {gcd_before}",
        "standard matrix:",
        serialize_matrix(standard).rstrip(),
        "transform (input = transform @ standard):",
        serialize_matrix(transform).rstrip(),
    ]
    payload = {
        "minor_gcd": gcd_before,
        "standard": standard.to_lists(),
        "transform": transform.to_lists(),
    }
    return "\n".join(human), payload


def _cmd_wellform(args) -> tuple[str, dict]:
    p = parse_presentation(_read(args.file))
    wf, cert = well_form(p)
    verified = verify_certificate(p.weights, cert, wf.weights)
    if not verified:
        raise AssertionError("well-forming certificate failed to verify")
    human = []
    if not cert.steps:
        human.append("already well-formed")
    human.append(serialize_presentation(wf).rstrip())
    if cert.steps:
        human.append(f"certificate ({len(cert.steps)} steps, verified):")
        human.extend("  " + _step_text(s) for s in cert.steps)
    payload = {
        "already_well_formed": not cert.steps,
        "presentation": _presentation_payload(wf),
        "steps": [_step_payload(s) for s in cert.steps],
        "verified": True,
    }
    return "\n".join(human), payload


def _cmd_wps(args) -> tuple[str, dict]:
    weights = wps_well_form(tuple(args.weights))
    human = "well-formed weights: " + " ".join(str(w) for w in weights)
    return human, {"weights": list(weights)}


def _cmd_gale(args) -> tuple[str, dict]:
    from .galefan import gale_dual

    p = parse_presentation(_read(args.file))
    b = gale_dual(p.weights)
    human = ["gale dual rays (one per variable):"]
    human.extend(
        f"{p.variables[i]}: " + " ".join(str(e) for e in b.row(i))
        for i in range(b.rows)
    )
    return "\n".join(human), {
        "rays": b.to_lists(),
        "variables": list(p.variables),
    }


def _cmd_fan2cox(args) -> tuple[str, dict]:
    from .galefan import irrelevant_ideal_from_fan, weights_from_rays

    fan = parse_fan(_read(args.file))
    weights = weights_from_rays(fan.ray_matrix())
    ideal = irrelevant_ideal_from_fan(fan)
    p = CoxPresentation(
        variables=tuple(f"x{i}" for i in range(fan.num_rays)),
        weights=weights,
        irrelevant=ideal,
        stacky=False,
    )
    return serialize_presentation(p).rstrip(), {
        "presentation": _presentation_payload(p)
    }


def _fan_payload(fan) -> dict:
    return {
        "dim": fan.lattice_dim,
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c) for c in fan.max_cones],
    }


def _fan_dot(fan) -> str:
    cones = fan.max_cones
    lines = ["graph fan {", "  node [shape=box];"]
    for i, cone in enumerate(cones):
        label = "{" + ",".join(str(j + 1) for j in cone) + "}"
        lines.append(f'  c{i} [label="{label}"];')
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            shared = set(cones[i]) & set(cones[j])
            if len(shared) == len(cones[i]) - 1 == len(cones[j]) - 1:
                lines.append(f"  c{i} -- c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_cox2fan(args) -> tuple[str, dict]:
    from .galefan import fan_from_presentation

    p = parse_presentation(_read(args.file))
    fan = fan_from_presentation(p)
    if args.dot:
        _write(args.dot, _fan_dot(fan))
    return serialize_fan(fan).rstrip(), {"fan": _fan_payload(fan)}


def _cmd_subdivide(args) -> tuple[str, dict]:
    from .galefan import star_subdivision

    fan = parse_fan(_read(args.file))
    result = star_subdivision(fan, tuple(args.ray))
    return serialize_fan(result).rstrip(), {"fan": _fan_payload(result)}


def _cmd_charts(args) -> tuple[str, dict]:
    from .blowup import bundle_spec_of
    from .singular import classify_type, weighted_bundle_charts

    p = parse_presentation(_read(args.file))
    spec = bundle_spec_of(p)
    reports = weighted_bundle_charts(spec)
    human = []
    payload = []
    for rep in reports:
        i, j = rep.chart
        verdict = classify_type(rep.type)
        human.append(f"U({i},{j}): {rep.type} [{verdict}]")
        payload.append(
            {
                "chart": [i, j],
                "index": rep.type.index,
                "weights": list(rep.type.weights),
                "verdict": verdict,
            }
        )
    return "\n".join(human), {"charts": payload}


def _cmd_chambers(args) -> tuple[str, dict]:
    from .vgit import chambers_rank2, model_at_chamber

    p = parse_presentation(_read(args.file))
    walls, chambers = chambers_rank2(p)
    human = ["walls: " + " ".join(f"({w[0]},{w[1]})" for w in walls)]
    payload_chambers = []
    for ch in chambers:
        model = model_at_chamber(p, ch)
        human.append(
            f"chamber {ch.index}: <({ch.left[0]},{ch.left[1]}),"
            f"({ch.right[0]},{ch.right[1]})>  irrelevant {model.ideal_by_name()}"
        )
        payload_chambers.append(
            {
                "index": ch.index,
                "left": list(ch.left),
                "right": list(ch.right),
                "irrelevant": [
                    [model.variables[i] for i in comp]
                    for comp in model.irrelevant.components
                ],
            }
        )
    return "\n".join(human), {
        "walls": [list(w) for w in walls],
        "chambers": payload_chambers,
    }


def _end_text(p: CoxPresentation, end) -> str:
    from .vgit import monomial_string

    gens = " ".join(monomial_string(p.variables, g) for g in end.target_generators)
    ray = f"({end.ray[0]},{end.ray[1]})"
    if end.kind == "Fibration":
        return f"end at {ray}: Fibration, target generators {{{gens}}}"
    var = p.variables[end.contracted_variable]
    return (
        f"end at {ray}: DivisorialContraction of {var}, "
        f"target generators {{{gens}}}"
    )


def _end_payload(p: CoxPresentation, end) -> dict:
    from .vgit import monomial_string

    out = {
        "kind": end.kind,
        "ray": list(end.ray),
        "target_generators": [
            monomial_string(p.variables, g) for g in end.target_generators
        ],
        "exponents": [list(g) for g in end.target_generators],
    }
    if end.contracted_variable is not None:
        out["contracted_variable"] = p.variables[end.contracted_variable]
    return out


def _crossing_text(p: CoxPresentation, c) -> str:
    tv = ",".join(str(t) for t in c.type_vector)
    base = ",".join(p.variables[i] for i in c.base_vars)
    bw = ",".join(str(w) for w in c.base_weights)
    return (
        f"wall ({c.wall[0]},{c.wall[1]}): {c.classification} ({tv}), "
        f"base ({base}) weights ({bw})"
    )


def _game_dot(p: CoxPresentation, game) -> str:
    from .vgit import monomial_string

    lines = ["digraph game {", "  rankdir=LR;", "  node [shape=box];"]
    for i, model in enumerate(game.models):
        lines.append(f'  m{i} [label="{model.ideal_by_name()}"];')
    for i, crossing in enumerate(game.crossings):
        tv = ",".join(str(t) for t in crossing.type_vector)
        label = f"{crossing.classification} ({tv})"
        lines.append(f'  m{i} -> m{i + 1} [style=dashed, label="{label}"];')
    for slot, (end, anchor) in enumerate(
        zip(game.ends, (0, len(game.models) - 1))
    ):
        gens = " ".join(monomial_string(p.variables, g) for g in end.target_generators)
        label = end.kind
        if end.contracted_variable is not None:
            label += f" of {p.variables[end.contracted_variable]}"
        lines.append(f'  e{slot} [shape=ellipse, label="{label}"];')
        lines.append(f'  m{anchor} -> e{slot} [label="{gens}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_game(args) -> tuple[str, dict]:
    from .vgit import two_ray_game

    p = parse_presentation(_read(args.file))
    game = two_ray_game(p, degree_bound=args.bound)
    human = [f"models: {len(game.models)}"]
    for i, model in enumerate(game.models):
        human.append(f"model {i}: irrelevant {model.ideal_by_name()}")
    human.append(f"crossings: {len(game.crossings)}")
    human.extend("  " + _crossing_text(p, c) for c in game.crossings)
    human.append(_end_text(p, game.ends[0]))
    human.append(_end_text(p, game.ends[1]))
    if args.dot:
        _write(args.dot, _game_dot(p, game))
    payload = {
        "models": [_presentation_payload(m) for m in game.models],
        "crossings": [
            {
                "wall": list(c.wall),
                "type_vector": list(c.type_vector),
                "classification": c.classification,
                "base_vars": [p.variables[i] for i in c.base_vars],
                "base_weights": list(c.base_weights),
            }
            for c in game.crossings
        ],
        "ends": [_end_payload(p, e) for e in game.ends],
    }
    return "\n".join(human), payload


def _cmd_gens(args) -> tuple[str, dict]:
    from .vgit import graded_ring_generators, monomial_string

    p = parse_presentation(_read(args.file))
    gens = graded_ring_generators(p, (args.chi1, args.chi2), args.bound)
    names = [monomial_string(p.variables, g) for g in gens]
    human = "\n".join(names) if names else "(no generators up to the bound)"
    return human, {
        "chi": [args.chi1, args.chi2],
        "bound": args.bound,
        "generators": names,
        "exponents": [list(g) for g in gens],
    }


def _cmd_blowup(args) -> tuple[str, dict]:
    from .blowup import (
        BlowupSpec,
        blow_up_weighted_bundle,
        blowup_map_description,
        bundle_spec_of,
    )

    p = parse_presentation(_read(args.file))
    bundle = bundle_spec_of(p)
    try:
        center = tuple(int(t) for t in args.center.split(","))
        b = tuple(int(t) for t in args.b.split(","))
    except ValueError:
        raise CoxforgeError(
            "--center and --b must be comma-separated integers"
        ) from None
    spec = BlowupSpec(
        center=center,
        k=args.k,
        fiber_weights=bundle.fiber_weights,
        b=b,
        new_var=args.newvar,
    )
    result = blow_up_weighted_bundle(p, spec)
    substitution = blowup_map_description(result, spec)
    human = [serialize_presentation(result).rstrip(), "blow-down substitution:"]
    for name, exponent in substitution:
        if exponent == 0:
            human.append(f"  {name} -> {name}")
        else:
            human.append(f"  {name} -> {name}*{spec.new_var}^({exponent})")
    payload = {
        "presentation": _presentation_payload(result),
        "substitution": [
            {"variable": name, "exponent": str(exponent)}
            for name, exponent in substitution
        ],
    }
    return "\n".join(human), payload


def _cmd_discrepancy(args) -> tuple[str, dict]:
    from .blowup import discrepancy, solve_exceptional_weight

    job = parse_blowup_job(_read(args.file))
    if job.spec.is_pattern:
        if job.target is None:
            raise CoxforgeError(
                "blow-up job has an unknown weight; add a 'target' line to solve"
            )
        value = solve_exceptional_weight(job.spec, job.ci, job.target, job.bound)
        solved = job.spec.with_unknown(value)
        d = discrepancy(solved, job.ci)
        human = f"solved exceptional weight: {value}\ndiscrepancy: {d}"
        return human, {
            "solved_weight": value,
            "discrepancy": str(d),
            "target": str(job.target),
        }
    d = discrepancy(job.spec, job.ci)
    payload = {"discrepancy": str(d)}
    human = f"discrepancy: {d}"
    if job.target is not None:
        matches = d == job.target
        human += f"\nmatches target {job.target}: {'yes' if matches else 'no'}"
        payload["target"] = str(job.target)
        payload["matches_target"] = matches
    return human, payload


def _cmd_equiv(args) -> tuple[str, dict]:
    p = parse_presentation(_read(args.file))
    q = parse_presentation(_read(args.other))
    result = presentations_equivalent(p, q)
    return ("equivalent" if result else "not equivalent"), {"equivalent": result}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


# Every verb: its handler, help line and arguments (each also takes --json).
_VERBS = {
    "standardize": (_cmd_standardize, "factor a matrix as unimodular × standard", (
        _arg("file", help="matrix file"),
    )),
    "wellform": (_cmd_wellform, "well-form a presentation with a certificate", (
        _arg("file", help="presentation file"),
    )),
    "wps": (_cmd_wps, "well-form weighted projective space weights", (
        _arg("weights", nargs="+", type=int, help="positive weights"),
    )),
    "gale": (_cmd_gale, "Gale-dual rays of a presentation's weights", (
        _arg("file", help="presentation file"),
    )),
    "fan2cox": (_cmd_fan2cox, "Cox presentation of a simplicial fan", (
        _arg("file", help="fan file"),
    )),
    "cox2fan": (_cmd_cox2fan, "fan of a well-formed presentation", (
        _arg("file", help="presentation file"),
        _arg("--dot", metavar="FILE", help="write cone adjacency graph"),
    )),
    "subdivide": (_cmd_subdivide, "star subdivision of a fan at a ray", (
        _arg("file", help="fan file"),
        _arg("ray", nargs="+", type=int, help="ray coordinates"),
    )),
    "charts": (_cmd_charts, "singularity types of bundle fixed points", (
        _arg("file", help="weighted-bundle presentation file"),
    )),
    "chambers": (_cmd_chambers, "GIT chamber decomposition (rank 2)", (
        _arg("file", help="presentation file"),
    )),
    "game": (_cmd_game, "full 2-ray game: models, crossings, ends", (
        _arg("file", help="presentation file"),
        _arg("--dot", metavar="FILE", help="write game diagram"),
        _arg("--bound", type=int, default=None, help="generator degree bound"),
    )),
    "gens": (_cmd_gens, "graded ring generators for a character", (
        _arg("file", help="presentation file"),
        _arg("chi1", type=int, help="first character coordinate"),
        _arg("chi2", type=int, help="second character coordinate"),
        _arg("--bound", type=int, default=3, help="degree bound (default 3)"),
    )),
    "blowup": (_cmd_blowup, "blow up a weighted bundle at a fixed point", (
        _arg("file", help="weighted-bundle presentation file"),
        _arg("--center", required=True, metavar="R,S", help="fixed point indices"),
        _arg("--k", required=True, type=int, help="distinguished fiber index"),
        _arg("--b", required=True, metavar="LIST", help="exceptional weights"),
        _arg("--newvar", default="xi", help="exceptional variable name"),
    )),
    "discrepancy": (_cmd_discrepancy, "discrepancy of a blow-up job file", (
        _arg("file", help="blow-up job file"),
    )),
    "equiv": (_cmd_equiv, "are two presentations the same variety?", (
        _arg("file", help="first presentation file"),
        _arg("other", help="second presentation file"),
    )),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: only its verb if it starts with one, else all.

    Help, ``--version``, no arguments and unknown verbs get every verb.
    """
    verb = argv[0] if argv and argv[0] in _VERBS else None
    parser = argparse.ArgumentParser(
        prog="coxforge",
        description="Exact toolkit for toric varieties presented by Cox data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="verb",
        required=True,
        # The usage line of a one-verb parser (printed for an unrecognized
        # argument) still lists every verb.
        metavar=None if verb is None else "{" + ",".join(_VERBS) + "}",
    )
    for name in _VERBS if verb is None else (verb,):
        handler, help_text, arguments = _VERBS[name]
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--json", action="store_true", help="machine-readable output")
        s.set_defaults(handler=handler)
        for flags, options in arguments:
            s.add_argument(*flags, **options)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        human, payload = args.handler(args)
    except CoxforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) if args.json else human
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at /dev/null so that the
        # flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
