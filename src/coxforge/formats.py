"""Text formats for matrices, presentations, fans and blow-up jobs.

All parsers accept blank lines and ``#`` comments, raise
:class:`FormatError` with a line reference on malformed input, and
round-trip with the serializers (parse → serialize → parse is the
identity on values).

Matrix::

    2 5
    3 3 3 0 -2
    1 1 1 2 0

Presentation::

    rank 2
    vars x y z t u
    3 3 3 0 -2
    1 1 1 2 0
    irrelevant (x,y,z)(t,u)
    stacky true          # optional

Fan (1-based ray indices in cones)::

    dim 3
    rays 5
    1 0 0
    ...
    cones 6
    1 2 4
    ...

Blow-up job (used by the ``discrepancy`` command)::

    center 1 2
    k 2
    fiber 1 2 3 1 1
    b 4 2 3 1 1          # "?" marks the unknown entry
    newvar w             # optional
    equation deg -1 3 support 1,0,0,0,1,0,0 0,0,2,0,0,1,0
    equation deg -2 4 order 4
    target 1/3           # optional: switches to solve mode
    bound 1000           # optional search bound
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from ._frozen import frozen
from .coxpres import CoxPresentation, MonomialIdeal
from .errors import CoxforgeError, FormatError
from .intlattice import IntMatrix

# For annotations only: the parsers import these where they use them, so a
# CLI verb that reads no fan or blow-up job does not load their modules.
if TYPE_CHECKING:
    from fractions import Fraction

    from .blowup import BlowupSpec, CIData, Equation
    from .galefan import Fan

__all__ = [
    "parse_matrix",
    "serialize_matrix",
    "parse_presentation",
    "serialize_presentation",
    "parse_fan",
    "serialize_fan",
    "BlowupJob",
    "parse_blowup_job",
    "serialize_blowup_job",
]


def _lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _ints(token_line: tuple[int, str], expect: Optional[int] = None) -> list[int]:
    no, line = token_line
    try:
        values = [int(t) for t in line.split()]
    except ValueError:
        raise FormatError(f"line {no}: expected integers, got {line!r}") from None
    if expect is not None and len(values) != expect:
        raise FormatError(f"line {no}: expected {expect} integers, got {len(values)}")
    return values


def parse_matrix(text: str) -> IntMatrix:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty matrix input")
    header = _ints(lines[0], 2)
    r, n = header
    if r <= 0 or n <= 0:
        raise FormatError(f"line {lines[0][0]}: matrix dimensions must be positive")
    if len(lines) != 1 + r:
        raise FormatError(f"expected {r} rows after the header, got {len(lines) - 1}")
    rows = [tuple(_ints(lines[1 + i], n)) for i in range(r)]
    return IntMatrix(tuple(rows))


def serialize_matrix(m: IntMatrix) -> str:
    out = [f"{m.rows} {m.cols}"]
    out.extend(" ".join(str(e) for e in row) for row in m.entries)
    return "\n".join(out) + "\n"


_COMPONENT = re.compile(r"\(([^()]*)\)")


def parse_presentation(text: str) -> CoxPresentation:
    lines = _lines(text)
    if len(lines) < 4:
        raise FormatError("presentation needs rank, vars, weights and irrelevant lines")
    no, line = lines[0]
    m = re.fullmatch(r"rank\s+(\d+)", line)
    if not m:
        raise FormatError(f"line {no}: expected 'rank r', got {line!r}")
    r = int(m.group(1))
    no, line = lines[1]
    if not line.startswith("vars"):
        raise FormatError(f"line {no}: expected 'vars ...', got {line!r}")
    variables = tuple(line.split()[1:])
    if not variables:
        raise FormatError(f"line {no}: no variable names")
    if len(lines) < 2 + r + 1:
        raise FormatError(f"expected {r} weight rows and an irrelevant line")
    rows = [tuple(_ints(lines[2 + i], len(variables))) for i in range(r)]
    no, line = lines[2 + r]
    if not line.startswith("irrelevant"):
        raise FormatError(f"line {no}: expected 'irrelevant ...', got {line!r}")
    body = line[len("irrelevant"):].strip()
    if _COMPONENT.sub("", body).strip():
        raise FormatError(f"line {no}: malformed component list {body!r}")
    components = []
    index = {name: i for i, name in enumerate(variables)}
    for group in _COMPONENT.findall(body):
        names = [t.strip() for t in group.split(",") if t.strip()]
        if not names:
            raise FormatError(f"line {no}: empty component")
        try:
            components.append(tuple(index[t] for t in names))
        except KeyError as exc:
            raise FormatError(f"line {no}: unknown variable {exc.args[0]!r}") from None
    stacky = False
    rest = lines[3 + r :]
    if rest:
        no, line = rest[0]
        m = re.fullmatch(r"stacky\s+(true|false)", line)
        if not m or len(rest) > 1:
            raise FormatError(f"line {no}: unexpected trailing content {line!r}")
        stacky = m.group(1) == "true"
    try:
        return CoxPresentation(
            variables=variables,
            weights=IntMatrix(tuple(rows)),
            irrelevant=MonomialIdeal(tuple(components)),
            stacky=stacky,
        )
    except CoxforgeError as exc:
        raise FormatError(f"invalid presentation: {exc}") from exc


def serialize_presentation(p: CoxPresentation) -> str:
    out = [f"rank {p.rank}", "vars " + " ".join(p.variables)]
    out.extend(" ".join(str(e) for e in row) for row in p.weights.entries)
    comps = "".join(
        "(" + ",".join(p.variables[i] for i in comp) + ")"
        for comp in p.irrelevant.components
    )
    out.append(f"irrelevant {comps}")
    if p.stacky:
        out.append("stacky true")
    return "\n".join(out) + "\n"


def parse_fan(text: str) -> Fan:
    from .galefan import Fan

    lines = _lines(text)
    if not lines:
        raise FormatError("empty fan input")
    no, line = lines[0]
    m = re.fullmatch(r"dim\s+(\d+)", line)
    if not m:
        raise FormatError(f"line {no}: expected 'dim d', got {line!r}")
    dim = int(m.group(1))
    if len(lines) < 2:
        raise FormatError("missing 'rays k' line")
    no, line = lines[1]
    m = re.fullmatch(r"rays\s+(\d+)", line)
    if not m:
        raise FormatError(f"line {no}: expected 'rays k', got {line!r}")
    k = int(m.group(1))
    if len(lines) < 2 + k + 1:
        raise FormatError(f"expected {k} ray lines and a 'cones m' line")
    rays = [tuple(_ints(lines[2 + i], dim)) for i in range(k)]
    no, line = lines[2 + k]
    m = re.fullmatch(r"cones\s+(\d+)", line)
    if not m:
        raise FormatError(f"line {no}: expected 'cones m', got {line!r}")
    count = int(m.group(1))
    if len(lines) != 3 + k + count:
        raise FormatError(f"expected {count} cone lines, got {len(lines) - 3 - k}")
    cones = []
    for i in range(count):
        no, line = lines[3 + k + i]
        indices = _ints((no, line))
        if any(j < 1 or j > k for j in indices):
            raise FormatError(f"line {no}: ray indices must be in 1..{k}")
        cones.append(tuple(j - 1 for j in indices))
    try:
        return Fan(lattice_dim=dim, rays=tuple(rays), max_cones=tuple(cones))
    except CoxforgeError as exc:
        raise FormatError(f"invalid fan: {exc}") from exc


def serialize_fan(f: Fan) -> str:
    out = [f"dim {f.lattice_dim}", f"rays {f.num_rays}"]
    out.extend(" ".join(str(e) for e in ray) for ray in f.rays)
    out.append(f"cones {len(f.max_cones)}")
    out.extend(" ".join(str(i + 1) for i in cone) for cone in f.max_cones)
    return "\n".join(out) + "\n"


@frozen
class BlowupJob:
    """Parsed blow-up discrepancy job: spec, equations and solve target."""

    spec: BlowupSpec
    ci: CIData
    target: Optional[Fraction] = None
    bound: int = 1000


def parse_blowup_job(text: str) -> BlowupJob:
    from fractions import Fraction

    from .blowup import BlowupSpec, CIData

    center = None
    k = None
    fiber = None
    b = None
    new_var = "xi"
    equations: list[Equation] = []
    target: Optional[Fraction] = None
    bound = 1000
    seen: set[str] = set()
    for no, line in _lines(text):
        tokens = line.split()
        key = tokens[0]
        if key != "equation":
            if key in seen:
                raise FormatError(f"line {no}: duplicate key {key!r}")
            seen.add(key)
        if key == "center":
            center = tuple(_ints((no, " ".join(tokens[1:])), 2))
        elif key == "k":
            (k,) = _ints((no, " ".join(tokens[1:])), 1)
        elif key == "fiber":
            fiber = tuple(_ints((no, " ".join(tokens[1:]))))
        elif key == "b":
            entries = []
            for t in tokens[1:]:
                if t == "?":
                    entries.append(None)
                else:
                    try:
                        entries.append(int(t))
                    except ValueError:
                        raise FormatError(
                            f"line {no}: bad b entry {t!r}"
                        ) from None
            b = tuple(entries)
        elif key == "newvar":
            if len(tokens) != 2:
                raise FormatError(f"line {no}: expected 'newvar NAME'")
            new_var = tokens[1]
        elif key == "equation":
            equations.append(_parse_equation(no, tokens[1:]))
        elif key == "target":
            if len(tokens) != 2:
                raise FormatError(f"line {no}: expected 'target RATIONAL'")
            try:
                target = Fraction(tokens[1])
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"line {no}: bad rational {tokens[1]!r}") from None
        elif key == "bound":
            (bound,) = _ints((no, " ".join(tokens[1:])), 1)
        else:
            raise FormatError(f"line {no}: unknown key {key!r}")
    missing = [
        name
        for name, value in (("center", center), ("k", k), ("fiber", fiber), ("b", b))
        if value is None
    ]
    if missing:
        raise FormatError(f"blow-up job is missing: {', '.join(missing)}")
    try:
        spec = BlowupSpec(center=center, k=k, fiber_weights=fiber, b=b, new_var=new_var)
        ci = CIData(tuple(equations))
    except CoxforgeError as exc:
        raise FormatError(f"invalid blow-up job: {exc}") from exc
    return BlowupJob(spec=spec, ci=ci, target=target, bound=bound)


def _parse_equation(no: int, tokens: list[str]) -> Equation:
    from .blowup import Equation

    if not tokens or tokens[0] != "deg":
        raise FormatError(f"line {no}: equation must start with 'deg'")
    degree = []
    i = 1
    while i < len(tokens) and tokens[i] not in ("support", "order"):
        try:
            degree.append(int(tokens[i]))
        except ValueError:
            raise FormatError(f"line {no}: bad degree entry {tokens[i]!r}") from None
        i += 1
    if not degree:
        raise FormatError(f"line {no}: equation needs a degree")
    support = None
    order = None
    if i < len(tokens):
        mode = tokens[i]
        rest = tokens[i + 1 :]
        if mode == "support":
            if not rest:
                raise FormatError(f"line {no}: 'support' needs monomials")
            monos = []
            for t in rest:
                try:
                    monos.append(tuple(int(x) for x in t.split(",")))
                except ValueError:
                    raise FormatError(f"line {no}: bad monomial {t!r}") from None
            support = tuple(monos)
        elif mode == "order":
            if len(rest) != 1:
                raise FormatError(f"line {no}: 'order' needs one integer")
            try:
                order = int(rest[0])
            except ValueError:
                raise FormatError(f"line {no}: bad order {rest[0]!r}") from None
    try:
        return Equation(tuple(degree), support=support, order=order)
    except CoxforgeError as exc:
        raise FormatError(f"line {no}: invalid equation: {exc}") from exc


def serialize_blowup_job(job: BlowupJob) -> str:
    spec = job.spec
    out = [
        "center " + " ".join(str(c) for c in spec.center),
        f"k {spec.k}",
        "fiber " + " ".join(str(a) for a in spec.fiber_weights),
        "b " + " ".join("?" if e is None else str(e) for e in spec.b),
    ]
    if spec.new_var != "xi":
        out.append(f"newvar {spec.new_var}")
    for eq in job.ci.equations:
        line = "equation deg " + " ".join(str(d) for d in eq.degree)
        if eq.support is not None:
            line += " support " + " ".join(
                ",".join(str(e) for e in mono) for mono in eq.support
            )
        elif eq.order is not None:
            line += f" order {eq.order}"
        out.append(line)
    if job.target is not None:
        out.append(f"target {job.target}")
    if job.bound != 1000:
        out.append(f"bound {job.bound}")
    return "\n".join(out) + "\n"
