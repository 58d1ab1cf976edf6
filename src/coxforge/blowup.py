"""Blow-up constructions on Cox presentations.

Two constructions are provided: weighted blow-ups of weighted projective
space (a rank-2 presentation with a fresh exceptional variable) and
blow-ups of rank-2 weighted bundles over P^1 at a torus-fixed point (a
rank-3 presentation whose fan is the star subdivision of the bundle fan at
an exceptional ray).  Discrepancy bookkeeping for complete-intersection
restrictions, pullback orders along the exceptional divisor, and the
inverse problem (solving for an exceptional weight from a target
discrepancy) round out the module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from ._frozen import frozen
from .coxpres import CoxPresentation, MonomialIdeal
from .errors import InvalidArgumentError, SolveNotFoundError, UnsupportedFeatureError
from .galefan import (
    WeightedBundleSpec,
    irrelevant_ideal_from_fan,
    star_subdivision,
    weighted_bundle_fan,
)
from .intlattice import IntMatrix, _as_int, primitive_vector

__all__ = [
    "BlowupSpec",
    "bundle_spec_of",
    "Equation",
    "CIData",
    "blow_up_weighted_bundle",
    "blow_up_wps",
    "blowup_map_description",
    "pullback_order",
    "discrepancy",
    "solve_exceptional_weight",
]


@frozen
class BlowupSpec:
    """Data of a weighted blow-up at a torus-fixed point of a bundle.

    ``center = (r, s)`` names the fixed point where base coordinate ``X_r``
    and fiber coordinate ``Y_s`` do not vanish; ``k`` is the distinguished
    fiber index (the ``1/a_k`` singularity being blown up, so ``s == k``).
    ``b`` lists the exceptional weights ``b_0..b_m`` over the fiber
    indices; one entry may be ``None`` to leave it unknown (a *pattern*,
    resolved by :func:`solve_exceptional_weight`).
    """

    center: tuple
    k: int
    fiber_weights: tuple[int, ...]
    b: tuple[Optional[int], ...]
    new_var: str = "xi"

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(self.center))
        object.__setattr__(self, "fiber_weights", tuple(map(_as_int, self.fiber_weights)))
        object.__setattr__(
            self, "b", tuple(None if x is None else _as_int(x) for x in self.b)
        )
        a = self.fiber_weights
        if not a or any(w <= 0 for w in a):
            raise InvalidArgumentError("fiber weights must be positive")
        if not 0 <= self.k < len(a):
            raise InvalidArgumentError(f"k={self.k} is not a fiber index")
        if len(self.b) != len(a):
            raise InvalidArgumentError("one exceptional weight per fiber index")
        if sum(1 for x in self.b if x is None) > 1:
            raise InvalidArgumentError("at most one unknown exceptional weight")
        ak = a[self.k]
        for i, bi in enumerate(self.b):
            if bi is None:
                continue
            if bi <= 0:
                raise InvalidArgumentError("exceptional weights must be positive")
            if i == self.k:
                if bi % ak != 0:
                    raise InvalidArgumentError(
                        f"b_{i}={bi} must be a multiple of a_k={ak}"
                    )
            elif bi % ak != a[i] % ak:
                raise InvalidArgumentError(
                    f"b_{i}={bi} must be congruent to a_{i}={a[i]} mod a_k={ak}"
                )
        if not self.new_var.isidentifier():
            raise InvalidArgumentError(f"bad variable name {self.new_var!r}")

    @property
    def a_k(self) -> int:
        return self.fiber_weights[self.k]

    @property
    def is_pattern(self) -> bool:
        return any(x is None for x in self.b)

    def with_unknown(self, value: int) -> "BlowupSpec":
        """The pattern with its unknown entry filled in."""
        if not self.is_pattern:
            raise InvalidArgumentError("spec has no unknown entry")
        filled = tuple(value if x is None else x for x in self.b)
        return BlowupSpec(self.center, self.k, self.fiber_weights, filled, self.new_var)

    def _require_complete(self) -> None:
        if self.is_pattern:
            raise InvalidArgumentError(
                "exceptional weights contain an unknown; solve it first"
            )

    def exceptional_multiplicities(self, num_variables: int) -> tuple[int, ...]:
        """Per-variable exceptional vanishing weights (b_i/a_k in units of
        1/a_k), over the bundle variables ``X_0, X_1, Y_0..Y_m``.

        The center coordinates carry 0; ``X_{1-r}`` carries ``b_k``.
        """
        self._require_complete()
        m = len(self.fiber_weights) - 1
        if num_variables != m + 3:
            raise InvalidArgumentError(
                f"expected {m + 3} bundle variables, got {num_variables}"
            )
        r, s = self._center_pair()
        out = [0] * num_variables
        out[1 - r] = self.b[self.k]
        for i, bi in enumerate(self.b):
            if i != self.k:
                out[2 + i] = bi
        return tuple(out)

    def _center_pair(self) -> tuple[int, int]:
        if len(self.center) != 2 or not all(isinstance(c, int) for c in self.center):
            raise InvalidArgumentError(
                f"center {self.center!r} is not a fixed-point index pair"
            )
        r, s = self.center
        if r not in (0, 1):
            raise InvalidArgumentError("base index of the center must be 0 or 1")
        if s != self.k:
            raise InvalidArgumentError(
                f"center fiber index {s} must equal the distinguished index k={self.k}"
            )
        return r, s


@frozen
class Equation:
    """A complete-intersection equation: degree class plus, optionally,
    its monomial support or an explicitly known exceptional order."""

    degree: tuple[int, ...]
    support: Optional[tuple[tuple[int, ...], ...]] = None
    order: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", tuple(map(_as_int, self.degree)))
        if self.support is not None:
            support = tuple(tuple(map(_as_int, mono)) for mono in self.support)
            if not support:
                raise InvalidArgumentError("support, when given, must be nonempty")
            if any(e < 0 for mono in support for e in mono):
                raise InvalidArgumentError("exponents must be nonnegative")
            object.__setattr__(self, "support", support)
        if self.order is not None and self.order < 0:
            raise InvalidArgumentError("exceptional order must be nonnegative")


@frozen
class CIData:
    """Equations cutting a complete intersection inside the ambient."""

    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "equations", tuple(self.equations))
        lengths = {len(eq.degree) for eq in self.equations}
        if len(lengths) > 1:
            raise InvalidArgumentError("equation degrees must share one rank")


# ---------------------------------------------------------------------------
# recognizing a weighted bundle presentation


def bundle_spec_of(p: CoxPresentation) -> WeightedBundleSpec:
    """Recover the weighted-bundle data from a presentation, or fail.

    Expects base columns ``(1, 0)`` first, then fiber columns
    ``(-omega_i, a_i)`` with ``a_0 = 1``, and the two-component ideal
    (base variables) ∩ (fiber variables).
    """
    if p.rank != 2:
        raise InvalidArgumentError("a weighted bundle presentation has rank 2")
    cols = p.weights.columns()
    n = 0
    while n < len(cols) and cols[n] == (1, 0):
        n += 1
    n -= 1  # number of base variables is n + 1
    if n < 1:
        raise InvalidArgumentError(
            "weights are not in weighted-bundle form (missing base columns)"
        )
    fiber = cols[n + 1 :]
    if not fiber or fiber[0][1] != 1 or fiber[0][0] > 0:
        raise InvalidArgumentError("weights are not in weighted-bundle form")
    if any(c[1] <= 0 or c[0] > 0 for c in fiber):
        raise InvalidArgumentError("weights are not in weighted-bundle form")
    omega = tuple(-c[0] for c in fiber)
    a = tuple(c[1] for c in fiber)
    base_vars = tuple(range(n + 1))
    fiber_vars = tuple(range(n + 1, len(cols)))
    if p.irrelevant != MonomialIdeal((base_vars, fiber_vars)):
        raise InvalidArgumentError(
            "irrelevant ideal is not the bundle ideal (base) ∩ (fiber)"
        )
    return WeightedBundleSpec(n=n, m=len(a) - 1, omega=omega, a=a)


# ---------------------------------------------------------------------------
# the two blow-up constructions


def blow_up_weighted_bundle(
    p: CoxPresentation, spec: BlowupSpec
) -> CoxPresentation:
    """Blow up a rank-2 weighted bundle over P^1 at a torus-fixed point.

    Appends the exceptional variable with column ``(0, 0, -a_k)`` and the
    third weight row carrying the exceptional multiplicities; the
    five-component irrelevant ideal is checked against the star
    subdivision of the bundle fan at the implied exceptional ray.
    """
    bundle = bundle_spec_of(p)
    if bundle.n != 1:
        raise UnsupportedFeatureError(
            "fixed-point blow-up is implemented for bundles over P^1 only"
        )
    spec._require_complete()
    if spec.fiber_weights != bundle.fiber_weights:
        raise InvalidArgumentError(
            f"spec fiber weights {spec.fiber_weights} do not match the bundle's "
            f"{bundle.fiber_weights}"
        )
    r, _ = spec._center_pair()
    m = bundle.m
    if spec.new_var in p.variables:
        raise InvalidArgumentError(f"variable {spec.new_var!r} already in use")

    third = list(spec.exceptional_multiplicities(p.num_variables)) + [-spec.a_k]
    rows = [list(row) + [0] for row in p.weights.entries]
    rows.append(third)

    x = (0, 1)  # base variable indices
    y = tuple(range(2, 2 + m + 1))  # fiber variable indices
    xi = m + 3
    components = (
        x,
        y,
        (xi, x[r]),
        (xi, y[spec.k]),
        (x[1 - r],) + tuple(y[i] for i in range(m + 1) if i != spec.k),
    )
    result = CoxPresentation(
        variables=p.variables + (spec.new_var,),
        weights=IntMatrix(tuple(tuple(row) for row in rows)),
        irrelevant=MonomialIdeal(components),
        stacky=True,
    )

    # Fan coherence: the new ray is integral and star subdivision of the
    # bundle fan at it reproduces the five-component ideal.
    fan, _ = weighted_bundle_fan(bundle)
    rays = fan.rays
    alpha = rays[1 - r]
    numerator = [spec.b[spec.k] * c for c in alpha]
    for i in range(m + 1):
        if i == spec.k:
            continue
        beta_i = rays[2 + i]
        numerator = [acc + spec.b[i] * c for acc, c in zip(numerator, beta_i)]
    if any(c % spec.a_k != 0 for c in numerator):
        raise InvalidArgumentError(
            "exceptional ray is not integral for these weights"
        )
    gamma = tuple(c // spec.a_k for c in numerator)
    subdivided = star_subdivision(fan, gamma)
    if irrelevant_ideal_from_fan(subdivided) != result.irrelevant:
        raise AssertionError("star subdivision does not reproduce the blow-up ideal")
    return result


def blow_up_wps(
    a: Sequence[int],
    k: int,
    alpha: int,
    b: Sequence[int],
    variables: Optional[Sequence[str]] = None,
) -> CoxPresentation:
    """Weighted blow-up of ``P(a_0..a_n)`` along the stratum
    ``{x_{k+1} = ... = x_n = 0}`` with exceptional weight ``alpha``.

    The result lives on ``C[y, x_0..x_n]`` with irrelevant ideal
    ``(y, x_0..x_k) ∩ (x_{k+1}..x_n)`` and weights
    ``[[alpha, 0..0, -b_{k+1}..-b_n], [0, a_0..a_n]]``.
    """
    a = tuple(map(_as_int, a))
    b = tuple(map(_as_int, b))
    n = len(a) - 1
    if n < 1:
        raise InvalidArgumentError("need at least two weights")
    if any(w <= 0 for w in a):
        raise InvalidArgumentError("weights must be positive")
    if not 0 <= k <= n - 1:
        raise InvalidArgumentError(f"split index k={k} out of range 0..{n - 1}")
    if alpha <= 0:
        raise InvalidArgumentError("exceptional weight alpha must be positive")
    if len(b) != n - k:
        raise InvalidArgumentError(
            f"need one b-entry per blown-down variable, got {len(b)} for {n - k}"
        )
    if any(w <= 0 for w in b):
        raise InvalidArgumentError("b-entries must be positive")
    if variables is None:
        variables = ("y",) + tuple(f"x{i}" for i in range(n + 1))
    variables = tuple(variables)
    if len(variables) != n + 2:
        raise InvalidArgumentError("need one name for y and each x_i")
    row0 = (alpha,) + (0,) * (k + 1) + tuple(-w for w in b)
    row1 = (0,) + a
    ideal = MonomialIdeal(
        (tuple(range(k + 2)), tuple(range(k + 2, n + 2)))
    )
    return CoxPresentation(
        variables=variables,
        weights=IntMatrix((row0, row1)),
        irrelevant=ideal,
        stacky=True,
    )


# ---------------------------------------------------------------------------
# map description, orders and discrepancies


def blowup_map_description(
    p: CoxPresentation,
    exceptional: Union[BlowupSpec, str, None] = None,
) -> tuple[tuple[str, Fraction], ...]:
    """The blow-down substitution: variable ↦ variable · ξ^exponent.

    The exceptional variable's column must be supported in a single weight
    row; each other variable's exponent is minus its entry in that row
    divided by the exceptional entry.  With no hint, the last then the
    first variable is tried.
    """
    if isinstance(exceptional, BlowupSpec):
        name = exceptional.new_var
    elif isinstance(exceptional, str):
        name = exceptional
    else:
        name = None

    def single_row(j: int) -> Optional[int]:
        col = p.weights.column(j)
        nz = [i for i, e in enumerate(col) if e != 0]
        return nz[0] if len(nz) == 1 else None

    if name is not None:
        exc = p.variable_index(name)
        row = single_row(exc)
        if row is None:
            raise InvalidArgumentError(
                f"column of {name!r} is not supported in a single weight row"
            )
    else:
        for candidate in (p.num_variables - 1, 0):
            row = single_row(candidate)
            if row is not None:
                exc = candidate
                break
        else:
            raise InvalidArgumentError(
                "no variable with a single-row column; name the exceptional one"
            )
    pivot = p.weights.entries[row][exc]
    out = []
    for j in range(p.num_variables):
        if j == exc:
            continue
        out.append((p.variables[j], Fraction(-p.weights.entries[row][j], pivot)))
    return tuple(out)


def pullback_order(
    spec: BlowupSpec, support: Sequence[Sequence[int]]
) -> int:
    """Vanishing order (in units of 1/a_k) of a polynomial with the given
    monomial support along the exceptional divisor: the minimum over
    monomials of the b-weighted exponent sum."""
    spec._require_complete()
    monos = [tuple(map(_as_int, mono)) for mono in support]
    if not monos:
        raise InvalidArgumentError("support must be nonempty")
    num_vars = len(monos[0])
    if any(len(m) != num_vars for m in monos):
        raise InvalidArgumentError("support exponent vectors must share a length")
    weights = spec.exceptional_multiplicities(num_vars)
    return min(sum(w * e for w, e in zip(weights, mono)) for mono in monos)


def _orders(spec: BlowupSpec, ci: CIData) -> list[int]:
    out = []
    for eq in ci.equations:
        if eq.order is not None:
            out.append(eq.order)
        elif eq.support is not None:
            out.append(pullback_order(spec, eq.support))
        else:
            raise InvalidArgumentError(
                "each equation needs a monomial support or an explicit order"
            )
    return out


def discrepancy(spec: BlowupSpec, ci: CIData) -> Fraction:
    """Discrepancy of the exceptional divisor on the complete intersection:
    ``(sum b_i)/a_k - 1 - (sum c_e)/a_k`` with ``c_e`` the exceptional
    orders of the equations."""
    spec._require_complete()
    total_b = sum(spec.b)
    total_c = sum(_orders(spec, ci))
    return Fraction(total_b, spec.a_k) - 1 - Fraction(total_c, spec.a_k)


def solve_exceptional_weight(
    spec_pattern: BlowupSpec,
    ci: CIData,
    target: Fraction,
    bound: int = 1000,
) -> int:
    """Least positive unknown exceptional weight achieving the target
    discrepancy.

    Candidates run through the residue class ``b ≡ a_i mod a_k`` in
    ascending order.  A candidate is admissible only when every equation
    with a known support has exceptional order at least its fiber degree
    (the strict transform must not acquire poles along the exceptional
    divisor); orders are recomputed per candidate.

    Raises:
        SolveNotFoundError: no solution at or below ``bound``.
    """
    if not spec_pattern.is_pattern:
        raise InvalidArgumentError("spec has no unknown entry to solve for")
    unknown = next(i for i, x in enumerate(spec_pattern.b) if x is None)
    a = spec_pattern.fiber_weights
    ak = spec_pattern.a_k
    target = Fraction(target)
    residue = 0 if unknown == spec_pattern.k else a[unknown] % ak
    start = residue if residue != 0 else ak
    for value in range(start, bound + 1, ak):
        candidate = spec_pattern.with_unknown(value)
        orders = _orders(candidate, ci)
        admissible = True
        for eq, c in zip(ci.equations, orders):
            if eq.support is not None and len(eq.degree) >= 2 and c < eq.degree[1]:
                admissible = False
                break
        if not admissible:
            continue
        if discrepancy(candidate, ci) == target:
            return value
    raise SolveNotFoundError(
        f"no admissible exceptional weight ≤ {bound} gives discrepancy {target}"
    )
