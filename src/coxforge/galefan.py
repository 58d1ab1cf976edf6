"""Gale duality, weighted-bundle fans, Cox ideals and star subdivision.

The weight matrix of a presentation and the ray matrix of its fan are Gale
dual: each is the saturated integer kernel of the other.  This module moves
in both directions, builds the fan of a weighted projective-space bundle
over ``P^n`` from its numerical data, recovers irrelevant ideals from fans
by Cox's recipe, and performs star subdivision of simplicial fans.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from . import _kernels
from ._frozen import frozen, kept, proven
from .coxpres import (
    CoxPresentation,
    MonomialIdeal,
    is_well_formed,
    minimal_transversals,
    wps_well_form,
)
from .errors import (
    InvalidArgumentError,
    OutsideSupportError,
    RankError,
    UnsupportedFeatureError,
)
from .intlattice import (
    IntMatrix,
    _as_index,
    _as_int,
    _SmithForm,
    hnf_canonical,
    primitive_vector,
    rank_of_rows,
)

__all__ = [
    "Fan",
    "WeightedBundleSpec",
    "gale_dual",
    "weights_from_rays",
    "weighted_bundle_fan",
    "irrelevant_ideal_from_fan",
    "fan_from_presentation",
    "star_subdivision",
]


# ---------------------------------------------------------------------------
# fans


@frozen
class Fan:
    """Simplicial fan: primitive rays plus maximal cones as ray-index sets.

    The constructor runs every check below.  The fans that
    :func:`weighted_bundle_fan` and :func:`star_subdivision` derive are
    simplicial fans by construction, and :func:`~coxforge._frozen.proven`
    builds them without the checks; each caller gives the proof.
    """

    lattice_dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = _as_index(self.lattice_dim, "lattice dimension", least=1)
        rays = tuple(tuple(map(_as_int, ray)) for ray in self.rays)
        if not rays:
            raise InvalidArgumentError("a fan needs at least one ray")
        for ray in rays:
            if len(ray) != d:
                raise InvalidArgumentError(f"ray {ray} does not live in Z^{d}")
            if not any(ray):
                raise InvalidArgumentError("zero vector cannot be a ray")
            if gcd(*ray) != 1:
                raise InvalidArgumentError(f"ray {ray} is not primitive")
        if len(set(rays)) != len(rays):
            raise InvalidArgumentError("rays must be distinct")
        if rank_of_rows(rays) != d:
            raise RankError("rays must span the ambient space")
        cones = tuple(
            tuple(sorted({_as_index(i, "ray index") for i in c})) for c in self.max_cones
        )
        if not cones:
            raise InvalidArgumentError("a fan needs at least one maximal cone")
        for cone in cones:
            if not cone:
                raise InvalidArgumentError("empty maximal cone")
            if cone[-1] >= len(rays):
                raise InvalidArgumentError(f"cone {cone} indexes a missing ray")
            if rank_of_rows([rays[i] for i in cone]) != len(cone):
                raise UnsupportedFeatureError(
                    f"cone {cone} is not simplicial (dependent rays)"
                )
        _require_antichain(cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> IntMatrix:
        """Rays as rows, one per variable of the associated Cox ring."""
        return IntMatrix(self.rays)


def _require_antichain(cones: Sequence[tuple[int, ...]]) -> None:
    as_sets = [set(c) for c in cones]
    for i, a in enumerate(as_sets):
        for j, b in enumerate(as_sets):
            if i != j and a <= b:
                raise InvalidArgumentError(
                    f"maximal cones must form an antichain: {cones[i]} lies "
                    f"inside {cones[j]}"
                )


def _solve_in_cone(
    rays: Sequence[tuple[int, ...]],
    cone: Sequence[int],
    w: Sequence[int],
) -> Optional[tuple[Fraction, ...]]:
    """Coefficients expressing ``w`` over a simplicial cone, if they exist.

    Returns the unique rational ``c`` with ``w = sum c_i * ray_i`` and all
    ``c_i >= 0``, or ``None`` when ``w`` is outside the cone (including the
    case where ``w`` is not even in its linear span).

    The cone's rays are independent: the ``Fan`` constructor checks it for
    a fan it is given, and :func:`weighted_bundle_fan` and
    :func:`star_subdivision` prove it for the fans they build.  So one
    fraction-free elimination of the columns ``[rays | w]`` decides the
    span and gives ``c_i = y_i / D`` with integers ``y_i`` and ``D > 0``
    (see ``_kernels.solve``).  The signs of the ``y_i`` decide the cone, so
    fractions are built only when ``w`` lies in it.
    """
    solved = _kernels.solve([rays[i] for i in cone], w)
    if solved is None:
        return None  # w is outside the linear span
    y, den = solved
    if any(v < 0 for v in y):
        return None
    return tuple(Fraction(v, den) for v in y)


# ---------------------------------------------------------------------------
# Gale duality


def gale_dual(a: IntMatrix) -> IntMatrix:
    """Ray matrix of a standard weight matrix: rows span ``ker(a)``.

    The result has one row per variable and ``n - r`` columns; its rows
    generate the full integer kernel of ``a`` (saturated, so the Smith form
    of the result is an identity block) and the basis is fixed by Hermite
    normalisation.  ``r = n`` gives a matrix with zero columns.
    """
    form = _SmithForm.of(a)
    form.require_standard("weight matrix")
    return form.kernel_basis()


def weights_from_rays(b: IntMatrix) -> IntMatrix:
    """Weight matrix Gale dual to a ray matrix ``b`` (rays as rows).

    The output is the Hermite-canonical standard matrix whose rows generate
    all integer relations among the rays.

    Raises:
        RankError: if the rays do not span the ambient space.
        UnsupportedFeatureError: if the rays generate a finite-index
            sublattice (the class group would acquire torsion, which a
            torus cannot grade).
    """
    if b.cols == 0:
        raise InvalidArgumentError("rays live in a zero-dimensional lattice")
    form = _SmithForm.of(b.transpose())  # the Smith diagonal of b as well
    if form.rank != b.cols:
        raise RankError("rays must span the ambient space")
    if any(s != 1 for s in form.diag):
        raise UnsupportedFeatureError(
            "rays span a finite-index sublattice: the class group has "
            "torsion, which rank-r torus weights cannot express"
        )
    if b.rows == b.cols:
        raise InvalidArgumentError(
            "rays are linearly independent: no relations, so no weight matrix"
        )
    return hnf_canonical(form.kernel_basis().transpose())


# ---------------------------------------------------------------------------
# weighted bundles


@frozen
class WeightedBundleSpec:
    """Numerical data of a weighted projective-space bundle over ``P^n``.

    ``omega = (omega_0, ..., omega_m)`` twists the fiber coordinates;
    ``a = (a_1, ..., a_m)`` are the fiber weights beyond the implicit
    ``a_0 = 1``.  The constructor also accepts the full ``(m+1)``-tuple
    ``(1, a_1, ..., a_m)`` and strips the leading 1.
    """

    n: int
    m: int
    omega: tuple[int, ...]
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        _as_index(self.n, "base dimension n", least=1)
        _as_index(self.m, "fiber index m")
        omega = tuple(map(_as_int, self.omega))
        if len(omega) != self.m + 1:
            raise InvalidArgumentError(
                f"need {self.m + 1} twists omega_0..omega_{self.m}, got {len(omega)}"
            )
        if any(w < 0 for w in omega):
            raise InvalidArgumentError("twists must be nonnegative")
        a = tuple(map(_as_int, self.a))
        if len(a) == self.m + 1:
            if a[0] != 1:
                raise InvalidArgumentError("a_0 must be 1 when passing the full tuple")
            a = a[1:]
        if len(a) != self.m:
            raise InvalidArgumentError(
                f"need {self.m} fiber weights a_1..a_{self.m}, got {len(a)}"
            )
        if any(x < 1 for x in a):
            raise InvalidArgumentError("fiber weights must be positive")
        full = (1,) + a
        if wps_well_form(full) != full:
            raise InvalidArgumentError(
                f"fiber weights {full} are not well-formed as a projective "
                "space weight vector"
            )
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "a", a)

    @property
    def fiber_weights(self) -> tuple[int, ...]:
        """The full weight vector ``(a_0, ..., a_m)`` with ``a_0 = 1``."""
        return (1,) + self.a

    @property
    def variables(self) -> tuple[str, ...]:
        """Base coordinates ``x0..xn`` then fiber coordinates ``y0..ym``."""
        return tuple(f"x{j}" for j in range(self.n + 1)) + tuple(
            f"y{i}" for i in range(self.m + 1)
        )


def weighted_bundle_fan(spec: WeightedBundleSpec) -> tuple[Fan, CoxPresentation]:
    """Fan and Cox presentation of the weighted bundle.

    Lattice ``Z^(n+m)`` with basis the rays ``beta_1..beta_m`` (fiber) and
    ``alpha_1..alpha_n`` (base); the remaining rays are determined by
    ``beta_0 = -sum a_i beta_i`` and
    ``alpha_0 = -sum alpha_j + sum omega_i beta_i``.  Maximal cones omit one
    alpha and one beta each.  The presentation grades ``x0..xn, y0..ym`` by
    ``[[1..1, -omega_0..-omega_m], [0..0, 1, a_1..a_m]]`` with irrelevant
    ideal ``(x0..xn) ∩ (y0..ym)``.
    """
    n, m = spec.n, spec.m
    if m < 1:
        raise InvalidArgumentError(
            "fan construction needs a positive-dimensional fiber (m >= 1); "
            "a point fiber would give the zero vector as a ray"
        )
    d = n + m
    a_full = spec.fiber_weights
    omega = spec.omega

    def basis(i: int) -> list[int]:
        return [1 if t == i else 0 for t in range(d)]

    beta = [None] * (m + 1)
    for i in range(1, m + 1):
        beta[i] = basis(i - 1)
    beta[0] = [-sum(a_full[i] * beta[i][t] for i in range(1, m + 1)) for t in range(d)]
    alpha = [None] * (n + 1)
    for j in range(1, n + 1):
        alpha[j] = basis(m + j - 1)
    alpha[0] = [
        -sum(alpha[j][t] for j in range(1, n + 1))
        + sum(omega[i] * beta[i][t] for i in range(m + 1))
        for t in range(d)
    ]

    rays = tuple(tuple(v) for v in alpha + beta)
    cones = tuple(
        tuple(j for j in range(n + 1) if j != r)
        + tuple(n + 1 + i for i in range(m + 1) if i != s)
        for r in range(n + 1)
        for s in range(m + 1)
    )
    # A simplicial fan by construction: alpha_1..alpha_n and beta_1..beta_m
    # are the unit vectors, alpha_0 has -1 in every base coordinate, and
    # beta_0 is -(a_1..a_m) on the fiber coordinates and 0 on the base ones.
    # So the rays are distinct, span Z^d and are primitive (beta_0 because a
    # well-formed (1, a) has gcd(a_1..a_m) = 1).  Each cone omits one alpha
    # and one beta.  Its betas vanish on the base coordinates, where its
    # alphas are independent, and its betas are independent on the fiber
    # coordinates, so its rays are block-triangular and independent.  The
    # cones are distinct and of one size, so they form an antichain.
    fan = proven(Fan, lattice_dim=d, rays=rays, max_cones=cones)

    weights = IntMatrix(
        (
            tuple([1] * (n + 1) + [-w for w in omega]),
            tuple([0] * (n + 1) + list(a_full)),
        )
    )
    ideal = MonomialIdeal(
        (tuple(range(n + 1)), tuple(range(n + 1, n + 2 + m)))
    )
    pres = CoxPresentation(spec.variables, weights, ideal, stacky=False)
    # The rays and the grading are Gale dual by construction; check it.
    ray_mat = fan.ray_matrix()
    product = weights @ ray_mat
    if not all(e == 0 for row in product.entries for e in row):
        raise AssertionError("weights vs rays")
    return fan, pres


# ---------------------------------------------------------------------------
# Cox recipe and its inverse


def irrelevant_ideal_from_fan(fan: Fan) -> MonomialIdeal:
    """Cox irrelevant ideal: generated by the complement monomial of each cone.

    The components of the resulting squarefree ideal are the minimal
    transversals of those complements.  A fan in which some maximal cone
    uses every ray yields the unit ideal, encoded as the empty intersection.
    """
    everything = set(range(fan.num_rays))
    complements = [tuple(sorted(everything - set(c))) for c in fan.max_cones]
    if any(not c for c in complements):
        return MonomialIdeal(())
    return MonomialIdeal(minimal_transversals(complements))


@kept("_fan")
def fan_from_presentation(p: CoxPresentation) -> Fan:
    """Fan whose Cox data reproduces the presentation.

    Rays are the Gale dual rows of the weights; maximal cones are the
    complements of the minimal monomial generators of the irrelevant ideal.
    The checked fan is kept on ``p``, in the private attribute ``_fan``, so
    it is built and validated once per presentation object; a failure is
    not kept.

    Raises:
        UnsupportedFeatureError: when some cone would be non-simplicial, or
            a generator involves every variable (no cone left).
    """
    if not is_well_formed(p.weights):
        raise InvalidArgumentError(
            "presentation must be well-formed to have primitive rays; "
            "run well_form first"
        )
    b = gale_dual(p.weights)
    rays = b.entries
    for ray in rays:
        if gcd(*ray) != 1:
            raise AssertionError("well-formed data gives primitive rays")
    n = p.num_variables
    cones = []
    for gen in p.irrelevant.generators():
        cone = tuple(sorted(set(range(n)) - set(gen)))
        if not cone:
            raise UnsupportedFeatureError(
                "an irrelevant generator uses every variable; no cone remains"
            )
        cones.append(cone)
    return Fan(b.cols, rays, tuple(cones))


# ---------------------------------------------------------------------------
# star subdivision


def star_subdivision(fan: Fan, w: Sequence[int]) -> Fan:
    """Subdivide every cone containing ``w`` through the ray ``w``.

    ``w`` is made primitive first; if it already is a ray the fan comes
    back unchanged.  Each containing cone is replaced by the subcones that
    swap out one ray with positive coefficient in the expression of ``w``.

    Raises:
        OutsideSupportError: if ``w`` lies in no maximal cone.
    """
    vec = tuple(map(_as_int, w))
    if len(vec) != fan.lattice_dim:
        raise InvalidArgumentError(
            f"vector {vec} does not live in Z^{fan.lattice_dim}"
        )
    if all(e == 0 for e in vec):
        raise InvalidArgumentError("cannot subdivide at the origin")
    vec = primitive_vector(vec)
    if vec in fan.rays:
        return fan

    containing: list[tuple[tuple[int, ...], tuple[Fraction, ...]]] = []
    untouched: list[tuple[int, ...]] = []
    for cone in fan.max_cones:
        coeffs = _solve_in_cone(fan.rays, cone, vec)
        if coeffs is None:
            untouched.append(cone)
        else:
            containing.append((cone, coeffs))
    if not containing:
        raise OutsideSupportError(f"{vec} lies outside the support of the fan")

    new_index = fan.num_rays
    new_cones: set[tuple[int, ...]] = set()
    for cone, coeffs in containing:
        for pos, c in enumerate(coeffs):
            if c > 0:
                replaced = tuple(
                    sorted([i for i in cone if i != cone[pos]] + [new_index])
                )
                new_cones.add(replaced)
    cones = tuple(untouched) + tuple(sorted(new_cones))
    # A simplicial fan's checks hold by construction (Cox, Little & Schenck,
    # Toric Varieties, sections 3.3 and 11.1): ``vec`` is primitive and not already a
    # ray, and the old rays span.  An untouched cone was checked in ``fan``.
    # A new cone swaps out a ray whose coefficient in ``vec`` is positive,
    # so its rays stay independent.  Only the antichain is checked: on an
    # input that is not a fan, two of the cones can still nest.
    _require_antichain(cones)
    return proven(
        Fan, lattice_dim=fan.lattice_dim, rays=fan.rays + (vec,), max_cones=cones
    )
