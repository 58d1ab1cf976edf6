"""Cyclic quotient singularities of weighted-bundle charts.

Every torus-fixed chart of a weighted bundle is a quotient of affine space
by a cyclic group; this module computes those types, normalizes them (mod
index, common factors out, residues sorted), and decides terminality of
the isolated ones by the Reid-Tai criterion.
"""

from __future__ import annotations

from math import gcd

from ._frozen import frozen
from .errors import InvalidArgumentError, UnsupportedFeatureError
from .galefan import WeightedBundleSpec
from .intlattice import _as_int

__all__ = [
    "QuotientSingularity",
    "ChartReport",
    "weighted_bundle_charts",
    "fixed_point_type",
    "normalize_type",
    "is_terminal_cyclic",
    "classify_type",
]


@frozen
class QuotientSingularity:
    """Type ``1/index (weights)``: C^k divided by a cyclic group.

    Weights are stored reduced mod the index; index 1 is a smooth point.
    Zero weights are legitimate and record trivial ``A^1`` factors of the
    germ.
    """

    index: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 1:
            raise InvalidArgumentError("singularity index must be a positive integer")
        reduced = []
        for w in self.weights:
            if not isinstance(w, int) or isinstance(w, bool):
                raise InvalidArgumentError(f"weight {w!r} is not an integer")
            reduced.append(w % self.index)
        object.__setattr__(self, "weights", tuple(reduced))

    def __str__(self) -> str:
        inner = ",".join(str(w) for w in self.weights)
        return f"1/{self.index}({inner})"

    @property
    def is_smooth(self) -> bool:
        return normalize_type(self).index == 1

    def transverse(self) -> "QuotientSingularity":
        """The type with trivial ``A^1`` factors (zero weights) removed."""
        q = normalize_type(self)
        return QuotientSingularity(q.index, tuple(w for w in q.weights if w != 0))


@frozen
class ChartReport:
    """Singularity type of the chart ``U_ij = (x_i y_j != 0)``."""

    chart: tuple[int, int]
    type: QuotientSingularity

    def __post_init__(self) -> None:
        i, j = self.chart
        if i < 0 or j < 0:
            raise InvalidArgumentError("chart indices must be nonnegative")
        object.__setattr__(self, "chart", (_as_int(i), _as_int(j)))


def normalize_type(q: QuotientSingularity) -> QuotientSingularity:
    """Canonical form: divide out gcd(index, weights), sort residues.

    Zero slots survive (they are honest ``A^1`` directions); an index that
    divides every weight collapses to the smooth type ``1/1(0,...,0)``.
    Idempotent.
    """
    g = gcd(q.index, *q.weights)
    index = q.index // g
    weights = tuple(sorted((w // g) % index if index > 1 else 0 for w in q.weights))
    return QuotientSingularity(index, weights)


def is_terminal_cyclic(q: QuotientSingularity) -> bool:
    """Reid-Tai terminality test for an isolated cyclic quotient.

    After normalization and stripping of trivial factors the weights must
    be coprime to the index (an isolated singularity); then the type is
    terminal exactly when every nontrivial group element has age > 1:
    ``sum_i ((j*w_i) mod r) > r`` for all ``j = 1..r-1``.  Index 1 (smooth)
    counts as terminal.

    Most types are decided in closed form, without the loop over ``j``:

    * in dimension 1 or 2 the inverse of a weight has age at most 1, so
      the type is not terminal;
    * two weights with ``a + b = 0 mod r`` give every element age exactly
      1 from that pair, so with a third weight the type is terminal;
    * in dimension 3 such a pair is also necessary, by the Terminal Lemma
      (Morrison & Stevens, Proc. AMS 90, 1984).

    Only dimension 4 and above with no such pair runs the loop.

    Raises:
        UnsupportedFeatureError: for non-isolated types (some weight shares
            a factor with the index), where the cyclic criterion alone does
            not decide.
    """
    t = q.transverse()
    r = t.index
    if r == 1:
        return True
    if any(gcd(w, r) != 1 for w in t.weights):
        raise UnsupportedFeatureError(
            f"type {t} is not isolated (a weight shares a factor with the "
            "index); terminality is undecided here"
        )
    dim = len(t.weights)
    if dim <= 2:
        return False
    seen: set[int] = set()
    for w in t.weights:
        if r - w in seen:  # an earlier weight pairs with this one
            return True
        seen.add(w)
    if dim == 3:
        return False
    return all(
        sum((j * w) % r for w in t.weights) > r for j in range(1, r)
    )


def classify_type(q: QuotientSingularity) -> str:
    """One-word verdict for reports: smooth, terminal, non-terminal, undecided."""
    if q.is_smooth:
        return "smooth"
    try:
        return "terminal" if is_terminal_cyclic(q) else "non-terminal"
    except UnsupportedFeatureError:
        return "undecided"


def fixed_point_type(spec: WeightedBundleSpec, i: int, j: int) -> QuotientSingularity:
    """Quotient type of the germ at the fixed point of chart ``U_ij``.

    The chart is the quotient of ``C^(n+m)`` by the cyclic group of order
    ``a_j``: the ``n`` base directions carry weight 0 and the remaining
    fiber directions carry the residues of ``(a_0, ..., a_m)`` omitting
    ``a_j``.  Reported in normalized form.
    """
    if not 0 <= i <= spec.n:
        raise InvalidArgumentError(f"base chart index {i} out of range 0..{spec.n}")
    if not 0 <= j <= spec.m:
        raise InvalidArgumentError(f"fiber chart index {j} out of range 0..{spec.m}")
    a = spec.fiber_weights
    aj = a[j]
    residues = [0] * spec.n + [a[t] % aj for t in range(spec.m + 1) if t != j]
    return normalize_type(QuotientSingularity(aj, tuple(residues)))


def weighted_bundle_charts(spec: WeightedBundleSpec) -> tuple[ChartReport, ...]:
    """Singularity report for each of the ``(n+1)(m+1)`` charts."""
    return tuple(
        ChartReport((i, j), fixed_point_type(spec, i, j))
        for i in range(spec.n + 1)
        for j in range(spec.m + 1)
    )
