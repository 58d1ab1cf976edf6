"""Rank-2 variation of GIT: chambers, wall crossings and 2-ray games.

A rank-2 presentation has a character plane carved into chambers by the
directions of its weight columns.  Each chamber is a birational model of
the quotient (its own irrelevant ideal); crossing an interior wall is a
flip, anti-flip or flop read off from a type vector; the two ends of the
sweep are fibrations or divisorial contractions.  This module computes the
full picture exactly.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Optional, Sequence

from ._frozen import frozen, kept, proven
from .coxpres import CoxPresentation, MonomialIdeal
from .errors import (
    InvalidArgumentError,
    NotQuasiProjectiveError,
    UnsupportedFeatureError,
)
from .intlattice import _as_index, _as_int, primitive_vector

__all__ = [
    "Chamber",
    "WallCrossing",
    "EndBehavior",
    "GameDiagram",
    "chambers_rank2",
    "model_at_chamber",
    "wall_crossing",
    "cones_rank2",
    "graded_ring_generators",
    "end_behavior",
    "two_ray_game",
    "anticanonical_in_moving_interior",
    "monomial_string",
]

Vec2 = tuple[int, int]


def _det2(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _require_rank2(p: CoxPresentation) -> None:
    if p.rank != 2:
        raise InvalidArgumentError(
            f"chamber analysis needs a rank-2 presentation, got rank {p.rank}"
        )


def _split(at: Sequence[int], cut: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Variables whose wall index is at most ``cut``, and the rest."""
    before = tuple(j for j, a in enumerate(at) if a <= cut)
    return before, tuple(j for j, a in enumerate(at) if a > cut)


def _support_extremes(dirs: Sequence[Vec2]) -> tuple[Vec2, Vec2]:
    """Boundary rays of the cone spanned by ``dirs`` (span at most a halfplane).

    Returns ``(lo, hi)`` with every direction counterclockwise of ``lo`` and
    clockwise of ``hi`` within an angle of at most pi; ``hi = -lo`` for an
    exact halfplane.  The weights have full rank, so ``lo != hi``.

    Raises:
        NotQuasiProjectiveError: when the directions span the whole plane
            (no GIT chamber admits a projective quotient).
    """
    distinct = list(dict.fromkeys(tuple(d) for d in dirs))
    lo = next(
        (e for e in distinct if all(_det2(e, d) >= 0 for d in distinct)), None
    )
    hi = next(
        (e for e in distinct if all(_det2(e, d) <= 0 for d in distinct)), None
    )
    if lo is None or hi is None:
        raise NotQuasiProjectiveError(
            "weight columns span the whole plane; no quasi-projective chamber"
        )
    return lo, hi


def _sweep_from(dirs: Sequence[Vec2], lo: Vec2) -> list[Vec2]:
    """Distinct directions ordered counterclockwise starting at ``lo``.

    The antipode of ``lo``, if present, closes the sweep; all other pairs
    have nonzero cross product inside the halfplane, so the comparison
    ``a before b iff det(a, b) > 0`` is a total order.
    """
    distinct = list(dict.fromkeys(tuple(d) for d in dirs))
    anti = (-lo[0], -lo[1])
    middle = [d for d in distinct if d != lo and d != anti]
    middle.sort(key=cmp_to_key(lambda a, b: -1 if _det2(a, b) > 0 else 1))
    out = [lo] + middle
    if anti in distinct:
        out.append(anti)
    return out


@frozen
class Chamber:
    """Open cone between two consecutive walls of the sweep."""

    left: Vec2
    right: Vec2
    index: int

    def __post_init__(self) -> None:
        left = tuple(map(_as_int, self.left))
        right = tuple(map(_as_int, self.right))
        if left == right:
            raise InvalidArgumentError("chamber walls must be distinct")
        _as_index(self.index, "chamber index")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@frozen
class WallCrossing:
    """Birational surgery at an interior wall of the sweep.

    ``type_vector`` lists the signed degrees of the off-wall variables
    against the wall (earlier-side variables positive); its sum's sign
    gives the classification.  ``base_vars`` are the on-wall variables and
    ``base_weights`` their multiples of the wall primitive: together they
    present the base of the crossing.
    """

    wall: Vec2
    type_vector: tuple[int, ...]
    classification: str
    base_vars: tuple[int, ...]
    base_weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wall", tuple(map(_as_int, self.wall)))
        object.__setattr__(self, "type_vector", tuple(map(_as_int, self.type_vector)))
        object.__setattr__(self, "base_vars", tuple(map(_as_int, self.base_vars)))
        object.__setattr__(
            self, "base_weights", tuple(map(_as_int, self.base_weights))
        )
        if 0 in self.type_vector:
            raise InvalidArgumentError("type vector entries must be nonzero")
        total = sum(self.type_vector)
        expected = "Flip" if total > 0 else "AntiFlip" if total < 0 else "Flop"
        if self.classification != expected:
            raise InvalidArgumentError(
                f"classification {self.classification!r} contradicts type sum {total}"
            )
        if len(self.base_vars) != len(self.base_weights):
            raise InvalidArgumentError("base variables and weights must pair up")


@frozen
class EndBehavior:
    """What happens at a boundary ray of the moving cone.

    ``Fibration`` when no column lies beyond the ray (the ray also bounds
    the effective cone), ``DivisorialContraction`` when exactly one does
    (never more).  Target generators describe the image of the associated
    map as monomial exponent vectors.
    """

    kind: str
    ray: Vec2
    target_generators: tuple[tuple[int, ...], ...] = ()
    contracted_variable: Optional[int] = None
    beyond_count: int = 0  # always 0 from _end; kept for perfbench digests

    def __post_init__(self) -> None:
        object.__setattr__(self, "ray", tuple(map(_as_int, self.ray)))
        object.__setattr__(
            self,
            "target_generators",
            tuple(tuple(map(_as_int, g)) for g in self.target_generators),
        )
        if self.kind not in ("Fibration", "DivisorialContraction"):
            raise InvalidArgumentError(f"unknown end kind {self.kind!r}")
        if self.kind == "DivisorialContraction" and self.contracted_variable is None:
            raise InvalidArgumentError("a contraction must name its variable")
        if self.kind == "Fibration" and self.beyond_count != 0:
            raise InvalidArgumentError("a fibration has no columns beyond the ray")


@frozen
class GameDiagram:
    """Complete 2-ray game: models, wall crossings and the two ends."""

    models: tuple[CoxPresentation, ...]
    crossings: tuple[WallCrossing, ...]
    ends: tuple[EndBehavior, EndBehavior]
    chambers: tuple[Chamber, ...] = ()

    def __post_init__(self) -> None:
        if self.chambers and len(self.models) != len(self.chambers):
            raise InvalidArgumentError("one model per chamber")
        if len(self.crossings) != max(len(self.models) - 1, 0):
            raise InvalidArgumentError("one crossing per interior wall")


# ---------------------------------------------------------------------------
# the sweep: chambers, crossings and cones


class _Sweep:
    """The chamber decomposition of a rank-2 character plane, computed once.

    ``cols`` are the weight columns and ``dirs`` their primitive directions;
    ``lo`` and ``hi`` bound the support cone.  ``walls`` are the distinct
    directions in sweep order, ``at[j]`` is the index of variable ``j``'s
    wall, and chamber ``i`` lies between walls ``i`` and ``i + 1`` with the
    irrelevant ideal ``_split(at, i)`` (on-wall columns join the near side).

    Orientation rule: the sweep runs counterclockwise from ``lo``
    (``orient = 1``) or the reverse way (``orient = -1``).  If the input
    ideal has two components and some chamber of an orientation splits the
    variables into exactly those components, that orientation wins,
    counterclockwise first.  Otherwise the orientation placing the first
    variable's wall nearer the start wins, counterclockwise on a tie.

    Each entry point reads the sweep through :func:`_sweep_of`, so it is
    computed once per presentation object.  It holds tuples and the
    fields of ``p`` that :meth:`model` reads, never ``p`` itself: no
    caller can change it, and it makes no reference cycle with ``p``.
    ``p`` was checked when it was built, so the values the sweep derives
    from it (chambers, models and their ideals, crossings, ends) are built
    with :func:`~coxforge._frozen.proven`, without their constructors'
    checks; the proof is at each call.

    Raises:
        InvalidArgumentError: if ``p`` does not have rank 2.
        NotQuasiProjectiveError: if the columns span the whole plane.
    """

    def __init__(self, p: CoxPresentation) -> None:
        _require_rank2(p)
        self.variables, self.weights, self.stacky = p.variables, p.weights, p.stacky
        self.cols = p.weights.columns()
        self.dirs = tuple(primitive_vector(c) for c in self.cols)
        self.lo, self.hi = _support_extremes(self.dirs)
        walls = _sweep_from(self.dirs, self.lo)
        pos = {d: i for i, d in enumerate(walls)}
        at = [pos[d] for d in self.dirs]
        back = [len(walls) - 1 - a for a in at]
        want = p.irrelevant.components
        cuts = range(len(walls) - 1)
        if any(_split(at, cut) == want for cut in cuts):
            self.orient = 1
        elif any(_split(back, cut) == want for cut in cuts):
            self.orient = -1
        else:
            self.orient = -1 if back[0] < at[0] else 1
        if self.orient < 0:
            walls.reverse()
            at = back
        self.walls = tuple(walls)
        self.at = tuple(at)
        # The walls are distinct primitive int tuples.
        self.chambers = tuple(
            proven(Chamber, left=walls[i], right=walls[i + 1], index=i)
            for i in range(len(walls) - 1)
        )
        # Dropping variable ``j`` loses only a wall index that ``j`` alone
        # holds, so the moving cone runs from the second-smallest to the
        # second-largest entry of ``at``; ``()`` when it is empty.
        s = sorted(at)
        self._moving = (walls[s[1]], walls[s[-2]]) if s[1] <= s[-2] else ()

    def model(self, index: int) -> CoxPresentation:
        """The presentation whose irrelevant ideal selects chamber ``index``."""
        # The variables, weights and ``stacky`` are those of the checked
        # input.  ``_split`` gives two disjoint sorted components of its
        # indices, both non-empty: the first wall holds a column at or
        # before any chamber, the last wall one after it.
        return proven(
            CoxPresentation,
            variables=self.variables,
            weights=self.weights,
            irrelevant=proven(MonomialIdeal, components=_split(self.at, index)),
            stacky=self.stacky,
        )

    def crossing(self, w: Vec2) -> WallCrossing:
        """The crossing at the primitive ray ``w``, which must be an interior wall."""
        if w not in self.walls:
            raise InvalidArgumentError(f"{w} is not a wall of this presentation")
        k = self.walls.index(w)
        if k in (0, len(self.walls) - 1):
            raise InvalidArgumentError(
                f"{w} is an extreme wall; use end_behavior for the ends of the game"
            )
        w0, w1 = w = self.walls[k]
        o = self.orient
        entries, on_wall, base_weights = [], [], []
        for j, (d, (c0, c1)) in enumerate(zip(self.dirs, self.cols)):
            if d == w:
                on_wall.append(j)
                base_weights.append(self.multiple(j))
            else:
                entries.append(o * (c0 * w1 - c1 * w0))
        total = sum(entries)
        kind = "Flip" if total > 0 else "AntiFlip" if total < 0 else "Flop"
        # ``w`` is the sweep's own wall and every entry an int.  An
        # off-wall entry is nonzero: the antipode of an interior wall is no
        # column direction.  ``kind`` comes from the sum, and each on-wall
        # variable has its multiple.
        return proven(
            WallCrossing,
            wall=w,
            type_vector=tuple(entries),
            classification=kind,
            base_vars=tuple(on_wall),
            base_weights=tuple(base_weights),
        )

    def multiple(self, j: int) -> int:
        """The ``k`` with column ``j`` equal to ``k`` times its direction."""
        (c0, c1), (d0, d1) = self.cols[j], self.dirs[j]
        return c0 // d0 if d0 else c1 // d1

    def moving(self) -> tuple[Vec2, Vec2]:
        """Boundary rays of the moving cone (see :func:`cones_rank2`)."""
        if not self._moving:
            raise UnsupportedFeatureError(
                "the moving cone is empty: some divisor meets every model"
            )
        return self._moving

    def ends(self) -> tuple[Vec2, Vec2]:
        """The low and high ends of the game: the moving cone's boundary rays.

        A game starts from a model whose ample cone, an open chamber, lies
        inside the moving cone, so a moving cone that is one ray has none.
        """
        low, high = self.moving()
        if low == high:
            raise UnsupportedFeatureError(
                f"the moving cone is the single ray {low}: no chamber lies inside it"
            )
        return low, high


@kept("_sweep")
def _sweep_of(p: CoxPresentation) -> _Sweep:
    """The sweep of ``p``, kept on ``p`` in the private attribute ``_sweep``.

    ``_sweep`` is not a field, so hashes, reprs, equality, pickles and
    copies of ``p`` never see it.  A failure is not kept: rank other than
    2, or columns spanning the whole plane, raise on every call.
    """
    return _Sweep(p)


def chambers_rank2(
    p: CoxPresentation,
) -> tuple[tuple[Vec2, ...], tuple[Chamber, ...]]:
    """Walls (ordered primitive rays) and the chambers between them."""
    sweep = _sweep_of(p)
    return sweep.walls, sweep.chambers


def model_at_chamber(p: CoxPresentation, chamber: Chamber) -> CoxPresentation:
    """The presentation whose irrelevant ideal selects this chamber.

    Variables whose columns point at-or-before the chamber's left wall form
    the first component, the rest the second (on-wall columns join the
    near side).
    """
    sweep = _sweep_of(p)
    if chamber.index >= len(sweep.chambers) or sweep.chambers[chamber.index] != chamber:
        raise InvalidArgumentError(f"{chamber} is not a chamber of this sweep")
    return sweep.model(chamber.index)


def wall_crossing(p: CoxPresentation, wall: Sequence[int]) -> WallCrossing:
    """Type vector and classification at an interior wall.

    Off-wall entries are the columns' signed determinants against the wall,
    positive on the earlier-chamber side; on-wall variables go to
    ``base_vars`` with their multiples of the wall primitive.
    """
    return _sweep_of(p).crossing(primitive_vector(tuple(map(_as_int, wall))))


def cones_rank2(
    p: CoxPresentation,
) -> tuple[tuple[Vec2, Vec2], tuple[Vec2, Vec2]]:
    """Boundary rays of the effective cone and of the moving cone.

    Effective: the support of all columns.  Moving: the intersection over
    variables ``j`` of the support of the columns other than ``j`` (a
    divisor moves when every variable can avoid it).

    Raises:
        UnsupportedFeatureError: if the moving cone is empty.
    """
    sweep = _sweep_of(p)
    return (sweep.walls[0], sweep.walls[-1]), sweep.moving()


# ---------------------------------------------------------------------------
# graded ring generators


def _divides(divisors: Sequence[tuple[int, ...]], e: tuple[int, ...]) -> bool:
    """Whether some exponent vector in ``divisors`` lies componentwise below ``e``."""
    return any(all(a <= b for a, b in zip(g, e)) for g in divisors)


def _reversed_key(e: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(reversed(e))


def _check_level(target: Vec2, degree_bound: int) -> None:
    """Reject a zero character or a degree bound that is no index."""
    if target == (0, 0):
        raise InvalidArgumentError("character must be nonzero")
    _as_index(degree_bound, "degree bound")


def _generators(
    sweep: _Sweep, target: Vec2, degree_bound: int
) -> tuple[tuple[int, ...], ...]:
    """:func:`graded_ring_generators` by the completion of Contejean & Devie.

    The generators are the minimal nonzero ``x = (e, m)`` with ``B x = 0``
    for ``B = [A | -chi]`` and ``1 <= m <= bound``; those with ``m = 0`` are
    the degree-zero invariants.  From the unit vectors, level by level in
    ``sum(x)``, ``x`` is recorded when ``B x = 0`` and otherwise extended by
    each ``e_j`` with ``<B x, B e_j> < 0``, unless it lies above a recorded
    solution (Inform. and Comput. 113, 1994).  Such steps reach each minimal
    solution through vectors below it, which obey ``m <= bound`` and ``sum
    ell(c_j) e_j <= bound * ell(chi)``; ``ell`` is positive off the
    support's boundary line and zero on it, so these prunes leave a finite
    search.

    ``below[j, v]`` lists the recorded solutions whose coordinate ``j`` is
    ``v > 0``, each appended once when it is recorded.  A candidate ``y =
    x + e_j`` comes from an ``x`` that is no solution and lies above none,
    so a solution below ``y`` has ``y[j]`` at ``j``: the dominance check
    reads ``below[j, y[j]]`` alone.
    """
    lo, hi = sweep.lo, sweep.hi
    ell = (-lo[1], lo[0])
    if hi != (-lo[0], -lo[1]):
        ell = (ell[0] + hi[1], ell[1] - hi[0])
    cols = [*sweep.cols, (-target[0], -target[1])]
    values = [ell[0] * c[0] + ell[1] * c[1] for c in cols[:-1]] + [0]
    if not all(v >= 0 for v in values):
        raise AssertionError("functional must be nonnegative")
    cap = degree_bound * (ell[0] * target[0] + ell[1] * target[1])
    n = len(sweep.cols)
    steps = [(j, c0, c1, v) for j, ((c0, c1), v) in enumerate(zip(cols, values))]
    level = {(0,) * j + (1,) + (0,) * (n - j): (c0, c1, v) for j, c0, c1, v in steps}
    found: list[tuple[int, ...]] = []
    below: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    while level:
        for x, (b0, b1, _) in level.items():
            if b0 == b1 == 0:
                found.append(x)
                for j, e in enumerate(x):
                    if e:
                        below.setdefault((j, e), []).append(x)
        grown = {}
        for x, (b0, b1, w) in level.items():
            for j, c0, c1, v in steps:
                if b0 * c0 + b1 * c1 >= 0 or w + v > cap:
                    continue
                y = (*x[:j], x[j] + 1, *x[j + 1 :])
                if y[n] > degree_bound or y in grown:
                    continue
                if _divides(below.get((j, y[j]), ()), y):
                    continue
                grown[y] = (b0 + c0, b1 + c1, w + v)
        level = grown
    # reversed (e, m) is (m, reversed e): by level, then by _reversed_key
    found.sort(key=_reversed_key)
    return tuple(x[:n] for x in found if x[n])


def graded_ring_generators(
    p: CoxPresentation, chi: Sequence[int], degree_bound: int
) -> tuple[tuple[int, ...], ...]:
    """Minimal monomial generators of weight ``k * chi``, ``1 <= k <= bound``.

    A monomial is kept when it is not divisible by a degree-zero invariant
    or by a generator found at a lower multiple of ``chi``.  Within each
    level monomials are ordered lexicographically reading exponents from
    the last variable backwards, which lists low-index variables first.
    The search follows the generators, not the monomials of each level
    (see :func:`_generators`).

    Raises:
        InvalidArgumentError: if ``p`` does not have rank 2, ``chi`` does
            not have two entries or is zero, or the bound is negative.
    """
    _require_rank2(p)
    if len(chi) != 2:
        raise InvalidArgumentError(
            f"character {tuple(chi)} does not match rank {p.rank}"
        )
    target = (_as_int(chi[0]), _as_int(chi[1]))
    _check_level(target, degree_bound)
    return _generators(_sweep_of(p), target, degree_bound)


def monomial_string(variables: Sequence[str], exponents: Sequence[int]) -> str:
    """Compact monomial rendering: ``(2,0,1) over (x,y,z)`` is ``x^2z``."""
    parts = []
    for name, e in zip(variables, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# ends and the full game


def _default_bound(sweep: _Sweep, ray: Vec2) -> int:
    """One more than the largest multiple of ``ray`` among the columns on it."""
    return max(sweep.multiple(j) for j, d in enumerate(sweep.dirs) if d == ray) + 1


def _end(sweep: _Sweep, high: bool, degree_bound: Optional[int]) -> EndBehavior:
    """The low (``high`` false) or high end of the game of ``sweep``."""
    ray = sweep.ends()[high]
    k = sweep.walls.index(ray)
    if high:
        beyond = [j for j, a in enumerate(sweep.at) if a > k]
    else:
        beyond = [j for j, a in enumerate(sweep.at) if a < k]
    bound = degree_bound if degree_bound is not None else _default_bound(sweep, ray)
    _check_level(ray, bound)
    gens = _generators(sweep, ray, bound)
    if len(beyond) > 1:
        raise AssertionError("the moving cone leaves at most one column beyond an end")
    # ``ray`` is the sweep's own wall and ``gens`` are int tuples.  A
    # fibration has no column beyond the ray, and a contraction names its
    # one column.
    return proven(
        EndBehavior,
        kind="DivisorialContraction" if beyond else "Fibration",
        ray=ray,
        target_generators=gens,
        contracted_variable=beyond[0] if beyond else None,
        beyond_count=0,
    )


def end_behavior(
    p: CoxPresentation,
    extreme_ray: Sequence[int],
    degree_bound: Optional[int] = None,
) -> EndBehavior:
    """Classify the end of the game at a boundary ray of the moving cone.

    No column strictly beyond the ray means the map at the ray is a
    fibration (the ray also bounds the effective cone); exactly one column
    beyond means its divisor is contracted; the moving cone spans the
    second-smallest to second-largest wall, so no more lie beyond.
    Target generators come from :func:`graded_ring_generators` at the ray.

    Raises:
        UnsupportedFeatureError: if the moving cone is empty or one ray.
    """
    _require_rank2(p)
    ray = primitive_vector(tuple(map(_as_int, extreme_ray)))
    sweep = _sweep_of(p)
    ends = sweep.ends()
    if ray not in ends:
        raise InvalidArgumentError(
            f"{ray} is not a boundary ray of the moving cone {ends}"
        )
    return _end(sweep, ray == ends[1], degree_bound)


def two_ray_game(
    p: CoxPresentation, degree_bound: Optional[int] = None
) -> GameDiagram:
    """Every model, crossing and end of the rank-2 game, in sweep order.

    Raises:
        UnsupportedFeatureError: if the moving cone is empty or one ray.
    """
    sweep = _sweep_of(p)
    models = tuple(sweep.model(c.index) for c in sweep.chambers)
    crossings = tuple(sweep.crossing(w) for w in sweep.walls[1:-1])
    ends = (_end(sweep, False, degree_bound), _end(sweep, True, degree_bound))
    return GameDiagram(models, crossings, ends, sweep.chambers)


def anticanonical_in_moving_interior(
    p: CoxPresentation, equation_degrees: Sequence[Sequence[int]]
) -> bool:
    """Whether ``-K = sum(columns) - sum(equation degrees)`` is interior to
    the moving cone.

    For rank 1 the moving cone is the positive span of the (necessarily
    same-sign) weights, so the test is a sign check.
    """
    degs = [tuple(map(_as_int, d)) for d in equation_degrees]
    for d in degs:
        if len(d) != p.rank:
            raise InvalidArgumentError(
                f"degree {d} does not match rank {p.rank}"
            )
    total = [
        sum(row) - sum(d[i] for d in degs) for i, row in enumerate(p.weights.entries)
    ]
    if p.rank == 1:
        cols = [p.weights.entries[0][j] for j in range(p.num_variables)]
        if all(c > 0 for c in cols):
            return total[0] > 0
        if all(c < 0 for c in cols):
            return total[0] < 0
        raise NotQuasiProjectiveError("rank-1 weights of mixed sign")
    sweep = _sweep_of(p)
    mlo, mhi = sweep.moving()
    v = (total[0], total[1])
    if mlo == mhi:
        return False  # a single ray has empty interior
    o = sweep.orient
    if mhi == (-mlo[0], -mlo[1]):
        return o * _det2(mlo, v) > 0
    return o * _det2(mlo, v) > 0 and o * _det2(v, mhi) > 0
