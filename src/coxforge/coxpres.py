"""Cox presentations: weight matrix plus irrelevant ideal.

A presentation packages the GIT data of a simplicial toric variety (or
Deligne-Mumford stack): an ``r x n`` integer weight matrix grading ``n``
coordinate variables by a rank-``r`` torus, and an irrelevant monomial
ideal given as an intersection of coordinate primes.  The module decides
well-formedness, removes generic stabilisers and quasi-reflections while
emitting a replayable certificate of every elementary move, and tests two
presentations for equivalence up to unimodular row operations and variable
permutation.
"""

from __future__ import annotations

from itertools import chain, product
from math import gcd
from typing import Iterable, Sequence, Union

from . import _kernels
from ._frozen import frozen, kept, proven
from .errors import (
    InvalidArgumentError,
    RankError,
    UnsupportedFeatureError,
)
from .intlattice import (
    IntMatrix,
    UnimodularWitness,
    _as_index,
    _as_int,
    _peel_primes,
    _SmithForm,
    _standardisation,
    rank_of_rows,
    smallest_prime_factor,
)

__all__ = [
    "MonomialIdeal",
    "CoxPresentation",
    "RowTransform",
    "ColumnScale",
    "RowDivide",
    "Step",
    "WellFormingCertificate",
    "is_well_formed",
    "well_form",
    "wps_well_form",
    "coarse_moduli",
    "verify_certificate",
    "presentations_equivalent",
    "minimal_transversals",
]


# ---------------------------------------------------------------------------
# monomial ideals


def minimal_transversals(
    sets: Sequence[Iterable[int]],
) -> tuple[tuple[int, ...], ...]:
    """All inclusion-minimal hitting sets of a family of integer sets.

    A transversal meets every member of ``sets``.  The result is sorted
    lexicographically; an empty family has the empty transversal.  Used to
    pass between the two descriptions of a squarefree monomial ideal: its
    minimal monomial generators and its coordinate-prime components are
    each the minimal transversals of the other.

    The family is first split into connected components: two members are
    connected when they share an element, directly or through a chain of
    members.  The transversals of a disjoint union are a product (Berge,
    *Hypergraphs*, 1989): an element of one component's ground set hits
    members of that component only, so a set hits the whole family
    exactly when its part in each ground set hits that component, and it
    is minimal exactly when each part is.  An intersection of ``k``
    disjoint coordinate primes thus costs ``k`` small searches and one
    join, not a search with a leaf per product.

    Each component is searched depth-first on int bitmasks, one bit per
    element of the sorted universe.  The search branches on the elements
    of the first member not yet hit, and the branch that takes an element
    excludes the smaller ones of that member from then on, so each
    transversal is reached at most once: by taking, in each member it
    branches on, its smallest element.  A transversal ``t`` so reached is
    minimal exactly when every element of ``t`` has a *private* member, one
    that ``t`` meets in that element alone: dropping the element would
    leave that member unhit.  One pass over the component checks this, so
    the cost grows with the number of leaves, not with the square of the
    output.  Each component's transversals are decoded to sorted tuples
    once, every choice of one per component is joined, and the joins are
    sorted.
    """
    family = [frozenset(s) for s in sets]
    for s in family:
        if not s:
            raise InvalidArgumentError("cannot hit an empty set")
    family.sort(key=lambda s: (len(s), sorted(s)))
    universe = sorted(frozenset().union(*family))
    bit = {e: 1 << i for i, e in enumerate(universe)}
    masks = [sum(bit[e] for e in s) for s in family]
    grounds: list[int] = []  # the element masks of the components so far
    for s in masks:
        merged, apart = s, []
        for g in grounds:
            if g & merged:
                merged |= g
            else:
                apart.append(g)
        apart.append(merged)
        grounds = apart
    parts = [
        [_decode(t, universe) for t in _transversal_masks([s for s in masks if s & g])]
        for g in grounds
    ]
    return tuple(sorted(tuple(sorted(chain(*choice))) for choice in product(*parts)))


def _transversal_masks(family: list[int]) -> list[int]:
    """The minimal transversals of a family of bitmasks, by the search of
    :func:`minimal_transversals`."""
    found: list[int] = []
    stack = [(0, 0, family)]
    while stack:
        partial, excluded, todo = stack.pop()
        todo = [s for s in todo if not s & partial]
        if not todo:
            private = 0
            for s in family:
                hit = s & partial
                if not hit & (hit - 1):  # ``partial`` meets ``s`` once
                    private |= hit
            if private == partial:
                found.append(partial)
            continue
        choices, rest = todo[0] & ~excluded, todo[1:]
        while choices:
            low = choices & -choices
            stack.append((partial | low, excluded, rest))
            excluded |= low
            choices ^= low
    return found


def _decode(mask: int, universe: Sequence[int]) -> tuple[int, ...]:
    """The elements of ``universe`` whose bits ``mask`` sets, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(universe[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


@frozen
class MonomialIdeal:
    """Intersection of coordinate primes, one component per variable set.

    ``components`` lists the index sets generating each prime.  The stored
    order follows the constructor argument (several callers care about
    which component comes first), but equality and hashing treat the ideal
    as the set of its components.
    """

    components: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: dict[frozenset[int], tuple[int, ...]] = {}  # first-seen order
        covered: set[int] = set()  # the indices of the components so far
        overlap = False  # whether a component meets an earlier one
        ints = {int}
        for comp in self.components:
            entries = tuple(comp)
            if not entries:
                raise InvalidArgumentError("empty ideal component")
            if not (ints.issuperset(map(type, entries)) and min(entries) >= 0):
                for i in entries:
                    _as_index(i, "variable index")
            key = frozenset(entries)
            if len(key) != len(entries):
                raise InvalidArgumentError(f"repeated index in component {entries}")
            if key not in seen:
                seen[key] = tuple(sorted(entries))
                overlap = overlap or not covered.isdisjoint(key)
                covered |= key
        # Pairwise disjoint components form an antichain.  Otherwise only a
        # strictly larger set can contain another, so each set is tested
        # against the larger ones, largest first, up to the first that is
        # not larger; the pair reported is the first in order.
        if overlap:
            largest_first = sorted(seen, key=len, reverse=True)
            for a in seen:
                for b in largest_first:
                    if len(b) <= len(a):
                        break
                    if a < b:
                        b = next(b for b in seen if a < b)
                        raise InvalidArgumentError(
                            "components must form an antichain: "
                            f"{seen[a]} is contained in {seen[b]}"
                        )
        object.__setattr__(self, "components", tuple(seen.values()))

    # set semantics: the intersection does not depend on component order
    def _key(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(c) for c in self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return "".join(
            "(" + ",".join(str(i) for i in comp) + ")" for comp in self.components
        )

    @property
    def max_index(self) -> int:
        """Largest variable index appearing in any component (-1 if none)."""
        return max(map(max, self.components), default=-1)

    def mapped(self, permutation: Sequence[int]) -> "MonomialIdeal":
        """Apply an index substitution ``i -> permutation[i]`` componentwise."""
        return MonomialIdeal(
            tuple(
                tuple(sorted(permutation[i] for i in comp))
                for comp in self.components
            )
        )

    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Supports of the minimal squarefree monomial generators.

        A squarefree monomial lies in the intersection of coordinate primes
        exactly when its support meets every component, so the minimal
        generators are the minimal transversals of the component family.
        """
        return minimal_transversals(self.components)


# ---------------------------------------------------------------------------
# presentations


@frozen
class CoxPresentation:
    """Quotient presentation: variables, torus weights, irrelevant ideal.

    ``weights`` is ``r x n`` with one column per variable; ``irrelevant``
    collects the coordinate primes whose union is the unstable locus.  With
    ``stacky=False`` the matrix must be well-formed, so the presentation is
    a genuine variety; ``stacky=True`` permits generic stabilisers and
    quasi-reflections and denotes the quotient stack.
    """

    variables: tuple[str, ...]
    weights: IntMatrix
    irrelevant: MonomialIdeal
    stacky: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        names = self.variables
        if not names:
            raise InvalidArgumentError("need at least one variable")
        if not ({str}.issuperset(map(type, names)) and all(map(str.isidentifier, names))):
            for name in names:
                if not isinstance(name, str) or not name.isidentifier():
                    raise InvalidArgumentError(f"bad variable name {name!r}")
        if len(set(names)) != len(names):
            raise InvalidArgumentError("variable names must be distinct")
        if not isinstance(self.weights, IntMatrix):
            raise InvalidArgumentError("weights must be an IntMatrix")
        if self.weights.cols != len(names):
            raise InvalidArgumentError(
                f"{len(names)} variables but {self.weights.cols} weight columns"
            )
        if _SmithForm.of(self.weights).rank != self.weights.rows:
            raise RankError("weight matrix must have full row rank")
        for j, column in enumerate(zip(*self.weights.entries)):
            if not any(column):
                raise InvalidArgumentError(f"column {j} of the weights is zero")
        if not isinstance(self.irrelevant, MonomialIdeal):
            raise InvalidArgumentError("irrelevant must be a MonomialIdeal")
        if not self.irrelevant.components:
            raise InvalidArgumentError("irrelevant ideal needs at least one component")
        if self.irrelevant.max_index >= len(names):
            raise InvalidArgumentError(
                f"ideal mentions variable {self.irrelevant.max_index} "
                f"but there are only {len(names)}"
            )
        if not isinstance(self.stacky, bool):
            raise InvalidArgumentError("stacky must be a bool")
        if not self.stacky and not is_well_formed(self.weights):
            raise InvalidArgumentError(
                "weights are not well-formed; pass stacky=True for the stack"
            )

    @property
    def rank(self) -> int:
        return self.weights.rows

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def variable_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise InvalidArgumentError(f"no variable named {name!r}") from None

    def degree(self, exponents: Sequence[int]) -> tuple[int, ...]:
        """Multidegree of the monomial with the given exponent vector."""
        if len(exponents) != self.num_variables:
            raise InvalidArgumentError(
                f"expected {self.num_variables} exponents, got {len(exponents)}"
            )
        exponents = tuple(map(_as_int, exponents))
        return tuple(
            sum(w * e for w, e in zip(row, exponents)) for row in self.weights.entries
        )

    def ideal_by_name(self) -> str:
        """Human-readable irrelevant ideal, components by variable name."""
        return "".join(
            "(" + ",".join(self.variables[i] for i in comp) + ")"
            for comp in self.irrelevant.components
        )


# ---------------------------------------------------------------------------
# certificate steps


def _require_prime(q: int) -> None:
    if _as_index(q, "factor", least=1) < 2 or smallest_prime_factor(q) != q:
        raise InvalidArgumentError(f"factor must be prime, got {q!r}")


@frozen
class RowTransform:
    """Left-multiply the working matrix by a unimodular witness."""

    witness: UnimodularWitness

    def __post_init__(self) -> None:
        if not isinstance(self.witness, UnimodularWitness):
            raise InvalidArgumentError("RowTransform needs a UnimodularWitness")


@frozen
class ColumnScale:
    """Multiply one column by a prime ``factor``.

    ``row`` records the row whose entries are all divisible by ``factor``
    outside the scaled column; that divisibility is the hypothesis making
    the scaling an isomorphism of quotients, and replay re-checks it.
    """

    column: int
    factor: int
    row: int

    def __post_init__(self) -> None:
        _require_prime(self.factor)
        _as_index(self.column, "column index")
        _as_index(self.row, "row index")


@frozen
class RowDivide:
    """Divide one row by a prime ``factor`` (all entries must be multiples)."""

    row: int
    factor: int

    def __post_init__(self) -> None:
        _require_prime(self.factor)
        _as_index(self.row, "row index")


Step = Union[RowTransform, ColumnScale, RowDivide]

_STEP_TYPES = (RowTransform, ColumnScale, RowDivide)


@frozen
class WellFormingCertificate:
    """Ordered elementary moves replaying an input matrix to an output."""

    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        for step in steps:
            if not isinstance(step, _STEP_TYPES):
                raise InvalidArgumentError(f"unknown certificate step {step!r}")
        object.__setattr__(self, "steps", steps)


def _apply_step(work: IntMatrix, step: Step) -> IntMatrix:
    """Apply one certificate step, raising when its hypothesis fails."""
    if isinstance(step, RowTransform):
        g = step.witness.matrix
        if g.cols != work.rows:
            raise InvalidArgumentError("row transform of the wrong size")
        return g @ work
    if isinstance(step, ColumnScale):
        j, q, i = step.column, step.factor, step.row
        if j >= work.cols or i >= work.rows:
            raise InvalidArgumentError("column scale out of range")
        if any(work.entries[i][t] % q != 0 for t in range(work.cols) if t != j):
            raise InvalidArgumentError(
                f"column scale hypothesis fails: row {i} is not divisible "
                f"by {q} away from column {j}"
            )
        return IntMatrix(
            tuple(
                tuple(e * q if t == j else e for t, e in enumerate(row))
                for row in work.entries
            )
        )
    i, q = step.row, step.factor  # RowDivide
    if i >= work.rows:
        raise InvalidArgumentError("row divide out of range")
    if any(e % q != 0 for e in work.entries[i]):
        raise InvalidArgumentError(f"row {i} is not divisible by {q}")
    return IntMatrix(
        tuple(
            tuple(e // q for e in row) if t == i else row
            for t, row in enumerate(work.entries)
        )
    )


def _replay(matrix: IntMatrix, steps: Sequence[Step]) -> IntMatrix:
    """Apply certificate steps, raising on any violated hypothesis."""
    work = matrix
    for step in steps:
        work = _apply_step(work, step)
    return work


# ---------------------------------------------------------------------------
# well-formedness


def is_well_formed(a: IntMatrix) -> bool:
    """True when every column-deleted submatrix of ``a`` is standard.

    Equivalently every Gale dual row ``b_k`` is primitive, as one Smith form
    shows for all ``k``: ``Z^r / a_k(Z^(n-1)) = Z^n / ({x_k = 0} + ker a)``,
    which is ``Z / gcd(b_k)``.  The row gcds are kept on that form, which is
    kept on ``a``, so every later call on the same matrix object (each
    chamber model of a game shares its input's weights) only reads them.

    Raises:
        MustStandardizeFirstError: if ``a`` itself is not standard.
    """
    form = _SmithForm.of(a)
    form.require_standard("weight matrix")
    gcds = form.gale_row_gcds()
    return gcds.count(1) == len(gcds)


@kept("_well_formed")
def _well_form_matrix(m: IntMatrix) -> tuple[IntMatrix, tuple[Step, ...]]:
    """Drive ``m`` to its canonical standard well-formed model.

    Returns the model and the elementary steps.  Both phases run
    :func:`~coxforge.intlattice._peel_primes`: first on the minor gcd of
    ``m`` (standardisation, which ``m`` keeps once computed and shares
    with :func:`~coxforge.intlattice.standardize`), then on the Gale-row
    gcd of each column in turn, scaling that column (repair).
    Deterministic: columns are repaired in increasing index order, primes
    in increasing order, and the result is Hermite-canonical.
    Already-canonical well-formed input gives an empty step list.  ``m``
    must have full row rank.

    The pair is kept on ``m``, in the private attribute ``_well_formed``,
    as :func:`~coxforge.intlattice._standardisation` keeps its own, so the
    postconditions below run once per matrix object.  A matrix that is its
    own model keeps nothing, and a failure is not kept: a column whose
    deletion drops the rank raises on every call.
    """
    r = m.rows
    steps: list[Step] = []

    def record(peeled, column: int | None = None) -> None:
        for q, witness in peeled:
            if witness:
                steps.append(RowTransform(witness))
            if column is not None:
                steps.append(ColumnScale(column, q, r - 1))
            steps.append(RowDivide(r - 1, q))

    work, peeled = _standardisation(m)
    record(peeled)
    gcds = _SmithForm.of(work).gale_row_gcds()  # repairs keep ``work`` standard
    for k in range(work.cols):
        if gcds[k] == 0:
            raise UnsupportedFeatureError(
                f"deleting column {k} drops the rank; the presentation has "
                "no well-formed model of the same rank"
            )
        if gcds[k] > 1:
            work, peeled = _peel_primes(work, gcds[k], k)
            record(peeled, k)
            gcds = _SmithForm.of(work).gale_row_gcds()
            if gcds[k] != 1:
                raise AssertionError(f"column {k} repair must leave a primitive Gale row")

    h, u = _kernels.hnf(work.to_lists())
    canonical = IntMatrix.from_rows(h)
    if canonical != work:  # only then is a witness, and its inverse, needed
        steps.append(RowTransform(UnimodularWitness.of(IntMatrix.from_rows(u))))
        work = canonical
    if not is_well_formed(work):
        raise AssertionError("well-forming postcondition")
    if _replay(m, steps) != work:
        raise AssertionError("well-forming certificate must replay to the model")
    return work, tuple(steps)


def well_form(p: CoxPresentation) -> tuple[CoxPresentation, WellFormingCertificate]:
    """Canonical well-formed model of a presentation, with certificate.

    The irrelevant ideal and the variables are untouched; only the weights
    change, by unimodular row moves, prime column scalings (each recording
    the row that legitimises it) and prime row divisions.  The output is
    Hermite-canonical and has ``stacky=False``.
    """
    model, steps = _well_form_matrix(p.weights)
    # The variables and the ideal are those of the checked ``p``, and
    # ``_well_form_matrix`` checked that ``model`` is well-formed.  Its
    # steps (unimodular row moves, prime column scalings and exact row
    # divisions) keep every column nonzero and the rank full.
    out = proven(
        CoxPresentation,
        variables=p.variables,
        weights=model,
        irrelevant=p.irrelevant,
        stacky=False,
    )
    return out, WellFormingCertificate(steps)


def coarse_moduli(p: CoxPresentation) -> CoxPresentation:
    """Underlying variety of a stacky presentation: its well-formed model."""
    out, _ = well_form(p)
    return out


def wps_well_form(weights: Sequence[int]) -> tuple[int, ...]:
    """Well-form a weighted projective space ``P(a_0, ..., a_n)``.

    Classical two-step reduction, repeated to exhaustion: divide all
    weights by their common factor (generic stabiliser), then for each
    index divide the other weights by their common factor
    (quasi-reflection).  The result has coprime co-(n-1)-tuples: the gcd of
    every subset omitting one weight is 1.
    """
    a = [_as_int(w) for w in weights]
    if not a:
        raise InvalidArgumentError("need at least one weight")
    if any(w < 1 for w in a):
        raise InvalidArgumentError("weights must be positive")
    changed = True
    while changed:
        changed = False
        g = gcd(*a)
        if g > 1:
            a = [w // g for w in a]
            changed = True
        for i in range(len(a)):
            h = gcd(*(a[j] for j in range(len(a)) if j != i))
            if h > 1:
                a = [w if j == i else w // h for j, w in enumerate(a)]
                changed = True
    return tuple(a)


def verify_certificate(
    matrix: IntMatrix, cert: WellFormingCertificate, output: IntMatrix
) -> bool:
    """Replay ``cert`` on ``matrix`` and compare with ``output``.

    Every step's hypothesis is re-checked at its point of application (a
    ``ColumnScale`` needs its recorded row divisible by the factor away
    from the scaled column; divisions must be exact).  Malformed data
    yields ``False``, never an exception.
    """
    try:
        if not isinstance(cert, WellFormingCertificate):
            return False
        result = _replay(matrix, cert.steps)
    except Exception:
        return False
    return result == output


# ---------------------------------------------------------------------------
# equivalence


def _column_gcds(m: IntMatrix) -> tuple[int, ...]:
    return tuple(gcd(*c) for c in zip(*m.entries))


def _ideal_signature(ideal: MonomialIdeal, n: int) -> list[tuple[int, ...]]:
    """Multiset of containing-component sizes for each variable index."""
    sig: list[tuple[int, ...]] = []
    for v in range(n):
        sizes = sorted(len(c) for c in ideal.components if v in c)
        sig.append(tuple(sizes))
    return sig


def presentations_equivalent(p: CoxPresentation, q: CoxPresentation) -> bool:
    """Decide equivalence of two presentations.

    True when the well-formed models differ by a variable permutation and a
    unimodular row transform that also identifies the irrelevant ideals.
    Before any search, the two models must agree on the sorted multiset of
    (size, rank of its weight columns) over the ideal components: a row
    transform keeps the rank of any set of columns, and an equivalence
    maps each component onto one of the other ideal.  The permutation
    search then places the source columns in order and prunes in four
    ways:

    * a column goes only where the gcd of its weights and the multiset of
      sizes of its ideal components match, both invariant under
      unimodular row moves;
    * *twins*, columns with equal weights whose swap maps the irrelevant
      ideal to itself, are interchangeable, so each twin goes to a larger
      target than its nearest earlier twin and both orders of a twin pair
      are never tried;
    * by pigeonhole, a twin goes only where enough unused targets lie
      above it for the later twins of its class, which share its options
      and must each go higher still;
    * a placement is kept only when the placed target columns, in the
      order their sources were placed, have the Hermite form of the placed
      source columns (the form is canonical for unimodular row moves, so a
      transform maps the whole matrices onto each other only if it maps
      each prefix), and each ideal component that the placed column
      completes maps onto a component of the other ideal.

    At a complete placement the prefix is the whole matrix and every
    component has been mapped, so it is accepted with no further test.
    """
    if p.num_variables != q.num_variables or p.rank != q.rank:
        return False
    pw, _ = well_form(p)
    qw, _ = well_form(q)
    a, b = pw.weights, qw.weights
    n = a.cols
    a_gcds, b_gcds = _column_gcds(a), _column_gcds(b)
    a_sig = _ideal_signature(pw.irrelevant, n)
    b_sig = _ideal_signature(qw.irrelevant, n)
    if sorted(a_gcds) != sorted(b_gcds) or sorted(a_sig) != sorted(b_sig):
        return False
    if _component_ranks(pw) != _component_ranks(qw):
        return False
    return _ColumnSearch(pw, qw, a_gcds, b_gcds, a_sig, b_sig).place(0)


def _component_ranks(p: CoxPresentation) -> list[tuple[int, int]]:
    """Sorted (size, rank of its weight columns) of each ideal component."""
    columns = p.weights.columns()
    return sorted(
        (len(c), rank_of_rows([columns[i] for i in c])) for c in p.irrelevant.components
    )


def _twins(ideal: MonomialIdeal, m: IntMatrix) -> list[int | None]:
    """Each column's nearest earlier twin, or None: an equal column whose
    swap with it maps ``ideal`` to itself."""
    comps = ideal._key()
    seen: dict[tuple[int, ...], list[int]] = {}
    twins: list[int | None] = []
    for j, column in enumerate(zip(*m.entries)):
        earlier = seen.setdefault(column, [])
        twin = None
        for i in reversed(earlier):
            swap = {i: j, j: i}
            if frozenset(frozenset(swap.get(v, v) for v in c) for c in comps) == comps:
                twin = i
                break
        twins.append(twin)
        earlier.append(j)
    return twins


class _ColumnSearch:
    """Backtracking placement of ``pw``'s columns onto ``qw``'s.

    ``place(src)`` extends a placement of the source columns before
    ``src``.  Each placement passes one prefix check, as in VF2 (Cordella
    et al., IEEE TPAMI 26, 2004): the placed columns have equal Hermite
    forms, and the components they complete map onto target components
    (see :func:`presentations_equivalent`).  A complete placement has
    passed it on the whole matrix and on every component, so it is an
    equivalence.  The source prefix forms are computed once per search.

    Twinship is an equivalence relation (a swap conjugated by a swap is a
    swap), so each class of twins is a chain of nearest earlier twins and
    ``later[s]`` counts the members after ``s``.  They need that many
    unused options above ``s``'s target, and the unused options above a
    target only shrink as the target grows, so ``place`` stops at the
    first target that leaves too few.
    """

    def __init__(
        self,
        pw: CoxPresentation,
        qw: CoxPresentation,
        a_gcds: Sequence[int],
        b_gcds: Sequence[int],
        a_sig: Sequence[tuple[int, ...]],
        b_sig: Sequence[tuple[int, ...]],
    ) -> None:
        a = pw.weights
        n = self.n = a.cols
        self.options = [
            [d for d in range(n) if a_gcds[s] == b_gcds[d] and a_sig[s] == b_sig[d]]
            for s in range(n)
        ]
        self.twin = _twins(pw.irrelevant, a)
        self.later = [0] * n
        for s in reversed(range(n)):
            if self.twin[s] is not None:
                self.later[self.twin[s]] = self.later[s] + 1
        self.a_forms = [_kernels.hermite([row[: s + 1] for row in a.entries]) for s in range(n)]
        self.b_rows = qw.weights.entries
        # ``closing[s]`` holds the source components whose largest index is
        # ``s``, checked when ``s`` is placed.  The sorted ideal signatures
        # agree, so both ideals have the same number of components: once
        # every source component maps onto a target component (distinct
        # ones onto distinct ones, the placement being injective), the
        # mapped ideal is the target ideal.
        self.closing: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        for comp in pw.irrelevant.components:
            self.closing[max(comp)].append(comp)
        self.b_comps = qw.irrelevant._key()
        self.targets = [0] * n  # source column -> target column
        self.used = [False] * n

    def place(self, src: int) -> bool:
        if src == self.n:
            return True
        twin = self.twin[src]
        floor = -1 if twin is None else self.targets[twin]
        targets, used, later = self.targets, self.used, self.later[src]
        free = [d for d in self.options[src] if d > floor and not used[d]]
        for k, dst in enumerate(free):
            if len(free) - k - 1 < later:  # too few unused options above dst
                break
            targets[src] = dst
            if any(
                frozenset(targets[i] for i in comp) not in self.b_comps
                for comp in self.closing[src]
            ):
                continue
            placed = targets[: src + 1]
            prefix = [[row[t] for t in placed] for row in self.b_rows]
            if _kernels.hermite(prefix) != self.a_forms[src]:
                continue
            used[dst] = True
            if self.place(src + 1):
                return True
            used[dst] = False
        return False
