"""Exact integer-lattice linear algebra.

Matrices are immutable tuples of tuples of Python ints and every operation
is exact; minors of weight matrices grow fast, so nothing here ever touches
floating point or fixed-width arithmetic.  The elimination cores (Hermite,
Smith, and the Bareiss elimination behind rank and determinant) are
delegated to :mod:`coxforge._kernels`.

An ``IntMatrix`` is frozen, so what is computed from it never goes stale,
and three invariants are kept on the matrix object once computed, each in
a private attribute that is not a field (hashes, reprs, equality, pickles
and copies never see it), under the rules of :func:`coxforge._frozen.kept`:

* ``_smith_form``: its Smith form.  The first question that needs it
  (standardness, minor gcds, Gale-row gcds, kernel) computes it, and every
  later question of that object reads it; the form in turn keeps its
  Gale-row gcds and its kernel basis.
* ``_standardisation``: its standard factor and the primes peeled to reach
  it, shared by :func:`standardize` and the first phase of
  :func:`coxforge.coxpres.well_form`.
* ``_well_formed``: its well-formed model and the certificate steps that
  reach it, kept by :func:`coxforge.coxpres.well_form`.

A rank alone needs no Smith form; it comes from a transform-free Bareiss
elimination, run by :func:`rank_of_rows` on plain int rows (``rank`` of a
matrix passes it the matrix's rows).

The central notions:

* a matrix is *standard* when it has full row rank and the gcd of its
  maximal minors is 1 (equivalently the induced map ``Z^n -> Z^r`` is
  surjective, equivalently all Smith elementary divisors are 1);
* :func:`standardize` factors any full-rank matrix as ``M = transform * N``
  with ``N`` standard, peeling prime factors off the minor gcd one at a
  time via determinant-one reductions mod p.  One private routine,
  ``_peel_primes``, does that peeling, both here and in the column repair
  of :func:`coxforge.coxpres.well_form`, and it is the only caller of
  :func:`smallest_prime_factor` on a minor gcd;
* the row-style Hermite normal form is the canonical representative used
  whenever two matrices have to be compared up to unimodular row
  equivalence.

Every number a caller passes where coxforge expects an integer meets one
of two rules, and this module is their one home:

* a *value* (a ray, wall, type vector, degree, weight, exponent or
  character entry) goes through ``_as_int``: an integral number (``2.0``,
  ``True``, ``Fraction(4, 2)``) becomes that ``int``, and anything else (a
  non-integral number, NaN, an infinity, a string, bytes, ``None``) raises
  ``InvalidArgumentError("non-integer entry ...")``;
* an *index* (an index, count, dimension or bound) goes through
  ``_as_index``: it must be an ``int`` that is not a ``bool`` and at least
  its lower bound, and it is returned unchanged, so an ``IntEnum`` member
  stays one.

An :class:`IntMatrix` entry follows the index rule's type test without the
bound: a plain ``int`` only, never coerced.  Constructors run the rules in
their checked path only, and values built from checked ones skip them.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul
from typing import Sequence

from coxforge import _kernels
from coxforge._frozen import frozen, kept
from coxforge.errors import (
    InvalidArgumentError,
    MustStandardizeFirstError,
    RankError,
)


def _as_int(x) -> int:
    """The value rule: ``x`` as an ``int``, if it is an integral number.

    ``int`` truncates ``1.5`` to ``1`` and parses ``"1"``; this raises the
    error that :class:`IntMatrix` gives for such an entry instead, and for
    ``None``, NaN and the infinities, which ``int`` rejects with other
    exception types.
    """
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != x:  # a string or bytes never equals an int
        raise InvalidArgumentError(f"non-integer entry {x!r}")
    return value


def _as_index(x, what: str, least: int = 0):
    """The index rule: ``x`` itself, if it is an ``int``, not a ``bool``, and
    at least ``least`` (0 or 1)."""
    if not isinstance(x, int) or isinstance(x, bool) or x < least:
        kind = "positive" if least == 1 else "nonnegative"
        raise InvalidArgumentError(f"{what} must be a {kind} integer, got {x!r}")
    return x


@frozen
class IntMatrix:
    """Immutable integer matrix.

    Attributes:
        entries: Tuple of row tuples.  At least one row; zero columns are
            permitted so that degenerate duals (``r == n``) have a value.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InvalidArgumentError("matrix needs at least one row")
        width = len(self.entries[0])
        ints = {int}
        for row in self.entries:
            if len(row) != width:
                raise InvalidArgumentError("ragged rows in matrix")
            if ints.issuperset(map(type, row)):
                continue  # plain ints only: nothing to check entry by entry
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidArgumentError(f"non-integer entry {x!r}")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _as_index(n, "identity size")
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.entries))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def transpose(self) -> "IntMatrix":
        if self.cols == 0:
            raise InvalidArgumentError("cannot transpose a zero-column matrix")
        return IntMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InvalidArgumentError("matrix shape mismatch in product")
        bt = list(zip(*other.entries)) if other.cols else []
        return IntMatrix(
            tuple(
                tuple(sum(map(mul, row, col)) for col in bt)
                for row in self.entries
            )
        )

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


@frozen
class UnimodularWitness:
    """A unimodular matrix together with its exact integer inverse."""

    matrix: IntMatrix
    inverse: IntMatrix

    def __post_init__(self) -> None:
        n = self.matrix.rows
        if self.matrix.cols != n or self.inverse.rows != n or self.inverse.cols != n:
            raise InvalidArgumentError("witness matrices must be square of equal size")
        if self.matrix @ self.inverse != IntMatrix.identity(n):
            raise InvalidArgumentError("witness inverse is not an inverse")

    @classmethod
    def of(cls, matrix: IntMatrix) -> "UnimodularWitness":
        return cls(matrix, integer_inverse(matrix))


def det(m: IntMatrix) -> int:
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise InvalidArgumentError("determinant of a non-square matrix")
    return _kernels.det(m.to_lists())


def integer_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix, computed and verified exactly.

    Raises:
        InvalidArgumentError: if ``m`` is not square with determinant +-1.
    """
    n = m.rows
    if m.cols != n:
        raise InvalidArgumentError("inverse of a non-square matrix")
    # A square matrix is unimodular exactly when its Hermite form is the
    # identity, and then the row transform that reaches it is the inverse.
    h, u = _kernels.hnf(m.to_lists())
    if h != IntMatrix.identity(n).to_lists():
        raise InvalidArgumentError(
            f"matrix with determinant {det(m)} is not unimodular"
        )
    return IntMatrix.from_rows(u)


@frozen
class _SmithForm:
    """One Smith normal form of a matrix, read for every invariant it gives.

    ``diag`` holds the elementary divisors and ``v`` the column transform of
    ``u @ m @ v = diag`` (``u`` is dropped), so the columns of ``v`` past the
    rank span the integer kernel of ``m``.  :meth:`of` keeps the form on the
    matrix it came from, in the private attribute ``_smith_form``.  In the
    same way the form keeps its :meth:`gale_row_gcds`, so each presentation
    built on the matrix reads its well-formedness without walking ``v``
    again, and its :meth:`kernel_basis`, so a Gale dual asked twice runs
    one Hermite elimination.  Each is kept by :func:`coxforge._frozen.kept`.
    """

    rows: int
    diag: tuple[int, ...]
    v: tuple[tuple[int, ...], ...]

    @staticmethod
    @kept("_smith_form")
    def of(m: IntMatrix) -> "_SmithForm":
        diag, _, v = _kernels.smith(m.to_lists())
        return _SmithForm(m.rows, tuple(diag), tuple(map(tuple, v)))

    @property
    def rank(self) -> int:
        return sum(1 for s in self.diag if s)

    @property
    def is_standard(self) -> bool:
        return self.diag[: self.rows] == (1,) * self.rows

    def require_standard(self, what: str) -> None:
        if not self.is_standard:
            raise MustStandardizeFirstError(f"{what} is not standard; run standardize first")

    @kept("_gale_row_gcds")
    def gale_row_gcds(self) -> tuple[int, ...]:
        """Per column ``k``: minor gcd of the standard matrix less ``k`` (0 if rank drops).

        These are the gcds of the Gale dual rows, computed at most once per
        form and kept on it.
        """
        return tuple(gcd(*row[self.rows :]) for row in self.v)

    @kept("_kernel_basis")
    def kernel_basis(self) -> IntMatrix:
        """Hermite-normalised basis of the kernel, one column per free direction."""
        rk, n = self.rank, len(self.v)
        # Column-style Hermite of the kernel columns: row-style on their transpose.
        h = _kernels.hermite(list(zip(*self.v))[rk:])
        basis_cols = [row for row in h if any(row)]
        if len(basis_cols) != n - rk:
            raise AssertionError("kernel basis must have one column per free direction")
        return IntMatrix(tuple(tuple(c[i] for c in basis_cols) for i in range(n)))


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors ``s_1 | s_2 | ...`` (nonnegative, may end in 0)."""
    return _SmithForm.of(m).diag


def smith_transforms(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith data ``(diag, u, v)`` with ``u @ m @ v`` diagonal, u/v unimodular."""
    diag, u, v = _kernels.smith(m.to_lists())
    return tuple(diag), IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def rank(m: IntMatrix) -> int:
    """Rank over Q (equivalently the number of nonzero elementary divisors)."""
    return rank_of_rows(m.entries)


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a sequence of equally long rows of Python ints.

    The rows are neither validated nor wrapped in an :class:`IntMatrix`:
    this is for callers that hold int rows already, such as the cone checks
    of :class:`coxforge.galefan.Fan`.
    """
    return _kernels.rank(rows)


def minor_gcd(m: IntMatrix, r: int) -> int:
    """Gcd of the absolute values of all ``r x r`` minors of ``m``.

    Computed as the r-th determinantal divisor (the product of the first
    ``r`` elementary divisors), which agrees with exhaustive minor
    enumeration.  Returns 0 when every ``r x r`` minor vanishes.

    Raises:
        InvalidArgumentError: if ``r`` exceeds either dimension of ``m``.
    """
    if _as_index(r, "minor size") < 1 or r > min(m.rows, m.cols):
        raise InvalidArgumentError(f"no {r} x {r} minors in a {m.rows} x {m.cols} matrix")
    return prod(_SmithForm.of(m).diag[:r])


def is_standard(m: IntMatrix) -> bool:
    """True when ``m`` is surjective as a map ``Z^cols -> Z^rows``.

    Equivalently: full row rank and the gcd of maximal minors is 1.
    """
    return _SmithForm.of(m).is_standard


def delete_column(m: IntMatrix, k: int) -> IntMatrix:
    """Copy of ``m`` with column ``k`` removed."""
    if _as_index(k, "column index") >= m.cols:
        raise InvalidArgumentError(f"column {k} out of range")
    return IntMatrix(tuple(row[:k] + row[k + 1 :] for row in m.entries))


def hnf_canonical(m: IntMatrix) -> IntMatrix:
    """Canonical row-style Hermite normal form of ``m``."""
    return IntMatrix.from_rows(_kernels.hermite(m.to_lists()))


def hnf_transform(m: IntMatrix) -> tuple[IntMatrix, UnimodularWitness]:
    """Hermite form plus the unimodular row transform ``u`` with ``u @ m = h``."""
    h, u = _kernels.hnf(m.to_lists())
    return IntMatrix.from_rows(h), UnimodularWitness.of(IntMatrix.from_rows(u))


def unimodular_row_equivalent(a: IntMatrix, b: IntMatrix) -> bool:
    """True when ``a = g @ b`` for some unimodular ``g`` (same shape required)."""
    if a.rows != b.rows or a.cols != b.cols:
        return False
    return hnf_canonical(a) == hnf_canonical(b)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice of ``m``, one generator per column.

    The generators are the columns past the rank of the unimodular Smith
    transform ``v`` (``u @ m @ v`` diagonal).  The kernel is saturated, so
    the returned ``cols x (cols - rank)`` matrix always has all-ones Smith
    form.  Columns are canonicalised by a column-style Hermite reduction,
    making the basis choice deterministic.
    """
    return _SmithForm.of(m).kernel_basis()


def primitive_vector(v: tuple[int, ...]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise InvalidArgumentError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


# Trial division hands over to a factoring step when it reaches this odd
# divisor.  Below ``_MILLER_RABIN_EXACT`` no odd composite is a strong
# probable prime to every base in ``_MILLER_RABIN_BASES`` (Jiang & Deng,
# Math. Comp. 83, 2014; Sorenson & Webster, Math. Comp. 86, 2017).
_TRIAL_LIMIT = 1001
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_EXACT = 318_665_857_834_031_151_167_461


def smallest_prime_factor(n: int) -> int:
    """Least prime factor of ``n >= 2``.

    Trial division up to ``_TRIAL_LIMIT``.  Past it, an ``n`` below
    ``_MILLER_RABIN_EXACT`` is factored completely (Miller-Rabin proves
    each prime, Pollard-Brent rho splits each composite) and the least
    prime is returned, so a minor gcd with large prime factors costs a few
    modular powers and about ``p ** 0.5`` products instead of a division
    per odd number up to ``p``.  Larger ``n`` stay with trial division.
    """
    if n < 2:
        raise InvalidArgumentError("need n >= 2")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        if f == _TRIAL_LIMIT and n < _MILLER_RABIN_EXACT:
            return min(_prime_factors(n))
        f += 2
    return n


def _prime_factors(n: int) -> list[int]:
    """Prime factors, with multiplicity, of an odd ``n`` below
    ``_MILLER_RABIN_EXACT`` with no factor below ``_TRIAL_LIMIT``."""
    if _proven_prime(n):
        return [n]
    d = _pollard_brent(n)
    return _prime_factors(d) + _prime_factors(n // d)


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite ``n`` with no factor below
    ``_TRIAL_LIMIT``.

    Brent's cycle search on ``x -> x^2 + c mod n`` from ``x = 2``, taking
    the gcd with ``n`` of 128 accumulated differences at a time and
    replaying one step at a time when a batch overshoots; ``c = 1, 2, ...``
    until a run ends on a proper factor, so the result is deterministic.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _proven_prime(n: int) -> bool:
    """Whether the Miller-Rabin test proves an odd ``n > 37`` prime.

    True means ``n`` is prime.  False means ``n`` is composite, or at least
    ``_MILLER_RABIN_EXACT``, where these bases decide nothing.
    """
    if n >= _MILLER_RABIN_EXACT:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sl_echelon_ops_mod_p(m: IntMatrix, p: int) -> tuple[list[tuple[int, int, int]], int]:
    """Transvections bringing ``m`` to row echelon form (up to units) mod p.

    Only "add a multiple of another row" operations are used, so the
    accumulated transform lies in SL_r(F_p).  Pivot columns are taken in
    increasing order and the pivot row is the lowest-index candidate, which
    pins the whole procedure deterministically.  Returns the ops and the
    rank of ``m`` mod p.
    """
    nr = m.rows
    a = [[x % p for x in row] for row in m.entries]
    ops: list[tuple[int, int, int]] = []

    def apply(i: int, j: int, c: int) -> None:
        c %= p
        if c:
            a[i] = [(x + c * y) % p for x, y in zip(a[i], a[j])]
            ops.append((i, j, c))

    pivot_row = 0
    for col in range(m.cols):
        if pivot_row == nr:
            break
        k = next((i for i in range(pivot_row, nr) if a[i][col]), None)
        if k is None:
            continue
        if k != pivot_row:
            apply(pivot_row, k, 1)
        inv = pow(a[pivot_row][col], -1, p)
        for i in range(pivot_row + 1, nr):
            if a[i][col]:
                apply(i, pivot_row, -a[i][col] * inv)
        pivot_row += 1
    return ops, pivot_row


def _transvection_product(ops, r: int) -> IntMatrix:
    """The identity after the row operations ``row_i += c * row_j`` of ``ops``, in order."""
    g = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j, c in ops:
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    return IntMatrix.from_rows(g)


def _transvection_witness(ops, r: int, p: int) -> UnimodularWitness:
    """The lifted transvections' product together with its inverse.

    The inverse is the product of the inverse transvections in reverse
    order, so no elimination runs; the witness still checks that the two
    multiply to the identity.
    """
    lifted = [(i, j, c % p) for i, j, c in ops]
    inverse = _transvection_product([(i, j, -c) for i, j, c in reversed(lifted)], r)
    return UnimodularWitness(_transvection_product(lifted, r), inverse)


def _peel_primes(
    work: IntMatrix, d: int, column: int | None = None
) -> tuple[IntMatrix, list[tuple[int, UnimodularWitness | None]]]:
    """Divide the prime factors of ``d`` out of ``work``, least first.

    ``d`` must divide every maximal minor of ``work`` less ``column`` (of
    ``work`` itself when ``column`` is None).  For each prime ``p`` of
    ``d``, with multiplicity, the transvections that echelon ``work`` less
    ``column`` mod ``p`` lift to a determinant-one ``g``; the rank drops
    mod ``p``, so the last row of ``g @ work`` is divisible by ``p`` away
    from ``column``.  That row is divided by ``p`` there, and ``column`` of
    the other rows is multiplied by ``p``.  Returns the result and one
    ``(p, witness)`` per prime, where ``witness`` is ``g`` with its inverse,
    or None when no transvection was needed and ``g`` is the identity.
    This is the one place that factors a minor gcd: standardisation and
    the column repair of well-forming both run it.
    """
    r = work.rows
    peeled: list[tuple[int, UnimodularWitness | None]] = []
    while d > 1:
        p = smallest_prime_factor(d)
        rest = work if column is None else delete_column(work, column)
        ops, _ = _sl_echelon_ops_mod_p(rest, p)
        witness = _transvection_witness(ops, r, p) if ops else None
        rows = (witness.matrix @ work if witness else work).entries
        if any(x % p for j, x in enumerate(rows[-1]) if j != column):
            raise AssertionError(f"echelon reduction mod {p} must clear the last row")
        work = IntMatrix(
            tuple(
                tuple(x * p if j == column else x for j, x in enumerate(row))
                for row in rows[:-1]
            )
            + (tuple(x if j == column else x // p for j, x in enumerate(rows[-1])),)
        )
        peeled.append((p, witness))
        d //= p
    return work, peeled


@kept("_standardisation")
def _standardisation(
    m: IntMatrix,
) -> tuple[IntMatrix, tuple[tuple[int, UnimodularWitness | None], ...]]:
    """The standardisation ``(n, peeled)`` of ``m``, computed once per matrix.

    ``n`` is :func:`_peel_primes` run on ``m`` and its minor gcd, checked to
    be standard, and ``peeled`` its ``(p, witness)`` records.  The pair is
    kept on ``m``, in the private attribute ``_standardisation``, as
    :meth:`_SmithForm.of` keeps the Smith form; it holds tuples and frozen
    values only, so no caller can change it.  A standard ``m`` is its own
    standard factor and keeps nothing, so it never refers to itself.  A
    failure is not kept: a rank-deficient ``m`` raises on every call.

    Raises:
        RankError: if ``m`` does not have full row rank.
    """
    r = m.rows
    form = _SmithForm.of(m)
    if form.rank < r:
        raise RankError("standardize needs full row rank")
    if form.is_standard:
        return m, ()
    work, peeled = _peel_primes(m, prod(form.diag[:r]))
    if not _SmithForm.of(work).is_standard:
        raise AssertionError("standardize must end on a standard matrix")
    return work, tuple(peeled)


def standardize_with_steps(
    m: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, list[tuple]]:
    """Standardise ``m`` and report the elementary steps taken.

    Returns ``(transform, n, steps)`` with ``m == transform @ n``, ``n``
    standard, and ``steps`` a list of ``("row_transform", witness)`` /
    ``("row_divide", row, prime)`` records that replay the reduction on the
    input.  The reduction is :func:`_peel_primes` on the minor gcd, the
    routine that also repairs the columns of ``well_form``; it runs at most
    once per matrix object (:func:`_standardisation`), while ``transform``
    and ``steps`` are built, and the factorisation checked, on every call.
    Determinism: prime factors of the minor gcd are removed in increasing
    order, and the mod-p reduction uses the lowest available pivot
    column/row at every choice point.

    Raises:
        RankError: if ``m`` does not have full row rank.
    """
    r = m.rows
    work, peeled = _standardisation(m)
    transform = IntMatrix.identity(r)
    steps: list[tuple] = []
    for p, witness in peeled:
        if witness:
            transform = transform @ witness.inverse
            steps.append(("row_transform", witness))
        transform = IntMatrix(tuple(row[:-1] + (row[-1] * p,) for row in transform.entries))
        steps.append(("row_divide", r - 1, p))
    if transform @ work != m:
        raise AssertionError("standardize must factor its input")
    return transform, work, steps


def standardize(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Factor ``m = transform @ n`` with ``n`` standard.

    See :func:`standardize_with_steps` for the determinism guarantees.
    """
    transform, n, _ = standardize_with_steps(m)
    return transform, n


def require_standard(m: IntMatrix, what: str = "matrix") -> None:
    """Raise :class:`MustStandardizeFirstError` unless ``m`` is standard."""
    _SmithForm.of(m).require_standard(what)
