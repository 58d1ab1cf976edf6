"""Exact integer elimination kernels.

These are the hot loops of the lattice layer, three eliminations in all:

* ``hermite``: row-style Hermite reduction.  It builds no transform; ``hnf``
  gets its unimodular transform by augmentation, reducing ``[rows | I]``
  and splitting the columns, so a caller that needs only the canonical
  form never pays for the transform.  ``intlattice`` uses both for
  canonical forms, kernels and inverses; ``coxpres`` uses ``hermite`` for
  the prefix forms of its equivalence search and ``hnf`` for the row
  transform of a well-formedness certificate.
* ``smith``: Smith diagonalisation with both transforms, run only by
  ``intlattice``.
* ``_bareiss``: one fraction-free elimination without transforms
  (Bareiss, Math. Comp. 22, 1968).  It gives ``rank`` and ``det``, so a
  question that needs only the rank never pays for the unimodular
  transforms of a Smith form (``intlattice`` is their only caller), and
  its echelon rows give ``solve``, the coordinates of a vector over
  independent vectors by integer back-substitution, which ``galefan``
  uses to place a subdivision ray in a simplicial cone.

They are plain Python and all arithmetic happens on Python ints, so
results are exact at any operand size.

Matrices cross this boundary as sequences of int rows (lists or tuples),
which are copied before any work; results are new lists of ints, and
the callers own validation and immutable wrapping.
"""

from __future__ import annotations

from typing import Optional, Sequence

BACKEND = "python"

__all__ = ["BACKEND", "det", "hermite", "hnf", "rank", "smith", "solve"]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, s, t)`` with ``g = gcd(a, b) >= 0`` and ``s*a + t*b = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form, without a transform.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``, pivot columns move strictly right as the row index grows
    and zero rows sit at the bottom.  The result is the canonical
    representative of the left-unimodular equivalence class of ``rows``.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivot_row = 0
    for col in range(nc):
        if pivot_row == nr:
            break
        for i in range(pivot_row + 1, nr):
            if m[i][col] == 0:
                continue
            a, b = m[pivot_row][col], m[i][col]
            if a == 0:
                m[pivot_row], m[i] = m[i], m[pivot_row]
                continue
            if b % a == 0:
                # Pivot divides the target: plain subtraction keeps the
                # pivot row untouched (a general Bezout combine may not).
                q = b // a
                m[i] = [y - q * x for x, y in zip(m[pivot_row], m[i])]
                continue
            g, s, t = _xgcd(a, b)
            p, q = a // g, b // g
            rp, ri = m[pivot_row], m[i]
            m[pivot_row] = [s * x + t * y for x, y in zip(rp, ri)]
            m[i] = [p * y - q * x for x, y in zip(rp, ri)]
        pivot = m[pivot_row][col]
        if pivot == 0:
            continue
        if pivot < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
            pivot = -pivot
        for i in range(pivot_row):
            q = m[i][col] // pivot
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[pivot_row])]
        pivot_row += 1
    return m


def hnf(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form with a unimodular transform.

    Returns ``(h, u)`` with ``h == hermite(rows)``, ``u * rows == h`` and
    ``det(u) = +-1``.  The transform is read off the Hermite form of
    ``[rows | I]``: its row operations are exactly those on ``rows`` (so
    ``u`` is the unique one when the rows are independent), and past the
    last pivot of ``rows`` they go on to Hermite-reduce the relation rows
    of ``u``.
    """
    nc = len(rows[0]) if rows else 0
    aug = hermite([list(r) + e for r, e in zip(rows, _identity(len(rows)))])
    return [r[:nc] for r in aug], [r[nc:] for r in aug]


def smith(rows: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith normal form with both transforms.

    Returns ``(diag, u, v)`` where ``u * rows * v`` is diagonal with
    ``diag`` on the diagonal, every entry of ``diag`` is nonnegative and
    divides the next, and ``u``, ``v`` are unimodular.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = _identity(nr)
    v = _identity(nc)
    t = 0
    while t < min(nr, nc):
        pr = pc = -1
        best = 0
        for i in range(t, nr):
            for j in range(t, nc):
                e = m[i][j]
                if e and (best == 0 or abs(e) < best):
                    best = abs(e)
                    pr, pc = i, j
        if best == 0:
            break
        if pr != t:
            m[t], m[pr] = m[pr], m[t]
            u[t], u[pr] = u[pr], u[t]
        if pc != t:
            for row in m:
                row[t], row[pc] = row[pc], row[t]
            for row in v:
                row[t], row[pc] = row[pc], row[t]
        while True:
            # Fold the column into the pivot, then the row; column work can
            # reintroduce row entries and vice versa, so loop to a fixpoint.
            # When the pivot divides the target, subtract the multiple and
            # leave the pivot line alone; the general Bezout combine runs
            # only when it strictly shrinks |pivot|, which bounds the loop.
            for i in range(t + 1, nr):
                if m[i][t] == 0:
                    continue
                a, b = m[t][t], m[i][t]
                if b % a == 0:
                    q = b // a
                    m[i] = [y - q * x for x, y in zip(m[t], m[i])]
                    u[i] = [y - q * x for x, y in zip(u[t], u[i])]
                    continue
                g, s, tt = _xgcd(a, b)
                p, q = a // g, b // g
                rp, ri = m[t], m[i]
                m[t] = [s * x + tt * y for x, y in zip(rp, ri)]
                m[i] = [p * y - q * x for x, y in zip(rp, ri)]
                rp, ri = u[t], u[i]
                u[t] = [s * x + tt * y for x, y in zip(rp, ri)]
                u[i] = [p * y - q * x for x, y in zip(rp, ri)]
            row_clean = True
            for j in range(t + 1, nc):
                if m[t][j] == 0:
                    continue
                a, b = m[t][t], m[t][j]
                if b % a == 0:
                    q = b // a
                    for row in m:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    continue
                g, s, tt = _xgcd(a, b)
                p, q = a // g, b // g
                for row in m:
                    x, y = row[t], row[j]
                    row[t] = s * x + tt * y
                    row[j] = p * y - q * x
                for row in v:
                    x, y = row[t], row[j]
                    row[t] = s * x + tt * y
                    row[j] = p * y - q * x
                row_clean = False
            if row_clean and all(m[i][t] == 0 for i in range(t + 1, nr)):
                # Divisibility: pivot must divide the remaining block.
                pivot = m[t][t]
                stray = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if m[i][j] % pivot:
                            stray = i
                            break
                    if stray is not None:
                        break
                if stray is None:
                    break
                m[t] = [x + y for x, y in zip(m[t], m[stray])]
                u[t] = [x + y for x, y in zip(u[t], u[stray])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    diag = [m[i][i] for i in range(min(nr, nc))]
    return diag, u, v


def _bareiss(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free row echelon elimination of ``rows``, without transforms.

    Returns ``(m, pivots, sign, last)``: the echelon rows, the pivot column
    of each of the first ``len(pivots)`` rows (so the rank over Q is
    ``len(pivots)``), the sign of the row permutation used, and the last
    pivot (1 when there is none).  A column with no pivot left is skipped,
    which is Bareiss elimination on the matrix with its pivot columns moved
    first, so every division stays exact (Sylvester's identity) and the
    last pivot of a full-rank square matrix is its determinant up to
    ``sign``.  Only the entries of row ``i`` from column ``pivots[i]`` on
    are part of the echelon form; the ones left of it are never cleared.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    rank, sign, prev = 0, 1, 1
    for col in range(nc):
        if rank == nr:
            break
        if m[rank][col] == 0:
            k = next((i for i in range(rank + 1, nr) if m[i][col]), None)
            if k is None:
                continue
            m[rank], m[k] = m[k], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        for i in range(rank + 1, nr):
            row = m[i]
            a = row[col]
            if a == 0 and pivot == prev:
                continue  # nothing to clear or rescale (unit rays, say)
            for j in range(col + 1, nc):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
        pivots.append(col)
        rank += 1
    return m, pivots, sign, prev


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix (Bareiss elimination)."""
    return len(_bareiss(rows)[1])


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    _, pivots, sign, last = _bareiss(rows)
    return sign * last if len(pivots) == len(rows) else 0


def solve(
    vectors: Sequence[Sequence[int]], w: Sequence[int]
) -> Optional[tuple[list[int], int]]:
    """Rational coordinates of ``w`` over linearly independent ``vectors``.

    Returns ``(y, den)`` with ``den > 0`` and
    ``w = sum (y_i / den) * vectors[i]``, or ``None`` when ``w`` is outside
    the span of ``vectors``.  One Bareiss elimination of the columns
    ``[vectors | w]`` (the vectors and ``w`` written as columns) puts the
    vectors' pivots on the diagonal; a pivot in the ``w`` column means
    ``w`` is outside the span.  Otherwise the last pivot ``D`` is a
    ``k x k`` minor of the vectors, ``D * x`` is integral by Cramer's rule,
    and back-substitution computes it in integers with exact divisions.

    Raises:
        ValueError: if ``vectors`` is empty or dependent.
    """
    k = len(vectors)
    m, pivots, _, den = _bareiss(list(zip(*vectors, w)))
    if k == 0 or len(pivots) < k or pivots[k - 1] != k - 1:
        raise ValueError("solve needs linearly independent vectors")
    if len(pivots) > k:
        return None  # the w column has a pivot: w is outside the span
    y = [0] * k
    for i in range(k - 1, -1, -1):
        row = m[i]
        acc = den * row[k]
        for j in range(i + 1, k):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    if den < 0:
        return [-v for v in y], -den
    return y, den
