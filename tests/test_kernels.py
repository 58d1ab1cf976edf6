"""Postcondition tests for the elimination kernels (Hermite, Smith, rank, determinant)."""

import random

import pytest

from coxforge import _kernels as kernels
from coxforge import galefan
from coxforge.coxpres import well_form
from coxforge.errors import OutsideSupportError
from coxforge.galefan import _solve_in_cone, fan_from_presentation, star_subdivision

from test_acceptance import BLOWUP_SPEC, ELLIPTIC_RAW, F, F2_WF, F3, blow_up_weighted_bundle
from test_galefan import gauss_jordan_solve_in_cone


def _random_matrix(rng, nr, nc, span):
    return [[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)]


def _matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def test_backend_is_reported():
    assert kernels.BACKEND == "python"
    assert kernels.__all__ == ["BACKEND", "det", "hermite", "hnf", "rank", "smith", "solve"]


def _check_hnf_postconditions(m):
    h, u = kernels.hnf(m)
    # u @ m == h and u is unimodular
    assert _matmul(u, m) == h
    assert abs(kernels.det(u)) == 1
    # pivot structure: positive pivots strictly moving right, reduced above
    last_col = -1
    for row in h:
        nz = [j for j, e in enumerate(row) if e]
        if not nz:
            continue
        j = nz[0]
        assert j > last_col
        assert row[j] > 0
        last_col = j
    # zero rows at the bottom
    seen_zero = False
    for row in h:
        if any(row):
            assert not seen_zero
        else:
            seen_zero = True


def _check_smith_postconditions(m):
    diag, u, v = kernels.smith(m)
    prod = _matmul(_matmul(u, m), v)
    for i, row in enumerate(prod):
        for j, e in enumerate(row):
            if i == j and i < len(diag):
                assert e == diag[i]
            else:
                assert e == 0
    assert abs(kernels.det(u)) == 1
    assert abs(kernels.det(v)) == 1
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_kernel_postconditions_on_random_inputs():
    rng = random.Random(777)
    for _ in range(150):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = _random_matrix(rng, nr, nc, 25)
        _check_hnf_postconditions(m)
        _check_smith_postconditions(m)


def test_det_agrees_with_cofactor_expansion():
    def cofactor(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor(minor)
        return total

    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n, 9)
        assert kernels.det(m) == cofactor(m)


def _rank_case(rng):
    """A matrix of 1x1 to 8x12, often square, often a product of thin factors."""
    nr = rng.randint(1, 8)
    nc = nr if rng.random() < 0.3 else rng.randint(1, 12)
    span = rng.choice((1, 9, 10**6, 10**13))
    if rng.random() < 0.4:
        k = rng.randint(1, min(nr, nc))  # rank at most k
        m = _matmul(_random_matrix(rng, nr, k, span), _random_matrix(rng, k, nc, span))
    else:
        m = _random_matrix(rng, nr, nc, span)
    if rng.random() < 0.2:
        m[rng.randrange(nr)] = [0] * nc
    if rng.random() < 0.2:
        j = rng.randrange(nc)
        for row in m:
            row[j] = 0
    return m


def test_rank_agrees_with_the_smith_diagonal():
    rng = random.Random(1968)
    seen = {"deficient": 0, "full": 0, "square": 0, "singular": 0, "huge": 0}
    for _ in range(2400):
        m = _rank_case(rng)
        rk = kernels.rank(m)
        assert rk == sum(1 for s in kernels.smith(m)[0] if s), m
        n = len(m)
        seen["full" if rk == min(n, len(m[0])) else "deficient"] += 1
        seen["huge"] += max(abs(x) for row in m for x in row) >= 10**12
        if len(m[0]) == n:
            seen["square"] += 1
            assert (kernels.det(m) != 0) == (rk == n), m
            seen["singular"] += rk < n
    assert min(seen.values()) >= 100, seen


def test_rank_of_degenerate_shapes():
    assert kernels.rank([[]]) == 0
    assert kernels.rank([[0, 0, 0]]) == 0
    assert kernels.rank([[0], [0], [7]]) == 1
    assert kernels.rank([[0, 2, 4], [0, 1, 2], [0, 0, 3]]) == 2


def test_det_of_empty_and_singular():
    assert kernels.det([]) == 1
    assert kernels.det([[0, 0], [0, 0]]) == 0
    assert kernels.det([[1, 2], [2, 4]]) == 0


def test_hnf_is_canonical_between_row_equivalent_inputs():
    # Permuting rows and adding multiples of one row to another must not
    # change the Hermite form.
    rng = random.Random(5)
    for _ in range(80):
        nr = rng.randint(2, 4)
        nc = rng.randint(2, 5)
        m = _random_matrix(rng, nr, nc, 15)
        h1, _ = kernels.hnf(m)
        shuffled = [row[:] for row in m]
        rng.shuffle(shuffled)
        i, j = rng.randrange(nr), rng.randrange(nr)
        if i != j:
            shuffled[i] = [
                x + 3 * y for x, y in zip(shuffled[i], shuffled[j])
            ]
        h2, _ = kernels.hnf(shuffled)
        assert h1 == h2


# ---------------------------------------------------------------------------
# Hermite without a transform, and the transform by augmentation


def hnf_oracle(rows):
    """The Hermite loop that carried its transform row by row (test oracle)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = kernels._identity(nr)
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
                u[pivot_row], u[i] = u[i], u[pivot_row]
                continue
            if b % a == 0:
                # Pivot divides the target: plain subtraction keeps the
                # pivot row untouched (a general Bezout combine may not).
                q = b // a
                m[i] = [y - q * x for x, y in zip(m[pivot_row], m[i])]
                u[i] = [y - q * x for x, y in zip(u[pivot_row], u[i])]
                continue
            g, s, t = kernels._xgcd(a, b)
            p, q = a // g, b // g
            rp, ri = m[pivot_row], m[i]
            m[pivot_row] = [s * x + t * y for x, y in zip(rp, ri)]
            m[i] = [p * y - q * x for x, y in zip(rp, ri)]
            rp, ri = u[pivot_row], u[i]
            u[pivot_row] = [s * x + t * y for x, y in zip(rp, ri)]
            u[i] = [p * y - q * x for x, y in zip(rp, ri)]
        pivot = m[pivot_row][col]
        if pivot == 0:
            continue
        if pivot < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
            pivot = -pivot
        for i in range(pivot_row):
            q = m[i][col] // pivot
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[pivot_row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
        pivot_row += 1
    return m, u


def _hermite_case(rng):
    """1-8 rows, 0-10 columns, entries up to 10^6, with dependent rows mixed in."""
    nr, nc = rng.randint(1, 8), rng.randint(0, 10)
    span = rng.choice((1, 9, 10**3, 10**6))
    m = _random_matrix(rng, nr, nc, span)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i, j, k = rng.randrange(nr), rng.randrange(nr), rng.randrange(nr)
        kind = rng.choice(("duplicate", "zero", "combination"))
        if kind == "duplicate":
            m[i] = m[j][:]
        elif kind == "zero":
            m[i] = [0] * nc
        else:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


def test_hermite_and_hnf_match_the_transform_carrying_oracle():
    rng = random.Random(1979)
    seen = {"full": 0, "deficient": 0, "u_differs": 0, "no_columns": 0}
    for _ in range(2000):
        m = _hermite_case(rng)
        h0, u0 = hnf_oracle(m)
        h, u = kernels.hnf(m)
        assert kernels.hermite(m) == h == h0, m
        if kernels.rank(m) == len(m):
            seen["full"] += 1
            assert u == u0, m
        else:
            seen["deficient"] += 1
            seen["u_differs"] += u != u0
            assert abs(kernels.det(u)) == 1, m
            assert _matmul(u, m) == h, m
        seen["no_columns"] += not m[0]
    assert min(seen.values()) >= 20, seen


def test_hermite_leaves_its_input_alone():
    m = [[0, 4, 6], [0, 2, 3], [5, 1, 1]]
    before = [row[:] for row in m]
    assert kernels.hermite(m) == [[5, 1, 1], [0, 2, 3], [0, 0, 0]]
    assert kernels.hnf(m)[0] == kernels.hermite(m)
    assert m == before
    assert kernels.hermite([]) == [] and kernels.hnf([]) == ([], [])
    assert kernels.hnf([[], []]) == ([[], []], [[1, 0], [0, 1]])


def _paper_fans():
    blown_up = blow_up_weighted_bundle(F3, BLOWUP_SPEC)
    models = (F2_WF, F, F3, well_form(ELLIPTIC_RAW)[0], well_form(blown_up)[0])
    return [fan_from_presentation(p) for p in models]


def test_solve_in_cone_and_star_subdivision_agree_with_the_gauss_jordan_oracle(monkeypatch):
    """Integer back-substitution gives the oracle's fractions and fans.

    Every vector ``w`` inside one of the paper's fans (nonnegative
    combinations of a cone's rays) and a few outside it give the cone
    coefficients of the Fraction Gauss-Jordan oracle, and the same star
    subdivision as with the oracle in place of ``_solve_in_cone``.
    """
    rng = random.Random(2013)
    cases = []
    for fan in _paper_fans():
        vectors = set()
        for cone in fan.max_cones:
            for _ in range(5):
                coeffs = [rng.randint(0, 2) for _ in cone]
                vectors.add(tuple(
                    sum(c * fan.rays[i][t] for c, i in zip(coeffs, cone))
                    for t in range(fan.lattice_dim)
                ))
        vectors.update(
            tuple(rng.randint(-2, 2) for _ in range(fan.lattice_dim)) for _ in range(20)
        )
        cases += [(fan, w) for w in sorted(vectors) if any(w)]

    def subdivide_all():
        out = []
        for fan, w in cases:
            try:
                out.append(star_subdivision(fan, w))
            except OutsideSupportError:
                out.append(None)
        return out

    got = subdivide_all()
    monkeypatch.setattr(galefan, "_solve_in_cone", gauss_jordan_solve_in_cone)
    assert subdivide_all() == got
    inside = 0
    for fan, w in cases:
        for cone in fan.max_cones:
            c = _solve_in_cone(fan.rays, cone, w)
            assert c == gauss_jordan_solve_in_cone(fan.rays, cone, w), (fan, cone, w)
            if c is not None:
                inside += 1
                assert all(x >= 0 for x in c)
                assert all(
                    sum(x * fan.rays[i][t] for x, i in zip(c, cone)) == w[t]
                    for t in range(fan.lattice_dim)
                )
    subdivided = sum(sub is not None for sub in got)
    assert len(cases) >= 200 and inside >= 200, (len(cases), inside)
    assert subdivided >= 200, subdivided


# ---------------------------------------------------------------------------
# coordinates over independent vectors


def test_solve_postconditions_on_random_inputs():
    rng = random.Random(1968)
    seen = {"inside_span": 0, "off_span": 0, "negative_pivot": 0, "square": 0}
    checked = 0
    while checked < 600:
        d = rng.randint(1, 7)
        k = rng.randint(1, d)
        span = rng.choice((1, 9, 10**6))
        vectors = _random_matrix(rng, k, d, span)
        if kernels.rank(vectors) < k:
            continue
        if rng.random() < 0.6:
            x = [rng.randint(-span, span) for _ in range(k)]
            w = [sum(c * v[t] for c, v in zip(x, vectors)) for t in range(d)]
        else:
            w = [rng.randint(-span, span) for _ in range(d)]
        before = ([row[:] for row in vectors], w[:])
        solved = kernels.solve(vectors, w)
        assert (vectors, w) == before
        if solved is None:
            seen["off_span"] += 1
            assert kernels.rank(vectors + [w]) == k + 1
        else:
            seen["inside_span"] += 1
            y, den = solved
            assert den > 0 and len(y) == k
            assert all(
                sum(c * v[t] for c, v in zip(y, vectors)) == den * w[t] for t in range(d)
            )
        seen["square"] += k == d
        seen["negative_pivot"] += kernels._bareiss([list(c) for c in zip(*vectors)])[3] < 0
        checked += 1
    assert min(seen.values()) >= 50, seen


def test_solve_needs_independent_vectors():
    # The denominator is the last Bareiss pivot, made positive, not a
    # reduced one: here it is the determinant 6.
    assert kernels.solve([[2, 0], [0, 3]], (4, 3)) == ([12, 6], 6)
    assert kernels.solve([[0, -3]], (0, 1)) == ([-1], 3)
    assert kernels.solve([[1, 0, 0]], (0, 1, 0)) is None
    for vectors, w in (
        ([], []),
        ([[1, 2], [2, 4]], [1, 2]),
        ([[0, 0]], [1, 2]),
        ([[1, 0, 0], [0, 0, 0]], [1, 2, 3]),
    ):
        with pytest.raises(ValueError):
            kernels.solve(vectors, w)
