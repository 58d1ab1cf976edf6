"""Postcondition tests for the elimination kernels (Hermite, Smith, rank, determinant)."""

import random

from coxforge import _kernels as kernels


def _random_matrix(rng, nr, nc, span):
    return [[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)]


def _matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def test_backend_is_reported():
    assert kernels.BACKEND == "python"
    assert kernels.__all__ == ["BACKEND", "det", "hnf", "rank", "smith"]


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
