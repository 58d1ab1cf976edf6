"""Kernel micro-cases: Hermite, Smith and determinant on random matrices.

These are the cases of the former `benchmarks/bench_kernels.py`, run in
the traced pass against the selected backend (`coxforge._kernels`).  Every
output is checked against an oracle that shares no code with the kernels:

* `hnf`: the result is in row Hermite form, `u @ m == h`, and every row of
  `m` is an integer combination of the rows of `h` (same lattice);
* `smith`: `u @ m @ v` is the diagonal and the diagonal is a nonnegative
  divisor chain;
* `det`: an exact determinant, computed modulo primes and combined by CRT
  up to the Hadamard bound.

Transforms must also have determinant +-1 modulo each of three primes.
"""

from __future__ import annotations

import random
from math import isqrt
from time import perf_counter

# (kernel, label, rows, cols, entry bound, count)
CASES = (
    ("hnf", "4x6", 4, 6, 9, 200),
    ("hnf", "10x14", 10, 14, 99, 60),
    ("hnf", "20x24", 20, 24, 999, 4),
    ("smith", "4x6", 4, 6, 9, 120),
    ("smith", "8x10", 8, 10, 99, 30),
    ("det", "8x8", 8, 8, 99, 200),
    ("det", "16x16", 16, 16, 10**6, 40),
)

_PRIMES = (
    2305843009213693951, 4611686018427387847, 9223372036854775783,
    4611686018427387817, 9223372036854775643, 2305843009213693921,
)


def metric_name(kernel: str, label: str) -> str:
    return f"kernels.micro.{kernel}_{label}_ms"


def inputs(seed: int):
    rng = random.Random(seed)
    out = []
    for kernel, label, r, c, bound, count in CASES:
        mats = [[[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
                for _ in range(count)]
        out.append((kernel, label, mats))
    return out


def _det_mod(m, p):
    a = [[x % p for x in row] for row in m]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for i in range(col + 1, n):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[col])]
    return det % p


def exact_det(m) -> int:
    """Determinant by CRT over enough 61-63 bit primes to pass Hadamard."""
    bound = 1
    for row in m:
        bound *= isqrt(sum(x * x for x in row)) + 1
    modulus, value = 1, 0
    primes = iter(_PRIMES)
    while modulus <= 2 * bound:
        p = next(primes, None)
        if p is None:
            raise ValueError("determinant exceeds the oracle's prime supply")
        r = _det_mod(m, p)
        # combine value (mod modulus) with r (mod p)
        t = (r - value) * pow(modulus, -1, p) % p
        value += modulus * t
        modulus *= p
    return value - modulus if value > modulus // 2 else value


def unimodular(u) -> bool:
    return all(_det_mod(u, p) in (1, p - 1) for p in _PRIMES[:3])


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _in_row_lattice(h, v) -> bool:
    """Is `v` an integer combination of the rows of the echelon matrix `h`?"""
    v = list(v)
    for row in h:
        if not any(row):
            break
        col = next(j for j, x in enumerate(row) if x)
        if v[col] % row[col]:
            return False
        q = v[col] // row[col]
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def check_hnf(m, result) -> bool:
    h, u = result
    last_col = -1
    zero_seen = False
    for i, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            zero_seen = True
            continue
        if zero_seen or nz <= last_col or row[nz] <= 0:
            return False
        if any(not 0 <= h[k][nz] < row[nz] for k in range(i)):
            return False
        last_col = nz
    if _matmul(u, m) != h or not unimodular(u):
        return False
    return all(_in_row_lattice(h, row) for row in m)


def check_smith(m, result) -> bool:
    diag, u, v = result
    prod = _matmul(_matmul(u, m), v)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            if x != (diag[i] if i == j else 0):
                return False
    if any(d < 0 for d in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return False
    return unimodular(u) and unimodular(v)


def check_det(m, result) -> bool:
    return result == exact_det(m)


CHECKS = {"hnf": check_hnf, "smith": check_smith, "det": check_det}


def run(kernels, seed: int) -> tuple[dict, int, int]:
    """Time each case once; returns (ms per call by metric, attempted, failed)."""
    metrics: dict[str, float] = {}
    attempted = failed = 0
    for kernel, label, mats in inputs(seed):
        fn = getattr(kernels, kernel)
        results = []
        start = perf_counter()
        for m in mats:
            results.append(fn(m))
        metrics[metric_name(kernel, label)] = (perf_counter() - start) * 1e3 / len(mats)
        for m, res in zip(mats, results):
            attempted += 1
            if not CHECKS[kernel](m, res):
                failed += 1
    return metrics, attempted, failed
