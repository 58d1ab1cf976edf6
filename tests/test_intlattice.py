"""Integer-lattice layer: matrices, normal forms, standardization."""

import random
import time
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from coxforge import _kernels, intlattice
from coxforge.coxpres import CoxPresentation, MonomialIdeal, RowDivide, well_form
from coxforge.errors import InvalidArgumentError, MustStandardizeFirstError, RankError
from coxforge.intlattice import (
    _MILLER_RABIN_BASES,
    IntMatrix,
    UnimodularWitness,
    det,
    hnf_canonical,
    hnf_transform,
    integer_inverse,
    is_standard,
    kernel_basis,
    minor_gcd,
    primitive_vector,
    _proven_prime,
    _sl_echelon_ops_mod_p,
    _transvection_witness,
    rank,
    require_standard,
    smallest_prime_factor,
    smith_diagonal,
    smith_transforms,
    standardize,
    standardize_with_steps,
    unimodular_row_equivalent,
)

from test_smith_form import lift_transvections

M = lambda rows: IntMatrix(tuple(tuple(r) for r in rows))

F2_INPUT = M([[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]])


def gauss_jordan_inverse(rows):
    """Inverse by Fraction-exact Gauss-Jordan elimination (test oracle)."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col])
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def random_unimodular(rng, n, moves=12, span=4):
    """Random unimodular matrix: signed row swaps and transvections of I."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            g[i], g[j] = [-x for x in g[j]], g[i]
        else:
            c = rng.randint(-span, span)
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    return g


class TestIntMatrix:
    def test_entries_are_normalized_to_tuples(self):
        m = IntMatrix(((1, 2), (3, 4)))
        assert m.entries == ((1, 2), (3, 4))
        assert m.rows == 2 and m.cols == 2

    def test_ragged_rows_rejected(self):
        # the width is checked before the entries of a row
        for rows in (((1, 2), (3,)), ((1, 2), (3, 4, 5)), ((1, 2), (3, 4.0, 5))):
            with pytest.raises(InvalidArgumentError, match="^ragged rows in matrix$"):
                IntMatrix(rows)

    def test_non_integer_entries_rejected(self):
        # a plain-int row passes a whole-row check; any other row is
        # checked entry by entry, and the message names the offending entry
        for bad in (2.5, True, 1.0, Fraction(1), "1"):
            for rows in (((bad, 2), (3, 4)), ((1, 2), (3, bad))):
                with pytest.raises(InvalidArgumentError) as err:
                    IntMatrix(rows)
                assert str(err.value) == f"non-integer entry {bad!r}"

    def test_int_subclass_entries_accepted(self):
        class Level(IntEnum):
            LOW = 1
            HIGH = 2

        m = IntMatrix(((Level.LOW, 0), (3, Level.HIGH)))
        assert m.entries[0][0] is Level.LOW
        assert m == IntMatrix(((1, 0), (3, 2)))
        assert (m @ IntMatrix.identity(2)).entries == ((1, 0), (3, 2))

    def test_matmul_and_transpose(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))
        assert a.transpose().entries == ((1, 3), (2, 4))

    def test_row_column_accessors(self):
        a = M([[1, 2, 3], [4, 5, 6]])
        assert a.row(1) == (4, 5, 6)
        assert a.column(2) == (3, 6)
        assert a.columns() == ((1, 4), (2, 5), (3, 6))

    def test_identity(self):
        assert IntMatrix.identity(3).entries == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )


class TestDeterminantAndInverse:
    def test_known_values(self):
        assert det(M([[2]])) == 2
        assert det(M([[1, 2], [3, 4]])) == -2
        assert det(IntMatrix.identity(4)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            det(M([[1, 2, 3], [4, 5, 6]]))

    def test_integer_inverse_round_trip(self):
        g = M([[2, 1], [1, 1]])
        inv = integer_inverse(g)
        assert g @ inv == IntMatrix.identity(2)
        assert inv @ g == IntMatrix.identity(2)

    def test_integer_inverse_requires_unimodular(self):
        for rows, d in (
            ([[2, 0], [0, 1]], 2),
            ([[1, 2], [2, 4]], 0),
            ([[0, 1, 0], [3, 0, 0], [0, 0, 1]], -3),
        ):
            with pytest.raises(
                InvalidArgumentError,
                match=rf"^matrix with determinant {d} is not unimodular$",
            ):
                integer_inverse(M(rows))

    def test_integer_inverse_of_unimodular_needs_no_determinant(self, monkeypatch):
        calls = []
        real = _kernels.det
        monkeypatch.setattr(
            _kernels, "det", lambda rows: calls.append(1) or real(rows)
        )
        g = M([[2, 1], [1, 1]])
        assert g @ integer_inverse(g) == IntMatrix.identity(2)
        assert calls == []

    def test_integer_inverse_matches_gauss_jordan_oracle(self):
        rng = random.Random(2013)
        for _ in range(300):
            g = random_unimodular(rng, rng.randint(2, 6))
            assert integer_inverse(M(g)).to_lists() == gauss_jordan_inverse(g)

    def test_unimodular_witness_validates(self):
        with pytest.raises(InvalidArgumentError):
            UnimodularWitness(M([[1, 0], [0, 1]]), M([[1, 1], [0, 1]]))
        w = UnimodularWitness.of(M([[1, 5], [0, 1]]))
        assert w.inverse.entries == ((1, -5), (0, 1))


class TestTransvectionWitness:
    def test_inverse_matches_integer_inverse(self):
        rng = random.Random(1975)
        seen = {"random_ops": 0, "echelon_ops": 0, "identity": 0}
        for _ in range(600):
            r = rng.randint(1, 6)
            p = rng.choice((2, 3, 5, 7, 11, 101, 10**9 + 7))
            if r >= 2 and rng.random() < 0.5:
                seen["random_ops"] += 1
                ops = [(*rng.sample(range(r), 2), rng.randint(-3 * p, 3 * p))
                       for _ in range(rng.randint(0, 12))]
            else:
                seen["echelon_ops"] += 1
                n = rng.randint(1, 8)
                ops, _ = _sl_echelon_ops_mod_p(
                    M([[rng.randint(-50, 50) for _ in range(n)] for _ in range(r)]), p)
            witness = _transvection_witness(ops, r, p)
            assert witness.matrix == lift_transvections(ops, r, p)
            assert witness.inverse == integer_inverse(witness.matrix)
            seen["identity"] += witness.matrix == IntMatrix.identity(r)
        assert min(seen.values()) >= 20, seen

    def test_echelon_ops_are_empty_exactly_when_they_lift_to_the_identity(self):
        # Prime peeling records a row transform when there are ops; the
        # earlier rule recorded one when the lifted product was not I.
        rng = random.Random(1990)
        seen = {"empty": 0, "non-empty": 0}
        for _ in range(600):
            r, n = rng.randint(1, 5), rng.randint(1, 7)
            p = rng.choice((2, 3, 5, 7, 11, 101))
            rows = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(r)]
            if rng.random() < 0.5:  # a staircase mod p, so often no op at all
                for i, row in enumerate(rows):
                    for t in range(min(i, n)):
                        row[t] *= p
            ops, _ = _sl_echelon_ops_mod_p(M(rows), p)
            assert (not ops) == (lift_transvections(ops, r, p) == IntMatrix.identity(r))
            seen["non-empty" if ops else "empty"] += 1
        assert min(seen.values()) >= 100, seen

    def test_standardize_runs_no_inverse_elimination(self, monkeypatch):
        calls = []
        real = intlattice.integer_inverse
        monkeypatch.setattr(
            intlattice, "integer_inverse", lambda m: calls.append(m) or real(m)
        )
        m = M([[6, 10, 4, 2], [3, 7, 9, 1], [2, 4, 6, 8]])
        transform, n, steps = standardize_with_steps(m)
        assert transform @ n == m and is_standard(n)
        assert any(step[0] == "row_transform" for step in steps)
        assert calls == []


class TestNormalForms:
    def test_hnf_canonical_golden(self):
        h = hnf_canonical(M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
        assert h == hnf_canonical(h)  # idempotent
        ht, witness = hnf_transform(M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
        assert ht == h
        assert witness.matrix @ M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == h

    def test_smith_diagonal_golden(self):
        assert smith_diagonal(M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == (2, 2, 156)
        assert smith_diagonal(M([[1, 0], [0, 1]])) == (1, 1)
        assert smith_diagonal(M([[2, 4], [1, 2]])) == (1, 0)

    def test_smith_transforms_reconstruct(self):
        m = M([[6, 10], [15, 4]])
        diag, u, v = smith_transforms(m)
        prod = u @ m @ v
        assert tuple(prod.entries[i][i] for i in range(2)) == diag
        assert abs(det(u)) == 1 and abs(det(v)) == 1

    def test_rank(self):
        assert rank(M([[1, 2], [2, 4]])) == 1
        assert rank(F2_INPUT) == 2
        assert rank(M([[0, 0], [0, 0]])) == 0

    def test_unimodular_row_equivalent(self):
        a = M([[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]])
        g = M([[1, 3], [1, 4]])  # det 1
        assert unimodular_row_equivalent(g @ a, a)
        assert not unimodular_row_equivalent(a, M([[1, 1, 1, 0, -2], [0, 0, 0, 2, 2]]))
        assert not unimodular_row_equivalent(a, M([[1, 0], [0, 1]]))


class TestMinorGcd:
    def test_exhaustive_agreement_small(self):
        def brute(m, r):
            best = 0
            for rows_idx in combinations(range(m.rows), r):
                for cols_idx in combinations(range(m.cols), r):
                    sub = M([[m.entries[i][j] for j in cols_idx] for i in rows_idx])
                    best = gcd_int(best, abs(det(sub)))
            return best

        def gcd_int(a, b):
            while b:
                a, b = b, a % b
            return a

        rng = random.Random(2024)
        for _ in range(60):
            nr = rng.randint(1, 3)
            nc = rng.randint(nr, 5)
            m = M([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
            for r in range(1, nr + 1):
                assert minor_gcd(m, r) == brute(m, r)

    def test_f2_weight_matrix_has_minor_gcd_two(self):
        assert minor_gcd(F2_INPUT, 2) == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            minor_gcd(F2_INPUT, 3)


class TestStandardize:
    def test_f2_pipeline(self):
        transform, std = standardize(F2_INPUT)
        assert transform @ std == F2_INPUT
        assert is_standard(std)
        assert minor_gcd(std, 2) == 1

    def test_steps_replay(self):
        transform, std, steps = standardize_with_steps(F2_INPUT)
        assert transform @ std == F2_INPUT
        kinds = [s[0] for s in steps]
        assert set(kinds) <= {"row_transform", "row_divide"}
        assert any(k == "row_divide" for k in kinds)

    def test_already_standard_is_identity(self):
        m = M([[1, 0, 3], [0, 1, 5]])
        transform, std, steps = standardize_with_steps(m)
        assert std == m
        assert transform == IntMatrix.identity(2)
        assert steps == []

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            standardize(M([[1, 2], [2, 4]]))

    def test_is_standard_definition(self):
        assert is_standard(M([[1, 0], [0, 1]]))
        assert is_standard(M([[2, 3]]))
        assert not is_standard(M([[2, 4]]))
        assert not is_standard(F2_INPUT)
        assert not is_standard(M([[1, 0], [0, 0]]))
        assert not is_standard(M([[1], [1]]))  # wide requirement

    def test_require_standard(self):
        require_standard(M([[1, 0], [0, 1]]))
        with pytest.raises(MustStandardizeFirstError):
            require_standard(F2_INPUT)


class TestKernelAndPrimitive:
    def test_kernel_basis_is_saturated(self):
        m = M([[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]])
        k = kernel_basis(m)
        assert k.rows == 5 and k.cols == 3
        assert all(
            all(e == 0 for e in row) for row in (m @ k).entries
        )
        assert smith_diagonal(k) == (1, 1, 1)

    def test_kernel_of_injective_map_is_empty(self):
        k = kernel_basis(M([[1, 0], [0, 1]]))
        assert k.cols == 0

    def test_primitive_vector(self):
        assert primitive_vector((2, 4, -6)) == (1, 2, -3)
        assert primitive_vector((0, -5)) == (0, -1)
        with pytest.raises(InvalidArgumentError):
            primitive_vector((0, 0))



def spf_by_trial_division(n):
    """Least prime factor by trial division up to the square root (oracle)."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** k, n) == n - 1 for k in range(1, s))


class TestSmallestPrimeFactor:
    def test_matches_trial_division_below_1e5(self):
        for n in range(2, 10**5):
            assert smallest_prime_factor(n) == spf_by_trial_division(n), n

    def test_matches_trial_division_past_the_trial_limit(self):
        rng = random.Random(61)
        primes = [p for p in range(1009, 1400) if spf_by_trial_division(p) == p]
        cases = [p * q for p in primes[:12] for q in primes[:12]]  # no factor below 1009
        cases += [rng.randrange(10**6, 10**9) for _ in range(300)]
        for n in cases:
            assert smallest_prime_factor(n) == spf_by_trial_division(n), n

    def test_strong_pseudoprime_to_the_first_eleven_bases(self):
        # the least strong pseudoprime to 2..31; only the base 37 exposes it
        n = 149491 * 747451 * 34233211
        assert [a for a in _MILLER_RABIN_BASES if not strong_probable_prime(n, a)] == [37]
        assert smallest_prime_factor(n) == 149491

    def test_bases_decide_nothing_from_their_least_pseudoprime(self):
        n = 318665857834031151167461  # composite, a strong pseudoprime to 2..37
        assert n == 399165290221 * 798330580441
        assert all(strong_probable_prime(n, a) for a in _MILLER_RABIN_BASES)
        assert not _proven_prime(n)

    def test_large_prime_in_bounded_time(self):
        start = time.perf_counter()
        assert smallest_prime_factor(100000000000000000039) == 100000000000000000039
        assert smallest_prime_factor(3 * 100000000000000000039) == 3
        assert time.perf_counter() - start < 1.0

    def test_least_prime_of_the_full_factorisation(self):
        # Past the trial limit the cofactor is split into primes, and the
        # least of them is the answer whichever factor a split finds first.
        rng = random.Random(67)
        primes = [p for p in range(1009, 30000, 2) if spf_by_trial_division(p) == p]
        cases = [prod(rng.choices(primes, k=rng.randint(2, 5))) for _ in range(400)]
        cases += [p ** k for p in primes[:4] + primes[-4:] for k in (2, 3, 4)]
        for n in cases:
            assert smallest_prime_factor(n) == spf_by_trial_division(n), n

    def test_products_of_two_large_primes_in_bounded_time(self):
        start = time.perf_counter()
        assert smallest_prime_factor(10000019 * 10000079) == 10000019
        assert smallest_prime_factor(100000037 * 100000007) == 100000007
        assert time.perf_counter() - start < 1.0

    def test_well_form_of_a_large_composite_minor_gcd_in_bounded_time(self):
        d = 100000007 * 100000037
        stacky = CoxPresentation(
            ("x", "y", "z"), M([[d, d, 2 * d]]), MonomialIdeal(((0, 1, 2),)), stacky=True
        )
        start = time.perf_counter()
        model, certificate = well_form(stacky)
        assert time.perf_counter() - start < 1.0
        assert model.weights == M([[1, 1, 2]])
        assert certificate.steps == (RowDivide(0, 100000007), RowDivide(0, 100000037))
