"""One Smith form per matrix value.

Rank, standardness, the Gale-row gcds and the kernel of a matrix are all
read from one Smith normal form, computed at most once per matrix object
and kept on it.  The oracles below are the earlier bodies that ran a
separate Smith form for each read, written against ``smith_transforms``
alone; on random weight matrices every validation outcome (value, or
error class and message) must agree with them, on the first query of a
matrix and on a repeat that reads the kept form.  The pins count the
Smith forms a few paper calls make.  The standardisation is kept on the
matrix too: ``standardize`` and ``well_form``, in either order, must agree
with a fresh matrix and with the one-Smith-form-per-prime oracle, and a
second call must not peel or diagonalise again.  So is the well-formed
model: a second ``well_form`` of the same matrix object recomputes
nothing.
"""

import copy
import gc
import pickle
import random
from math import gcd

import pytest

from coxforge import _kernels, coxpres, intlattice
from coxforge.coxpres import (
    CoxPresentation,
    MonomialIdeal,
    is_well_formed,
    verify_certificate,
    well_form,
)
from coxforge.errors import (
    InvalidArgumentError,
    MustStandardizeFirstError,
    RankError,
    UnsupportedFeatureError,
)
from coxforge.galefan import fan_from_presentation, gale_dual, weights_from_rays
from coxforge.intlattice import (
    IntMatrix,
    UnimodularWitness,
    _SmithForm,
    _sl_echelon_ops_mod_p,
    hnf_canonical,
    kernel_basis,
    smallest_prime_factor,
    smith_transforms,
    standardize,
    standardize_with_steps,
)

from test_acceptance import F2_STACKY, F2_WF, P

M = lambda rows: IntMatrix(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# separate-call oracles: one Smith form per read


def rank_by_smith(m):
    return 0 if m.cols == 0 else sum(1 for s in smith_transforms(m)[0] if s)


def minor_gcd_by_smith(m, r):
    out = 1
    for s in smith_transforms(m)[0][:r]:
        out *= s
    return out


def require_standard_by_smith(m, what):
    if m.cols < m.rows or smith_transforms(m)[0][: m.rows] != (1,) * m.rows:
        raise MustStandardizeFirstError(f"{what} is not standard; run standardize first")


def is_well_formed_by_smith(a):
    require_standard_by_smith(a, "weight matrix")
    v = smith_transforms(a)[2]  # the last n - r columns of v span ker(a)
    return all(gcd(*row[a.rows :]) == 1 for row in v.entries)


def validate_presentation_by_smith(m, stacky):
    """The weight checks of ``CoxPresentation``, in their order."""
    if rank_by_smith(m) != m.rows:
        raise RankError("weight matrix must have full row rank")
    for j in range(m.cols):
        if all(e == 0 for e in m.column(j)):
            raise InvalidArgumentError(f"column {j} of the weights is zero")
    if not stacky and not is_well_formed_by_smith(m):
        raise InvalidArgumentError(
            "weights are not well-formed; pass stacky=True for the stack"
        )


def kernel_basis_by_smith(m):
    diag, _, v = smith_transforms(m)
    rk = sum(1 for s in diag if s)
    n = m.cols
    if rk == n:
        return IntMatrix(tuple(() for _ in range(n)))
    h, _ = _kernels.hnf([list(v.column(j)) for j in range(rk, n)])
    basis_cols = [row for row in h if any(row)]
    return IntMatrix(tuple(tuple(c[i] for c in basis_cols) for i in range(n)))


def gale_dual_by_smith(a):
    require_standard_by_smith(a, "weight matrix")
    return kernel_basis_by_smith(a)


def weights_from_rays_by_smith(b):
    if b.cols == 0:
        raise InvalidArgumentError("rays live in a zero-dimensional lattice")
    if rank_by_smith(b) != b.cols:
        raise RankError("rays must span the ambient space")
    if any(s != 1 for s in smith_transforms(b)[0][: b.cols]):
        raise UnsupportedFeatureError(
            "rays span a finite-index sublattice: the class group has "
            "torsion, which rank-r torus weights cannot express"
        )
    if b.rows == b.cols:
        raise InvalidArgumentError(
            "rays are linearly independent: no relations, so no weight matrix"
        )
    return hnf_canonical(kernel_basis_by_smith(b.transpose()).transpose())


def lift_transvections(ops, r, p):
    """Integer determinant-one product of the transvections ``ops`` lifted from F_p.

    Each op ``(i, j, c)``, ``row_i += c * row_j`` with ``i != j``, is the
    elementary matrix ``I + (c mod p) E_ij``; later ops multiply on the left.
    """
    g = IntMatrix.identity(r)
    for i, j, c in ops:
        e = [[int(a == b) + (c % p) * (a == i and b == j) for b in range(r)] for a in range(r)]
        g = M(e) @ g
    return g


def standardize_with_steps_by_smith(m):
    r = m.rows
    if rank_by_smith(m) < r:
        raise RankError("standardize needs full row rank")
    transform = IntMatrix.identity(r)
    work = m
    steps = []
    d = minor_gcd_by_smith(work, r)
    while d > 1:
        p = smallest_prime_factor(d)
        ops, _ = _sl_echelon_ops_mod_p(work, p)
        g = lift_transvections(ops, r, p)
        gw = g @ work
        new_rows = [list(gw.row(i)) for i in range(r - 1)]
        new_rows.append([x // p for x in gw.row(r - 1)])
        g_witness = UnimodularWitness.of(g)
        scale = IntMatrix.from_rows(
            [[(p if i == r - 1 else 1) if i == j else 0 for j in range(r)] for i in range(r)]
        )
        transform = transform @ g_witness.inverse @ scale
        if g != IntMatrix.identity(r):
            steps.append(("row_transform", g_witness))
        steps.append(("row_divide", r - 1, p))
        work = IntMatrix.from_rows(new_rows)
        d = minor_gcd_by_smith(work, r)
    return transform, work, steps


# ---------------------------------------------------------------------------
# differential check


def outcome(f, *args):
    """A call's result, or the class and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def presentation(m, stacky):
    names = tuple(f"v{j}" for j in range(m.cols))
    CoxPresentation(names, m, MonomialIdeal(((0,),)), stacky)


def random_weights(rng):
    """Small matrix, sometimes rank-deficient or narrow, with a zero column or torsion."""
    r = rng.randint(1, 3)
    n = rng.randint(max(1, r - 1), r + 4)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    roll = rng.random()
    if roll < 0.15:
        rows[-1] = [2 * e for e in rows[0]]
    elif roll < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    elif roll < 0.5:
        f = rng.choice((2, 3))
        rows[rng.randrange(r)] = [f * e for e in rows[rng.randrange(r)]]
    return M(rows)


def kind(got):
    if got[0] == "ok":
        return "well-formed"
    if got[0] is RankError:
        return "rank-deficient"
    if got[0] is MustStandardizeFirstError:
        return "not standard"
    return "zero column" if "is zero" in got[1] else "standard, not well-formed"


class TestAgainstSeparateSmithForms:
    def test_validation_outcomes_match(self):
        rng = random.Random(2013)
        seen = dict.fromkeys(
            ("rank-deficient", "zero column", "not standard",
             "standard, not well-formed", "well-formed"), 0
        )
        checks = (
            (is_well_formed, is_well_formed_by_smith),
            (gale_dual, gale_dual_by_smith),
            (kernel_basis, kernel_basis_by_smith),
            (standardize_with_steps, standardize_with_steps_by_smith),
            (lambda m: weights_from_rays(m.transpose()),  # the columns as rays
             lambda m: weights_from_rays_by_smith(m.transpose())),
        )
        for _ in range(1200):
            m = random_weights(rng)
            expected = [outcome(validate_presentation_by_smith, m, stacky)
                        for stacky in (True, False)]
            expected += [outcome(oracle, m) for _, oracle in checks]
            for _ in range(2):  # the second query reads the kept forms
                got = [outcome(presentation, m, stacky) for stacky in (True, False)]
                got += [outcome(f, m) for f, _ in checks]
                assert got == expected, m
            seen[kind(got[1])] += 1  # the non-stacky validation
        assert min(seen.values()) >= 50, seen


class TestSmithFormMemo:
    def test_value_semantics_ignore_the_memo(self):
        m = M([[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]])
        before = (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m))
        form = _SmithForm.of(m)
        assert vars(m)["_smith_form"] is form
        assert (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m)) == before
        fresh = M(m.entries)
        assert fresh == m and m == fresh and fresh is not m
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert twin == m and "_smith_form" not in vars(twin)
        assert _SmithForm.of(fresh) == form and _SmithForm.of(fresh) is not form
        assert _SmithForm.of(M([[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]])) != form

    def test_gale_gcd_memo_stays_out_of_the_values(self):
        m = M([[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]])
        form = _SmithForm.of(m)
        before = (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m))
        form_before = (hash(form), repr(form), type(form).__match_args__)
        gcds = form.gale_row_gcds()
        assert type(gcds) is tuple  # callers share it, so it cannot be mutable
        assert vars(form)["_gale_row_gcds"] is gcds
        assert form.gale_row_gcds() is gcds  # computed once per form
        assert (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m)) == before
        assert (hash(form), repr(form), type(form).__match_args__) == form_before
        twin = _SmithForm(form.rows, form.diag, form.v)
        assert twin == form and form == twin and "_gale_row_gcds" not in vars(twin)
        assert twin.gale_row_gcds() == gcds == tuple(gcd(*row[2:]) for row in form.v)
        for copied in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert copied == m and "_smith_form" not in vars(copied)

    def test_presentations_on_one_matrix_share_the_gcds(self):
        weights = M([[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]])
        first = P("xyztu", weights.entries, [(0, 1, 2), (3, 4)])
        gcds = _SmithForm.of(first.weights).gale_row_gcds()
        again = CoxPresentation(first.variables, first.weights, MonomialIdeal(((0, 1, 2, 3), (4,))))
        assert _SmithForm.of(again.weights).gale_row_gcds() is gcds
        assert is_well_formed(first.weights) and gcds == (1,) * 5

    def test_kernel_basis_is_kept_on_the_form(self, monkeypatch):
        hermite_calls = []
        real = _kernels.hermite
        monkeypatch.setattr(
            _kernels, "hermite", lambda rows: hermite_calls.append(1) or real(rows)
        )
        m = M([[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]])
        before = (hash(m), repr(m), pickle.dumps(m))
        basis = kernel_basis(m)
        assert kernel_basis(m) is basis and gale_dual(m) is basis
        assert vars(_SmithForm.of(m))["_kernel_basis"] is basis
        assert len(hermite_calls) == 1
        assert (hash(m), repr(m), pickle.dumps(m)) == before
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert twin == m and "_smith_form" not in vars(twin)
            assert kernel_basis(twin) == basis and kernel_basis(twin) is not basis
        assert len(hermite_calls) == 4
        form = _SmithForm.of(m)
        twin = _SmithForm(form.rows, form.diag, form.v)
        assert twin == form and "_kernel_basis" not in vars(twin)

    def test_form_is_kept_per_object(self, smith_calls):
        m = M([[1, 2, 3], [4, 5, 6]])
        assert _SmithForm.of(m) is _SmithForm.of(m)
        assert len(smith_calls) == 1
        _SmithForm.of(M(m.entries))  # an equal value is another object
        assert len(smith_calls) == 2


# ---------------------------------------------------------------------------
# Smith-call pins


@pytest.fixture
def smith_calls(monkeypatch):
    calls = []
    real = _kernels.smith
    monkeypatch.setattr(_kernels, "smith", lambda rows: calls.append(1) or real(rows))
    return calls


class TestOneSmithFormPerValue:
    def test_presentation_validates_with_one(self, smith_calls):
        P("xyztu", [[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]], [(0, 1, 2), (3, 4)])
        assert len(smith_calls) == 1  # rank, standardness and Gale rows

    def test_gale_dual_with_one(self, smith_calls):
        weights = M(F2_WF.weights.entries)
        gale_dual(weights)
        assert len(smith_calls) == 1  # standardness and the kernel
        gale_dual(weights)
        assert len(smith_calls) == 1  # the same object keeps its form

    def test_weights_from_rays_with_one(self, smith_calls):
        weights = weights_from_rays(M([[1, 0], [0, 1], [-1, -1]]))  # P^2
        assert weights == M([[1, 1, 1]])
        assert len(smith_calls) == 1  # rank, torsion and the relations

    def test_fan_from_presentation(self, smith_calls):
        fan = fan_from_presentation(F2_WF)
        # the validated weights keep their form; Fan's rank checks (the
        # rays, each cone) need no Smith form
        assert len(fan.max_cones) == 6
        assert len(smith_calls) == 0

    def test_well_form(self, smith_calls):
        stacky = CoxPresentation(
            F2_STACKY.variables, M(F2_STACKY.weights.entries), F2_STACKY.irrelevant, True
        )
        smith_calls.clear()
        well_form(stacky)
        # the input kept its form when it was built; one each for the
        # standardised, column-repaired and Hermite-canonical matrices
        assert len(smith_calls) == 3


# ---------------------------------------------------------------------------
# standardisation kept on the matrix


def planted_weights(rng):
    """Full-rank weights with no zero column and a composite factor planted in one row.

    A random determinant-one row mix hides the factor, so the minor gcd has
    repeated and distinct primes and the peeling needs row transforms.
    """
    r = rng.randint(1, 3)
    n = rng.randint(r + 1, r + 4)
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        i, f = rng.randrange(r), rng.choice((4, 6, 9, 10, 12, 18, 30))
        rows[i] = [f * e for e in rows[i]]
        for _ in range(2 * r if r > 1 else 0):
            a, b = rng.sample(range(r), 2)
            c = rng.randint(-3, 3)
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
        m = M(rows)
        if rank_by_smith(m) == r and all(any(col) for col in m.columns()):
            return m


def stacky(m):
    names = tuple(f"v{j}" for j in range(m.cols))
    return CoxPresentation(names, m, MonomialIdeal((tuple(range(m.cols)),)), True)


def well_form_outcome(p):
    got = outcome(well_form, p)
    if got[0] != "ok":
        return got
    model, cert = got[1]
    return model, cert, verify_certificate(p.weights, cert, model.weights)


class TestStandardisationKeptOnTheMatrix:
    def test_either_order_matches_a_fresh_matrix_and_the_oracle(self):
        rng = random.Random(1807)
        seen = {"peeled": 0, "repaired": 0, "unsupported": 0}
        for _ in range(3000):
            m = planted_weights(rng)
            expected_steps = standardize_with_steps_by_smith(M(m.entries))
            assert standardize_with_steps(M(m.entries)) == expected_steps, m
            expected_wf = well_form_outcome(stacky(M(m.entries)))
            if expected_wf[0] is UnsupportedFeatureError:
                seen["unsupported"] += 1
            else:
                assert expected_wf[2] is True, m
                kinds = {type(step).__name__ for step in expected_wf[1].steps}
                seen["repaired" if "ColumnScale" in kinds else "peeled"] += 1
            # whichever runs second reads the standardisation the first kept
            p = stacky(M(m.entries))
            assert standardize_with_steps(p.weights) == expected_steps, m
            assert standardize(p.weights) == expected_steps[:2], m
            assert well_form_outcome(p) == expected_wf, m
            p = stacky(M(m.entries))
            assert well_form_outcome(p) == expected_wf, m
            assert standardize(p.weights) == expected_steps[:2], m
            assert standardize_with_steps(p.weights) == expected_steps, m
            assert "_standardisation" in vars(p.weights)
        assert min(seen.values()) >= 20, seen

    @pytest.fixture
    def peel_calls(self, monkeypatch):
        """The ``column`` of each ``_peel_primes`` call: None when it standardises."""
        calls = []
        real = intlattice._peel_primes

        def counted(work, d, column=None):
            calls.append(column)
            return real(work, d, column)

        monkeypatch.setattr(intlattice, "_peel_primes", counted)
        monkeypatch.setattr(coxpres, "_peel_primes", counted)
        return calls

    def test_second_standardize_peels_nothing(self, peel_calls, smith_calls):
        m = M([[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]])
        first = standardize_with_steps(m)
        assert peel_calls == [None] and len(smith_calls) == 2  # m and its standard factor
        assert standardize_with_steps(m) == first
        assert standardize(m) == first[:2]
        assert peel_calls == [None] and len(smith_calls) == 2
        standardize(M(m.entries))  # an equal value is another object
        assert peel_calls == [None, None] and len(smith_calls) == 4

    def test_second_well_form_does_not_standardise_again(self, peel_calls, smith_calls):
        p = CoxPresentation(
            F2_STACKY.variables, M(F2_STACKY.weights.entries), F2_STACKY.irrelevant, True
        )
        smith_calls.clear()
        first = well_form(p)
        assert peel_calls.count(None) == 1 and len(smith_calls) == 3
        peels = len(peel_calls)
        # the model and its steps are kept on the input matrix
        assert well_form(p) == first
        assert len(peel_calls) == peels and len(smith_calls) == 3
        assert well_form(p)[0].weights is first[0].weights
        assert standardize(p.weights) == standardize(M(F2_STACKY.weights.entries))
        assert peel_calls.count(None) == 2 and len(smith_calls) == 3 + 2

    def test_standardize_then_well_form_adds_no_smith_form(self, peel_calls, smith_calls):
        # one planted prime and no column repair: well_form's standard
        # factor is already Hermite-canonical, so it adds no elimination
        p = P("xyz", [[1, 0, 1], [0, 2, 2]], [(0, 1, 2)], stacky=True)
        transform, standard = standardize(p.weights)
        assert peel_calls == [None]
        calls = len(smith_calls)
        model, cert = well_form(p)
        assert model.weights is standard and verify_certificate(p.weights, cert, standard)
        assert peel_calls == [None] and len(smith_calls) == calls

    def test_rank_deficient_input_raises_on_every_call(self, peel_calls):
        m = M([[1, 2, 3], [2, 4, 6]])
        for f in (standardize, standardize_with_steps) * 2:
            with pytest.raises(RankError, match="standardize needs full row rank"):
                f(m)
        assert "_standardisation" not in vars(m) and peel_calls == []

    def test_rank_dropping_column_raises_on_every_call(self):
        # deleting column 0 leaves a matrix of rank 1
        p = P("xyz", [[2, 0, 0], [0, 1, 1]], [(0,), (1, 2)], stacky=True)
        for _ in range(2):
            with pytest.raises(UnsupportedFeatureError, match="deleting column 0 drops the rank"):
                well_form(p)
        assert "_well_formed" not in vars(p.weights)

    def test_well_formed_input_keeps_nothing_and_makes_no_cycle(self, peel_calls):
        p = CoxPresentation(F2_WF.variables, M(F2_WF.weights.entries), F2_WF.irrelevant)
        gc.collect()
        gc.disable()
        try:
            model, cert = well_form(p)
            assert model.weights is p.weights and cert.steps == ()
            assert "_well_formed" not in vars(p.weights) and peel_calls == []
            del p, model, cert
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_value_semantics_ignore_the_kept_model(self):
        p = CoxPresentation(
            F2_STACKY.variables, M(F2_STACKY.weights.entries), F2_STACKY.irrelevant, True
        )
        m = p.weights
        before = (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m))
        first = well_form(p)
        assert vars(m)["_well_formed"][0] is first[0].weights
        assert (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m)) == before
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert twin == m and m == twin
            assert not {"_smith_form", "_standardisation", "_well_formed"} & set(vars(twin))
            assert well_form(CoxPresentation(p.variables, twin, p.irrelevant, True)) == first

    def test_mutated_steps_do_not_reach_the_next_call(self):
        m = M([[6, 0, 4, 2], [0, 3, 3, 3]])
        transform, work, steps = standardize_with_steps(m)
        expected = list(steps)
        assert len(expected) >= 3
        steps.clear()
        steps.append(("row_divide", 0, 7))
        assert standardize_with_steps(m) == (transform, work, expected)
        _, peeled = vars(m)["_standardisation"]
        assert type(peeled) is tuple and all(type(record) is tuple for record in peeled)

    def test_value_semantics_ignore_the_kept_standardisation(self):
        m = M([[3, 3, 3, 0, -2], [1, 1, 1, 2, 0]])
        before = (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m),
                  copy.copy(m), copy.deepcopy(m))
        standardize(m)
        assert "_standardisation" in vars(m)
        after = (hash(m), repr(m), type(m).__match_args__, pickle.dumps(m),
                 copy.copy(m), copy.deepcopy(m))
        assert after == before and m == M(m.entries) and M(m.entries) == m
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert twin == m and "_standardisation" not in vars(twin)
            assert standardize(twin) == standardize(m)

    def test_standard_input_keeps_nothing_and_makes_no_cycle(self, peel_calls):
        m = M([[1, 1, 1, 0, -2], [0, 0, 0, 1, 1]])
        gc.collect()
        gc.disable()
        try:
            assert standardize_with_steps(m) == (IntMatrix.identity(2), m, [])
            assert standardize(m)[1] is m
            assert "_standardisation" not in vars(m) and peel_calls == []
            del m
            assert gc.collect() == 0
        finally:
            gc.enable()
