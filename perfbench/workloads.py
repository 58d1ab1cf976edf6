"""The benchmark's four workloads and their correctness oracles.

A workload is a fixed, seeded list of operations (one pass); the closed
loop runs whole passes.  Each operation draws its instance from a fixed
pool of variants, and the run seed picks a few variants per size class,
so every seed runs the same mix of sizes on different inputs, and the
variants' cost differences mostly average out within a pass.  The pool is
fixed so that each instance has an output digest recorded in
`digests.json`; a later change to any exact result (or to the CLI's
`--json` bytes) fails the operation.

Besides the digest, each operation has an oracle of its own:

* `paper`: the acceptance criteria's expected values (`paper.py`);
* `scaled`: closed forms (2^k transversals of k disjoint pairs; twisted
  pairs are non-equivalent; a game has one model more than interior walls,
  and as many walls as distinct column directions; generators have the
  requested degrees and none divides another);
* `lattice`: identities checked with the benchmark's own integer
  arithmetic (`input = transform @ standard`, `weights @ gale = 0`,
  `m @ kernel = 0`, and the certificate replayed step by step);
* `cli`: exit code 0, `--json` output checked per verb with the same
  identities.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = 16          # pool variants per size class
DIGESTS_PATH = os.path.join(HERE, "digests.json")


class Failure(Exception):
    """An operation's output is wrong."""


def digest(plain) -> str:
    return hashlib.sha256(repr(plain).encode()).hexdigest()[:20]


class Op:
    """One operation: `run()` is timed, `check(result)` is not."""

    __slots__ = ("key", "run", "check")

    def __init__(self, key, run, check):
        self.key, self.run, self.check = key, run, check


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _is_zero(m) -> bool:
    return all(x == 0 for row in m for x in row)


def _expect(cond, what):
    if not cond:
        raise Failure(what)


def _variants(seed: int, key: str, k: int) -> list[int]:
    """The seed's k pool variants of one size class."""
    return sorted(random.Random(f"{seed}/{key}").sample(range(VARIANTS), k))


# ---------------------------------------------------------------------------
# plain-data views of library values (what the digests cover)


def plain_pres(p):
    return (p.variables, p.weights.entries, p.irrelevant.components, p.stacky)


def plain_game(g):
    return (
        tuple(plain_pres(m) for m in g.models),
        tuple((c.wall, c.type_vector, c.classification, c.base_vars, c.base_weights)
              for c in g.crossings),
        tuple((e.kind, e.ray, e.target_generators, e.contracted_variable, e.beyond_count)
              for e in g.ends),
        tuple((c.left, c.right, c.index) for c in g.chambers),
    )


def plain_steps(cert):
    out = []
    for s in cert.steps:
        kind = type(s).__name__
        if kind == "RowTransform":
            out.append((kind, s.witness.matrix.entries))
        elif kind == "ColumnScale":
            out.append((kind, s.column, s.factor, s.row))
        elif kind == "RowDivide":
            out.append((kind, s.row, s.factor))
        else:
            out.append((kind, tuple(str(f) for f in s.factors)))
    return tuple(out)


def replay_steps(matrix, steps):
    """Replay certificate steps with plain integer arithmetic."""
    m = [list(r) for r in matrix]
    for step in steps:
        kind = step[0]
        if kind == "RowTransform":
            m = _matmul(step[1], m)
        elif kind == "ColumnScale":
            _, col, factor, row = step
            _expect(all(m[row][j] % factor == 0 for j in range(len(m[row])) if j != col),
                    "column scale hypothesis fails on replay")
            for r in m:
                r[col] *= factor
        elif kind == "RowDivide":
            _, row, factor = step
            _expect(all(x % factor == 0 for x in m[row]), "row divide is not exact")
            m[row] = [x // factor for x in m[row]]
        else:
            raise Failure(f"unexpected step {kind}")
    return m


# ---------------------------------------------------------------------------
# paper


class Paper:
    """Acceptance criteria 1-10 in process, one operation per pass."""

    name = "paper"
    deadline_s = 5.0
    tail_percentile = 90

    def __init__(self, seed: int, workdir: str) -> None:
        import paper

        self.expected = dict(paper.EXPECTED)
        inputs = paper.Inputs()
        op = Op("criteria-1-10", lambda: paper.run_pass(inputs), self._check)
        self.ops = [op]
        self.warmup = [op]

    def _check(self, result):
        wrong = sorted(k for k in self.expected if result.get(k) != self.expected[k])
        _expect(not wrong and len(result) == len(self.expected),
                f"criteria values differ: {wrong}")
        return sorted(result.items())


# ---------------------------------------------------------------------------
# scaled


SCALED_VARIANTS_PER_RUN = 2
GAME_SIZES = (8, 12, 16, 20, 24)
EQUIV_SIZES = (4, 5, 6)
TRANSVERSAL_SIZES = (8, 9, 10, 11)
# (boundary-line multiples, other columns, character, degree bound)
GENS_CONFIGS = (
    ((2, -3), ((0, 1), (1, 1), (-1, 1)), (0, 1), 3),
    ((1, -2, 1), ((0, 1), (1, 1), (-1, 1)), (0, 1), 3),
    ((2, -3, 2), ((1, 1), (-1, 2)), (0, 1), 3),
    ((3, -2, 1), ((0, 1), (1, 1)), (0, 1), 3),
    ((2, -3, 2), ((0, 1), (1, 1), (-1, 1)), (1, 1), 2),
)


def _pres(names, rows, comps, stacky):
    from coxforge import CoxPresentation, IntMatrix, MonomialIdeal

    return CoxPresentation(
        tuple(names), IntMatrix(tuple(tuple(r) for r in rows)),
        MonomialIdeal(tuple(tuple(c) for c in comps)), stacky=stacky,
    )


def _permuted(cols, comps, perm):
    """Reorder columns: new column i is old column perm[i]."""
    inv = {old: new for new, old in enumerate(perm)}
    new_cols = [cols[old] for old in perm]
    new_comps = [sorted(inv[i] for i in c) for c in comps]
    return new_cols, new_comps


def game_instance(m: int, variant: int):
    from coxforge import WeightedBundleSpec, weighted_bundle_fan

    rng = random.Random(f"game/{m}/{variant}")
    omega = list(range(m + 1))
    rng.shuffle(omega)
    _, pres = weighted_bundle_fan(WeightedBundleSpec(n=1, m=m, omega=tuple(omega),
                                                     a=(1,) * (m + 1)))
    return pres


def equiv_instance(n: int, variant: int):
    rng = random.Random(f"equiv/{n}/{variant}")
    twist = rng.choice((-2, -1, 1, 2, 3))
    names = [f"x{i}" for i in range(n + 1)] + ["y0", "y1"]
    comps = [list(range(n + 1)), [n + 1, n + 2]]
    product = [(1, 0)] * (n + 1) + [(0, 1), (0, 1)]
    twisted = [(1, 0)] * (n + 1) + [(0, 1), (twist, 1)]
    perm = list(range(n + 3))
    rng.shuffle(perm)
    cols, qcomps = _permuted(twisted, comps, perm)
    p = _pres(names, [[c[0] for c in product], [c[1] for c in product]], comps, False)
    q = _pres([names[i] for i in perm], [[c[0] for c in cols], [c[1] for c in cols]],
              qcomps, False)
    return p, q


def transversal_instance(k: int, variant: int):
    rng = random.Random(f"transversals/{k}/{variant}")
    labels = list(range(2 * k))
    rng.shuffle(labels)
    sets = [(labels[2 * i], labels[2 * i + 1]) for i in range(k)]
    rng.shuffle(sets)
    return sets


def gens_instance(config: int, variant: int):
    qs, others, chi, bound = GENS_CONFIGS[config]
    rng = random.Random(f"gens/{config}/{variant}")
    cols = [(q, 0) for q in qs] + list(others)
    comps = [list(range(len(qs))), list(range(len(qs), len(cols)))]
    perm = list(range(len(cols)))
    rng.shuffle(perm)
    cols, comps = _permuted(cols, comps, perm)
    names = [f"v{i}" for i in range(len(cols))]
    p = _pres(names, [[c[0] for c in cols], [c[1] for c in cols]], comps, True)
    return p, chi, bound


def _check_game(pres, game):
    dirs = set()
    for a, b in pres.weights.columns():
        g = gcd(a, b)
        dirs.add((a // g, b // g))
    _expect(len(game.models) == len(dirs) - 1, "models != distinct directions - 1")
    _expect(len(game.crossings) == len(game.models) - 1, "models != interior walls + 1")
    return plain_game(game)


def _check_inequivalent(result):
    _expect(result is False, "twisted pair called equivalent")
    return result


def _check_transversals(sets, result):
    k = len(sets)
    _expect(len(result) == 2 ** k, f"{len(result)} transversals, expected 2^{k}")
    _expect(list(result) == sorted(result) and len(set(result)) == len(result),
            "transversals not sorted and distinct")
    for t in result:
        _expect(len(t) == k and all(len(set(t) & set(s)) == 1 for s in sets),
                f"{t} does not pick one element per set")
    return result


def _check_gens(pres, chi, bound, gens):
    cols = pres.weights.columns()
    _expect(len(gens) >= 1, "no generators")
    for e in gens:
        d = (sum(x * c[0] for x, c in zip(e, cols)), sum(x * c[1] for x, c in zip(e, cols)))
        _expect(any(d == (k * chi[0], k * chi[1]) for k in range(1, bound + 1)),
                f"generator {e} has degree {d}")
    for a in gens:
        for b in gens:
            _expect(a == b or not all(x <= y for x, y in zip(a, b)),
                    f"generator {a} divides {b}")
    return gens


class Scaled:
    """The ROADMAP's families a few sizes past the paper."""

    name = "scaled"
    deadline_s = 5.0
    tail_percentile = 80

    def __init__(self, seed: int, workdir: str, pick=None) -> None:
        # Library calls go through the package namespace at call time, so
        # that the tracer's rebinding catches them.
        import coxforge as cf

        pick = pick or (lambda key: _variants(seed, key, SCALED_VARIANTS_PER_RUN))
        self.ops = []
        for m in GAME_SIZES:
            for v in pick(f"game/{m}"):
                p = game_instance(m, v)
                self.ops.append(Op(f"game/{m}/{v}", lambda p=p: cf.two_ray_game(p),
                                   lambda g, p=p: _check_game(p, g)))
        for n in EQUIV_SIZES:
            for v in pick(f"equiv/{n}"):
                p, q = equiv_instance(n, v)
                self.ops.append(Op(f"equiv/{n}/{v}",
                                   lambda p=p, q=q: cf.presentations_equivalent(p, q),
                                   _check_inequivalent))
        for k in TRANSVERSAL_SIZES:
            for v in pick(f"transversals/{k}"):
                sets = transversal_instance(k, v)
                self.ops.append(Op(f"transversals/{k}/{v}",
                                   lambda s=sets: cf.minimal_transversals(s),
                                   lambda r, s=sets: _check_transversals(s, r)))
        for c in range(len(GENS_CONFIGS)):
            for v in pick(f"gens/{c}"):
                p, chi, bound = gens_instance(c, v)
                self.ops.append(Op(f"gens/{c}/{v}",
                                   lambda p=p, chi=chi, b=bound: cf.graded_ring_generators(p, chi, b),
                                   lambda r, p=p, chi=chi, b=bound: _check_gens(p, chi, b, r)))
        random.Random(seed).shuffle(self.ops)
        # Warm-up: the smallest size of each family, from a fixed variant.
        small = (game_instance(GAME_SIZES[0], 0), equiv_instance(EQUIV_SIZES[0], 0),
                 transversal_instance(TRANSVERSAL_SIZES[0], 0), gens_instance(0, 0))
        self.warmup = [
            Op("warmup/game", lambda: cf.two_ray_game(small[0]), lambda g: _check_game(small[0], g)),
            Op("warmup/equiv", lambda: cf.presentations_equivalent(*small[1]),
               _check_inequivalent),
            Op("warmup/transversals", lambda: cf.minimal_transversals(small[2]),
               lambda r: _check_transversals(small[2], r)),
            Op("warmup/gens", lambda: cf.graded_ring_generators(*small[3]),
               lambda r: _check_gens(*small[3], r)),
        ]


# ---------------------------------------------------------------------------
# lattice


LATTICE_VARIANTS_PER_RUN = 3
LATTICE_SHAPES = (
    (3, 8), (3, 12), (3, 16), (4, 8), (4, 12), (4, 16), (5, 8), (5, 10),
    (5, 12), (5, 16), (6, 8), (6, 12), (6, 16),
)


def lattice_instance(rank: int, n: int, variant: int):
    """A stacky presentation with a planted generic stabiliser.

    Small random weights get one row multiplied by a prime, then a random
    unimodular row mix hides the structure and grows entries to ~10^6.
    """
    rng = random.Random(f"lattice/{rank}x{n}/{variant}")
    a = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(rank)]
    p = rng.choice((2, 3, 5, 7))
    a[-1] = [x * p for x in a[-1]]
    g = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.randint(-9, 9)
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    rows = _matmul(g, a)
    names = [f"v{i}" for i in range(n)]
    return _pres(names, rows, [range(n // 2), range(n // 2, n)], True)


def lattice_pipeline(p):
    from coxforge import gale_dual, kernel_basis, standardize, verify_certificate, well_form

    wf, cert = well_form(p)
    verified = verify_certificate(p.weights, cert, wf.weights)
    transform, standard = standardize(p.weights)
    kernel = kernel_basis(p.weights)
    gale = gale_dual(wf.weights)
    return wf, cert, verified, transform, standard, kernel, gale


def check_lattice(p, result):
    wf, cert, verified, transform, standard, kernel, gale = result
    m = p.weights.entries
    _expect(verified is True, "certificate did not verify")
    steps = plain_steps(cert)
    _expect(replay_steps(m, steps) == [list(r) for r in wf.weights.entries],
            "certificate replay does not reach the output")
    _expect(_matmul(transform.entries, standard.entries) == [list(r) for r in m],
            "input != transform @ standard")
    _expect(_is_zero(_matmul(wf.weights.entries, gale.entries)), "weights @ gale != 0")
    _expect(gale.cols == p.num_variables - p.rank, "gale dual has the wrong width")
    _expect(_is_zero(_matmul(m, kernel.entries)), "m @ kernel != 0")
    _expect(kernel.cols == p.num_variables - p.rank, "kernel has the wrong width")
    return (wf.weights.entries, steps, transform.entries, standard.entries,
            kernel.entries, gale.entries)


class Lattice:
    """Large-operand lattice pipeline on random stacky presentations."""

    name = "lattice"
    deadline_s = 5.0
    tail_percentile = 95

    def __init__(self, seed: int, workdir: str, pick=None) -> None:
        pick = pick or (lambda key: _variants(seed, key, LATTICE_VARIANTS_PER_RUN))
        self.ops = []
        for rank, n in LATTICE_SHAPES:
            for v in pick(f"lattice/{rank}x{n}"):
                p = lattice_instance(rank, n, v)
                self.ops.append(Op(f"lattice/{rank}x{n}/{v}", lambda p=p: lattice_pipeline(p),
                                   lambda r, p=p: check_lattice(p, r)))
        random.Random(seed).shuffle(self.ops)
        small = lattice_instance(3, 8, 0)
        self.warmup = [Op("warmup/lattice", lambda: lattice_pipeline(small),
                          lambda r: check_lattice(small, r))]


# ---------------------------------------------------------------------------
# cli


CLI_FILES = {
    "f2.cox": "rank 2\nvars x y z t u\n3 3 3 0 -2\n1 1 1 2 0\n"
              "irrelevant (x,y,z)(t,u)\nstacky true\n",
    "F.cox": "rank 2\nvars y0 y1 x0 x1 x2 x3 x4\n1 1 0 -1 -2 -3 -3\n"
             "0 0 1 1 1 1 1\nirrelevant (y0,y1)(x0,x1,x2,x3,x4)\n",
    "F3.cox": "rank 2\nvars u v x y z t s\n1 1 0 -1 -2 -1 -1\n0 0 1 2 3 1 1\n"
              "irrelevant (u,v)(x,y,z,t,s)\n",
    "calTv.cox": "rank 2\nvars u x t s y z w\n0 1 1 1 2 3 0\n1 1 0 0 0 -1 -1\n"
                 "irrelevant (u,x,t,s,y)(z,w)\n",
    "elliptic.cox": "rank 2\nvars x0 x1 x2 x3 x4 x5\n3 0 -2 -6 -1 -1\n0 9 8 6 1 1\n"
                    "irrelevant (x0,x1)(x2,x3,x4,x5)\nstacky true\n",
    "calT.cox": "rank 3\nvars u v x y z t s w\n1 1 0 -1 -2 -1 -1 0\n"
                "0 0 1 2 3 1 1 0\n3 0 4 2 0 1 1 -3\n"
                "irrelevant (u,v)(x,y,z,t,s)(u,x,y,t,s)(v,w)(z,w)\nstacky true\n",
    "calT-reduced.cox": "rank 3\nvars u v x y z t s w\n1 1 0 -1 -2 -1 -1 0\n"
                        "0 0 1 2 3 1 1 0\n1 0 1 0 -1 0 0 -1\n"
                        "irrelevant (u,v)(x,y,z,t,s)(u,x,y,t,s)(v,w)(z,w)\nstacky true\n",
    "kawamata-solve.job": "center 1 2\nk 2\nfiber 1 2 3 1 1\nb ? 2 3 1 1\nnewvar w\n"
                          "equation deg -1 3 support 1,0,0,0,1,0,0 0,0,2,0,0,1,0\n"
                          "equation deg -2 4 support 0,0,0,2,0,0,0 0,0,1,0,1,0,0\n"
                          "target 1/3\n",
    "f2.mat": "2 5\n3 3 3 0 -2\n1 1 1 2 0\n",
    "F3.fan": "dim 5\nrays 7\n1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n0 0 0 1 0\n"
              "-1 -1 -1 -1 0\n0 0 0 0 1\n3 3 2 1 -1\ncones 10\n2 4 5 6 7\n"
              "2 3 5 6 7\n2 3 4 6 7\n2 3 4 5 7\n2 3 4 5 6\n1 4 5 6 7\n1 3 5 6 7\n"
              "1 3 4 6 7\n1 3 4 5 7\n1 3 4 5 6\n",
    "f2wf.fan": "dim 3\nrays 5\n1 0 0\n0 1 0\n1 1 2\n-1 -1 -1\n1 1 1\ncones 6\n"
                "2 3 5\n2 3 4\n1 3 5\n1 3 4\n1 2 5\n1 2 4\n",
}

# One invocation per verb; file arguments name entries of CLI_FILES.
CLI_VERBS = (
    ("standardize", ["f2.mat"]),
    ("wellform", ["f2.cox"]),
    ("wps", ["2", "4", "6", "3"]),
    ("gale", ["F.cox"]),
    ("fan2cox", ["f2wf.fan"]),
    ("cox2fan", ["F3.cox"]),
    ("subdivide", ["F3.fan", "2", "1", "2", "1", "0"]),
    ("charts", ["F3.cox"]),
    ("chambers", ["F.cox"]),
    ("game", ["F.cox"]),
    ("gens", ["calTv.cox", "1", "1"]),
    ("blowup", ["F3.cox", "--center", "1,2", "--k", "2", "--b", "4,2,3,1,1", "--newvar", "w"]),
    ("discrepancy", ["kawamata-solve.job"]),
    ("equiv", ["calT.cox", "calT-reduced.cox"]),
)

# The entry point a console script would run.
CLI_ENTRY = "import sys; from coxforge.cli import main; sys.exit(main())"


def cli_env(root: str, pycache: str) -> dict:
    """Pinned child environment: source tree, backend, bytecode cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and not k.startswith("COXFORGE_")}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        COXFORGE_PURE_PYTHON="1",
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=pycache,   # warm after the first call, outside src/
    )
    return env


def _check_cli(verb, payload, files):
    if verb == "standardize":
        rows = [list(map(int, line.split())) for line in files["f2.mat"].splitlines()[1:]]
        _expect(_matmul(payload["transform"], payload["standard"]) == rows,
                "input != transform @ standard")
    elif verb == "wellform":
        _expect(payload["verified"] is True and payload["steps"], "certificate missing")
    elif verb == "gale":
        w = [[1, 1, 0, -1, -2, -3, -3], [0, 0, 1, 1, 1, 1, 1]]
        _expect(_is_zero(_matmul(w, payload["rays"])), "weights @ gale != 0")
    elif verb == "game":
        _expect(len(payload["models"]) == len(payload["crossings"]) + 1,
                "models != interior walls + 1")
    elif verb == "discrepancy":
        _expect(payload["solved_weight"] == 4 and payload["discrepancy"] == "1/3",
                "discrepancy job not solved to weight 4, discrepancy 1/3")
    elif verb == "equiv":
        _expect(payload["equivalent"] is True, "equivalent pair reported inequivalent")
    return payload


class Cli:
    """One subprocess invocation of one verb with `--json` per operation."""

    name = "cli"
    deadline_s = 10.0
    tail_percentile = 80

    def __init__(self, seed: int, workdir: str, root: str, pycache: str) -> None:
        self.files = CLI_FILES
        self.inputs = os.path.join(workdir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        for name, text in CLI_FILES.items():
            with open(os.path.join(self.inputs, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.env = cli_env(root, pycache)
        self.prefix = [sys.executable, "-c", CLI_ENTRY]
        self.ops = []
        for verb, args in CLI_VERBS:
            argv = [verb] + [os.path.join(self.inputs, a) if a in CLI_FILES else a
                             for a in args] + ["--json"]
            self.ops.append(Op(f"cli/{verb}", lambda argv=argv: self._invoke(argv),
                               lambda out, verb=verb: self._check(verb, out)))
        random.Random(seed).shuffle(self.ops)
        self.warmup = [op for op in self.ops if op.key == "cli/wps"]

    def _invoke(self, argv):
        proc = subprocess.Popen(self.prefix + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=self.inputs)
        try:
            out, err = proc.communicate(timeout=self.deadline_s)
        except BaseException:  # overrun or interrupted: never leave a child behind
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out, err

    def _check(self, verb, result):
        code, out, err = result
        _expect(code == 0, f"{verb} exited {code}: {err.decode(errors='replace')[-200:]}")
        payload = json.loads(out)
        _check_cli(verb, payload, self.files)
        return out


WORKLOADS = {w.name: w for w in (Paper, Scaled, Lattice, Cli)}


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
