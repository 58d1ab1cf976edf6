"""Text formats and the command-line interface."""

import ast
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from coxforge.blowup import BlowupSpec, blow_up_weighted_bundle
from coxforge.cli import main
from coxforge.errors import FormatError
from coxforge.formats import (
    parse_blowup_job,
    parse_fan,
    parse_matrix,
    parse_presentation,
    serialize_blowup_job,
    serialize_fan,
    serialize_matrix,
    serialize_presentation,
)
from coxforge.galefan import fan_from_presentation

from test_acceptance import BLOWUP_SPEC, CI, ELLIPTIC_RAW, F, F2_STACKY, F3, TV
from test_coxpres import PENTAGONAL_PRISM, PETERSEN, graph_presentation

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
EXAMPLE_PRESENTATIONS = [
    "f2.cox", "F.cox", "F3.cox", "elliptic.cox", "calT.cox", "calTv.cox"
]


def example(name):
    return os.path.join(EXAMPLES, name)


def read_example(name):
    with open(example(name)) as fh:
        return fh.read()


class TestExampleFiles:
    def test_examples_match_documented_sources(self):
        """Each shipped example is the input that an acceptance criterion pins."""
        presentations = {
            "f2.cox": F2_STACKY,
            "F.cox": F,
            "F3.cox": F3,
            "calTv.cox": TV,
            "elliptic.cox": ELLIPTIC_RAW,
            "calT.cox": blow_up_weighted_bundle(F3, BLOWUP_SPEC),
        }
        for name, expected in presentations.items():
            assert parse_presentation(read_example(name)) == expected, name
        job = parse_blowup_job(read_example("kawamata.job"))
        assert (job.spec, job.ci, job.target) == (BLOWUP_SPEC, CI, Fraction(1, 3))
        solve = parse_blowup_job(read_example("kawamata-solve.job"))
        assert solve.spec == BlowupSpec(
            BLOWUP_SPEC.center, BLOWUP_SPEC.k, BLOWUP_SPEC.fiber_weights,
            (None,) + BLOWUP_SPEC.b[1:], BLOWUP_SPEC.new_var,
        )
        assert (solve.ci, solve.target) == (CI, Fraction(1, 3))


class TestFormats:
    @pytest.mark.parametrize("name", EXAMPLE_PRESENTATIONS)
    def test_presentation_round_trip(self, name):
        p = parse_presentation(read_example(name))
        assert parse_presentation(serialize_presentation(p)) == p

    def test_matrix_round_trip(self):
        m = parse_matrix("2 3\n1 2 3\n4 5 6\n")
        assert m.entries == ((1, 2, 3), (4, 5, 6))
        assert parse_matrix(serialize_matrix(m)) == m

    def test_fan_round_trip(self):
        fan = fan_from_presentation(parse_presentation(read_example("F3.cox")))
        assert parse_fan(serialize_fan(fan)) == fan

    def test_comments_and_blank_lines_ignored(self):
        m = parse_matrix("# heading\n\n1 2\n# middle\n3 4\n", )
        assert m is not None

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "2 3\n1 2 3\n",  # missing row
            "1 2\n1 2 3\n",  # wrong width
            "x 2\n1 2\n",  # bad header
        ],
    )
    def test_matrix_errors(self, bad):
        with pytest.raises(FormatError):
            parse_matrix(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "rank 2\nvars x y\n1 0\n0 1\n",  # no irrelevant line
            "rank 2\nvars x y\n1 0\n0 1\nirrelevant (x,q)",  # unknown name
            "rank 1\nvars x\n1\nirrelevant (x)\nstacky maybe",  # bad flag
            "vars x\n1\nirrelevant (x)\n",  # missing rank
        ],
    )
    def test_presentation_errors(self, bad):
        with pytest.raises(FormatError):
            parse_presentation(bad)

    def test_error_reports_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_matrix("2 2\n1 2\nx y\n")


class TestBlowupJobFormat:
    @pytest.mark.parametrize("name", ["kawamata.job", "kawamata-solve.job"])
    def test_round_trip(self, name):
        job = parse_blowup_job(read_example(name))
        assert parse_blowup_job(serialize_blowup_job(job)) == job

    def test_solve_job_fields(self):
        job = parse_blowup_job(read_example("kawamata-solve.job"))
        assert job.spec.is_pattern
        assert str(job.target) == "1/3"
        assert job.bound == 1000

    def test_order_and_bound_keys(self):
        job = parse_blowup_job(
            "center 1 2\nk 2\nfiber 1 2 3 1 1\nb 4 2 3 1 1\n"
            "equation deg -2 4 order 4\nbound 60\n"
        )
        assert not job.spec.is_pattern
        assert job.bound == 60
        assert job.ci.equations[0].order == 4
        assert parse_blowup_job(serialize_blowup_job(job)) == job

    def test_duplicate_key_rejected(self):
        with pytest.raises(FormatError):
            parse_blowup_job("center 1 2\ncenter 1 2\nk 0\nfiber 1\nb 1\n")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliBasics:
    def test_wellform_reduces_weights(self, capsys):
        code, out, err = run_cli(capsys, "wellform", example("f2.cox"))
        assert code == 0
        assert "1 1 1 0 -2" in out and "0 0 0 1 1" in out
        assert "verified" in out

    def test_wellform_fixed_point(self, capsys):
        code, out, _ = run_cli(capsys, "wellform", example("F.cox"))
        assert code == 0 and "already well-formed" in out

    def test_standardize(self, capsys, tmp_path):
        mat = tmp_path / "a.mat"
        mat.write_text("2 5\n3 3 3 0 -2\n1 1 1 2 0\n")
        code, out, _ = run_cli(capsys, "standardize", str(mat))
        assert code == 0 and "minor gcd 2" in out
        assert "standard matrix:" in out

    def test_standardize_large_prime_minor_gcd(self, capsys, tmp_path):
        p = 100000000000000000039
        mat = tmp_path / "a.mat"
        mat.write_text(f"1 2\n{p} {2 * p}\n")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "standardize", str(mat))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == (f"minor gcd {p}\nstandard matrix:\n1 2\n1 2\n"
                       f"transform (input = transform @ standard):\n1 1\n{p}\n")

    def test_standardize_tall_matrix_reports_the_rank(self, capsys, tmp_path):
        mat = tmp_path / "a.mat"
        mat.write_text("3 2\n1 0\n0 1\n1 1\n")
        code, out, err = run_cli(capsys, "standardize", str(mat), "--json")
        assert (code, out) == (2, "")
        assert err == "error: standardize needs full row rank\n"

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "standardize", example("no-such-file.cox"))
        assert code == 2 and err.startswith("error:")

    def test_empty_input_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "standardize", "/dev/null")
        assert code == 2 and "error:" in err

    def test_unknown_verb_exits_2(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 2

    def test_no_verb_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_wps(self, capsys):
        code, out, _ = run_cli(capsys, "wps", "6", "10", "15")
        assert code == 0 and "1 1 1" in out
        code, _, err = run_cli(capsys, "wps", "0", "2")
        assert code == 2 and err.startswith("error:")

    def test_equiv(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", example("calT.cox"), example("calT.cox"))
        assert code == 0 and out.strip() == "equivalent"
        code, out, _ = run_cli(capsys, "equiv", example("calT.cox"), example("F.cox"))
        assert code == 0 and out.strip() == "not equivalent"

    def test_equiv_json_on_graphs(self, capsys, tmp_path):
        paths = []
        for name, edges in ("petersen", PETERSEN), ("prism", PENTAGONAL_PRISM):
            path = tmp_path / f"{name}.cox"
            path.write_text(serialize_presentation(graph_presentation(10, edges)))
            paths.append(str(path))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "equiv", *paths, "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, '{"equivalent":false}\n')


class TestCliGeometry:
    def test_gale(self, capsys):
        code, out, _ = run_cli(capsys, "gale", example("F.cox"))
        assert code == 0 and "y0:" in out

    def test_gens_veronese(self, capsys, tmp_path):
        f2wf = tmp_path / "f2wf.cox"
        f2wf.write_text(
            "rank 2\nvars x y z t u\n1 1 1 0 -2\n0 0 0 1 1\n"
            "irrelevant (x,y,z)(t,u)\n"
        )
        code, out, _ = run_cli(capsys, "gens", str(f2wf), "0", "1", "--bound", "2")
        assert code == 0
        assert out.split() == ["t", "x^2u", "xyu", "y^2u", "xzu", "yzu", "z^2u"]

    def test_cox2fan_fan2cox_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "cox2fan", example("F3.cox"))
        assert code == 0
        fanfile = tmp_path / "F3.fan"
        fanfile.write_text(out)
        code, out, _ = run_cli(capsys, "fan2cox", str(fanfile))
        assert code == 0 and "irrelevant" in out

    def test_fan2cox_independent_rays_exits_2(self, capsys, tmp_path):
        fanfile = tmp_path / "A2.fan"
        fanfile.write_text("dim 2\nrays 2\n1 0\n0 1\ncones 1\n1 2\n")
        code, out, err = run_cli(capsys, "fan2cox", str(fanfile))
        assert code == 2 and out == ""
        assert err == (
            "error: rays are linearly independent: no relations, so no weight matrix\n"
        )

    def test_subdivide(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "cox2fan", example("F3.cox"))
        fanfile = tmp_path / "F3.fan"
        fanfile.write_text(out)
        code, out, _ = run_cli(
            capsys, "subdivide", str(fanfile), "2", "1", "2", "1", "0"
        )
        assert code == 0 and "rays 8" in out

    def test_charts(self, capsys):
        code, out, _ = run_cli(capsys, "charts", example("F3.cox"))
        assert code == 0
        assert "1/3(" in out and "[terminal]" in out and "smooth" in out

    def test_chambers(self, capsys):
        code, out, _ = run_cli(capsys, "chambers", example("calTv.cox"))
        assert code == 0 and "walls:" in out and "chamber 0" in out
        assert "irrelevant" in out

    def test_game(self, capsys):
        code, out, _ = run_cli(capsys, "game", example("F.cox"))
        assert code == 0
        assert "models: 4" in out and "crossings: 3" in out
        assert out.count("Fibration") == 2
        # "AntiFlip" contains "Flip", so 2 anti-flips + 1 flip = 3 matches
        assert out.count("AntiFlip") == 2 and out.count("Flip") == 3
        assert "irrelevant (y0,y1)(x0,x1,x2,x3,x4)" in out

    def test_game_with_flop(self, capsys):
        code, out, _ = run_cli(capsys, "game", example("calTv.cox"))
        assert code == 0 and "Flop" in out and "DivisorialContraction" in out

    def test_blowup(self, capsys):
        code, out, _ = run_cli(
            capsys, "blowup", example("F3.cox"), "--center", "1,2", "--k", "2",
            "--b", "4,2,3,1,1", "--newvar", "w",
        )
        assert code == 0
        assert "3 0 4 2 0 1 1 -3" in out
        assert "x -> x*w^(4/3)" in out

    def test_discrepancy_complete_job(self, capsys):
        code, out, _ = run_cli(capsys, "discrepancy", example("kawamata.job"))
        assert code == 0
        assert "discrepancy: 1/3" in out and "matches target 1/3: yes" in out

    def test_discrepancy_solves_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "discrepancy", example("kawamata-solve.job"))
        assert code == 0
        assert "solved exceptional weight: 4" in out and "discrepancy: 1/3" in out

    def test_discrepancy_pattern_without_target_fails(self, capsys, tmp_path):
        text = read_example("kawamata-solve.job")
        stripped = "\n".join(
            line for line in text.splitlines() if not line.startswith("target")
        )
        jobfile = tmp_path / "incomplete.job"
        jobfile.write_text(stripped + "\n")
        code, _, err = run_cli(capsys, "discrepancy", str(jobfile))
        assert code == 2 and err.startswith("error:")


class TestCliOutputModes:
    def test_json_is_byte_stable(self, capsys):
        code1, out1, _ = run_cli(capsys, "game", example("F.cox"), "--json")
        code2, out2, _ = run_cli(capsys, "game", example("F.cox"), "--json")
        assert code1 == code2 == 0 and out1 == out2
        payload = json.loads(out1)
        assert len(payload["models"]) == 4 and len(payload["crossings"]) == 3
        assert payload["ends"][0]["kind"] == "Fibration"

    def test_json_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "discrepancy", example("kawamata.job"), "--json")
        assert code == 0 and json.loads(out)["discrepancy"] == "1/3"

    def test_json_wellform(self, capsys):
        code, out, _ = run_cli(capsys, "wellform", example("f2.cox"), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["presentation"]["weights"] == [
            [1, 1, 1, 0, -2],
            [0, 0, 0, 1, 1],
        ]
        assert payload["verified"] is True
        assert payload["already_well_formed"] is False

    def test_game_dot(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run_cli(capsys, "game", example("F.cox"), "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph game") and "AntiFlip" in text

    def test_fan_dot(self, capsys, tmp_path):
        dot = tmp_path / "f.dot"
        code, _, _ = run_cli(capsys, "cox2fan", example("F3.cox"), "--dot", str(dot))
        assert code == 0 and dot.read_text().startswith("graph fan")


class TestEntryPoints:
    def test_module_invocation(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        proc = subprocess.run(
            [sys.executable, "-m", "coxforge.cli", "wps", "6", "10", "15"],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        )
        assert proc.returncode == 0
        assert "1 1 1" in proc.stdout

    def test_closed_stdout_gives_no_traceback(self):
        # The child waits on stdin until the read end of its stdout is
        # closed, so its print always meets a broken pipe.
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        script = (
            "import sys\n"
            "sys.stdin.read()\n"
            "import coxforge.cli as cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "wellform", example("f2.cox")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=root,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        )
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_unverified_certificate_is_internal_error_under_optimize(self):
        # The certificate check must not be an ``assert``: ``python -O``
        # would strip it and print an unverified certificate.
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        script = (
            "import sys\n"
            "import coxforge.cli as cli\n"
            "cli.verify_certificate = lambda *args: False\n"
            "sys.exit(cli.main(['wellform', sys.argv[1]]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, example("f2.cox")],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("internal error:")

    def test_package_has_no_assert_statements(self):
        # ``python -O`` strips ``assert``; invariant checks must raise instead.
        package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "coxforge")
        found = []
        for dirpath, _, names in os.walk(package):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        tree = ast.parse(fh.read(), filename=path)
                    found += [
                        f"{name}:{node.lineno}"
                        for node in ast.walk(tree)
                        if isinstance(node, ast.Assert)
                    ]
        assert found == []

    def test_package_reads_no_environment(self):
        # Every setting is an argument or a CLI flag, never an environment knob.
        package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "coxforge")
        knobs = {"environ", "getenv"}
        found = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in knobs
                or isinstance(node, ast.Name) and node.id in knobs
                or isinstance(node, ast.alias) and node.name in knobs
            ]
        assert found == []

    def test_only_intlattice_runs_smith_forms(self):
        # Other modules read Smith invariants through ``intlattice``'s
        # ``_SmithForm`` and ranks through its ``rank``; only ``intlattice``
        # runs the kernels behind them or touches the Smith form it keeps on
        # each matrix.  The package ``__init__`` only re-exports names.
        package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "coxforge")
        memo = "_smith_form"  # the attribute ``_SmithForm.of`` keeps on a matrix
        smith = {"smith", "smith_transforms", "smith_diagonal", memo}
        found = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py") or name in ("intlattice.py", "_kernels.py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in smith
                or isinstance(node, ast.Attribute) and node.attr in smith
                or isinstance(node, ast.Constant) and node.value == memo
                or isinstance(node, ast.Attribute) and node.attr == "rank"
                and isinstance(node.value, ast.Name) and node.value.id == "_kernels"
                or isinstance(node, ast.ImportFrom) and name != "__init__.py"
                and any(alias.name in smith for alias in node.names)
                or isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_kernels")
                and any(alias.name == "rank" for alias in node.names)
            ]
        assert found == []


# ---------------------------------------------------------------------------
# fuzz: seeded random small inputs through every verb


def fuzz_matrix(rng):
    r, n = rng.randint(1, 3), rng.randint(1, 5)
    rows = [" ".join(str(rng.randint(-4, 4)) for _ in range(n)) for _ in range(r)]
    return "\n".join([f"{r} {n}"] + rows) + "\n"


def fuzz_bundle(rng):
    """A small weighted-bundle presentation, with its base and fiber sizes."""
    nb, nf = rng.randint(2, 3), rng.randint(2, 4)
    cols = [(1, 0)] * nb + [(0, 1)] + [
        (-rng.randint(0, 3), rng.randint(1, 3)) for _ in range(nf - 1)
    ]
    comps = [list(range(nb)), list(range(nb, nb + nf))]
    return presentation_text(cols, comps, rng.random() < 0.5), nb, nf


def fuzz_presentation(rng):
    """Weighted-bundle shape two times in five, otherwise any small data."""
    if rng.random() < 0.4:
        return fuzz_bundle(rng)[0]
    r = rng.randint(1, 3)
    n = rng.randint(r, 6)
    cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(n)]
    comps = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
    return presentation_text(cols, comps, rng.random() < 0.7)


def presentation_text(cols, comps, stacky):
    names = [f"v{j}" for j in range(len(cols))]
    lines = [f"rank {len(cols[0])}", "vars " + " ".join(names)]
    lines += [" ".join(str(c[i]) for c in cols) for i in range(len(cols[0]))]
    lines.append("irrelevant " + "".join(
        "(" + ",".join(names[j] for j in sorted(set(c))) + ")" for c in comps))
    if stacky:
        lines.append("stacky true")
    return "\n".join(lines) + "\n"


def fuzz_fan(rng):
    """The fan of a small bundle, or random rays and cones."""
    if rng.random() < 0.5:
        nb, nf = rng.randint(2, 3), rng.randint(2, 3)
        omega = [0] + [rng.randint(0, 2) for _ in range(nf - 1)]
        p = parse_presentation(
            f"rank 2\nvars {' '.join(f'v{j}' for j in range(nb + nf))}\n"
            + " ".join(["1"] * nb + [str(-w) for w in omega]) + "\n"
            + " ".join(["0"] * nb + ["1"] * nf) + "\n"
            + "irrelevant (" + ",".join(f"v{j}" for j in range(nb)) + ")("
            + ",".join(f"v{j}" for j in range(nb, nb + nf)) + ")\n"
        )
        return serialize_fan(fan_from_presentation(p))
    dim, k = rng.randint(2, 3), rng.randint(3, 6)
    rays = [" ".join(str(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(k)]
    cones = [" ".join(str(i + 1) for i in sorted(rng.sample(range(k), dim)))
             for _ in range(rng.randint(1, 4))]
    return "\n".join([f"dim {dim}", f"rays {k}"] + rays + [f"cones {len(cones)}"]
                     + cones) + "\n"


def fuzz_job(rng):
    """The documented job with one field redrawn."""
    lines = read_example(rng.choice(["kawamata.job", "kawamata-solve.job"])).splitlines()
    i = rng.randrange(len(lines))
    key = lines[i].split()[0] if lines[i].split() else ""
    values = {
        "center": lambda: f"center {rng.randint(0, 3)} {rng.randint(0, 3)}",
        "k": lambda: f"k {rng.randint(0, 3)}",
        "fiber": lambda: "fiber " + " ".join(str(rng.randint(0, 3)) for _ in range(5)),
        "b": lambda: "b " + " ".join(rng.choice(["?", "0", "1", "2", "-1"]) for _ in range(5)),
        "target": lambda: f"target {rng.randint(-2, 2)}/{rng.randint(1, 3)}",
        "equation": lambda: "equation deg 1 1 order " + str(rng.randint(0, 3)),
    }
    if key in values:
        lines[i] = values[key]()
    return "\n".join(lines + [f"bound {rng.randint(1, 40)}"]) + "\n"


def fuzz_argv(rng, verb, write):
    """One random command line for ``verb``; ``write`` stores an input file."""
    pres = lambda: write(fuzz_presentation(rng))
    ints = lambda k, lo, hi: [str(rng.randint(lo, hi)) for _ in range(k)]
    if verb == "standardize":
        return [verb, write(fuzz_matrix(rng))]
    if verb in ("wellform", "gale", "cox2fan", "chambers", "charts", "game"):
        return [verb, pres()]
    if verb == "wps":
        return [verb] + ints(rng.randint(1, 4), -1, 12)
    if verb == "fan2cox":
        return [verb, write(fuzz_fan(rng))]
    if verb == "subdivide":
        return [verb, write(fuzz_fan(rng))] + ints(rng.randint(2, 3), -2, 2)
    if verb == "gens":
        return [verb, pres()] + ints(2, -2, 3) + ["--bound", str(rng.randint(1, 3))]
    if verb == "blowup":
        text, nb, nf = fuzz_bundle(rng)
        k = rng.randrange(nf)
        return [verb, write(text), "--center", f"{rng.randrange(nb)},{k}",
                "--k", str(k if rng.random() < 0.8 else rng.randrange(nf)),
                "--b", ",".join(ints(nf if rng.random() < 0.8 else nf + 1, 0, 4))]
    if verb == "discrepancy":
        return [verb, write(fuzz_job(rng))]
    return [verb, pres(), pres()]  # equiv


VERBS = ("standardize", "wellform", "wps", "gale", "fan2cox", "cox2fan", "subdivide",
         "charts", "chambers", "game", "gens", "blowup", "discrepancy", "equiv")


class TestCliFuzz:
    def test_every_verb_exits_cleanly(self, capsys, tmp_path):
        rng = random.Random(2013)
        files = itertools.count()

        def write(text):
            path = tmp_path / f"in{next(files)}"
            path.write_text(text)
            return str(path)

        codes = {verb: [] for verb in VERBS}
        start = time.perf_counter()
        for _ in range(22):
            for verb in VERBS:
                argv = fuzz_argv(rng, verb, write)
                if rng.random() < 0.5:
                    argv.append("--json")
                t0 = time.perf_counter()
                code = main(argv)
                elapsed = time.perf_counter() - t0
                out, err = capsys.readouterr()
                assert code in (0, 2), (argv, err)
                assert elapsed < 2.0, argv
                assert "Traceback" not in err, (argv, err)
                assert (out != "") == (code == 0), (argv, err)
                codes[verb].append(code)
        assert time.perf_counter() - start < 10.0
        assert all(0 in c for c in codes.values()), codes
