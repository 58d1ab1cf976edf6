"""What a CLI process loads, the lazy package namespace and the parser.

``import coxforge`` loads only ``errors``; each public name imports its
submodule on first use.  The CLI keeps the layers most verbs use at module
level and imports the others in the verbs that need them, and it builds
only the parser of the verb it runs.  The parser registering every verb
stays in the code as the oracle for the one-verb parser.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import coxforge
from coxforge import cli, errors

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLES = os.path.join(ROOT, "examples")
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}

MATRIX = "2 5\n3 3 3 0 -2\n1 1 1 2 0\n"
BUNDLE_FAN = (  # the fan of a well-formed F2 bundle
    "dim 3\nrays 5\n1 0 0\n0 1 0\n1 1 2\n-1 -1 -1\n1 1 1\ncones 6\n"
    "2 3 5\n2 3 4\n1 3 5\n1 3 4\n1 2 5\n1 2 4\n"
)


def example(name):
    return os.path.join(EXAMPLES, name)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-inputs")
    (tmp / "f2.mat").write_text(MATRIX)
    (tmp / "bundle.fan").write_text(BUNDLE_FAN)
    return {"mat": str(tmp / "f2.mat"), "fan": str(tmp / "bundle.fan")}


def valid_args(verb, files):
    """Arguments of one successful call of ``verb``."""
    return {
        "standardize": [files["mat"]],
        "wellform": [example("f2.cox")],
        "wps": ["2", "4", "6", "3"],
        "gale": [example("F.cox")],
        "fan2cox": [files["fan"]],
        "cox2fan": [example("F3.cox")],
        "subdivide": [files["fan"], "1", "1", "1"],
        "charts": [example("F3.cox")],
        "chambers": [example("F.cox")],
        "game": [example("F.cox")],
        "gens": [example("calTv.cox"), "1", "1"],
        "blowup": [example("F3.cox"), "--center", "1,2", "--k", "2",
                   "--b", "4,2,3,1,1", "--newvar", "w"],
        "discrepancy": [example("kawamata-solve.job")],
        "equiv": [example("calT.cox"), example("calT.cox")],
    }[verb]


# ---------------------------------------------------------------------------
# per-verb loading, in fresh interpreters

PACKAGE = {"coxforge", "coxforge.errors"}
CLI = {"coxforge._frozen", "coxforge._kernels", "coxforge.intlattice",
       "coxforge.coxpres", "coxforge.formats", "coxforge.cli"}
VERB_LOADS = {
    "standardize": set(),
    "wellform": set(),
    "wps": set(),
    "equiv": set(),
    "gale": {"coxforge.galefan"},
    "fan2cox": {"coxforge.galefan"},
    "cox2fan": {"coxforge.galefan"},
    "subdivide": {"coxforge.galefan"},
    "chambers": {"coxforge.vgit"},
    "game": {"coxforge.vgit"},
    "gens": {"coxforge.vgit"},
    "blowup": {"coxforge.blowup", "coxforge.galefan"},
    "discrepancy": {"coxforge.blowup", "coxforge.galefan"},
    "charts": {"coxforge.blowup", "coxforge.galefan", "coxforge.singular"},
}
NO_FRACTIONS = ("wps", "equiv", "game")

# Prints, as JSON, the package modules, `fractions`, `dataclasses` and
# `inspect` that each step loads: the interpreter start with the child's own
# imports, `import coxforge`, `import coxforge.cli`, then `main(argv)` with
# its output swallowed.
CHILD = """
import contextlib, io, json, sys
WATCHED = ("coxforge", "fractions", "dataclasses", "inspect")
def watched():
    return {m for m in sys.modules if m.split(".")[0] in WATCHED}
steps, seen = [], set()
def step():
    steps.append(sorted(watched() - seen))
    seen.update(steps[-1])
step()
import coxforge
step()
import coxforge.cli
step()
with contextlib.redirect_stdout(io.StringIO()):
    code = coxforge.cli.main(sys.argv[1:])
step()
print(json.dumps([code, *steps]))
"""


def test_verb_table_is_the_cli_verbs():
    assert set(VERB_LOADS) == set(cli._VERBS)


@pytest.mark.parametrize("verb", sorted(VERB_LOADS))
def test_each_verb_loads_only_its_modules(verb, files):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, verb, *valid_args(verb, files), "--json"],
        capture_output=True, text=True, cwd=ROOT, env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, start, package, cli_import, run = json.loads(proc.stdout)
    assert code == 0
    assert start == []
    # Value classes are built without `dataclasses`, which loads `inspect`.
    assert not {"dataclasses", "inspect"} & {*package, *cli_import, *run}
    assert set(package) == PACKAGE
    assert set(cli_import) == CLI
    assert set(run) - {"fractions"} == VERB_LOADS[verb]
    if verb in NO_FRACTIONS:
        assert "fractions" not in run


# ---------------------------------------------------------------------------
# the lazy package namespace

ERROR_NAMES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, Exception)
    and value.__module__ == errors.__name__
}


def test_lazy_table_and_all_hold_the_same_names():
    assert set(coxforge._LAZY) | ERROR_NAMES | {"__version__"} == set(coxforge.__all__)
    assert not set(coxforge._LAZY) & ERROR_NAMES
    assert len(coxforge.__all__) == len(set(coxforge.__all__))


@pytest.mark.parametrize("name", sorted(set(coxforge.__all__) - {"__version__"}))
def test_public_name_is_its_submodules_object(name):
    owner = importlib.import_module(f"coxforge.{coxforge._LAZY.get(name, 'errors')}")
    assert getattr(coxforge, name) is getattr(owner, name)
    assert vars(coxforge)[name] is getattr(owner, name)  # kept for later lookups


def test_dir_covers_all():
    assert set(coxforge.__all__) <= set(dir(coxforge))


def test_unknown_name_raises_the_standard_attribute_error():
    plain = types.ModuleType("coxforge")
    with pytest.raises(AttributeError) as expected:
        plain.no_such_name
    with pytest.raises(AttributeError) as got:
        coxforge.no_such_name
    assert str(got.value) == str(expected.value)
    assert not hasattr(coxforge, "no_such_name")


def test_star_import_in_a_fresh_interpreter():
    script = (
        "import json\n"
        "import coxforge\n"
        "from coxforge import *\n"
        "print(json.dumps([n for n in coxforge.__all__ if n not in globals()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=ROOT, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_submodules_stay_importable_by_name():
    from coxforge import _kernels, vgit  # submodules, not table entries

    assert vgit.__name__ == "coxforge.vgit" and _kernels.BACKEND


# ---------------------------------------------------------------------------
# the one-verb parser against the parser of every verb


def registered(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def test_a_verb_registers_only_itself():
    for verb in cli._VERBS:
        assert registered(cli._build_parser([verb, "--json"])) == {verb}
    for argv in ([], ["-h"], ["--version"], ["bogus"], ["--json", "wps"]):
        assert registered(cli._build_parser(argv)) == set(cli._VERBS)


def argv_table(files):
    table = [[], ["--version"], ["-h"], ["bogus"], ["bogus", "--json"],
             ["--json", "wps", "2", "4"], ["wp", "2"]]
    bad_int = {
        "wps": ["2", "x"],
        "subdivide": [files["fan"], "1", "x"],
        "gens": [example("calTv.cox"), "x", "1"],
        "game": [example("F.cox"), "--bound", "x"],
        "blowup": [example("F3.cox"), "--center", "1,2", "--k", "x", "--b", "1"],
    }
    for verb in cli._VERBS:
        args = valid_args(verb, files)
        table += [
            [verb, *args, "--json"],
            [verb, "-h"],
            [verb],
            [verb, *args, "--bogus"],
            [verb, *args, "--jso"],
            [verb, *args, "--version"],
        ]
        if verb in bad_int:
            table.append([verb, *bad_int[verb]])
    return table


def test_one_verb_parser_matches_the_full_parser(files, capsys, monkeypatch):
    results = []
    for argv in argv_table(files):
        code = cli.main(list(argv))
        results.append((argv, code, *capsys.readouterr()))
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: full([]))
    for argv, code, out, err in results:
        assert (cli.main(list(argv)), *capsys.readouterr()) == (code, out, err), argv
    codes = {code for _, code, _, _ in results}
    assert codes == {0, 2}
