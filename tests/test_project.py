"""What pyproject.toml declares exists, and is all the package needs."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "come"


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    return tomllib.loads(PYPROJECT.read_text())["project"]


def test_every_script_entry_point_resolves_to_a_callable():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r}: {target} is not callable"


def _imported_top_level_modules(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _requirement_names(specs) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
            for spec in specs}


def test_runtime_dependencies_are_exactly_the_third_party_imports():
    imported = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        imported |= _imported_top_level_modules(path.read_text())
    third_party = imported - set(sys.stdlib_module_names) - {"come"}
    assert third_party == _requirement_names(_project()["dependencies"])


def test_dev_extras_are_exactly_the_third_party_test_imports():
    imported = set()
    for folder in (ROOT / "tests", ROOT / "perfbench" / "tests"):
        for path in sorted(folder.rglob("*.py")):
            imported |= _imported_top_level_modules(path.read_text())
    runtime = _requirement_names(_project()["dependencies"])
    third_party = imported - set(sys.stdlib_module_names) - runtime - {"come", "perfbench"}
    assert third_party == _requirement_names(_project()["optional-dependencies"]["dev"])


def test_only_the_container_module_knows_the_binary_layout():
    # one module packs bytes, so a second binary layout cannot return unnoticed
    knowing = sorted(path.name for path in PACKAGE.rglob("*.py")
                     if "struct" in _imported_top_level_modules(path.read_text())
                     or re.search(r"\bMAGIC\b", path.read_text()))
    assert knowing == ["container.py"]


def test_only_the_numerics_module_words_the_id_range_rule():
    # source ids and labels are range-checked by numerics.require_ids alone
    phrases = ("not an integer in [0", "out of range [0", "exceed configured", "is negative")
    wording = sorted(path.name for path in PACKAGE.rglob("*.py")
                     if any(phrase in path.read_text() for phrase in phrases))
    assert wording == ["numerics.py"]


def test_only_the_datagen_module_words_the_split_rule():
    # train/test indices are checked by datagen.check_splits alone, for the
    # in-memory bundle and the dataset sidecar alike
    phrases = ("repeats a sample index", "in both")
    wording = sorted(path.name for path in PACKAGE.rglob("*.py")
                     if any(phrase in path.read_text() for phrase in phrases))
    assert wording == ["datagen.py"]


def test_importing_every_module_loads_no_scipy():
    probe = (
        "import importlib, pkgutil, sys\n"
        "import come\n"
        "for info in pkgutil.walk_packages(come.__path__, 'come.'):\n"
        "    importlib.import_module(info.name)\n"
        "print(len([n for n in sys.modules if n.startswith('come.')]))\n"
        "print(' '.join(sorted(n for n in sys.modules if n.startswith('scipy'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    n_modules, scipy_modules = result.stdout.split("\n")[:2]
    assert int(n_modules) == len(list(PACKAGE.glob("[!_]*.py")))
    assert scipy_modules == ""


def test_a_failing_hypothesis_test_does_not_stop_the_run(pytester):
    # hypothesis reports a failure through libcst, whose import warns; under
    # this repo's own pytest settings the run must go on past the failure
    pytester.makepyfile(test_given="""
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        "test_given.py",
    )
    result.assert_outcomes(failed=1, passed=1)
