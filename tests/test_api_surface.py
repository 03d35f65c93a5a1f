"""The package carries no API that only tests call, and its numerics raise
no input errors.

Every public top-level function and class in src/taskmix/*.py, and every
public method and property of those classes, must be referenced somewhere
other than its own definition: by code in a package
module (not __init__.py, whose re-exports call nothing), by code in the
benchmark harness under perfbench/, or as a console-script entry point in
pyproject.toml. The names of traced functions in perfbench's strings (such
as "nn.backward") do not count: the tracer skips a name that is absent.

Input is checked once, where it enters (see errors.py), so the numeric
modules never name ConfigError or DataError, not even in an import.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taskmix"


def used_names(tree):
    """(identifier, line) for every name and attribute the code uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def public_definitions(tree):
    """(label, node) of every public top-level function and class, and of
    every public method or property of those classes (dataclass fields are
    not definitions here)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    uses = {name: list(used_names(tree)) for name, tree in modules.items()}
    outside = {
        word
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for word, _ in used_names(ast.parse(path.read_text()))
    }
    outside |= set(re.findall(r'"taskmix\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))

    uncalled = []
    for module, tree in modules.items():
        for label, node in public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            referenced = node.name in outside or any(
                word == node.name and not (other == module and line in own)
                for other, words in uses.items()
                for word, line in words
            )
            if not referenced:
                uncalled.append(f"{module}: {label}")
    assert uncalled == [], "public definitions nothing outside the tests uses"


NUMERICS = ("nn", "optim", "mixing", "metrics", "rng")
INPUT_ERRORS = ("ConfigError", "DataError")


def test_numerics_name_no_input_error():
    named = []
    for module in NUMERICS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        words = {word for word, _ in used_names(tree)}
        words |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for a in node.names}
        named += [f"{module}: {error}" for error in INPUT_ERRORS if error in words]
    assert named == [], "numeric modules that name an input error"
