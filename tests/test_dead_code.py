"""Every library name has a caller outside the tests.

A public module-level function or class under src/povmcert must be
exported in `povmcert.__all__`, be referenced somewhere in src/ or
scripts/ outside its own definition, or be a `[project.scripts]` entry
point.  A function that only the tests call is dead library code: the
test that needs it keeps its own copy as a local reference.  A private
(underscore) module-level helper must be referenced in src/ or
scripts/ outside its own definition.
"""
import ast
import re
from pathlib import Path

import povmcert

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "povmcert"


def _entry_points() -> set[str]:
    """Function names of the `[project.scripts]` table in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r':(\w+)"', section.group(1))) if section else set()


def _references(paths) -> list[tuple[Path, str, int]]:
    """(file, name, line) for every name loaded or attribute read in `paths`."""
    refs = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                refs.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.attr, node.lineno))
    return refs


def _uncalled(skip) -> list[str]:
    """Module-level functions and classes, other than `skip(name)` ones,
    that nothing in src/ or scripts/ references outside their definition."""
    modules = sorted(PACKAGE.glob("*.py"))
    refs = _references(modules + sorted((ROOT / "scripts").glob("*.py")))
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or skip(node.name):
                continue
            used = any(
                name == node.name
                and not (ref_path == path and node.lineno <= line <= node.end_lineno)
                for ref_path, name, line in refs
            )
            if not used:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    allowed = set(povmcert.__all__) | _entry_points()
    unused = _uncalled(lambda name: name.startswith("_") or name in allowed)
    assert not unused, "public names only the tests call: " + ", ".join(unused)


def test_every_private_helper_has_a_caller():
    unused = _uncalled(lambda name: not name.startswith("_"))
    assert not unused, "private helpers nothing calls: " + ", ".join(unused)
