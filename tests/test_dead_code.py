"""Every library name has a caller outside the tests, and every import is used.

The callers are the program's own files: src/, scripts/ and bench/.
Bench's own `test_*.py` files are excepted, and so is
`bench/oracles.py`: it imports nothing from `povmcert`, and an
attribute read on the name `oracles` is a call into it, not into the
library.  Six checks, all by name:

- a public module-level function or class under src/povmcert must be
  exported in `povmcert.__all__`, be referenced by those callers
  outside its own definition, or be a `[project.scripts]` entry point;
- a private (underscore) module-level helper must be referenced by
  them outside its own definition;
- a method or property of a src/ class (dunders excepted) must be read
  as an attribute by them outside its own definition;
- an `__all__` entry must be referenced by them outside `__init__.py`
  and its own definition, unless it is an entry point;
- a module-level constant under src/povmcert (dunders excepted) must be
  referenced by them outside its own assignment;
- a name a file under src/, scripts/ or tests/ imports must be read in
  that file, except the re-exports of `__init__.py` and `__future__`
  imports.

A name that only the tests call is dead library code: the test that
needs it keeps its own copy as a local reference.  Imports do not count
as references.  The checks go by name, not by type, so they cannot see
a method whose name another class or module also uses: a leftover
`to_json` or `from_dict` on one class passes as long as any other
`to_json` or `from_dict` is called.
"""
import ast
import re
from pathlib import Path

import povmcert

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "povmcert"
MODULES = sorted(PACKAGE.glob("*.py"))
ORACLES = "oracles"
CALLERS = (
    MODULES
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted(
        p
        for p in (ROOT / "bench").glob("*.py")
        if not p.name.startswith("test_") and p.stem != ORACLES
    )
)


def _entry_points() -> set[str]:
    """Function names of the `[project.scripts]` table in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r':(\w+)"', section.group(1))) if section else set()


def _references(attributes_only: bool = False) -> list[tuple[Path, str, int]]:
    """(file, name, line) for every name loaded or attribute read by the callers."""
    refs = []
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not attributes_only:
                refs.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == ORACLES
            ):
                refs.append((path, node.attr, node.lineno))
    return refs


def _used(name: str, path: Path, node: ast.AST, refs) -> bool:
    """Whether `name` is referenced anywhere but inside `node` of `path`."""
    return any(
        ref_name == name
        and not (ref_path == path and node.lineno <= line <= node.end_lineno)
        for ref_path, ref_name, line in refs
    )


def _uncalled(skip) -> list[str]:
    """Module-level functions and classes, other than `skip(name)` ones,
    that no caller references outside their definition."""
    refs = _references()
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or skip(node.name):
                continue
            if not _used(node.name, path, node, refs):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    allowed = set(povmcert.__all__) | _entry_points()
    unused = _uncalled(lambda name: name.startswith("_") or name in allowed)
    assert not unused, "public names only the tests call: " + ", ".join(unused)


def test_every_private_helper_has_a_caller():
    unused = _uncalled(lambda name: not name.startswith("_"))
    assert not unused, "private helpers nothing calls: " + ", ".join(unused)


def test_every_method_has_a_caller_outside_tests():
    refs = _references(attributes_only=True)
    unused = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if not _used(node.name, path, node, refs):
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert not unused, "methods only the tests call: " + ", ".join(unused)


def test_every_export_has_a_caller_outside_tests():
    definitions = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = (path, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        definitions[target.id] = (path, node)
    init = PACKAGE / "__init__.py"
    refs = [r for r in _references() if r[0] != init]
    entry_points = _entry_points()
    unused = [
        name
        for name in povmcert.__all__
        if name not in entry_points and not _used(name, *definitions[name], refs)
    ]
    assert not unused, "exports only the tests call: " + ", ".join(unused)


def test_every_module_constant_has_a_caller():
    refs = _references()
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not (name.startswith("__") and name.endswith("__")) and not _used(name, path, node, refs):
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "module constants nothing reads: " + ", ".join(unused)


def test_every_import_is_used():
    files = [p for p in MODULES if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in names if name not in read]
    assert not unused, "imports nothing reads: " + ", ".join(unused)
