import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "voltplan"


def _trees():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def test_no_assert_statements():
    """Invariants are explicit checks: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_only_the_standard_library():
    """The package has no runtime dependency: every absolute import names a
    standard-library module."""
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, voltplan; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


def _referenced(node, strings=False) -> set[str]:
    """Every name `node` reads: bare names, attributes and imported names,
    and with `strings` also string constants (a patch table names its
    targets that way)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_every_public_name_has_a_user():
    """Each public top-level def or class under src/voltplan is used by the
    package itself (outside its own body), exported by __init__, or used by
    the benchmark harness; what only the tests need lives in the tests."""
    public = []
    used = set()
    for path, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append(f"{path.stem}.{node.name}")
                used |= _referenced(node) - {node.name}
            else:
                used |= _referenced(node)
    for path in sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= _referenced(ast.parse(path.read_text(), filename=str(path)), strings=True)
    assert [name for name in public if name.rpartition(".")[2] not in used] == []
