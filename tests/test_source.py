import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import voltplan

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


def test_bench_import_leaves_the_annealer_unloaded():
    """The exports resolve lazily: the input parsers load without the
    annealer or the flow solvers, and each name in __all__ is its
    submodule's object."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys, voltplan, voltplan.bench\n"
        "print(sorted(n for n in ('anneal', 'floorplan', 'shifters', 'pipeline',"
        " 'voltage', 'flow', '_speedups_py') if 'voltplan.' + n in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
    assert set(dir(voltplan)) >= set(voltplan.__all__)
    for name in voltplan.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"voltplan.{voltplan._EXPORTS[name]}")
        assert getattr(voltplan, name) is getattr(module, name)
    assert set(voltplan.__all__) == {*voltplan._EXPORTS, "__version__"}


def test_no_export_shadows_a_submodule():
    """A package attribute that names a submodule must be that submodule:
    otherwise `import voltplan.<name> as m` binds the export, and
    patching `m.f` reaches nothing."""
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and _defined(node) == "__all__"
    )
    assert sorted(set(exported) & {path.stem for path in SRC.glob("*.py")}) == []


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


_DEFS = (ast.FunctionDef, ast.ClassDef)


def _defined(node):
    """The name a top-level def, class or single-name assignment defines;
    None for any other statement."""
    if isinstance(node, _DEFS):
        return node.name
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return None
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def _unread(select):
    """`module.name` of each top-level definition under src/voltplan that
    select(name, node) picks and that nothing reads outside its own
    definition: no other part of the package and no non-test perfbench/
    module (the benchmark harness)."""
    picked = []
    used = set()
    for path, tree in _trees():
        for node in tree.body:
            name = _defined(node)
            if name is not None and select(name, node):
                picked.append((f"{path.stem}.{name}", name))
                used |= _referenced(node) - {name}
            else:
                used |= _referenced(node)
    for path in sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= _referenced(ast.parse(path.read_text(), filename=str(path)), strings=True)
    return [qualified for qualified, name in picked if name not in used]


def test_every_public_name_has_a_user():
    """Each public top-level def or class under src/voltplan is used by the
    package itself (outside its own body), exported by __init__, or used by
    the benchmark harness; what only the tests need lives in the tests."""
    assert _unread(lambda name, node: isinstance(node, _DEFS) and not name.startswith("_")) == []


def test_every_private_name_has_a_user():
    """Each private top-level def, class or constant under src/voltplan is
    read by the package outside its own definition or by the benchmark
    harness: a helper whose last caller went is deleted with it."""
    assert _unread(lambda name, node: name.startswith("_") and not name.startswith("__")) == []


# functions that may call themselves, each with why its depth stays small
RECURSION_ALLOWED = {
    "voltage._branch_and_bound.dfs": "one level per module, and the pipeline searches "
    "only floorplans of at most EXACT_LIMIT = 16 modules",
}


def _calls_itself(fn) -> bool:
    """Whether `fn` calls its own name, bare or as self.name."""
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Name) and func.id == fn.name:
                return True
            if (isinstance(func, ast.Attribute) and func.attr == fn.name
                    and isinstance(func.value, ast.Name) and func.value.id == "self"):
                return True
    return False


def _self_calls(path, node, prefix=""):
    """Qualified names of the functions under `node`, nested ones included,
    that call themselves."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                found.append(f"{path.stem}.{name}")
            found += _self_calls(path, child, f"{name}.")
        else:
            found += _self_calls(path, child, prefix)
    return found


def test_no_unbounded_recursion():
    """A function that calls itself is as deep as its input and ends in a
    RecursionError on large instances; only the allow-listed ones, whose
    depth is bounded, may."""
    found = [name for path, tree in _trees() for name in _self_calls(path, tree)]
    assert sorted(set(found) - RECURSION_ALLOWED.keys()) == []
    assert sorted(RECURSION_ALLOWED.keys() - set(found)) == []
