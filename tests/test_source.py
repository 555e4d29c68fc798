import ast
import importlib
import importlib.util
import os
import subprocess
import symtable
import sys
import textwrap
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


def _global_loads(table) -> set[str]:
    """The names loaded in `table`'s scope or a scope nested in it that are
    not bound in their enclosing function: a parameter, an assignment, a
    loop or comprehension target binds a name there, and its loads read
    that local, not the module's name."""
    found = {sym.get_name() for sym in table.get_symbols()
             if sym.is_referenced() and sym.is_global()}
    for child in table.get_children():
        found |= _global_loads(child)
    return found


def _referenced(node, strings=False) -> set[str]:
    """Every name `node` reads: bare names loaded where no enclosing
    function binds them, attributes and imported names, and with `strings`
    also string constants (a patch table names its targets that way)."""
    found = _global_loads(symtable.symtable(ast.unparse(node), "<ast>", "exec"))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _attributes(node, strings=False) -> set[str]:
    """Every attribute name `node` reads, the only way to reach a method,
    and with `strings` also string constants (getattr's way)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found.add(sub.attr)
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


def _harness_reads(read=_referenced) -> set[str]:
    """Every name read(node, strings=True) finds in a non-test perfbench/
    module (the benchmark harness)."""
    used = set()
    for path in sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= read(ast.parse(path.read_text(), filename=str(path)), strings=True)
    return used


def _unread(select, trees, used):
    """`module.name` of each top-level definition in trees, (path, tree)
    pairs, that select(name, node) picks and that nothing reads outside its
    own definition: no other module of trees and none of the names in used
    (for the package, those the benchmark harness reads)."""
    picked = []
    used = set(used)
    for path, tree in trees:
        for node in tree.body:
            name = _defined(node)
            if name is not None and select(name, node):
                picked.append((f"{path.stem}.{name}", name))
                used |= _referenced(node) - {name}
            else:
                used |= _referenced(node)
    return [qualified for qualified, name in picked if name not in used]


def _unread_methods():
    """`module.Class.name` of each public method or property of a top-level
    class under src/voltplan that nothing reads as an attribute outside its
    own body: no other part of the package, its own class included, and no
    non-test perfbench/ module."""
    picked = []
    used = _harness_reads(_attributes)
    for path, tree in _trees():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                used |= _attributes(node)
                continue
            for part in [*node.decorator_list, *node.bases, *node.keywords, *node.body]:
                if isinstance(part, ast.FunctionDef) and not part.name.startswith("_"):
                    picked.append((f"{path.stem}.{node.name}.{part.name}", part.name))
                    used |= _attributes(part) - {part.name}
                else:
                    used |= _attributes(part)
    return [qualified for qualified, name in picked if name not in used]


def _public_def(name, node):
    return isinstance(node, _DEFS) and not name.startswith("_")


def test_every_top_level_name_has_a_user():
    """Each top-level def, class or constant under src/voltplan, public or
    private (dunders aside), is read by the package outside its own
    definition, exported by __init__, or read by the benchmark harness:
    what only the tests need lives in the tests, and a helper whose last
    caller went is deleted with it."""
    unread = _unread(lambda name, node: not name.startswith("__"), _trees(), _harness_reads())
    assert unread == []


def test_a_local_of_the_same_name_is_no_user():
    """A parameter, an assignment, a loop or comprehension target named
    like a top-level def binds a local: its loads read the local, so the
    unused def is still reported."""
    source = textwrap.dedent("""
        def unused():
            return 0

        def shadows(unused, values):
            total = unused
            for unused in values:
                total += unused
            unused = [unused for unused in values]
            return total, unused, lambda unused: unused

        RESULT = shadows(1, [2])
    """)
    trees = [(Path("synthetic.py"), ast.parse(source))]
    assert _unread(_public_def, trees, ()) == ["synthetic.unused"]


def test_every_public_method_has_a_user():
    """Each public method or property of a class under src/voltplan (dunders
    aside) is read by the package outside its own body or by the benchmark
    harness: a method only the tests call lives in the tests."""
    assert _unread_methods() == []


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


# names perfbench/tracer.py patches where no caller looks them up, each with
# the ROADMAP item that mends its span or counter
TRACER_BLIND = {
    "shifters.num_ls": "item 9: the whitespace model reads _whitespace, not num_ls",
    "voltage.solve_min_cost_circulation": "item 19: every voltage solve runs through "
    "flow.ResidualNetwork",
    "voltage.residual_shortest_paths": "item 19: every voltage solve runs through "
    "flow.ResidualNetwork",
}


def _call_sites() -> set[tuple[str, str]]:
    """(module, name) per call under src/voltplan that looks name up where
    a patch of module.name reaches it: a bare call in that module, or
    module.name(...) in any module."""
    found = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                found.add((path.stem, func.id))
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                found.add((func.value.id, func.attr))
    return found


def test_every_tracer_patch_has_a_call_site():
    """Each (module, name) perfbench/tracer.py patches is called through
    that module somewhere under src/voltplan, so its span or counter sees
    the calls; the blind ones are listed with the item that mends them."""
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = {
        (module.__name__.rpartition(".")[2], name)
        for module, name, _wrapper in tracer.Tracer()._patches()
    }
    blind = {f"{module}.{name}" for module, name in patched - _call_sites()}
    assert sorted(blind - TRACER_BLIND.keys()) == []
    assert sorted(TRACER_BLIND.keys() - blind) == []
