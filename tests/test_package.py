import ast
from pathlib import Path

import dpsla


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks `from dpsla import *`
    missing = [name for name in dpsla.__all__ if not hasattr(dpsla, name)]
    assert missing == []
    assert len(set(dpsla.__all__)) == len(dpsla.__all__)


# Settable values in the package: parameter defaults plus dataclass fields
# written with a value. An option is a cost every caller and reader carries, so
# a change that adds one raises this pin and says why.
SETTABLE_VALUES_PIN = 73


def _settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_settable_values_do_not_grow():
    package = Path(dpsla.__file__).parent
    count = sum(_settable_values(p.read_text(encoding="utf-8"))
                for p in sorted(package.glob("*.py")))
    assert count <= SETTABLE_VALUES_PIN, f"{count} settable values, pinned at {SETTABLE_VALUES_PIN}"


# -- leftovers: imports and private names that nothing reads ----------------------


def _module_trees() -> dict:
    package = Path(dpsla.__file__).parent
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}


def _read_names(tree) -> set:
    """Names a module reads: loaded names, attribute names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_import_is_used():
    unused = []
    for module, tree in _module_trees().items():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set()  # a re-export counts as a use
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [f"{module}: {a.asname or a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in loaded | exported]
    assert unused == []


def test_every_private_module_name_is_read():
    trees = _module_trees()
    read = set().union(*map(_read_names, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


# -- numpy's private modules ------------------------------------------------------

# `numpy._core` is private, but it holds the only entry points to the clip ufunc
# and to the C `count_nonzero` that skip numpy's Python wrappers. The package
# binds them once, at module level, under these names and nowhere else reaches
# into it; `TestNumpyEntryPoints` in test_problem.py pins their bits.
NUMPY_CORE_NAMES = {"_CLIP", "_count"}


def _numpy_core_reaches(tree) -> list:
    """Lines that reach `numpy._core` other than in a module-level assignment
    to one of NUMPY_CORE_NAMES."""
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and {getattr(t, "id", None)
                                             for t in node.targets} <= NUMPY_CORE_NAMES:
            allowed.update(map(id, ast.walk(node.value)))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_core":
            reaches = id(node) not in allowed
        elif isinstance(node, ast.Import):
            reaches = any(a.name.startswith("numpy._core") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            reaches = module.startswith("numpy._core") or (
                module == "numpy" and any(a.name == "_core" for a in node.names))
        else:
            reaches = False
        if reaches:
            lines.append(node.lineno)
    return sorted(lines)


def test_numpy_core_reached_only_by_the_pinned_names():
    reaches = [f"{module}:{line}" for module, tree in _module_trees().items()
               for line in _numpy_core_reaches(tree)]
    assert reaches == []
    # the guard itself: a call, an import or another name is a reach
    planted = ("_CLIP = np._core.umath.clip\n"
               "def f(x):\n    return np._core.umath.minimum(x, 0)\n"
               "from numpy._core import umath\n"
               "_MIN = np._core.umath.minimum\n")
    assert _numpy_core_reaches(ast.parse(planted)) == [3, 4, 5]
