import ast
from pathlib import Path

import numpy as np
import pytest

import dpsla
from dpsla import Dgd, Dpsla, Graph, HalfSpace, NaivePolyak, StepsizeConfig, run
from dpsla.cli import AlgorithmConfig, OutputSection, ProblemConfig, RunConfig, RunSection
from dpsla.feasibility import InequalitySystem
from dpsla.problem import ObjectiveGroup, OracleResult, gen_triangle_demo


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks `from dpsla import *`
    missing = [name for name in dpsla.__all__ if not hasattr(dpsla, name)]
    assert missing == []
    assert len(set(dpsla.__all__)) == len(dpsla.__all__)


# Settable values in the package: parameter defaults plus dataclass fields
# written with a value. An option is a cost every caller and reader carries, so
# a change that adds one raises this pin and says why.
SETTABLE_VALUES_PIN = 64


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
# and to the C `count_nonzero` that skip numpy's Python wrappers. `numerics`
# binds them once, at module level, under these names, the other modules import
# them from there and nothing else reaches into it; `TestNumpyEntryPoints` in
# test_problem.py pins their bits.
NUMPY_CORE_NAMES = {"_CLIP", "_count"}
NUMPY_CORE_OWNER = "numerics.py"


def _numpy_core_reaches(tree, owner: bool) -> list:
    """Lines that reach `numpy._core`; in the `owner` module, other than in a
    module-level assignment to one of NUMPY_CORE_NAMES."""
    allowed = set()
    for node in tree.body if owner else ():
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
    trees = _module_trees()
    assert NUMPY_CORE_OWNER in trees
    reaches = [f"{module}:{line}" for module, tree in trees.items()
               for line in _numpy_core_reaches(tree, module == NUMPY_CORE_OWNER)]
    assert reaches == []
    # the guard itself: a call, an import or another name is a reach, and
    # outside the owner a pinned name's binding is one too
    planted = ast.parse("_CLIP = np._core.umath.clip\n"
                        "def f(x):\n    return np._core.umath.minimum(x, 0)\n"
                        "from numpy._core import umath\n"
                        "_MIN = np._core.umath.minimum\n")
    assert _numpy_core_reaches(planted, owner=True) == [3, 4, 5]
    assert _numpy_core_reaches(planted, owner=False) == [1, 3, 4, 5]


# -- start-up: no generated code --------------------------------------------------

# `@dataclass` compiles the methods it generates with `exec` on every import, and
# no `.pyc` caches them. With numpy loaded, importing the package's modules took
# 11.4 ms with 17 such classes, about 1 ms of it in importing `dataclasses`, and
# 2.5 ms without them (medians of 41 fresh interpreters each, 2-vCPU VM). The
# classes derive from `numerics.Record` instead.


def _dataclasses_imports(tree) -> list:
    """Lines that import `dataclasses`, in either form."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                     for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "dataclasses")]


def test_no_module_imports_dataclasses():
    imports = [f"{module}:{line}" for module, tree in _module_trees().items()
               for line in _dataclasses_imports(tree)]
    assert imports == []
    # the guard itself: both forms, aliased or not, count; a name that only
    # contains the word does not
    planted = ast.parse("from dataclasses import dataclass\n"
                        "import dataclasses as dc\n"
                        "import os, dataclasses\n"
                        "from .dataclasses import x\n"
                        "import my_dataclasses\n")
    assert _dataclasses_imports(planted) == [1, 2, 3]


# -- text files: "\n" line ends on every platform ----------------------------------

# Text mode translates "\n" to os.linesep unless `newline="\n"` is given, so on
# Windows a write without it gives CRLF where the goldens hold LF.


def _unpinned_text_writes(tree) -> list:
    """Lines of the `.write_text(` calls, and of the `open(` calls in a writing
    text mode, that do not pass `newline="\n"`."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "write_text":
            writes = True
        elif name == "open":  # the mode is open's second argument, Path.open's first
            at = 1 if isinstance(node.func, ast.Name) else 0
            modes = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0] if modes else ast.Constant("r")
            writes = not isinstance(mode, ast.Constant) or (
                "b" not in mode.value and any(c in mode.value for c in "wax+"))
        else:
            writes = False
        if writes and not any(k.arg == "newline" and isinstance(k.value, ast.Constant)
                              and k.value.value == "\n" for k in node.keywords):
            lines.append(node.lineno)
    return lines


def test_every_text_write_ends_lines_with_newline():
    unpinned = [f"{module}:{line}" for module, tree in _module_trees().items()
                for line in _unpinned_text_writes(tree)]
    assert unpinned == []
    # the guard itself: writing modes, positional or keyword, and write_text count;
    # reads and binary writes do not
    planted = ast.parse('open(p, "w", encoding="utf-8")\n'
                        'open(p, mode="a")\n'
                        'p.open("w")\n'
                        'p.write_text(s)\n'
                        'p.write_text(s, newline="\\r\\n")\n'
                        'open(p, "w", newline="\\n")\n'
                        'p.write_text(s, encoding="utf-8", newline="\\n")\n'
                        'open(p)\nopen(p, "r")\nopen(p, "wb")\np.open()\n')
    assert _unpinned_text_writes(planted) == [1, 2, 3, 4, 5]


# -- the immutable value classes ---------------------------------------------------

_ROW, _AGENTS, _M = np.array([1.0, -2.0]), np.arange(2), np.ones((2, 3, 2))

# (class, keywords of one instance); the last two hold arrays
VALUES = [
    (StepsizeConfig, {"gamma": 0.5, "alpha0": 0.05, "c_kind": "constant"}),
    (Dpsla, {"stepsize": StepsizeConfig(alpha0=0.05), "level_init": (-1.0, -2.0), "eta_cap": 64}),
    (Dgd, {"scale": 3.0}),
    (NaivePolyak, {"target": "oracle_fi_star"}),
    (Graph, {"n_agents": 3, "edges": [(0, 1), (1, 2)]}),
    (ProblemConfig, {"type": "triangle", "seed": 3}),
    (AlgorithmConfig, {"name": "dgd", "eta_cap": 8, "level_init": -1.0}),
    (RunSection, {"iterations": 5}),
    (OutputSection, {"directory": "out_x"}),
    (RunConfig, {"problem": ProblemConfig(seed=3), "run": RunSection(iterations=5)}),
    (HalfSpace, {"a": _ROW, "b": 1.5}),
    (ObjectiveGroup, {"agents": _AGENTS, "kind": "least_squares", "M": _M,
                      "MT": _M.transpose(0, 2, 1), "v": np.ones((2, 3))}),
]
PLAIN, ARRAYS = VALUES[:-2], VALUES[-2:]
NAMESPACE = {cls.__name__: cls for cls, _ in PLAIN}


def _ids(values) -> list:
    return [cls.__name__ for cls, _ in values]


@pytest.mark.parametrize("cls, kw", VALUES, ids=_ids(VALUES))
class TestValueClasses:
    def test_refuses_assignment_and_deletion(self, cls, kw):
        value = cls(**kw)
        for name in (*kw, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert cls(**kw) == value  # nothing changed

    def test_equal_from_equal_keywords(self, cls, kw):
        assert cls(**kw) == cls(**kw)
        assert hash(cls(**kw)) == hash(cls(**kw))


@pytest.mark.parametrize("cls, kw", ARRAYS, ids=_ids(ARRAYS))
class TestArrayFields:
    """An array field compares by its dtype, shape and bytes: bit for bit."""

    def test_equal_but_distinct_arrays(self, cls, kw):
        copied = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kw.items()}
        value, other = cls(**kw), cls(**copied)
        assert all(other._asdict()[k] is not v for k, v in value._asdict().items()
                   if isinstance(v, np.ndarray))
        assert value == other and hash(value) == hash(other)

    def test_one_changed_bit(self, cls, kw):
        for name, v in kw.items():
            if isinstance(v, np.ndarray):
                flipped = v.copy()
                flipped.view(np.uint64).flat[-1] ^= 1
                assert cls(**{**kw, name: flipped}) != cls(**kw), name


def _verdict():
    system = InequalitySystem(2)
    system.add_constraint(HalfSpace([1.0, 0.0], 1.0))
    return system.check_feasible()


def test_records_with_array_fields_compare_to_a_bool():
    # each pair holds equal but distinct arrays
    inst = gen_triangle_demo()
    optimum = inst.ensure_optimum()
    pairs = [(_verdict(), _verdict()),
             (optimum, OracleResult(**{**optimum._asdict(), "x_star": optimum.x_star.copy()})),
             (run(inst, Dpsla(), 60, seed=0), run(inst, Dpsla(), 60, seed=0))]
    for first, second in pairs:
        assert (first == second) is True and (first != second) is False
    assert (pairs[2][0] == run(inst, Dpsla(), 60, seed=0, x0="uniform")) is False


@pytest.mark.parametrize("cls, kw", PLAIN, ids=_ids(PLAIN))
def test_repr_evaluates_back(cls, kw):
    value = cls(**kw)
    assert repr(value).startswith(f"{cls.__name__}({next(iter(kw))}=")
    assert eval(repr(value), NAMESPACE) == value


@pytest.mark.parametrize("cls, kw, other", [
    (StepsizeConfig, {}, {"gamma_bar": 1.25}), (Dpsla, {}, {"eta_cap": 8}),
    (Dpsla, {}, {"stepsize": StepsizeConfig(alpha0=1.0)}), (Dgd, {}, {"scale": 1.0}),
    (NaivePolyak, {}, {"target": "oracle_fi_star"}),
    (Graph, {"n_agents": 3, "edges": [(0, 1), (1, 2)]}, {"edges": [(0, 1), (0, 2)]}),
    (AlgorithmConfig, {}, {"eta_cap": 8}), (RunConfig, {}, {"run": RunSection(iterations=5)})])
def test_values_differ_by_one_field(cls, kw, other):
    assert cls(**kw) != cls(**{**kw, **other})
