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
