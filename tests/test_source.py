"""Source guards over the package modules.

Every import sits at module level, where `perfbench/tracing.py` can rebind
the names it binds (a function-level import of a traced function would escape
the tracer), and every module-level import is used by its module.  The
oracle imports only `model`, `execution`, `reports` and the standard library.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "regforce"
MODULES = sorted(SRC.glob("*.py"))


def _bound(node) -> list:
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_module_level_and_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top]
    assert nested == [], f"{path.name}: imports below module level at lines {nested}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for node in top for name in _bound(node) if name not in used]
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_oracle_imports_only_the_model_layer():
    # the ground truth shares the model's step semantics with the adversaries
    # and nothing else: no valency search, no attack code
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    allowed = {"model", "execution", "reports"}
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module not in allowed:
                stray.append(f".{node.module}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            stray += [name for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert stray == [], f"oracle.py imports {stray}"
