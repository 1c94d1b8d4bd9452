"""Source guards over the package modules.

Every import sits at module level, where `perfbench/tracing.py` can rebind
the names it binds (a function-level import of a traced function would escape
the tracer), and every module-level import is used by its module.  Every
other import is the standard library's, and each module imports only the
package modules its layer allows: the oracle shares nothing with the
adversaries but the model's step semantics, pairs are read off executions
alone, and no module but `cli` imports the file format (`traceio`) that
certificates are checked against, or `cli` itself.  And no module but
`model` reads a spec's `alphabet`: the register encoding every search runs
on is `model.SpecTables`, and there is no other.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "regforce"
MODULES = sorted(SRC.glob("*.py"))
PACKAGE = {path.stem for path in MODULES} - {"__init__"}
LAYERS = {name: PACKAGE - {name, "traceio", "cli"} for name in PACKAGE}
LAYERS.update(
    oracle={"model", "execution", "reports"},
    pairs={"model", "execution"},
    cli=PACKAGE - {"cli"},
)


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


@pytest.mark.parametrize("name", sorted(LAYERS), ids=lambda name: f"{name}.py")
def test_package_imports_follow_the_layers(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    package, other = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            other.update(name.split(".")[0] for name in names)
    assert package <= LAYERS[name], f"{name}.py imports {sorted(package - LAYERS[name])}"
    assert other <= sys.stdlib_module_names, \
        f"{name}.py imports {sorted(other - sys.stdlib_module_names)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_model_reads_the_alphabet(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "alphabet"]
    assert path.stem == "model" or reads == [], \
        f"{path.name}: reads `.alphabet` at lines {reads}; pack by `spec.tables`"
