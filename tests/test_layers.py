"""The package's layers: which module may import which.

Each module's relative imports (`from .x import ...`, and `from . import
x`), read with ast wherever they sit in the module, must name only the
sibling modules that LAYERS allows it.  The pipeline's parts sit below
the run loop: traffic generation, the buffer, the statistics and the
identifier do not know the detector or each other beyond what the table
says, and only the front ends import the run loop.
"""

import ast
from pathlib import Path

import pytest

import ddossim

PACKAGE = Path(ddossim.__file__).resolve().parent

# each module, and the sibling modules it may import
LAYERS = {
    "buffer": set(),
    "stats": set(),
    "identifier": set(),
    "traffic": {"buffer"},
    "detector": {"buffer", "stats", "traffic"},
    "presets": {"detector", "traffic"},
    "harness": {"buffer", "detector", "identifier", "stats", "traffic"},
    "cli": {"detector", "harness", "presets", "traffic"},
    "__init__": {"detector", "harness", "presets", "traffic"},
}


def sibling_imports(path: Path) -> set[str]:
    """The sibling modules a module imports relatively."""
    siblings = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(alias.name for alias in node.names)
            else:
                siblings.add(node.module.split(".")[0])
    return siblings


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layers(module):
    assert sibling_imports(PACKAGE / f"{module}.py") <= LAYERS[module]


def test_only_the_front_ends_import_the_run_loop():
    assert {module for module, allowed in LAYERS.items() if "harness" in allowed} == {
        "cli", "__init__"}
