"""Every name the benchmark tracer patches must exist in the package, and
every public name must have a user.

`perfbench/tracing.py` wraps each `TARGETS` entry with `getattr`, so a
deleted or renamed function would crash traced benchmark runs.  The file
is loaded read-only from the checkout; nothing is installed or patched.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import kernelspectra

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    for span, module_name, attr, _ in targets:
        owner = importlib.import_module(f"kernelspectra.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)  # AttributeError names the stale target
        assert callable(owner), (span, module_name, attr)


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names the module loads, each outside any def or class of that name."""
    loaded = set()

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in enclosing:
            loaded.add(node.id)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return loaded


def test_every_public_name_has_a_user():
    # a public name stays only if another package function, a command or a
    # traced target uses it; a name that only tests call belongs in the tests
    package = Path(kernelspectra.__file__).parent
    used = {attr.split(".")[0] for _, _, attr, _ in load_targets()}
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _loaded_names(ast.parse(path.read_text(), filename=str(path)))
    public = [
        name for name in kernelspectra.__all__
        if not isinstance(getattr(kernelspectra, name), types.ModuleType)
    ]
    assert [name for name in public if name not in used] == []
