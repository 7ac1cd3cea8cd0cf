"""No code that nothing calls: every import of a package module is used, and
every private module-level name is referenced somewhere in the package."""
import ast
from pathlib import Path

import cbforest

PACKAGE = Path(cbforest.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree):
    """Names the module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    """(name bound, line) of each import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def test_every_import_is_used():
    # the package's own imports are its public names
    unused = [f"{name}:{line} {bound}"
              for name, tree in MODULES.items() if name != "__init__.py"
              for bound, line in _imported_names(tree)
              if bound not in _loaded_names(tree)]
    assert not unused, f"unused imports: {unused}"


def _private_definitions(tree):
    """Private names the module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_name_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _loaded_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    dead = [f"{name}:{line} {private}"
            for name, tree in MODULES.items()
            for private, line in _private_definitions(tree)
            if private not in referenced]
    assert not dead, f"private names nothing references: {dead}"
