"""The runtime is standard-library-only: every import in the package is relative or stdlib."""
import ast
import pathlib
import sys

import cd_router

PACKAGE = pathlib.Path(cd_router.__file__).parent


def _imports(tree: ast.Module):
    """(module, level) of every import statement: level 0 is absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    foreign = []
    for source in sources:
        for module, level in _imports(ast.parse(source.read_text(), str(source))):
            if level == 0 and module.partition(".")[0] not in sys.stdlib_module_names:
                foreign.append(f"{source.name}: {module}")
    assert foreign == []
