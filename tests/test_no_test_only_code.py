"""Nothing in the package is kept alive by its tests alone.

Every function, class, method and property defined in `src/cd_router`
must be named, outside its own body, somewhere in the package or in
`perfbench/`; a docstring or a message names nothing. `oracle.py` is
ground truth that only tests consult, so its definitions are not checked
and its code names nothing; `__init__.py` only re-exports. A string that
is a dotted name names its parts, so perfbench's `PATCHES` keeps the
globals it wraps. The paper's own claims, which only the tests exercise,
are listed with the reason each stays.
"""
import ast
import pathlib
import re
from collections import Counter

import cd_router

PACKAGE = pathlib.Path(cd_router.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
UNREAD = {"oracle.py", "__init__.py"}  # files whose code names nothing

KEEP = {
    "crossing_time": "the closed-form slot of one crossing, which the oracles' walker is checked against",
    "crossing_distribution": "the crossing law whose sums are the paper's expected loads",
    "expected_load": "the expected load per (edge, slot) that the initial bound caps",
    "counting_bound": "the paper's log2 bound on the candidate schedules of a gadget",
    "count_candidates": "the exact count the counting bound is checked against",
    "critical_crossings": "the n^2 critical-edge crossings that every gadget schedule makes",
    "is_candidate": "the candidacy rule the counting argument counts",
    "matrix_to_schedule": "the gadget's normal form of a schedule, which the counting argument enumerates",
}


def _definitions(tree: ast.AST):
    """(name, node) of every function, class, method and property, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node


def _names(tree: ast.AST) -> Counter:
    """How often the tree names each identifier: as a name, an attribute or a dotted-name string."""
    named: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):  # a name such as "fixer.stats", not prose
                named.update(node.value.split("."))
    return named


def _parse(paths) -> dict[pathlib.Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def unread_definitions(package: pathlib.Path, perfbench: pathlib.Path) -> set[str]:
    """Names defined in the package, outside `UNREAD`, that no code there or in perfbench names."""
    sources = {p: t for p, t in _parse(sorted(package.glob("*.py"))).items() if p.name not in UNREAD}
    named: Counter = Counter()
    for tree in (*sources.values(), *_parse(sorted(perfbench.glob("*.py"))).values()):
        named.update(_names(tree))
    unread = set()
    for tree in sources.values():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue  # the interpreter calls these
            if named[name] == _names(node)[name]:  # named in its own body at most
                unread.add(name)
    return unread


def test_every_definition_is_named_outside_its_tests():
    assert len(list(PACKAGE.glob("*.py"))) >= 10
    assert (PERFBENCH / "tracing.py").exists()
    assert unread_definitions(PACKAGE, PERFBENCH) - set(KEEP) == set()


def test_each_kept_claim_is_still_defined():
    defined = {name for tree in _parse(PACKAGE.glob("*.py")).values() for name, _ in _definitions(tree)}
    assert set(KEEP) <= defined


def test_the_scan_sees_a_definition_named_only_by_itself_its_tests_or_prose(tmp_path):
    package, perfbench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    perfbench.mkdir()
    (package / "a.py").write_text(
        "def recurse(n):\n"
        "    return recurse(n - 1) if n else 0\n"
        "def called():\n"
        "    return 1\n"
        "def patched():\n"
        "    return 2\n"
        "def only_in_prose():\n"
        "    return called()\n"
        "class Holder:\n"
        "    @property\n"
        "    def value(self):\n"
        "        return 0\n"
    )
    (package / "oracle.py").write_text("from .a import only_in_prose\nonly_in_prose()\n")
    (perfbench / "bench.py").write_text(
        "PATCHES = (('a', 'patched'),)\n"
        "LAYERS = ('a.Holder.value',)\n"
        "print('only_in_prose runs')\n"
    )
    assert unread_definitions(package, perfbench) == {"recurse", "only_in_prose"}
