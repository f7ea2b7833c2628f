"""An assignment is the only carrier of its tree: no function takes both.

A function handed a `DelayAssignment` reads the tree it was built on from
`assignment.tree`; a second tree argument could disagree with it, and
nothing would raise.
"""
import builtins
import importlib
import inspect
import pathlib
import typing

import cd_router
from cd_router.delay_model import DelayAssignment, Tree
from cd_router.dissection import BlockTree, ShiftedBlockTree

PACKAGE = pathlib.Path(cd_router.__file__).parent
TREES = {BlockTree, ShiftedBlockTree}


def _modules():
    return [importlib.import_module(f"cd_router.{source.stem}") for source in sorted(PACKAGE.glob("*.py"))]


def _types(hint):
    """Every class a resolved annotation names, through unions and generics."""
    if isinstance(hint, type):
        yield hint
    for arg in typing.get_args(hint):
        yield from _types(arg)


def _callables(module):
    """(name, function) of every function, method, property and constructor defined in the module."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "fget", None) or getattr(member, "func", None) or member
                member = getattr(member, "__func__", member)  # staticmethod, classmethod
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _takes_an_assignment_and_a_tree(fn, namespace) -> bool:
    hints = typing.get_type_hints(fn, localns=namespace)
    params = inspect.signature(fn).parameters
    kinds = [set(_types(hints[p])) if p in hints else set() for p in params]
    has_assignment = any(DelayAssignment in k for k in kinds)
    has_tree = any(k & TREES for k in kinds) or "tree" in params
    return has_assignment and has_tree


def test_no_function_takes_a_tree_beside_an_assignment():
    modules = _modules()
    assert len(modules) >= 10
    # names some modules import only for type checking, and the builtins,
    # which a named tuple's generated methods do not see
    namespace = {k: v for m in modules for k, v in vars(m).items() if not k.startswith("__")}
    namespace.update(vars(builtins))
    checked, both = 0, []
    for module in modules:
        for name, fn in _callables(module):
            checked += 1
            if _takes_an_assignment_and_a_tree(fn, namespace):
                both.append(f"{module.__name__}.{name}")
    assert checked > 100
    assert both == []


def test_the_check_sees_a_tree_beside_an_assignment():
    def by_annotation(padded, source: Tree, assignment: DelayAssignment | None): ...

    def by_name(tree, assignment: DelayAssignment): ...

    def assignment_only(padded, assignment: DelayAssignment): ...

    namespace = vars(cd_router.delay_model)
    assert _takes_an_assignment_and_a_tree(by_annotation, namespace)
    assert _takes_an_assignment_and_a_tree(by_name, namespace)
    assert not _takes_an_assignment_and_a_tree(assignment_only, namespace)
