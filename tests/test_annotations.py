"""Every annotation in ``src/gnorm`` resolves under ``typing.get_type_hints``.

The modules import ``annotations`` from ``__future__``, so an annotation is a
string that nothing evaluates until a caller asks for the hints: a name the
module never imports raises ``NameError`` only then.  The audit takes each
function, class and method that ``conftest.definitions`` finds in the
package source.  A function nested in another, which no attribute reaches,
is checked through a stand-in that carries its annotation strings and
resolves them in its module's namespace, as the function itself would.
"""

import ast
import importlib
import typing
from functools import cached_property

from conftest import definitions, package_sources


def _hinted(module, qualname: str, node: ast.AST):
    """The object whose hints a definition gives: a property's getter, a
    cached property's function, or a stand-in for a nested function."""
    if "<locals>" not in qualname:
        obj = module
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if isinstance(obj, property):
            return obj.fget
        return obj.func if isinstance(obj, cached_property) else obj
    args = node.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
              *filter(None, (args.vararg, args.kwarg))]
    annotations = {a.arg: ast.unparse(a.annotation) for a in params if a.annotation}
    if node.returns:
        annotations["return"] = ast.unparse(node.returns)

    def stand_in():
        pass

    stand_in.__annotations__ = annotations
    return stand_in


def unresolved(name: str, src: str) -> list[str]:
    """The definitions of one package module whose annotations do not resolve."""
    module = importlib.import_module("gnorm" if name == "__init__" else f"gnorm.{name}")
    failed = []
    for qualname, node in definitions(ast.parse(src)):
        try:
            typing.get_type_hints(_hinted(module, qualname, node), vars(module))
        except NameError as exc:
            failed.append(f"{name}.{qualname}: {exc}")
    return failed


def test_every_annotation_resolves():
    assert [f for name, src in package_sources().items() for f in unresolved(name, src)] == []
