"""Every function, class and method of ``src/gnorm`` is reached from a product root.

The library keeps only what a certificate rule, a CLI command, a
``reproduce`` row, the README's Library example or the benchmark reaches.
The audit walks the package source with ``ast`` from these roots:

- the ``gnorm`` console script (``cli.main``, named in pyproject.toml) and the
  ``cmd_*`` functions that ``cli.build_parser`` registers;
- ``verification.ROWS``, ``certify.certify_not_norming`` and
  ``certify.certify_family``;
- the README Library block (``test_readme.library_example()``);
- the benchmark: every ``tracing.BOUNDARIES`` attribute, since
  ``bench/tests/test_bench.py::test_smoke_pass_emits_every_metric`` requires
  each to exist, and the code of ``bench/workloads.py``, with the names its
  ``_late(module, "name")`` calls look up;
- the package's module-level statements that run on import or as a script
  (the ``__main__`` guard of ``cli``).

A reached function reaches what its body, decorators and default values
name; annotations do not count.  A name resolves through its module's
definitions and imports, unless it is a parameter or an assignment of the
function.  ``module.attr`` on an imported module, ``Class.attr`` on a class
name and ``self.attr`` in a method resolve to that one definition, looking
through the package's base classes.  ``x.attr`` on any other value reaches
every method named ``attr``, which can only overstate reachability.  A
reached class reaches its bases, the statements of its body, its dunder
methods, and each method that overrides one of a base class from outside
the package (``cli._Parser.error``).  The ``__init__`` exports are not roots:
they only resolve ``from gnorm import ...``.
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

from conftest import definitions, package_sources
from test_readme import library_example

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "gnorm"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _local_names(fn: ast.AST) -> set[str]:
    """Names that a function binds: its parameters, assignment targets and
    nested definitions, and those of the functions nested in it."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and node is not fn:
            names.add(node.name)
    return names


def _outside(dotted: str):
    """The object a dotted name outside the package names, or None."""
    parts = dotted.split(".")
    if len(parts) == 1:
        return getattr(builtins, dotted, None)
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
        return obj
    return None


class Audit:
    """The definitions of a package's modules and the references between them.

    ``sources`` maps each module name (``__init__`` for the package) to its
    source and ``files`` each module to the path it is reported under.  A
    definition is a module-level function or class or a method of one,
    keyed ``module.qualname``; a module-level assignment is keyed the same
    way, and is walked only once something names it.
    """

    def __init__(self, sources: dict[str, str], files: dict[str, str] | None = None):
        self.files = files or {m: f"{m}.py" for m in sources}
        self.modules = set(sources)
        self.defs: dict[str, ast.AST] = {}
        self.values: dict[str, list[ast.AST]] = {}
        self.imports: dict[str, dict[str, tuple]] = {}
        self.by_name: dict[str, list[str]] = {}    # method name -> method keys
        self.methods: dict[str, list[str]] = {}    # class key -> method keys
        self.roots_code: list[tuple[str, ast.AST]] = []
        for module, src in sources.items():
            self._add_module(module, ast.parse(src))

    # -- tables -----------------------------------------------------------------

    def _add_module(self, module: str, tree: ast.Module) -> None:
        self.imports[module] = self._import_table(tree)
        if module not in self.modules:
            return
        for qualname, node in definitions(tree):
            if "<locals>" in qualname or qualname.count(".") > 1:
                continue
            key = f"{module}.{qualname}"
            self.defs[key] = node
            if "." in qualname:
                owner = key.rsplit(".", 1)[0]
                self.methods.setdefault(owner, []).append(key)
                self.by_name.setdefault(node.name, []).append(key)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.values.setdefault(f"{module}.{target.id}", []).append(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self.values.setdefault(f"{module}.{stmt.target.id}", []).append(stmt.value)
            elif not isinstance(stmt, (*_FUNCTIONS, ast.ClassDef, ast.Import,
                                       ast.ImportFrom, ast.Expr)):
                # a statement that runs on import or as a script (__main__)
                self.roots_code.append((module, stmt))

    def _package_module(self, dotted: str | None, level: int) -> str | None:
        """The package module an import names, or None for one outside."""
        if level:
            return dotted or "__init__"
        if dotted == PACKAGE:
            return "__init__"
        if dotted and dotted.startswith(PACKAGE + "."):
            return dotted[len(PACKAGE) + 1:]
        return None

    def _import_table(self, tree: ast.Module) -> dict[str, tuple]:
        """Local name -> ("module", m), ("name", m, attr) or ("outside",
        dotted), from every import in the module, at any depth."""
        table = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module = self._package_module(alias.name, 0)
                    if alias.asname:
                        table[alias.asname] = (("module", module) if module
                                               else ("outside", alias.name))
                    else:
                        top = alias.name.split(".")[0]
                        table[top] = (("module", "__init__") if top == PACKAGE
                                      else ("outside", top))
            elif isinstance(node, ast.ImportFrom):
                module = self._package_module(node.module, node.level)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if module is None:
                        table[local] = ("outside", f"{node.module}.{alias.name}")
                    elif module == "__init__" and alias.name in self.modules:
                        table[local] = ("module", alias.name)
                    else:
                        table[local] = ("name", module, alias.name)
        return table

    def resolve(self, module: str, name: str, depth: int = 0) -> tuple | None:
        """What a global name of the module is: ("key", definition or
        assignment key), ("module", m), ("outside", dotted) or None."""
        key = f"{module}.{name}"
        if key in self.defs or key in self.values:
            return ("key", key)
        target = self.imports.get(module, {}).get(name)
        if target is None:
            return ("outside", name) if hasattr(builtins, name) else None
        if target[0] == "name" and depth < 10:
            return self.resolve(target[1], target[2], depth + 1)
        return target

    def member(self, cls: str, attr: str, depth: int = 0) -> str | None:
        """The definition ``Class.attr`` names, through the package bases."""
        key = f"{cls}.{attr}"
        if key in self.defs:
            return key
        for base in self._bases(cls):
            if base[0] == "key" and depth < 10:
                found = self.member(base[1], attr, depth + 1)
                if found:
                    return found
        return None

    def _bases(self, cls: str) -> list[tuple]:
        module = cls.split(".")[0]
        out = []
        for base in self.defs[cls].bases:
            dotted = []
            while isinstance(base, ast.Attribute):
                dotted.insert(0, base.attr)
                base = base.value
            if not isinstance(base, ast.Name):
                continue
            target = self.resolve(module, base.id)
            if target and target[0] == "module" and dotted:
                target = self.resolve(target[1], dotted.pop(0))
            if target and target[0] == "outside":
                target = ("outside", ".".join([target[1], *dotted]))
            if target:
                out.append(target)
        return out

    def _hook_overrides(self, cls: str) -> list[str]:
        """Methods of the class that override a method of a base class from
        outside the package."""
        outside = [_outside(b[1]) for b in self._bases(cls) if b[0] == "outside"]
        return [m for m in self.methods.get(cls, ())
                if any(hasattr(base, self.defs[m].name) for base in outside if base)]

    # -- references ---------------------------------------------------------------

    def _refs(self, node: ast.AST, module: str, cls: str | None = None) -> set[str]:
        """The keys that one definition, assignment or root statement names."""
        found: set[str] = set()
        local: set[str] = set()
        this = None
        if isinstance(node, _FUNCTIONS):
            local = _local_names(node)
            params = [*node.args.posonlyargs, *node.args.args]
            if cls and params and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list):
                this = params[0].arg
            parts = [*node.decorator_list, *node.args.defaults,
                     *[d for d in node.args.kw_defaults if d], *node.body]
        elif isinstance(node, ast.ClassDef):
            parts = [*node.decorator_list, *node.bases, *[k.value for k in node.keywords],
                     *[s for s in node.body if not isinstance(s, (*_FUNCTIONS, ast.ClassDef))]]
        else:
            parts = [node]
        for part in parts:
            self._walk(part, module, cls, this, local, found)
        return found

    def _add(self, target, found: set[str]) -> None:
        if target and target[0] == "key":
            found.add(target[1])

    def _walk(self, node, module, cls, this, local, found) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                self._add(self.resolve(module, node.id), found)
            return
        if isinstance(node, ast.Attribute):
            self._attribute(node, module, cls, this, local, found)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            # _late(module, "name") and getattr(module, "name") name module.name
            first, second = node.args[:2]
            if (isinstance(first, ast.Name) and first.id not in local
                    and isinstance(second, ast.Constant) and isinstance(second.value, str)):
                target = self.resolve(module, first.id)
                if target and target[0] == "module":
                    self._add(self.resolve(target[1], second.value), found)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    self._walk(child, module, cls, this, local, found)

    def _attribute(self, node: ast.Attribute, module, cls, this, local, found) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == this:
                target = self.member(cls, node.attr)
                if target:
                    found.add(target)
                    return
            elif base.id not in local:
                target = self.resolve(module, base.id)
                if target and target[0] == "module":
                    self._add(self.resolve(target[1], node.attr), found)
                    return
                if target and target[0] == "key" and isinstance(
                        self.defs.get(target[1]), ast.ClassDef):
                    member = self.member(target[1], node.attr)
                    if member:
                        found.add(member)
                    return
        found.update(self.by_name.get(node.attr, ()))

    # -- the walk ---------------------------------------------------------------------

    def reached(self, roots, scripts=()) -> set[str]:
        """Every key reached from the root keys, from the code of each script
        (source outside the package), and from the package's module-level
        statements that run on import or as a script."""
        todo = list(roots)
        for i, src in enumerate(scripts):
            name = f"<script {i}>"
            tree = ast.parse(src)
            self.imports[name] = self._import_table(tree)
            todo += self._refs(tree, name)
        for module, stmt in self.roots_code:
            todo += self._refs(stmt, module)
        seen: set[str] = set()
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            module = key.split(".")[0]
            if key in self.values:
                for value in self.values[key]:
                    todo += self._refs(value, module)
                continue
            node = self.defs[key]
            owner = key.rsplit(".", 1)[0]
            cls = owner if isinstance(self.defs.get(owner), ast.ClassDef) else None
            if cls:
                todo.append(cls)
            todo += self._refs(node, module, cls)
            if isinstance(node, ast.ClassDef):
                todo += [m for m in self.methods.get(key, ())
                         if _is_dunder(self.defs[m].name)]
                todo += self._hook_overrides(key)
                todo += [b[1] for b in self._bases(key) if b[0] == "key"]
        return seen

    def unreached(self, roots, scripts=()) -> list[str]:
        """``module.qualname (file:line)`` for each definition that no root
        reaches.  A dunder method goes with its class."""
        seen = self.reached(roots, scripts)
        return [f"{key} ({self.files[key.split('.')[0]]}:{node.lineno})"
                for key, node in self.defs.items()
                if key not in seen and not _is_dunder(node.name)]


# -- the product roots ---------------------------------------------------------------


def registered_commands(cli_source: str) -> list[str]:
    """The functions that ``build_parser`` registers with ``set_defaults(fn=...)``."""
    build = next(node for _, node in definitions(ast.parse(cli_source))
                 if node.name == "build_parser")
    return [kw.value.id for node in ast.walk(build)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set_defaults"
            for kw in node.keywords if kw.arg == "fn"]


def boundary_roots(tracing_source: str) -> list[str]:
    """``module.attr`` for each ``Boundary(span, "gnorm.module", "attr", ...)``
    in the tracer's ``BOUNDARIES``."""
    tree = ast.parse(tracing_source)
    table = next(stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "BOUNDARIES"
                         for t in stmt.targets))
    return [f"{call.args[1].value.removeprefix(PACKAGE + '.')}.{call.args[2].value}"
            for call in ast.walk(table) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "Boundary"]


def console_scripts() -> list[str]:
    """``module.function`` for each ``gnorm.module:function`` entry point."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return [f"{m}.{f}" for m, f in re.findall(rf'"{PACKAGE}\.(\w+):(\w+)"', scripts)]


def product_roots(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(root keys, root scripts) of the package."""
    roots = console_scripts()
    roots += [f"cli.{name}" for name in registered_commands(sources["cli"])]
    roots += ["verification.ROWS", "certify.certify_not_norming", "certify.certify_family"]
    roots += boundary_roots((ROOT / "bench" / "tracing.py").read_text())
    scripts = [library_example(), (ROOT / "bench" / "workloads.py").read_text()]
    return roots, scripts


def package_audit() -> Audit:
    sources = package_sources()
    files = {m: f"src/{PACKAGE}/{m}.py" for m in sources}
    return Audit(sources, files)


# -- tests ----------------------------------------------------------------------------


_SYNTHETIC = {
    "kernels": '''
import argparse
from dataclasses import dataclass


@dataclass(frozen=True)
class StepKernel:
    values: tuple

    def __post_init__(self):
        check(self.values)

    def scale(self, c):
        return StepKernel(self.values)

    @staticmethod
    def constant(c):
        return StepKernel((c,))


class TrigKernel:
    @staticmethod
    def constant(c):
        return TrigKernel()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        report(message)

    def unused(self):
        pass


def check(values):
    return values


def report(message):
    return message


def build(path):
    return path, _Parser()


def path(n):
    return n


def traced():
    return helper()


def helper():
    return None


def orphan():
    return StepKernel.constant(0)
''',
}

_SYNTHETIC_TRACING = '''
BOUNDARIES = (
    Boundary("kernels.traced", "gnorm.kernels", "traced", on_result=_count),
    Boundary("kernels.init", "gnorm.kernels", "StepKernel.__post_init__"),
)
'''


def test_the_audit_on_synthetic_source():
    audit = Audit(_SYNTHETIC)
    # build's parameter ``path`` does not reach the function path; the class
    # name in StepKernel.constant reaches StepKernel's method and not
    # TrigKernel's; _Parser.error overrides argparse's hook
    assert audit.unreached(["kernels.build"], ["""
from gnorm.kernels import StepKernel
StepKernel.constant(2)
"""]) == [
        "kernels.StepKernel.scale (kernels.py:13)",
        "kernels.TrigKernel (kernels.py:21)",
        "kernels.TrigKernel.constant (kernels.py:23)",
        "kernels._Parser.unused (kernels.py:31)",
        "kernels.path (kernels.py:47)",
        "kernels.traced (kernels.py:51)",
        "kernels.helper (kernels.py:55)",
        "kernels.orphan (kernels.py:59)",
    ]


def test_bench_boundaries_are_roots():
    roots = boundary_roots(_SYNTHETIC_TRACING)
    assert roots == ["kernels.traced", "kernels.StepKernel.__post_init__"]
    flagged = Audit(_SYNTHETIC).unreached(["kernels.build", *roots])
    # traced is a root, and reaches helper
    assert [f.split(" ")[0] for f in flagged] == [
        "kernels.StepKernel.scale", "kernels.StepKernel.constant", "kernels.TrigKernel",
        "kernels.TrigKernel.constant", "kernels._Parser.unused", "kernels.path",
        "kernels.orphan"]


def test_module_strings_and_receivers():
    # _late(module, "name") names module.name; x.scale on an unknown value
    # reaches every method called scale
    flagged = Audit(_SYNTHETIC).unreached([], ["""
from gnorm import kernels
job = _late(kernels, "orphan")
anything.scale(2)
"""])
    names = [f.split(" ")[0] for f in flagged]
    assert "kernels.orphan" not in names and "kernels.StepKernel.scale" not in names
    assert "kernels.TrigKernel.constant" in names


def test_the_roots_exist():
    audit = package_audit()
    roots, _ = product_roots(package_sources())
    assert sorted(registered_commands(package_sources()["cli"])) == [
        "cmd_certify", "cmd_check", "cmd_colourings", "cmd_density", "cmd_falsify",
        "cmd_reproduce", "cmd_smax", "cmd_tournament"]
    assert "density.rho_2m" in roots and "kernels.StepKernel.__post_init__" in roots
    assert [r for r in roots if r not in audit.defs and r not in audit.values] == []


def test_every_definition_is_reached():
    roots, scripts = product_roots(package_sources())
    assert package_audit().unreached(roots, scripts) == []
