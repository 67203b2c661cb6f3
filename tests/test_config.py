"""Every RunConfig field is a knob that some library code reads.

A field that only ``config.py`` mentions changes nothing when set.  The audit
walks the package source with ``ast``: a name holds a RunConfig when it is a
parameter annotated ``RunConfig`` or is assigned the result of a function
annotated to return one (``cfg = _config_from(args)``), and a field counts as
read when such a name has it as a loaded attribute (``config.cap_edges``).
``args.seed`` does not read ``RunConfig.seed``.

Each setting has one source.  A function that takes a RunConfig takes no
parameter named after one of its fields (a ``side_swap`` beside ``config``
can disagree with ``config.side_swap``), and reads every RunConfig it takes.
Verification's ``_row_*`` functions are exempt from the second rule: ``Row.run``
hands every row the config, used or not.

RunConfig holds exactly the settings the CLI exposes: the caps in
``cli._CAP_FLAGS`` and ``side_swap``.  A fixed limit with no flag is a
constant of the module it guards (``symmetry._GROUP_CAP``).
"""

import ast
from dataclasses import fields

from gnorm import cli
from gnorm.config import RunConfig

from conftest import definitions, package_sources


def is_run_config(annotation) -> bool:
    return (isinstance(annotation, ast.Name) and annotation.id == "RunConfig") or (
        isinstance(annotation, ast.Constant) and annotation.value == "RunConfig")


def config_field_reads(sources) -> set[str]:
    nodes = [node for src in sources for node in ast.walk(ast.parse(src))]
    makers = {n.name for n in nodes
              if isinstance(n, ast.FunctionDef) and is_run_config(n.returns)}
    holders = {n.arg for n in nodes if isinstance(n, ast.arg) and is_run_config(n.annotation)}
    for n in nodes:
        if (isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                and isinstance(n.value.func, ast.Name) and n.value.func.id in makers):
            holders |= {t.id for t in n.targets if isinstance(t, ast.Name)}
    return {n.attr for n in nodes
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id in holders}


def _functions(sources):
    """(name, RunConfig parameter names, other parameter names, node) for
    every function in the sources."""
    for src in sources:
        for _, node in definitions(ast.parse(src)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                held = {a.arg for a in params if is_run_config(a.annotation)}
                yield node.name, held, {a.arg for a in params} - held, node


def shadowing_parameters(sources) -> list[str]:
    """``function(parameter)`` for each parameter named after a RunConfig
    field, in a function that also takes a RunConfig."""
    names = {f.name for f in fields(RunConfig)}
    return [f"{name}({p})" for name, held, others, _ in _functions(sources)
            if held for p in sorted(others & names)]


def unread_config_parameters(sources) -> list[str]:
    """``function(parameter)`` for each RunConfig parameter that the
    function's body never loads."""
    out = []
    for name, held, _, node in _functions(sources):
        loaded = {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{name}({p})" for p in sorted(held - loaded)]
    return out


def test_the_audit_reads_only_config_holders():
    sample = """
def run(args, config: RunConfig = DEFAULT):
    config.cap_edges = 1
    return config.cap_vertices, args.seed, config.with_(trials=2)

def _config_from(args) -> "RunConfig":
    return RunConfig()

cfg = _config_from(args)
print(cfg.side_swap, args.resolution)
"""
    assert config_field_reads([sample]) == {"cap_vertices", "with_", "side_swap"}


def test_the_fields_are_the_caps_and_the_automorphism_mode():
    # a new setting shows up here as a test change
    assert [f.name for f in fields(RunConfig)] == [
        "cap_edges", "cap_vertices", "cap_assignments", "cap_cycles",
        "cap_colourings", "side_swap"]


def settings_off_the_cli(names, cap_flags) -> tuple[list[str], list[str]]:
    """(fields that the CLI cannot set, cap flags with no field), for
    RunConfig field ``names`` against the caps the CLI has a flag for."""
    exposed = [*cap_flags, "side_swap"]
    return [n for n in names if n not in exposed], [f for f in exposed if f not in names]


def test_the_audit_flags_a_library_only_setting():
    names = [f.name for f in fields(RunConfig)]
    assert settings_off_the_cli([*names, "cap_group"], cli._CAP_FLAGS) == (["cap_group"], [])
    assert settings_off_the_cli(names, cli._CAP_FLAGS[1:]) == ([cli._CAP_FLAGS[0]], [])
    assert settings_off_the_cli(names[1:], cli._CAP_FLAGS) == ([], [names[0]])


def test_the_fields_are_exactly_the_cli_settings():
    names = [f.name for f in fields(RunConfig)]
    assert settings_off_the_cli(names, cli._CAP_FLAGS) == ([], [])


def test_every_field_is_read_outside_config():
    read = config_field_reads(src for name, src in package_sources().items()
                              if name != "config")
    assert [f.name for f in fields(RunConfig) if f.name not in read] == []


_SHADOWED = """
def automorphisms(g, side_swap: bool = True, config: RunConfig = DEFAULT):
    return _all_automorphisms(g, side_swap, config)

def hypercube(d: int, config: RunConfig = DEFAULT):
    return d

def hypercube_alpha(d, config: "RunConfig" = DEFAULT):
    return hypercube(d, config)

def _row_reads_nothing(config: RunConfig):
    return {"ok": True}

def _transversals(g, side_swap: bool):
    return g
"""


def test_the_audit_flags_shadowing_and_unread_parameters():
    assert shadowing_parameters([_SHADOWED]) == ["automorphisms(side_swap)"]
    assert unread_config_parameters([_SHADOWED]) == [
        "hypercube(config)", "_row_reads_nothing(config)"]


def test_no_parameter_shadows_a_config_field():
    assert shadowing_parameters(package_sources().values()) == []


def test_every_config_parameter_is_read():
    unread = {name: unread_config_parameters([src])
              for name, src in package_sources().items()}
    unread["verification"] = [u for u in unread["verification"]
                              if not u.startswith("_row_")]
    assert {name: u for name, u in unread.items() if u} == {}
