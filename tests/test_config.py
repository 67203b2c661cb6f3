"""Every RunConfig field is a knob that some library code reads.

A field that only ``config.py`` mentions changes nothing when set.  The audit
walks the package source with ``ast``: a name holds a RunConfig when it is a
parameter annotated ``RunConfig`` or is assigned the result of a function
annotated to return one (``cfg = _config_from(args)``), and a field counts as
read when such a name has it as a loaded attribute (``config.cap_edges``).
``args.seed`` does not read ``RunConfig.seed``.
"""

import ast
from dataclasses import fields
from pathlib import Path

import gnorm
from gnorm.config import RunConfig

PACKAGE = Path(gnorm.__file__).resolve().parent


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


def test_every_field_is_read_outside_config():
    read = config_field_reads(p.read_text() for p in sorted(PACKAGE.glob("*.py"))
                              if p.name != "config.py")
    assert [f.name for f in fields(RunConfig) if f.name not in read] == []
