"""Run configuration: resource caps and the automorphism mode.

All exhaustive scans consult a cap from here and raise CapExceeded rather than
running unbounded.  Defaults are sized so the shipped verification suite
finishes in minutes on one core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RunConfig:
    """Caps and modes shared by library operations and the CLI, which has a
    flag for each; a fixed limit is a constant (``symmetry._GROUP_CAP``)."""

    cap_edges: int = 32            # balanced-colouring enumeration
    cap_vertices: int = 64         # automorphism / isomorphism search
    cap_assignments: int = 1 << 24 # grid assignments in one density evaluation
    cap_cycles: int = 10_000_000   # simple-cycle enumeration
    cap_colourings: int = 24       # edges in the s_max / rho_2m sweeps over 2^e colourings

    side_swap: bool = True         # allow automorphisms exchanging the sides

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)


DEFAULT = RunConfig()
