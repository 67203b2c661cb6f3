"""Cycle enumeration and colour-pattern analysis.

Simple cycles of a fixed even length are enumerated exactly, deduplicated up
to rotation and reflection by anchoring each cycle at its smallest vertex,
and returned in one form: a ``(cycles x length)`` intp matrix of edge
indices, one cycle per row, which every reader scores as it is.
On top of that sit the alternating-cycle counts kappa_l, the four colour
classes of even cycles as array passes over a colourings matrix (class 4 on
a girth cycle is a girth-law violation), and the GF(2) test that the 4-cycles
span the cycle space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, RunConfig
from .errors import CapExceeded
from .graphs import BipartiteGraph, EdgeColouring, check_aligned


@dataclass(frozen=True)
class FourCycleProfile:
    """Counts of the four colour classes of even cycles (see ``_class_counts``).

    c1 alternating, c2 monochromatic, c3 half of each colour but not
    alternating, c4 anything else.  On 4-cycles c3 is an adjacent pair of
    each colour and c4 the three-one pattern; on girth cycles c4 counts the
    girth-law violations.
    """

    c1: int
    c2: int
    c3: int
    c4: int

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3, "c4": self.c4}


def enumerate_cycles(
    g: BipartiteGraph, length: int, config: RunConfig = DEFAULT
) -> np.ndarray:
    """All simple cycles of exactly the given even length, in canonical order,
    as a C-contiguous ``(cycles x length)`` intp matrix of edge indices.

    Row i lists cycle i's edges in cyclic order, starting at the edge from
    its anchor (its smallest vertex index) to the smaller of the anchor's two
    neighbours on the cycle; with no cycle the shape is ``(0, length)``.
    DFS from each anchor vertex visits only larger-indexed vertices, and the
    direction is fixed by requiring the second vertex to precede the last.
    """
    if length < 4 or length % 2:
        raise ValueError("cycle length must be an even integer >= 4")
    n = g.n_vertices
    adj, edge_at = g.neighbours, g.edge_at

    found: list[tuple[int, ...]] = []
    path = [0] * length
    on_path = [False] * n
    for a in range(n):
        # stack[d - 1] walks the neighbours of path[d - 1]; a path of full
        # length is closed on the spot, so the stack stays below length
        path[0] = a
        on_path[a] = True
        stack = [iter(adj[a])]
        while stack:
            depth = len(stack)
            for w in stack[-1]:
                if w <= a or on_path[w]:
                    continue
                path[depth] = w
                if depth < length - 1:
                    on_path[w] = True
                    stack.append(iter(adj[w]))
                    break
                if path[1] < w and (w, a) in edge_at:
                    found.append(tuple(path))
                    if len(found) > config.cap_cycles:
                        raise CapExceeded("cycle enumeration", len(found),
                                          config.cap_cycles)
            else:
                on_path[path[depth - 1]] = False
                stack.pop()

    edges = [edge_at[cyc[i], cyc[(i + 1) % length]]
             for cyc in found for i in range(length)]
    return np.array(edges, dtype=np.intp).reshape(len(found), length)


def _class_counts(matrix: np.ndarray, cycles) -> np.ndarray:
    """``(rows x 4)`` counts of the four cycle classes under each row of an
    int8 colourings matrix.

    ``cycles`` is ``enumerate_cycles``'s matrix: the edge indices of
    equal-length even cycles, one cycle per row (``(0, length)`` scores
    zeros).  The classes are 1 alternating, 2 monochromatic, 3 half of each
    colour but not alternating, 4 anything else.  One pass over the cycle
    positions keeps two ``(rows x cycles)`` counts: ``ones``, the edges of
    colour 1, and ``par``, the positions whose colour matches the pattern
    1, 0, 1, 0, ...; a cycle alternates exactly when ``par`` is 0 or its
    length.
    """
    cycles = np.asarray(cycles, dtype=np.intp)
    n_cycles, length = cycles.shape
    # int8 counts hold every cycle of up to 127 edges
    acc = np.int8 if length <= np.iinfo(np.int8).max else np.int64
    ones = np.zeros((len(matrix), n_cycles), dtype=acc)
    # each of the length/2 odd positions matches until it reads colour 1
    par = np.full((len(matrix), n_cycles), length // 2, dtype=acc)
    for k in range(length):
        colours = matrix[:, cycles[:, k]]
        ones += colours
        if k % 2:
            par -= colours
        else:
            par += colours
    c1 = ((par == 0) | (par == length)).sum(axis=1)
    c2 = ((ones == 0) | (ones == length)).sum(axis=1)
    half = (ones == length // 2).sum(axis=1)
    return np.column_stack((c1, c2, half - c1, n_cycles - c2 - half))


def _pattern_scores(counts: np.ndarray) -> np.ndarray:
    """c1 + c3 - c2 for each row of ``_class_counts``."""
    return counts[:, 0] + counts[:, 2] - counts[:, 1]


def _row(colours) -> np.ndarray:
    """One colouring as a one-row int8 colourings matrix."""
    return np.array([colours], dtype=np.int8)


def _profile(colours, cycles) -> FourCycleProfile:
    """Class counts of the given edge-index cycles under a colour tuple."""
    return FourCycleProfile(*(int(c) for c in _class_counts(_row(colours), cycles)[0]))


def kappa_alternating(
    g: BipartiteGraph, a: EdgeColouring, length: int, config: RunConfig = DEFAULT
) -> int:
    """Number of colour-alternating cycles of the given length."""
    check_aligned(g, a)
    return _profile(a.colours, enumerate_cycles(g, length, config)).c1


def classify_4cycles(
    g: BipartiteGraph, a: EdgeColouring, config: RunConfig = DEFAULT
) -> FourCycleProfile:
    check_aligned(g, a)
    return _profile(a.colours, enumerate_cycles(g, 4, config))


# -- cycle space ----------------------------------------------------------------


def four_cycles_generate_cycle_space(
    g: BipartiteGraph, config: RunConfig = DEFAULT
) -> bool:
    """GF(2) span of the 4-cycle edge vectors has full cycle-space rank."""
    cycles = enumerate_cycles(g, 4, config)
    target = g.n_edges - g.n_vertices + len(g.components)
    if target == 0:
        return True
    basis: list[int] = []
    # Python ints from .tolist(): the bit masks outgrow 64 bits
    for cyc in cycles.tolist():
        vec = 0
        for i in cyc:
            vec |= 1 << i
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
            if len(basis) == target:
                return True
    return False

