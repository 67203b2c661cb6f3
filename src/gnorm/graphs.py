"""Oriented bipartite graphs, 2-edge-colourings, and elementary structure.

A graph carries a fixed bipartition (``left``/``right``) and an ordered edge
list of oriented pairs ``(u, v)`` with ``u`` on the left.  The edge list is the
canonical index space: a colouring is a 0/1 vector aligned with it, and every
enumeration in the package reports results in this order.  Vertex i is
``vertices[i]``, left side first, and the cached ``ends``, ``neighbours``,
``degrees``, ``edge_at`` and ``components`` are the graph in these indices,
for every module that searches or contracts over it.  Names enter only
through ``vertex_index`` and leave only through ``vertices``.  The cached
``elimination_plans`` holds the density elimination plans made on the
graph, so a reused graph object reuses them.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import comb, inf
from typing import Iterator

import numpy as np

from .errors import CapExceeded, ParseError
from .config import DEFAULT, RunConfig

Vertex = str
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with fixed sides and an ordered, oriented edge list.

    Invariants enforced at construction: vertex ids unique across both sides,
    every edge runs left-to-right between declared vertices, no duplicate
    edges, and no isolated vertices.
    """

    left: tuple[Vertex, ...]
    right: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        object.__setattr__(self, "edges", tuple((u, v) for u, v in self.edges))
        lset, rset = set(self.left), set(self.right)
        if len(lset) != len(self.left) or len(rset) != len(self.right) or (lset & rset):
            raise ValueError("vertex ids must be unique across both sides")
        seen = set()
        touched = set()
        for u, v in self.edges:
            if u not in lset or v not in rset:
                raise ValueError(f"edge ({u!r}, {v!r}) must run from left to right")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            seen.add((u, v))
            touched.add(u)
            touched.add(v)
        isolated = (lset | rset) - touched
        if isolated:
            raise ValueError(f"isolated vertices not allowed: {sorted(isolated)}")

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """All vertices, left side first; defines the global vertex order."""
        return self.left + self.right

    @cached_property
    def vertex_index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    # -- the index form: vertex i is ``vertices[i]``, edge i joins ``ends[i]``

    @cached_property
    def ends(self) -> tuple[tuple[int, int], ...]:
        """Each edge's (left, right) vertex indices, so the left end's index
        is below the right end's."""
        vidx = self.vertex_index
        return tuple((vidx[u], vidx[v]) for u, v in self.edges)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbour indices, in ascending order."""
        nbr: list[list[int]] = [[] for _ in self.vertices]
        for x, y in self.ends:
            nbr[x].append(y)
            nbr[y].append(x)
        return tuple(tuple(sorted(ns)) for ns in nbr)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Each vertex's degree: the package's one source of degrees."""
        return tuple(map(len, self.neighbours))

    @cached_property
    def edge_at(self) -> dict[tuple[int, int], int]:
        """The index of the edge joining two vertex indices, in either order."""
        at = {}
        for i, (x, y) in enumerate(self.ends):
            at[x, y] = at[y, x] = i
        return at

    @cached_property
    def elimination_plans(self) -> dict:
        """``density._route``'s elimination plans by (dims, budget), so a plan
        is made once per graph object and lives as long as it does."""
        return {}

    @property
    def n_vertices(self) -> int:
        return len(self.left) + len(self.right)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The vertex indices of each connected component, in the order of
        their least index."""
        seen: set[int] = set()
        comps = []
        for start in range(self.n_vertices):
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self.neighbours[x]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)


@dataclass(frozen=True)
class EdgeColouring:
    """0/1 colour vector, index-aligned with a graph's edge list."""

    colours: tuple[int, ...]

    def __post_init__(self):
        # check before converting: int() would turn 0.7 into a colour
        colours = tuple(self.colours)
        if not set(colours) <= {0, 1}:
            raise ValueError(f"colours must be 0 or 1, got {colours}")
        object.__setattr__(self, "colours", tuple(map(int, colours)))

    def __len__(self) -> int:
        return len(self.colours)

    def __getitem__(self, i: int) -> int:
        return self.colours[i]

    def __iter__(self):
        return iter(self.colours)


def check_aligned(g: BipartiteGraph, a: EdgeColouring) -> None:
    if len(a) != g.n_edges:
        raise ValueError(f"colouring length {len(a)} != edge count {g.n_edges}")


def _colouring_rows(n_edges: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the colourings of n_edges edges in product
    order, as a C-contiguous int8 matrix: row r spells r in binary, first
    edge most significant."""
    shifts = np.arange(n_edges - 1, -1, -1)
    return (np.arange(start, stop)[:, None] >> shifts & 1).astype(np.int8)


# -- small canonical families used throughout tests and the CLI -------------


def cycle(length: int) -> BipartiteGraph:
    """Even cycle C_length with vertices a0,b0,a1,b1,... and edges in cyclic order."""
    if length < 4 or length % 2:
        raise ValueError("cycle length must be an even integer >= 4")
    half = length // 2
    left = tuple(f"a{i}" for i in range(half))
    right = tuple(f"b{i}" for i in range(half))
    edges = []
    for i in range(half):
        edges.append((f"a{i}", f"b{i}"))
        edges.append((f"a{(i + 1) % half}", f"b{i}"))
    return BipartiteGraph(left, right, tuple(edges))


def complete_bipartite(m: int, n: int) -> BipartiteGraph:
    left = tuple(f"a{i}" for i in range(m))
    right = tuple(f"b{j}" for j in range(n))
    edges = tuple((u, v) for u in left for v in right)
    return BipartiteGraph(left, right, edges)


def star(leaves: int) -> BipartiteGraph:
    """K_{1,leaves} with the centre on the left."""
    return BipartiteGraph(("c",), tuple(f"b{j}" for j in range(leaves)),
                          tuple(("c", f"b{j}") for j in range(leaves)))


# -- structural predicates ---------------------------------------------------


def is_eulerian(g: BipartiteGraph) -> bool:
    """True iff every vertex has even degree."""
    return not any(d % 2 for d in g.degrees)


def is_biregular(g: BipartiteGraph) -> bool:
    """True iff all left degrees agree and all right degrees agree."""
    nl = len(g.left)
    return len(set(g.degrees[:nl])) <= 1 and len(set(g.degrees[nl:])) <= 1


def girth(g: BipartiteGraph) -> int | float:
    """Length of a shortest cycle, or math.inf for forests.

    Computed per edge: delete the edge, measure the shortest remaining path
    between its endpoints by a breadth-first search over ``neighbours``.
    Always even on bipartite input.
    """
    best: int | float = inf
    for u, v in g.ends:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if dist[x] + 1 >= best:
                continue
            for y in g.neighbours[x]:
                # the deleted edge is the one step from u straight to v
                if y not in dist and (x, y) != (u, v):
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def _arcs_out(g: BipartiteGraph, a: EdgeColouring) -> list[int]:
    """The arcs out of each vertex, by index, when the colouring orients the
    edges: colour 1 points left to right, colour 0 right to left.  The arcs
    into vertex x are ``g.degrees[x]`` minus its arcs out."""
    check_aligned(g, a)
    out = [0] * g.n_vertices
    for (x, y), c in zip(g.ends, a):
        out[x if c else y] += 1
    return out


def is_balanced(g: BipartiteGraph, a: EdgeColouring) -> bool:
    """True iff every vertex meets equally many edges of each colour, that
    is, has as many arcs out as in."""
    return all(2 * d_out == d for d_out, d in zip(_arcs_out(g, a), g.degrees))


def iter_balanced_colourings(
    g: BipartiteGraph, config: RunConfig = DEFAULT
) -> Iterator[EdgeColouring]:
    """Yield all balanced colourings in lexicographic order (0 before 1).

    Backtracks edge by edge with residual per-vertex feasibility bounds, so
    the work is proportional to the search tree rather than 2^e.  The walk
    is one loop over an explicit stack, one level per edge, so its depth is
    not bounded by the recursion limit.
    """
    if g.n_edges > config.cap_edges:
        raise CapExceeded("balanced-colouring enumeration", g.n_edges, config.cap_edges)
    # the edges still to colour at each vertex: at first, all of them
    remaining = list(g.degrees)
    if any(d % 2 for d in remaining):
        return
    half = [d // 2 for d in remaining]
    ends = g.ends
    ones = [0] * g.n_vertices
    m = g.n_edges
    colours = [0] * m
    tried = [0] * m  # the colours each edge on the stack has tried
    i = 0  # the edge being coloured: edges 0..i-1 are on the stack
    while True:
        if i == m:
            yield EdgeColouring(tuple(colours))
        else:
            u, v = ends[i]
            c = tried[i]
            if c < 2:
                if not c:
                    remaining[u] -= 1
                    remaining[v] -= 1
                tried[i] = c + 1
                ones[u] += c
                ones[v] += c
                # each end keeps at most half its edges in colour 1, and
                # enough edges still to colour to reach half
                if (ones[u] <= half[u] and ones[u] + remaining[u] >= half[u]
                        and ones[v] <= half[v] and ones[v] + remaining[v] >= half[v]):
                    colours[i] = c
                    i += 1
                    continue
                ones[u] -= c
                ones[v] -= c
                continue
            # both colours tried: hand the edge back
            remaining[u] += 1
            remaining[v] += 1
            tried[i] = 0
        if not i:
            return
        # step back to edge i - 1 and undo its colour; it tries its next one
        i -= 1
        u, v = ends[i]
        c = colours[i]
        ones[u] -= c
        ones[v] -= c


def _balanced_rows(g: BipartiteGraph, config: RunConfig = DEFAULT) -> np.ndarray:
    """The balanced colourings, in ``iter_balanced_colourings`` order, as the
    rows of a C-contiguous int8 ``(colourings x edges)`` matrix, of shape
    ``(0, e)`` when there are none."""
    rows = [c.colours for c in iter_balanced_colourings(g, config)]
    return np.array(rows, dtype=np.int8).reshape(len(rows), g.n_edges)


def count_two_edge_matchings(g: BipartiteGraph) -> int:
    """Number of unordered pairs of vertex-disjoint edges: every pair but
    those meeting at a vertex, and two distinct edges meet at one at most."""
    return comb(g.n_edges, 2) - sum(comb(d, 2) for d in g.degrees)


# -- JSON interchange --------------------------------------------------------


def graph_to_json(g: BipartiteGraph) -> dict:
    return {
        "left": list(g.left),
        "right": list(g.right),
        "edges": [[u, v] for u, v in g.edges],
    }


def _json_list(data, key: str) -> list:
    """``data[key]``, which must be a JSON list."""
    value = data[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def graph_from_json(data) -> BipartiteGraph:
    try:
        left = tuple(str(v) for v in _json_list(data, "left"))
        right = tuple(str(v) for v in _json_list(data, "right"))
        edges = _json_list(data, "edges")
        if not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError("each edge must be a list of two vertex ids")
        edges = tuple((str(u), str(v)) for u, v in edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph object: {exc}") from exc
    try:
        return BipartiteGraph(left, right, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def colouring_from_json(data) -> EdgeColouring:
    try:
        colours = _json_list(data, "colours")
        # JSON true and 1.0 equal 1 in Python; the format holds integers
        if not all(type(c) is int for c in colours):
            raise TypeError(f"colours must be the integers 0 and 1, got {colours}")
        return EdgeColouring(tuple(colours))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad colouring object: {exc}") from exc


def load_graph(path: str) -> BipartiteGraph:
    return graph_from_json(_load_json(path))


def load_colouring(path: str) -> EdgeColouring:
    return colouring_from_json(_load_json(path))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
