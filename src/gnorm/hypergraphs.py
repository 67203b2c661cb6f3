"""Uniform hypergraphs: link construction, self-complementarity and
edge-transitivity.

A vertex permutation of a hypergraph is a side-preserving map between
incidence graphs (vertices on the left, edges on the right), so the
permutation searches run on the automorphism engine of ``symmetry``; the
vertices in no edge are permuted among themselves.  They are exact at the
supported scale (vertex cap 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterator, Optional

from .config import DEFAULT, RunConfig
from .errors import CapExceeded, UnknownVertex
from .graphs import BipartiteGraph, EdgeColouring, check_aligned
from .constructions import parse_set_id
from .symmetry import _iso_maps


@dataclass(frozen=True)
class UniformHypergraph:
    """r-uniform hypergraph on an ordered vertex tuple."""

    vertices: tuple[int, ...]
    r: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", frozenset(frozenset(e) for e in self.edges)
        )
        vs = set(self.vertices)
        for e in self.edges:
            if len(e) != self.r or not e <= vs:
                raise ValueError(f"edge {sorted(e)} is not an r-set of the vertices")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def complement(self) -> "UniformHypergraph":
        all_sets = {frozenset(c) for c in combinations(self.vertices, self.r)}
        return UniformHypergraph(self.vertices, self.r, frozenset(all_sets - self.edges))

    @cached_property
    def degree(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "r": self.r,
            "edges": sorted(sorted(e) for e in self.edges),
        }


def link_hypergraph(
    g: BipartiteGraph, a: EdgeColouring, left_vertex: str
) -> UniformHypergraph:
    """Colour-1 link of a left vertex in a set-inclusion graph.

    The vertex id must be a comma-joined sorted set (the construction
    convention); the link's edges are its colour-1 neighbours as subsets.
    """
    check_aligned(g, a)
    if left_vertex not in g.vertex_index or not g.is_left(left_vertex):
        raise UnknownVertex(f"{left_vertex!r} is not a left vertex")
    base = parse_set_id(left_vertex)
    edges = []
    r = None
    for i, (u, v) in enumerate(g.edges):
        if u != left_vertex:
            continue
        small = parse_set_id(v)
        if not set(small) <= set(base):
            raise ValueError(f"neighbour {v!r} is not a subset of {left_vertex!r}")
        r = len(small)
        if a[i] == 1:
            edges.append(frozenset(small))
    if r is None:
        raise ValueError(f"{left_vertex!r} has no neighbours")
    return UniformHypergraph(tuple(base), r, frozenset(edges))


# -- permutation searches --------------------------------------------------------


def _incidence(h: UniformHypergraph, edges) -> tuple[BipartiteGraph, list[int]]:
    """Incidence graph of ``edges`` over h's vertices, and its left side.

    The vertices that lie in some edge go on the left, in h's order, and one
    vertex per edge, in sorted order, on the right.  The vertices in no edge
    are left out, because a ``BipartiteGraph`` has no isolated vertices.
    """
    rows = sorted(sorted(e) for e in edges)
    covered = [v for v in h.vertices if any(v in e for e in edges)]
    right = tuple(f"e{i}" for i in range(len(rows)))
    pairs = tuple((str(v), right[i]) for i, e in enumerate(rows) for v in e)
    return BipartiteGraph(tuple(map(str, covered)), right, pairs), covered


def _edge_maps(
    h: UniformHypergraph,
    target_edges: frozenset[frozenset[int]],
    config: RunConfig,
    limit: Optional[int] = None,
) -> Iterator[dict[int, int]]:
    """Vertex bijections carrying h's edges onto ``target_edges``.

    They are the side-preserving maps between the two incidence graphs
    (``symmetry._iso_maps``), given on the vertices that lie in some edge.
    The vertices in no edge (equally many on both sides when a map exists)
    may go to one another in any way; callers extend the map over them.
    """
    if h.n > config.cap_hypergraph_vertices:
        raise CapExceeded("hypergraph permutation search", h.n,
                          config.cap_hypergraph_vertices)
    g1, left1 = _incidence(h, h.edges)
    g2, left2 = _incidence(h, target_edges)
    for images in _iso_maps(g1, g2, False, limit=limit):
        yield {v: left2[images[i]] for i, v in enumerate(left1)}


def hypergraph_is_self_complementary(
    h: UniformHypergraph, config: RunConfig = DEFAULT
) -> bool:
    """Does some vertex permutation map the edge set onto its complement?"""
    from math import comb

    if h.n > config.cap_hypergraph_vertices:
        raise CapExceeded("hypergraph permutation search", h.n,
                          config.cap_hypergraph_vertices)
    if len(h.edges) * 2 != comb(h.n, h.r):
        return False
    return next(_edge_maps(h, h.complement().edges, config, limit=1), None) is not None


def hypergraph_automorphisms(
    h: UniformHypergraph, config: RunConfig = DEFAULT
) -> list[dict[int, int]]:
    """Every automorphism, as a map over all of h's vertices."""
    isolated = [v for v in h.vertices if not h.degree[v]]
    return [
        {**image, **dict(zip(isolated, perm))}
        for image in _edge_maps(h, h.edges, config)
        for perm in permutations(isolated)
    ]


def hypergraph_is_edge_transitive(
    h: UniformHypergraph, config: RunConfig = DEFAULT
) -> bool:
    """Single orbit on edges under the full automorphism group: the images of
    one edge under every automorphism cover all edges."""
    if not h.edges:
        return True
    first = min(h.edges, key=sorted)
    orbit = {frozenset(image[v] for v in first) for image in _edge_maps(h, h.edges, config)}
    return len(orbit) == len(h.edges)
