"""Graph and tournament families: hypercubes with their two canonical
balanced colourings, 1-subdivisions, set-inclusion and bipartite Kneser
graphs, and circulant / quadratic-residue tournaments.

Vertex id conventions: hypercube vertices are bitstrings (coordinate 0 is the
leftmost character), subdivision vertices are "u|v" for the original edge
{u, v} with u first in the branch vertex order, k-sets are comma-joined
sorted integers.  Q_d's edges are one integer list, ``_cube_edges``, of even
ends and flipped coordinates: ``hypercube`` names its ends, and the
colourings α and β read its coordinates.

The subdivision bridge: in ``subdivided_complete(n)`` the pair p = {i, j},
in lexicographic order, owns edges 2p and 2p + 1, from i and from j, and
colour 1 marks the tail of the pair's arc (``_edge_arcs``).  The balanced
colourings are then exactly the regular tournaments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .arithmetic import is_prime
from .config import DEFAULT
from .errors import CapExceeded, InvalidParameter
from .graphs import BipartiteGraph, EdgeColouring, check_aligned, iter_balanced_colourings


# -- hypercubes ----------------------------------------------------------------


def _cube_edges(d: int) -> list[tuple[int, int]]:
    """Q_d's edges as (x, j): x is the even-weight end and j the flipped
    coordinate, ordered by (smaller endpoint value, j)."""
    if d < 1:
        raise InvalidParameter("hypercube dimension must be >= 1")
    if d > 10:
        raise CapExceeded("hypercube construction", d, 10)
    return [(v if v.bit_count() % 2 == 0 else v | 1 << j, j)
            for v in range(1 << d) for j in range(d) if not v >> j & 1]  # v the smaller end


def hypercube(d: int) -> BipartiteGraph:
    """Q_d on bitstrings; even-weight vertices form the left side.

    Edges are ordered by (smaller endpoint value, flipped coordinate).
    """
    edges = _cube_edges(d)
    names = [format(v, f"0{d}b")[::-1] for v in range(1 << d)]  # coordinate j = character j
    left, right = ([names[v] for v in range(1 << d) if v.bit_count() % 2 == s] for s in (0, 1))
    return BipartiteGraph(tuple(left), tuple(right),
                          tuple((names[x], names[x ^ 1 << j]) for x, j in edges))


def hypercube_alpha(d: int) -> EdgeColouring:
    """Direction colouring of Q_d (d even): first d/2 axes get colour 1."""
    if d % 2:
        raise InvalidParameter("direction colouring needs an even dimension")
    return EdgeColouring(tuple(int(j < d // 2) for _, j in _cube_edges(d)))


def hypercube_beta(d: int) -> EdgeColouring:
    """The F2-formula colouring of Q_d (d even): no monochromatic 4-cycle.

    For the edge {x, x + e_j} with m = d/2:
    weight(x) + x_j + x_{j+m} for j < m, weight(x) + x_j + x_{j-m} + 1 else,
    all mod 2; the expression is invariant under swapping the endpoints, and
    weight(x) is even at the even end that ``_cube_edges`` names.
    """
    if d % 2:
        raise InvalidParameter("this colouring needs an even dimension")
    m = d // 2
    return EdgeColouring(tuple((x >> j ^ x >> (j + m) % d ^ (j >= m)) & 1
                               for x, j in _cube_edges(d)))


# -- subdivisions ---------------------------------------------------------------


def subdivide(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]]
) -> BipartiteGraph:
    """1-subdivision of a simple graph: branch vertices on the left,
    subdivision vertices ("u|v", u before v in ``vertices``) on the right,
    and the edges from u and from v to "u|v" in that order."""
    vertices = tuple(str(v) for v in vertices)
    rank = {v: i for i, v in enumerate(vertices)}
    norm, seen = [], set()
    for u, v in edges:
        u, v = str(u), str(v)
        if u == v:
            raise ValueError("loops not allowed")
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        for x in (u, v):
            if x not in rank:
                raise ValueError(f"edge ({u!r}, {v!r}) has an end {x!r} outside the vertices")
        norm.append(tuple(sorted(key, key=rank.__getitem__)))
    mids = tuple(f"{u}|{v}" for u, v in norm)
    return BipartiteGraph(vertices, mids,
                          tuple((x, mid) for ends, mid in zip(norm, mids) for x in ends))


def subdivided_complete(n: int) -> BipartiteGraph:
    if n < 2:
        raise InvalidParameter("need n >= 2")
    verts = [str(i) for i in range(n)]
    edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
    return subdivide(verts, edges)


# -- tournaments ----------------------------------------------------------------


@dataclass(frozen=True)
class Tournament:
    """Orientation of K_n on vertices 0..n-1; exactly one arc per pair."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        arcs = tuple(sorted([(int(x), int(y)) for x, y in self.arcs]))
        object.__setattr__(self, "arcs", arcs)
        # name the first fault in arc order; distinct pairs of 0..n-1 that
        # number n(n-1)/2 are all of them
        seen = set()
        for x, y in arcs:
            key = (x, y) if x < y else (y, x)
            if not 0 <= key[0] < key[1] < self.n:
                raise ValueError(f"bad arc ({x}, {y})")
            if key in seen:
                raise ValueError(f"pair {{{x}, {y}}} oriented twice")
            seen.add(key)
        if len(seen) != self.n * (self.n - 1) // 2:
            raise ValueError("every pair needs exactly one arc")

    @cached_property
    def out_neighbours(self) -> tuple[frozenset[int], ...]:
        outs: list[set[int]] = [set() for _ in range(self.n)]
        for x, y in self.arcs:
            outs[x].add(y)
        return tuple(frozenset(s) for s in outs)

    def is_regular(self) -> bool:
        d = (self.n - 1) / 2
        return all(len(s) == d for s in self.out_neighbours)

    def to_json(self) -> dict:
        return {"n": self.n, "arcs": [list(a) for a in self.arcs]}


def clockwise_tournament(n: int) -> Tournament:
    """Circulant tournament on Z_n (n odd): arc (x, x+k) for k = 1..(n-1)/2."""
    if n < 3 or n % 2 == 0:
        raise InvalidParameter("clockwise tournament needs odd n >= 3")
    d = (n - 1) // 2
    arcs = [(x, (x + k) % n) for x in range(n) for k in range(1, d + 1)]
    return Tournament(n, tuple(arcs))


def quadratic_residue_tournament(q: int) -> Tournament:
    """Paley tournament on GF(q): arc (x, y) iff y - x is a nonzero square.

    Only prime q is supported; q = 3 (mod 4) makes exactly one of +-r a
    square, so the arcs are well defined.
    """
    if not is_prime(q):
        raise InvalidParameter(f"{q} is not prime (prime powers are not supported)")
    if q % 4 != 3:
        raise InvalidParameter(f"need q = 3 (mod 4), got {q} = {q % 4} (mod 4)")
    residues = {(z * z) % q for z in range(1, q)}
    arcs = [(x, (x + r) % q) for x in range(q) for r in residues]
    return Tournament(q, tuple(arcs))


def count_directed_cycles(t: Tournament, m: int) -> int:
    """Exact count of directed m-cycles, m in {3, 4}: trace(A^m) / m for the
    0/1 arc matrix A.

    A closed walk of length 3 or 4 that repeats a vertex needs a loop or a
    2-cycle, and a tournament has neither, so every closed m-walk is a
    directed m-cycle read from one of its m starting vertices.
    """
    if m not in (3, 4):
        raise ValueError("only directed 3- and 4-cycles are supported")
    adj = np.zeros((t.n, t.n), dtype=np.int64)
    tails, heads = np.array(t.arcs, dtype=np.intp).reshape(-1, 2).T
    adj[tails, heads] = 1
    return int(np.trace(np.linalg.matrix_power(adj, m))) // m


# -- the subdivision bridge ------------------------------------------------------


def _edge_arcs(g: BipartiteGraph) -> list[tuple[int, int]]:
    """The arc that each edge of subdivided K_n stands for when it has colour
    1: from its own end in K_n to the other end of its pair (edge k ^ 1)."""
    ends = [x for x, _ in g.ends]  # left index i is K_n's vertex i
    return [(x, ends[k ^ 1]) for k, x in enumerate(ends)]


def regular_tournaments(n: int) -> Iterator[Tournament]:
    """All labelled regular tournaments on n vertices (n odd): the balanced
    colourings of subdivided K_n, in the enumerator's order, read through
    the bridge layout."""
    if n % 2 == 0:
        raise InvalidParameter("regular tournaments need odd n")
    if n < 1:
        raise InvalidParameter(f"regular tournaments need n >= 1, got {n}")
    if n == 1:
        yield Tournament(1, ())
        return
    g = subdivided_complete(n)
    arcs = _edge_arcs(g)
    for a in iter_balanced_colourings(g, DEFAULT.with_(cap_edges=g.n_edges)):
        yield Tournament(n, tuple(xy for xy, c in zip(arcs, a.colours) if c))


def colouring_from_tournament(t: Tournament) -> tuple[BipartiteGraph, EdgeColouring]:
    """Subdivided K_n coloured from a tournament: the arc (x, y) puts colour 1
    on the edge from x to the subdivision vertex and colour 0 on the edge
    from y.  The result is balanced when t is regular, and its alternating
    2m-cycles correspond to the tournament's directed m-cycles."""
    g, arcs = subdivided_complete(t.n), set(t.arcs)
    return g, EdgeColouring(tuple(int(xy in arcs) for xy in _edge_arcs(g)))


def tournament_from_colouring(g: BipartiteGraph, a: EdgeColouring) -> Tournament:
    """Recover the tournament from a balanced colouring of a subdivided K_n.

    Each right-side vertex must have degree 2 with oppositely coloured edges;
    the colour-1 endpoint becomes the arc's tail, left index i standing for
    vertex i, as in ``_edge_arcs``.
    """
    check_aligned(g, a)
    arcs, pairs = [], set()
    for m, mid in enumerate(g.right, len(g.left)):
        ends = g.neighbours[m]
        if len(ends) != 2:
            raise ValueError(f"vertex {mid!r} is not a subdivision vertex")
        u, v = ends
        cu, cv = (a[g.edge_at[x, m]] for x in ends)
        if cu == cv:
            raise ValueError(f"edges at {mid!r} share colour {cu}")
        arcs.append((u, v) if cu == 1 else (v, u))
        pairs.add(ends)
    n = len(g.left)
    if len(pairs) != n * (n - 1) // 2:
        raise ValueError("underlying graph is not a complete graph subdivision")
    return Tournament(n, tuple(arcs))


# -- set-inclusion and bipartite Kneser graphs -----------------------------------


def set_id(s: Sequence[int]) -> str:
    return ",".join(str(x) for x in sorted(s))


def set_inclusion_graph(n: int, k: int, r: int) -> BipartiteGraph:
    """I(n, k, r): k-sets of {1..n} on the left, r-sets on the right, edges
    given by inclusion.  Requires n > k > r > 0."""
    if not (n > k > r > 0):
        raise InvalidParameter(f"need n > k > r > 0, got ({n}, {k}, {r})")
    n_edges = comb(n, k) * comb(k, r)
    if n_edges > 200_000:
        raise CapExceeded("set-inclusion construction", n_edges, 200_000)
    left = tuple(set_id(c) for c in combinations(range(1, n + 1), k))
    right = tuple(set_id(c) for c in combinations(range(1, n + 1), r))
    edges = []
    for big in combinations(range(1, n + 1), k):
        bid = set_id(big)
        for small in combinations(big, r):
            edges.append((bid, set_id(small)))
    return BipartiteGraph(left, right, tuple(edges))


def bipartite_kneser(n: int, r: int) -> BipartiteGraph:
    """H(n, r) = I(n, n-r, r); needs n - r > r."""
    if not (0 < r and n - r > r):
        raise InvalidParameter(f"need n - r > r > 0, got ({n}, {r})")
    return set_inclusion_graph(n, n - r, r)
