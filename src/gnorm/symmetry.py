"""Automorphism search and the colouring-symmetry hierarchy.

``_iso_maps`` is the package's one search for structure-preserving vertex
maps.  It backtracks over vertex images in maximum-cardinality-search order,
pruned by iterated degree/neighbourhood refinement, and can demand that edge
colours be preserved.  With ``side_swap=True`` (the default) maps may
exchange the two sides, i.e. the graph is treated as a usual undirected
graph; the strict mode restricts to side-preserving maps.  Hypergraph
symmetry runs on it through incidence graphs (``hypergraphs``) and
tournament symmetry through the subdivision bridge (``certify``).  Groups at
the supported scale are small enough to materialise, which keeps every orbit
question exact and trivially checkable.

A materialised group is turned once into an ``(automorphisms x edges)`` edge
table: row ``k`` maps edge ``i`` to edge ``table[k, i]``.  Because the rows are
the whole group, an orbit is the set of distinct entries in one column (of
this table, or of the vertex image table for vertex orbits), and the colouring
checks are array passes over the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT, RunConfig
from .errors import CapExceeded
from .graphs import BipartiteGraph, EdgeColouring, check_aligned, is_balanced


@dataclass(frozen=True)
class Automorphism:
    """A vertex permutation given as image indices over ``g.vertices``."""

    images: tuple[int, ...]

    def vertex_map(self, g: BipartiteGraph) -> dict[str, str]:
        verts = g.vertices
        return {verts[i]: verts[j] for i, j in enumerate(self.images)}

    def edge_permutation(self, g: BipartiteGraph) -> tuple[int, ...]:
        """Edge-index permutation induced by the vertex map."""
        vidx = g.vertex_index
        verts = g.vertices
        eidx = g.edge_index
        perm = []
        for u, v in g.edges:
            iu, iv = self.images[vidx[u]], self.images[vidx[v]]
            a, b = verts[iu], verts[iv]
            if (a, b) in eidx:
                perm.append(eidx[(a, b)])
            else:
                perm.append(eidx[(b, a)])
        return tuple(perm)


@dataclass(frozen=True)
class SymmetryReport:
    edge_transitive: bool
    vertex_transitive: bool
    generators: tuple[Automorphism, ...]
    group_order: int
    side_swap: bool

    def to_json(self, g: BipartiteGraph) -> dict:
        return {
            "edge_transitive": self.edge_transitive,
            "vertex_transitive": self.vertex_transitive,
            "group_order": self.group_order,
            "side_swap": self.side_swap,
            "generators": [
                [gen.vertex_map(g)[v] for v in g.vertices] for gen in self.generators
            ],
            "vertex_order": list(g.vertices),
        }


# -- refinement and backtracking ---------------------------------------------


def _refine(adj: list[list[int]], colours: list[int]) -> list[int]:
    """Iterated neighbourhood refinement of a vertex colouring (1-WL)."""
    n = len(adj)
    while True:
        sig = [
            (colours[v], tuple(sorted(colours[w] for w in adj[v]))) for v in range(n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[s] for s in sig]
        if new == colours:
            return colours
        colours = new


def _index_graph(g: BipartiteGraph) -> tuple[list[list[int]], list[frozenset[int]]]:
    vidx = g.vertex_index
    adj: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for u, v in g.edges:
        adj[vidx[u]].append(vidx[v])
        adj[vidx[v]].append(vidx[u])
    nbrsets = [frozenset(ns) for ns in adj]
    return adj, nbrsets


def _iso_maps(
    g1: BipartiteGraph,
    g2: BipartiteGraph,
    side_swap: bool,
    edge_colour_pair: tuple[EdgeColouring, EdgeColouring] | None = None,
    limit: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield vertex maps (index form) carrying g1 onto g2.

    With ``side_swap`` the graphs are treated as usual undirected graphs (no
    side constraint at all, so per-component side flips are included);
    otherwise maps must carry left to left.  With a colour pair the map must
    additionally carry each edge of g1 to an edge of g2 of the same colour.
    """
    if (g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges):
        return

    adj1, nbr1 = _index_graph(g1)
    adj2, nbr2 = _index_graph(g2)
    n = g1.n_vertices
    nl1, nl2 = len(g1.left), len(g2.left)

    ecol1 = ecol2 = None
    if edge_colour_pair is not None:
        a1, a2 = edge_colour_pair
        vidx1, vidx2 = g1.vertex_index, g2.vertex_index
        ecol1 = {}
        for i, (u, v) in enumerate(g1.edges):
            ecol1[(vidx1[u], vidx1[v])] = a1[i]
            ecol1[(vidx1[v], vidx1[u])] = a1[i]
        ecol2 = {}
        for i, (u, v) in enumerate(g2.edges):
            ecol2[(vidx2[u], vidx2[v])] = a2[i]
            ecol2[(vidx2[v], vidx2[u])] = a2[i]

    # Initial colours: degree, plus the side tag in the strict mode; refine.
    if side_swap:
        c1 = [(0, len(adj1[v])) for v in range(n)]
        c2 = [(0, len(adj2[v])) for v in range(n)]
    else:
        if nl1 != nl2:
            return
        c1 = [(0 if v < nl1 else 1, len(adj1[v])) for v in range(n)]
        c2 = [(0 if v < nl2 else 1, len(adj2[v])) for v in range(n)]
    order = {s: i for i, s in enumerate(sorted(set(c1) | set(c2)))}
    col1 = _refine(adj1, [order[s] for s in c1])
    col2 = _refine(adj2, [order[s] for s in c2])
    if sorted(col1) != sorted(col2):
        return

    # Map vertices in maximum-cardinality-search order: next comes the vertex
    # with the most already-placed neighbours, ties going to the rarest
    # refined class, then to the index.  Candidates come from the
    # intersection of the placed neighbours' image neighbourhoods, so the
    # more of them there are, the fewer candidates survive.  A BFS order
    # would place every edge at a vertex of an incidence graph before any of
    # their other ends, each with one placed neighbour, and branch on all.
    class_size = {c: col2.count(c) for c in set(col2)}
    placed = [0] * n
    unplaced = set(range(n))
    vorder: list[int] = []
    while unplaced:
        x = min(unplaced, key=lambda v: (-placed[v], class_size[col1[v]], v))
        unplaced.remove(x)
        vorder.append(x)
        for y in adj1[x]:
            placed[y] += 1

    images: list[int] = [-1] * n
    used = [False] * n
    mapped_images: set[int] = set()
    count = 0

    def candidates(v: int) -> list[int]:
        mapped_nbrs = [x for x in adj1[v] if images[x] >= 0]
        if mapped_nbrs:
            pool = set(nbr2[images[mapped_nbrs[0]]])
            for x in mapped_nbrs[1:]:
                pool &= nbr2[images[x]]
        else:
            pool = set(range(n))
        cands = []
        want_mapped_degree = len(mapped_nbrs)
        for w in sorted(pool):
            if used[w] or col2[w] != col1[v]:
                continue
            # no extra adjacencies into the mapped image: preserves non-edges
            if len(nbr2[w] & mapped_images) != want_mapped_degree:
                continue
            if ecol1 is not None and any(
                ecol1[(v, x)] != ecol2[(w, images[x])] for x in mapped_nbrs
            ):
                continue
            cands.append(w)
        return cands

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        nonlocal count
        if limit is not None and count >= limit:
            return
        if i == n:
            count += 1
            yield tuple(images)
            return
        v = vorder[i]
        for w in candidates(v):
            images[v] = w
            used[w] = True
            mapped_images.add(w)
            yield from rec(i + 1)
            images[v] = -1
            used[w] = False
            mapped_images.remove(w)

    yield from rec(0)


def _all_automorphisms(
    g: BipartiteGraph, side_swap: bool, config: RunConfig
) -> list[Automorphism]:
    if g.n_vertices > config.cap_vertices:
        raise CapExceeded("automorphism search", g.n_vertices, config.cap_vertices)
    autos = []
    for images in _iso_maps(g, g, side_swap, limit=config.cap_group + 1):
        autos.append(Automorphism(images))
    if len(autos) > config.cap_group:
        raise CapExceeded("automorphism group size", len(autos), config.cap_group)
    return autos


def _edge_table(g: BipartiteGraph, autos: list[Automorphism]) -> np.ndarray:
    """``(automorphisms x edges)`` table: row k maps edge i to ``table[k, i]``.

    Row k agrees with ``autos[k].edge_permutation(g)``.  The entries are
    ``intp``, so indexing a colour vector with the table needs no cast.
    """
    vidx = g.vertex_index
    ends = [(vidx[x], vidx[y]) for x, y in g.edges]
    edge_at = np.zeros((g.n_vertices, g.n_vertices), dtype=np.intp)
    for i, (x, y) in enumerate(ends):
        edge_at[x, y] = edge_at[y, x] = i
    images = np.array([a.images for a in autos], dtype=np.int32)
    table = np.empty((len(autos), g.n_edges), dtype=np.intp)
    # one column at a time, so the index temporaries stay one column long
    for i, (x, y) in enumerate(ends):
        table[:, i] = edge_at[images[:, x], images[:, y]]
    return table


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[a[i]] for i in range(len(a)))


def _closure(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = _compose(p, q)
                if r not in group:
                    group.add(r)
                    nxt.append(r)
        frontier = nxt
    return group


def _generators(autos: list[Automorphism], n: int) -> list[Automorphism]:
    """Greedy generating subset (incremental closure)."""
    gens: list[tuple[int, ...]] = []
    known = {tuple(range(n))}
    for a in autos:
        if a.images not in known:
            gens.append(a.images)
            known = _closure(gens, n)
        if len(known) == len(autos):
            break
    return [Automorphism(p) for p in gens]


def automorphisms(
    g: BipartiteGraph, side_swap: bool = True, config: RunConfig = DEFAULT
) -> SymmetryReport:
    """Exact automorphism group: generators, order, and transitivity flags."""
    autos = _all_automorphisms(g, side_swap, config)
    # the group is complete, so the images of edge 0 and of vertex 0 are their
    # orbits: column 0 of the edge and of the vertex image table, read on
    # their own rather than from a whole (|Aut| x edges) table
    edge_transitive = vertex_transitive = True
    if g.n_edges:
        x, y = (g.vertex_index[v] for v in g.edges[0])
        edge_orbit = {frozenset((a.images[x], a.images[y])) for a in autos}
        edge_transitive = len(edge_orbit) == g.n_edges
        vertex_transitive = len({a.images[0] for a in autos}) == g.n_vertices
    gens = _generators(autos, g.n_vertices)
    return SymmetryReport(
        edge_transitive=edge_transitive,
        vertex_transitive=vertex_transitive,
        generators=tuple(gens),
        group_order=len(autos),
        side_swap=side_swap,
    )


def is_edge_transitive(
    g: BipartiteGraph, side_swap: bool = True, config: RunConfig = DEFAULT
) -> bool:
    return automorphisms(g, side_swap, config).edge_transitive


def isomorphic(
    g1: BipartiteGraph,
    g2: BipartiteGraph,
    side_swap: bool = True,
    config: RunConfig = DEFAULT,
) -> bool:
    """Graph isomorphism; ``side_swap=False`` demands an orientation-respecting map."""
    if max(g1.n_vertices, g2.n_vertices) > config.cap_vertices:
        raise CapExceeded("isomorphism search", max(g1.n_vertices, g2.n_vertices),
                          config.cap_vertices)
    return next(_iso_maps(g1, g2, side_swap, limit=1), None) is not None


def coloured_isomorphic(
    g1: BipartiteGraph,
    a1: EdgeColouring,
    g2: BipartiteGraph,
    a2: EdgeColouring,
    side_swap: bool = True,
    config: RunConfig = DEFAULT,
) -> bool:
    """True iff a colour-preserving isomorphism exists."""
    check_aligned(g1, a1)
    check_aligned(g2, a2)
    if max(g1.n_vertices, g2.n_vertices) > config.cap_vertices:
        raise CapExceeded("isomorphism search", max(g1.n_vertices, g2.n_vertices),
                          config.cap_vertices)
    if sorted(a1.colours) != sorted(a2.colours):
        return False
    return next(_iso_maps(g1, g2, side_swap, (a1, a2), limit=1), None) is not None


# -- colouring symmetry ------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyVerdict:
    ok: bool
    balanced: bool
    witness: Optional[Automorphism]

    def __bool__(self) -> bool:
        return self.ok


def is_self_conjugate(
    g: BipartiteGraph,
    a: EdgeColouring,
    side_swap: bool = True,
    config: RunConfig = DEFAULT,
) -> ConjugacyVerdict:
    """Balanced and some automorphism flips every edge colour.

    Unbalanced inputs are not self-conjugate by definition; the verdict flags
    the reason so callers can tell the two failure modes apart.
    """
    check_aligned(g, a)
    if not is_balanced(g, a):
        return ConjugacyVerdict(False, False, None)
    autos = _all_automorphisms(g, side_swap, config)
    _, reversing = _colour_action(_edge_table(g, autos), a.colours)
    if not reversing.any():
        return ConjugacyVerdict(False, True, None)
    return ConjugacyVerdict(True, True, autos[int(np.argmax(reversing))])


def is_transitive_colouring(
    g: BipartiteGraph,
    a: EdgeColouring,
    side_swap: bool = True,
    config: RunConfig = DEFAULT,
) -> bool:
    """Balanced, and same-colour (resp. opposite-colour) edge pairs are linked
    by colour-preserving (resp. colour-reversing) automorphisms."""
    check_aligned(g, a)
    if not is_balanced(g, a):
        return False
    if g.n_edges == 0:
        return True
    autos = _all_automorphisms(g, side_swap, config)
    return _transitive_under(g, a, _edge_table(g, autos))


@dataclass(frozen=True)
class TransitiveSearch:
    colouring: Optional[EdgeColouring]
    exhausted: bool
    tested: int

    @property
    def present(self) -> bool:
        return self.colouring is not None


def exists_transitive_colouring(
    g: BipartiteGraph,
    side_swap: bool = True,
    config: RunConfig = DEFAULT,
    max_candidates: int | None = None,
) -> TransitiveSearch:
    """First transitive colouring in lexicographic order among balanced ones.

    The group is computed once and reused across candidates.  When
    ``max_candidates`` truncates the scan, ``exhausted`` is False.
    """
    from .graphs import iter_balanced_colourings

    perms = _edge_table(g, _all_automorphisms(g, side_swap, config))
    tested = 0
    for cand in iter_balanced_colourings(g, config):
        if max_candidates is not None and tested >= max_candidates:
            return TransitiveSearch(None, False, tested)
        tested += 1
        if _transitive_under(g, cand, perms):
            return TransitiveSearch(cand, True, tested)
    return TransitiveSearch(None, True, tested)


def _colour_action(table: np.ndarray, colours) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over the rows of an edge table: (colour-preserving,
    colour-reversing).  With no edges every row counts as preserving only."""
    col = np.asarray(colours, dtype=np.int8)
    image = col[table]
    preserving = (image == col).all(axis=1)
    return preserving, (image != col).all(axis=1) & ~preserving


def _transitive_under(g: BipartiteGraph, a: EdgeColouring, perms: np.ndarray) -> bool:
    """Is the colouring transitive under the group given by its edge table?

    ``perms`` must be the edge table (``_edge_table``) of the *whole* group.
    Equivalent check: the colour-preserving maps act transitively on each
    colour class and at least one colour-reversing map exists (composing it
    with preserving maps then reaches every opposite-colour pair).  The
    preserving rows of the whole group form a subgroup, so the images of a
    class's first edge under them are exactly that edge's orbit.
    """
    col = np.asarray(a.colours, dtype=np.int8)
    preserving, reversing = _colour_action(perms, col)
    return bool(reversing.any()) and all(
        _class_transitive(perms, preserving, col, colour) for colour in (0, 1))


def _class_transitive(perms: np.ndarray, preserving: np.ndarray, colours,
                      colour: int) -> bool:
    """Do the ``preserving`` rows of an edge table act transitively on one
    colour class?  When they form a group (the colour-preserving rows of a
    whole group do), the images of the class's first edge are its orbit."""
    cls = np.flatnonzero(np.asarray(colours, dtype=np.int8) == colour)
    return not cls.size or len(set(perms[preserving, cls[0]].tolist())) == cls.size
