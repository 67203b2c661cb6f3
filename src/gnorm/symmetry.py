"""Automorphism search and the colouring-symmetry hierarchy.

``_Search`` is the package's one search for structure-preserving vertex
maps.  It backtracks over vertex images in maximum-cardinality-search order
(``vorder``), pruned by iterated degree/neighbourhood refinement, and can
demand that edge colours be preserved.  With ``RunConfig.side_swap`` on (the
default) maps may exchange the two sides, i.e. the graph is treated as a
usual undirected graph; the strict mode restricts to side-preserving maps.
The public functions read the mode from their ``config``: ``isomorphic``
asks it for a first map, and ``automorphisms`` for the whole group.

The automorphism group comes from the stabiliser chain along ``vorder``:
level i fixes ``vorder[:i]`` pointwise, and its transversal holds one map
for each image of ``vorder[i]`` that the level's group reaches
(``_transversals``).  The levels are walked deepest first and every map the
search finds is kept, so most maps are read off the orbit those generators
already reach, and a search runs only for an image that lies outside it and
outside the orbit of an image that already failed (orbit pruning).  The
group is the product of the transversals, so its exact order is known, and
checked against ``_GROUP_CAP``, before any element is formed.  The elements
are then composed in numpy, and the group stays that one ``(order x
vertices)`` int32 array of image rows (``_all_automorphisms``); no reader
depends on their order.  Groups at the supported scale are small enough to
materialise, which keeps every orbit question exact and trivially checkable.

The group array is turned, by a gather through a (vertex, vertex) -> edge
index, into an ``(automorphisms x edges)`` edge table: row ``k`` maps edge
``i`` to edge ``table[k, i]``.  Because the rows are the whole group, an orbit
is the set of distinct entries in one column (of this table, or of the group
array for vertex orbits), and the colouring checks are array passes over the
table: ``_colour_action`` splits the rows into colour-preserving and
colour-reversing maps (a colouring is self-conjugate when some row reverses
it), and ``_transitive_under``, the one colouring-symmetry check, decides
transitivity.  The group stays in this module: ``automorphisms`` answers for
one colouring and ``_orbit_mask`` for a set of them, each from one search.

Whether a colouring is transitive does not change under an automorphism or
under conjugation.  Moving colouring c by an automorphism s conjugates its
colour-preserving and colour-reversing maps by s, and swapping c's colours
keeps both sets of maps and swaps the classes.  So a set of colourings that
is closed under the group and under conjugation, such as the balanced ones,
needs one check per orbit (``_orbit_mask``, the transitive filter, which
searches the whole group itself): with the whole group's table, the images
``c[table]`` and ``1 - c[table]`` of a row c are its whole orbit, and a
binary search over the rows' packed keys finds them.
"""
from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT, RunConfig
from .errors import CapExceeded, VerificationFailed
from .graphs import BipartiteGraph, EdgeColouring

_GROUP_CAP = 1_000_000  # the largest group materialised; fixed, as in ``hypercube``


@dataclass(frozen=True)
class SymmetryReport:
    edge_transitive: bool
    vertex_transitive: bool
    group_order: int
    self_conjugate: Optional[bool] = None  # of the colouring asked about, if any
    transitive: Optional[bool] = None


# -- refinement and backtracking ---------------------------------------------


def _refine(adj: tuple[tuple[int, ...], ...], colours: list[int]) -> list[int]:
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


class _Search:
    """The backtracking search for vertex maps carrying g1 onto g2.

    One setup serves every question asked of it: the refined vertex classes,
    the placement order ``vorder`` and the ``candidates`` rule.  With
    ``side_swap`` the graphs are treated as usual undirected graphs (no side
    constraint at all, so per-component side flips are included); otherwise
    maps must carry left to left.  With a colour pair the map must
    additionally carry each edge of g1 to an edge of g2 of the same colour.
    ``feasible`` is False when the invariants already rule every map out.
    """

    def __init__(
        self,
        g1: BipartiteGraph,
        g2: BipartiteGraph,
        side_swap: bool,
        edge_colour_pair: tuple[EdgeColouring, EdgeColouring] | None = None,
    ):
        self.feasible = False
        if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
            return
        adj1, adj2 = g1.neighbours, g2.neighbours
        n = g1.n_vertices
        nl1, nl2 = len(g1.left), len(g2.left)

        # Initial colours: degree, plus the side tag in the strict mode; refine.
        if side_swap:
            c1 = [(0, d) for d in g1.degrees]
            c2 = [(0, d) for d in g2.degrees]
        else:
            if nl1 != nl2:
                return
            c1 = [(0 if v < nl1 else 1, d) for v, d in enumerate(g1.degrees)]
            c2 = [(0 if v < nl2 else 1, d) for v, d in enumerate(g2.degrees)]
        order = {s: i for i, s in enumerate(sorted(set(c1) | set(c2)))}
        col1 = _refine(adj1, [order[s] for s in c1])
        col2 = _refine(adj2, [order[s] for s in c2])
        if sorted(col1) != sorted(col2):
            return

        # Map vertices in maximum-cardinality-search order: next comes the
        # vertex with the most already-placed neighbours, ties going to the
        # rarest refined class, then to the index.  Candidates come from the
        # intersection of the placed neighbours' image neighbourhoods, so the
        # more of them there are, the fewer candidates survive.  A BFS order
        # would place every edge at a vertex of an incidence graph before any
        # of their other ends, each with one placed neighbour, and branch on
        # all.
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

        self.feasible = True
        self.n, self.vorder = n, vorder
        self._adj1, self._col1, self._col2 = adj1, col1, col2
        # g2's neighbourhoods as sets, which the candidate rule intersects
        self._nbr2 = [frozenset(ns) for ns in adj2]
        # each graph's edge lookup and colouring, when colours must be kept
        self._coloured = None
        if edge_colour_pair is not None:
            a1, a2 = edge_colour_pair
            self._coloured = (g1.edge_at, a1, g2.edge_at, a2)
        self.images: list[int] = [-1] * n
        self._mapped_images: set[int] = set()

    def candidates(self, v: int) -> list[int]:
        """The images of g1's vertex ``v`` that agree with the maps placed so
        far, in increasing order."""
        images, nbr2, mapped_images = self.images, self._nbr2, self._mapped_images
        mapped_nbrs = [x for x in self._adj1[v] if images[x] >= 0]
        if mapped_nbrs:
            pool = set(nbr2[images[mapped_nbrs[0]]])
            for x in mapped_nbrs[1:]:
                pool &= nbr2[images[x]]
        else:
            pool = set(range(self.n))
        col2, colour = self._col2, self._col1[v]
        cands = []
        want_mapped_degree = len(mapped_nbrs)
        for w in sorted(pool):
            if w in mapped_images or col2[w] != colour:
                continue
            # no extra adjacencies into the mapped image: preserves non-edges
            if len(nbr2[w] & mapped_images) != want_mapped_degree:
                continue
            if self._coloured:
                at1, c1, at2, c2 = self._coloured
                if any(c1[at1[v, x]] != c2[at2[w, images[x]]] for x in mapped_nbrs):
                    continue
            cands.append(w)
        return cands

    def place(self, v: int, w: int) -> None:
        self.images[v] = w
        self._mapped_images.add(w)

    def unplace(self, v: int, w: int) -> None:
        self.images[v] = -1
        self._mapped_images.remove(w)

    def maps(self, i: int = 0) -> Iterator[tuple[int, ...]]:
        """Every completion of the placed prefix ``vorder[:i]``, depth first,
        so in increasing order of the images along ``vorder``.  The open
        levels' candidates are a stack, not a recursion, so no depth meets
        the recursion limit.  Each level undoes its placement when the walk
        moves on, ends or is closed."""
        vorder, images, stack = self.vorder, self.images, []  # open levels i, i + 1, ...
        try:
            while True:
                if i + len(stack) == self.n:
                    yield tuple(images)
                else:
                    stack.append(iter(self.candidates(vorder[i + len(stack)])))
                while stack:  # the next candidate of the deepest open level
                    v = vorder[i + len(stack) - 1]
                    if images[v] >= 0:
                        self.unplace(v, images[v])
                    w = next(stack[-1], -1)
                    if w >= 0:
                        self.place(v, w)
                        break
                    stack.pop()
                else:
                    return
        finally:
            for v in vorder[i:i + len(stack)]:
                if images[v] >= 0:
                    self.unplace(v, images[v])

    def first(self, i: int) -> Optional[tuple[int, ...]]:
        """The first completion of the placed prefix ``vorder[:i]``, or None."""
        with closing(self.maps(i)) as walk:
            return next(walk, None)


def _close(reach: dict[int, np.ndarray], gens: list[np.ndarray]) -> None:
    """Grow ``reach`` (point -> a map carrying a starting point to it) to the
    union of its points' orbits under ``gens``.  A new point's map is its
    generator composed after the map of the point it came from."""
    queue = list(reach)
    for u in queue:  # the queue grows while it is read
        for g in gens:
            x = int(g[u])
            if x not in reach:
                reach[x] = g[reach[u]]
                queue.append(x)


def _transversals(g: BipartiteGraph, side_swap: bool) -> list[np.ndarray]:
    """One transversal per level of the stabiliser chain along ``vorder``.

    Level i is the subgroup that fixes ``vorder[:i]`` pointwise.  Its
    transversal holds one element per point of the orbit of v = ``vorder[i]``,
    so the group is the product of the transversals and its order the
    product of their sizes.  The levels are walked deepest first, with the
    prefix placed as the identity, and every map found is kept: one found at
    a deeper level fixes every shallower prefix, so all lie in the level's
    group.  A candidate image w of v is searched for (the first map that
    completes ``v -> w``) only when it lies neither in v's orbit under the
    maps kept nor in the orbit of a candidate that failed, since the level's
    orbits are disjoint (orbit pruning, as in nauty).  The other orbit
    points' elements are read off the orbit (``_close``).  Returns the
    levels, each an ``(orbit size x n)`` int32 array of image rows: the
    identity, then the other orbit points' elements in increasing order of
    their image of v.
    """
    search = _Search(g, g, side_swap)
    identity = np.arange(search.n, dtype=np.int32)
    for v in search.vorder:
        search.place(v, v)
    gens: list[np.ndarray] = []
    levels = []
    for i in reversed(range(search.n)):
        v = search.vorder[i]
        search.unplace(v, v)
        reach, failed = {v: identity}, {}
        _close(reach, gens)
        for w in search.candidates(v):
            if w in reach or w in failed:
                continue
            search.place(v, w)
            found = search.first(i + 1)
            search.unplace(v, w)
            if found is None:
                failed[w] = identity
                _close(failed, gens)
            else:
                gens.append(np.array(found, dtype=np.int32))
                _close(reach, gens)
        levels.append(np.array([identity] + [reach[w] for w in sorted(reach) if w != v]))
    return levels[::-1]


def _all_automorphisms(g: BipartiteGraph, config: RunConfig) -> np.ndarray:
    """The whole group as an ``(order x n)`` int32 array of image rows, each
    element once.

    Each element is t_0 t_1 ... t_(n-1), one transversal element per level,
    formed deepest level first.
    """
    if g.n_vertices > config.cap_vertices:
        raise CapExceeded("automorphism search", g.n_vertices, config.cap_vertices)
    levels = _transversals(g, config.side_swap)
    order = prod(len(t) for t in levels)
    if order > _GROUP_CAP:
        raise CapExceeded("automorphism group size", order, _GROUP_CAP)
    group = np.arange(g.n_vertices, dtype=np.int32)[None, :]
    for t in reversed(levels):
        if len(t) > 1:
            group = t[:, group].reshape(-1, g.n_vertices)
    return group


def _edge_table(g: BipartiteGraph, group: np.ndarray) -> np.ndarray:
    """``(automorphisms x edges)`` table: row k maps edge i to ``table[k, i]``.

    Row k is the edge permutation that the vertex map ``group[k]`` induces.
    The entries are ``intp``, the dtype numpy indexes with, so ``c[perms]`` in
    ``_orbit_mask`` and ``_colour_action`` need no cast on every orbit.
    """
    n = g.n_vertices
    xs, ys = np.array(g.ends, dtype=np.intp).reshape(-1, 2).T
    edge_at = np.zeros((n, n), dtype=np.intp)
    edge_at[xs, ys] = edge_at[ys, xs] = np.arange(g.n_edges)
    flat = edge_at.ravel()
    table = np.empty((len(group), g.n_edges), dtype=np.intp)
    # one gather through the flat (vertex, vertex) -> edge index per block of
    # rows, so the int32 gather index is a block long, not half another table
    step = max(1, (1 << 20) // max(1, g.n_edges))
    for lo in range(0, len(group), step):
        rows = group[lo:lo + step]
        table[lo:lo + step] = flat[rows[:, xs] * n + rows[:, ys]]
    return table


def automorphisms(g: BipartiteGraph, config: RunConfig = DEFAULT,
                  colours=None) -> SymmetryReport:
    """Exact automorphism group: order and transitivity flags and, given a
    balanced colouring's ``colours`` (else None), its self-conjugacy and
    transitivity, all from one group search."""
    group = _all_automorphisms(g, config)
    # the group is complete, so the images of vertex 0 and of edge 0 are their
    # orbits: column 0, and the columns of edge 0's ends, read on their own
    # rather than from a whole (|Aut| x edges) table
    edge_transitive = vertex_transitive = True
    if g.n_edges:
        x, y = g.ends[0]
        edge_orbit = set(map(frozenset, zip(group[:, x].tolist(), group[:, y].tolist())))
        edge_transitive = len(edge_orbit) == g.n_edges
        vertex_transitive = len(set(group[:, 0].tolist())) == g.n_vertices
    self_conjugate = transitive = None
    if colours is not None:
        table = _edge_table(g, group)
        self_conjugate = bool(_colour_action(table, colours)[1].any())
        transitive = not g.n_edges or _transitive_under(table, colours)
    return SymmetryReport(edge_transitive, vertex_transitive, len(group),
                          self_conjugate, transitive)


def isomorphic(g1: BipartiteGraph, g2: BipartiteGraph, config: RunConfig = DEFAULT) -> bool:
    """Graph isomorphism; with ``config.side_swap`` off the map must carry
    left to left.  Graphs whose vertex or edge counts differ are not
    isomorphic, whatever ``config.cap_vertices`` is."""
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return False
    if g1.n_vertices > config.cap_vertices:
        raise CapExceeded("isomorphism search", g1.n_vertices, config.cap_vertices)
    search = _Search(g1, g2, config.side_swap)
    return search.feasible and search.first(0) is not None


# -- colouring symmetry ------------------------------------------------------


def _colour_action(table: np.ndarray, colours) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over the rows of an edge table: (colour-preserving,
    colour-reversing).  With no edges every row counts as preserving only."""
    col = np.asarray(colours, dtype=np.int8)
    image = col[table]
    preserving = (image == col).all(axis=1)
    return preserving, (image != col).all(axis=1) & ~preserving


def _transitive_under(perms: np.ndarray, colours) -> bool:
    """Is the colouring transitive under the group given by its edge table?

    ``perms`` must be the edge table (``_edge_table``) of the *whole* group.
    The package's one colouring-symmetry check: ``automorphisms`` runs it on
    one colouring, ``_orbit_mask`` once per orbit of a closed set of them, as
    the answer is the same across an orbit.  Equivalent check: the
    colour-preserving maps act transitively on each colour class and at least
    one colour-reversing map exists (composing it with preserving maps then
    reaches every opposite-colour pair).  The preserving rows of the whole
    group form a subgroup, so the images of a class's first edge under them
    are exactly that edge's orbit.
    """
    col = np.asarray(colours, dtype=np.int8)
    preserving, reversing = _colour_action(perms, col)
    classes = (np.flatnonzero(col == colour) for colour in (0, 1))
    return bool(reversing.any()) and all(
        not cls.size or len(set(perms[preserving, cls[0]].tolist())) == cls.size
        for cls in classes)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per 0/1 row: its bits packed into bytes and viewed as a single
    ``void`` scalar, so rows of any length sort and compare whole."""
    packed = np.packbits(rows, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _orbit_mask(g: BipartiteGraph, matrix: np.ndarray,
                config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The transitive filter: ``_transitive_under(perms, row)`` on every row
    of a C-contiguous 0/1 int8 colouring matrix of g, run once per orbit of
    the rows under the group and conjugation, with ``perms`` the edge table
    of the whole group that ``config`` gives, searched here only when there
    is a row.  ``_transitive_under`` is looked up when the filter runs.

    The rows must be a set closed under the group and under conjugation (the
    balanced colourings are).  Then the images ``c[perms]`` and
    ``1 - c[perms]`` of a row c are its whole orbit, and every row of that
    orbit gets c's verdict.  Returns the mask and each row's orbit label, the
    index of the orbit's first row.  An image outside the rows, or a row
    reached from two orbits, means the precondition failed, and raises
    ``VerificationFailed`` rather than give a verdict.
    """
    mask = np.zeros(len(matrix), dtype=bool)
    orbit = np.full(len(matrix), -1, dtype=np.intp)
    if not len(matrix):
        return mask, orbit
    perms = _edge_table(g, _all_automorphisms(g, config))
    keys = _row_keys(matrix)
    order = np.argsort(keys)
    keys = keys[order]
    for i, c in enumerate(matrix):
        if orbit[i] >= 0:
            continue
        images = c[perms]
        images = _row_keys(np.concatenate((images, 1 - images)))
        found = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
        rows = order[found]
        if not (keys[found] == images).all() or (orbit[rows] >= 0).any():
            raise VerificationFailed(
                "colouring set not closed under the group and conjugation")
        orbit[rows] = i
        mask[rows] = _transitive_under(perms, c)
    return mask, orbit
